// Tests for the packed SIMD GEMM micro-kernel layer (tensor/gemm_kernel):
// golden values vs a double-precision reference triple loop across
// NN/NT/TN/TT and tile-boundary shapes, BLAS beta/alpha semantics, the
// NaN/Inf zero-skip contract (sparsity must never mask non-finite
// operands), bitwise 1-vs-4-thread determinism (including products whose
// tile sweep splits over column strips and row blocks), the fixed-grouping
// depth sum of gemm_grouped against per-segment gemm() calls, allocation-free
// steady state for the transposed paths (which previously materialized
// fresh transpose buffers per call), and the flops telemetry regression
// (degenerate calls must record zero flops), and bitwise agreement with a
// scalar fmaf reference of the documented per-element operation order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "telemetry/telemetry.hpp"
#include "tensor/gemm.hpp"
#include "tensor/gemm_kernel.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace remapd {
namespace {

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

/// Scoped thread-count override (mirrors test_parallel.cpp).
class ThreadGuard {
 public:
  explicit ThreadGuard(std::size_t n) : old_(parallel_threads()) {
    set_parallel_threads(n);
  }
  ~ThreadGuard() { set_parallel_threads(old_); }

 private:
  std::size_t old_;
};

/// Reference: C = alpha * op(A) * op(B) + beta * C with double accumulation,
/// strictly the mathematical definition (no blocking, no skipping).
void ref_gemm(bool ta, bool tb, std::size_t m, std::size_t n, std::size_t k,
              float alpha, const float* a, std::size_t lda, const float* b,
              std::size_t ldb, float beta, float* c, std::size_t ldc) {
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        const float av = ta ? a[p * lda + i] : a[i * lda + p];
        const float bv = tb ? b[j * ldb + p] : b[p * ldb + j];
        s += static_cast<double>(av) * bv;
      }
      const double base = beta == 0.0f ? 0.0 : beta * c[i * ldc + j];
      c[i * ldc + j] = static_cast<float>(base + alpha * s);
    }
}

Tensor random_matrix(std::size_t r, std::size_t cdim, Rng& rng) {
  return Tensor::randn(Shape{r, cdim}, rng);
}

// ---------------------------------------------------------------------------
// Golden values vs the reference triple loop
// ---------------------------------------------------------------------------

TEST(GemmKernel, GoldenSweepAllTransposesAndTailShapes) {
  // Sizes straddle every tile boundary: micro-tile (kMR=6, kNR=16), the
  // row-partition grain (kMC=48), and skinny/tail shapes.
  const std::size_t sizes[] = {1, 3, 6, 7, 15, 16, 17, 47, 48, 49, 100};
  Rng rng(2025);
  for (const std::size_t m : sizes)
    for (const std::size_t n : sizes)
      for (const std::size_t k : sizes)
        for (int t = 0; t < 4; ++t) {
          const bool ta = t & 2, tb = t & 1;
          const Tensor a =
              random_matrix(ta ? k : m, ta ? m : k, rng);
          const Tensor b =
              random_matrix(tb ? n : k, tb ? k : n, rng);
          const Tensor c = matmul(a, ta, b, tb);
          std::vector<float> ref(m * n, 0.0f);
          ref_gemm(ta, tb, m, n, k, 1.0f, a.data(), a.shape()[1], b.data(),
                   b.shape()[1], 0.0f, ref.data(), n);
          for (std::size_t e = 0; e < m * n; ++e)
            ASSERT_NEAR(c[e], ref[e], 2e-4 * (std::abs(ref[e]) + 1.0))
                << "m=" << m << " n=" << n << " k=" << k << " ta=" << ta
                << " tb=" << tb << " e=" << e;
        }
}

TEST(GemmKernel, AlphaBetaSemantics) {
  Rng rng(7);
  const std::size_t m = 13, n = 21, k = 35;
  const Tensor a = random_matrix(m, k, rng);
  const Tensor b = random_matrix(k, n, rng);
  for (const float alpha : {1.0f, 2.5f, -0.75f})
    for (const float beta : {0.0f, 1.0f, 0.5f}) {
      std::vector<float> c(m * n), ref(m * n);
      for (std::size_t e = 0; e < m * n; ++e) c[e] = ref[e] = 0.125f * e;
      gemm(false, false, m, n, k, alpha, a.data(), k, b.data(), n, beta,
           c.data(), n);
      ref_gemm(false, false, m, n, k, alpha, a.data(), k, b.data(), n, beta,
               ref.data(), n);
      for (std::size_t e = 0; e < m * n; ++e)
        ASSERT_NEAR(c[e], ref[e], 2e-4 * (std::abs(ref[e]) + 1.0))
            << "alpha=" << alpha << " beta=" << beta << " e=" << e;
    }
}

TEST(GemmKernel, BetaZeroOverwritesNaNWithoutReadingC) {
  // BLAS semantics: beta == 0 must store, not accumulate — C may hold NaN
  // or garbage from an uninitialized buffer.
  Rng rng(9);
  const Tensor a = random_matrix(5, 4, rng);
  const Tensor b = random_matrix(4, 3, rng);
  std::vector<float> c(5 * 3, kNaN);
  gemm(false, false, 5, 3, 4, 1.0f, a.data(), 4, b.data(), 3, 0.0f, c.data(),
       3);
  for (const float v : c) EXPECT_TRUE(std::isfinite(v));

  // Degenerate k == 0 and alpha == 0 also clear under beta == 0.
  std::fill(c.begin(), c.end(), kNaN);
  gemm(false, false, 5, 3, 0, 1.0f, a.data(), 4, b.data(), 3, 0.0f, c.data(),
       3);
  for (const float v : c) EXPECT_EQ(v, 0.0f);
  std::fill(c.begin(), c.end(), kNaN);
  gemm(false, false, 5, 3, 4, 0.0f, a.data(), 4, b.data(), 3, 0.0f, c.data(),
       3);
  for (const float v : c) EXPECT_EQ(v, 0.0f);
}

// ---------------------------------------------------------------------------
// NaN/Inf zero-skip contract
// ---------------------------------------------------------------------------

TEST(GemmKernel, ZeroAEntriesNeverMaskNonFiniteB) {
  // Every product is issued: a zero A entry against NaN/Inf in B must
  // surface as NaN (0 * NaN = 0 * Inf = NaN), at every tile position —
  // including column tails past kNR and row tails past kMR.
  const std::size_t m = 8, n = 19, k = 5;
  Tensor a = Tensor::zeros(Shape{m, k});
  Tensor b = Tensor::zeros(Shape{k, n});
  b.at(2, 0) = kNaN;
  b.at(3, 17) = kInf;  // column-tail lane
  const Tensor c = matmul(a, b);
  for (std::size_t i = 0; i < m; ++i) {
    EXPECT_TRUE(std::isnan(c.at(i, 0))) << i;
    EXPECT_TRUE(std::isnan(c.at(i, 17))) << i;
    EXPECT_EQ(c.at(i, 5), 0.0f) << i;  // finite columns stay clean
  }
}

TEST(GemmKernel, NonFiniteAPropagatesThroughZeroB) {
  const std::size_t m = 7, n = 4, k = 6;
  Tensor a = Tensor::zeros(Shape{m, k});
  Tensor b = Tensor::zeros(Shape{k, n});
  a.at(6, 1) = kInf;  // row-tail strip
  const Tensor c = matmul(a, b);
  for (std::size_t j = 0; j < n; ++j)
    EXPECT_TRUE(std::isnan(c.at(6, j))) << j;  // Inf * 0 = NaN
  for (std::size_t j = 0; j < n; ++j) EXPECT_EQ(c.at(0, j), 0.0f);
}

TEST(GemmKernel, AlphaZeroIssuesNoProductsSoNaNStaysOut) {
  // alpha == 0 short-circuits before any multiply: non-finite operands must
  // NOT reach C (only the beta scale runs) — the BLAS degenerate contract.
  Tensor a = Tensor::zeros(Shape{3, 3});
  Tensor b = Tensor::zeros(Shape{3, 3});
  a.fill(kNaN);
  b.fill(kInf);
  std::vector<float> c(9, 2.0f);
  gemm(false, false, 3, 3, 3, 0.0f, a.data(), 3, b.data(), 3, 0.5f, c.data(),
       3);
  for (const float v : c) EXPECT_EQ(v, 1.0f);
}

// ---------------------------------------------------------------------------
// Thread-count invariance and fused-vs-unfused agreement
// ---------------------------------------------------------------------------

TEST(GemmKernel, BitwiseThreadInvarianceAcrossTransposes) {
  Rng rng(41);
  const std::size_t m = 53, n = 37, k = 61;  // nothing tile-aligned
  for (int t = 0; t < 4; ++t) {
    const bool ta = t & 2, tb = t & 1;
    const Tensor a = random_matrix(ta ? k : m, ta ? m : k, rng);
    const Tensor b = random_matrix(tb ? n : k, tb ? k : n, rng);
    Tensor c1, c4;
    {
      ThreadGuard guard(1);
      c1 = matmul(a, ta, b, tb);
    }
    {
      ThreadGuard guard(4);
      c4 = matmul(a, ta, b, tb);
    }
    ASSERT_EQ(0, std::memcmp(c1.data(), c4.data(), m * n * sizeof(float)))
        << "ta=" << ta << " tb=" << tb;
  }
}

// ---------------------------------------------------------------------------
// Allocation-free steady state (NT/TN previously heap-allocated per call)
// ---------------------------------------------------------------------------

TEST(GemmKernel, TiledSweepIsThreadInvariantAndCorrect) {
  // Shapes whose tile sweep splits into several blocks: a conv layer's
  // whole-batch GEMM (few rows, over a thousand columns with a partial last
  // strip, depth over two kKC chunks), and a taller product with three
  // row blocks whose blocks end part-way through a strip. Each element must
  // match the serial result bitwise, with beta applied exactly once.
  struct Shape3 {
    std::size_t m, n, k;
    bool tb;
  };
  Rng rng(47);
  for (const Shape3 s : {Shape3{16, 1061, kKC + 45, false},
                         Shape3{100, 300, 300, true}}) {
    const Tensor a = random_matrix(s.m, s.k, rng);
    const Tensor b = s.tb ? random_matrix(s.n, s.k, rng)
                          : random_matrix(s.k, s.n, rng);
    const std::size_t ldb = s.tb ? s.k : s.n;
    const Tensor c0 = random_matrix(s.m, s.n, rng);
    Tensor c1 = c0, c4 = c0, ref = c0;
    const auto run = [&](std::size_t threads, Tensor& c) {
      ThreadGuard guard(threads);
      gemm(false, s.tb, s.m, s.n, s.k, 1.0f, a.data(), s.k, b.data(), ldb,
           0.5f, c.data(), s.n);
    };
    run(1, c1);
    run(4, c4);
    ASSERT_EQ(0,
              std::memcmp(c1.data(), c4.data(), s.m * s.n * sizeof(float)))
        << "m=" << s.m;
    ref_gemm(false, s.tb, s.m, s.n, s.k, 1.0f, a.data(), s.k, b.data(), ldb,
             0.5f, ref.data(), s.n);
    for (std::size_t i = 0; i < s.m * s.n; ++i)
      ASSERT_NEAR(c1[i], ref[i], 1e-3f * (1.0f + std::abs(ref[i])))
          << "m=" << s.m << " i=" << i;
  }
}

TEST(GemmKernel, GroupedDepthMatchesPerSegmentGemmBitwise) {
  // gemm_grouped over `segs` segments must equal, bit for bit, one
  // gemm(beta = 1) per segment into a zeroed buffer per group of segments,
  // the buffers then added to beta*C in order. Shapes cover a segment
  // shorter than a micro-tile's depth use, one past a kKC chunk boundary,
  // a last group shorter than the rest, beta != 1, both operand layouts
  // (the conv dW case is NT), tile sweeps of one and of many blocks, and
  // 1 vs 4 threads.
  struct Case {
    std::size_t m, n, seg, segs, group;
    bool ta, tb;
    float beta;
  };
  Rng rng(53);
  for (const Case cs : {Case{64, 576, 4, 32, 2, false, true, 1.0f},
                        Case{100, 300, 30, 10, 4, false, true, 0.5f},
                        Case{100, 300, 200, 5, 2, false, true, 0.5f},
                        Case{7, 33, kKC + 9, 5, 2, false, true, 0.5f},
                        Case{20, 300, 25, 7, 3, true, false, 1.0f},
                        Case{13, 50, 40, 4, 1, false, false, 0.0f}}) {
    const std::size_t k = cs.seg * cs.segs;
    const Tensor a = cs.ta ? random_matrix(k, cs.m, rng)
                           : random_matrix(cs.m, k, rng);
    const Tensor b = cs.tb ? random_matrix(cs.n, k, rng)
                           : random_matrix(k, cs.n, rng);
    const std::size_t lda = cs.ta ? cs.m : k, ldb = cs.tb ? k : cs.n;
    const Tensor c0 = random_matrix(cs.m, cs.n, rng);

    // Reference: per-segment gemm() calls over offset operand views.
    Tensor ref = c0;
    for (std::size_t e = 0; e < ref.numel(); ++e)
      ref[e] = cs.beta == 0.0f ? 0.0f : cs.beta * ref[e];
    Tensor part(Shape{cs.m, cs.n});
    for (std::size_t s = 0; s < cs.segs; ++s) {
      if (s % cs.group == 0) part = Tensor::zeros(Shape{cs.m, cs.n});
      const std::size_t p0 = s * cs.seg;
      gemm(cs.ta, cs.tb, cs.m, cs.n, cs.seg, 1.0f,
           a.data() + (cs.ta ? p0 * lda : p0), lda,
           b.data() + (cs.tb ? p0 : p0 * ldb), ldb, 1.0f, part.data(), cs.n);
      if ((s + 1) % cs.group == 0 || s + 1 == cs.segs)
        for (std::size_t e = 0; e < ref.numel(); ++e) ref[e] += part[e];
    }

    for (const std::size_t threads : {1, 4}) {
      ThreadGuard guard(threads);
      Tensor c = c0;
      gemm_grouped(cs.ta, cs.tb, cs.m, cs.n, cs.seg, cs.segs, cs.group, 1.0f,
                   a.data(), lda, b.data(), ldb, cs.beta, c.data(), cs.n);
      ASSERT_EQ(0, std::memcmp(c.data(), ref.data(),
                               cs.m * cs.n * sizeof(float)))
          << "m=" << cs.m << " seg=" << cs.seg << " threads=" << threads;
    }
  }
}

/// beta*C rounded on its own: out of line, so the compiler cannot contract
/// it with the add that follows into one FMA.
[[gnu::noinline]] float rounded_mul(float x, float y) { return x * y; }

/// The documented per-element order of gemm_packed in scalar fmaf: beta
/// once (0 + ... for beta == 0, C unread), then each depth chunk — kKC
/// deep, restarting at segment boundaries — accumulated from zero in
/// ascending k. A plain depth adds each chunk to C; a grouped depth sums a
/// group's chunks into a zeroed partial that is added to C in group order.
void fma_order_ref(bool ta, bool tb, std::size_t m, std::size_t n,
                   std::size_t k, DepthSplit split, float alpha,
                   const float* a, std::size_t lda, const float* b,
                   std::size_t ldb, float beta, float* c, std::size_t ldc) {
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      float& cij = c[i * ldc + j];
      float acc = beta == 0.0f   ? 0.0f
                  : beta == 1.0f ? cij
                                 : rounded_mul(cij, beta);
      float part = 0.0f;
      for (std::size_t pc = 0, kc; pc < k; pc += kc) {
        const std::size_t end =
            split.seg == 0 ? k : (pc / split.seg + 1) * split.seg;
        kc = std::min(kKC, end - pc);
        float chunk = 0.0f;
        for (std::size_t p = pc; p < pc + kc; ++p) {
          const float av = ta ? a[p * lda + i] : a[i * lda + p];
          const float bv = tb ? b[j * ldb + p] : b[p * ldb + j];
          chunk = std::fmaf(alpha * av, bv, chunk);
        }
        if (split.seg == 0) {
          acc = acc + chunk;
          continue;
        }
        part = part + chunk;
        if ((pc + kc) % (split.seg * split.group) == 0 || pc + kc == k) {
          acc = acc + part;
          part = 0.0f;
        }
      }
      cij = acc;
    }
}

TEST(GemmKernel, MatchesFmaReferenceOrderBitwise) {
  // The AVX2 kernel issues exactly the reference's IEEE operations per C
  // element (FMA chains per chunk, then the documented adds), so the two
  // agree bit for bit: every live-row count of a strip, column tails,
  // depths below, at and above kKC, grouped depths with a segment crossing
  // a chunk, each beta and operand layout, at 1 and 4 threads. beta = 0.3
  // makes beta*C inexact, so an FMA contracted from beta*C + chunk shows.
  // The portable kernel rounds each product before its add, so it is not
  // FMA-exact.
  if (std::string(gemm_kernel_name()) != "avx2")
    GTEST_SKIP() << "kernel is " << gemm_kernel_name();
  struct Layout {
    bool ta, tb;
  };
  const Layout layouts[] = {{false, false}, {false, true}, {true, false}};
  Rng rng(61);
  const auto check = [&](std::size_t m, std::size_t n, std::size_t k,
                         DepthSplit split, Layout l, float alpha,
                         float beta) {
    const Tensor a = l.ta ? random_matrix(k, m, rng) : random_matrix(m, k, rng);
    const Tensor b = l.tb ? random_matrix(n, k, rng) : random_matrix(k, n, rng);
    const std::size_t lda = l.ta ? m : k, ldb = l.tb ? k : n;
    const Tensor c0 = random_matrix(m, n, rng);
    Tensor ref = c0;
    fma_order_ref(l.ta, l.tb, m, n, k, split, alpha, a.data(), lda, b.data(),
                  ldb, beta, ref.data(), n);
    for (const std::size_t threads : {1, 4}) {
      ThreadGuard guard(threads);
      Tensor c = c0;
      if (split.seg == 0)
        gemm(l.ta, l.tb, m, n, k, alpha, a.data(), lda, b.data(), ldb, beta,
             c.data(), n);
      else
        gemm_grouped(l.ta, l.tb, m, n, split.seg, k / split.seg, split.group,
                     alpha, a.data(), lda, b.data(), ldb, beta, c.data(), n);
      ASSERT_EQ(0, std::memcmp(c.data(), ref.data(), m * n * sizeof(float)))
          << "m=" << m << " n=" << n << " k=" << k << " seg=" << split.seg
          << " ta=" << l.ta << " tb=" << l.tb << " beta=" << beta
          << " threads=" << threads;
    }
  };
  for (const std::size_t m : {1, 2, 3, 4, 5, 6, 7, 8, 13, 27, 64})
    for (const std::size_t n : {1, 15, 17, 27})
      for (const std::size_t k : {kKC - 19, kKC, kKC + 45})
        for (const float beta : {0.0f, 0.5f, 1.0f, 0.3f})
          for (const Layout l : layouts)
            check(m, n, k, DepthSplit{}, l, 1.0f, beta);

  struct Grouped {
    DepthSplit split;
    std::size_t segs;
  };
  for (const Grouped g : {Grouped{{4, 2}, 32}, Grouped{{256, 2}, 3},
                          Grouped{{300, 3}, 4}})
    for (const std::size_t m : {5, 13, 64})
      for (const std::size_t n : {17, 27})
        for (const float beta : {0.0f, 0.5f, 1.0f, 0.3f})
          for (const Layout l : layouts)
            check(m, n, g.split.seg * g.segs, g.split, l, -0.75f, beta);

  // beta = 0 adds the product to +0.0, so a product of -0.0 (every term
  // underflows to -0) reads +0.0, and NaN already in C is never read.
  const std::size_t m = 7, n = 19, k = 9;
  const std::vector<float> a(m * k, -1e-30f), b(k * n, 1e-30f);
  for (const float init : {7.0f, kNaN}) {
    std::vector<float> c(m * n, init);
    gemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
         c.data(), n);
    for (const float v : c) {
      ASSERT_EQ(v, 0.0f) << "init=" << init;
      ASSERT_FALSE(std::signbit(v)) << "init=" << init;
    }
  }
}

TEST(GemmKernel, TransposedPathsDoNotAllocateInSteadyState) {
  ThreadGuard guard(1);  // one thread -> one deterministic set of arenas
  Rng rng(17);
  const std::size_t m = 32, n = 576, k = 100;
  const Tensor a = random_matrix(m, k, rng);      // NT: dy * col^T shape
  const Tensor bt = random_matrix(n, k, rng);     // operand stored n x k
  const Tensor at = random_matrix(k, m, rng);     // TN operand
  const Tensor b = random_matrix(k, n, rng);
  Tensor c(Shape{m, n});
  const auto call_both = [&] {
    gemm(false, true, m, n, k, 1.0f, a.data(), k, bt.data(), k, 1.0f,
         c.data(), n);
    gemm(true, false, m, n, k, 1.0f, at.data(), m, b.data(), n, 0.0f,
         c.data(), n);
  };
  for (int i = 0; i < 3; ++i) call_both();  // warm the arenas
  const std::uint64_t warm = gemm_scratch_allocations();
  for (int i = 0; i < 50; ++i) call_both();
  EXPECT_EQ(gemm_scratch_allocations(), warm)
      << "NT/TN steady-state calls must reuse the packing arenas";
}

// ---------------------------------------------------------------------------
// Regression: flops telemetry must count only multiplies actually issued
// ---------------------------------------------------------------------------

TEST(GemmKernel, FlopsCountedOnlyForIssuedMultiplies) {
  telemetry::set_enabled(true);
  telemetry::Counter& flops =
      telemetry::Registry::instance().counter("tensor.gemm.flops");
  Rng rng(19);
  const Tensor a = random_matrix(6, 5, rng);
  const Tensor b = random_matrix(5, 4, rng);
  Tensor c(Shape{6, 4});

  const std::uint64_t before = flops.value();
  // Degenerate calls: alpha == 0, k == 0, empty C — no multiplies, no flops
  // (the old kernel recorded 2*m*n*k before its early return, inflating
  // GFLOP/s in telemetry and BENCH_gemm.json).
  gemm(false, false, 6, 4, 5, 0.0f, a.data(), 5, b.data(), 4, 0.5f, c.data(),
       4);
  gemm(false, false, 6, 4, 0, 1.0f, a.data(), 5, b.data(), 4, 1.0f, c.data(),
       4);
  gemm(false, false, 0, 4, 5, 1.0f, a.data(), 5, b.data(), 4, 0.0f, c.data(),
       4);
  gemm(false, false, 6, 0, 5, 1.0f, a.data(), 5, b.data(), 4, 0.0f, c.data(),
       4);
  EXPECT_EQ(flops.value(), before);

  gemm(false, false, 6, 4, 5, 1.0f, a.data(), 5, b.data(), 4, 0.0f, c.data(),
       4);
  EXPECT_EQ(flops.value(), before + 2ull * 6 * 4 * 5);
  telemetry::set_enabled(false);
}

// ---------------------------------------------------------------------------
// aligned_grain helper (util/parallel)
// ---------------------------------------------------------------------------

TEST(GemmKernel, AlignedGrainRoundsUpToTileMultiples) {
  EXPECT_EQ(aligned_grain(48, 6), 48u);
  EXPECT_EQ(aligned_grain(47, 6), 48u);
  EXPECT_EQ(aligned_grain(1, 6), 6u);
  EXPECT_EQ(aligned_grain(0, 6), 6u);
  EXPECT_EQ(aligned_grain(13, 0), 13u);  // tile 0 behaves as 1
  EXPECT_EQ(aligned_grain(0, 0), 1u);
}

}  // namespace
}  // namespace remapd
