#include "tensor/gemm_kernel.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <vector>

#include "util/parallel.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define REMAPD_GEMM_X86_DISPATCH 1
#include <immintrin.h>
#endif

namespace remapd {
namespace {

std::atomic<std::uint64_t> g_scratch_allocs{0};

// Grow-only scratch arena: one per thread (workers persist across calls, so
// thread_local buffers amortize to zero allocations in steady state).
struct Arena {
  std::vector<float> buf;
  float* ensure(std::size_t n) {
    if (buf.size() < n) {
      buf.resize(n);
      g_scratch_allocs.fetch_add(1, std::memory_order_relaxed);
    }
    return buf.data();
  }
};
thread_local Arena t_apack_arena;
thread_local Arena t_group_arena;  // a block's group partials of C tiles

constexpr std::size_t kTile = kMR * kNR;

// A pool dispatch waits for every worker to wake, which costs about as much
// as a few dozen microseconds of micro-kernel work. Each parallel sweep
// therefore cuts blocks of at least this much work, and a sweep smaller
// than one block runs inline. Like every grain, these depend only on the
// problem shape (§9), never on the thread count.
constexpr std::size_t kMinBlockFlops = std::size_t{1} << 21;   // ~0.1 ms
constexpr std::size_t kMinBlockFloats = std::size_t{1} << 16;  // 256 KiB A

/// Items per block so that a block carries at least `min_work`.
inline std::size_t work_grain(std::size_t work_per_item,
                              std::size_t min_work) {
  return std::max<std::size_t>(1, min_work / std::max<std::size_t>(
                                                 1, work_per_item));
}

// ---------------------------------------------------------------------------
// Micro-kernels: full kMR x kNR tile over one packed depth chunk, written to
// an aligned tile buffer (the merge step handles tails and C update). The
// per-lane accumulation is strictly ascending in k, so every C element's FP
// order is independent of tiling, partitioning, and thread count.
// ---------------------------------------------------------------------------

using MicroFn = void (*)(std::size_t kc, const float* ap, const float* bp,
                         float* tile);

void micro_portable(std::size_t kc, const float* ap, const float* bp,
                    float* tile) {
  float acc[kTile] = {0.0f};
  for (std::size_t p = 0; p < kc; ++p) {
    const float* brow = bp + p * kNR;
    const float* arow = ap + p * kMR;
    for (std::size_t r = 0; r < kMR; ++r) {
      const float av = arow[r];
      float* crow = acc + r * kNR;
#pragma omp simd
      for (std::size_t j = 0; j < kNR; ++j) crow[j] += av * brow[j];
    }
  }
  std::memcpy(tile, acc, sizeof(acc));
}

#ifdef REMAPD_GEMM_X86_DISPATCH
__attribute__((target("avx2,fma"))) void micro_avx2(std::size_t kc,
                                                    const float* ap,
                                                    const float* bp,
                                                    float* tile) {
  __m256 acc[kMR][2];
  for (std::size_t r = 0; r < kMR; ++r)
    acc[r][0] = acc[r][1] = _mm256_setzero_ps();
  for (std::size_t p = 0; p < kc; ++p) {
    const __m256 b0 = _mm256_loadu_ps(bp + p * kNR);
    const __m256 b1 = _mm256_loadu_ps(bp + p * kNR + 8);
    const float* arow = ap + p * kMR;
    for (std::size_t r = 0; r < kMR; ++r) {
      const __m256 av = _mm256_broadcast_ss(arow + r);
      acc[r][0] = _mm256_fmadd_ps(av, b0, acc[r][0]);
      acc[r][1] = _mm256_fmadd_ps(av, b1, acc[r][1]);
    }
  }
  for (std::size_t r = 0; r < kMR; ++r) {
    _mm256_storeu_ps(tile + r * kNR, acc[r][0]);
    _mm256_storeu_ps(tile + r * kNR + 8, acc[r][1]);
  }
}
#endif

struct MicroChoice {
  MicroFn fn;
  const char* name;
};

MicroChoice resolve_micro() {
#ifdef REMAPD_GEMM_X86_DISPATCH
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
    return {micro_avx2, "avx2"};
#endif
  return {micro_portable, "portable"};
}

const MicroChoice& micro_choice() {
  static const MicroChoice choice = resolve_micro();
  return choice;
}

// ---------------------------------------------------------------------------
// Packing
// ---------------------------------------------------------------------------

/// Number of kMR strips covering m rows.
inline std::size_t a_strips(std::size_t m) { return (m + kMR - 1) / kMR; }

/// Depth of the chunk starting at `pc`: kKC, cut short at the end of k and,
/// for a segmented depth (seg > 0), at the end of pc's segment.
inline std::size_t chunk_depth(std::size_t pc, std::size_t k,
                               std::size_t seg) {
  const std::size_t end = seg == 0 ? k : (pc / seg + 1) * seg;
  return std::min(kKC, end - pc);
}

/// Pack alpha*op(A) for all depth chunks into `dst` (layout: chunk-major,
/// then kMR strip, then [p * kMR + r]). Only strips intersecting
/// [r0, r1) are written, so concurrent callers with disjoint kMR-aligned
/// row ranges touch disjoint regions.
void pack_a_rows(std::size_t r0, std::size_t r1, std::size_t m, std::size_t k,
                 std::size_t seg, float alpha, StridedOperand a, float* dst) {
  const std::size_t nstrips = a_strips(m);
  for (std::size_t pc = 0, kc; pc < k; pc += kc) {
    kc = chunk_depth(pc, k, seg);
    for (std::size_t g = r0 / kMR; g * kMR < r1; ++g) {
      float* strip = dst + nstrips * kMR * pc + g * kMR * kc;
      const std::size_t rows = std::min(kMR, m - g * kMR);
      for (std::size_t r = 0; r < rows; ++r) {
        const float* src = a.ptr + (g * kMR + r) * a.row_stride +
                           pc * a.col_stride;
        for (std::size_t p = 0; p < kc; ++p)
          strip[p * kMR + r] = alpha * src[p * a.col_stride];
      }
      for (std::size_t r = rows; r < kMR; ++r)
        for (std::size_t p = 0; p < kc; ++p) strip[p * kMR + r] = 0.0f;
    }
  }
}

/// Pack the kNR-wide strip op(B)[pc:pc+kc, j0:j0+lanes] into `strip`
/// ([p * kNR + lane], lanes past `lanes` zero-padded).
void pack_b_strip(std::size_t pc, std::size_t kc, std::size_t j0,
                  std::size_t lanes, StridedOperand b, float* strip) {
  for (std::size_t p = 0; p < kc; ++p) {
    const float* src = b.ptr + (pc + p) * b.row_stride + j0 * b.col_stride;
    float* out = strip + p * kNR;
    if (b.col_stride == 1) {
      for (std::size_t j = 0; j < lanes; ++j) out[j] = src[j];
    } else {
      for (std::size_t j = 0; j < lanes; ++j) out[j] = src[j * b.col_stride];
    }
    for (std::size_t j = lanes; j < kNR; ++j) out[j] = 0.0f;
  }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// Scale rows [r0, r1) x cols [j0, j1) of C by beta. beta == 0 stores zeros
/// without reading (BLAS semantics: C may hold NaN/garbage).
void scale_c(float beta, float* c, std::size_t ldc, std::size_t r0,
             std::size_t r1, std::size_t j0, std::size_t j1) {
  if (beta == 1.0f) return;
  for (std::size_t i = r0; i < r1; ++i) {
    float* crow = c + i * ldc;
    if (beta == 0.0f) {
      for (std::size_t j = j0; j < j1; ++j) crow[j] = 0.0f;
    } else {
      for (std::size_t j = j0; j < j1; ++j) crow[j] *= beta;
    }
  }
}

/// Merge a full micro-tile's valid rows x cols region into C.
void merge_tile(const float* tile, float* c, std::size_t ldc,
                std::size_t rows, std::size_t cols) {
  for (std::size_t r = 0; r < rows; ++r) {
    float* crow = c + r * ldc;
    const float* trow = tile + r * kNR;
#pragma omp simd
    for (std::size_t j = 0; j < cols; ++j) crow[j] += trow[j];
  }
}

/// Compute stage over pre-packed A panels. C is cut into (kMC row block x
/// kNR column strip) tiles, numbered strip by strip, and the tiles are
/// dealt out in blocks of at least kMinBlockFlops — so a wide, short
/// product (m of a few dozen rows) still splits across workers. A block
/// walks the depth chunks in order; per chunk it packs each of its B strips
/// just before use (the strip stays in L1 while every row block of the
/// strip consumes it) and applies beta to each tile at the first chunk.
/// Chunks merge into C directly or, for a grouped depth, into the block's
/// zeroed group partials, which are added to C at each group's end.
/// Each C element has exactly one owning tile and sees its chunks in
/// ascending-k order, whatever the partition.
void compute_packed(std::size_t m, std::size_t n, std::size_t k,
                    DepthSplit split, const float* apanels, StridedOperand b,
                    float beta, float* c, std::size_t ldc) {
  const MicroFn micro = micro_choice().fn;
  const std::size_t nstrips_a = a_strips(m);
  const std::size_t nrb = (m + kMC - 1) / kMC;
  const std::size_t ntiles = nrb * ((n + kNR - 1) / kNR);
  const std::size_t tile_flops = 2 * std::min(kMC, m) * kNR * k;
  const std::size_t group_depth = split.seg * split.group;
  parallel_for(0, ntiles, work_grain(tile_flops, kMinBlockFlops),
               [&](std::size_t t0, std::size_t t1) {
    alignas(32) float tile[kTile];
    alignas(32) float bstrip[kKC * kNR];
    // Group partials: one kMC x kNR region per tile of the block.
    constexpr std::size_t kPart = kMC * kNR;
    float* part = nullptr;
    if (group_depth > 0) {
      part = t_group_arena.ensure((t1 - t0) * kPart);
      std::fill(part, part + (t1 - t0) * kPart, 0.0f);
    }
    for (std::size_t pc = 0, kc; pc < k; pc += kc) {
      kc = chunk_depth(pc, k, split.seg);
      const float* apc = apanels + nstrips_a * kMR * pc;
      for (std::size_t s = t0 / nrb; s * nrb < t1; ++s) {
        const std::size_t j0 = s * kNR;
        const std::size_t cols = std::min(kNR, n - j0);
        pack_b_strip(pc, kc, j0, cols, b, bstrip);
        // This block's row blocks of strip s.
        const std::size_t rb0 = t0 > s * nrb ? t0 - s * nrb : 0;
        const std::size_t rb1 = std::min(nrb, t1 - s * nrb);
        for (std::size_t rb = rb0; rb < rb1; ++rb) {
          const std::size_t r0 = rb * kMC, r1 = std::min(m, r0 + kMC);
          if (pc == 0) scale_c(beta, c, ldc, r0, r1, j0, j0 + cols);
          float* ptile = part ? part + (s * nrb + rb - t0) * kPart : nullptr;
          for (std::size_t ir = r0; ir < r1; ir += kMR) {
            micro(kc, apc + (ir / kMR) * kMR * kc, bstrip, tile);
            const std::size_t rows = std::min(kMR, r1 - ir);
            if (ptile)
              merge_tile(tile, ptile + (ir - r0) * kNR, kNR, rows, cols);
            else
              merge_tile(tile, c + ir * ldc + j0, ldc, rows, cols);
          }
        }
      }
      if (part && ((pc + kc) % group_depth == 0 || pc + kc == k)) {
        // Group end: add every tile's partial to C in place, then restart.
        for (std::size_t t = t0; t < t1; ++t) {
          const std::size_t j0 = t / nrb * kNR, r0 = t % nrb * kMC;
          const float* src = part + (t - t0) * kPart;
          merge_tile(src, c + r0 * ldc + j0, ldc, std::min(kMC, m - r0),
                     std::min(kNR, n - j0));
        }
        std::fill(part, part + (t1 - t0) * kPart, 0.0f);
      }
    }
  });
}

}  // namespace

void gemm_packed(std::size_t m, std::size_t n, std::size_t k, float alpha,
                 StridedOperand a, StridedOperand b, float beta, float* c,
                 std::size_t ldc, DepthSplit split) {
  float* apanels = t_apack_arena.ensure(a_strips(m) * kMR * k);
  const std::size_t grain =
      aligned_grain(std::max(kMC, work_grain(k, kMinBlockFloats)), kMR);
  parallel_for(0, m, grain, [&](std::size_t r0, std::size_t r1) {
    pack_a_rows(r0, r1, m, k, split.seg, alpha, a, apanels);
  });
  compute_packed(m, n, k, split, apanels, b, beta, c, ldc);
}

std::uint64_t gemm_scratch_allocations() {
  return g_scratch_allocs.load(std::memory_order_relaxed);
}

const char* gemm_kernel_name() { return micro_choice().name; }

}  // namespace remapd
