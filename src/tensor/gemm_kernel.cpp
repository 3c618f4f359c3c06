#include "tensor/gemm_kernel.hpp"

#include <algorithm>
#include <atomic>
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
thread_local Arena t_bpack_arena;  // a block's B strip over one pass

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

/// Depth of the chunk starting at `pc`: kKC, cut short at the end of k and,
/// for a segmented depth (seg > 0), at the end of pc's segment.
inline std::size_t chunk_depth(std::size_t pc, std::size_t k,
                               std::size_t seg) {
  const std::size_t end = seg == 0 ? k : (pc / seg + 1) * seg;
  return std::min(kKC, end - pc);
}

// ---------------------------------------------------------------------------
// Micro-kernels. One call computes the live rows x cols of one C tile over
// one pass of the depth and adds the result into C itself:
//
//   plain pass (one chunk):  C = base + chunk
//   grouped pass (a group):  C = base + P,  P = ((0 + chunk) + chunk) + ...
//
// where base is C, or at the first pass beta*C (0 + ... for beta == 0, so
// C is never read and a -0.0 sum stores +0.0). Each chunk is a register
// accumulation from zero, strictly ascending in k, so every C element's
// floating-point operation sequence depends only on (m, n, k, beta,
// split): not on tiling, row count of its strip, partitioning or thread
// count.
// ---------------------------------------------------------------------------

struct TileJob {
  const float* a;     ///< packed A strip at the pass start, [p * kMR + r]
  const float* b;     ///< packed B strip of the pass, [p * kNR + lane]
  std::size_t depth;  ///< pass depth
  std::size_t seg;    ///< 0: the pass is one chunk; else a grouped pass
  float* c;           ///< the tile's top-left C element
  std::size_t ldc;
  std::size_t cols;   ///< live columns, 1..kNR
  float beta;
  bool first;         ///< first pass: apply beta to C
};

using KernelFn = void (*)(const TileJob&);

/// row = beta*row over n elements, stored (zeros for beta == 0, row
/// unread). Out of line, so the compiler cannot contract the product with
/// the kernel's add into one FMA, as C++ lets it where FMA exists.
[[gnu::noinline]] void scale_row(float* row, std::size_t n, float beta) {
  for (std::size_t j = 0; j < n; ++j)
    row[j] = beta == 0.0f ? 0.0f : row[j] * beta;
}

template <std::size_t R>
void kernel_portable(const TileJob& t) {
  float part[R][kNR] = {};
  for (std::size_t q = 0, kc; q < t.depth; q += kc) {
    kc = t.seg == 0 ? t.depth : chunk_depth(q, t.depth, t.seg);
    float acc[R][kNR] = {};
    for (std::size_t p = q; p < q + kc; ++p) {
      const float* brow = t.b + p * kNR;
      for (std::size_t r = 0; r < R; ++r) {
        const float av = t.a[p * kMR + r];
#pragma omp simd
        for (std::size_t j = 0; j < kNR; ++j) acc[r][j] += av * brow[j];
      }
    }
    for (std::size_t r = 0; r < R; ++r)
      for (std::size_t j = 0; j < kNR; ++j)
        part[r][j] = t.seg == 0 ? acc[r][j] : part[r][j] + acc[r][j];
  }
  for (std::size_t r = 0; r < R; ++r) {
    float* crow = t.c + r * t.ldc;
    if (t.first && t.beta != 1.0f) scale_row(crow, t.cols, t.beta);
    for (std::size_t j = 0; j < t.cols; ++j) crow[j] += part[r][j];
  }
}

#ifdef REMAPD_GEMM_X86_DISPATCH
/// Lanes [0, n) of an 8-lane mask (n may exceed 8 or be negative).
__attribute__((target("avx2"))) inline __m256i lane_mask(long n) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

/// acc = one chunk's register accumulation from zero, ascending in p. The
/// row loops are unrolled by pragma: GCC does not unroll them at -O2, and a
/// rolled loop keeps acc on the stack, reloaded around every FMA.
template <std::size_t R>
__attribute__((target("avx2,fma"), always_inline)) inline void chunk_avx2(
    const float* ap, const float* bp, std::size_t kc, __m256 (&acc)[R][2]) {
#pragma GCC unroll 6
  for (std::size_t r = 0; r < R; ++r)
    acc[r][0] = acc[r][1] = _mm256_setzero_ps();
  for (std::size_t p = 0; p < kc; ++p) {
    const __m256 b0 = _mm256_loadu_ps(bp + p * kNR);
    const __m256 b1 = _mm256_loadu_ps(bp + p * kNR + 8);
#pragma GCC unroll 6
    for (std::size_t r = 0; r < R; ++r) {
      const __m256 av = _mm256_broadcast_ss(ap + p * kMR + r);
      acc[r][0] = _mm256_fmadd_ps(av, b0, acc[r][0]);
      acc[r][1] = _mm256_fmadd_ps(av, b1, acc[r][1]);
    }
  }
}

template <std::size_t R>
__attribute__((target("avx2,fma"))) void kernel_avx2(const TileJob& t) {
  __m256 acc[R][2];
  if (t.seg == 0) {
    chunk_avx2<R>(t.a, t.b, t.depth, acc);
  } else {
    // The group partial stays tile-local: a stack tile, so the chunk loop
    // keeps every register for its accumulators.
    alignas(32) float part[R][kNR] = {};
    for (std::size_t q = 0, kc; q < t.depth; q += kc) {
      kc = chunk_depth(q, t.depth, t.seg);
      chunk_avx2<R>(t.a + q * kMR, t.b + q * kNR, kc, acc);
#pragma GCC unroll 6
      for (std::size_t r = 0; r < R; ++r)
        for (std::size_t h = 0; h < 2; ++h)
          _mm256_store_ps(part[r] + 8 * h,
                          _mm256_add_ps(_mm256_load_ps(part[r] + 8 * h),
                                        acc[r][h]));
    }
#pragma GCC unroll 6
    for (std::size_t r = 0; r < R; ++r)
      for (std::size_t h = 0; h < 2; ++h)
        acc[r][h] = _mm256_load_ps(part[r] + 8 * h);
  }
  // Locals, so the stores into C need not reload the job.
  float* const c = t.c;
  const std::size_t ldc = t.ldc;
  const bool full = t.cols == kNR;
  const __m256i m0 = lane_mask(static_cast<long>(t.cols));
  const __m256i m1 = lane_mask(static_cast<long>(t.cols) - 8);
  const bool zero_base = t.first && t.beta == 0.0f;
  const bool scale_base = t.first && t.beta != 0.0f && t.beta != 1.0f;
  const __m256 vbeta = _mm256_set1_ps(t.beta);
#pragma GCC unroll 6
  for (std::size_t r = 0; r < R; ++r) {
    float* crow = c + r * ldc;
    __m256 c0 = _mm256_setzero_ps(), c1 = _mm256_setzero_ps();
    if (!zero_base) {
      c0 = full ? _mm256_loadu_ps(crow) : _mm256_maskload_ps(crow, m0);
      c1 = full ? _mm256_loadu_ps(crow + 8)
                : _mm256_maskload_ps(crow + 8, m1);
      if (scale_base) {
        c0 = _mm256_mul_ps(c0, vbeta);
        c1 = _mm256_mul_ps(c1, vbeta);
        // Keep beta*C a rounded product: C++ lets GCC contract a multiply
        // and the add below into one FMA, which would change the bits.
        asm("" : "+x"(c0), "+x"(c1));
      }
    }
    c0 = _mm256_add_ps(c0, acc[r][0]);
    c1 = _mm256_add_ps(c1, acc[r][1]);
    if (full) {
      _mm256_storeu_ps(crow, c0);
      _mm256_storeu_ps(crow + 8, c1);
    } else {
      _mm256_maskstore_ps(crow, m0, c0);
      _mm256_maskstore_ps(crow + 8, m1, c1);
    }
  }
}
#endif

// ---------------------------------------------------------------------------
// Packing
// ---------------------------------------------------------------------------

/// Number of kMR strips covering m rows.
inline std::size_t a_strips(std::size_t m) { return (m + kMR - 1) / kMR; }

/// Pack alpha*op(A) into `dst`, strip-major: strip g holds rows
/// [g*kMR, g*kMR + kMR) over the whole depth at dst + g*kMR*k, element
/// (r, p) at [p * kMR + r]. Rows past m are never read (the kernels are
/// row-exact) and are left unwritten. Only strips intersecting [r0, r1)
/// are written, so concurrent callers with disjoint kMR-aligned row ranges
/// touch disjoint regions.
void pack_a_rows(std::size_t r0, std::size_t r1, std::size_t m, std::size_t k,
                 float alpha, StridedOperand a, float* dst) {
  for (std::size_t g = r0 / kMR; g * kMR < r1; ++g) {
    float* strip = dst + g * kMR * k;
    const std::size_t rows = std::min(kMR, m - g * kMR);
    for (std::size_t r = 0; r < rows; ++r) {
      const float* src = a.ptr + (g * kMR + r) * a.row_stride;
      for (std::size_t p = 0; p < k; ++p)
        strip[p * kMR + r] = alpha * src[p * a.col_stride];
    }
  }
}

/// Pack the kNR-wide strip op(B)[p0:p0+depth, j0:j0+lanes] into `strip`
/// ([p * kNR + lane], lanes past `lanes` zero-padded).
using PackBFn = void (*)(std::size_t p0, std::size_t depth, std::size_t j0,
                         std::size_t lanes, StridedOperand b, float* strip);

void pack_b_portable(std::size_t p0, std::size_t depth, std::size_t j0,
                     std::size_t lanes, StridedOperand b, float* strip) {
  for (std::size_t p = 0; p < depth; ++p) {
    const float* src = b.ptr + (p0 + p) * b.row_stride + j0 * b.col_stride;
    float* out = strip + p * kNR;
    for (std::size_t j = 0; j < lanes; ++j) out[j] = src[j * b.col_stride];
    for (std::size_t j = lanes; j < kNR; ++j) out[j] = 0.0f;
  }
}

#ifdef REMAPD_GEMM_X86_DISPATCH
/// In-register transpose of an 8x8 float block.
__attribute__((target("avx2"))) inline void transpose8(__m256 r[8]) {
  const __m256 t0 = _mm256_unpacklo_ps(r[0], r[1]);
  const __m256 t1 = _mm256_unpackhi_ps(r[0], r[1]);
  const __m256 t2 = _mm256_unpacklo_ps(r[2], r[3]);
  const __m256 t3 = _mm256_unpackhi_ps(r[2], r[3]);
  const __m256 t4 = _mm256_unpacklo_ps(r[4], r[5]);
  const __m256 t5 = _mm256_unpackhi_ps(r[4], r[5]);
  const __m256 t6 = _mm256_unpacklo_ps(r[6], r[7]);
  const __m256 t7 = _mm256_unpackhi_ps(r[6], r[7]);
  const __m256 u0 = _mm256_shuffle_ps(t0, t2, 0x44);
  const __m256 u1 = _mm256_shuffle_ps(t0, t2, 0xEE);
  const __m256 u2 = _mm256_shuffle_ps(t1, t3, 0x44);
  const __m256 u3 = _mm256_shuffle_ps(t1, t3, 0xEE);
  const __m256 u4 = _mm256_shuffle_ps(t4, t6, 0x44);
  const __m256 u5 = _mm256_shuffle_ps(t4, t6, 0xEE);
  const __m256 u6 = _mm256_shuffle_ps(t5, t7, 0x44);
  const __m256 u7 = _mm256_shuffle_ps(t5, t7, 0xEE);
  r[0] = _mm256_permute2f128_ps(u0, u4, 0x20);
  r[1] = _mm256_permute2f128_ps(u1, u5, 0x20);
  r[2] = _mm256_permute2f128_ps(u2, u6, 0x20);
  r[3] = _mm256_permute2f128_ps(u3, u7, 0x20);
  r[4] = _mm256_permute2f128_ps(u0, u4, 0x31);
  r[5] = _mm256_permute2f128_ps(u1, u5, 0x31);
  r[6] = _mm256_permute2f128_ps(u2, u6, 0x31);
  r[7] = _mm256_permute2f128_ps(u3, u7, 0x31);
}

/// AVX2 B packing. A row-major strip (forward, dX) is a masked vector copy
/// per depth row. A transposed strip (dW's cols^T, Linear's W^T) has each
/// lane contiguous along the depth, so 8 lanes x 8 depth rows are loaded
/// as 8 vectors, transposed in registers and stored as 8 packed rows.
__attribute__((target("avx2"))) void pack_b_avx2(std::size_t p0,
                                                 std::size_t depth,
                                                 std::size_t j0,
                                                 std::size_t lanes,
                                                 StridedOperand b,
                                                 float* strip) {
  if (b.col_stride == 1) {
    const __m256i m0 = lane_mask(static_cast<long>(lanes));
    const __m256i m1 = lane_mask(static_cast<long>(lanes) - 8);
    const float* src = b.ptr + p0 * b.row_stride + j0;
    for (std::size_t p = 0; p < depth; ++p, src += b.row_stride) {
      float* out = strip + p * kNR;
      if (lanes == kNR) {
        _mm256_storeu_ps(out, _mm256_loadu_ps(src));
        _mm256_storeu_ps(out + 8, _mm256_loadu_ps(src + 8));
      } else {
        _mm256_storeu_ps(out, _mm256_maskload_ps(src, m0));
        _mm256_storeu_ps(out + 8, _mm256_maskload_ps(src + 8, m1));
      }
    }
    return;
  }
  if (b.row_stride != 1) {
    pack_b_portable(p0, depth, j0, lanes, b, strip);
    return;
  }
  const float* src = b.ptr + p0 + j0 * b.col_stride;  // lane j at j*stride
  std::size_t p = 0;
  for (; p + 8 <= depth; p += 8) {
    for (std::size_t h = 0; h < kNR; h += 8) {
      __m256 r[8];
      for (std::size_t i = 0; i < 8; ++i)
        r[i] = h + i < lanes
                   ? _mm256_loadu_ps(src + (h + i) * b.col_stride + p)
                   : _mm256_setzero_ps();
      transpose8(r);
      for (std::size_t i = 0; i < 8; ++i)
        _mm256_storeu_ps(strip + (p + i) * kNR + h, r[i]);
    }
  }
  for (; p < depth; ++p) {
    float* out = strip + p * kNR;
    for (std::size_t j = 0; j < kNR; ++j)
      out[j] = j < lanes ? src[j * b.col_stride + p] : 0.0f;
  }
}
#endif

// ---------------------------------------------------------------------------
// Kernel selection
// ---------------------------------------------------------------------------

struct Kernels {
  KernelFn tile[kMR];  ///< indexed by live rows - 1
  PackBFn pack_b;
  const char* name;
};

Kernels resolve_kernels() {
#ifdef REMAPD_GEMM_X86_DISPATCH
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
    return {{kernel_avx2<1>, kernel_avx2<2>, kernel_avx2<3>, kernel_avx2<4>,
             kernel_avx2<5>, kernel_avx2<6>},
            pack_b_avx2,
            "avx2"};
#endif
  return {{kernel_portable<1>, kernel_portable<2>, kernel_portable<3>,
           kernel_portable<4>, kernel_portable<5>, kernel_portable<6>},
          pack_b_portable,
          "portable"};
}

const Kernels& kernels() {
  static const Kernels choice = resolve_kernels();
  return choice;
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// Compute stage over pre-packed A strips. C is cut into (kMC row block x
/// kNR column strip) tiles, numbered strip by strip, and the tiles are
/// dealt out in blocks of at least kMinBlockFlops, so a wide, short
/// product (m of a few dozen rows) still splits across workers. A block
/// walks the depth in passes: one kKC chunk, or for a grouped depth one
/// whole group. Per pass it packs each of its B strips just before use
/// (the strip stays in cache while every row block of the strip consumes
/// it), and the micro-kernel adds each tile's pass result into C, applying
/// beta at the first pass. Each C element has exactly one owning tile and
/// sees its passes in ascending-k order, whatever the partition.
void compute_packed(std::size_t m, std::size_t n, std::size_t k,
                    DepthSplit split, const float* apanels, StridedOperand b,
                    float beta, float* c, std::size_t ldc) {
  const Kernels& kern = kernels();
  const std::size_t nrb = (m + kMC - 1) / kMC;
  const std::size_t ntiles = nrb * ((n + kNR - 1) / kNR);
  const std::size_t tile_flops = 2 * std::min(kMC, m) * kNR * k;
  const std::size_t pass = split.seg == 0 ? kKC : split.seg * split.group;
  parallel_for(0, ntiles, work_grain(tile_flops, kMinBlockFlops),
               [&](std::size_t t0, std::size_t t1) {
    float* bstrip = t_bpack_arena.ensure(std::min(pass, k) * kNR);
    for (std::size_t p0 = 0, depth; p0 < k; p0 += depth) {
      depth = std::min(pass, k - p0);
      for (std::size_t s = t0 / nrb; s * nrb < t1; ++s) {
        const std::size_t j0 = s * kNR;
        const std::size_t cols = std::min(kNR, n - j0);
        kern.pack_b(p0, depth, j0, cols, b, bstrip);
        // This block's row blocks of strip s.
        const std::size_t rb0 = t0 > s * nrb ? t0 - s * nrb : 0;
        const std::size_t rb1 = std::min(nrb, t1 - s * nrb);
        for (std::size_t ir = rb0 * kMC; ir < std::min(m, rb1 * kMC);
             ir += kMR) {
          const std::size_t rows = std::min(kMR, m - ir);
          kern.tile[rows - 1]({apanels + ir * k + p0 * kMR, bstrip, depth,
                               split.seg, c + ir * ldc + j0, ldc, cols, beta,
                               p0 == 0});
        }
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
    pack_a_rows(r0, r1, m, k, alpha, a, apanels);
  });
  compute_packed(m, n, k, split, apanels, b, beta, c, ldc);
}

std::uint64_t gemm_scratch_allocations() {
  return g_scratch_allocs.load(std::memory_order_relaxed);
}

const char* gemm_kernel_name() { return kernels().name; }

}  // namespace remapd
