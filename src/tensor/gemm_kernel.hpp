// Packed, cache-blocked GEMM micro-kernel layer.
//
// The compute core is a packed, blocked sweep (BLIS-style):
//
//   pack alpha*op(A) into kMR-row strips over the whole depth
//   parallel_for blocks of (kMC row block x kNR strip) tiles:
//     for each pass of the depth, in order:       // a kKC chunk or a group
//       for each strip of the block:
//         pack B[pass, strip] (kNR wide)
//         for each kMR strip of the block's row blocks of the strip:
//           micro-kernel: live rows x kNR register tile over the pass,
//                         added straight into C
//
// Tiling in two dimensions lets a wide, short product (a conv layer's
// whole-batch GEMM has m = out_ch of 8..64 rows and thousands of columns)
// use every worker, and packing each B strip inside the block that uses it
// needs one pool dispatch per call instead of two per depth chunk.
//
// The micro-kernel is row-exact (one instantiation per live row count
// 1..kMR, so m = 8 computes 8 rows, not 12) and masks column tails. It
// accumulates each depth chunk in registers from zero and adds the tile
// into C itself, applying beta at the first pass. Per C element the
// floating-point order is therefore
//
//   C(i,j) = ((beta*C(i,j) + chunk_0) + chunk_1) + ... ,
//   chunk_t = sum over k in [t*kKC, (t+1)*kKC) in ascending-k order,
//
// with beta*C read as 0 + ... for beta == 0 (C is never read, and a -0.0
// sum stores +0.0). That depends only on (m, n, k, beta), never on the
// thread count, the tile partition, or which strip a row lands in (every
// element owns a private accumulator lane). That keeps the contract of
// DESIGN §9: any REMAPD_THREADS value is bitwise identical, checkpoints
// resume exactly.
//
// A grouped depth (DepthSplit, for a conv layer's dW over a batch panel)
// restarts the chunks at every segment. A pass is then one group: the
// micro-kernel walks the group's segments, sums their chunks into a
// tile-local partial, and adds it to C, so C = ((beta*C + P_0) + P_1) + ...
// in group order, each partial P_g = ((0 + chunk) + chunk) + ... over its
// own segments' chunks.
//
// Transposed operands are handled by the packing layer (an operand is a
// pointer plus row/col strides), so NT/TN/TT never materialize a
// transposed copy. Packed A and each block's B strip live in grow-only
// thread-local arenas; steady-state calls perform no heap allocation (see
// gemm_scratch_allocations()).
//
// Two kernel sets sit behind one table chosen at process start: AVX2+FMA
// intrinsics (x86-64, runtime __builtin_cpu_supports dispatch, no special
// build flags needed; B packed by vector copies or 8x8 in-register
// transposes) and portable scalar code with `#pragma omp simd`. The choice
// is per-process, so it cannot vary with thread count; results may differ
// across machines (as compiler flags already allow) but never across runs
// on one machine.
#pragma once

#include <cstddef>
#include <cstdint>

namespace remapd {

// Register tile and cache-block geometry. kMR x kNR is the micro-tile
// (6 rows x 16 columns = 12 YMM accumulators + 2 B vectors + 1 A broadcast
// on AVX2). kMC/kKC size the packed A block of a tile (~48 KiB) and
// kKC x kNR the packed B strip of a plain pass (16 KiB); a grouped pass
// packs the group's whole depth.
inline constexpr std::size_t kMR = 6;
inline constexpr std::size_t kNR = 16;
inline constexpr std::size_t kMC = 48;   // tile rows, multiple of kMR
inline constexpr std::size_t kKC = 256;  // depth chunk

/// A matrix operand as the packing layer sees it: element (i, j) of op(X)
/// lives at ptr[i * row_stride + j * col_stride]. A plain row-major matrix
/// is {ptr, ld, 1}; its transpose is {ptr, 1, ld} — no copy needed.
struct StridedOperand {
  const float* ptr;
  std::size_t row_stride;
  std::size_t col_stride;
};

/// How gemm_packed groups its depth sum. The default is one plain sweep:
/// C = ((beta*C + chunk_0) + chunk_1) + ... . With seg > 0 the depth is a
/// run of segments of `seg` (a conv batch panel's per-sample columns; k a
/// multiple of seg): chunks restart at every segment boundary, each run of
/// `group` consecutive segments is summed from zero, and those partials are
/// added to beta*C in order. That is bit for bit one beta = 1 GEMM per
/// segment into a zeroed per-group buffer, then an ordered merge — the
/// fixed-grouping reduction of DESIGN §9 — done in one tile sweep.
struct DepthSplit {
  std::size_t seg = 0;
  std::size_t group = 0;
};

/// C = alpha * op(A) * op(B) + beta * C over strided operands, C row-major
/// m x n with leading dimension ldc. beta == 0 never reads C (NaN/garbage
/// in C is overwritten, BLAS semantics). The beta scale/clear is folded
/// into the micro-kernel's first add into each tile, so no pre-pass runs.
/// Requires alpha != 0 and m, n, k > 0 (the gemm() wrapper handles the
/// degenerate cases).
void gemm_packed(std::size_t m, std::size_t n, std::size_t k, float alpha,
                 StridedOperand a, StridedOperand b, float beta, float* c,
                 std::size_t ldc, DepthSplit split = {});

/// Process-wide count of scratch-arena growths (heap allocations) made by
/// the packing layer. Steady-state GEMM calls — including NT/TN, which
/// previously materialized fresh transpose buffers per call — must leave
/// this flat; tests assert on it.
std::uint64_t gemm_scratch_allocations();

/// Name of the micro-kernel implementation selected at startup ("avx2" or
/// "portable") — surfaced in bench JSON records so a perf trajectory is
/// interpretable across machines.
const char* gemm_kernel_name();

}  // namespace remapd
