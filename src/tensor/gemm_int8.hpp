// Int8 symmetric-quantized GEMM fast path for quantized-cell layers
// (DESIGN.md §15; the narrow-storage payoff of ROADMAP item 4).
//
// Shape of the trick: a layer mapped onto b-bit cells stores weights on a
// (2^b)-level grid spanning [-w_max, +w_max], i.e. every weight is an
// exact small signed integer times w_max/(2^b - 1). Activations are
// quantized per call with a dynamic symmetric scale (max|x| / 127). The
// product is then an exact int32 dot — integer accumulation has no
// rounding and no order sensitivity, so every kernel path and every
// REMAPD_THREADS value produces bit-identical int32 sums, and the single
// fp32 dequantization multiply at the end is identical too. The PR-3
// determinism contract holds with *zero* arithmetic-order caveats.
//
// Layout (mirrors the fp32 packed-panel design in gemm_kernel.hpp, sized
// for byte kernels): A is packed into 4-row strips of k-quads — for each
// group of 4 consecutive k values a row contributes one little-endian
// 4-byte quad, broadcast as an int32 into the kernel. B is packed into
// 16-column strips of 64-byte quad-rows: two 32-byte halves, each lane of
// 4 interleaved k-bytes belonging to one column. That is exactly the
// operand shape of VPDPBUSD (AVX-512 VNNI) and VPMADDUBSW+VPMADDWD
// (AVX2); the portable fallback walks the same packed bytes with scalar
// ints, so all three agree exactly.
//
// Signedness: A carries the signed weights (int8), B carries activations
// biased to unsigned (u8 = q + 128); the bias is removed in the epilogue
// via the precomputed row sums of A (corr_i = 128 * sum_k qa(i,k)).
// Saturation: VPMADDUBSW saturates its int16 pair-sums, so the kernel
// contract requires |A ints| <= 63 (pair sum <= 2*255*63 = 32130 <
// 32767). Level-grid weights satisfy this with huge margin: 4-bit cells
// give |qa| <= 15, and even IR-drop gain spread (<= 1.5x) stays far
// under the cap.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/gemm_kernel.hpp"  // StridedOperand

namespace remapd {

/// Hard cap on the packed signed A integers (saturation-safety of the
/// AVX2 maddubs path; see header comment). pack() clamps to this.
inline constexpr int kInt8AMax = 63;

/// Reusable packed quantized-A panels: quantize and pack the
/// (effective-weight) matrix once per layer call, then run many
/// C_i = dequant(Aq * Bq_i) multiplies (one per sample's column slice of a
/// conv batch panel). Packed panels are immutable after pack(), so
/// multiply() is const and safe to call concurrently (B-side scratch is
/// thread-local).
class Int8APack {
 public:
  /// Quantize and pack op(A) (m x k): qa = round(a / a_scale) clamped to
  /// +-kInt8AMax. For level-grid weights pass a_scale = w_max / (L - 1)
  /// and the rounding is exact. Requires a_scale > 0.
  void pack(std::size_t m, std::size_t k, StridedOperand a, float a_scale);

  /// C = dequant(packed_A * quant(B)); op(B) is k x n, C row-major m x n
  /// with leading dimension ldc, overwritten (beta = 0 semantics). B is
  /// quantized per call with scale max|B| / 127. If B contains non-finite
  /// values the caller's fp32 path should be used instead; returns false
  /// in that case without touching C.
  [[nodiscard]] bool multiply(std::size_t n, StridedOperand b, float* c,
                              std::size_t ldc) const;

  [[nodiscard]] std::size_t rows() const { return m_; }
  [[nodiscard]] std::size_t depth() const { return k_; }
  [[nodiscard]] bool packed() const { return m_ > 0; }

 private:
  std::size_t m_ = 0, k_ = 0, kq_ = 0;  // kq_ = k rounded up to quads of 4
  float a_scale_ = 0.0f;
  std::vector<std::int32_t> panels_;  // [strip][quad * 4 + row] byte-quads
  std::vector<std::int32_t> corr_;    // per-row 128 * rowsum(qa)
};

/// Name of the int8 micro-kernel selected at startup ("avx512vnni",
/// "avx2", or "portable") — surfaced in bench JSON records.
const char* int8_kernel_name();

}  // namespace remapd
