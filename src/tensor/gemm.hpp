// General matrix multiply: BLAS sgemm semantics over the packed SIMD
// micro-kernel layer (tensor/gemm_kernel.hpp). Transposed operands are
// absorbed by the packing layer (no transpose copies); alpha == 0 / k == 0
// degenerate calls only apply the beta scale and record zero flops. The
// per-C-row floating-point accumulation order is a pure function of the
// problem shape, so results are bitwise identical at any REMAPD_THREADS.
#pragma once

#include <cstddef>

#include "tensor/tensor.hpp"

namespace remapd {

/// C = alpha * op(A) * op(B) + beta * C, row-major.
/// A is MxK (after optional transpose), B is KxN, C is MxN.
void gemm(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
          std::size_t k, float alpha, const float* a, std::size_t lda,
          const float* b, std::size_t ldb, float beta, float* c,
          std::size_t ldc);

/// gemm() over a depth of `segs` samples of `seg` each (k = segs * seg),
/// summed with a fixed grouping: the samples' products are summed from
/// zero in groups of `group` consecutive samples, and the group partials
/// are added to beta*C in ascending order (DepthSplit). The result is
/// bitwise equal to one gemm(beta = 1) per sample into a zeroed buffer per
/// group followed by an ordered merge, at one call's cost.
void gemm_grouped(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
                  std::size_t seg, std::size_t segs, std::size_t group,
                  float alpha, const float* a, std::size_t lda,
                  const float* b, std::size_t ldb, float beta, float* c,
                  std::size_t ldc);

/// Convenience wrapper on rank-2 tensors: returns A(MxK) * B(KxN).
Tensor matmul(const Tensor& a, const Tensor& b);

/// Returns op(A) * op(B) with optional transposes.
Tensor matmul(const Tensor& a, bool trans_a, const Tensor& b, bool trans_b);

}  // namespace remapd
