// 2-D convolution lowered to crossbar MVMs via im2col — mirroring how an
// RCS unrolls a convolution onto its crossbars. The crossbar side (fault
// views, effective weights, the int8-or-fp32 MVM) is FaultableLayer's;
// this layer owns only the lowering and the digital dW/db.
//
// Like a crossbar that holds its weights while the whole batch streams
// through it, each phase lowers the whole batch at once: im2col writes one
// col_rows x (N*col_cols) panel (sample i owns columns [i*cc, (i+1)*cc)),
// and forward, dW and dX are one GEMM each over that panel (the int8 path
// keeps a per-sample MVM for forward and dX, since its activation scale is
// per call). The forward and dX elements keep the per-sample FP order
// (their depth is col_rows or out_ch either way). dW and db sum over the
// batch in fixed groups of samples (gemm_grouped), the grouping the
// per-sample lowering's block partials had, so every output is bitwise
// what per-sample GEMMs gave and a pure function of the problem shape
// (DESIGN §9).
#pragma once

#include "nn/layer.hpp"
#include "tensor/im2col.hpp"

namespace remapd {

class Conv2d final : public FaultableLayer {
 public:
  /// Square kernels only (all the model zoo needs). `pad` is symmetric.
  Conv2d(std::size_t in_channels, std::size_t out_channels,
         std::size_t kernel, std::size_t stride, std::size_t pad, Rng& rng,
         std::string tag = "conv");

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& dy) override;

 private:
  std::size_t in_ch_, kernel_, stride_, pad_;

  // Saved for backward.
  /// Batch im2col panel {col_rows, N*col_cols}; backward consumes it (dW
  /// reads it, then the dX columns are written over it).
  Tensor last_cols_;
  ConvGeom last_geom_{};
  std::size_t last_batch_ = 0;
};

}  // namespace remapd
