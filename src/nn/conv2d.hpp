// 2-D convolution lowered to GEMM via im2col — mirroring how an RCS unrolls
// a convolution onto crossbar MVMs. Forward uses the forward FaultView's
// effective weights; input-gradient propagation uses the backward
// FaultView's (the physically distinct W^T crossbars).
//
// Like a crossbar that holds its weights while the whole batch streams
// through it, each phase lowers the whole batch at once: im2col writes one
// col_rows x (N*col_cols) panel (sample i owns columns [i*cc, (i+1)*cc)),
// and forward, dW and dX are one GEMM each over that panel (the int8 path
// keeps a per-sample multiply for forward and dX). The forward and
// dX elements keep the per-sample FP order (their depth is col_rows or
// out_ch either way). dW and db sum over the batch in fixed groups of
// samples (gemm_grouped), the grouping the per-sample lowering's block
// partials had, so every output is bitwise what per-sample GEMMs gave and
// a pure function of the problem shape (DESIGN §9).
#pragma once

#include <optional>

#include "nn/layer.hpp"
#include "tensor/gemm_int8.hpp"
#include "tensor/im2col.hpp"

namespace remapd {

class Conv2d final : public Layer, public FaultableLayer {
 public:
  /// Square kernels only (all the model zoo needs). `pad` is symmetric.
  Conv2d(std::size_t in_channels, std::size_t out_channels,
         std::size_t kernel, std::size_t stride, std::size_t pad, Rng& rng,
         std::string tag = "conv");

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& dy) override;
  std::vector<Param*> params() override { return {&weight_, &bias_}; }
  [[nodiscard]] std::string name() const override { return tag_; }

  // FaultableLayer
  [[nodiscard]] std::size_t weight_rows() const override { return out_ch_; }
  [[nodiscard]] std::size_t weight_cols() const override {
    return in_ch_ * kernel_ * kernel_;
  }
  void set_fault_views(FaultView forward_view,
                       FaultView backward_view) override;
  void clear_fault_views() override;
  Param& weight_param() override { return weight_; }

  [[nodiscard]] std::size_t in_channels() const { return in_ch_; }
  [[nodiscard]] std::size_t out_channels() const { return out_ch_; }
  [[nodiscard]] std::size_t kernel() const { return kernel_; }

 private:
  /// Weights with the given view's clamps applied (or the digital weights
  /// when the view is empty).
  const Tensor& effective_weights(const std::optional<FaultView>& view,
                                  Tensor& cache) const;

  std::size_t in_ch_, out_ch_, kernel_, stride_, pad_;
  Param weight_;  ///< rank-2: out_ch x (in_ch*k*k)
  Param bias_;    ///< rank-1: out_ch
  std::string tag_;

  std::optional<FaultView> fwd_view_, bwd_view_;
  mutable Tensor fwd_eff_, bwd_eff_;  // clamped-weight caches

  // Int8 fast path (taken when the FaultView selects it): the effective
  // weights are exact small integers on the cell level grid, so the MVM
  // runs as an exact int32 GEMM with one fp32 dequantization multiply. The
  // activation scale is per call, so the multiply stays per sample (one
  // column slice of the batch panel each). Members are only touched on the
  // training path — eval forwards may run concurrently, so they pack into a
  // call-local panel (mirroring the fwd_eff_ cache rule).
  Int8APack fwd_i8_, bwd_i8_;

  // Saved for backward.
  /// Batch im2col panel {col_rows, N*col_cols}; backward consumes it (dW
  /// reads it, then the dX columns are written over it).
  Tensor last_cols_;
  ConvGeom last_geom_{};
  std::size_t last_batch_ = 0;
};

}  // namespace remapd
