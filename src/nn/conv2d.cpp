#include "nn/conv2d.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "telemetry/telemetry.hpp"
#include "tensor/gemm.hpp"
#include "util/parallel.hpp"

namespace remapd {
namespace {

// The per-sample and per-channel passes (im2col, col2im, the NCHW scatter
// and gather, the int8 multiplies) write disjoint outputs, so they run in
// parallel blocks and stay bitwise identical at any thread count. A block
// carries at least this many floats so the pool dispatch pays off; like
// every grain it depends on the layer shape only (DESIGN §9).
constexpr std::size_t kMinBlockFloats = std::size_t{1} << 15;

std::size_t grain_for(std::size_t floats_per_item) {
  return std::max<std::size_t>(
      1, kMinBlockFloats / std::max<std::size_t>(1, floats_per_item));
}

/// Grow-only per-thread buffer for an out x (n*cc) panel (the forward's
/// GEMM output, the backward's gathered dY): a fresh multi-MiB tensor per
/// call costs more in page faults than the pass that fills it. Per thread,
/// because eval forwards run concurrently; a layer's forward and backward
/// never hold it at the same time.
float* panel_scratch(std::size_t floats) {
  thread_local std::vector<float> buf;
  if (buf.size() < floats) buf.resize(floats);
  return buf.data();
}

}  // namespace

Conv2d::Conv2d(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, std::size_t stride, std::size_t pad,
               Rng& rng, std::string tag)
    : in_ch_(in_channels), out_ch_(out_channels), kernel_(kernel),
      stride_(stride), pad_(pad),
      weight_(Tensor::kaiming(Shape{out_channels,
                                    in_channels * kernel * kernel},
                              in_channels * kernel * kernel, rng),
              tag + ".weight"),
      bias_(Tensor::zeros(Shape{out_channels}), tag + ".bias"),
      tag_(std::move(tag)) {}

void Conv2d::set_fault_views(FaultView forward_view, FaultView backward_view) {
  fwd_view_ = std::move(forward_view);
  bwd_view_ = std::move(backward_view);
}

void Conv2d::clear_fault_views() {
  fwd_view_.reset();
  bwd_view_.reset();
}

const Tensor& Conv2d::effective_weights(const std::optional<FaultView>& view,
                                        Tensor& cache) const {
  if (!view || view->empty()) return weight_.value;
  if (cache.numel() != weight_.value.numel())
    cache = Tensor::zeros(weight_.value.shape());
  view->apply(weight_.value.data(), cache.data(), weight_.value.numel());
  return cache;
}

Tensor Conv2d::forward(const Tensor& x, bool train) {
  if (x.shape().rank() != 4 || x.shape()[1] != in_ch_)
    throw std::invalid_argument(tag_ + ": bad input shape " + x.shape().str());
  const std::size_t n = x.shape()[0];
  const ConvGeom g{in_ch_, x.shape()[2], x.shape()[3],
                   kernel_, kernel_, stride_, pad_};
  const std::size_t cr = g.col_rows(), cc = g.col_cols(), ncc = n * cc;
  const std::size_t img = in_ch_ * g.height * g.width;

  // One cr x (n*cc) panel for the whole batch; sample i owns its columns
  // [i*cc, (i+1)*cc).
  Tensor cols(Shape{cr, ncc});
  Tensor y(Shape{n, out_ch_, g.out_h(), g.out_w()});
  // Eval-mode forwards may run concurrently (parallel test-set batches), so
  // the clamped-weight cache and the int8 panel members are only written on
  // the single-threaded training path; eval uses call-locals.
  Tensor local_eff;
  const Tensor& we =
      effective_weights(fwd_view_, train ? fwd_eff_ : local_eff);

  if (fwd_view_ && fwd_view_->int8_selected()) {
    Int8APack local_i8;
    Int8APack& wi8 = train ? fwd_i8_ : local_i8;
    wi8.pack(out_ch_, cr, StridedOperand{we.data(), cr, 1},
             fwd_view_->int8_weight_scale());
    telemetry::count("nn.conv.int8_flops", 2ull * out_ch_ * ncc * cr);
    // Per sample: fill its panel columns, multiply, and write its NCHW
    // block directly.
    parallel_for(0, n, 1, [&](std::size_t s0, std::size_t s1) {
      for (std::size_t i = s0; i < s1; ++i) {
        float* col = cols.data() + i * cc;
        im2col(x.data() + i * img, g, col, ncc);
        float* yi = y.data() + i * out_ch_ * cc;
        // Non-finite activations take the fp32 route so divergence is
        // never clamped away by quantization.
        if (!wi8.multiply(cc, StridedOperand{col, ncc, 1}, yi, cc))
          gemm(false, false, out_ch_, cc, cr, 1.0f, we.data(), cr, col, ncc,
               0.0f, yi, cc);
        for (std::size_t o = 0; o < out_ch_; ++o)
          for (std::size_t p = 0; p < cc; ++p)
            yi[o * cc + p] += bias_.value[o];
      }
    });
  } else {
    parallel_for(0, n, grain_for(cr * cc), [&](std::size_t s0,
                                               std::size_t s1) {
      for (std::size_t i = s0; i < s1; ++i)
        im2col(x.data() + i * img, g, cols.data() + i * cc, ncc);
    });
    // y = We (out x cr) * cols (cr x n*cc) + bias as one GEMM. gemm()
    // always issues every product, so a non-finite effective weight
    // (diverged or full-scale-stuck cell) still reaches its output as
    // 0 * NaN/Inf = NaN.
    float* out = panel_scratch(out_ch_ * ncc);
    gemm(false, false, out_ch_, ncc, cr, 1.0f, we.data(), cr, cols.data(),
         ncc, 0.0f, out, ncc);
    // Scatter to NCHW adding the bias, a block of whole channels at a time.
    parallel_for(0, out_ch_, grain_for(ncc), [&](std::size_t o0,
                                                 std::size_t o1) {
      for (std::size_t o = o0; o < o1; ++o) {
        const float b = bias_.value[o];
        for (std::size_t i = 0; i < n; ++i) {
          const float* src = out + o * ncc + i * cc;
          float* plane = y.data() + (i * out_ch_ + o) * cc;
          for (std::size_t p = 0; p < cc; ++p) plane[p] = src[p] + b;
        }
      }
    });
  }

  if (train) {
    last_cols_ = std::move(cols);
    last_geom_ = g;
    last_batch_ = n;
  }
  return y;
}

Tensor Conv2d::backward(const Tensor& dy) {
  if (last_batch_ == 0)
    throw std::logic_error(tag_ + ": backward without forward(train)");
  const ConvGeom& g = last_geom_;
  const std::size_t n = last_batch_;
  const std::size_t cr = g.col_rows(), cc = g.col_cols(), ncc = n * cc;
  const std::size_t img = in_ch_ * g.height * g.width;

  // Parameter gradients are accumulated digitally: the weight-update path
  // in the target RCS aggregates dW in CMOS peripherals; only the analog
  // MVMs (forward y = W*x, backward dx = W^T*dy) traverse faulty crossbars.
  // dW and db are sums over the batch with a fixed grouping (DESIGN §9):
  // each group of `group` samples is summed from zero, and the group
  // partials are added to the gradient in order.
  const std::size_t group = reduction_grain(n);

  // Gather dY (NCHW) into the out x (n*cc) panel layout, a block of whole
  // channels at a time; db sums each sample's spatial plane in the same
  // pass.
  float* dyp = panel_scratch(out_ch_ * ncc);
  parallel_for(0, out_ch_, grain_for(ncc), [&](std::size_t o0,
                                               std::size_t o1) {
    for (std::size_t o = o0; o < o1; ++o) {
      float part = 0.0f;
      for (std::size_t i = 0; i < n; ++i) {
        const float* plane = dy.data() + (i * out_ch_ + o) * cc;
        float* dst = dyp + o * ncc + i * cc;
        float s = 0.0f;
        for (std::size_t p = 0; p < cc; ++p) {
          dst[p] = plane[p];
          s += plane[p];
        }
        part += s;
        if ((i + 1) % group == 0 || i + 1 == n) {
          bias_.grad[o] += part;
          part = 0.0f;
        }
      }
    }
  });

  // dW += dY (out x n*cc) * cols^T (n*cc x cr): one GEMM over the batch.
  gemm_grouped(false, true, out_ch_, cr, cc, n, group, 1.0f, dyp, ncc,
               last_cols_.data(), ncc, 1.0f, weight_.grad.data(), cr);

  // dCols = We_bwd^T (cr x out) * dY (out x n*cc), written over the panel
  // dW just consumed, then col2im per sample.
  const Tensor& wb = effective_weights(bwd_view_, bwd_eff_);
  float* dcols = last_cols_.data();
  Tensor dx(Shape{n, in_ch_, g.height, g.width});
  if (bwd_view_ && bwd_view_->int8_selected()) {
    bwd_i8_.pack(cr, out_ch_, StridedOperand{wb.data(), 1, cr},
                 bwd_view_->int8_weight_scale());
    telemetry::count("nn.conv.int8_flops", 2ull * cr * ncc * out_ch_);
    parallel_for(0, n, 1, [&](std::size_t s0, std::size_t s1) {
      for (std::size_t i = s0; i < s1; ++i) {
        const float* dyi = dy.data() + i * out_ch_ * cc;
        float* dcol = dcols + i * cc;
        if (!bwd_i8_.multiply(cc, StridedOperand{dyi, cc, 1}, dcol, ncc))
          gemm(true, false, cr, cc, out_ch_, 1.0f, wb.data(), cr, dyi, cc,
               0.0f, dcol, ncc);
        col2im(dcol, g, dx.data() + i * img, ncc);
      }
    });
  } else {
    gemm(true, false, cr, ncc, out_ch_, 1.0f, wb.data(), cr, dyp, ncc,
         0.0f, dcols, ncc);
    parallel_for(0, n, grain_for(cr * cc), [&](std::size_t s0,
                                               std::size_t s1) {
      for (std::size_t i = s0; i < s1; ++i)
        col2im(dcols + i * cc, g, dx.data() + i * img, ncc);
    });
  }
  last_cols_ = Tensor();
  last_batch_ = 0;

  // Gradient components that traverse stuck backward-array cells are
  // pinned at a fixed sign and full-scale magnitude relative to the MVM's
  // healthy outputs: this is the "incorrect gradients accumulate after
  // each weight update" failure mode of §III.B.2 — a persistent
  // directional error at fixed positions, not zero-mean noise.
  apply_gradient_pinning(bwd_view_, weight_.grad);
  return dx;
}

}  // namespace remapd
