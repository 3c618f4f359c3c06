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
    : FaultableLayer(out_channels, in_channels * kernel * kernel, rng,
                     std::move(tag)),
      in_ch_(in_channels), kernel_(kernel), stride_(stride), pad_(pad) {}

Tensor Conv2d::forward(const Tensor& x, bool train) {
  if (x.shape().rank() != 4 || x.shape()[1] != in_ch_)
    throw std::invalid_argument(tag_ + ": bad input shape " + x.shape().str());
  const std::size_t out_ch = weight_rows();
  const std::size_t n = x.shape()[0];
  const ConvGeom g{in_ch_, x.shape()[2], x.shape()[3],
                   kernel_, kernel_, stride_, pad_};
  const std::size_t cr = g.col_rows(), cc = g.col_cols(), ncc = n * cc;
  const std::size_t img = in_ch_ * g.height * g.width;

  // One cr x (n*cc) panel for the whole batch; sample i owns its columns
  // [i*cc, (i+1)*cc).
  Tensor cols(Shape{cr, ncc});
  Tensor y(Shape{n, out_ch, g.out_h(), g.out_w()});
  const Mvm mvm = crossbar(Phase::kForward, train);

  if (mvm.int8()) {
    telemetry::count("nn.conv.int8_flops", 2ull * out_ch * ncc * cr);
    // Per sample: fill its panel columns, multiply, and write its NCHW
    // block directly.
    parallel_for(0, n, 1, [&](std::size_t s0, std::size_t s1) {
      for (std::size_t i = s0; i < s1; ++i) {
        float* col = cols.data() + i * cc;
        im2col(x.data() + i * img, g, col, ncc);
        float* yi = y.data() + i * out_ch * cc;
        mvm(cc, col, ncc, yi, cc);
        for (std::size_t o = 0; o < out_ch; ++o)
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
    // y = We (out x cr) * cols (cr x n*cc) + bias as one GEMM.
    float* out = panel_scratch(out_ch * ncc);
    mvm(ncc, cols.data(), ncc, out, ncc);
    // Scatter to NCHW adding the bias, a block of whole channels at a time.
    parallel_for(0, out_ch, grain_for(ncc), [&](std::size_t o0,
                                                std::size_t o1) {
      for (std::size_t o = o0; o < o1; ++o) {
        const float b = bias_.value[o];
        for (std::size_t i = 0; i < n; ++i) {
          const float* src = out + o * ncc + i * cc;
          float* plane = y.data() + (i * out_ch + o) * cc;
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
  const std::size_t out_ch = weight_rows();
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
  float* dyp = panel_scratch(out_ch * ncc);
  parallel_for(0, out_ch, grain_for(ncc), [&](std::size_t o0,
                                               std::size_t o1) {
    for (std::size_t o = o0; o < o1; ++o) {
      float part = 0.0f;
      for (std::size_t i = 0; i < n; ++i) {
        const float* plane = dy.data() + (i * out_ch + o) * cc;
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
  gemm_grouped(false, true, out_ch, cr, cc, n, group, 1.0f, dyp, ncc,
               last_cols_.data(), ncc, 1.0f, weight_.grad.data(), cr);

  // dCols = We_bwd^T (cr x out) * dY (out x n*cc), written over the panel
  // dW just consumed, then col2im per sample.
  const Mvm mvm = crossbar(Phase::kBackward, true);
  float* dcols = last_cols_.data();
  Tensor dx(Shape{n, in_ch_, g.height, g.width});
  if (mvm.int8()) {
    telemetry::count("nn.conv.int8_flops", 2ull * cr * ncc * out_ch);
    parallel_for(0, n, 1, [&](std::size_t s0, std::size_t s1) {
      for (std::size_t i = s0; i < s1; ++i) {
        float* dcol = dcols + i * cc;
        mvm(cc, dy.data() + i * out_ch * cc, cc, dcol, ncc);
        col2im(dcol, g, dx.data() + i * img, ncc);
      }
    });
  } else {
    mvm(ncc, dyp, ncc, dcols, ncc);
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
  pin_gradients();
  return dx;
}

}  // namespace remapd
