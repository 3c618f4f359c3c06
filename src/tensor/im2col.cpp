#include "tensor/im2col.hpp"

#include <algorithm>

#include "telemetry/telemetry.hpp"

namespace remapd {
namespace {

struct LoweringTelemetry {
  telemetry::Counter& calls;
  telemetry::Histogram& ns;
};

LoweringTelemetry& im2col_telemetry() {
  auto& reg = telemetry::Registry::instance();
  static LoweringTelemetry t{reg.counter("tensor.im2col.calls"),
                             reg.histogram("tensor.im2col.ns")};
  return t;
}

LoweringTelemetry& col2im_telemetry() {
  auto& reg = telemetry::Registry::instance();
  static LoweringTelemetry t{reg.counter("tensor.col2im.calls"),
                             reg.histogram("tensor.col2im.ns")};
  return t;
}

/// Output positions [lo, hi) along one axis whose input coordinate
/// x*stride + tap - pad lies inside [0, size): the valid range of one
/// kernel tap, so the loops over it need no bounds check.
struct Span {
  std::size_t lo, hi;
};

Span valid_span(std::size_t out, std::size_t size, std::size_t tap,
                std::size_t stride, std::size_t pad) {
  const auto ceil_div = [stride](std::size_t a) {  // no divide at stride 1
    return stride == 1 ? a : (a + stride - 1) / stride;
  };
  const std::size_t hi =
      size + pad > tap ? std::min(out, ceil_div(size + pad - tap)) : 0;
  const std::size_t lo = pad > tap ? ceil_div(pad - tap) : 0;
  return {std::min(lo, hi), hi};
}

}  // namespace

void im2col(const float* img, const ConvGeom& g, float* col,
            std::size_t ld) {
  LoweringTelemetry& telem = im2col_telemetry();
  telemetry::KernelTimer timer(telem.calls, telem.ns);
  const std::size_t oh = g.out_h(), ow = g.out_w(), s = g.stride;
  const std::size_t taps = g.kernel_h * g.kernel_w;
  // Tap-major, so each tap's valid range is worked out once for all
  // channels; row (c, kh, kw) of the matrix is c * taps + kh * kernel_w + kw.
  // Plain loops rather than std::fill/std::copy: rows are 2-16 floats on
  // small maps, too short to amortize a library call.
  for (std::size_t kh = 0; kh < g.kernel_h; ++kh) {
    const Span ys = valid_span(oh, g.height, kh, s, g.pad);
    for (std::size_t kw = 0; kw < g.kernel_w; ++kw) {
      const Span xs = valid_span(ow, g.width, kw, s, g.pad);
      for (std::size_t c = 0; c < g.channels; ++c) {
        float* dst = col + (c * taps + kh * g.kernel_w + kw) * ld;
        if (xs.lo == xs.hi) {  // the tap only ever reads padding
          for (std::size_t i = 0; i < oh * ow; ++i) dst[i] = 0.0f;
          continue;
        }
        // Rows and columns whose tap reads the zero padding.
        for (std::size_t i = 0; i < ys.lo * ow; ++i) dst[i] = 0.0f;
        for (std::size_t i = ys.hi * ow; i < oh * ow; ++i) dst[i] = 0.0f;
        const float* plane = img + c * g.height * g.width;
        for (std::size_t y = ys.lo; y < ys.hi; ++y) {
          float* drow = dst + y * ow;
          // The tap's first valid input of this row.
          const float* src = plane + (y * s + kh - g.pad) * g.width +
                             (xs.lo * s + kw - g.pad);
          for (std::size_t x = 0; x < xs.lo; ++x) drow[x] = 0.0f;
          if (s == 1) {
            for (std::size_t x = xs.lo; x < xs.hi; ++x)
              drow[x] = src[x - xs.lo];
          } else {
            for (std::size_t x = xs.lo; x < xs.hi; ++x)
              drow[x] = src[(x - xs.lo) * s];
          }
          for (std::size_t x = xs.hi; x < ow; ++x) drow[x] = 0.0f;
        }
      }
    }
  }
}

void col2im(const float* col, const ConvGeom& g, float* img,
            std::size_t ld) {
  LoweringTelemetry& telem = col2im_telemetry();
  telemetry::KernelTimer timer(telem.calls, telem.ns);
  const std::size_t ow = g.out_w(), s = g.stride;
  const std::size_t taps = g.kernel_h * g.kernel_w;
  // Each image element receives its contributions one per tap of its own
  // channel (a tap maps distinct outputs to distinct inputs), in (kh, kw)
  // order: the tap-major walk keeps that order.
  for (std::size_t kh = 0; kh < g.kernel_h; ++kh) {
    const Span ys = valid_span(g.out_h(), g.height, kh, s, g.pad);
    for (std::size_t kw = 0; kw < g.kernel_w; ++kw) {
      const Span xs = valid_span(ow, g.width, kw, s, g.pad);
      const std::size_t len = xs.hi - xs.lo;
      if (len == 0) continue;
      for (std::size_t c = 0; c < g.channels; ++c) {
        const float* src0 = col + (c * taps + kh * g.kernel_w + kw) * ld;
        float* plane = img + c * g.height * g.width;
        for (std::size_t y = ys.lo; y < ys.hi; ++y) {
          const float* src = src0 + y * ow + xs.lo;
          float* dst = plane + (y * s + kh - g.pad) * g.width +
                       (xs.lo * s + kw - g.pad);
          if (s == 1) {
            for (std::size_t x = 0; x < len; ++x) dst[x] += src[x];
          } else {
            for (std::size_t x = 0; x < len; ++x) dst[x * s] += src[x];
          }
        }
      }
    }
  }
}

}  // namespace remapd
