// Tests for Conv2d's whole-batch lowering (one im2col panel and one GEMM per
// layer per phase): forward outputs and input gradients are bitwise equal
// to a per-sample gemm() reference in fp32 and on the int8 path (including
// a sample whose non-finite activation takes the fp32 fallback); dW/db
// are bitwise equal to per-sample gemm() calls summed in the fixed
// grouping of DESIGN §9 and match a double-precision reference; the whole
// layer is bitwise identical
// at 1 and 4 threads; and repeated training steps leave the GEMM scratch
// arenas flat. The suite name keeps it inside CI's `Gemm*` determinism
// filter.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <stdexcept>
#include <vector>

#include "nn/conv2d.hpp"
#include "tensor/gemm.hpp"
#include "tensor/gemm_int8.hpp"
#include "tensor/gemm_kernel.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace remapd {
namespace {

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

/// Scoped thread-count override (mirrors test_parallel.cpp).
class ThreadGuard {
 public:
  explicit ThreadGuard(std::size_t n) : old_(parallel_threads()) {
    set_parallel_threads(n);
  }
  ~ThreadGuard() { set_parallel_threads(old_); }

 private:
  std::size_t old_;
};

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

/// A layer shape with a depth past one kKC chunk (cr = 32*9 = 288), an
/// out_ch that is not a multiple of kMR, stride 2 with padding, and a
/// per-sample col_cols (25) that is not a multiple of kNR.
struct Case {
  std::size_t in_ch = 32, out_ch = 10, kernel = 3, stride = 2, pad = 1;
  std::size_t n = 5, h = 9, w = 9;
};

/// A quantized view with a few stuck cells: effective weights differ from
/// the digital ones, and the layer runs its MVMs on the int8 path.
FaultView int8_view() {
  FaultView v;
  v.levels = 16;
  v.int8_path = true;
  v.clamps = {{3, WeightClampKind::kPosStuck1},
              {40, WeightClampKind::kNegStuck1},
              {101, WeightClampKind::kPosStuck0}};
  return v;
}

Tensor effective(const Tensor& w, const std::optional<FaultView>& view) {
  if (!view) return w;
  Tensor out(w.shape());
  view->apply(w.data(), out.data(), w.numel());
  return out;
}

/// Per-sample reference of the layer's two MVMs: one gemm() (or one int8
/// multiply with its fp32 fallback) per sample over a standalone im2col
/// matrix, the lowering Conv2d used before whole-batch panels.
struct PerSampleReference {
  Tensor y, dx;
};

PerSampleReference per_sample(const Case& c, const Tensor& x,
                              const Tensor& dy, const Tensor& we_fwd,
                              const Tensor& we_bwd, const Tensor& bias,
                              const std::optional<FaultView>& view) {
  const ConvGeom g{c.in_ch, c.h, c.w, c.kernel, c.kernel, c.stride, c.pad};
  const std::size_t cr = g.col_rows(), cc = g.col_cols();
  const std::size_t img = c.in_ch * c.h * c.w;
  PerSampleReference r{Tensor(Shape{c.n, c.out_ch, g.out_h(), g.out_w()}),
                       Tensor(Shape{c.n, c.in_ch, c.h, c.w})};
  const bool int8 = view && view->int8_selected();
  Int8APack fwd_pack, bwd_pack;
  if (int8) {
    fwd_pack.pack(c.out_ch, cr, StridedOperand{we_fwd.data(), cr, 1},
                  view->int8_weight_scale());
    bwd_pack.pack(cr, c.out_ch, StridedOperand{we_bwd.data(), 1, cr},
                  view->int8_weight_scale());
  }
  std::vector<float> col(cr * cc), dcol(cr * cc);
  for (std::size_t i = 0; i < c.n; ++i) {
    im2col(x.data() + i * img, g, col.data(), cc);
    float* yi = r.y.data() + i * c.out_ch * cc;
    if (!int8 || !fwd_pack.multiply(cc, StridedOperand{col.data(), cc, 1},
                                    yi, cc))
      gemm(false, false, c.out_ch, cc, cr, 1.0f, we_fwd.data(), cr,
           col.data(), cc, 0.0f, yi, cc);
    for (std::size_t o = 0; o < c.out_ch; ++o)
      for (std::size_t p = 0; p < cc; ++p) yi[o * cc + p] += bias[o];

    const float* dyi = dy.data() + i * c.out_ch * cc;
    if (!int8 || !bwd_pack.multiply(cc, StridedOperand{dyi, cc, 1},
                                    dcol.data(), cc))
      gemm(true, false, cr, cc, c.out_ch, 1.0f, we_bwd.data(), cr, dyi, cc,
           0.0f, dcol.data(), cc);
    col2im(dcol.data(), g, r.dx.data() + i * img, cc);
  }
  return r;
}

/// Runs one training step of a fresh layer (seeded identically every call)
/// under `view` on both phases and checks y and dx against per_sample().
void expect_matches_per_sample(const Case& c,
                               const std::optional<FaultView>& view) {
  Rng rng(21);
  Conv2d conv(c.in_ch, c.out_ch, c.kernel, c.stride, c.pad, rng);
  for (std::size_t o = 0; o < c.out_ch; ++o)
    conv.params()[1]->value[o] = 0.01f * static_cast<float>(o);
  if (view) conv.set_fault_views(*view, *view);
  Tensor x = Tensor::randn(Shape{c.n, c.in_ch, c.h, c.w}, rng);
  const ConvGeom g{c.in_ch, c.h, c.w, c.kernel, c.kernel, c.stride, c.pad};
  Tensor dy = Tensor::randn(Shape{c.n, c.out_ch, g.out_h(), g.out_w()}, rng);
  // Sample 1 carries a non-finite activation and the last sample a
  // non-finite output gradient: on the int8 path each takes the fp32
  // fallback alone.
  x[1 * c.in_ch * c.h * c.w + 17] = kInf;
  dy[(c.n - 1) * c.out_ch * g.col_cols() + 5] = kNaN;

  const Tensor we = effective(conv.weight_param().value, view);
  const PerSampleReference ref =
      per_sample(c, x, dy, we, we, conv.params()[1]->value, view);
  const Tensor y = conv.forward(x, /*train=*/true);
  const Tensor dx = conv.backward(dy);
  EXPECT_TRUE(bitwise_equal(y, ref.y));
  EXPECT_TRUE(bitwise_equal(dx, ref.dx));
  // The eval path (call-local panels) lowers the same way.
  EXPECT_TRUE(bitwise_equal(conv.forward(x, /*train=*/false), ref.y));
}

TEST(GemmConvLowering, Fp32ForwardAndDxMatchPerSampleGemmBitwise) {
  expect_matches_per_sample(Case{}, std::nullopt);
  // dX depth (out_ch) past one kKC chunk as well.
  Case wide;
  wide.in_ch = 3;
  wide.out_ch = 260;
  wide.n = 3;
  expect_matches_per_sample(wide, std::nullopt);
}

TEST(GemmConvLowering, Int8ForwardAndDxMatchPerSampleBitwise) {
  expect_matches_per_sample(Case{}, int8_view());
}

/// dW and db of one training step, with the Params' gradients pre-seeded
/// (0.25 and -0.5) so accumulation into what they hold is checked too.
struct Grads {
  Tensor x, dy, dw, db;
};

Grads layer_grads(const Case& c, std::uint64_t seed) {
  Rng rng(seed);
  Conv2d conv(c.in_ch, c.out_ch, c.kernel, c.stride, c.pad, rng);
  const ConvGeom g{c.in_ch, c.h, c.w, c.kernel, c.kernel, c.stride, c.pad};
  Grads r;
  r.x = Tensor::randn(Shape{c.n, c.in_ch, c.h, c.w}, rng);
  r.dy = Tensor::randn(Shape{c.n, c.out_ch, g.out_h(), g.out_w()}, rng);
  Param& w = conv.weight_param();
  Param& b = *conv.params()[1];
  for (std::size_t e = 0; e < w.grad.numel(); ++e) w.grad[e] = 0.25f;
  for (std::size_t o = 0; o < c.out_ch; ++o) b.grad[o] = -0.5f;
  conv.forward(r.x, /*train=*/true);
  conv.backward(r.dy);
  r.dw = w.grad;
  r.db = b.grad;
  return r;
}

TEST(GemmConvLowering, WeightAndBiasGradientsMatchGroupedPerSampleBitwise) {
  // The batch's dW and db are summed per group of reduction_grain(n)
  // samples from zero, and the group partials are added in order: bit for
  // bit one gemm() (and one spatial sum) per sample into per-group
  // buffers. Cases: groups of 3 with a shorter last group (n = 35), and a
  // per-sample depth cc = 324 that crosses a kKC chunk inside each sample.
  Case small;
  small.n = 35;
  Case deep;
  deep.in_ch = 2;
  deep.out_ch = 7;
  deep.stride = 1;
  deep.n = 18;
  deep.h = deep.w = 18;
  for (const Case& c : {small, deep}) {
    const Grads got = layer_grads(c, 31);
    const ConvGeom g{c.in_ch, c.h, c.w, c.kernel, c.kernel, c.stride, c.pad};
    const std::size_t cr = g.col_rows(), cc = g.col_cols();
    const std::size_t group = reduction_grain(c.n);
    Tensor dw(Shape{c.out_ch, cr}), part_w(Shape{c.out_ch, cr});
    std::vector<float> db(c.out_ch, -0.5f), part_b(c.out_ch);
    for (std::size_t e = 0; e < dw.numel(); ++e) dw[e] = 0.25f;
    std::vector<float> col(cr * cc);
    for (std::size_t i = 0; i < c.n; ++i) {
      if (i % group == 0) {
        part_w = Tensor::zeros(Shape{c.out_ch, cr});
        std::fill(part_b.begin(), part_b.end(), 0.0f);
      }
      im2col(got.x.data() + i * c.in_ch * c.h * c.w, g, col.data(), cc);
      const float* dyi = got.dy.data() + i * c.out_ch * cc;
      gemm(false, true, c.out_ch, cr, cc, 1.0f, dyi, cc, col.data(), cc,
           1.0f, part_w.data(), cr);
      for (std::size_t o = 0; o < c.out_ch; ++o) {
        float s = 0.0f;
        for (std::size_t p = 0; p < cc; ++p) s += dyi[o * cc + p];
        part_b[o] += s;
      }
      if ((i + 1) % group == 0 || i + 1 == c.n) {
        for (std::size_t e = 0; e < dw.numel(); ++e) dw[e] += part_w[e];
        for (std::size_t o = 0; o < c.out_ch; ++o) db[o] += part_b[o];
      }
    }
    EXPECT_TRUE(bitwise_equal(got.dw, dw)) << "n=" << c.n;
    EXPECT_EQ(0, std::memcmp(got.db.data(), db.data(),
                             c.out_ch * sizeof(float)))
        << "n=" << c.n;
  }
}

TEST(GemmConvLowering, WeightAndBiasGradientsMatchDoubleReference) {
  // Each gradient must stay within 1e-5 of the sum of |terms| of its
  // double-precision reference (fp32 accumulation over n*cc = 125 terms
  // errs by at most ~125 * 6e-8 of it).
  const Case c;
  const Grads got = layer_grads(c, 5);
  const Tensor& x = got.x;
  const Tensor& dy = got.dy;
  const ConvGeom g{c.in_ch, c.h, c.w, c.kernel, c.kernel, c.stride, c.pad};
  const std::size_t cr = g.col_rows(), cc = g.col_cols();

  std::vector<float> col(c.n * cr * cc);
  for (std::size_t i = 0; i < c.n; ++i)
    im2col(x.data() + i * c.in_ch * c.h * c.w, g, col.data() + i * cr * cc,
           cc);
  for (std::size_t o = 0; o < c.out_ch; ++o) {
    double db = -0.5, db_abs = 0.5;
    for (std::size_t i = 0; i < c.n; ++i)
      for (std::size_t p = 0; p < cc; ++p) {
        const double v = dy[(i * c.out_ch + o) * cc + p];
        db += v;
        db_abs += std::abs(v);
      }
    EXPECT_NEAR(got.db[o], db, 1e-5 * db_abs) << "o=" << o;
    for (std::size_t r = 0; r < cr; ++r) {
      double dw = 0.25, dw_abs = 0.25;
      for (std::size_t i = 0; i < c.n; ++i)
        for (std::size_t p = 0; p < cc; ++p) {
          const double t =
              static_cast<double>(dy[(i * c.out_ch + o) * cc + p]) *
              col[(i * cr + r) * cc + p];
          dw += t;
          dw_abs += std::abs(t);
        }
      ASSERT_NEAR(got.dw[o * cr + r], dw, 1e-5 * dw_abs)
          << "o=" << o << " r=" << r;
    }
  }
}

TEST(GemmConvLowering, WholeLayerBitwiseIdenticalAtOneAndFourThreads) {
  // A batch wide enough (n*cc = 8*64 = 512 columns) that every GEMM splits
  // its tile sweep over column strips at 4 threads; dW included.
  for (const bool int8 : {false, true}) {
    struct Out {
      Tensor y, dx, dw, db;
    };
    const auto run = [&](std::size_t threads) {
      ThreadGuard guard(threads);
      Rng rng(9);
      Conv2d conv(16, 24, 3, 1, 1, rng);
      if (int8) {
        conv.set_fault_views(int8_view(), int8_view());
      } else {
        FaultView v;
        v.clamps = {{7, WeightClampKind::kPosStuck1},
                    {200, WeightClampKind::kNegStuck1}};
        conv.set_fault_views(v, v);
      }
      const Tensor x = Tensor::randn(Shape{8, 16, 8, 8}, rng);
      const Tensor dy = Tensor::randn(Shape{8, 24, 8, 8}, rng);
      Out out;
      out.y = conv.forward(x, /*train=*/true);
      out.dx = conv.backward(dy);
      out.dw = conv.weight_param().grad;
      out.db = conv.params()[1]->grad;
      return out;
    };
    const Out a = run(1), b = run(4);
    EXPECT_TRUE(bitwise_equal(a.y, b.y)) << "int8=" << int8;
    EXPECT_TRUE(bitwise_equal(a.dx, b.dx)) << "int8=" << int8;
    EXPECT_TRUE(bitwise_equal(a.dw, b.dw)) << "int8=" << int8;
    EXPECT_TRUE(bitwise_equal(a.db, b.db)) << "int8=" << int8;
  }
}

TEST(GemmConvLowering, TrainingStepsDoNotGrowGemmScratch) {
  ThreadGuard guard(1);  // one thread -> one deterministic set of arenas
  Rng rng(13);
  Conv2d conv(8, 16, 3, 1, 1, rng);
  const Tensor x = Tensor::randn(Shape{4, 8, 12, 12}, rng);
  const Tensor dy = Tensor::randn(Shape{4, 16, 12, 12}, rng);
  const auto step = [&] {
    conv.forward(x, /*train=*/true);
    conv.backward(dy);
  };
  for (int i = 0; i < 3; ++i) step();  // warm the arenas
  const std::uint64_t warm = gemm_scratch_allocations();
  for (int i = 0; i < 20; ++i) step();
  EXPECT_EQ(gemm_scratch_allocations(), warm);
}

TEST(GemmConvLowering, BackwardConsumesTheSavedPanel) {
  // dX is written over the forward's im2col panel, so a second backward
  // without a new forward(train) has nothing to read and must say so.
  Rng rng(2);
  Conv2d conv(2, 3, 3, 1, 1, rng);
  const Tensor x = Tensor::randn(Shape{2, 2, 5, 5}, rng);
  const Tensor dy = Tensor::randn(Shape{2, 3, 5, 5}, rng);
  conv.forward(x, /*train=*/true);
  conv.backward(dy);
  EXPECT_THROW(conv.backward(dy), std::logic_error);
  conv.forward(x, /*train=*/false);
  EXPECT_THROW(conv.backward(dy), std::logic_error);
}

TEST(GemmConvLowering, ForwardPropagatesNonFiniteWeights) {
  // A diverged (NaN) or full-scale-stuck (Inf-ish) weight must still
  // poison its output plane even when the input patch is all zero —
  // 0 * NaN = NaN, since the batched GEMM issues every product.
  Rng rng(3);
  Conv2d conv(1, 2, 1, 1, 0, rng);
  conv.weight_param().value[0] = kNaN;
  conv.weight_param().value[1] = 0.5f;
  const Tensor x = Tensor::zeros(Shape{2, 1, 3, 3});
  for (const bool train : {true, false}) {
    const Tensor y = conv.forward(x, train);
    for (std::size_t i = 0; i < 2; ++i)
      for (std::size_t p = 0; p < 9; ++p) {
        EXPECT_TRUE(std::isnan(y[i * 18 + p]))
            << "train=" << train << " i=" << i << " p=" << p;
        EXPECT_EQ(y[i * 18 + 9 + p], 0.0f)
            << "train=" << train << " i=" << i << " p=" << p;
      }
  }
}

}  // namespace
}  // namespace remapd
