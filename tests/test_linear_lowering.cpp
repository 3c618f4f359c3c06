// Tests for Linear's crossbar MVMs on the int8 path: forward outputs and
// input gradients are bitwise equal to an Int8APack multiply of the
// effective weights transposed into the batch-row layout; an input or
// output gradient holding NaN/Inf takes the fp32 gemm() route instead; and
// the whole layer, dW included, is bitwise identical at 1 and 4 threads.
// The suite name keeps it inside CI's `Gemm*` determinism filter.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <vector>

#include "nn/linear.hpp"
#include "tensor/gemm.hpp"
#include "tensor/gemm_int8.hpp"
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

/// A depth that is not a multiple of the int8 k-quad (37), an out count
/// that is not a multiple of the 4-row strip (10), and a batch of 6.
constexpr std::size_t kIn = 37, kOut = 10, kBatch = 6;

/// A 4-bit view selecting the int8 path, with a few stuck cells so the
/// effective weights differ from the digital ones.
FaultView int8_view() {
  FaultView v;
  v.levels = 16;
  v.int8_path = true;
  v.clamps = {{3, WeightClampKind::kPosStuck1},
              {40, WeightClampKind::kNegStuck1},
              {101, WeightClampKind::kPosStuck0}};
  return v;
}

Tensor effective(const Tensor& w, const FaultView& view) {
  Tensor out(w.shape());
  view.apply(w.data(), out.data(), w.numel());
  return out;
}

/// A layer with nonzero biases and the int8 view on both phases.
Linear make_layer(Rng& rng) {
  Linear fc(kIn, kOut, rng);
  for (std::size_t o = 0; o < kOut; ++o)
    fc.params()[1]->value[o] = 0.01f * static_cast<float>(o);
  fc.set_fault_views(int8_view(), int8_view());
  return fc;
}

/// C^T of an Int8APack multiply: `pack` holds op(W) (m x k), `b` is the
/// batch-row matrix (n x k) read as its transpose, and the n x m result
/// lands in batch-row layout. Returns false when the multiply refuses.
bool int8_transposed(const Int8APack& pack, const Tensor& b, Tensor& out) {
  const std::size_t m = pack.rows(), k = pack.depth();
  const std::size_t n = b.shape()[0];
  std::vector<float> c(m * n);
  if (!pack.multiply(n, StridedOperand{b.data(), 1, k}, c.data(), n))
    return false;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < m; ++j) out[i * m + j] = c[j * n + i];
  return true;
}

TEST(GemmLinearLowering, Int8ForwardAndDxMatchPackReferenceBitwise) {
  Rng rng(11);
  Linear fc = make_layer(rng);
  const Tensor x = Tensor::randn(Shape{kBatch, kIn}, rng);
  const Tensor dy = Tensor::randn(Shape{kBatch, kOut}, rng);
  const Tensor we = effective(fc.weight_param().value, int8_view());
  const float scale = int8_view().int8_weight_scale();

  Int8APack fwd, bwd;
  fwd.pack(kOut, kIn, StridedOperand{we.data(), kIn, 1}, scale);
  bwd.pack(kIn, kOut, StridedOperand{we.data(), 1, kIn}, scale);
  Tensor y_ref(Shape{kBatch, kOut}), dx_ref(Shape{kBatch, kIn});
  ASSERT_TRUE(int8_transposed(fwd, x, y_ref));
  ASSERT_TRUE(int8_transposed(bwd, dy, dx_ref));
  for (std::size_t i = 0; i < kBatch; ++i)
    for (std::size_t o = 0; o < kOut; ++o)
      y_ref.at(i, o) += fc.params()[1]->value[o];

  const Tensor y = fc.forward(x, /*train=*/true);
  const Tensor dx = fc.backward(dy);
  EXPECT_TRUE(bitwise_equal(y, y_ref));
  EXPECT_TRUE(bitwise_equal(dx, dx_ref));
  // The eval path (call-local panel) multiplies the same way.
  EXPECT_TRUE(bitwise_equal(fc.forward(x, /*train=*/false), y_ref));
}

TEST(GemmLinearLowering, NonFiniteInputTakesFp32Route) {
  Rng rng(12);
  Linear fc = make_layer(rng);
  Tensor x = Tensor::randn(Shape{kBatch, kIn}, rng);
  Tensor dy = Tensor::randn(Shape{kBatch, kOut}, rng);
  x.at(2, 5) = kNaN;
  dy.at(4, 1) = kInf;
  const Tensor we = effective(fc.weight_param().value, int8_view());

  // The int8 multiply refuses both operands...
  Int8APack fwd, bwd;
  const float scale = int8_view().int8_weight_scale();
  fwd.pack(kOut, kIn, StridedOperand{we.data(), kIn, 1}, scale);
  bwd.pack(kIn, kOut, StridedOperand{we.data(), 1, kIn}, scale);
  Tensor scratch_y(Shape{kBatch, kOut}), scratch_dx(Shape{kBatch, kIn});
  ASSERT_FALSE(int8_transposed(fwd, x, scratch_y));
  ASSERT_FALSE(int8_transposed(bwd, dy, scratch_dx));

  // ...so the layer's outputs are the fp32 gemm() products bit for bit.
  Tensor y_ref(Shape{kBatch, kOut}), dx_ref(Shape{kBatch, kIn});
  gemm(false, true, kBatch, kOut, kIn, 1.0f, x.data(), kIn, we.data(), kIn,
       0.0f, y_ref.data(), kOut);
  for (std::size_t i = 0; i < kBatch; ++i)
    for (std::size_t o = 0; o < kOut; ++o)
      y_ref.at(i, o) += fc.params()[1]->value[o];
  gemm(false, false, kBatch, kIn, kOut, 1.0f, dy.data(), kOut, we.data(),
       kIn, 0.0f, dx_ref.data(), kIn);

  const Tensor y = fc.forward(x, /*train=*/true);
  const Tensor dx = fc.backward(dy);
  EXPECT_TRUE(bitwise_equal(y, y_ref));
  EXPECT_TRUE(bitwise_equal(dx, dx_ref));
  EXPECT_TRUE(bitwise_equal(fc.forward(x, /*train=*/false), y_ref));
}

TEST(GemmLinearLowering, WholeLayerBitwiseIdenticalAtOneAndFourThreads) {
  // Wide enough (64 x 300 -> 200) that the fp32 GEMMs split their tile
  // sweeps at 4 threads; dW and db included.
  for (const bool int8 : {false, true}) {
    struct Out {
      Tensor y, dx, dw, db;
    };
    const auto run = [&](std::size_t threads) {
      ThreadGuard guard(threads);
      Rng rng(9);
      Linear fc(300, 200, rng);
      FaultView v = int8 ? int8_view() : FaultView{};
      v.clamps.push_back({7000, WeightClampKind::kNegStuck1});
      fc.set_fault_views(v, v);
      const Tensor x = Tensor::randn(Shape{64, 300}, rng);
      const Tensor dy = Tensor::randn(Shape{64, 200}, rng);
      Out out;
      out.y = fc.forward(x, /*train=*/true);
      out.dx = fc.backward(dy);
      out.dw = fc.weight_param().grad;
      out.db = fc.params()[1]->grad;
      return out;
    };
    const Out a = run(1), b = run(4);
    EXPECT_TRUE(bitwise_equal(a.y, b.y)) << "int8=" << int8;
    EXPECT_TRUE(bitwise_equal(a.dx, b.dx)) << "int8=" << int8;
    EXPECT_TRUE(bitwise_equal(a.dw, b.dw)) << "int8=" << int8;
    EXPECT_TRUE(bitwise_equal(a.db, b.db)) << "int8=" << int8;
  }
}

}  // namespace
}  // namespace remapd
