#include "nn/linear.hpp"

#include <stdexcept>

#include "tensor/gemm.hpp"

namespace remapd {

Linear::Linear(std::size_t in_features, std::size_t out_features, Rng& rng,
               std::string tag)
    : FaultableLayer(out_features, in_features, rng, std::move(tag)) {}

Tensor Linear::forward(const Tensor& x, bool train) {
  const std::size_t in = weight_cols(), out = weight_rows();
  // Accept any rank: flatten trailing dims into features.
  const std::size_t n = x.shape()[0];
  if (x.numel() != n * in)
    throw std::invalid_argument(tag_ + ": bad input " + x.shape().str());
  Tensor x2 = x.reshaped(Shape{n, in});

  // y = x2 (n x in) * We^T (in x out): the crossbar MVM over batch rows.
  Tensor y(Shape{n, out});
  crossbar(Phase::kForward, train).transposed(n, x2.data(), in, y.data(), out);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t o = 0; o < out; ++o) y.at(i, o) += bias_.value[o];

  if (train) {
    last_x_ = std::move(x2);
    last_input_shape_ = x.shape();
  }
  return y;
}

Tensor Linear::backward(const Tensor& dy) {
  if (last_x_.empty())
    throw std::logic_error(tag_ + ": backward without forward(train)");
  const std::size_t in = weight_cols(), out = weight_rows();
  const std::size_t n = last_x_.shape()[0];

  // dW += dy^T (out x n) * x (n x in)   — digital accumulation.
  gemm(true, false, out, in, n, 1.0f, dy.data(), out, last_x_.data(), in,
       1.0f, weight_.grad.data(), in);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t o = 0; o < out; ++o) bias_.grad[o] += dy.at(i, o);

  // Stuck backward-array cells pin their gradient components at a fixed
  // sign and full-scale magnitude (see the matching note in conv2d.cpp).
  pin_gradients();

  // dx = dy (n x out) * We_bwd (out x in) — via the backward crossbars.
  Tensor dx(Shape{n, in});
  crossbar(Phase::kBackward, true).transposed(n, dy.data(), out, dx.data(), in);
  return dx.reshaped(last_input_shape_);
}

}  // namespace remapd
