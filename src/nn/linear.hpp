// Fully-connected layer: y = x * W^T + b, the direct crossbar MVM case. The
// crossbar side (fault views, effective weights, the int8-or-fp32 MVM) is
// FaultableLayer's; this layer owns only the flatten, the transposed
// orientation of its MVMs (a batch row per sample) and the digital dW/db.
#pragma once

#include "nn/layer.hpp"

namespace remapd {

class Linear final : public FaultableLayer {
 public:
  Linear(std::size_t in_features, std::size_t out_features, Rng& rng,
         std::string tag = "fc");

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& dy) override;

 private:
  Tensor last_x_;  ///< input flattened to {N, in}, saved for backward
  Shape last_input_shape_;
};

}  // namespace remapd
