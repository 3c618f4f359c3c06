// Composition primitives for the model zoo: a sequential container plus the
// two composite blocks the paper's CNNs need — the ResNet basic block
// (skip connection) and the SqueezeNet fire module (squeeze + dual expand
// with channel concatenation).
#pragma once

#include <memory>
#include <vector>

#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/layer.hpp"

namespace remapd {

/// Runs children in order; backward in reverse.
class Sequential final : public Layer {
 public:
  Sequential() = default;
  explicit Sequential(std::string tag) : tag_(std::move(tag)) {}

  /// Append a layer; returns a raw observer pointer for wiring convenience.
  Layer* add(LayerPtr layer);

  template <typename L, typename... Args>
  L* emplace(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L* raw = layer.get();
    add(std::move(layer));
    return raw;
  }

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& dy) override;
  std::vector<Param*> params() override;
  void visit(const std::function<void(Layer&)>& fn) override;
  [[nodiscard]] std::string name() const override { return tag_; }

  [[nodiscard]] const std::vector<LayerPtr>& children() const {
    return layers_;
  }

 private:
  std::vector<LayerPtr> layers_;
  std::string tag_ = "sequential";
};

/// ResNet basic block: conv-bn-relu-conv-bn (+ optional 1x1 conv-bn
/// projection on the skip path when shape changes), final ReLU.
class ResidualBlock final : public Layer {
 public:
  ResidualBlock(std::size_t in_channels, std::size_t out_channels,
                std::size_t stride, Rng& rng, std::string tag);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& dy) override;
  std::vector<Param*> params() override;
  void visit(const std::function<void(Layer&)>& fn) override;
  [[nodiscard]] std::string name() const override { return tag_; }

 private:
  std::string tag_;
  Conv2d conv1_;
  BatchNorm bn1_;
  Conv2d conv2_;
  BatchNorm bn2_;
  std::unique_ptr<Conv2d> proj_;      // nullptr when identity skip works
  std::unique_ptr<BatchNorm> proj_bn_;

  // Saved activations for backward.
  Tensor relu1_mask_, out_mask_;
};

/// SqueezeNet fire module: squeeze 1x1 -> relu -> {expand1x1, expand3x3}
/// -> relu each -> channel concat.
class FireModule final : public Layer {
 public:
  FireModule(std::size_t in_channels, std::size_t squeeze,
             std::size_t expand1, std::size_t expand3, Rng& rng,
             std::string tag);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& dy) override;
  std::vector<Param*> params() override;
  void visit(const std::function<void(Layer&)>& fn) override;
  [[nodiscard]] std::string name() const override { return tag_; }

  [[nodiscard]] std::size_t out_channels() const { return e1_ + e3_; }

 private:
  std::string tag_;
  std::size_t e1_, e3_;
  Conv2d squeeze_;
  BatchNorm sq_bn_;
  Conv2d expand1_;
  BatchNorm e1_bn_;
  Conv2d expand3_;
  BatchNorm e3_bn_;

  Tensor sq_mask_, e1_mask_, e3_mask_;
  Shape e1_shape_, e3_shape_;
};

}  // namespace remapd
