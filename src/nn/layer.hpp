// Layer interface of the CNN training substrate, and the crossbar-layer
// base that every weight-bearing layer derives from.
//
// Layers own their parameters and gradients and implement explicit
// forward/backward passes (define-by-run is unnecessary for a fixed model
// zoo). The weight-bearing layers (Conv2d, Linear) split in two:
//
//   FaultableLayer (here)  the crossbar side: the weight/bias Params, the
//                          forward and backward FaultViews (see
//                          fault_view.hpp), the effective weights and int8
//                          panels they imply, and the one MVM helper
//                          crossbar() that runs C = op(W_eff)·B through
//                          int8 or fp32 gemm();
//   Conv2d / Linear        only their lowering of the batch onto those
//                          MVMs (im2col panels, flatten/transposes) and dW.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "nn/fault_view.hpp"
#include "tensor/gemm_int8.hpp"
#include "tensor/tensor.hpp"

namespace remapd {

/// A learnable parameter: value + gradient accumulator.
struct Param {
  Tensor value;
  Tensor grad;
  std::string tag;

  explicit Param(Tensor v, std::string t = "")
      : value(std::move(v)), grad(Tensor::zeros(value.shape())),
        tag(std::move(t)) {}

  void zero_grad() { grad.fill(0.0f); }
};

/// Base class of all layers.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Forward pass. `train` selects training-mode behaviour (batch statistics,
  /// activation caching for backward).
  virtual Tensor forward(const Tensor& x, bool train) = 0;

  /// Backward pass: consumes dL/dy, accumulates parameter gradients,
  /// returns dL/dx. Must follow a forward(..., train=true).
  virtual Tensor backward(const Tensor& dy) = 0;

  /// All parameters of the layer (empty for stateless layers).
  virtual std::vector<Param*> params() { return {}; }

  /// Visit this layer and (for composites) every descendant.
  virtual void visit(const std::function<void(Layer&)>& fn) { fn(*this); }

  [[nodiscard]] virtual std::string name() const = 0;
};

/// Pin the gradient components whose positions traverse stuck cells of the
/// backward array. The pinned value has the fault's sign (SA1 -> +, SA0 ->
/// -) and a magnitude of `kappa` times the gradient RMS of the layer — the
/// full-scale output of a stuck column relative to the healthy MVM range.
/// `kappa` is knob_grad_pin() (REMAPD_GRAD_PIN, 12): large enough that
/// pinned positions drift decisively, small enough that the healthy-
/// gradient pull-back equilibrates once the fault is remapped away.
void apply_gradient_pinning(const FaultView& view, Tensor& grad);

/// A layer whose weights live on ReRAM crossbars.
///
/// The weight matrix is `weight_rows() x weight_cols()` (output-major,
/// row-major storage): Conv2d flattens its filter bank to
/// C_out x (C_in*KH*KW), Linear is O x I. The trainer installs fault views
/// rebuilt by the crossbar mapper whenever faults change or tasks remap; an
/// empty view means healthy crossbars.
class FaultableLayer : public Layer {
 public:
  /// Kaiming-initialized `rows x cols` weights (fan-in `cols`) tagged
  /// `<tag>.weight`, and `rows` zero biases tagged `<tag>.bias`.
  FaultableLayer(std::size_t rows, std::size_t cols, Rng& rng,
                 std::string tag);

  std::vector<Param*> params() final { return {&weight_, &bias_}; }
  [[nodiscard]] std::string name() const final { return tag_; }

  [[nodiscard]] std::size_t weight_rows() const {
    return weight_.value.shape()[0];
  }
  [[nodiscard]] std::size_t weight_cols() const {
    return weight_.value.shape()[1];
  }

  /// Install fault views. Either may be empty.
  void set_fault_views(FaultView forward_view, FaultView backward_view);
  void clear_fault_views();

  /// Digital weight parameter of the layer (for mapping / analysis).
  Param& weight_param() { return weight_; }

 protected:
  /// One phase's crossbar, ready for a batch of MVMs. op(W) is W on the
  /// forward crossbars and W^T on the backward ones; W_eff is the digital W
  /// with the phase's FaultView applied. Built by crossbar() and never
  /// moved, so it can hold the call-local operands of an eval forward.
  class Mvm {
   public:
    Mvm(const Mvm&) = delete;
    Mvm& operator=(const Mvm&) = delete;

    /// Whether the MVMs run on the int8 path.
    [[nodiscard]] bool int8() const { return i8_ != nullptr; }

    /// C = op(W_eff)·B for a row-major k x n panel B (leading dimension
    /// ldb), into a row-major m x n C (ldc). On the int8 path a B holding
    /// NaN/Inf takes the fp32 gemm() instead, so divergence is never
    /// clamped away by quantization.
    void operator()(std::size_t n, const float* b, std::size_t ldb, float* c,
                    std::size_t ldc) const;

    /// The same product for n batch rows: Y = X·op(W_eff)^T with X n x k
    /// (ldx) and Y n x m (ldy), both row-major. fp32 runs it as that one
    /// gemm(); int8 multiplies X^T into a scratch C and transposes it.
    void transposed(std::size_t n, const float* x, std::size_t ldx, float* y,
                    std::size_t ldy) const;

   private:
    friend class FaultableLayer;
    Mvm(FaultableLayer& layer, Phase phase, bool train);
    /// Row length of the row-major W_eff (its column count).
    [[nodiscard]] std::size_t ldw() const { return trans_ ? m_ : k_; }

    Tensor local_eff_;     ///< eval-forward effective weights
    Int8APack local_i8_;   ///< eval-forward int8 panel
    const Tensor* w_;      ///< W_eff (weight_rows() x weight_cols())
    const Int8APack* i8_ = nullptr;  ///< packed op(W_eff), int8 path only
    bool trans_;           ///< op(W) = W^T (the backward crossbars)
    std::size_t m_, k_;    ///< op(W) is m_ x k_
  };

  /// The crossbar of `phase`, its effective weights built (and packed for
  /// int8 when the view selects it). Eval-mode forwards (`train` false)
  /// may run concurrently, so only the single-threaded training path
  /// writes the layer's effective-weight and int8 members; eval builds
  /// call-locals inside the returned Mvm.
  Mvm crossbar(Phase phase, bool train);

  /// Pin the gradient components that traverse stuck backward-array cells
  /// (see apply_gradient_pinning).
  void pin_gradients() { apply_gradient_pinning(bwd_view_, weight_.grad); }

  Param weight_;  ///< rank-2: weight_rows() x weight_cols()
  Param bias_;    ///< rank-1: weight_rows()
  std::string tag_;

 private:
  FaultView fwd_view_, bwd_view_;
  Tensor fwd_eff_, bwd_eff_;  ///< training-path effective weights
  Int8APack fwd_i8_, bwd_i8_;  ///< training-path int8 panels
};

using LayerPtr = std::unique_ptr<Layer>;

/// Every FaultableLayer of a layer tree, in visit() order — the list the
/// crossbar mapper and checkpoints index layers by.
std::vector<FaultableLayer*> collect_faultable(Layer& root);

}  // namespace remapd
