#include "nn/layer.hpp"

#include <cmath>
#include <vector>

#include "tensor/gemm.hpp"
#include "util/env.hpp"

namespace remapd {

// ------------------------------------------------------------ FaultableLayer

FaultableLayer::FaultableLayer(std::size_t rows, std::size_t cols, Rng& rng,
                               std::string tag)
    : weight_(Tensor::kaiming(Shape{rows, cols}, cols, rng), tag + ".weight"),
      bias_(Tensor::zeros(Shape{rows}), tag + ".bias"),
      tag_(std::move(tag)) {}

void FaultableLayer::set_fault_views(FaultView forward_view,
                                     FaultView backward_view) {
  fwd_view_ = std::move(forward_view);
  bwd_view_ = std::move(backward_view);
}

void FaultableLayer::clear_fault_views() {
  fwd_view_ = FaultView{};
  bwd_view_ = FaultView{};
}

FaultableLayer::Mvm FaultableLayer::crossbar(Phase phase, bool train) {
  return Mvm(*this, phase, train);
}

FaultableLayer::Mvm::Mvm(FaultableLayer& layer, Phase phase, bool train)
    : w_(&layer.weight_.value), trans_(phase == Phase::kBackward),
      m_(trans_ ? layer.weight_cols() : layer.weight_rows()),
      k_(trans_ ? layer.weight_rows() : layer.weight_cols()) {
  const bool fwd = phase == Phase::kForward;
  const FaultView& view = fwd ? layer.fwd_view_ : layer.bwd_view_;
  if (!view.empty()) {
    Tensor& eff =
        train ? (fwd ? layer.fwd_eff_ : layer.bwd_eff_) : local_eff_;
    if (eff.numel() != w_->numel()) eff = Tensor::zeros(w_->shape());
    view.apply(w_->data(), eff.data(), w_->numel());
    w_ = &eff;
  }
  if (view.int8_selected()) {
    Int8APack& i8 = train ? (fwd ? layer.fwd_i8_ : layer.bwd_i8_) : local_i8_;
    // op(W) as a strided view of the row-major W_eff.
    i8.pack(m_, k_,
            trans_ ? StridedOperand{w_->data(), 1, ldw()}
                   : StridedOperand{w_->data(), ldw(), 1},
            view.int8_weight_scale());
    i8_ = &i8;
  }
}

void FaultableLayer::Mvm::operator()(std::size_t n, const float* b,
                                     std::size_t ldb, float* c,
                                     std::size_t ldc) const {
  if (i8_ && i8_->multiply(n, StridedOperand{b, ldb, 1}, c, ldc)) return;
  // gemm() always issues every product, so a non-finite effective weight
  // (diverged or full-scale-stuck cell) still reaches its outputs as
  // 0 * NaN/Inf = NaN.
  gemm(trans_, false, m_, n, k_, 1.0f, w_->data(), ldw(), b, ldb, 0.0f, c,
       ldc);
}

void FaultableLayer::Mvm::transposed(std::size_t n, const float* x,
                                     std::size_t ldx, float* y,
                                     std::size_t ldy) const {
  if (i8_) {
    std::vector<float> c(m_ * n);
    if (i8_->multiply(n, StridedOperand{x, 1, ldx}, c.data(), n)) {
      for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < m_; ++j) y[i * ldy + j] = c[j * n + i];
      return;
    }
  }
  gemm(false, !trans_, n, m_, k_, 1.0f, x, ldx, w_->data(), ldw(), 0.0f, y,
       ldy);
}

std::vector<FaultableLayer*> collect_faultable(Layer& root) {
  std::vector<FaultableLayer*> out;
  root.visit([&](Layer& l) {
    if (auto* f = dynamic_cast<FaultableLayer*>(&l)) out.push_back(f);
  });
  return out;
}

// ---------------------------------------------------------- gradient pinning

void apply_gradient_pinning(const FaultView& view, Tensor& grad) {
  if (view.empty()) return;
  // Severity of a stuck backward-array cell relative to the healthy
  // gradient scale (REMAPD_GRAD_PIN overrides for ablations).
  const float kappa = static_cast<float>(knob_grad_pin());
  // The reference scale is the RMS of the *healthy* gradient components.
  // Clamped positions are excluded: their pre-pinning gradients are the
  // (large) corrective responses to their own drift, and including them
  // would close a positive feedback loop that diverges for small layers
  // (kappa^2 * clamps >= weights).
  double sq = 0.0;
  for (std::size_t i = 0; i < grad.numel(); ++i)
    sq += static_cast<double>(grad[i]) * grad[i];
  std::size_t excluded = 0;
  for (const auto& c : view.clamps)
    if (c.index < grad.numel()) {
      sq -= static_cast<double>(grad[c.index]) * grad[c.index];
      ++excluded;
    }
  const std::size_t healthy =
      grad.numel() > excluded ? grad.numel() - excluded : 1;
  const float rms = static_cast<float>(
      std::sqrt(std::max(sq, 0.0) / static_cast<double>(healthy)));
  const float magnitude = kappa * rms;

  for (const auto& c : view.clamps)
    if (c.index < grad.numel()) {
      // A deliberately severed (drop-connect) weight is a zero, not a
      // full-scale outlier: it contributes nothing forward and receives no
      // gradient, exactly like standard drop-connect regularization.
      if (c.kind == WeightClampKind::kZeroed)
        grad[c.index] = 0.0f;
      else if (c.kind == WeightClampKind::kLevel)
        // A level-flipped (upset) cell drifts toward the sign of its
        // pinned level; pin the gradient the same way a stuck-at of that
        // polarity would be pinned.
        grad[c.index] = c.value >= 0.0f ? magnitude : -magnitude;
      else
        grad[c.index] = is_stuck_at_1(c.kind) ? magnitude : -magnitude;
    }
}

}  // namespace remapd
