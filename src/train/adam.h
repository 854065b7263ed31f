// Adam optimizer (Kingma & Ba, 2015) — the optimizer used for every model
// in the paper (§V-A4).

#ifndef LAYERGCN_TRAIN_ADAM_H_
#define LAYERGCN_TRAIN_ADAM_H_

#include <cstdint>
#include <vector>

#include "train/parameter.h"

namespace layergcn::train {

/// Adam hyper-parameters.
struct AdamConfig {
  double learning_rate = 1e-3;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double epsilon = 1e-8;
};

/// Stateless-per-parameter Adam: moments live on the Parameter, the
/// optimizer owns only the step counter, so parameter sets may differ
/// between calls (e.g. alternating sub-networks).
class Adam {
 public:
  explicit Adam(const AdamConfig& config = {}) : config_(config) {}

  /// Applies one update from each parameter's .grad, then zeroes the grads.
  /// Per fixed block of elements, the squared gradient norm (published as
  /// `adam.grad_norm` when obs is on) is a serial f64 sum, and the update
  /// a separate vectorized loop; the bits match the single loop that did
  /// both, at any pool width.
  void Step(const std::vector<Parameter*>& params);

  /// Resets the bias-correction step counter.
  void Reset() { t_ = 0; }

  int64_t step_count() const { return t_; }
  /// Restores the bias-correction counter (checkpoint resume). The moments
  /// live on the Parameters, so counter + moments fully restore Adam.
  void set_step_count(int64_t t) { t_ = t; }
  const AdamConfig& config() const { return config_; }
  void set_learning_rate(double lr) { config_.learning_rate = lr; }

 private:
  AdamConfig config_;
  int64_t t_ = 0;
};

}  // namespace layergcn::train

#endif  // LAYERGCN_TRAIN_ADAM_H_
