#include "train/adam.h"

#include <cmath>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace layergcn::train {

void Adam::Step(const std::vector<Parameter*>& params) {
  OBS_SPAN("adam.step");
  ++t_;
  const double b1 = config_.beta1;
  const double b2 = config_.beta2;
  const double bias1 = 1.0 - std::pow(b1, static_cast<double>(t_));
  const double bias2 = 1.0 - std::pow(b2, static_cast<double>(t_));
  const double lr = config_.learning_rate;
  const double eps = config_.epsilon;

  // Each block of a parameter takes its squared-grad-norm partial, then
  // updates and zeroes its elements. The partial is a serial f64 sum in
  // ascending order; it runs in a loop of its own so that the update,
  // whose elements are independent, vectorizes. Blocks are fixed-size and
  // partials combine in block order (util::parallel), so both the updated
  // values and the published norm are bit-identical at any thread count.
  double grad_sq = 0.0;
  for (Parameter* p : params) {
    LAYERGCN_CHECK(p != nullptr);
    const int64_t n = p->value.size();
    float* value = p->value.data();
    float* grad = p->grad.data();
    float* m = p->adam_m.data();
    float* v = p->adam_v.data();
    grad_sq += util::parallel::Reduce(n, [&](int64_t lo, int64_t hi) {
      double sq = 0.0;
      for (int64_t i = lo; i < hi; ++i) {
        const double g = grad[i];
        sq += g * g;
      }
#pragma omp simd
      for (int64_t i = lo; i < hi; ++i) {
        const double g = grad[i];
        const double mi = b1 * m[i] + (1.0 - b1) * g;
        const double vi = b2 * v[i] + (1.0 - b2) * g * g;
        m[i] = static_cast<float>(mi);
        v[i] = static_cast<float>(vi);
        const double m_hat = mi / bias1;
        const double v_hat = vi / bias2;
        value[i] -= static_cast<float>(lr * m_hat / (std::sqrt(v_hat) + eps));
        grad[i] = 0.f;
      }
      return sq;
    });
  }
  if (obs::Enabled()) {
    OBS_GAUGE("adam.grad_norm", std::sqrt(grad_sq));
    OBS_GAUGE("adam.lr", lr);
    OBS_COUNT("adam.steps", 1);
  }
}

}  // namespace layergcn::train
