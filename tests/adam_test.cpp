#include "train/adam.h"

#include <cmath>

#include "gtest/gtest.h"
#include "test_util.h"
#include "train/parameter.h"
#include "util/rng.h"

namespace layergcn::train {
namespace {

TEST(AdamTest, SingleStepMatchesHandComputation) {
  AdamConfig cfg;
  cfg.learning_rate = 0.1;
  Adam adam(cfg);
  Parameter p("w", 1, 1);
  p.value(0, 0) = 1.f;
  p.grad(0, 0) = 0.5f;
  adam.Step({&p});
  // After one step: m = 0.1*0.5 = 0.05, v = 0.001*0.25, bias-corrected
  // m_hat = 0.5, v_hat = 0.25 => update = lr * 0.5 / (0.5 + eps) ≈ lr.
  EXPECT_NEAR(p.value(0, 0), 1.f - 0.1f, 1e-5f);
  EXPECT_EQ(p.grad(0, 0), 0.f);  // grads zeroed by Step
  EXPECT_EQ(adam.step_count(), 1);
}

// Step t of Adam as one loop over the elements that accumulates the
// squared gradient norm, updates and zeroes together: the reference for
// the split norm and update loops.
void ReferenceStep(const AdamConfig& cfg, int64_t t, Parameter* p) {
  const double b1 = cfg.beta1;
  const double b2 = cfg.beta2;
  const double bias1 = 1.0 - std::pow(b1, static_cast<double>(t));
  const double bias2 = 1.0 - std::pow(b2, static_cast<double>(t));
  double sq = 0.0;
  for (int64_t i = 0; i < p->value.size(); ++i) {
    const double g = p->grad.data()[i];
    sq += g * g;
    const double mi = b1 * p->adam_m.data()[i] + (1.0 - b1) * g;
    const double vi = b2 * p->adam_v.data()[i] + (1.0 - b2) * g * g;
    p->adam_m.data()[i] = static_cast<float>(mi);
    p->adam_v.data()[i] = static_cast<float>(vi);
    p->value.data()[i] -= static_cast<float>(
        cfg.learning_rate * (mi / bias1) /
        (std::sqrt(vi / bias2) + cfg.epsilon));
    p->grad.data()[i] = 0.f;
  }
  EXPECT_GT(sq, 0.0);
}

TEST(AdamTest, SplitUpdateMatchesSingleLoopBitForBit) {
  // 37 x 1000 spans three Reduce blocks, the last one short.
  const AdamConfig cfg{.learning_rate = 0.01};
  Adam adam(cfg);
  util::Rng rng(11);
  Parameter p("w", 37, 1000);
  p.InitXavier(&rng);
  Parameter ref = p;
  for (int64_t step = 1; step <= 5; ++step) {
    p.grad = layergcn::testing::RandomMatrix(37, 1000, &rng, -2.f, 2.f);
    p.grad(0, step) = 0.f;
    ref.grad = p.grad;
    adam.Step({&p});
    ReferenceStep(cfg, step, &ref);
    EXPECT_TRUE(layergcn::testing::SameBits(p.value, ref.value)) << step;
    EXPECT_TRUE(layergcn::testing::SameBits(p.adam_m, ref.adam_m)) << step;
    EXPECT_TRUE(layergcn::testing::SameBits(p.adam_v, ref.adam_v)) << step;
    EXPECT_TRUE(layergcn::testing::SameBits(p.grad, ref.grad)) << step;
  }
}

TEST(AdamTest, FirstStepMagnitudeIsLrRegardlessOfGradScale) {
  // Adam's bias correction makes the first update ≈ lr * sign(grad).
  for (float g : {0.01f, 1.f, 100.f}) {
    Adam adam(AdamConfig{.learning_rate = 0.05});
    Parameter p("w", 1, 1);
    p.value(0, 0) = 0.f;
    p.grad(0, 0) = g;
    adam.Step({&p});
    EXPECT_NEAR(p.value(0, 0), -0.05f, 1e-4f);
  }
}

TEST(AdamTest, ConvergesOnQuadratic) {
  // minimize f(w) = (w - 3)^2.
  Adam adam(AdamConfig{.learning_rate = 0.1});
  Parameter p("w", 1, 1);
  p.value(0, 0) = -5.f;
  for (int step = 0; step < 500; ++step) {
    p.grad(0, 0) = 2.f * (p.value(0, 0) - 3.f);
    adam.Step({&p});
  }
  EXPECT_NEAR(p.value(0, 0), 3.f, 0.05f);
}

TEST(AdamTest, ConvergesOnMultiParameterLeastSquares) {
  // minimize ||A w - b||^2 for a 3x2 system.
  util::Rng rng(5);
  const float a_data[3][2] = {{1, 2}, {3, 1}, {0, 1}};
  const float b_data[3] = {5, 5, 1};  // solution approx w = [1, 2]... solve
  Adam adam(AdamConfig{.learning_rate = 0.05});
  Parameter w("w", 2, 1);
  w.InitGaussian(&rng, 0.5f);
  for (int step = 0; step < 2000; ++step) {
    float r[3];
    for (int i = 0; i < 3; ++i) {
      r[i] = a_data[i][0] * w.value(0, 0) + a_data[i][1] * w.value(1, 0) -
             b_data[i];
    }
    w.grad.Zero();
    for (int i = 0; i < 3; ++i) {
      w.grad(0, 0) += 2.f * r[i] * a_data[i][0];
      w.grad(1, 0) += 2.f * r[i] * a_data[i][1];
    }
    adam.Step({&w});
  }
  // Residual should be (near) the least-squares optimum: check gradient
  // norm is tiny.
  float r[3];
  double grad0 = 0, grad1 = 0;
  for (int i = 0; i < 3; ++i) {
    r[i] = a_data[i][0] * w.value(0, 0) + a_data[i][1] * w.value(1, 0) -
           b_data[i];
    grad0 += 2.0 * r[i] * a_data[i][0];
    grad1 += 2.0 * r[i] * a_data[i][1];
  }
  EXPECT_NEAR(grad0, 0.0, 0.05);
  EXPECT_NEAR(grad1, 0.0, 0.05);
}

TEST(AdamTest, ResetRestartsBiasCorrection) {
  Adam adam(AdamConfig{.learning_rate = 0.1});
  Parameter p("w", 1, 1);
  p.grad(0, 0) = 1.f;
  adam.Step({&p});
  EXPECT_EQ(adam.step_count(), 1);
  adam.Reset();
  EXPECT_EQ(adam.step_count(), 0);
}

TEST(AdamTest, ZeroGradLeavesValueAlmostUnchanged) {
  Adam adam;
  Parameter p("w", 2, 2);
  p.value.Fill(1.f);
  adam.Step({&p});  // grad is zero
  EXPECT_TRUE(p.value.AllClose(tensor::Matrix(2, 2, 1.f), 1e-6f));
}

TEST(ParameterTest, InitsResetState) {
  util::Rng rng(1);
  Parameter p("w", 2, 2);
  p.grad.Fill(5.f);
  p.adam_m.Fill(5.f);
  p.InitXavier(&rng);
  EXPECT_EQ(p.grad(0, 0), 0.f);
  EXPECT_EQ(p.adam_m(1, 1), 0.f);
  p.grad.Fill(2.f);
  p.ZeroGrad();
  EXPECT_EQ(p.grad(0, 1), 0.f);
}

}  // namespace
}  // namespace layergcn::train
