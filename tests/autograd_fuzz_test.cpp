// Randomized-composition fuzzing of the autograd engine: build random DAGs
// of differentiable ops over a pool of matrices and verify every gradient
// against central differences. This catches interaction bugs (gradient
// accumulation across shared subexpressions, shape plumbing) that
// single-op checks cannot.

#include <functional>
#include <vector>

#include "autograd/ops.h"
#include "core/refined_propagation.h"
#include "gtest/gtest.h"
#include "models/bpr_loss.h"
#include "tensor/ops.h"
#include "test_util.h"
#include "util/rng.h"

namespace layergcn::ag {
namespace {

using layergcn::testing::ExpectGradientsMatch;
using layergcn::testing::LossBuilder;

// Grows a random expression DAG: starts from the leaf Vars (all R x C) and
// repeatedly combines two random existing nodes (or transforms one) with a
// random smooth shape-preserving op; nodes are reused, so the backward pass
// must accumulate fan-out gradients correctly. One op kind is LayerGCN's
// fused refined propagation over `adj` (R x R), whose backward adds into
// its input's gradient buffer in place, often after other consumers of that
// input have populated it. Another is the fused BPR + L2 loss over two
// nodes with random, repeating rows; its scalar joins the final loss, and
// its backward, too, adds into gradient buffers other consumers fill.
// Ends with a smooth scalar reduction.
Var BuildRandomDag(Tape* /*tape*/, const std::vector<Var>& leaves,
                   const sparse::CsrMatrix* adj, uint64_t structure_seed,
                   int steps) {
  util::Rng rng(structure_seed);
  std::vector<Var> pool = leaves;
  std::vector<Var> losses;
  for (int s = 0; s < steps; ++s) {
    const Var a = pool[static_cast<size_t>(
        rng.NextBounded(pool.size()))];
    const Var b = pool[static_cast<size_t>(
        rng.NextBounded(pool.size()))];
    Var out;
    switch (rng.NextInt(0, 10)) {
      case 0:
        out = Add(a, b);
        break;
      case 1:
        out = Sub(a, b);
        break;
      case 2:
        out = Hadamard(a, Tanh(b));  // tanh keeps magnitudes bounded
        break;
      case 3:
        out = Scale(a, 0.5f);
        break;
      case 4:
        out = Sigmoid(a);
        break;
      case 5:
        out = Softplus(a);
        break;
      case 6:
        out = ScaleRows(a, RowwiseCosine(a, b, 1e-6f));
        break;
      case 7:
        out = core::RefinedPropagation(adj, a, 1 + (s % 2), 1e-6f,
                                       /*include_ego_layer=*/s % 3 == 0);
        break;
      case 8: {
        const int rows = static_cast<int>(a.tape->value(a).rows());
        std::vector<int32_t> users, pos, neg;
        for (int k = 0; k < 4; ++k) {
          users.push_back(rng.NextInt(0, rows));
          pos.push_back(rng.NextInt(0, rows));
          neg.push_back(rng.NextInt(0, rows));
        }
        losses.push_back(models::BprLoss(a, b, std::move(users),
                                         std::move(pos), std::move(neg),
                                         s % 2 == 0 ? 0.1 : 0.0));
        out = Scale(a, 0.5f);
        break;
      }
      default:
        out = AddN({a, b});
        break;
    }
    pool.push_back(out);
  }
  // Smooth scalar head mixing several pool nodes.
  Var head = pool.back();
  if (pool.size() >= 3) {
    head = Add(head, Hadamard(pool[pool.size() / 2], Tanh(pool[0])));
  }
  Var loss = Mean(Softplus(head));
  for (Var l : losses) loss = Add(loss, l);
  return loss;
}

class AutogradFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AutogradFuzzTest, RandomDagGradientsMatchNumerics) {
  const uint64_t seed = GetParam();
  util::Rng rng(seed);
  const int64_t rows = 3 + static_cast<int64_t>(rng.NextBounded(3));
  const int64_t cols = 2 + static_cast<int64_t>(rng.NextBounded(3));
  std::vector<tensor::Matrix> params;
  for (int p = 0; p < 3; ++p) {
    params.push_back(
        layergcn::testing::RandomMatrix(rows, cols, &rng, -0.8f, 0.8f));
  }
  const int steps = 4 + static_cast<int>(rng.NextBounded(5));
  const sparse::CsrMatrix adj =
      layergcn::testing::RandomSymmetricAdjacency(rows, &rng, 0.5);
  LossBuilder build = [&](Tape* tape, const std::vector<Var>& leaves) {
    return BuildRandomDag(tape, leaves, &adj, seed * 977 + 13, steps);
  };
  ExpectGradientsMatch(build, {&params[0], &params[1], &params[2]},
                       /*eps=*/1e-2f, /*rel_tol=*/3e-2f, /*abs_tol=*/3e-3f,
                       /*max_checks=*/24);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AutogradFuzzTest,
                         ::testing::Range<uint64_t>(1, 25));

// Deep chain stress: a 40-op sequential chain must stay numerically
// correct (tanh saturation keeps values in range).
TEST(AutogradFuzzTest, DeepChainGradients) {
  util::Rng rng(4242);
  tensor::Matrix x = layergcn::testing::RandomMatrix(4, 3, &rng, -0.5f, 0.5f);
  LossBuilder build = [](Tape*, const std::vector<Var>& leaves) {
    Var v = leaves[0];
    for (int i = 0; i < 40; ++i) {
      v = Tanh(Add(Scale(v, 0.9f), Hadamard(v, Sigmoid(v))));
    }
    return Mean(v);
  };
  ExpectGradientsMatch(build, {&x}, /*eps=*/1e-2f, /*rel_tol=*/3e-2f,
                       /*abs_tol=*/3e-3f);
}

// Wide fan-out stress: one leaf feeding 32 branches summed together; the
// gradient must equal 32x the single-branch gradient.
TEST(AutogradFuzzTest, FanOutAccumulation) {
  util::Rng rng(515);
  tensor::Matrix x = layergcn::testing::RandomMatrix(3, 3, &rng);
  tensor::Matrix g1(3, 3), g32(3, 3);
  {
    Tape tape;
    Var v = tape.Parameter(&x, &g1);
    tape.Backward(Sum(Scale(v, 2.f)));
  }
  {
    Tape tape;
    Var v = tape.Parameter(&x, &g32);
    std::vector<Var> branches(32, Scale(v, 2.f));
    // Distinct op nodes, all reading the same leaf.
    for (auto& b : branches) b = Scale(v, 2.f);
    tape.Backward(Sum(AddN(branches)));
  }
  EXPECT_TRUE(tensor::Scale(g1, 32.f).AllClose(g32, 1e-4f));
}

}  // namespace
}  // namespace layergcn::ag
