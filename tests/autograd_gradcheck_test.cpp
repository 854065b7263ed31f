// Central-difference gradient checks for every autograd op and for the
// composite losses used by the models (BPR and its fused op, LayerGCN
// refinement chain and its fused op, VAE-style pipeline). These tests are
// the ground truth that training gradients are correct.

#include <cmath>

#include "autograd/ops.h"
#include "core/refined_propagation.h"
#include "gtest/gtest.h"
#include "models/bpr_loss.h"
#include "sparse/csr_matrix.h"
#include "tensor/ops.h"
#include "test_util.h"
#include "util/rng.h"

namespace layergcn::ag {
namespace {

using layergcn::testing::ExpectGradientsMatch;
using layergcn::testing::LossBuilder;
using layergcn::testing::RandomMatrix;

// Each case perturbs two 4x3 inputs a, b through one op and reduces with a
// weighted sum (Hadamard with fixed weights, then Sum) so every output
// entry gets a distinct gradient.
struct OpCase {
  const char* name;
  std::function<Var(Tape*, Var, Var)> apply;
};

class UnaryBinaryGradTest : public ::testing::TestWithParam<OpCase> {};

TEST_P(UnaryBinaryGradTest, MatchesNumericalGradient) {
  util::Rng rng(1234);
  tensor::Matrix a = RandomMatrix(4, 3, &rng, 0.2f, 1.5f);  // positive: Log
  tensor::Matrix b = RandomMatrix(4, 3, &rng, 0.2f, 1.5f);
  tensor::Matrix weights = RandomMatrix(4, 3, &rng, -1.f, 1.f);
  const auto& apply = GetParam().apply;
  LossBuilder build = [&](Tape* tape, const std::vector<Var>& leaves) {
    Var out = apply(tape, leaves[0], leaves[1]);
    Var w = tape->Constant(
        tensor::SliceCols(weights, 0, tape->value(out).cols()));
    // For Nx1 outputs, reuse the first weight column.
    return Sum(Hadamard(out, w));
  };
  ExpectGradientsMatch(build, {&a, &b});
}

INSTANTIATE_TEST_SUITE_P(
    Ops, UnaryBinaryGradTest,
    ::testing::Values(
        OpCase{"Add", [](Tape*, Var a, Var b) { return Add(a, b); }},
        OpCase{"Sub", [](Tape*, Var a, Var b) { return Sub(a, b); }},
        OpCase{"Hadamard",
               [](Tape*, Var a, Var b) { return Hadamard(a, b); }},
        OpCase{"Scale", [](Tape*, Var a, Var) { return Scale(a, -1.7f); }},
        OpCase{"AddScalar",
               [](Tape*, Var a, Var) { return AddScalar(a, 0.3f); }},
        OpCase{"Negate", [](Tape*, Var a, Var) { return Negate(a); }},
        OpCase{"Sigmoid", [](Tape*, Var a, Var) { return Sigmoid(a); }},
        OpCase{"Tanh", [](Tape*, Var a, Var) { return Tanh(a); }},
        OpCase{"Softplus", [](Tape*, Var a, Var) { return Softplus(a); }},
        OpCase{"Exp", [](Tape*, Var a, Var) { return Exp(a); }},
        OpCase{"Log", [](Tape*, Var a, Var) { return Log(a); }},
        OpCase{"Square", [](Tape*, Var a, Var) { return Square(a); }},
        OpCase{"LeakyRelu",
               [](Tape*, Var a, Var) { return LeakyRelu(a, 0.2f); }},
        OpCase{"Relu", [](Tape*, Var a, Var) { return Relu(a); }},
        OpCase{"RowDots",
               [](Tape*, Var a, Var b) { return RowDots(a, b); }},
        OpCase{"RowwiseCosine",
               [](Tape*, Var a, Var b) {
                 return RowwiseCosine(a, b, 1e-8f);
               }},
        OpCase{"SoftmaxRows",
               [](Tape*, Var a, Var) { return SoftmaxRows(a); }},
        OpCase{"LogSoftmaxRows",
               [](Tape*, Var a, Var) { return LogSoftmaxRows(a); }},
        OpCase{"Transpose",
               [](Tape*, Var a, Var) { return Transpose(Transpose(a)); }},
        OpCase{"AddN", [](Tape*, Var a, Var b) { return AddN({a, b, a}); }},
        OpCase{"ConcatSelf",
               [](Tape*, Var a, Var b) {
                 // concat then fold back to 3 cols via matmul with a fixed
                 // 6x3 projection so the weighted-sum reducer fits.
                 Var cat = ConcatCols({a, b});
                 tensor::Matrix proj(6, 3);
                 util::Rng r(7);
                 proj.UniformInit(&r, -1.f, 1.f);
                 return MatMul(cat, cat.tape->Constant(proj));
               }}),
    [](const ::testing::TestParamInfo<OpCase>& info) {
      return info.param.name;
    });

TEST(GradCheckTest, MatMulAllTransposeLayouts) {
  util::Rng rng(77);
  for (const auto& [ta, tb] : std::vector<std::pair<bool, bool>>{
           {false, false}, {false, true}, {true, false}, {true, true}}) {
    tensor::Matrix a = ta ? RandomMatrix(4, 3, &rng) : RandomMatrix(3, 4, &rng);
    tensor::Matrix b = tb ? RandomMatrix(5, 4, &rng) : RandomMatrix(4, 5, &rng);
    tensor::Matrix w = RandomMatrix(3, 5, &rng);
    const bool tra = ta, trb = tb;
    LossBuilder build = [&, tra, trb](Tape* tape,
                                      const std::vector<Var>& leaves) {
      Var out = MatMul(leaves[0], leaves[1], tra, trb);
      return Sum(Hadamard(out, tape->Constant(w)));
    };
    ExpectGradientsMatch(build, {&a, &b});
  }
}

TEST(GradCheckTest, GatherRowsWithDuplicates) {
  util::Rng rng(88);
  tensor::Matrix x = RandomMatrix(5, 3, &rng);
  tensor::Matrix w = RandomMatrix(4, 3, &rng);
  LossBuilder build = [&](Tape* tape, const std::vector<Var>& leaves) {
    Var g = GatherRows(leaves[0], {0, 2, 2, 4});
    return Sum(Hadamard(g, tape->Constant(w)));
  };
  ExpectGradientsMatch(build, {&x});
}

TEST(GradCheckTest, ScaleRows) {
  util::Rng rng(89);
  tensor::Matrix x = RandomMatrix(4, 3, &rng);
  tensor::Matrix s = RandomMatrix(4, 1, &rng);
  tensor::Matrix w = RandomMatrix(4, 3, &rng);
  LossBuilder build = [&](Tape* tape, const std::vector<Var>& leaves) {
    return Sum(Hadamard(ScaleRows(leaves[0], leaves[1]),
                        tape->Constant(w)));
  };
  ExpectGradientsMatch(build, {&x, &s});
}

TEST(GradCheckTest, SpMMGeneralAndSymmetric) {
  util::Rng rng(90);
  // Non-symmetric rectangular operand with explicit transpose.
  sparse::CooMatrix coo;
  coo.rows = 5;
  coo.cols = 4;
  for (int k = 0; k < 9; ++k) {
    coo.entries.push_back({rng.NextInt(0, 5), rng.NextInt(0, 4),
                           static_cast<float>(rng.NextGaussian())});
  }
  sparse::CsrMatrix m = sparse::CsrMatrix::FromCoo(coo);
  sparse::CsrMatrix mt = m.Transpose();
  tensor::Matrix x = RandomMatrix(4, 3, &rng);
  tensor::Matrix w = RandomMatrix(5, 3, &rng);
  LossBuilder build = [&](Tape* tape, const std::vector<Var>& leaves) {
    return Sum(Hadamard(SpMM(&m, &mt, leaves[0]), tape->Constant(w)));
  };
  ExpectGradientsMatch(build, {&x});

  // Symmetric operand via SpMMSymmetric.
  sparse::CooMatrix sym;
  sym.rows = 4;
  sym.cols = 4;
  for (int k = 0; k < 5; ++k) {
    const int32_t i = rng.NextInt(0, 4), j = rng.NextInt(0, 4);
    const float v = static_cast<float>(rng.NextGaussian());
    sym.entries.push_back({i, j, v});
    if (i != j) sym.entries.push_back({j, i, v});
  }
  sparse::CsrMatrix ms = sparse::CsrMatrix::FromCoo(sym);
  tensor::Matrix x2 = RandomMatrix(4, 3, &rng);
  tensor::Matrix w2 = RandomMatrix(4, 3, &rng);
  LossBuilder build2 = [&](Tape* tape, const std::vector<Var>& leaves) {
    return Sum(Hadamard(SpMMSymmetric(&ms, leaves[0]), tape->Constant(w2)));
  };
  ExpectGradientsMatch(build2, {&x2});
}

TEST(GradCheckTest, LinCombGradientsForLayersAndWeights) {
  util::Rng rng(91);
  tensor::Matrix a = RandomMatrix(3, 2, &rng);
  tensor::Matrix b = RandomMatrix(3, 2, &rng);
  tensor::Matrix w = RandomMatrix(2, 1, &rng);
  tensor::Matrix red = RandomMatrix(3, 2, &rng);
  LossBuilder build = [&](Tape* tape, const std::vector<Var>& leaves) {
    return Sum(Hadamard(LinComb({leaves[0], leaves[1]}, leaves[2]),
                        tape->Constant(red)));
  };
  ExpectGradientsMatch(build, {&a, &b, &w});
}

TEST(GradCheckTest, NormalizeRows) {
  util::Rng rng(915);
  tensor::Matrix x = RandomMatrix(4, 3, &rng, 0.3f, 1.5f);
  tensor::Matrix w = RandomMatrix(4, 3, &rng);
  LossBuilder build = [&](Tape* tape, const std::vector<Var>& leaves) {
    return Sum(Hadamard(NormalizeRows(leaves[0]), tape->Constant(w)));
  };
  ExpectGradientsMatch(build, {&x});
}

TEST(GradCheckTest, InfoNceStyleContrastiveLoss) {
  // normalize → BxB similarity → temperature scale → logsoftmax → -diag
  // mean: the SSL objective of core::LayerGcnSsl.
  util::Rng rng(916);
  tensor::Matrix z1 = RandomMatrix(4, 3, &rng, -1.f, 1.f);
  tensor::Matrix z2 = RandomMatrix(4, 3, &rng, -1.f, 1.f);
  tensor::Matrix eye(4, 4);
  for (int i = 0; i < 4; ++i) eye(i, i) = 1.f;
  LossBuilder build = [&](Tape* tape, const std::vector<Var>& leaves) {
    Var a = NormalizeRows(leaves[0]);
    Var b = NormalizeRows(leaves[1]);
    Var sim = Scale(MatMul(a, b, false, true), 1.f / 0.2f);
    Var log_probs = LogSoftmaxRows(sim);
    return Scale(Sum(Hadamard(log_probs, tape->Constant(eye))), -0.25f);
  };
  ExpectGradientsMatch(build, {&z1, &z2});
}

TEST(GradCheckTest, AddRowVectorBias) {
  util::Rng rng(92);
  tensor::Matrix x = RandomMatrix(4, 3, &rng);
  tensor::Matrix bias = RandomMatrix(1, 3, &rng);
  tensor::Matrix w = RandomMatrix(4, 3, &rng);
  LossBuilder build = [&](Tape* tape, const std::vector<Var>& leaves) {
    return Sum(Hadamard(AddRowVector(leaves[0], leaves[1]),
                        tape->Constant(w)));
  };
  ExpectGradientsMatch(build, {&x, &bias});
}

TEST(GradCheckTest, ReductionsMeanAndSumSquares) {
  util::Rng rng(93);
  tensor::Matrix x = RandomMatrix(4, 3, &rng);
  LossBuilder mean_build = [](Tape*, const std::vector<Var>& leaves) {
    return Mean(leaves[0]);
  };
  ExpectGradientsMatch(mean_build, {&x});
  LossBuilder sq_build = [](Tape*, const std::vector<Var>& leaves) {
    return SumSquares(leaves[0]);
  };
  ExpectGradientsMatch(sq_build, {&x});
}

TEST(GradCheckTest, RowwiseCosineEpsBranch) {
  // Tiny norms so |a||b| < eps exercises the constant-denominator branch.
  util::Rng rng(94);
  tensor::Matrix a = RandomMatrix(3, 2, &rng, -1e-4f, 1e-4f);
  tensor::Matrix b = RandomMatrix(3, 2, &rng, -1e-4f, 1e-4f);
  LossBuilder build = [](Tape*, const std::vector<Var>& leaves) {
    return Sum(RowwiseCosine(leaves[0], leaves[1], 1.f));
  };
  // Larger eps-perturbation tolerance: values are tiny.
  ExpectGradientsMatch(build, {&a, &b}, /*eps=*/1e-5f, /*rel_tol=*/5e-2f,
                       /*abs_tol=*/5e-3f);
}

TEST(GradCheckTest, BprLossPipeline) {
  // The exact loss used by EmbeddingRecommender: gather + rowdots +
  // softplus + mean + L2 reg.
  util::Rng rng(95);
  tensor::Matrix emb = RandomMatrix(8, 4, &rng, -0.5f, 0.5f);
  const std::vector<int32_t> users{0, 1, 2};
  const std::vector<int32_t> pos{4, 5, 6};
  const std::vector<int32_t> neg{5, 6, 7};
  LossBuilder build = [&](Tape*, const std::vector<Var>& leaves) {
    Var x0 = leaves[0];
    Var eu = GatherRows(x0, users);
    Var ei = GatherRows(x0, pos);
    Var ej = GatherRows(x0, neg);
    Var bpr = Mean(Softplus(Sub(RowDots(eu, ej), RowDots(eu, ei))));
    return Add(bpr, Scale(SumSquares(eu), 1e-3f));
  };
  ExpectGradientsMatch(build, {&emb});
}

TEST(GradCheckTest, FusedBprLoss) {
  // models::BprLoss over a readout and an ego table of another width, with
  // users and items repeated in the batch, and with the readout being the
  // ego table itself (BPR-MF).
  util::Rng rng(98);
  tensor::Matrix e = RandomMatrix(8, 5, &rng, -0.5f, 0.5f);
  tensor::Matrix x = RandomMatrix(8, 4, &rng, -0.5f, 0.5f);
  tensor::Matrix xe = RandomMatrix(8, 4, &rng, -0.5f, 0.5f);
  const std::vector<int32_t> users{0, 1, 1, 2, 0};
  const std::vector<int32_t> pos{4, 5, 4, 6, 7};
  const std::vector<int32_t> neg{5, 7, 6, 7, 4};
  for (double l2 : {0.0, 0.05}) {
    SCOPED_TRACE(::testing::Message() << "l2=" << l2);
    ExpectGradientsMatch(
        [&](Tape*, const std::vector<Var>& leaves) {
          return models::BprLoss(leaves[0], leaves[1], users, pos, neg, l2);
        },
        {&e, &x});
    ExpectGradientsMatch(
        [&](Tape*, const std::vector<Var>& leaves) {
          return models::BprLoss(leaves[0], leaves[0], users, pos, neg, l2);
        },
        {&xe});
  }
}

// A small weighted bipartite-style graph on nodes 0..5; nodes 6.. of
// `nodes` get no edges.
sparse::CsrMatrix RefinementTestGraph(int64_t nodes) {
  sparse::CooMatrix coo;
  coo.rows = nodes;
  coo.cols = nodes;
  auto sym = [&](int32_t a, int32_t b, float v) {
    coo.entries.push_back({a, b, v});
    coo.entries.push_back({b, a, v});
  };
  sym(0, 3, 0.5f);
  sym(0, 4, 0.4f);
  sym(1, 4, 0.7f);
  sym(2, 5, 0.6f);
  sym(1, 5, 0.3f);
  return sparse::CsrMatrix::FromCoo(coo);
}

TEST(GradCheckTest, LayerGcnRefinementChain) {
  // Full Eq. 6-9 pipeline: SpMM → cosine with ego → (a + eps) row scaling,
  // two layers, sum readout, BPR-ish reduction.
  util::Rng rng(96);
  sparse::CsrMatrix adj = RefinementTestGraph(6);
  tensor::Matrix emb = RandomMatrix(6, 4, &rng, -0.8f, 0.8f);
  tensor::Matrix w = RandomMatrix(6, 4, &rng);
  LossBuilder build = [&](Tape* tape, const std::vector<Var>& leaves) {
    Var x0 = leaves[0];
    Var x = x0;
    std::vector<Var> layers;
    for (int l = 0; l < 2; ++l) {
      Var h = SpMMSymmetric(&adj, x);
      Var a = RowwiseCosine(h, x0, 1e-8f);
      x = ScaleRows(h, AddScalar(a, 1e-8f));
      layers.push_back(x);
    }
    return Sum(Hadamard(AddN(layers), tape->Constant(w)));
  };
  ExpectGradientsMatch(build, {&emb});
}

TEST(GradCheckTest, FusedRefinedPropagation) {
  // core::RefinedPropagation, the chain above as one op, on the same graph
  // plus an isolated node 6, with and without the ego readout. With ε = 1
  // and small embeddings every |h||x0| stays below ε, so each cosine takes
  // the branch whose denominator is the constant ε.
  util::Rng rng(99);
  sparse::CsrMatrix adj = RefinementTestGraph(7);
  const tensor::Matrix w = RandomMatrix(7, 4, &rng);
  for (bool ego : {false, true}) {
    for (float eps : {1e-8f, 1.f}) {
      const float range = eps < 1.f ? 0.8f : 0.3f;
      tensor::Matrix emb = RandomMatrix(7, 4, &rng, -range, range);
      LossBuilder build = [&](Tape* tape, const std::vector<Var>& leaves) {
        return Sum(Hadamard(
            core::RefinedPropagation(&adj, leaves[0], 2, eps, ego),
            tape->Constant(w)));
      };
      SCOPED_TRACE(::testing::Message() << "ego=" << ego << " eps=" << eps);
      ExpectGradientsMatch(build, {&emb});
    }
  }
}

TEST(GradCheckTest, VaeStylePipeline) {
  // Linear → tanh → linear → logsoftmax multinomial + KL-ish quadratic.
  util::Rng rng(97);
  tensor::Matrix x_in = RandomMatrix(3, 5, &rng, 0.f, 1.f);
  tensor::Matrix w1 = RandomMatrix(5, 4, &rng, -0.5f, 0.5f);
  tensor::Matrix b1 = RandomMatrix(1, 4, &rng, -0.1f, 0.1f);
  tensor::Matrix w2 = RandomMatrix(4, 5, &rng, -0.5f, 0.5f);
  LossBuilder build = [&](Tape* tape, const std::vector<Var>& leaves) {
    Var x = tape->Constant(x_in);
    Var h = Tanh(AddRowVector(MatMul(x, leaves[0]), leaves[1]));
    Var logits = MatMul(h, leaves[2]);
    Var nll = Scale(Sum(Hadamard(LogSoftmaxRows(logits), x)), -1.f / 3.f);
    Var kl = Scale(SumSquares(h), 0.05f);
    return Add(nll, kl);
  };
  ExpectGradientsMatch(build, {&w1, &b1, &w2});
}

TEST(GradCheckTest, EhcfEfficientLoss) {
  util::Rng rng(98);
  tensor::Matrix u = RandomMatrix(4, 3, &rng, -0.5f, 0.5f);
  tensor::Matrix v = RandomMatrix(5, 3, &rng, -0.5f, 0.5f);
  const std::vector<int32_t> eu{0, 1, 2, 3};
  const std::vector<int32_t> ei{0, 2, 4, 1};
  LossBuilder build = [&](Tape*, const std::vector<Var>& leaves) {
    Var users = leaves[0];
    Var items = leaves[1];
    Var pu = GatherRows(users, eu);
    Var pi = GatherRows(items, ei);
    Var pos = RowDots(pu, pi);
    Var pos_part = Add(Scale(Sum(Square(pos)), 0.95f),
                       Scale(Sum(pos), -2.f));
    Var gram = Hadamard(MatMul(users, users, true, false),
                        MatMul(items, items, true, false));
    return Add(pos_part, Scale(Sum(gram), 0.05f));
  };
  ExpectGradientsMatch(build, {&u, &v});
}

}  // namespace
}  // namespace layergcn::ag
