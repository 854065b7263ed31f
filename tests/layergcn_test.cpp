// Behavioral tests of the paper's model itself: the propagation math of
// Eqs. 6-9 against hand computation, the ego-layer dropping, the
// train-vs-inference adjacency switch, the ablation flags, the Fig. 5
// introspection, and the fused refined-layer op against the four-op chain.

#include "core/layergcn.h"

#include <cmath>
#include <string>
#include <vector>

#include "core/refined_propagation.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "tensor/ops.h"
#include "test_util.h"
#include "train/trainer.h"
#include "util/parallel.h"
#include "util/thread_pool.h"

namespace layergcn::core {
namespace {

using layergcn::testing::TinyDataset;

train::TrainConfig BaseConfig() {
  train::TrainConfig cfg;
  cfg.embedding_dim = 8;
  cfg.num_layers = 2;
  cfg.batch_size = 4;
  cfg.max_epochs = 5;
  cfg.seed = 11;
  cfg.edge_drop_ratio = 0.0;
  cfg.edge_drop_kind = graph::EdgeDropKind::kNone;
  return cfg;
}

// Reference implementation of Eqs. 6-9 with plain tensor ops.
tensor::Matrix ReferencePropagate(const sparse::CsrMatrix& adj,
                                  const tensor::Matrix& x0, int layers,
                                  float eps) {
  tensor::Matrix x = x0;
  tensor::Matrix acc(x0.rows(), x0.cols());
  for (int l = 0; l < layers; ++l) {
    tensor::Matrix h = adj.Multiply(x);
    tensor::Matrix a = tensor::RowwiseCosine(h, x0, eps);
    x = tensor::ScaleRows(h, tensor::AddScalar(a, eps));
    tensor::AddInPlace(&acc, x);
  }
  return acc;  // sum readout, ego layer dropped
}

TEST(LayerGcnTest, PropagationMatchesReferenceImplementation) {
  const data::Dataset ds = TinyDataset();
  LayerGcnOptions opts;
  LayerGcn model(opts);
  train::TrainConfig cfg = BaseConfig();
  util::Rng rng(cfg.seed);
  model.Init(ds, cfg, &rng);
  model.BeginEpoch(1, &rng);
  model.PrepareEval();

  // Rebuild the expected result from the same initial embeddings. The model
  // was just initialized and never trained, so Params()[0] still holds X⁰.
  const tensor::Matrix& x0 = model.Params()[0]->value;
  const sparse::CsrMatrix adj = ds.train_graph.NormalizedAdjacency();
  const tensor::Matrix want =
      ReferencePropagate(adj, x0, cfg.num_layers, opts.epsilon);
  EXPECT_TRUE(model.final_embeddings().AllClose(want, 1e-5f));
}

TEST(LayerGcnTest, EgoLayerDroppedFromReadout) {
  // With zero layers of actual graph signal the distinction is invisible,
  // so compare include_ego_layer on/off: they must differ by exactly X⁰.
  const data::Dataset ds = TinyDataset();
  train::TrainConfig cfg = BaseConfig();

  LayerGcnOptions without;
  LayerGcn m1(without);
  util::Rng rng1(cfg.seed);
  m1.Init(ds, cfg, &rng1);
  m1.BeginEpoch(1, &rng1);
  m1.PrepareEval();

  LayerGcnOptions with;
  with.include_ego_layer = true;
  LayerGcn m2(with);
  util::Rng rng2(cfg.seed);  // same seed => same X⁰
  m2.Init(ds, cfg, &rng2);
  m2.BeginEpoch(1, &rng2);
  m2.PrepareEval();

  const tensor::Matrix diff =
      tensor::Sub(m2.final_embeddings(), m1.final_embeddings());
  EXPECT_TRUE(diff.AllClose(m1.Params()[0]->value, 1e-5f));
}

TEST(LayerGcnTest, MeanReadoutHalvesTwoLayerSum) {
  const data::Dataset ds = TinyDataset();
  train::TrainConfig cfg = BaseConfig();

  LayerGcn sum_model({.readout = Readout::kSum});
  util::Rng r1(cfg.seed);
  sum_model.Init(ds, cfg, &r1);
  sum_model.BeginEpoch(1, &r1);
  sum_model.PrepareEval();

  LayerGcn mean_model({.readout = Readout::kMean});
  util::Rng r2(cfg.seed);
  mean_model.Init(ds, cfg, &r2);
  mean_model.BeginEpoch(1, &r2);
  mean_model.PrepareEval();

  EXPECT_TRUE(tensor::Scale(sum_model.final_embeddings(), 0.5f)
                  .AllClose(mean_model.final_embeddings(), 1e-5f));
}

TEST(LayerGcnTest, RefinementNoneReducesToLightGcnPropagation) {
  const data::Dataset ds = TinyDataset();
  train::TrainConfig cfg = BaseConfig();
  LayerGcn model({.refinement = Refinement::kNone});
  util::Rng rng(cfg.seed);
  model.Init(ds, cfg, &rng);
  model.BeginEpoch(1, &rng);
  model.PrepareEval();

  const tensor::Matrix& x0 = model.Params()[0]->value;
  const sparse::CsrMatrix adj = ds.train_graph.NormalizedAdjacency();
  tensor::Matrix x1 = adj.Multiply(x0);
  tensor::Matrix x2 = adj.Multiply(x1);
  tensor::Matrix want = tensor::Add(x1, x2);
  EXPECT_TRUE(model.final_embeddings().AllClose(want, 1e-5f));
}

TEST(LayerGcnTest, FixedAlphaRefinementMatchesGcnii) {
  const data::Dataset ds = TinyDataset();
  train::TrainConfig cfg = BaseConfig();
  cfg.num_layers = 1;
  LayerGcn model({.refinement = Refinement::kFixedAlpha, .fixed_alpha = 0.3f});
  util::Rng rng(cfg.seed);
  model.Init(ds, cfg, &rng);
  model.BeginEpoch(1, &rng);
  model.PrepareEval();

  const tensor::Matrix& x0 = model.Params()[0]->value;
  const sparse::CsrMatrix adj = ds.train_graph.NormalizedAdjacency();
  tensor::Matrix want = tensor::Add(tensor::Scale(adj.Multiply(x0), 0.7f),
                                    tensor::Scale(x0, 0.3f));
  EXPECT_TRUE(model.final_embeddings().AllClose(want, 1e-5f));
}

TEST(LayerGcnTest, TrainingUsesPrunedGraphInferenceUsesFull) {
  const data::Dataset ds = TinyDataset();
  train::TrainConfig cfg = BaseConfig();
  cfg.edge_drop_ratio = 0.3;
  cfg.edge_drop_kind = graph::EdgeDropKind::kDegreeDrop;

  // Inference on the full graph (paper behavior).
  LayerGcn full_model({.inference_on_full_graph = true});
  util::Rng r1(cfg.seed);
  full_model.Init(ds, cfg, &r1);
  full_model.BeginEpoch(1, &r1);
  full_model.PrepareEval();

  // Ablation: inference on the pruned graph differs.
  LayerGcn pruned_model({.inference_on_full_graph = false});
  util::Rng r2(cfg.seed);
  pruned_model.Init(ds, cfg, &r2);
  pruned_model.BeginEpoch(1, &r2);
  pruned_model.PrepareEval();

  EXPECT_FALSE(full_model.final_embeddings().AllClose(
      pruned_model.final_embeddings(), 1e-6f));

  // And the full-graph inference must equal the no-dropout propagation of
  // the same embeddings.
  const tensor::Matrix& x0 = full_model.Params()[0]->value;
  const sparse::CsrMatrix adj = ds.train_graph.NormalizedAdjacency();
  const tensor::Matrix want = ReferencePropagate(adj, x0, cfg.num_layers,
                                                 full_model.options().epsilon);
  EXPECT_TRUE(full_model.final_embeddings().AllClose(want, 1e-5f));
}

TEST(LayerGcnTest, SimilarityHistoryRecordedPerLayer) {
  const data::Dataset ds = TinyDataset();
  train::TrainConfig cfg = BaseConfig();
  cfg.num_layers = 3;
  LayerGcn model({.record_layer_similarities = true});
  util::Rng rng(cfg.seed);
  model.Init(ds, cfg, &rng);
  model.BeginEpoch(1, &rng);
  model.PrepareEval();
  model.PrepareEval();
  const auto& hist = model.layer_similarity_history();
  ASSERT_EQ(hist.size(), 2u);
  ASSERT_EQ(hist[0].size(), 3u);
  for (double a : hist[0]) {
    EXPECT_GE(a, -1.0 - 1e-6);
    EXPECT_LE(a, 1.0 + 1e-6);
  }
}

TEST(LayerGcnTest, TrainsEndToEndWithDegreeDrop) {
  const data::Dataset ds = TinyDataset();
  train::TrainConfig cfg = BaseConfig();
  cfg.edge_drop_ratio = 0.2;
  cfg.edge_drop_kind = graph::EdgeDropKind::kDegreeDrop;
  cfg.max_epochs = 25;
  LayerGcn model;
  const train::TrainResult r = train::FitRecommender(&model, ds, cfg);
  EXPECT_TRUE(std::isfinite(r.epoch_losses.back()));
  EXPECT_LT(r.epoch_losses.back(), r.epoch_losses.front());
  EXPECT_GT(r.test_metrics.recall.at(20), 0.0);
}

TEST(LayerGcnTest, EpsilonKeepsOrthogonalLayersAlive) {
  // If a hidden layer is orthogonal to the ego layer, the refinement
  // multiplies it by (0 + eps): the layer shrinks but must not become
  // exactly zero (the paper's motivation for ε in Eq. 6).
  tensor::Matrix h = tensor::Matrix::FromRows({{1, 0}});
  tensor::Matrix x0 = tensor::Matrix::FromRows({{0, 1}});
  const float eps = 1e-4f;
  tensor::Matrix a = tensor::RowwiseCosine(h, x0, eps);
  tensor::Matrix refined = tensor::ScaleRows(h, tensor::AddScalar(a, eps));
  EXPECT_NE(refined(0, 0), 0.f);
  EXPECT_NEAR(refined(0, 0), eps, 1e-6f);
}

#if LAYERGCN_OBS_ENABLED
TEST(LayerGcnTest, TracedBatchRecordsPerfbenchSpans) {
  // perfbench attributes sparse.spmm_ms to fw.spmm/bw.spmm and
  // core.refine_ms to fw.rowwise_cosine/bw.rowwise_cosine, so the fused
  // op's SpMMs and row passes must keep recording under those names.
  const data::Dataset ds = TinyDataset();
  train::TrainConfig cfg = BaseConfig();
  cfg.batch_size = 1 << 20;  // the whole epoch is one batch
  LayerGcn model;
  util::Rng rng(cfg.seed);
  model.Init(ds, cfg, &rng);
  model.BeginEpoch(1, &rng);
  const std::vector<std::string> spans{"fw.spmm", "bw.spmm",
                                       "fw.rowwise_cosine",
                                       "bw.rowwise_cosine"};
  const auto count = [](const std::string& span) {
    return obs::MetricsRegistry::Global()
        .GetCounter("span." + span + ".count")
        ->Total();
  };
  std::vector<uint64_t> before;
  for (const std::string& span : spans) before.push_back(count(span));
  obs::SetEnabled(true);
  model.TrainEpoch(&rng, nullptr);
  obs::SetEnabled(false);
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_GT(count(spans[i]), before[i]) << spans[i];
  }
}
#endif

// What X⁰'s gradient holds when the op's backward starts.
enum class PriorGrad {
  kNone,
  kL2,           // BatchLoss's L2 term, recorded after propagation
  kSignedZeros,  // entries of -0, which the chain's zero-filled adds erase
};

struct OracleCase {
  bool include_ego_layer;
  PriorGrad prior;
  float epsilon;
  int layers;
  // 37 rows leave the row groups part-filled. 3000 rows of width 9 span
  // two parallel blocks, which a pool of 4 runs concurrently.
  int64_t rows = 37;
  int threads = 1;
};

// The fused refined-layer op against the four-op chain it replaced: the
// same value and the same gradient for X⁰, bit for bit.
class RefinedPropagationOracleTest
    : public ::testing::TestWithParam<OracleCase> {};

TEST_P(RefinedPropagationOracleTest, MatchesFourOpChainBitForBit) {
  const OracleCase p = GetParam();
  util::ThreadPool pool(p.threads);
  util::parallel::ScopedComputePool scope(&pool);
  util::Rng rng(7);
  const int64_t n = p.rows;
  const int64_t t = 9;
  const sparse::CsrMatrix adj = layergcn::testing::RandomSymmetricAdjacency(
      n, &rng, /*density=*/5.0 / static_cast<double>(n), /*isolated=*/5);
  tensor::Matrix x0 = layergcn::testing::RandomMatrix(n, t, &rng);
  // A zero ego row with neighbors: its cosine takes the ε branch with a
  // non-zero gradient. Node 5 has no edges, so its H rows are zero. A zero
  // column makes zeros in every H, which a negative a + ε turns into -0.
  for (int64_t c = 0; c < t; ++c) x0(11, c) = 0.f;
  for (int64_t r = 0; r < n; ++r) x0(r, 0) = 0.f;
  const tensor::Matrix w = layergcn::testing::RandomMatrix(n, t, &rng);
  // Only these rows reach the loss, as in a BPR batch; the rest see a zero
  // gradient in the last layer.
  const std::vector<int32_t> batch{0, 5, 11, 12, 30, 12};

  struct Result {
    tensor::Matrix value;
    tensor::Matrix grad;
  };
  const auto run = [&](bool fused) {
    ag::Tape tape;
    tensor::Matrix sink(n, t);
    ag::Var x = tape.Parameter(&x0, &sink);
    ag::Var out =
        fused ? RefinedPropagation(&adj, x, p.layers, p.epsilon,
                                   p.include_ego_layer)
              : layergcn::testing::RefinedChain(&adj, x, p.layers, p.epsilon,
                                                p.include_ego_layer);
    ag::Var loss = ag::Sum(ag::Hadamard(
        ag::GatherRows(out, batch),
        tape.Constant(tensor::GatherRows(w, batch))));
    // Terms recorded after the op run their backward before it.
    if (p.prior == PriorGrad::kL2) {
      loss = ag::Add(
          loss, ag::Scale(ag::SumSquares(ag::GatherRows(x, batch)), 0.1f));
    } else if (p.prior == PriorGrad::kSignedZeros) {
      // d/dX⁰ of −Σ X⁰ ⊙ mask is −mask: -0 wherever the mask is 0.
      tensor::Matrix mask = w;
      for (int64_t r : {3, 5, 12}) {
        for (int64_t c = 0; c < t; ++c) mask(r, c) = 0.f;
      }
      loss = ag::Add(loss, ag::Sum(ag::Hadamard(
                               ag::Negate(x), tape.Constant(std::move(mask)))));
    }
    tape.Backward(loss);
    return Result{tape.value(out), tape.grad(x)};
  };
  const Result fused = run(true);
  const Result chain = run(false);
  EXPECT_TRUE(layergcn::testing::SameBits(fused.value, chain.value));
  EXPECT_TRUE(layergcn::testing::SameBits(fused.grad, chain.grad));
  // The oracle is only as strong as the gradient is rich.
  EXPECT_GT(tensor::SumSquares(chain.grad), 0.0);
}

std::string OracleCaseName(const ::testing::TestParamInfo<OracleCase>& info) {
  const OracleCase& c = info.param;
  const char* const prior[] = {"", "_L2Prior", "_SignedZeroPrior"};
  return std::string(c.include_ego_layer ? "Ego" : "NoEgo") +
         prior[static_cast<int>(c.prior)] +
         (c.epsilon > 0.1f ? "_LargeEps_" : "_") +
         std::to_string(c.layers) + "Layers" +
         (c.threads > 1 ? "_" + std::to_string(c.threads) + "Threads" : "");
}

INSTANTIATE_TEST_SUITE_P(
    Cases, RefinedPropagationOracleTest,
    ::testing::Values(OracleCase{false, PriorGrad::kNone, 1e-8f, 1},
                      OracleCase{false, PriorGrad::kNone, 1e-8f, 3},
                      OracleCase{false, PriorGrad::kL2, 1e-8f, 3},
                      OracleCase{false, PriorGrad::kSignedZeros, 1e-8f, 3},
                      OracleCase{true, PriorGrad::kNone, 1e-8f, 3},
                      OracleCase{true, PriorGrad::kL2, 1e-8f, 3},
                      OracleCase{true, PriorGrad::kSignedZeros, 1e-8f, 2},
                      OracleCase{false, PriorGrad::kL2, 0.5f, 2},
                      OracleCase{true, PriorGrad::kL2, 0.5f, 1},
                      OracleCase{true, PriorGrad::kL2, 1e-8f, 0},
                      OracleCase{true, PriorGrad::kL2, 1e-8f, 3, 3000, 4}),
    OracleCaseName);

}  // namespace
}  // namespace layergcn::core
