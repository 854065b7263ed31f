// Per-model behavioral tests: every Table II model must train, produce
// correctly shaped scores, beat an untrained copy of itself on a learnable
// synthetic dataset, and be deterministic for a fixed seed.

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/model_factory.h"
#include "data/synthetic.h"
#include "gtest/gtest.h"
#include "models/bpr_loss.h"
#include "models/imp_gcn.h"
#include "models/lightgcn.h"
#include "tensor/ops.h"
#include "test_util.h"
#include "train/trainer.h"
#include "util/parallel.h"
#include "util/thread_pool.h"

namespace layergcn::models {
namespace {

using core::CreateModel;
using layergcn::testing::TinyDataset;

// A small but learnable clustered dataset.
data::Dataset LearnableDataset() {
  data::SyntheticConfig cfg;
  cfg.name = "learnable";
  cfg.num_users = 150;
  cfg.num_items = 60;
  cfg.num_interactions = 1600;
  cfg.num_clusters = 4;
  cfg.noise_fraction = 0.1;
  return data::ChronologicalSplitDataset(
      cfg.name, cfg.num_users, cfg.num_items,
      data::GenerateInteractions(cfg, 99));
}

train::TrainConfig FastConfig() {
  train::TrainConfig cfg;
  cfg.embedding_dim = 16;
  cfg.num_layers = 2;
  cfg.batch_size = 256;
  cfg.max_epochs = 12;
  cfg.early_stop_patience = 100;
  cfg.seed = 5;
  cfg.vae_hidden_dim = 32;
  cfg.vae_latent_dim = 16;
  cfg.ultra_num_negatives = 3;
  cfg.edge_drop_ratio = 0.1;
  return cfg;
}

class AllModelsTest : public ::testing::TestWithParam<std::string> {};

TEST_P(AllModelsTest, TrainsAndScores) {
  const data::Dataset ds = LearnableDataset();
  auto model = CreateModel(GetParam());
  const train::TrainConfig cfg = core::AdaptConfig(GetParam(), FastConfig());
  util::Rng rng(cfg.seed);
  model->Init(ds, cfg, &rng);

  // Untrained baseline recall.
  model->BeginEpoch(1, &rng);
  const eval::RankingMetrics before = train::EvaluateRecommender(
      model.get(), ds, {20}, eval::EvalSplit::kTest);

  // A few epochs of training.
  double first_loss = 0.0, last_loss = 0.0;
  for (int epoch = 1; epoch <= cfg.max_epochs; ++epoch) {
    model->BeginEpoch(epoch, &rng);
    const double loss = model->TrainEpoch(&rng, nullptr);
    if (epoch == 1) first_loss = loss;
    last_loss = loss;
    EXPECT_TRUE(std::isfinite(loss)) << "epoch " << epoch;
  }
  EXPECT_LT(last_loss, first_loss) << "loss should decrease";

  // Scores: shape and finiteness.
  model->PrepareEval();
  const tensor::Matrix scores = model->ScoreUsers({0, 1, 2});
  EXPECT_EQ(scores.rows(), 3);
  EXPECT_EQ(scores.cols(), ds.num_items);
  for (int64_t i = 0; i < scores.size(); ++i) {
    EXPECT_TRUE(std::isfinite(scores.data()[i]));
  }

  const eval::RankingMetrics after = train::EvaluateRecommender(
      model.get(), ds, {20}, eval::EvalSplit::kTest);
  EXPECT_GT(after.recall.at(20), before.recall.at(20))
      << GetParam() << " did not improve over its untrained self";
}

TEST_P(AllModelsTest, ParamsNonEmptyAndNamed) {
  const data::Dataset ds = TinyDataset();
  auto model = CreateModel(GetParam());
  train::TrainConfig cfg = core::AdaptConfig(GetParam(), FastConfig());
  cfg.batch_size = 4;
  util::Rng rng(1);
  model->Init(ds, cfg, &rng);
  const auto params = model->Params();
  EXPECT_FALSE(params.empty());
  for (const auto* p : params) {
    EXPECT_GT(p->value.size(), 0);
    EXPECT_EQ(p->value.rows(), p->grad.rows());
    EXPECT_EQ(p->value.cols(), p->grad.cols());
  }
}

INSTANTIATE_TEST_SUITE_P(
    TableTwo, AllModelsTest,
    ::testing::Values("BPR", "MultiVAE", "EHCF", "BUIR", "NGCF", "LR-GCCF",
                      "LightGCN", "UltraGCN", "IMP-GCN", "LayerGCN-noDrop",
                      "LayerGCN", "LightGCN-LearnW"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(ModelFactoryTest, TableTwoNamesAllConstructible) {
  for (const std::string& name : core::TableTwoModelNames()) {
    EXPECT_NE(CreateModel(name), nullptr) << name;
  }
}

TEST(ModelFactoryDeathTest, UnknownModelAborts) {
  EXPECT_DEATH((void)CreateModel("SVD++"), "unknown model");
}

TEST(ModelFactoryTest, AdaptConfigDisablesDropoutForNoDropVariant) {
  train::TrainConfig base;
  base.edge_drop_ratio = 0.2;
  const train::TrainConfig adapted = core::AdaptConfig("LayerGCN-noDrop", base);
  EXPECT_EQ(adapted.edge_drop_ratio, 0.0);
  EXPECT_EQ(adapted.edge_drop_kind, graph::EdgeDropKind::kNone);
  const train::TrainConfig full = core::AdaptConfig("LayerGCN", base);
  EXPECT_EQ(full.edge_drop_ratio, 0.2);
}

TEST(LightGcnLearnableTest, WeightHistoryRecordedAndNormalized) {
  const data::Dataset ds = LearnableDataset();
  LightGcn model(LightGcnReadout::kLearnableWeights);
  train::TrainConfig cfg = FastConfig();
  cfg.max_epochs = 5;
  util::Rng rng(3);
  model.Init(ds, cfg, &rng);
  for (int epoch = 1; epoch <= 5; ++epoch) {
    model.BeginEpoch(epoch, &rng);
    model.TrainEpoch(&rng, nullptr);
  }
  const auto& hist = model.layer_weight_history();
  ASSERT_GE(hist.size(), 4u);  // recorded from epoch 2 on
  for (const auto& weights : hist) {
    ASSERT_EQ(weights.size(), static_cast<size_t>(cfg.num_layers) + 1);
    double sum = 0;
    for (double w : weights) {
      EXPECT_GE(w, 0.0);
      sum += w;
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);  // softmax-normalized
  }
}

TEST(ImpGcnTest, GroupAssignmentsValid) {
  const data::Dataset ds = LearnableDataset();
  ImpGcn model;
  train::TrainConfig cfg = FastConfig();
  cfg.imp_num_groups = 3;
  util::Rng rng(4);
  model.Init(ds, cfg, &rng);
  model.BeginEpoch(1, &rng);
  const auto& groups = model.user_groups();
  ASSERT_EQ(groups.size(), static_cast<size_t>(ds.num_users));
  for (int g : groups) {
    EXPECT_GE(g, 0);
    EXPECT_LT(g, 3);
  }
  // With clustered data, the grouping should use more than one group.
  std::set<int> distinct(groups.begin(), groups.end());
  EXPECT_GT(distinct.size(), 1u);
}

TEST(ModelDeterminismTest, SameSeedSameScores) {
  const data::Dataset ds = LearnableDataset();
  for (const std::string name : {"LightGCN", "LayerGCN"}) {
    auto run = [&]() {
      auto model = CreateModel(name);
      train::TrainConfig cfg = core::AdaptConfig(name, FastConfig());
      cfg.max_epochs = 3;
      util::Rng rng(cfg.seed);
      model->Init(ds, cfg, &rng);
      for (int e = 1; e <= 3; ++e) {
        model->BeginEpoch(e, &rng);
        model->TrainEpoch(&rng, nullptr);
      }
      model->PrepareEval();
      return model->ScoreUsers({0, 5, 10});
    };
    const tensor::Matrix a = run();
    const tensor::Matrix b = run();
    EXPECT_TRUE(a.Equals(b)) << name << " is not deterministic";
  }
}


// What the gradient buffers hold when the op's backward starts.
enum class PriorGrad {
  kNone,
  kFilled,       // non-zero terms from nodes recorded after the op
  kSignedZeros,  // -0 entries, which the chain's zero-filled adds erase
};

struct BprCase {
  bool l2;
  PriorGrad prior;
  float upstream;  // the op's output gradient
  bool readout_is_x0 = false;  // BPR-MF: Propagate returns X⁰
  int64_t batch = 64;
  int64_t t = 9;         // X⁰ columns
  int64_t readout_t = 12;
  int threads = 1;
};

// The fused BPR + L2 op against the op chain it replaced: the same loss
// and the same gradients for the readout and X⁰, bit for bit. Batches
// repeat users and items, as sampled batches do.
class BprLossOracleTest : public ::testing::TestWithParam<BprCase> {};

TEST_P(BprLossOracleTest, MatchesOpChainBitForBit) {
  const BprCase p = GetParam();
  util::ThreadPool pool(p.threads);
  util::parallel::ScopedComputePool scope(&pool);
  util::Rng rng(17);
  const int64_t nu = 23;
  const int64_t n = nu + 31;
  const tensor::Matrix x0 = layergcn::testing::RandomMatrix(n, p.t, &rng);
  const tensor::Matrix readout = layergcn::testing::RandomMatrix(
      n, p.readout_is_x0 ? p.t : p.readout_t, &rng);
  std::vector<int32_t> users, pos_rows, neg_rows;
  for (int64_t k = 0; k < p.batch; ++k) {
    // Users crowd into 15 of 23 rows and items into 25 of 31: rows 15-22
    // and the last six are never drawn.
    users.push_back(rng.NextInt(0, 15));
    pos_rows.push_back(static_cast<int32_t>(nu) + rng.NextInt(0, 20));
    neg_rows.push_back(static_cast<int32_t>(nu) + rng.NextInt(5, 25));
  }
  const auto constant = [&](const tensor::Matrix& like) {
    tensor::Matrix c = layergcn::testing::RandomMatrix(
        like.rows(), like.cols(), &rng, 0.5f, 1.5f);
    if (p.prior == PriorGrad::kSignedZeros) {
      // -0 in rows the batch uses and in rows it never touches.
      for (int64_t r : {int64_t{3}, nu + 2, int64_t{20}, n - 1}) {
        for (int64_t c2 = 0; c2 < c.cols(); ++c2) c(r, c2) = -0.f;
      }
    }
    return c;
  };
  const tensor::Matrix c_readout = constant(readout);
  const tensor::Matrix c_x0 = constant(x0);

  struct Result {
    tensor::Matrix loss, readout_grad, x0_grad, readout_sink, x0_sink;
  };
  const auto run = [&](bool fused) {
    ag::Tape tape;
    Result out{{}, {}, {}, tensor::Matrix(readout.rows(), readout.cols()),
               tensor::Matrix(n, p.t)};
    ag::Var x = tape.Parameter(&x0, &out.x0_sink);
    ag::Var e = p.readout_is_x0 ? x
                                : tape.Parameter(&readout, &out.readout_sink);
    const double l2_reg = p.l2 ? 0.3 : 0.0;
    ag::Var loss =
        fused ? BprLoss(e, x, users, pos_rows, neg_rows, l2_reg)
              : layergcn::testing::BprChain(e, x, users, pos_rows, neg_rows,
                                            l2_reg);
    ag::Var total = ag::Scale(loss, p.upstream);
    // Terms recorded after the op run their backward before it.
    if (p.prior != PriorGrad::kNone) {
      total = ag::Add(total, ag::Sum(ag::Hadamard(
                                 e, tape.Constant(p.readout_is_x0
                                                      ? c_x0
                                                      : c_readout))));
      if (!p.readout_is_x0) {
        total = ag::Add(total,
                        ag::Sum(ag::Hadamard(x, tape.Constant(c_x0))));
      }
    }
    tape.Backward(total);
    out.loss = tape.value(loss);
    out.readout_grad = tape.grad(e);
    out.x0_grad = tape.grad(x);
    return out;
  };
  const Result fused = run(true);
  const Result chain = run(false);
  EXPECT_TRUE(layergcn::testing::SameBits(fused.loss, chain.loss));
  EXPECT_TRUE(layergcn::testing::SameBits(fused.readout_sink,
                                          chain.readout_sink));
  EXPECT_TRUE(layergcn::testing::SameBits(fused.x0_sink, chain.x0_sink));
  if (p.prior == PriorGrad::kSignedZeros) {
    // Where a -0 sat in a row the op does not add to, the chain's dense
    // add leaves +0 and the op leaves -0: equal values, and the same
    // bits once added into a parameter's gradient (DESIGN.md §8).
    EXPECT_TRUE(fused.readout_grad.Equals(chain.readout_grad));
    EXPECT_TRUE(fused.x0_grad.Equals(chain.x0_grad));
  } else {
    EXPECT_TRUE(layergcn::testing::SameBits(fused.readout_grad,
                                            chain.readout_grad));
    EXPECT_TRUE(layergcn::testing::SameBits(fused.x0_grad, chain.x0_grad));
  }
  // The oracle is only as strong as the gradients are rich.
  EXPECT_GT(tensor::SumSquares(chain.readout_grad), 0.0);
  if (p.l2 && !p.readout_is_x0) {
    EXPECT_GT(tensor::SumSquares(chain.x0_grad), 0.0);
  }
}

std::string BprCaseName(const ::testing::TestParamInfo<BprCase>& info) {
  const BprCase& c = info.param;
  const char* const prior[] = {"", "_Filled", "_SignedZeros"};
  return std::string(c.l2 ? "L2" : "NoL2") +
         prior[static_cast<int>(c.prior)] +
         (c.upstream != 1.f ? "_Upstream" : "") +
         (c.readout_is_x0 ? "_ReadoutIsX0" : "") + "_B" +
         std::to_string(c.batch) + "_T" + std::to_string(c.t) +
         (c.threads > 1 ? "_" + std::to_string(c.threads) + "Threads" : "");
}

// 16000 x 9 elements span nine Reduce blocks whose starts fall inside
// rows: one group of eight and a short last block.
INSTANTIATE_TEST_SUITE_P(
    Cases, BprLossOracleTest,
    ::testing::Values(BprCase{true, PriorGrad::kNone, 1.f},
                      BprCase{false, PriorGrad::kNone, 1.f},
                      BprCase{true, PriorGrad::kFilled, 0.7f},
                      BprCase{false, PriorGrad::kFilled, -1.3f},
                      BprCase{true, PriorGrad::kSignedZeros, 0.7f},
                      BprCase{true, PriorGrad::kFilled, 0.7f, true},
                      BprCase{true, PriorGrad::kNone, 1.f, true},
                      BprCase{true, PriorGrad::kFilled, 0.7f, false, 16000},
                      BprCase{true, PriorGrad::kFilled, 0.7f, false, 3000,
                              64, 64, 4}),
    BprCaseName);

TEST(BprLossDeathTest, RowOutOfRangeAborts) {
  ag::Tape tape;
  const tensor::Matrix x0(6, 2);
  tensor::Matrix sink(6, 2);
  ag::Var x = tape.Parameter(&x0, &sink);
  EXPECT_DEATH(BprLoss(x, x, {0}, {4}, {6}, 0.1), "BprLoss: row 6");
}

}  // namespace
}  // namespace layergcn::models
