// End-to-end determinism of the parallel training hot path: training
// LayerGCN on a mid-sized synthetic dataset must produce bit-identical
// epoch losses and final embeddings at 1, 2, and 8 compute threads. This is
// the contract the deterministic parallel layer (util/parallel.h) promises:
// fixed block partitions, in-order reduction combines, and row-sharded
// scatter-adds make the thread count unobservable in the numerics. The
// same runs pin LayerGCN's fused refined-layer op to the four-op chain it
// replaced, and the fused BPR + L2 loss op to its op chain.

#include <cstring>
#include <vector>

#include "core/layergcn.h"
#include "core/layergcn_ssl.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "gtest/gtest.h"
#include "models/lightgcn.h"
#include "tensor/matrix.h"
#include "test_util.h"
#include "train/trainer.h"
#include "util/parallel.h"
#include "util/thread_pool.h"

namespace layergcn::train {
namespace {

data::Dataset MidDataset() {
  data::SyntheticConfig cfg;
  cfg.name = "determinism";
  cfg.num_users = 300;
  cfg.num_items = 200;
  cfg.num_interactions = 3000;
  std::vector<data::Interaction> interactions =
      data::GenerateInteractions(cfg, /*seed=*/99);
  return data::ChronologicalSplitDataset("determinism", cfg.num_users,
                                         cfg.num_items,
                                         std::move(interactions), 0.8, 0.1);
}

struct RunOutput {
  std::vector<double> epoch_losses;
  tensor::Matrix embeddings;
};

// LayerGCN with its refined layers built from the four-op chain instead of
// the fused op: the reference the fused training trajectory must match.
class ChainLayerGcn : public core::LayerGcn {
 protected:
  ag::Var Propagate(ag::Tape* /*tape*/, ag::Var x0, bool training,
                    util::Rng* /*rng*/) override {
    return layergcn::testing::RefinedChain(
        adjacency(training), x0, config_.num_layers, options().epsilon,
        options().include_ego_layer);
  }
};

// `Model` with its BPR + L2 loss built from the op chain instead of the
// fused op: the reference the fused training trajectory must match.
template <typename Model>
class ChainBprLoss : public Model {
 protected:
  ag::Var RankingLoss(ag::Var final_emb, ag::Var x0,
                      std::vector<int32_t> users,
                      std::vector<int32_t> pos_rows,
                      std::vector<int32_t> neg_rows) override {
    return layergcn::testing::BprChain(final_emb, x0, users, pos_rows,
                                       neg_rows, this->config_.l2_reg);
  }
};

RunOutput TrainAtWidth(const data::Dataset& ds, int width,
                       models::EmbeddingRecommender* model) {
  util::ThreadPool pool(width);
  util::parallel::ScopedComputePool scope(&pool);

  TrainConfig cfg;
  cfg.embedding_dim = 16;
  cfg.num_layers = 2;
  cfg.batch_size = 256;
  cfg.max_epochs = 3;
  cfg.edge_drop_kind = graph::EdgeDropKind::kDegreeDrop;
  cfg.edge_drop_ratio = 0.2;
  // No validation pass inside the loop: the run is pure training, so the
  // final parameters are exactly the last epoch's.
  cfg.eval_every = 100;
  cfg.early_stop_patience = 1000;
  cfg.seed = 21;

  const TrainResult r = FitRecommender(model, ds, cfg);
  RunOutput out;
  out.epoch_losses = r.epoch_losses;
  out.embeddings = model->Params()[0]->value;
  return out;
}

RunOutput TrainAtWidth(const data::Dataset& ds, int width) {
  core::LayerGcn model;
  return TrainAtWidth(ds, width, &model);
}

TEST(TrainerDeterminismTest, BitExactAcrossThreadCounts) {
  const data::Dataset ds = MidDataset();
  const RunOutput base = TrainAtWidth(ds, 1);
  ASSERT_EQ(base.epoch_losses.size(), 3u);
  ASSERT_GT(base.embeddings.size(), 0);

  for (int width : {2, 8}) {
    const RunOutput run = TrainAtWidth(ds, width);
    // Losses are doubles accumulated through every threaded kernel (SpMM,
    // GEMM, scatter-add, Adam); compare exactly, not within a tolerance.
    ASSERT_EQ(run.epoch_losses.size(), base.epoch_losses.size());
    for (size_t e = 0; e < base.epoch_losses.size(); ++e) {
      EXPECT_EQ(run.epoch_losses[e], base.epoch_losses[e])
          << "width=" << width << " epoch=" << e;
    }
    ASSERT_EQ(run.embeddings.size(), base.embeddings.size());
    EXPECT_EQ(0, std::memcmp(run.embeddings.data(), base.embeddings.data(),
                             sizeof(float) *
                                 static_cast<size_t>(base.embeddings.size())))
        << "width=" << width;
  }
}

TEST(TrainerDeterminismTest, RepeatedRunsAtSameWidthAreBitExact) {
  const data::Dataset ds = MidDataset();
  const RunOutput a = TrainAtWidth(ds, 8);
  const RunOutput b = TrainAtWidth(ds, 8);
  EXPECT_EQ(a.epoch_losses, b.epoch_losses);
  EXPECT_EQ(0, std::memcmp(a.embeddings.data(), b.embeddings.data(),
                           sizeof(float) *
                               static_cast<size_t>(a.embeddings.size())));
}

TEST(TrainerDeterminismTest, FusedRefinementMatchesFourOpChain) {
  // The fused refined-layer op repeats the chain's rounding and its
  // gradient accumulation order, so the whole trajectory is bit-identical.
  const data::Dataset ds = MidDataset();
  for (int width : {1, 2, 8}) {
    core::LayerGcn fused_model;
    ChainLayerGcn chain_model;
    const RunOutput fused = TrainAtWidth(ds, width, &fused_model);
    const RunOutput chain = TrainAtWidth(ds, width, &chain_model);
    ASSERT_EQ(fused.epoch_losses.size(), 3u);
    EXPECT_EQ(fused.epoch_losses, chain.epoch_losses) << "width=" << width;
    EXPECT_TRUE(layergcn::testing::SameBits(fused.embeddings,
                                            chain.embeddings))
        << "width=" << width;
  }
}

// The fused loss op repeats the chain's rounding and its gradient
// accumulation order, so the whole trajectory of `Model` is bit-identical.
template <typename Model>
void ExpectFusedBprLossMatchesChain(const data::Dataset& ds,
                                    const char* name) {
  for (int width : {1, 2, 8}) {
    Model fused_model;
    ChainBprLoss<Model> chain_model;
    const RunOutput fused = TrainAtWidth(ds, width, &fused_model);
    const RunOutput chain = TrainAtWidth(ds, width, &chain_model);
    ASSERT_EQ(fused.epoch_losses.size(), 3u) << name;
    EXPECT_EQ(fused.epoch_losses, chain.epoch_losses)
        << name << " width=" << width;
    EXPECT_TRUE(
        layergcn::testing::SameBits(fused.embeddings, chain.embeddings))
        << name << " width=" << width;
  }
}

TEST(TrainerDeterminismTest, FusedBprLossMatchesOpChain) {
  // LayerGCN-SSL records its contrastive terms after the op, so their
  // backward fills X⁰'s gradient before the op adds to it.
  const data::Dataset ds = MidDataset();
  ExpectFusedBprLossMatchesChain<core::LayerGcn>(ds, "LayerGCN");
  ExpectFusedBprLossMatchesChain<core::LayerGcnSsl>(ds, "LayerGCN-SSL");
  ExpectFusedBprLossMatchesChain<models::LightGcn>(ds, "LightGCN");
}

}  // namespace
}  // namespace layergcn::train
