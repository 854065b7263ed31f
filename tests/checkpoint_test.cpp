#include "train/checkpoint.h"

#include <cstdio>
#include <string>

#include "core/layergcn.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "train/trainer.h"
#include "util/rng.h"
#include "util/status.h"

namespace layergcn::train {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(CheckpointTest, RoundTripsValues) {
  util::Rng rng(1);
  Parameter a("emb", 5, 3);
  Parameter b("weights", 2, 2);
  a.InitXavier(&rng);
  b.InitGaussian(&rng, 0.3f);
  const tensor::Matrix a_orig = a.value;
  const tensor::Matrix b_orig = b.value;

  const std::string path = TempPath("ckpt_roundtrip.bin");
  ASSERT_TRUE(SaveCheckpointV2(path, {&a, &b}, nullptr).ok());
  a.value.Zero();
  b.value.Fill(9.f);
  const util::StatusOr<int> restored =
      LoadCheckpointV2(path, {&a, &b}, nullptr);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value(), 2);
  EXPECT_TRUE(a.value.Equals(a_orig));
  EXPECT_TRUE(b.value.Equals(b_orig));
  std::remove(path.c_str());
}

TEST(CheckpointTest, LoadByNameIgnoresOrderAndExtras) {
  util::Rng rng(2);
  Parameter a("a", 2, 2), b("b", 3, 1), c("c", 1, 4);
  a.InitXavier(&rng);
  b.InitXavier(&rng);
  c.InitXavier(&rng);
  const std::string path = TempPath("ckpt_order.bin");
  ASSERT_TRUE(SaveCheckpointV2(path, {&a, &b, &c}, nullptr).ok());

  Parameter b2("b", 3, 1), a2("a", 2, 2);  // reversed subset
  const util::StatusOr<int> restored =
      LoadCheckpointV2(path, {&b2, &a2}, nullptr);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value(), 2);
  EXPECT_TRUE(a2.value.Equals(a.value));
  EXPECT_TRUE(b2.value.Equals(b.value));
  std::remove(path.c_str());
}

TEST(CheckpointTest, TrainedModelRestoresExactScores) {
  // Train LayerGCN briefly, checkpoint, clobber, restore: scores must be
  // bit-identical.
  const data::Dataset ds = layergcn::testing::TinyDataset();
  core::LayerGcn model;
  TrainConfig cfg;
  cfg.embedding_dim = 8;
  cfg.num_layers = 2;
  cfg.batch_size = 4;
  cfg.max_epochs = 8;
  cfg.seed = 6;
  cfg.edge_drop_ratio = 0.0;
  cfg.edge_drop_kind = graph::EdgeDropKind::kNone;
  FitRecommender(&model, ds, cfg);
  model.PrepareEval();
  const tensor::Matrix scores_before = model.ScoreUsers({0, 1});

  const std::string path = TempPath("ckpt_model.bin");
  ASSERT_TRUE(SaveCheckpointV2(path, model.Params(), nullptr).ok());
  for (Parameter* p : model.Params()) p->value.Zero();
  ASSERT_TRUE(LoadCheckpointV2(path, model.Params(), nullptr).ok());
  model.PrepareEval();
  EXPECT_TRUE(model.ScoreUsers({0, 1}).Equals(scores_before));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace layergcn::train
