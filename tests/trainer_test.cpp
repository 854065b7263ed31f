#include "train/trainer.h"

#include "core/layergcn.h"
#include "gtest/gtest.h"
#include "models/bpr_mf.h"
#include "test_util.h"

namespace layergcn::train {
namespace {

using layergcn::testing::TinyDataset;

TrainConfig SmallConfig() {
  TrainConfig cfg;
  cfg.embedding_dim = 8;
  cfg.num_layers = 2;
  cfg.batch_size = 4;
  cfg.max_epochs = 30;
  cfg.early_stop_patience = 50;
  cfg.l2_reg = 1e-4;
  cfg.seed = 7;
  return cfg;
}

TEST(TrainerTest, RunsAndReportsCurves) {
  const data::Dataset ds = TinyDataset();
  models::BprMf model;
  TrainOptions options;
  options.validation_k = 2;
  options.report_ks = {1, 2, 5};
  const TrainResult r = FitRecommender(&model, ds, SmallConfig(), options);
  EXPECT_EQ(r.epochs_run, 30);
  EXPECT_EQ(static_cast<int>(r.epoch_losses.size()), r.epochs_run);
  EXPECT_EQ(static_cast<int>(r.valid_curve.size()), r.epochs_run);
  EXPECT_GT(r.best_epoch, 0);
  EXPECT_LE(r.best_epoch, r.epochs_run);
  EXPECT_GE(r.best_valid_score, 0.0);
  // Report cutoffs present in the test metrics.
  EXPECT_EQ(r.test_metrics.recall.size(), 3u);
  EXPECT_EQ(r.test_metrics.ndcg.size(), 3u);
  EXPECT_GT(r.train_seconds, 0.0);
}

TEST(TrainerTest, LossDecreasesOnTinyData) {
  const data::Dataset ds = TinyDataset();
  models::BprMf model;
  TrainConfig cfg = SmallConfig();
  cfg.max_epochs = 50;
  const TrainResult r = FitRecommender(&model, ds, cfg);
  // BPR loss starts at ~log(2) with random embeddings and must fall
  // substantially when overfitting 10 training pairs.
  EXPECT_LT(r.epoch_losses.back(), r.epoch_losses.front() * 0.8);
}

TEST(TrainerTest, EarlyStoppingTriggers) {
  const data::Dataset ds = TinyDataset();
  models::BprMf model;
  TrainConfig cfg = SmallConfig();
  cfg.max_epochs = 500;
  cfg.early_stop_patience = 5;
  const TrainResult r = FitRecommender(&model, ds, cfg);
  EXPECT_LT(r.epochs_run, 500);
  EXPECT_GE(r.epochs_run, r.best_epoch + 5);
}

TEST(TrainerTest, CheckpointsRecordedAtRequestedEpochs) {
  const data::Dataset ds = TinyDataset();
  models::BprMf model;
  TrainConfig cfg = SmallConfig();
  cfg.max_epochs = 12;
  TrainOptions options;
  options.checkpoint_epochs = {3, 8};
  std::vector<CheckpointMetrics> checkpoints;
  FitRecommender(&model, ds, cfg, options, &checkpoints);
  ASSERT_EQ(checkpoints.size(), 2u);
  EXPECT_EQ(checkpoints[0].epoch, 3);
  EXPECT_EQ(checkpoints[1].epoch, 8);
  EXPECT_FALSE(checkpoints[0].metrics.recall.empty());
}

TEST(TrainerTest, BatchLossesRecordedWhenRequested) {
  const data::Dataset ds = TinyDataset();
  models::BprMf model;
  TrainConfig cfg = SmallConfig();
  cfg.max_epochs = 4;
  TrainOptions options;
  options.record_batch_losses = true;
  const TrainResult r = FitRecommender(&model, ds, cfg, options);
  const size_t batches_per_epoch = static_cast<size_t>(
      (ds.num_train() + cfg.batch_size - 1) / cfg.batch_size);
  EXPECT_EQ(r.batch_losses.size(), batches_per_epoch * 4);
}

TEST(TrainerTest, DeterministicForSeed) {
  const data::Dataset ds = TinyDataset();
  TrainConfig cfg = SmallConfig();
  cfg.max_epochs = 10;
  models::BprMf m1, m2;
  const TrainResult r1 = FitRecommender(&m1, ds, cfg);
  const TrainResult r2 = FitRecommender(&m2, ds, cfg);
  EXPECT_EQ(r1.epoch_losses, r2.epoch_losses);
  EXPECT_EQ(r1.test_metrics.recall, r2.test_metrics.recall);
  EXPECT_EQ(r1.best_epoch, r2.best_epoch);
}

TEST(TrainerTest, BestEpochParametersRestored) {
  // With eval_every=1 and a validation metric, the final test evaluation
  // must use the snapshot of the best epoch, not the last. We verify by
  // checking EvaluateRecommender on the returned model matches
  // result.test_metrics.
  const data::Dataset ds = TinyDataset();
  models::BprMf model;
  TrainConfig cfg = SmallConfig();
  cfg.max_epochs = 25;
  const TrainResult r = FitRecommender(&model, ds, cfg);
  const eval::RankingMetrics again =
      EvaluateRecommender(&model, ds, {10, 20, 50}, eval::EvalSplit::kTest);
  EXPECT_EQ(again.recall.at(20), r.test_metrics.recall.at(20));
}

TEST(TrainerTest, EvalEveryReducesValidationPoints) {
  const data::Dataset ds = TinyDataset();
  models::BprMf model;
  TrainConfig cfg = SmallConfig();
  cfg.max_epochs = 10;
  cfg.eval_every = 5;
  const TrainResult r = FitRecommender(&model, ds, cfg);
  EXPECT_EQ(r.valid_curve.size(), 2u);
  EXPECT_EQ(r.valid_curve[0].first, 5);
  EXPECT_EQ(r.valid_curve[1].first, 10);
}

TEST(TrainerTest, EmptyReportKsSkipsTestReportOnly) {
  // An empty report list drops the test-split evaluation and nothing else:
  // same losses, same best epoch and score, and the model is left with the
  // same ranking view (best epoch restored, PrepareEval()ed).
  const data::Dataset ds = TinyDataset();
  TrainConfig cfg = SmallConfig();
  cfg.max_epochs = 6;
  TrainOptions reported;
  reported.validation_k = 2;
  TrainOptions silent = reported;
  silent.report_ks.clear();

  core::LayerGcn a, b;
  const TrainResult ra = FitRecommender(&a, ds, cfg, reported);
  const TrainResult rb = FitRecommender(&b, ds, cfg, silent);
  ASSERT_TRUE(rb.status.ok()) << rb.status.ToString();
  EXPECT_FALSE(ra.test_metrics.recall.empty());
  EXPECT_TRUE(rb.test_metrics.recall.empty());
  EXPECT_TRUE(rb.test_metrics.ndcg.empty());
  EXPECT_EQ(ra.epoch_losses, rb.epoch_losses);
  EXPECT_EQ(ra.best_epoch, rb.best_epoch);
  EXPECT_EQ(ra.best_valid_score, rb.best_valid_score);
  const EmbeddingView va = a.GetEmbeddingView();
  const EmbeddingView vb = b.GetEmbeddingView();
  ASSERT_TRUE(va.valid());
  ASSERT_TRUE(vb.valid());
  EXPECT_TRUE(va.user->Equals(*vb.user));
  EXPECT_TRUE(va.item->Equals(*vb.item));
}

TEST(TrainerTest, CheckpointEpochsWithoutReportKsIsInvalidArgument) {
  const data::Dataset ds = TinyDataset();
  models::BprMf model;
  TrainOptions options;
  options.report_ks.clear();
  options.checkpoint_epochs = {2};
  std::vector<CheckpointMetrics> checkpoints;
  const TrainResult r =
      FitRecommender(&model, ds, SmallConfig(), options, &checkpoints);
  EXPECT_EQ(r.status.code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(r.epochs_run, 0);
  EXPECT_TRUE(checkpoints.empty());
}

}  // namespace
}  // namespace layergcn::train
