#include "models/embedding_recommender.h"

#include <algorithm>
#include <utility>

#include "models/bpr_loss.h"
#include "obs/trace.h"
#include "tensor/ops.h"
#include "train/stop_token.h"
#include "util/logging.h"

namespace layergcn::models {

void EmbeddingRecommender::Init(const data::Dataset& dataset,
                                const train::TrainConfig& config,
                                util::Rng* rng) {
  dataset_ = &dataset;
  config_ = config;
  adam_ = train::Adam(train::AdamConfig{.learning_rate = config.learning_rate});

  const int64_t n = dataset.train_graph.num_nodes();
  embeddings_ = train::Parameter("embeddings", n, config.embedding_dim);
  embeddings_.InitXavier(rng);
  extra_params_.clear();
  InitExtraParams(config, rng);

  full_adjacency_ = dataset.train_graph.NormalizedAdjacency();
  uses_dropout_ = UsesEdgeDropout() && config.edge_drop_ratio > 0.0 &&
                  config.edge_drop_kind != graph::EdgeDropKind::kNone;
  if (uses_dropout_) {
    edge_dropout_ = std::make_unique<graph::EdgeDropout>(
        &dataset.train_graph, config.edge_drop_kind, config.edge_drop_ratio);
  }
  sampler_ = std::make_unique<train::BprSampler>(&dataset.train_graph,
                                                 config.negative_sampling);
}

void EmbeddingRecommender::InitExtraParams(
    const train::TrainConfig& /*config*/, util::Rng* /*rng*/) {}

void EmbeddingRecommender::BeginEpoch(int epoch, util::Rng* rng) {
  if (uses_dropout_) {
    // Resample Â_p once per epoch (§III-B1), rebuilding into the existing
    // CSR storage: steady-state epochs allocate nothing.
    OBS_SPAN("train.resample_adjacency");
    edge_dropout_->SampleAdjacencyInto(rng, epoch, &pruned_adjacency_);
  }
}

ag::Var EmbeddingRecommender::BatchLoss(ag::Tape* tape, ag::Var x0,
                                        const train::BprBatch& batch,
                                        util::Rng* rng) {
  ag::Var final_emb = Propagate(tape, x0, /*training=*/true, rng);

  // Item rows live at offset N_U in the unified node space.
  const int32_t nu = dataset_->num_users;
  std::vector<int32_t> pos_rows(batch.pos_items.size());
  std::vector<int32_t> neg_rows(batch.neg_items.size());
  for (size_t k = 0; k < batch.pos_items.size(); ++k) {
    pos_rows[k] = batch.pos_items[k] + nu;
    neg_rows[k] = batch.neg_items[k] + nu;
  }
  return RankingLoss(final_emb, x0, batch.users, std::move(pos_rows),
                     std::move(neg_rows));
}

ag::Var EmbeddingRecommender::RankingLoss(ag::Var final_emb, ag::Var x0,
                                          std::vector<int32_t> users,
                                          std::vector<int32_t> pos_rows,
                                          std::vector<int32_t> neg_rows) {
  // λ‖X⁰‖² is restricted to the embeddings the batch uses (the standard
  // BPR regularization granularity) and normalized by batch size.
  return BprLoss(final_emb, x0, std::move(users), std::move(pos_rows),
                 std::move(neg_rows), config_.l2_reg);
}

double EmbeddingRecommender::TrainEpoch(util::Rng* rng,
                                        std::vector<double>* batch_losses) {
  sampler_->BeginEpoch(rng);
  train::BprBatch batch;
  double total = 0.0;
  int64_t batches = 0;
  std::vector<train::Parameter*> params = Params();
  // Iterate by the known batch count (instead of draining NextBatch) so the
  // per-batch span never opens for the empty trailing call.
  const int64_t num_batches = sampler_->NumBatches(config_.batch_size);
  for (int64_t b = 0; b < num_batches; ++b) {
    // Graceful stop (SIGINT/SIGTERM): finish at a batch boundary; the
    // trainer discards this partial epoch and resumes from the last
    // checkpoint, so breaking here never corrupts the resumable state.
    if (train::StopRequested()) break;
    OBS_SPAN("train.batch");
    {
      OBS_SPAN("train.sampler");
      const bool ok = sampler_->NextBatch(config_.batch_size, rng, &batch);
      LAYERGCN_CHECK(ok) << "sampler exhausted before NumBatches()";
    }
    ag::Tape tape;
    ag::Var x0 = tape.Parameter(&embeddings_.value, &embeddings_.grad);
    ag::Var loss;
    {
      OBS_SPAN("train.forward");
      loss = BatchLoss(&tape, x0, batch, rng);
    }
    {
      OBS_SPAN("train.backward");
      tape.Backward(loss);
    }
    adam_.Step(params);  // opens its own "adam.step" span
    AfterBatch();
    const double loss_value = tape.value(loss).scalar();
    total += loss_value;
    if (batch_losses != nullptr) batch_losses->push_back(loss_value);
    ++batches;
  }
  return batches > 0 ? total / static_cast<double>(batches) : 0.0;
}

void EmbeddingRecommender::PrepareEval() {
  ag::Tape tape;
  ag::Var x0 = tape.Parameter(&embeddings_.value, &embeddings_.grad);
  ag::Var final_emb = Propagate(&tape, x0, /*training=*/false, nullptr);
  final_cache_ = tape.value(final_emb);

  // Split the unified table into its user/item blocks once; scoring and the
  // fused evaluator read these directly (rows are contiguous in the unified
  // node space: users first, items after).
  const int64_t nu = dataset_->num_users;
  const int64_t ni = dataset_->num_items;
  const int64_t width = final_cache_.cols();
  user_cache_ = tensor::Matrix(nu, width);
  item_cache_ = tensor::Matrix(ni, width);
  std::copy(final_cache_.row(0), final_cache_.row(0) + nu * width,
            user_cache_.data());
  std::copy(final_cache_.row(nu), final_cache_.row(nu) + ni * width,
            item_cache_.data());
}

tensor::Matrix EmbeddingRecommender::ScoreUsers(
    const std::vector<int32_t>& users) const {
  LAYERGCN_CHECK(!final_cache_.empty())
      << "PrepareEval() must run before scoring";
  const tensor::Matrix user_block = tensor::GatherRows(user_cache_, users);
  return tensor::MatMul(user_block, item_cache_, false, true);
}

train::EmbeddingView EmbeddingRecommender::GetEmbeddingView() const {
  if (final_cache_.empty()) return {};
  return {&user_cache_, &item_cache_};
}

uint64_t EmbeddingRecommender::SamplerCursor() const {
  return sampler_ != nullptr ? sampler_->cursor() : 0;
}

void EmbeddingRecommender::SetSamplerCursor(uint64_t cursor) {
  if (sampler_ != nullptr) sampler_->set_cursor(cursor);
}

std::vector<train::Parameter*> EmbeddingRecommender::Params() {
  std::vector<train::Parameter*> out{&embeddings_};
  out.insert(out.end(), extra_params_.begin(), extra_params_.end());
  return out;
}

}  // namespace layergcn::models
