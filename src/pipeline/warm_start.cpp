#include "pipeline/warm_start.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <utility>

#include "core/layergcn.h"
#include "eval/evaluator.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "train/checkpoint.h"
#include "train/parameter.h"
#include "util/logging.h"

namespace layergcn::pipeline {
namespace {

constexpr char kEmbeddingsName[] = "embeddings";

/// Copies row `src_r` of every state matrix of `src` into row `dst_r` of
/// `dst` (value + Adam moments; the gradient is transient).
void CarryRow(const train::Parameter& src, int64_t src_r,
              train::Parameter* dst, int64_t dst_r) {
  const int64_t dim = src.value.cols();
  std::memcpy(dst->value.row(dst_r), src.value.row(src_r),
              sizeof(float) * dim);
  std::memcpy(dst->adam_m.row(dst_r), src.adam_m.row(src_r),
              sizeof(float) * dim);
  std::memcpy(dst->adam_v.row(dst_r), src.adam_v.row(src_r),
              sizeof(float) * dim);
}

/// Restores the newest valid checkpoint of the previous run into the
/// grown model: split-aware row mapping (users first, items displaced by
/// the new user count), Adam moments carried, optimizer step restored.
util::Status CarryState(train::Recommender* model,
                        const data::Dataset& dataset,
                        const train::TrainConfig& config,
                        const WarmStartOptions& options) {
  const int64_t prev_nodes = static_cast<int64_t>(options.prev_num_users) +
                             options.prev_num_items;
  train::Parameter prev(kEmbeddingsName, prev_nodes, config.embedding_dim);
  train::TrainingState state;
  LAYERGCN_RETURN_IF_ERROR(
      train::CheckpointManager(options.prev_checkpoint_dir)
          .RestoreLatest({&prev}, &state));

  train::Parameter* dst = nullptr;
  for (train::Parameter* p : model->Params()) {
    if (p->name == kEmbeddingsName) dst = p;
  }
  if (dst == nullptr || dst->value.cols() != config.embedding_dim) {
    return util::InternalError("model exposes no embedding table to warm");
  }

  const int32_t users = std::min<int32_t>(options.prev_num_users,
                                          dataset.num_users);
  const int32_t items = std::min<int32_t>(options.prev_num_items,
                                          dataset.num_items);
  for (int32_t u = 0; u < users; ++u) {
    CarryRow(prev, u, dst, u);
  }
  for (int32_t i = 0; i < items; ++i) {
    CarryRow(prev, static_cast<int64_t>(options.prev_num_users) + i, dst,
             static_cast<int64_t>(dataset.num_users) + i);
  }
  model->SetOptimizerSteps(state.optimizer_steps);
  LAYERGCN_LOG(kInfo) << "warm start carried " << users << " user + " << items
                      << " item rows (opt step " << state.optimizer_steps
                      << ") from " << options.prev_checkpoint_dir;
  return util::OkStatus();
}

/// `emb` zero-padded / truncated to `rows` x `cols` — the serving
/// snapshot's view of a grown id space (unknown rows score zero).
tensor::Matrix PadTo(const tensor::Matrix& emb, int64_t rows, int64_t cols) {
  tensor::Matrix out(rows, cols);
  const int64_t n = std::min(rows, emb.rows());
  if (n > 0 && emb.cols() == cols) {
    std::memcpy(out.data(), emb.data(), sizeof(float) * n * cols);
  }
  return out;
}

}  // namespace

std::string WarmStartTrainer::RunDir(const std::string& root,
                                     int64_t run_id) {
  char name[32];
  std::snprintf(name, sizeof(name), "run-%06" PRId64, run_id);
  return root + "/" + name;
}

util::StatusOr<WarmStartResult> WarmStartTrainer::Run(
    const data::Dataset& dataset, const serve::ModelSnapshot* baseline,
    const WarmStartOptions& options) {
  WarmStartResult result;
  result.checkpoint_dir = RunDir(options.checkpoint_root, options.run_id);
  std::error_code ec;
  std::filesystem::create_directories(result.checkpoint_dir, ec);
  if (ec) {
    return util::UnavailableError("cannot create " + result.checkpoint_dir +
                                  ": " + ec.message());
  }

  const bool can_warm = !options.prev_checkpoint_dir.empty() &&
                        options.prev_num_users > 0 &&
                        options.prev_num_items > 0;

  train::TrainConfig cfg = config_;
  cfg.max_epochs =
      can_warm ? options.fine_tune_epochs : options.bootstrap_epochs;
  cfg.max_epochs = std::max(1, cfg.max_epochs);
  // A bounded budget must never early-stop below itself, and the sampler
  // stream should differ between runs so repeated fine-tunes on an
  // unchanged graph do not replay identical batches.
  cfg.early_stop_patience = cfg.max_epochs;
  cfg.eval_every = 1;
  cfg.seed = config_.seed + static_cast<uint64_t>(options.run_id);

  // Validation R@quality_k picks the epoch and is the gate's candidate
  // score; nothing reads a test-split report, so none is asked for.
  train::TrainOptions topt;
  topt.validation_k = options.quality_k;
  topt.report_ks.clear();
  topt.checkpoint_dir = result.checkpoint_dir;
  topt.checkpoint_every = 1;
  topt.keep_checkpoints = 2;
  topt.watchdog = true;
  topt.verbose = options.verbose;
  topt.warm_start = [&](train::Recommender* m) -> util::Status {
    if (!can_warm) {
      OBS_COUNT("pipeline.train.cold_starts", 1);
      return util::OkStatus();
    }
    OBS_SPAN("pipeline.warm_carry");
    const util::Status carried = CarryState(m, dataset, cfg, options);
    if (!carried.ok()) {
      // A missing/corrupt previous checkpoint degrades to a cold start —
      // the pipeline keeps moving on fresh Xavier rows.
      LAYERGCN_LOG(kWarning) << "warm start fell back to cold init: "
                             << carried.ToString();
      OBS_COUNT("pipeline.train.warm_start_fallbacks", 1);
      OBS_COUNT("pipeline.train.cold_starts", 1);
      return util::OkStatus();
    }
    result.warm_started = true;
    OBS_COUNT("pipeline.train.warm_starts", 1);
    return util::OkStatus();
  };

  auto model = std::make_unique<core::LayerGcn>();
  OBS_COUNT("pipeline.train.runs", 1);
  result.fit = train::FitRecommender(model.get(), dataset, cfg, topt);
  if (!result.fit.status.ok()) {
    return result.fit.status;
  }

  // Fit ended with the best epoch's parameters restored and PrepareEval()ed.
  const train::EmbeddingView view = model->GetEmbeddingView();
  if (!view.valid()) {
    return util::InternalError("fine-tuned model has no embedding view");
  }

  // Quality gate: both contenders rank the same held-out slice. The
  // candidate's R@K is the best epoch's validation score: Fit measured it
  // on exactly the parameters it restored (validation_k == quality_k), so
  // evaluating them again would return the same bits. The serving
  // snapshot is zero-padded onto the grown id space — users/items it has
  // never seen score zero for it, exactly the gap a fresh publish is
  // supposed to close.
  result.candidate_recall = result.fit.best_valid_score;
  if (dataset.num_valid() > 0 && baseline != nullptr &&
      baseline->dim() == view.user->cols()) {
    eval::Evaluator ev(&dataset, {options.quality_k});
    const tensor::Matrix pu =
        PadTo(baseline->user_emb(), dataset.num_users, baseline->dim());
    const tensor::Matrix pi =
        PadTo(baseline->item_emb(), dataset.num_items, baseline->dim());
    result.baseline_recall =
        ev.Evaluate(pu, pi, eval::EvalSplit::kValidation)
            .recall.at(options.quality_k);
  }
  // A fit that validated no epoch (stopped before epoch 1 ended) has no
  // score to stand on.
  result.gate_passed =
      result.fit.best_epoch > 0 &&
      result.candidate_recall + 1e-12 >=
          result.baseline_recall * (1.0 - options.max_quality_drop);
  if (!result.gate_passed) {
    OBS_COUNT("pipeline.train.quality_gate_failures", 1);
    LAYERGCN_LOG(kWarning) << "quality gate refused candidate: R@"
                           << options.quality_k << " "
                           << result.candidate_recall << " vs serving "
                           << result.baseline_recall;
  }
  OBS_GAUGE("pipeline.train.candidate_recall", result.candidate_recall);
  OBS_GAUGE("pipeline.train.baseline_recall", result.baseline_recall);

  result.model = std::move(model);
  return result;
}

}  // namespace layergcn::pipeline
