#include "train/trainer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <utility>

#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "train/checkpoint.h"
#include "train/stop_token.h"
#include "util/fault_injection.h"
#include "util/logging.h"
#include "util/strings.h"
#include "util/timer.h"

namespace layergcn::train {
namespace {

// Snapshot / restore of parameter values for best-epoch restoration.
std::vector<tensor::Matrix> SnapshotParams(
    const std::vector<Parameter*>& params) {
  std::vector<tensor::Matrix> out;
  out.reserve(params.size());
  for (const Parameter* p : params) out.push_back(p->value);
  return out;
}

void RestoreParams(const std::vector<Parameter*>& params,
                   const std::vector<tensor::Matrix>& snapshot) {
  LAYERGCN_CHECK_EQ(params.size(), snapshot.size());
  for (size_t i = 0; i < params.size(); ++i) {
    params[i]->value = snapshot[i];
  }
}

eval::ScoreFn MakeScoreFn(Recommender* model) {
  return [model](const std::vector<int32_t>& users) {
    return model->ScoreUsers(users);
  };
}

// The forward that readies a model for ranking (Recommender::PrepareEval),
// under its own span so a trace separates it from the evaluation itself.
void PrepareEval(Recommender* model) {
  OBS_SPAN("eval.prepare");
  model->PrepareEval();
}

// Inner-product models rank through the fused blocked kernel; everything
// else goes through the chunked ScoreFn pipeline. Both paths produce the
// same metrics for the same scores.
eval::RankingMetrics EvaluateModel(Recommender* model,
                                   const eval::Evaluator& evaluator,
                                   eval::EvalSplit split) {
  const EmbeddingView view = model->GetEmbeddingView();
  if (view.valid()) return evaluator.Evaluate(*view.user, *view.item, split);
  return evaluator.Evaluate(MakeScoreFn(model), split);
}

// L2 norm over every parameter value of the model.
double ParamsNorm(const std::vector<Parameter*>& params) {
  double sq = 0.0;
  for (const Parameter* p : params) {
    const float* v = p->value.data();
    const int64_t n = p->value.size();
    for (int64_t i = 0; i < n; ++i) sq += static_cast<double>(v[i]) * v[i];
  }
  return std::sqrt(sq);
}

// Seconds accumulated by span `name` between two metric snapshots.
double SpanDeltaSeconds(const obs::MetricsSnapshot& after,
                        const obs::MetricsSnapshot& before,
                        const std::string& name) {
  return static_cast<double>(
             after.CounterDelta(before, "span." + name + ".sum_us")) *
         1e-6;
}

double GaugeOrZero(const obs::MetricsSnapshot& snap, const std::string& name) {
  const auto it = snap.gauges.find(name);
  return it != snap.gauges.end() ? it->second : 0.0;
}

int64_t CounterOrZero(const obs::MetricsSnapshot& snap,
                      const std::string& name) {
  const auto it = snap.counters.find(name);
  return it != snap.counters.end() ? static_cast<int64_t>(it->second) : 0;
}

}  // namespace

void Recommender::BeginEpoch(int /*epoch*/, util::Rng* /*rng*/) {}

TrainResult FitRecommender(Recommender* model, const data::Dataset& dataset,
                           const TrainConfig& config,
                           const TrainOptions& options,
                           std::vector<CheckpointMetrics>* checkpoints) {
  LAYERGCN_CHECK(model != nullptr);
  if (options.report_ks.empty() && !options.checkpoint_epochs.empty()) {
    TrainResult refused;
    refused.status = util::InvalidArgumentError(
        "checkpoint_epochs need report_ks: the probes report test metrics");
    return refused;
  }
  ClearStopRequest();
  util::Rng rng(config.seed);
  model->Init(dataset, config, &rng);
  if (options.warm_start) {
    if (util::Status warmed = options.warm_start(model); !warmed.ok()) {
      TrainResult aborted;
      aborted.status = std::move(warmed);
      return aborted;
    }
  }

  eval::Evaluator valid_eval(&dataset, {options.validation_k});
  // No report cutoffs, no test-split evaluator (it needs at least one).
  std::optional<eval::Evaluator> test_eval;
  if (!options.report_ks.empty()) {
    test_eval.emplace(&dataset, options.report_ks);
  }

  TrainResult result;
  std::vector<tensor::Matrix> best_snapshot;
  int epochs_since_best = 0;
  util::Timer timer;

  // Telemetry stream (satellite of the observability subsystem): one JSONL
  // record per epoch. Opening the sink also flips the runtime metrics
  // switch so span/counter deltas below are populated.
  std::unique_ptr<obs::TelemetrySink> telemetry;
  if (!options.telemetry_path.empty()) {
    obs::SetEnabled(true);
    telemetry = std::make_unique<obs::TelemetrySink>(options.telemetry_path);
    if (!telemetry->ok()) {
      LAYERGCN_LOG(kWarning) << "cannot open telemetry sink "
                             << options.telemetry_path << "; disabled";
      telemetry.reset();
    } else {
      result.telemetry_path = options.telemetry_path;
    }
  }
  const bool want_batch_losses =
      options.record_batch_losses || telemetry != nullptr;

  // Rotating fault-tolerance checkpoints (distinct from the paper's
  // checkpoint_epochs metric probes).
  std::unique_ptr<CheckpointManager> manager;
  if (!options.checkpoint_dir.empty()) {
    manager = std::make_unique<CheckpointManager>(
        options.checkpoint_dir, std::max(1, options.keep_checkpoints));
  }
  const int checkpoint_every = std::max(1, options.checkpoint_every);

  // (epoch, offset into result.batch_losses before that epoch's batches):
  // lets a watchdog rollback truncate the concatenated batch-loss record.
  std::vector<std::pair<int, size_t>> batch_loss_marks;

  // Everything the next checkpoint must carry so a resumed run replays
  // bit-identically: at this point `epoch_done` epochs are complete and
  // `rng` is positioned exactly where BeginEpoch(epoch_done + 1) reads it.
  const auto capture_state = [&](int epoch_done) {
    TrainingState st;
    st.epoch = epoch_done;
    st.best_epoch = result.best_epoch;
    st.best_valid_score = result.best_valid_score;
    st.epochs_since_best = epochs_since_best;
    st.optimizer_steps = model->OptimizerSteps();
    st.seed = config.seed;
    st.sampler_cursor = model->SamplerCursor();
    st.has_rng = true;
    st.rng = rng.GetState();
    st.epoch_losses = result.epoch_losses;
    st.valid_curve.reserve(result.valid_curve.size());
    for (const auto& [e, score] : result.valid_curve) {
      st.valid_curve.emplace_back(e, score);
    }
    if (!best_snapshot.empty()) {
      const std::vector<Parameter*> params = model->Params();
      LAYERGCN_CHECK_EQ(params.size(), best_snapshot.size());
      for (size_t i = 0; i < params.size(); ++i) {
        st.best_snapshot.emplace_back(params[i]->name, best_snapshot[i]);
      }
    }
    return st;
  };

  // Inverse of capture_state: rewinds trainer-side state to a restored
  // checkpoint (parameter values/moments were already applied by the
  // checkpoint loader).
  const auto apply_state = [&](const TrainingState& st) {
    if (st.seed != config.seed) {
      LAYERGCN_LOG(kWarning)
          << "checkpoint seed " << st.seed << " != configured seed "
          << config.seed << "; resumed run will not match the original";
    }
    if (st.has_rng) rng.SetState(st.rng);
    model->SetOptimizerSteps(st.optimizer_steps);
    model->SetSamplerCursor(st.sampler_cursor);
    result.best_epoch = static_cast<int>(st.best_epoch);
    result.best_valid_score = st.best_valid_score;
    epochs_since_best = static_cast<int>(st.epochs_since_best);
    result.epoch_losses = st.epoch_losses;
    result.valid_curve.clear();
    for (const auto& [e, score] : st.valid_curve) {
      result.valid_curve.emplace_back(static_cast<int>(e), score);
    }
    result.epochs_run = static_cast<int>(st.epoch);
    best_snapshot.clear();
    if (!st.best_snapshot.empty()) {
      const std::vector<Parameter*> params = model->Params();
      best_snapshot.reserve(params.size());
      for (Parameter* p : params) {
        const auto it = std::find_if(
            st.best_snapshot.begin(), st.best_snapshot.end(),
            [&](const auto& entry) { return entry.first == p->name; });
        if (it == st.best_snapshot.end()) {
          LAYERGCN_LOG(kWarning)
              << "checkpoint best-epoch snapshot lacks parameter " << p->name
              << "; dropping the snapshot";
          best_snapshot.clear();
          break;
        }
        best_snapshot.push_back(it->second);
      }
    }
    while (!batch_loss_marks.empty() &&
           batch_loss_marks.back().first > st.epoch) {
      result.batch_losses.resize(batch_loss_marks.back().second);
      batch_loss_marks.pop_back();
    }
  };

  int start_epoch = 1;
  int64_t last_checkpoint_epoch = 0;
  if (options.resume) {
    if (manager == nullptr) {
      result.status = util::FailedPreconditionError(
          "resume requested without a checkpoint directory");
      return result;
    }
    TrainingState st;
    const util::Status restored = manager->RestoreLatest(model->Params(), &st);
    if (restored.ok()) {
      apply_state(st);
      start_epoch = static_cast<int>(st.epoch) + 1;
      last_checkpoint_epoch = st.epoch;
      LAYERGCN_LOG(kInfo) << model->name() << " resumed from "
                          << options.checkpoint_dir << " at epoch "
                          << st.epoch;
    } else if (restored.code() == util::StatusCode::kNotFound) {
      LAYERGCN_LOG(kInfo) << "no checkpoint in " << options.checkpoint_dir
                          << "; starting fresh";
    } else {
      result.status = restored;
      return result;
    }
  }
  result.start_epoch = start_epoch;

  int rollbacks = 0;
  double lr_scale = 1.0;
  // A resumed run may already be past its early-stop patience.
  bool early_stopped = epochs_since_best >= config.early_stop_patience &&
                       result.best_epoch != 0;

  for (int epoch = start_epoch;
       epoch <= config.max_epochs && !early_stopped; ++epoch) {
    if (StopRequested()) {
      // Clean epoch boundary: persist the completed prefix if the cadence
      // has not already done so, then leave.
      if (manager != nullptr && last_checkpoint_epoch < epoch - 1) {
        const util::Status s =
            manager->Write(model->Params(), capture_state(epoch - 1));
        if (!s.ok()) {
          LAYERGCN_LOG(kWarning) << "stop checkpoint failed: " << s.ToString();
        }
      }
      result.interrupted = true;
      break;
    }

    obs::MetricsSnapshot epoch_start;
    if (telemetry != nullptr) {
      epoch_start = obs::MetricsRegistry::Global().Snapshot();
    }
    util::Timer epoch_timer;
    model->BeginEpoch(epoch, &rng);
    std::vector<double> batch_losses;
    double loss = 0.0;
    {
      OBS_SPAN("train.epoch");
      loss = model->TrainEpoch(&rng,
                               want_batch_losses ? &batch_losses : nullptr);
    }
    if (util::fault::Fire("trainer.nan_loss")) {
      loss = std::numeric_limits<double>::quiet_NaN();
    }
    if (StopRequested()) {
      // The epoch ended early at a batch boundary; its partial updates are
      // not at a checkpointable boundary, so discard the epoch entirely —
      // resume restores the last checkpoint's consistent state.
      result.interrupted = true;
      break;
    }
    const double epoch_seconds = epoch_timer.ElapsedSeconds();
    result.epoch_losses.push_back(loss);
    if (options.record_batch_losses) {
      batch_loss_marks.emplace_back(epoch, result.batch_losses.size());
      result.batch_losses.insert(result.batch_losses.end(),
                                 batch_losses.begin(), batch_losses.end());
    }
    result.epochs_run = epoch;
    const double param_norm = ParamsNorm(model->Params());

    obs::EpochTelemetry record;
    double grad_norm = 0.0;
    if (telemetry != nullptr) {
      const obs::MetricsSnapshot now =
          obs::MetricsRegistry::Global().Snapshot();
      record.epoch = epoch;
      record.loss = loss;
      record.batch_count = static_cast<int64_t>(batch_losses.size());
      if (!batch_losses.empty()) {
        record.batch_loss_min =
            *std::min_element(batch_losses.begin(), batch_losses.end());
        record.batch_loss_max =
            *std::max_element(batch_losses.begin(), batch_losses.end());
        double sum = 0.0;
        for (double b : batch_losses) sum += b;
        record.batch_loss_mean =
            sum / static_cast<double>(batch_losses.size());
      }
      grad_norm = GaugeOrZero(now, "adam.grad_norm");
      record.grad_norm = grad_norm;
      record.embedding_norm = param_norm;
      record.adam_lr = GaugeOrZero(now, "adam.lr");
      record.adam_steps = CounterOrZero(now, "adam.steps");
      record.neg_sampled = static_cast<int64_t>(
          now.CounterDelta(epoch_start, "bpr.neg_sampled"));
      record.neg_rejected = static_cast<int64_t>(
          now.CounterDelta(epoch_start, "bpr.neg_rejected"));
      record.checkpoint_writes = CounterOrZero(now, "checkpoint.writes");
      record.checkpoint_fallbacks = CounterOrZero(now, "checkpoint.fallbacks");
      record.watchdog_rollbacks = CounterOrZero(now, "watchdog.rollbacks");
      record.epoch_seconds = epoch_seconds;
      record.graph_seconds =
          SpanDeltaSeconds(now, epoch_start, "train.resample_adjacency");
      record.sampler_seconds =
          SpanDeltaSeconds(now, epoch_start, "train.sampler");
      record.forward_seconds =
          SpanDeltaSeconds(now, epoch_start, "train.forward");
      record.backward_seconds =
          SpanDeltaSeconds(now, epoch_start, "train.backward");
      record.adam_seconds = SpanDeltaSeconds(now, epoch_start, "adam.step");
    }

    // Divergence watchdog: a non-finite loss, gradient norm, or parameter
    // norm means the epoch poisoned the model; roll back to the last good
    // checkpoint with a smaller step size instead of training on NaNs.
    const bool diverged = options.watchdog &&
                          (!std::isfinite(loss) || !std::isfinite(param_norm) ||
                           !std::isfinite(grad_norm));
    if (diverged) {
      if (telemetry != nullptr) telemetry->WriteEpoch(record);
      LAYERGCN_LOG(kWarning)
          << model->name() << " diverged at epoch " << epoch << " (loss "
          << loss << ", param norm " << param_norm << ", grad norm "
          << grad_norm << ")";
      if (manager == nullptr || last_checkpoint_epoch == 0) {
        result.status = util::FailedPreconditionError(
            "training diverged with no checkpoint to roll back to");
        break;
      }
      if (rollbacks >= options.watchdog_max_rollbacks) {
        result.status = util::ResourceExhaustedError(util::StrFormat(
            "training diverged after %d watchdog rollbacks", rollbacks));
        break;
      }
      TrainingState st;
      const util::Status restored =
          manager->RestoreLatest(model->Params(), &st);
      if (!restored.ok()) {
        result.status = restored;
        break;
      }
      ++rollbacks;
      result.watchdog_rollbacks = rollbacks;
      OBS_COUNT("watchdog.rollbacks", 1);
      lr_scale *= options.watchdog_lr_decay;
      model->ScaleLearningRate(lr_scale);
      apply_state(st);
      LAYERGCN_LOG(kWarning)
          << "rolled back to epoch " << st.epoch << " (rollback " << rollbacks
          << "/" << options.watchdog_max_rollbacks << ", lr scale " << lr_scale
          << ")";
      epoch = static_cast<int>(st.epoch);  // loop re-runs st.epoch + 1
      continue;
    }

    const bool checkpoint_due =
        checkpoints != nullptr &&
        std::find(options.checkpoint_epochs.begin(),
                  options.checkpoint_epochs.end(),
                  epoch) != options.checkpoint_epochs.end();
    if (checkpoint_due) {
      PrepareEval(model);
      CheckpointMetrics cm;
      cm.epoch = epoch;
      cm.metrics = EvaluateModel(model, *test_eval, eval::EvalSplit::kTest);
      checkpoints->push_back(std::move(cm));
    }

    if (epoch % config.eval_every == 0) {
      util::Timer eval_timer;
      PrepareEval(model);
      const eval::RankingMetrics vm =
          EvaluateModel(model, valid_eval, eval::EvalSplit::kValidation);
      const double score = vm.recall.at(options.validation_k);
      result.valid_curve.emplace_back(epoch, score);
      if (telemetry != nullptr) {
        record.has_eval = true;
        record.eval_k = options.validation_k;
        record.eval_recall = score;
        record.eval_ndcg = vm.ndcg.at(options.validation_k);
        record.eval_seconds = eval_timer.ElapsedSeconds();
      }
      if (options.verbose) {
        LAYERGCN_LOG(kInfo) << model->name() << " epoch " << epoch << " loss "
                            << loss << " valid R@" << options.validation_k
                            << " = " << score;
      }
      if (score > result.best_valid_score || result.best_epoch == 0) {
        result.best_valid_score = score;
        result.best_epoch = epoch;
        best_snapshot = SnapshotParams(model->Params());
        epochs_since_best = 0;
      } else {
        epochs_since_best += config.eval_every;
        if (epochs_since_best >= config.early_stop_patience) {
          early_stopped = true;
        }
      }
    }
    if (telemetry != nullptr) telemetry->WriteEpoch(record);

    // Cadence checkpoint (plus the loop's natural exit points, so resume
    // never has to repeat a completed run).
    if (manager != nullptr &&
        (epoch % checkpoint_every == 0 || early_stopped ||
         epoch == config.max_epochs)) {
      const util::Status s =
          manager->Write(model->Params(), capture_state(epoch));
      if (!s.ok()) {
        LAYERGCN_LOG(kWarning) << "checkpoint write failed: " << s.ToString();
      } else {
        last_checkpoint_epoch = epoch;
      }
    }
  }
  result.train_seconds = timer.ElapsedSeconds();

  if (!result.status.ok() && best_snapshot.empty()) {
    // Nothing trustworthy to evaluate (e.g. divergence before the first
    // improvement); hand the structured error back instead of scoring
    // poisoned parameters.
    return result;
  }
  if (!best_snapshot.empty()) {
    RestoreParams(model->Params(), best_snapshot);
  }
  PrepareEval(model);
  if (test_eval.has_value()) {
    result.test_metrics =
        EvaluateModel(model, *test_eval, eval::EvalSplit::kTest);
  }
  return result;
}

eval::RankingMetrics EvaluateRecommender(Recommender* model,
                                         const data::Dataset& dataset,
                                         const std::vector<int>& ks,
                                         eval::EvalSplit split) {
  PrepareEval(model);
  eval::Evaluator evaluator(&dataset, ks);
  return EvaluateModel(model, evaluator, split);
}

}  // namespace layergcn::train
