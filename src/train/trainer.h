// The early-stopped training loop shared by all models.
//
// Protocol per the paper (§V-A4): train up to max_epochs epochs, evaluate
// Recall@20 on the validation split every eval_every epochs, stop when the
// best validation score has not improved for early_stop_patience epochs,
// and restore the parameters of the best epoch before the final test
// evaluation.
//
// Fault tolerance (DESIGN.md §11): with TrainOptions::checkpoint_dir set
// the loop writes a rotating v2 checkpoint every checkpoint_every epochs
// and can resume from the newest valid one bit-identically to an
// uninterrupted run. A divergence watchdog rolls back to the last good
// checkpoint when loss / grad norm / parameter norm turn non-finite, and
// SIGINT/SIGTERM request a graceful stop at the next batch boundary.

#ifndef LAYERGCN_TRAIN_TRAINER_H_
#define LAYERGCN_TRAIN_TRAINER_H_

#include <functional>
#include <string>
#include <vector>

#include "eval/evaluator.h"
#include "train/adam.h"
#include "train/recommender.h"
#include "util/status.h"

namespace layergcn::train {

/// Everything the experiment harnesses need from one training run.
struct TrainResult {
  /// Epoch (1-based) with the best validation score.
  int best_epoch = 0;
  /// Best validation Recall@K (K = validation_k).
  double best_valid_score = 0.0;
  /// Test metrics evaluated with the best epoch's parameters (empty when
  /// TrainOptions::report_ks is).
  eval::RankingMetrics test_metrics;
  /// Mean loss per epoch, in order.
  std::vector<double> epoch_losses;
  /// Per-batch losses of every epoch concatenated (Fig. 3(b)); only kept
  /// when TrainOptions::record_batch_losses is set.
  std::vector<double> batch_losses;
  /// Validation score at each evaluated epoch (epoch index, score).
  std::vector<std::pair<int, double>> valid_curve;
  /// Total training epochs actually run.
  int epochs_run = 0;
  /// Wall-clock seconds spent in training (excl. final test eval).
  double train_seconds = 0.0;
  /// Path of the JSONL telemetry stream written during this run; empty when
  /// TrainOptions::telemetry_path was unset or the file could not be opened.
  std::string telemetry_path;
  /// kOk for a run that trained to completion (early stop and graceful
  /// interruption included); otherwise the structured reason training
  /// could not proceed (resume failure, watchdog budget exhausted, ...).
  util::Status status;
  /// True when a graceful-stop request (SIGINT/SIGTERM) ended the loop.
  bool interrupted = false;
  /// Watchdog rollbacks performed during the run.
  int watchdog_rollbacks = 0;
  /// First epoch of this process's loop (> 1 when resumed).
  int start_epoch = 1;
};

/// Knobs of the loop itself (the model hyper-parameters live in
/// TrainConfig).
struct TrainOptions {
  /// Cutoff used for validation-based early stopping.
  int validation_k = 20;
  /// Metric cutoffs to report on the test split. An empty list means no
  /// test-split report: TrainResult::test_metrics stays empty, and
  /// checkpoint_epochs must be empty too (else InvalidArgument).
  std::vector<int> report_ks = {10, 20, 50};
  bool record_batch_losses = false;
  /// Also evaluate test metrics at these epoch checkpoints (paper Table IV
  /// reports epochs 20 and 50). Results appended to checkpoint_metrics.
  std::vector<int> checkpoint_epochs;
  /// Verbose epoch logging.
  bool verbose = false;
  /// When set, one obs::EpochTelemetry JSONL record is streamed here per
  /// epoch (losses, grad/embedding norms, sampler stats, wall-clock
  /// breakdown, validation metrics on evaluated epochs). Enables the
  /// runtime metrics switch for the run.
  std::string telemetry_path;

  // --- Fault tolerance (DESIGN.md §11) ---

  /// When set, a rotating v2 checkpoint (params + optimizer + RNG +
  /// early-stop state) is written here every checkpoint_every epochs.
  std::string checkpoint_dir;
  /// Epoch cadence of checkpoint writes (>= 1).
  int checkpoint_every = 1;
  /// Rotating retention: keep the newest K checkpoint files.
  int keep_checkpoints = 3;
  /// Resume from the newest valid checkpoint in checkpoint_dir before
  /// training. An empty directory starts fresh; a missing checkpoint_dir
  /// is a FailedPrecondition error.
  bool resume = false;

  /// Warm-start hook, invoked once right after model->Init() (parameters
  /// freshly initialized) and before resume/training: the callback may
  /// overwrite parameter values and optimizer state in place — e.g. carry
  /// rows from a previous run's checkpoint into a grown embedding table
  /// (src/pipeline/warm_start.h). A non-OK status aborts the run with that
  /// status in TrainResult::status.
  std::function<util::Status(Recommender*)> warm_start;

  /// Divergence watchdog: per-epoch NaN/Inf checks on loss, gradient norm
  /// and parameter norm, with rollback to the last good checkpoint.
  bool watchdog = true;
  /// Rollback budget before the watchdog gives up with ResourceExhausted.
  int watchdog_max_rollbacks = 2;
  /// Learning-rate multiplier applied (cumulatively) after each rollback;
  /// 1.0 disables the scale-down.
  double watchdog_lr_decay = 0.5;
};

/// Test metrics captured at a requested checkpoint epoch.
struct CheckpointMetrics {
  int epoch = 0;
  eval::RankingMetrics metrics;
};

/// Runs the full loop and returns the result. `checkpoints` (optional)
/// receives test metrics at TrainOptions::checkpoint_epochs.
TrainResult FitRecommender(Recommender* model, const data::Dataset& dataset,
                           const TrainConfig& config,
                           const TrainOptions& options = {},
                           std::vector<CheckpointMetrics>* checkpoints =
                               nullptr);

/// Evaluates an already-trained model on the chosen split.
eval::RankingMetrics EvaluateRecommender(Recommender* model,
                                         const data::Dataset& dataset,
                                         const std::vector<int>& ks,
                                         eval::EvalSplit split);

}  // namespace layergcn::train

#endif  // LAYERGCN_TRAIN_TRAINER_H_
