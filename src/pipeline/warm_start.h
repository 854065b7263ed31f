// WarmStartTrainer: bounded fine-tuning from the latest checkpoint-v2.
//
// A fine-tune run builds a fresh LayerGCN over the grown id space, then —
// instead of training from scratch — carries the previous run's state row
// by row out of its newest valid checkpoint: surviving user rows map to
// [0, prev_users), surviving item rows shift from [prev_users, ...) to
// [num_users, ...) (the unified node space puts users first, so id growth
// displaces the item block), and both the parameter values and the Adam
// moments ride along. Rows born since the last run keep their fresh Xavier
// init. The optimizer step counter is restored so bias correction
// continues where it left off.
//
// Safety rails:
//  - the trainer's divergence watchdog runs as usual (NaN/Inf loss →
//    rollback to this run's last checkpoint, bounded budget);
//  - a quality gate compares Recall@K of the candidate on the current
//    held-out slice against the *serving snapshot* (zero-padded to the
//    grown id space so both models rank the same users) and refuses the
//    candidate when it regresses by more than max_quality_drop —
//    publishing a stale-but-good model beats publishing a fresh-but-worse
//    one (counted as pipeline.train.quality_gate_failures). The
//    candidate's score is the fit's best validation score (the fit
//    validates at quality_k and restores that epoch), so each cycle
//    evaluates only the baseline; a fit that validated no epoch is
//    refused.
//
// Checkpoints of run N live in <checkpoint_root>/run-NNNNNN; run N+1 warm
// starts from run N's directory, so shapes never mix inside one manager's
// rotation window.

#ifndef LAYERGCN_PIPELINE_WARM_START_H_
#define LAYERGCN_PIPELINE_WARM_START_H_

#include <cstdint>
#include <memory>
#include <string>

#include "data/dataset.h"
#include "serve/snapshot.h"
#include "train/recommender.h"
#include "train/trainer.h"
#include "util/status.h"

namespace layergcn::pipeline {

struct WarmStartOptions {
  /// Parent of the per-run checkpoint directories.
  std::string checkpoint_root;
  /// This run's id (monotone across fine-tunes, from the manifest).
  int64_t run_id = 1;
  /// Previous run's checkpoint directory; empty = cold start.
  std::string prev_checkpoint_dir;
  /// Id space the previous checkpoint was written at (row mapping).
  int32_t prev_num_users = 0;
  int32_t prev_num_items = 0;

  /// Epoch budget when warm starting / when cold starting.
  int fine_tune_epochs = 2;
  int bootstrap_epochs = 4;

  /// Quality gate: candidate Recall@quality_k on the validation slice may
  /// undercut the serving snapshot's by at most this relative fraction.
  int quality_k = 20;
  double max_quality_drop = 0.05;

  bool verbose = false;
};

struct WarmStartResult {
  /// The fine-tuned candidate, PrepareEval()ed (embedding view valid).
  std::unique_ptr<train::Recommender> model;
  train::TrainResult fit;
  /// True when previous state was actually carried (false = cold start).
  bool warm_started = false;
  /// Quality-gate verdict; the caller must not publish when false.
  bool gate_passed = false;
  /// The fit's best_valid_score: validation R@quality_k of `model`.
  double candidate_recall = 0.0;
  double baseline_recall = 0.0;
  /// Where this run checkpointed (becomes prev_checkpoint_dir next run).
  std::string checkpoint_dir;
};

class WarmStartTrainer {
 public:
  explicit WarmStartTrainer(train::TrainConfig config)
      : config_(std::move(config)) {}

  /// Runs one bounded fine-tune over `dataset`. `baseline` is the
  /// currently served snapshot (nullptr before the first publish — the
  /// gate then passes trivially). Training failures (watchdog budget
  /// exhausted, checkpoint I/O) surface as the inner status; a gate
  /// refusal is NOT an error — check WarmStartResult::gate_passed.
  util::StatusOr<WarmStartResult> Run(const data::Dataset& dataset,
                                      const serve::ModelSnapshot* baseline,
                                      const WarmStartOptions& options);

  /// The per-run checkpoint directory naming scheme.
  static std::string RunDir(const std::string& root, int64_t run_id);

 private:
  train::TrainConfig config_;
};

}  // namespace layergcn::pipeline

#endif  // LAYERGCN_PIPELINE_WARM_START_H_
