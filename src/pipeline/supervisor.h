// PipelineSupervisor: drives ingest → fine-tune → publish on cadences.
//
// The supervisor owns the pipeline's durable state and its failure
// policy. Durability has exactly two roots — the WAL (every committed
// event) and the manifest (a tiny CRC-guarded file recording the last
// completed fine-tune run id, the id space it was trained at, the
// last published snapshot version, and the event count it consumed).
// Everything else (the merged graph, the in-memory dataset) is a pure
// replay of those roots, so Start() after a crash — or after SIGKILL at
// any instruction — reconstructs the identical state: WAL recovery
// truncates torn tails, the full committed sequence re-feeds the
// DeltaIngestor, and a corrupt/missing manifest degrades to a cold start
// rather than an abort. The manifest is written with util::WriteFileImage
// (fsynced, renamed), so a crash leaves the old manifest or the new one.
// Start() also reads the snapshot directory, the second record of the
// published version: versions continue above the newest snapshot there,
// so a cold start never renames a new model over a published one. Each
// completed run removes every checkpoint run directory but its own, the
// only one the next run reads.
//
// Failure policy per stage (train / publish): a failing stage is retried
// on the next cycle; max_stage_failures *consecutive* failures exhaust
// the restart budget and the supervisor halts with the structured
// util::Status of the last failure (pipeline.supervisor.halted gauge,
// pipeline.stage.*_failures counters). Halting stops state mutation only
// — the already-published snapshot keeps serving, which is the designed
// degraded mode. A stage that overruns stage_deadline_us counts as a
// failure (DeadlineExceeded) even when its work succeeded, so a wedged
// stage surfaces in health before it wedges the whole loop.

#ifndef LAYERGCN_PIPELINE_SUPERVISOR_H_
#define LAYERGCN_PIPELINE_SUPERVISOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "pipeline/delta.h"
#include "pipeline/publisher.h"
#include "pipeline/wal.h"
#include "pipeline/warm_start.h"
#include "serve/snapshot.h"
#include "train/recommender.h"
#include "util/status.h"

namespace layergcn::pipeline {

/// The durable pipeline position: what recovery needs that the WAL alone
/// cannot tell. Saved atomically; a load failure means cold start, never
/// an abort.
struct PipelineManifest {
  int64_t run_id = 0;          ///< last completed fine-tune run (0 = none)
  int32_t num_users = 0;       ///< id space at that run's checkpoints
  int32_t num_items = 0;
  int64_t version = 0;         ///< last successfully published snapshot
  int64_t trained_events = 0;  ///< accepted events consumed by that run

  static util::StatusOr<PipelineManifest> Load(const std::string& path);
  util::Status Save(const std::string& path) const;
};

struct SupervisorOptions {
  /// Pipeline root: wal/, ckpt/, manifest.txt live here.
  std::string root_dir;
  /// Snapshot directory the serving SnapshotStore watches.
  std::string snapshot_dir;

  int64_t wal_segment_bytes = 1 << 20;
  /// Fine-tune once this many new accepted events are waiting.
  int64_t min_train_events = 200;
  /// Wall-clock bound per stage; 0 disables the check.
  uint64_t stage_deadline_us = 0;
  /// Consecutive failures per stage before the supervisor halts.
  int max_stage_failures = 3;
  /// Delete WAL segments fully covered by a successful publish (the
  /// events are baked into the served snapshot and the manifest records
  /// the consumed count). Off by default: replay-everything is the
  /// simplest recovery story; long-running deployments turn this on to
  /// bound disk growth.
  bool gc_covered_wal_segments = false;

  train::TrainConfig train_config;
  /// Budget/gate knobs; checkpoint_root, run_id and prev_* are managed by
  /// the supervisor.
  WarmStartOptions warm;
  PublisherOptions publish;
  DeltaOptions delta;
};

class PipelineSupervisor {
 public:
  /// `store` must outlive the supervisor; it is the serving store over
  /// options.snapshot_dir.
  PipelineSupervisor(SupervisorOptions options, serve::SnapshotStore* store);
  ~PipelineSupervisor();

  /// Recovery: manifest, WAL open (torn tails repaired), full replay of
  /// the committed sequence into the ingestor. Idempotent per process.
  util::Status Start();

  /// Producer entry: appends `events` and commits them durably, then
  /// merges them. A torn commit triggers the in-process recovery drill —
  /// re-open, truncate, re-append the lost suffix — so the committed
  /// sequence (and therefore the merged state) is exactly what an
  /// unfaulted run would have produced. When the drill itself cannot
  /// restore durability (e.g. the disk is full — wal.enospc), the
  /// supervisor halts state mutation and degrades to serving-only: the
  /// published snapshot keeps answering, further Ingest()/RunCycle()
  /// calls return the halt reason, and nothing crashes.
  util::Status Ingest(const std::vector<WalRecord>& events);

  /// One supervision cycle: fine-tune when enough events are pending,
  /// publish when the quality gate passes. Returns the stage error (after
  /// recording it against the restart budget) or OK.
  util::Status RunCycle();

  // --- Introspection -----------------------------------------------------
  struct Counters {
    int64_t ingest_batches = 0;
    int64_t wal_reopens = 0;
    int64_t runs_completed = 0;
    int64_t gate_refusals = 0;
    int64_t train_failures = 0;
    int64_t publishes = 0;
    int64_t publish_failures = 0;
    int64_t deadline_overruns = 0;
  };
  const Counters& counters() const { return counters_; }

  /// True once a stage exhausted its restart budget; serving continues,
  /// state mutation stops. status() carries the reason.
  bool halted() const { return halted_; }
  util::Status status() const { return last_error_; }

  const PipelineManifest& manifest() const { return manifest_; }
  const WalRecoveryStats& wal_recovery() const { return wal_recovery_; }
  int64_t events_committed() const {
    return wal_ != nullptr ? wal_->committed_records() : 0;
  }
  int64_t events_pending_train() const {
    return ingestor_.accepted() - manifest_.trained_events;
  }
  DeltaIngestor& ingestor() { return ingestor_; }

 private:
  util::Status TrainAndMaybePublish();
  /// Records a stage outcome against the restart budget; returns `st`.
  util::Status StageResult(const char* stage, int* consecutive,
                           util::Status st);
  /// Irrecoverable WAL failure: stop mutating state, keep serving.
  util::Status HaltIngestion(util::Status cause);

  SupervisorOptions options_;
  serve::SnapshotStore* const store_;
  std::string manifest_path_;

  std::unique_ptr<InteractionWal> wal_;
  WalRecoveryStats wal_recovery_;
  DeltaIngestor ingestor_;
  std::unique_ptr<SnapshotPublisher> publisher_;
  PipelineManifest manifest_;

  Counters counters_;
  int consecutive_train_failures_ = 0;
  int consecutive_publish_failures_ = 0;
  bool halted_ = false;
  bool started_ = false;
  util::Status last_error_;
};

}  // namespace layergcn::pipeline

#endif  // LAYERGCN_PIPELINE_SUPERVISOR_H_
