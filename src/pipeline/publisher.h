// SnapshotPublisher: export → reload the SnapshotStore → confirm.
//
// Publishing is the only pipeline stage that touches the serving path, so
// it is built never to damage it. Each attempt is three steps:
//
//  1. The export is written under its final snap-NNNNNN.lgcn name with
//     the checkpoint writer's atomic discipline (util::WriteFileImage:
//     temp file, fsync, rename), so a crash leaves a `.tmp` file the
//     store ignores or the whole export.
//  2. The store Reload()s. Its load is the export's only validation:
//     every section is CRC-checked, and a damaged newest file is skipped
//     (serve.snapshot_fallbacks) while the previous version keeps
//     serving.
//  3. The publish counts only once the store serves exactly that
//     version; anything else fails the attempt.
//
// A failed attempt is retried up to 3 times with exponential backoff and
// deterministic jitter (pipeline.publish.retries); each retry rewrites
// the file. When the budget is exhausted the publisher reports the error
// and the previous snapshot keeps serving untouched; callers degrade
// health, never the serving path (pipeline.publish.failures).
//
// Fault point `publish.torn_rename` simulates a crash inside step 1: a
// prefix of the export lands under the final snap- name and the attempt
// fails with DATA_LOSS. Recovery is the ordinary retry, which rewrites
// the file, while the store's newest-valid fallback keeps readers off it
// in the meantime.

#ifndef LAYERGCN_PIPELINE_PUBLISHER_H_
#define LAYERGCN_PIPELINE_PUBLISHER_H_

#include <cstdint>
#include <vector>

#include "serve/snapshot.h"
#include "train/recommender.h"
#include "util/rng.h"
#include "util/status.h"

namespace layergcn::pipeline {

struct PublisherOptions {
  /// First backoff; doubles per retry, capped at backoff_max_us.
  uint64_t backoff_base_us = 20'000;
  uint64_t backoff_max_us = 2'000'000;
  /// Snapshot files kept in the store directory (the serving version is
  /// never pruned regardless).
  int keep_snapshots = 4;
};

class SnapshotPublisher {
 public:
  /// `store` must outlive the publisher and be the store serving
  /// store->dir().
  SnapshotPublisher(serve::SnapshotStore* store, PublisherOptions options);

  /// Publishes `version` built from the model's embedding view and the
  /// per-user histories (sorted exclusion lists, one per user row), with
  /// int8 and bf16 copies beside the f32 reference. Blocks through the
  /// retry schedule; on OK the store is serving exactly `version`. On
  /// error the previous snapshot is still serving.
  util::Status Publish(const train::EmbeddingView& view,
                       const std::vector<std::vector<int32_t>>& user_history,
                       int64_t version);

 private:
  void Prune() const;

  serve::SnapshotStore* const store_;
  const PublisherOptions options_;
  util::Rng jitter_rng_;
};

}  // namespace layergcn::pipeline

#endif  // LAYERGCN_PIPELINE_PUBLISHER_H_
