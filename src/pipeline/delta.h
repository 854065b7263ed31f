// DeltaIngestor: folds committed WAL records into the live interaction set.
//
// The ingestor owns the mutable interaction state of the pipeline — a
// deduplicated event set routed into train / validation / test slices.
// Each fine-tune takes that state as a fresh Dataset (BuildDataset()),
// whose training graph and normalized adjacency the trainer builds.
//
// Determinism: applying the same committed record sequence always produces
// the same state — id spaces grow to max-seen-id + 1, duplicates are
// dropped by (user, item) identity, and the held-out routing is a pure
// function of the acceptance index. Digest() condenses the whole merged
// state into one CRC-32 so tests and the chaos harness can assert that a
// crash-recovered replay is bit-identical to an unfaulted run.

#ifndef LAYERGCN_PIPELINE_DELTA_H_
#define LAYERGCN_PIPELINE_DELTA_H_

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "data/dataset.h"
#include "pipeline/wal.h"

namespace layergcn::pipeline {

struct DeltaOptions {
  /// Dataset name stamped on BuildDataset() results.
  std::string name = "pipeline";
  /// Of every `holdout_cycle` accepted events, one is routed to the
  /// validation slice and one to the test slice (>= 3; the rest train).
  int holdout_cycle = 10;
  /// Events with ids at or beyond these bounds are rejected (poisoned
  /// producer protection), counted as pipeline.ingest.rejected.
  int32_t max_users = 1 << 22;
  int32_t max_items = 1 << 22;
};

/// Outcome of one Apply() batch.
struct IngestStats {
  int64_t applied = 0;     ///< unique, in-range events accepted
  int64_t duplicates = 0;  ///< (user, item) already present, dropped
  int64_t rejected = 0;    ///< out-of-range ids, dropped + counted
  int32_t new_users = 0;   ///< id-space growth caused by this batch
  int32_t new_items = 0;
};

class DeltaIngestor {
 public:
  explicit DeltaIngestor(DeltaOptions options = {});

  /// Merges a batch of committed WAL records. Deterministic and
  /// idempotent: re-applying an already-seen record is a duplicate no-op,
  /// so a full replay after a crash converges to the same state.
  IngestStats Apply(const std::vector<WalRecord>& records);

  int32_t num_users() const { return num_users_; }
  int32_t num_items() const { return num_items_; }
  /// Unique events accepted so far (train + valid + test).
  int64_t accepted() const { return accepted_; }
  int64_t train_edges() const { return static_cast<int64_t>(train_.size()); }

  /// Assembles the full Dataset (train graph + held-out ground truth) for
  /// a fine-tune run. Cold-start held-out entries are dropped by
  /// data::BuildDataset as usual.
  data::Dataset BuildDataset() const;

  /// CRC-32 over the canonical merged state (id space + every slice,
  /// sorted): equal digests <=> bit-identical merged state.
  uint32_t Digest() const;

 private:
  void Route(const data::Interaction& ev);

  DeltaOptions options_;
  std::unordered_set<int64_t> seen_;
  std::vector<data::Interaction> train_, valid_, test_;
  int32_t num_users_ = 0;
  int32_t num_items_ = 0;
  int64_t accepted_ = 0;
};

}  // namespace layergcn::pipeline

#endif  // LAYERGCN_PIPELINE_DELTA_H_
