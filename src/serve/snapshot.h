// Immutable model snapshots and the directory store that hot-swaps them.
//
// Serving never touches training state: a snapshot is the fixed final
// user/item embedding matrices (PAPER.md Eq. 7 makes inference a pair of
// matrix lookups plus a dot product) together with the per-user training
// histories used as exclusion lists and as the popularity source for
// degraded mode. Snapshots are loaded from the checkpoint-v2 serving
// export (train/checkpoint.h) — per-section CRCs make corruption a
// structured DataLoss, never UB.
//
// SnapshotStore manages a directory of snap-NNNNNN.lgcn files. Reload()
// loads the newest file that validates, falling back version by version
// across the directory when the newest is torn or bit-flipped (counted as
// serve.snapshot_fallbacks), and publishes the result with an atomic
// shared_ptr swap: requests in flight keep the snapshot they started with,
// new requests see the new one, and a failed reload leaves the previous
// snapshot serving.

#ifndef LAYERGCN_SERVE_SNAPSHOT_H_
#define LAYERGCN_SERVE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "eval/fused_rank.h"
#include "serve/item_index.h"
#include "tensor/matrix.h"
#include "tensor/quant.h"
#include "util/status.h"

namespace layergcn::serve {

/// A fully validated, immutable in-memory model snapshot. Construction
/// goes through Load(); every accessor is safe to call concurrently.
class ModelSnapshot {
 public:
  /// Reads a serving export and precomputes the popularity ranking.
  /// Corruption and shape problems surface as the underlying
  /// LoadServingExport status (DataLoss / NotFound / ...).
  ///
  /// When `index_options` is non-null, an ItemIndex (IVF coarse quantizer
  /// for two-stage retrieval) is built over the item embeddings as part of
  /// the load. An index build failure does NOT fail the load: the snapshot
  /// publishes without an index (has_index() == false, counted as
  /// serve.retrieval.index_build_failures) and the service falls back to
  /// exact retrieval per request — degraded throughput beats refusing a
  /// valid model.
  static util::StatusOr<std::shared_ptr<const ModelSnapshot>> Load(
      const std::string& path,
      const ItemIndexOptions* index_options = nullptr);

  int64_t version() const { return version_; }
  int64_t num_users() const { return user_emb_.rows(); }
  int64_t num_items() const { return item_emb_.rows(); }
  int64_t dim() const { return user_emb_.cols(); }

  const tensor::Matrix& user_emb() const { return user_emb_; }
  const tensor::Matrix& item_emb() const { return item_emb_; }

  /// Quantized embedding copies, present when the serving export carried
  /// valid int8 / bf16 sections. Item sides are pre-transposed to
  /// depth-major panels at load time so quantized scoring does no
  /// per-request transpose. A snapshot whose quant sections were
  /// corrupt or absent simply reports has_int8()/has_bf16() == false and
  /// serves from the f32 reference.
  bool has_int8() const { return has_int8_; }
  bool has_bf16() const { return has_bf16_; }
  const tensor::Int8Rows& user_int8() const { return user_int8_; }
  const tensor::Int8Panel& item_int8_panel() const { return item_int8_panel_; }
  const tensor::Bf16Rows& user_bf16() const { return user_bf16_; }
  const tensor::Bf16Panel& item_bf16_panel() const { return item_bf16_panel_; }

  /// The copy `encoding` scores, as the rank traversal's view. f32 is always
  /// present; a quantized encoding must be (has_int8() / has_bf16()).
  eval::ScoringView scoring(eval::ScoreEncoding encoding) const;

  /// Sorted-ascending training items per user id (exclusion lists).
  const std::vector<std::vector<int32_t>>& user_history() const {
    return user_history_;
  }

  /// Every item id ordered by (training interaction count desc, id asc) —
  /// the ranking degraded mode serves when model scoring is unavailable.
  const std::vector<int32_t>& popular_items() const { return popular_items_; }

  /// Training interaction count per item id (the popularity "score").
  const std::vector<int64_t>& item_counts() const { return item_counts_; }

  /// The IVF candidate-generation index, when the load was asked to build
  /// one and the build succeeded.
  bool has_index() const { return index_ != nullptr; }
  const ItemIndex& item_index() const { return *index_; }

 private:
  ModelSnapshot() = default;

  int64_t version_ = 0;
  tensor::Matrix user_emb_;
  tensor::Matrix item_emb_;
  std::vector<std::vector<int32_t>> user_history_;
  std::vector<int32_t> popular_items_;
  std::vector<int64_t> item_counts_;

  bool has_int8_ = false;
  bool has_bf16_ = false;
  tensor::Int8Rows user_int8_;
  tensor::Int8Panel item_int8_panel_;
  tensor::Bf16Rows user_bf16_;
  tensor::Bf16Panel item_bf16_panel_;
  std::shared_ptr<const ItemIndex> index_;
};

/// Directory of versioned snapshot files with newest-valid loading and
/// atomic hot-swap publication. Thread-safe.
class SnapshotStore {
 public:
  explicit SnapshotStore(std::string dir) : dir_(std::move(dir)) {}

  const std::string& dir() const { return dir_; }

  /// The file name used for snapshot `version`: dir/snap-NNNNNN.lgcn.
  static std::string SnapshotPath(const std::string& dir, int64_t version);

  /// (version, path) of every well-named snapshot file, ascending version.
  static std::vector<std::pair<int64_t, std::string>> ListSnapshots(
      const std::string& dir);

  /// Asks future Reload()s to build an ItemIndex with these options as
  /// part of every snapshot load (call before Reload; does not rebuild the
  /// currently published snapshot's index).
  void SetIndexOptions(const ItemIndexOptions& options);

  /// Loads the newest snapshot that validates end-to-end, skipping corrupt
  /// files newest-first (each skip increments serve.snapshot_fallbacks),
  /// and swaps it in. When every file fails — or the directory is empty —
  /// the previous snapshot (if any) keeps serving and the error is
  /// returned. Re-loading the already-current version is a cheap no-op.
  util::Status Reload();

  /// The currently published snapshot; nullptr before the first successful
  /// Reload(). The returned shared_ptr keeps the snapshot alive across a
  /// concurrent hot-swap.
  std::shared_ptr<const ModelSnapshot> current() const;

  /// obs::NowMicros() timestamp of the last publication (0 before the
  /// first). Health reporting derives snapshot age from this.
  uint64_t published_at_us() const;

  /// Retention: deletes snapshot files beyond the newest `keep` *valid*
  /// ones (each candidate is CRC-validated before it counts toward the
  /// quota, so corrupt files never shield good history from the fallback
  /// walk). The currently serving version is never deleted regardless of
  /// age. Returns the number of files removed (also counted as
  /// serve.snapshots_pruned).
  int64_t Retain(int keep);

 private:
  std::string dir_;
  mutable std::mutex mu_;
  std::shared_ptr<const ModelSnapshot> current_;
  uint64_t published_at_us_ = 0;
  bool build_index_ = false;
  ItemIndexOptions index_options_;
};

}  // namespace layergcn::serve

#endif  // LAYERGCN_SERVE_SNAPSHOT_H_
