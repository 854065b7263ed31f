// Binary checkpointing of model parameters and full training state.
//
// Format v2 (little-endian), per-section CRC-checksummed records:
//
//   magic "LGCN" | uint32 version=2 | uint32 section count
//   per section: uint32 tag | uint64 payload length | payload bytes |
//                uint32 CRC-32 of the payload
//
// Section tags (unknown tags are skipped on load, so the format is
// forward-extensible):
//   1 meta           epoch, best epoch/score, early-stop patience state,
//                    optimizer step count, seed, sampler cursor
//   2 rng            the trainer's util::Rng stream state (6 x uint64)
//   3 param values   named-matrix table: uint32 count, then per entry
//                    uint32 name length | name | int64 rows | int64 cols |
//                    rows*cols float32
//   4 adam m         first-moment table (same layout as 3)
//   5 adam v         second-moment table
//   6 best snapshot  parameter values of the best validation epoch
//   7 history        epoch losses + validation curve
//   8 serve history  per-user training histories (serving exports only)
//   9 serve meta     serving-export version + shape summary
//  10 serve int8     per-row-scale int8 user/item embedding copies
//  11 serve bf16     bf16 user/item embedding copies
//
// Writes are atomic: the file is serialized to a buffer, written to
// `path.tmp`, flushed/synced, and renamed over `path`, so a crash never
// leaves a half-written file under the final name. CheckpointManager adds
// rotating last-K retention and falls back to the newest *valid* file when
// the latest is torn or corrupt.
//
// Any other version (the retired params-only v1 included) is DataLoss. I/O
// and corruption problems surface as util::Status; nothing here aborts.

#ifndef LAYERGCN_TRAIN_CHECKPOINT_H_
#define LAYERGCN_TRAIN_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "tensor/matrix.h"
#include "tensor/quant.h"
#include "train/parameter.h"
#include "util/rng.h"
#include "util/status.h"

namespace layergcn::train {

/// Everything beyond raw parameter values that a resumed run needs in
/// order to continue bit-identically to an uninterrupted one.
struct TrainingState {
  /// Last fully completed epoch (1-based); resume continues at epoch + 1.
  int64_t epoch = 0;

  // Early-stopping state of the trainer loop.
  int64_t best_epoch = 0;
  double best_valid_score = 0.0;
  int64_t epochs_since_best = 0;

  /// Adam bias-correction step counter (moments live on the parameters).
  int64_t optimizer_steps = 0;
  /// Seed the run was started with (resume sanity check).
  uint64_t seed = 0;
  /// BPR sampler position in its shuffled edge order (at an epoch boundary
  /// this equals the edge count; kept for completeness and diagnostics).
  uint64_t sampler_cursor = 0;

  /// Trainer RNG stream state; has_rng distinguishes a restored stream
  /// from a params-only checkpoint.
  bool has_rng = false;
  util::Rng::State rng;

  // Result history so a resumed TrainResult matches the uninterrupted one.
  std::vector<double> epoch_losses;
  std::vector<std::pair<int64_t, double>> valid_curve;

  /// Parameter values at the best validation epoch (empty before the
  /// first evaluation improves on zero).
  std::vector<std::pair<std::string, tensor::Matrix>> best_snapshot;
};

/// Writes a v2 checkpoint atomically (buffer -> temp file -> rename).
/// `state` may be nullptr for a params-only checkpoint (no meta / rng /
/// moment sections beyond the Adam moments, which are always written).
util::Status SaveCheckpointV2(const std::string& path,
                              const std::vector<Parameter*>& params,
                              const TrainingState* state);

/// Loads parameter values and Adam moments into matching parameters by
/// name; `state` (optional) receives the training state when the file
/// carries it. Every parameter in `params` must be present in the file with
/// an identical shape; extra entries in the file are ignored. Returns the
/// number of parameters restored, or a Status describing the corruption /
/// mismatch — never aborts.
util::StatusOr<int> LoadCheckpointV2(const std::string& path,
                                     const std::vector<Parameter*>& params,
                                     TrainingState* state);

/// Validates that `path` parses end-to-end (header, sections, CRCs)
/// without applying it to any parameters.
util::Status ValidateCheckpoint(const std::string& path);

/// Rotating checkpoint directory: writes ckpt-NNNNNN.lgcn files, keeps the
/// most recent `keep_last`, and restores from the newest file that passes
/// validation, skipping torn/corrupt ones (counted as
/// `checkpoint.fallbacks` in the metrics registry).
class CheckpointManager {
 public:
  /// `keep_last` >= 1. The directory is created on the first Write().
  explicit CheckpointManager(std::string dir, int keep_last = 3);

  const std::string& dir() const { return dir_; }

  /// Atomically writes the checkpoint for state.epoch and prunes old files
  /// beyond keep_last. Increments `checkpoint.writes`.
  util::Status Write(const std::vector<Parameter*>& params,
                     const TrainingState& state);

  /// Restores the newest valid checkpoint into `params`/`state`. Corrupt
  /// files are skipped (newest first) with a warning; kNotFound when the
  /// directory holds no valid checkpoint.
  util::Status RestoreLatest(const std::vector<Parameter*>& params,
                             TrainingState* state);

  /// (epoch, path) of every well-named checkpoint file, ascending epoch.
  static std::vector<std::pair<int64_t, std::string>> ListCheckpoints(
      const std::string& dir);

  /// The file name Write() uses for `epoch`.
  static std::string CheckpointPath(const std::string& dir, int64_t epoch);

 private:
  std::string dir_;
  int keep_last_;
};

/// Embedding-only serving export — the fixed final embeddings a serving
/// process needs (PAPER.md Eq. 7 makes inference a snapshot of user/item
/// matrices), in the v2 container (per-section CRCs, atomic temp+rename
/// write): the value table carries the "serve.user_emb" / "serve.item_emb"
/// matrices, section 8 the per-user training histories (serve-side
/// exclusion lists + popularity source), section 9 the export meta,
/// sections 10/11 the optional int8 (per-row-scale) and bf16 quantized
/// embedding copies for bandwidth-conscious scoring. The f32 matrices are
/// always written — they are the bit-exact reference, and old (pre-quant)
/// snapshots load exactly as before. Training state is deliberately
/// absent: a snapshot is immutable serving data, not a resume point.
struct ServingExport {
  /// Monotone snapshot version (by convention the epoch that produced it).
  int64_t version = 0;
  tensor::Matrix user_emb;  // one row per user id
  tensor::Matrix item_emb;  // one row per item id
  /// Sorted-ascending training items per user; size = user_emb.rows().
  std::vector<std::vector<int32_t>> user_history;

  // --- Save-side knobs ---------------------------------------------------
  /// Which quantized sections SaveServingExport derives from the f32
  /// matrices and writes alongside them (both on by default; the f32
  /// reference is unconditional).
  bool write_int8 = true;
  bool write_bf16 = true;

  // --- Load-side results -------------------------------------------------
  /// Decoded quantized sections, valid only when the matching has_ flag is
  /// set. SaveServingExport ignores these (it re-derives from f32).
  bool has_int8 = false;
  bool has_bf16 = false;
  tensor::Int8Rows user_int8, item_int8;
  tensor::Bf16Rows user_bf16, item_bf16;
  /// Set by LoadServingExport when a quantized section was present but
  /// corrupt, truncated, or shape-inconsistent: the quantized copy was
  /// dropped and scoring must fall back to the still-valid f32 reference
  /// (callers count this as serve.snapshot_fallbacks).
  bool quant_dropped = false;
};

/// Writes `ex` atomically. InvalidArgument when the shapes are inconsistent
/// (width mismatch, history size != user count, out-of-range item ids).
util::Status SaveServingExport(const std::string& path,
                               const ServingExport& ex);

/// Reads a serving export back. Corruption (bad magic, CRC mismatch,
/// truncation) and missing serve sections surface as DataLoss — never UB;
/// the fault points `serve.snapshot_bit_flip` / `serve.reload_torn_read`
/// damage the in-memory file image on the next read when armed.
util::StatusOr<ServingExport> LoadServingExport(const std::string& path);

}  // namespace layergcn::train

#endif  // LAYERGCN_TRAIN_CHECKPOINT_H_
