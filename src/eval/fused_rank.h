// One score-and-rank traversal for every embedding encoding and candidate
// set: the paper's scoring step (Eq. 10 — inner product of the final user
// and item embeddings, then a top-K).
//
// The traversal tiles the user axis × the scan's item axis. For each tile
// a per-encoding scoring policy fills a small block of scores, training
// items are dropped inline by walking each user's sorted exclusion list
// with a monotone cursor (no per-user vector<bool>), and the survivors
// stream into bounded per-user top-K heaps. The full score matrix is never
// materialized. The user tiles run as util::parallel::For blocks, one block
// of tiles per pool worker. Scratch — the score block, the heaps, the
// cursors and the policy's own buffers — is allocated once per block and
// reused across its tiles. A one-user call is a single tile and runs inline
// on the caller.
//
// A full scan is the all-items range [0, num_items). A candidate list (the
// ivf re-rank) is a sorted item id list fed through the same tiles, heaps,
// exclusion cursor and deadline checks. Only how a policy reads a run of
// candidates differs; the bits of a (user, item) score never do.
//
// Policy contract (fused_rank.cpp, one policy per ScoreEncoding): user
// rows, a depth-major item panel, and a function scoring a block of m
// users × a run of items.
//   f32   GemmMicroPanel (tensor/gemm.h) over m-user tiles of the item
//         matrix transposed per full-scan call. A candidate run is scored
//         pair by pair from the item rows. Either way each score
//         accumulates its products in ascending depth order in f32,
//         bit-identical to the scalar dot of the materialize-then-rank
//         reference.
//   int8  s_u * s_i * Σ_p qu[p] * qi[p] with the integer dot accumulated
//         exactly in int32 (order-free, deterministic by construction).
//   bf16  Σ_p bf16(u[p]) * bf16(i[p]) accumulated in f32 in ascending depth
//         order.
// The quantized item panels are built once per snapshot load
// (tensor/quant.h); a quantized candidate run is first packed into a small
// panel of its own columns and then scored by the same block loop.
//
// Ranking order is (score desc, index asc), eval::TopKIndices' order. That
// total order makes the top-K set unique, so the result is identical for
// any tile size or worker count within an encoding. Across encodings the
// rankings differ by quantization error.

#ifndef LAYERGCN_EVAL_FUSED_RANK_H_
#define LAYERGCN_EVAL_FUSED_RANK_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "tensor/matrix.h"
#include "tensor/quant.h"

namespace layergcn::eval {

/// Cooperative per-call deadline (serving requests carry one; offline
/// evaluation passes none). The clock is checked before every user tile,
/// the first included, and before every item run of a tile except its
/// first — never inside a score block. So a call whose deadline has
/// already passed ranks nothing, and a tile that starts scores at least
/// one run. On expiry the traversal stops: users whose runs already
/// streamed keep their (possibly truncated) top-K, untouched users come
/// back empty, and `expired` is set so the caller can flag the result
/// partial. Which items were scanned before expiry is timing-dependent, so
/// partial results are NOT deterministic — complete results (expired ==
/// false) remain bit-identical to an undeadlined call.
struct RankDeadline {
  /// Absolute deadline on the obs::NowMicros() clock; 0 disarms the check.
  uint64_t deadline_us = 0;
  /// Set by the kernel when the deadline tripped (workers share the flag).
  std::atomic<bool> expired{false};
};

/// Tuning knobs for the traversal. Work runs on the shared compute pool
/// (util::parallel::ComputePool(); ScopedComputePool overrides it).
struct FusedRankConfig {
  /// When false, an f32 full scan uses the exact-reference
  /// materialize-then-rank fallback (naive dot products + TopKIndices) —
  /// the bit-level oracle the traversal is tested against. Quantized
  /// encodings and candidate lists have no such fallback and ignore it.
  bool enabled = true;
  /// Users scored per tile (heaps live in the scratch of one block).
  int64_t user_tile = 64;
  /// Items scored per run (score block is user_tile x item_tile floats).
  int64_t item_tile = 1024;
};

/// Which embedding encoding a scoring call reads. kF32 is the bit-exact
/// reference; the quantized encodings trade bounded score error for
/// smaller embedding streams.
enum class ScoreEncoding { kF32, kInt8, kBf16 };

const char* ScoreEncodingName(ScoreEncoding encoding);

/// Parses "f32" / "int8" / "bf16". Returns false on anything else.
bool ParseScoreEncoding(const std::string& name, ScoreEncoding* out);

/// The embeddings one ranking call scores, one alternative per encoding.
/// User rows are indexed by user id; every view's users and items share
/// one depth. The f32 item matrix is row-major (one row per item); the
/// quantized item copies are the depth-major panels of tensor/quant.h.
struct F32Scoring {
  const tensor::Matrix* users = nullptr;
  const tensor::Matrix* items = nullptr;
};
struct Int8Scoring {
  const tensor::Int8Rows* users = nullptr;
  const tensor::Int8Panel* items = nullptr;
};
struct Bf16Scoring {
  const tensor::Bf16Rows* users = nullptr;
  const tensor::Bf16Panel* items = nullptr;
};
using ScoringView = std::variant<F32Scoring, Int8Scoring, Bf16Scoring>;

/// Top-K item rankings (best first) for each entry of `user_ids`, scored
/// with `view`'s encoding.
///
/// `candidates` (optional) restricts the scan to a sorted-ascending,
/// duplicate-free list of item ids; the result is then the full scan's
/// ranking filtered to the candidates, score bits included. Null scans
/// every item. `exclude` (optional) maps each user id to its
/// sorted-ascending list of excluded items (training interactions);
/// excluded items never appear in the ranking. Each list has length
/// min(k, scanned items - excluded ones).
///
/// `deadline` (optional) bounds the call's wall clock (see RankDeadline).
/// `scores_out` (optional) receives the score of every returned item,
/// aligned with the returned index lists (dequantized for int8).
std::vector<std::vector<int32_t>> ScoreTopK(
    const ScoringView& view, const std::vector<int32_t>& user_ids,
    const std::vector<int32_t>* candidates, int k,
    const std::vector<std::vector<int32_t>>* exclude,
    const FusedRankConfig& config = {}, RankDeadline* deadline = nullptr,
    std::vector<std::vector<float>>* scores_out = nullptr);

/// ScoreTopK over f32 embeddings and every item: `user_emb` holds one row
/// per *node or user* — `user_ids[r]` indexes into it — and `item_emb`
/// one row per item. The Evaluator's entry; `config.enabled = false`
/// selects the materialize-then-rank reference here too.
std::vector<std::vector<int32_t>> FusedScoreTopK(
    const tensor::Matrix& user_emb, const std::vector<int32_t>& user_ids,
    const tensor::Matrix& item_emb, int k,
    const std::vector<std::vector<int32_t>>* exclude,
    const FusedRankConfig& config = {}, RankDeadline* deadline = nullptr,
    std::vector<std::vector<float>>* scores_out = nullptr);

}  // namespace layergcn::eval

#endif  // LAYERGCN_EVAL_FUSED_RANK_H_
