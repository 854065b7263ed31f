#include "eval/fused_rank.h"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "eval/metrics.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "tensor/gemm.h"
#include "util/fault_injection.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace layergcn::eval {
namespace {

using Rankings = std::vector<std::vector<int32_t>>;
using Scores = std::vector<std::vector<float>>;

// True when the deadline is armed and has passed. The first worker to see
// the clock run out latches `expired` so later checks (and the caller) skip
// the clock read.
bool DeadlineExpired(RankDeadline* deadline) {
  if (deadline == nullptr || deadline->deadline_us == 0) return false;
  if (deadline->expired.load(std::memory_order_relaxed)) return true;
  if (obs::NowMicros() < deadline->deadline_us) return false;
  if (!deadline->expired.exchange(true, std::memory_order_relaxed)) {
    OBS_COUNT("fused_rank.deadline_expired", 1);
  }
  return true;
}

// Fault point `serve.slow_score`: stall scoring until just past the armed
// deadline so the next boundary check trips mid-request. Only meaningful
// when a deadline is set (otherwise there is nothing to overrun).
void MaybeSlowScore(const RankDeadline* deadline) {
  if (deadline == nullptr || deadline->deadline_us == 0) return;
  if (!util::fault::Fire("serve.slow_score")) return;
  const uint64_t until = deadline->deadline_us + 1000;
  while (obs::NowMicros() < until) {
  }
}

// Heap entry ordered by (score desc, index asc) — the TopKIndices order.
struct HeapEntry {
  float score;
  int32_t idx;
};

// True when `a` ranks strictly below `b`.
bool Worse(const HeapEntry& a, const HeapEntry& b) {
  return a.score != b.score ? a.score < b.score : a.idx > b.idx;
}

// Bounded min-heap over a flat array: the root is the worst kept entry.
void HeapPush(HeapEntry* h, int64_t* size, int64_t cap, HeapEntry e) {
  if (*size < cap) {
    int64_t i = (*size)++;
    h[i] = e;
    while (i > 0) {
      const int64_t parent = (i - 1) / 2;
      if (!Worse(h[i], h[parent])) break;
      std::swap(h[i], h[parent]);
      i = parent;
    }
    return;
  }
  if (!Worse(h[0], e)) return;
  h[0] = e;
  int64_t i = 0;
  for (;;) {
    const int64_t l = 2 * i + 1;
    const int64_t r = 2 * i + 2;
    int64_t worst = i;
    if (l < cap && Worse(h[l], h[worst])) worst = l;
    if (r < cap && Worse(h[r], h[worst])) worst = r;
    if (worst == i) break;
    std::swap(h[i], h[worst]);
    i = worst;
  }
}

// The f32 score of one pair: products accumulated in ascending depth order
// in f32, the order GemmMicroPanel keeps for every output element.
float Dot(const float* a, const float* b, int64_t depth) {
  float acc = 0.f;
  for (int64_t p = 0; p < depth; ++p) acc += a[p] * b[p];
  return acc;
}

// `n` consecutive positions of the scan starting at `j0`: items j0 .. j0+n-1
// on a full scan, the candidate ids ids[0 .. n) on a candidate scan.
struct Run {
  int64_t j0;
  int64_t n;
  const int32_t* ids;  // null on a full scan

  int32_t item(int64_t j) const {
    return ids != nullptr ? ids[j] : static_cast<int32_t>(j0 + j);
  }
};

// `v`'s storage, grown to at least `n` elements. Scratch lives as long as
// one block of user tiles and a block's first tile and run are its
// largest, so each buffer is allocated once per block.
template <typename T>
T* Grow(std::vector<T>* v, int64_t n) {
  if (static_cast<int64_t>(v->size()) < n) v->resize(static_cast<size_t>(n));
  return v->data();
}

// The run's slice of a depth-major panel (`depth` rows of `count` items)
// and its leading dimension: the panel itself from column j0 on a full
// scan, or the run's candidate columns copied into `packed` on a candidate
// scan — read the same way either way.
template <typename T>
std::pair<const T*, int64_t> RunPanel(const T* panel, int64_t count,
                                      int64_t depth, const Run& run,
                                      std::vector<T>* packed) {
  if (run.ids == nullptr) return {panel + run.j0, count};
  T* dst = Grow(packed, depth * run.n);
  for (int64_t p = 0; p < depth; ++p) {
    const T* src = panel + p * count;
    for (int64_t j = 0; j < run.n; ++j) dst[p * run.n + j] = src[run.ids[j]];
  }
  return {dst, run.n};
}

// Scoring policies, one per view type. Each one provides
//   Policy(view, full_scan)   checks shapes; builds per-call state
//   num_items()               items a full scan covers
//   Scratch                   its buffers; one per block, grown on use
//   Score(users, m, run, out, &scratch)
//                             out[r * run.n + j] = score(users[r],
//                             run.item(j)) for r < m, j < run.n
template <typename View>
class Policy;

template <>
class Policy<F32Scoring> {
 public:
  static constexpr const char* kSpan = "eval.fused_rank";

  Policy(const F32Scoring& view, bool full_scan)
      : users_(*view.users), items_(*view.items) {
    LAYERGCN_CHECK_EQ(users_.cols(), items_.cols())
        << "user/item embedding width mismatch";
    if (!full_scan) return;
    // Item embeddings transposed once per call to (depth x num_items): the
    // micro-kernel streams items with unit stride and every block shares
    // the panel.
    panel_ = tensor::Matrix(items_.cols(), items_.rows());
    for (int64_t i = 0; i < items_.rows(); ++i) {
      const float* src = items_.row(i);
      for (int64_t p = 0; p < items_.cols(); ++p) panel_(p, i) = src[p];
    }
  }

  int64_t num_items() const { return items_.rows(); }

  struct Scratch {
    std::vector<const float*> user_rows;
  };

  void Score(const int32_t* users, int64_t m, const Run& run, float* out,
             Scratch* s) const {
    const int64_t depth = items_.cols();
    if (run.ids != nullptr) {
      // A candidate run is scored straight from the item rows, since
      // transposing it first would write as many bytes as scoring reads.
      // Each pair keeps its own ascending-depth f32 chain (the bits
      // GemmMicroPanel produces); four pairs advance together so their
      // adds overlap.
      for (int64_t r = 0; r < m; ++r) {
        const float* urow = users_.row(users[r]);
        float* o = out + r * run.n;
        int64_t j = 0;
        for (; j + 4 <= run.n; j += 4) {
          const float* x0 = items_.row(run.ids[j]);
          const float* x1 = items_.row(run.ids[j + 1]);
          const float* x2 = items_.row(run.ids[j + 2]);
          const float* x3 = items_.row(run.ids[j + 3]);
          float a0 = 0.f, a1 = 0.f, a2 = 0.f, a3 = 0.f;
          for (int64_t p = 0; p < depth; ++p) {
            const float up = urow[p];
            a0 += up * x0[p];
            a1 += up * x1[p];
            a2 += up * x2[p];
            a3 += up * x3[p];
          }
          o[j] = a0;
          o[j + 1] = a1;
          o[j + 2] = a2;
          o[j + 3] = a3;
        }
        for (; j < run.n; ++j) {
          o[j] = Dot(urow, items_.row(run.ids[j]), depth);
        }
      }
      return;
    }
    const float** rows = Grow(&s->user_rows, m);
    for (int64_t r = 0; r < m; ++r) rows[r] = users_.row(users[r]);
    std::fill(out, out + m * run.n, 0.f);
    tensor::GemmMicroPanel(rows, m, depth, panel_, run.j0, run.n, out,
                           run.n);
  }

 private:
  const tensor::Matrix& users_;
  const tensor::Matrix& items_;
  tensor::Matrix panel_;  // depth x num_items, full scans only
};

template <>
class Policy<Int8Scoring> {
 public:
  static constexpr const char* kSpan = "eval.quant_rank.int8";

  Policy(const Int8Scoring& view, bool /*full_scan*/)
      : users_(*view.users), items_(*view.items) {
    LAYERGCN_CHECK_EQ(users_.cols, items_.depth)
        << "int8 user/item depth mismatch";
  }

  int64_t num_items() const { return items_.count; }

  struct Scratch {
    std::vector<int32_t> acc;
    std::vector<int8_t> packed;
    std::vector<float> packed_scales;
  };

  void Score(const int32_t* users, int64_t m, const Run& run, float* out,
             Scratch* s) const {
    const int64_t depth = items_.depth;
    const auto [panel, ld] =
        RunPanel(items_.data.data(), items_.count, depth, run, &s->packed);
    // The item scales are a one-row panel.
    const float* scales = RunPanel(items_.scales.data(), items_.count, 1,
                                   run, &s->packed_scales)
                              .first;
    int32_t* a = Grow(&s->acc, run.n);
    for (int64_t r = 0; r < m; ++r) {
      std::fill(a, a + run.n, 0);
      const int8_t* urow = users_.row(users[r]);
      for (int64_t p = 0; p < depth; ++p) {
        const int32_t uq = urow[p];
        if (uq == 0) continue;
        const int8_t* prow = panel + p * ld;
#pragma omp simd
        for (int64_t j = 0; j < run.n; ++j) {
          a[j] += uq * static_cast<int32_t>(prow[j]);
        }
      }
      const float su = users_.scales[static_cast<size_t>(users[r])];
      float* o = out + r * run.n;
#pragma omp simd
      for (int64_t j = 0; j < run.n; ++j) {
        o[j] = su * scales[j] * static_cast<float>(a[j]);
      }
    }
  }

 private:
  const tensor::Int8Rows& users_;
  const tensor::Int8Panel& items_;
};

template <>
class Policy<Bf16Scoring> {
 public:
  static constexpr const char* kSpan = "eval.quant_rank.bf16";

  Policy(const Bf16Scoring& view, bool /*full_scan*/)
      : users_(*view.users), items_(*view.items) {
    LAYERGCN_CHECK_EQ(users_.cols, items_.depth)
        << "bf16 user/item depth mismatch";
  }

  int64_t num_items() const { return items_.count; }

  struct Scratch {
    std::vector<float> user_row;
    std::vector<uint16_t> packed;
  };

  void Score(const int32_t* users, int64_t m, const Run& run, float* out,
             Scratch* s) const {
    const int64_t depth = items_.depth;
    const auto [panel, ld] =
        RunPanel(items_.data.data(), items_.count, depth, run, &s->packed);
    float* urow = Grow(&s->user_row, depth);
    for (int64_t r = 0; r < m; ++r) {
      // The user row widens to f32 once per block; items widen in-register
      // in the inner loop (a 16-bit shift, vectorizable).
      const uint16_t* uq = users_.row(users[r]);
      for (int64_t p = 0; p < depth; ++p) urow[p] = tensor::Bf16ToF32(uq[p]);
      float* o = out + r * run.n;
      std::fill(o, o + run.n, 0.f);
      for (int64_t p = 0; p < depth; ++p) {
        const float up = urow[p];
        const uint16_t* prow = panel + p * ld;
#pragma omp simd
        for (int64_t j = 0; j < run.n; ++j) {
          o[j] += up * tensor::Bf16ToF32(prow[j]);
        }
      }
    }
  }

 private:
  const tensor::Bf16Rows& users_;
  const tensor::Bf16Panel& items_;
};

// The traversal every encoding and candidate set runs through.
template <typename View>
Rankings Traverse(const View& view, const std::vector<int32_t>& user_ids,
                  const std::vector<int32_t>* candidates, int k,
                  const std::vector<std::vector<int32_t>>* exclude,
                  const FusedRankConfig& config, RankDeadline* deadline,
                  Scores* scores_out) {
  const int64_t num_users = static_cast<int64_t>(user_ids.size());
  Rankings out(user_ids.size());
  if (num_users == 0) return out;
  const Policy<View> policy(view, candidates == nullptr);
  const int32_t* ids = candidates != nullptr ? candidates->data() : nullptr;
  const int64_t n = candidates != nullptr
                        ? static_cast<int64_t>(candidates->size())
                        : policy.num_items();
  if (n == 0) return out;
  OBS_SPAN(Policy<View>::kSpan);
  OBS_COUNT("fused_rank.calls", 1);
  OBS_COUNT("fused_rank.users_ranked", num_users);
  if (ids != nullptr) OBS_COUNT("fused_rank.candidate_calls", 1);
  if constexpr (std::is_same_v<View, F32Scoring>) {
    // The f32 blocks stream through GemmMicroPanel, which is not
    // instrumented (it is the innermost hot loop); account for it here.
    OBS_COUNT("gemm.calls", 1);
    OBS_COUNT("gemm.flops", 2 * num_users * n * view.items->cols());
  }

  // Tiles never exceed the scan, so a one-user call allocates one user's
  // scratch; the tiling itself is unchanged by the clamps.
  const int64_t user_tile = std::clamp<int64_t>(config.user_tile, 1,
                                                num_users);
  const int64_t item_tile = std::max<int64_t>(
      tensor::kGemmTileN, std::min<int64_t>(config.item_tile, n));
  const int64_t cap = std::min<int64_t>(k, n);
  const int64_t num_tiles = (num_users + user_tile - 1) / user_tile;

  // One block of user tiles per pool worker, with its own scratch. Blocks
  // write disjoint users, so where their boundaries fall never shows.
  const int64_t width = util::parallel::ComputePool()->num_threads();
  util::parallel::For(
      num_tiles,
      [&](int64_t tile_lo, int64_t tile_hi) {
        OBS_SPAN("eval.fused_rank.tiles");
        OBS_COUNT("fused_rank.tiles", tile_hi - tile_lo);
        typename Policy<View>::Scratch scratch;
        std::vector<float> scores(static_cast<size_t>(user_tile * item_tile));
        std::vector<HeapEntry> heaps(static_cast<size_t>(user_tile * cap));
        std::vector<int64_t> heap_sizes(static_cast<size_t>(user_tile));
        std::vector<size_t> cursors(static_cast<size_t>(user_tile));

        for (int64_t tile = tile_lo; tile < tile_hi; ++tile) {
          if (DeadlineExpired(deadline)) break;  // untouched users stay empty
          const int64_t base = tile * user_tile;
          const int64_t m = std::min(user_tile, num_users - base);
          const int32_t* users = user_ids.data() + base;
          std::fill(heap_sizes.begin(), heap_sizes.begin() + m, 0);
          std::fill(cursors.begin(), cursors.begin() + m, 0);

          for (int64_t j0 = 0; j0 < n; j0 += item_tile) {
            MaybeSlowScore(deadline);
            if (j0 > 0 && DeadlineExpired(deadline)) break;
            const Run run{j0, std::min(item_tile, n - j0),
                          ids != nullptr ? ids + j0 : nullptr};
            policy.Score(users, m, run, scores.data(), &scratch);

            // Runs arrive in ascending item order, so each user's sorted
            // exclusion list is walked by a single monotone cursor.
            for (int64_t r = 0; r < m; ++r) {
              const std::vector<int32_t>* exc =
                  exclude != nullptr
                      ? &(*exclude)[static_cast<size_t>(users[r])]
                      : nullptr;
              size_t& cur = cursors[static_cast<size_t>(r)];
              const float* srow = scores.data() + r * run.n;
              HeapEntry* heap = heaps.data() + r * cap;
              int64_t* hs = &heap_sizes[static_cast<size_t>(r)];
              for (int64_t j = 0; j < run.n; ++j) {
                const int32_t item = run.item(j);
                if (exc != nullptr) {
                  while (cur < exc->size() && (*exc)[cur] < item) ++cur;
                  if (cur < exc->size() && (*exc)[cur] == item) {
                    ++cur;
                    continue;
                  }
                }
                HeapPush(heap, hs, cap, HeapEntry{srow[j], item});
              }
            }
          }

          // Extract whatever the heaps hold — the full top-K normally, a
          // truncated prefix scan when the deadline cut the runs short.
          for (int64_t r = 0; r < m; ++r) {
            HeapEntry* heap = heaps.data() + r * cap;
            const int64_t hs = heap_sizes[static_cast<size_t>(r)];
            std::sort(heap, heap + hs,
                      [](const HeapEntry& a, const HeapEntry& b) {
                        return Worse(b, a);
                      });
            std::vector<int32_t>& ranked = out[static_cast<size_t>(base + r)];
            ranked.resize(static_cast<size_t>(hs));
            for (int64_t i = 0; i < hs; ++i) {
              ranked[static_cast<size_t>(i)] = heap[i].idx;
            }
            if (scores_out != nullptr) {
              std::vector<float>& sc =
                  (*scores_out)[static_cast<size_t>(base + r)];
              sc.resize(static_cast<size_t>(hs));
              for (int64_t i = 0; i < hs; ++i) {
                sc[static_cast<size_t>(i)] = heap[i].score;
              }
            }
          }
        }
      },
      (num_tiles + width - 1) / width);
  return out;
}

// Exact-reference fallback: materialize one score row per user with the
// ascending-depth scalar dot, mark exclusions in a fresh flag vector, rank
// with TopKIndices — the seed pipeline, kept as the bit-level oracle.
Rankings ReferenceTopK(const tensor::Matrix& user_emb,
                       const std::vector<int32_t>& user_ids,
                       const tensor::Matrix& item_emb, int k,
                       const std::vector<std::vector<int32_t>>* exclude,
                       RankDeadline* deadline, Scores* scores_out) {
  LAYERGCN_CHECK_EQ(user_emb.cols(), item_emb.cols())
      << "user/item embedding width mismatch";
  const int64_t num_items = item_emb.rows();
  const int64_t depth = item_emb.cols();
  Rankings out(user_ids.size());
  if (num_items == 0) return out;
  util::parallel::For(
      static_cast<int64_t>(user_ids.size()),
      [&](int64_t lo, int64_t hi) {
        for (int64_t r = lo; r < hi; ++r) {
          MaybeSlowScore(deadline);
          if (DeadlineExpired(deadline)) return;  // remaining users stay empty
          const int32_t u = user_ids[static_cast<size_t>(r)];
          const float* urow = user_emb.row(u);
          std::vector<float> scores(static_cast<size_t>(num_items), 0.f);
          for (int64_t i = 0; i < num_items; ++i) {
            scores[static_cast<size_t>(i)] = Dot(urow, item_emb.row(i), depth);
          }
          std::vector<bool> flags(static_cast<size_t>(num_items), false);
          if (exclude != nullptr) {
            for (int32_t i : (*exclude)[static_cast<size_t>(u)]) {
              flags[static_cast<size_t>(i)] = true;
            }
          }
          std::vector<int32_t>& ranked = out[static_cast<size_t>(r)];
          ranked = TopKIndices(scores.data(), num_items, k, &flags);
          if (scores_out != nullptr) {
            std::vector<float>& sc = (*scores_out)[static_cast<size_t>(r)];
            sc.resize(ranked.size());
            for (size_t i = 0; i < ranked.size(); ++i) {
              sc[i] = scores[static_cast<size_t>(ranked[i])];
            }
          }
        }
      },
      1);
  return out;
}

}  // namespace

const char* ScoreEncodingName(ScoreEncoding encoding) {
  switch (encoding) {
    case ScoreEncoding::kF32: return "f32";
    case ScoreEncoding::kInt8: return "int8";
    case ScoreEncoding::kBf16: return "bf16";
  }
  return "?";
}

bool ParseScoreEncoding(const std::string& name, ScoreEncoding* out) {
  if (name == "f32") { *out = ScoreEncoding::kF32; return true; }
  if (name == "int8") { *out = ScoreEncoding::kInt8; return true; }
  if (name == "bf16") { *out = ScoreEncoding::kBf16; return true; }
  return false;
}

std::vector<std::vector<int32_t>> ScoreTopK(
    const ScoringView& view, const std::vector<int32_t>& user_ids,
    const std::vector<int32_t>* candidates, int k,
    const std::vector<std::vector<int32_t>>* exclude,
    const FusedRankConfig& config, RankDeadline* deadline,
    std::vector<std::vector<float>>* scores_out) {
  LAYERGCN_CHECK_GT(k, 0);
  if (scores_out != nullptr) scores_out->assign(user_ids.size(), {});
  const F32Scoring* f32 = std::get_if<F32Scoring>(&view);
  if (f32 != nullptr && candidates == nullptr && !config.enabled) {
    return ReferenceTopK(*f32->users, user_ids, *f32->items, k, exclude,
                         deadline, scores_out);
  }
  return std::visit(
      [&](const auto& v) {
        return Traverse(v, user_ids, candidates, k, exclude, config, deadline,
                        scores_out);
      },
      view);
}

std::vector<std::vector<int32_t>> FusedScoreTopK(
    const tensor::Matrix& user_emb, const std::vector<int32_t>& user_ids,
    const tensor::Matrix& item_emb, int k,
    const std::vector<std::vector<int32_t>>* exclude,
    const FusedRankConfig& config, RankDeadline* deadline,
    std::vector<std::vector<float>>* scores_out) {
  return ScoreTopK(F32Scoring{&user_emb, &item_emb}, user_ids, nullptr, k,
                   exclude, config, deadline, scores_out);
}

}  // namespace layergcn::eval
