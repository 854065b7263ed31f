// Shared helpers for the unit tests: random matrices, numerical gradient
// checking against the autograd engine, pool-width sweeps, tiny fixture
// datasets, an embedding pair in every scoring encoding with a scalar
// ranking oracle, and the small serving snapshot the serving suites
// publish.

#ifndef LAYERGCN_TESTS_TEST_UTIL_H_
#define LAYERGCN_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "autograd/ops.h"
#include "autograd/tape.h"
#include "data/dataset.h"
#include "data/split.h"
#include "eval/fused_rank.h"
#include "gtest/gtest.h"
#include "serve/snapshot.h"
#include "tensor/matrix.h"
#include "tensor/quant.h"
#include "train/checkpoint.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/status.h"

namespace layergcn::testing {

/// Uniform random matrix in [lo, hi].
inline tensor::Matrix RandomMatrix(int64_t rows, int64_t cols, util::Rng* rng,
                                   float lo = -1.f, float hi = 1.f) {
  tensor::Matrix m(rows, cols);
  m.UniformInit(rng, lo, hi);
  return m;
}

/// A loss builder: receives a tape and leaf Vars (one per parameter, in
/// order) and returns a scalar Var.
using LossBuilder =
    std::function<ag::Var(ag::Tape*, const std::vector<ag::Var>&)>;

/// Checks d(loss)/d(params) against central differences. `params` are
/// perturbed in place and restored. Gradients must match within
/// rel_tol (relative to max magnitude) or abs_tol, whichever is looser.
/// At most `max_checks` entries per parameter are probed (strided).
inline void ExpectGradientsMatch(const LossBuilder& build,
                                 std::vector<tensor::Matrix*> params,
                                 float eps = 1e-2f, float rel_tol = 2e-2f,
                                 float abs_tol = 2e-3f,
                                 int64_t max_checks = 64) {
  // Analytic gradients.
  std::vector<tensor::Matrix> grads;
  grads.reserve(params.size());
  for (tensor::Matrix* p : params) grads.emplace_back(p->rows(), p->cols());
  {
    ag::Tape tape;
    std::vector<ag::Var> leaves;
    for (size_t i = 0; i < params.size(); ++i) {
      leaves.push_back(tape.Parameter(params[i], &grads[i]));
    }
    ag::Var loss = build(&tape, leaves);
    tape.Backward(loss);
  }
  auto eval_loss = [&]() -> double {
    ag::Tape tape;
    std::vector<ag::Var> leaves;
    std::vector<tensor::Matrix> sink;
    sink.reserve(params.size());
    for (tensor::Matrix* p : params) sink.emplace_back(p->rows(), p->cols());
    for (size_t i = 0; i < params.size(); ++i) {
      leaves.push_back(tape.Parameter(params[i], &sink[i]));
    }
    return tape.value(build(&tape, leaves)).scalar();
  };
  for (size_t pi = 0; pi < params.size(); ++pi) {
    tensor::Matrix* p = params[pi];
    const int64_t n = p->size();
    const int64_t stride = std::max<int64_t>(1, n / max_checks);
    for (int64_t i = 0; i < n; i += stride) {
      const float orig = p->data()[i];
      p->data()[i] = orig + eps;
      const double up = eval_loss();
      p->data()[i] = orig - eps;
      const double down = eval_loss();
      p->data()[i] = orig;
      const double numeric = (up - down) / (2.0 * eps);
      const double analytic = grads[pi].data()[i];
      const double scale =
          std::max({1.0, std::fabs(numeric), std::fabs(analytic)});
      EXPECT_NEAR(analytic, numeric,
                  std::max(static_cast<double>(abs_tol),
                           static_cast<double>(rel_tol) * scale))
          << "param " << pi << " entry " << i;
    }
  }
}

/// `run()`'s results on fresh compute pools of width 1, 2 and 8, in that
/// order, for tests that require the same bits at every pool width.
template <typename Fn>
auto AtPoolWidths(const Fn& run) {
  std::vector<decltype(run())> out;
  for (int width : {1, 2, 8}) {
    util::ThreadPool pool(width);
    util::parallel::ScopedComputePool scope(&pool);
    out.push_back(run());
  }
  return out;
}

/// True when `a` and `b` have the same shape and the same bits (unlike
/// Equals, this tells -0 from +0 and matches NaN payloads).
inline bool SameBits(const tensor::Matrix& a, const tensor::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<size_t>(a.size())) == 0;
}

/// Symmetric-normalized adjacency D^{-1/2} A D^{-1/2} of a seeded random
/// undirected graph on `n` nodes (edge probability `density`). Node
/// `isolated`, when in range, gets no edges.
inline sparse::CsrMatrix RandomSymmetricAdjacency(int64_t n, util::Rng* rng,
                                                  double density,
                                                  int64_t isolated = -1) {
  sparse::CooMatrix coo;
  coo.rows = n;
  coo.cols = n;
  for (int32_t i = 0; i < n; ++i) {
    for (int32_t j = i + 1; j < n; ++j) {
      if (i == isolated || j == isolated || rng->NextDouble() >= density) {
        continue;
      }
      coo.entries.push_back({i, j, 1.f});
      coo.entries.push_back({j, i, 1.f});
    }
  }
  return sparse::SymmetricNormalize(coo);
}

/// LayerGCN's refined layers and readout (Eqs. 6-9) as the four-op chain
/// per layer, SpMMSymmetric → RowwiseCosine → AddScalar → ScaleRows, and
/// an AddN readout: the oracle core::RefinedPropagation must match bit for
/// bit.
inline ag::Var RefinedChain(const sparse::CsrMatrix* adj, ag::Var x0,
                            int num_layers, float eps,
                            bool include_ego_layer) {
  std::vector<ag::Var> layers;
  if (include_ego_layer) layers.push_back(x0);
  ag::Var x = x0;
  for (int l = 0; l < num_layers; ++l) {
    ag::Var h = ag::SpMMSymmetric(adj, x);
    ag::Var a = ag::RowwiseCosine(h, x0, eps);
    x = ag::ScaleRows(h, ag::AddScalar(a, eps));
    layers.push_back(x);
  }
  return ag::AddN(layers);
}

/// BPR over the triples (users[k], pos_rows[k], neg_rows[k]) of `readout`
/// plus, when l2_reg > 0, l2_reg / B times ‖the same rows of x0‖², as the
/// op chain GatherRows ×6 → RowDots ×2 → Sub → Softplus → Mean,
/// SumSquares ×3 → AddN → Scale → Add: the oracle models::BprLoss must
/// match bit for bit. The statements keep the chain's node order.
inline ag::Var BprChain(ag::Var readout, ag::Var x0,
                        const std::vector<int32_t>& users,
                        const std::vector<int32_t>& pos_rows,
                        const std::vector<int32_t>& neg_rows, double l2_reg) {
  ag::Var eu = ag::GatherRows(readout, users);
  ag::Var ei = ag::GatherRows(readout, pos_rows);
  ag::Var ej = ag::GatherRows(readout, neg_rows);
  // -log σ(r_ui − r_uj) = softplus(r_uj − r_ui).
  ag::Var pos_scores = ag::RowDots(eu, ei);
  ag::Var neg_scores = ag::RowDots(eu, ej);
  ag::Var bpr = ag::Mean(ag::Softplus(ag::Sub(neg_scores, pos_scores)));
  if (l2_reg <= 0.0) return bpr;
  ag::Var e0u = ag::GatherRows(x0, users);
  ag::Var e0i = ag::GatherRows(x0, pos_rows);
  ag::Var e0j = ag::GatherRows(x0, neg_rows);
  ag::Var reg = ag::AddN(
      {ag::SumSquares(e0u), ag::SumSquares(e0i), ag::SumSquares(e0j)});
  const float coef =
      static_cast<float>(l2_reg / static_cast<double>(users.size()));
  return ag::Add(bpr, ag::Scale(reg, coef));
}

/// Every scoring encoding, for tests that take the encoding as an input.
inline constexpr eval::ScoreEncoding kAllEncodings[] = {
    eval::ScoreEncoding::kF32, eval::ScoreEncoding::kInt8,
    eval::ScoreEncoding::kBf16};

/// One (users, items) embedding pair in every encoding, as a snapshot load
/// holds it: the f32 matrices, the quantized row-major copies, and the
/// depth-major quantized item panels the traversal reads.
struct EncodedEmbeddings {
  tensor::Matrix users, items;
  tensor::Int8Rows users_int8, items_int8;
  tensor::Bf16Rows users_bf16, items_bf16;
  tensor::Int8Panel panel_int8;
  tensor::Bf16Panel panel_bf16;

  EncodedEmbeddings(tensor::Matrix u, tensor::Matrix i)
      : users(std::move(u)),
        items(std::move(i)),
        users_int8(tensor::QuantizeInt8PerRow(users)),
        items_int8(tensor::QuantizeInt8PerRow(items)),
        users_bf16(tensor::ToBf16Rows(users)),
        items_bf16(tensor::ToBf16Rows(items)),
        panel_int8(tensor::TransposeToPanel(items_int8)),
        panel_bf16(tensor::TransposeToPanel(items_bf16)) {}

  eval::ScoringView view(eval::ScoreEncoding e) const {
    switch (e) {
      case eval::ScoreEncoding::kInt8:
        return eval::Int8Scoring{&users_int8, &panel_int8};
      case eval::ScoreEncoding::kBf16:
        return eval::Bf16Scoring{&users_bf16, &panel_bf16};
      case eval::ScoreEncoding::kF32:
        break;
    }
    return eval::F32Scoring{&users, &items};
  }

  /// The encoding's (user, item) score by a scalar loop over the row-major
  /// copies: f32 and bf16 accumulate in f32 in ascending depth order, int8
  /// accumulates the integer dot exactly and scales it once.
  float Score(eval::ScoreEncoding e, int32_t user, int32_t item) const {
    const int64_t depth = users.cols();
    if (e == eval::ScoreEncoding::kInt8) {
      int32_t acc = 0;
      for (int64_t p = 0; p < depth; ++p) {
        acc += static_cast<int32_t>(users_int8.row(user)[p]) *
               static_cast<int32_t>(items_int8.row(item)[p]);
      }
      return users_int8.scales[static_cast<size_t>(user)] *
             items_int8.scales[static_cast<size_t>(item)] *
             static_cast<float>(acc);
    }
    float acc = 0.f;
    for (int64_t p = 0; p < depth; ++p) {
      acc += e == eval::ScoreEncoding::kBf16
                 ? tensor::Bf16ToF32(users_bf16.row(user)[p]) *
                       tensor::Bf16ToF32(items_bf16.row(item)[p])
                 : users.row(user)[p] * items.row(item)[p];
    }
    return acc;
  }

  /// Scalar ranking oracle with ScoreTopK's contract: for each user, every
  /// candidate (every item when `candidates` is null) not in the user's
  /// sorted `exclude` list, ordered by (Score desc, id asc), cut at k.
  /// `scores_out` receives the kept scores.
  std::vector<std::vector<int32_t>> OracleTopK(
      eval::ScoreEncoding e, const std::vector<int32_t>& user_ids,
      const std::vector<int32_t>* candidates, int k,
      const std::vector<std::vector<int32_t>>* exclude,
      std::vector<std::vector<float>>* scores_out) const {
    std::vector<std::vector<int32_t>> out;
    scores_out->clear();
    for (const int32_t u : user_ids) {
      const std::vector<int32_t>* exc =
          exclude != nullptr ? &(*exclude)[static_cast<size_t>(u)] : nullptr;
      std::vector<std::pair<float, int32_t>> kept;
      for (int32_t j = 0; j < static_cast<int32_t>(items.rows()); ++j) {
        if ((candidates != nullptr &&
             !std::binary_search(candidates->begin(), candidates->end(),
                                 j)) ||
            (exc != nullptr &&
             std::binary_search(exc->begin(), exc->end(), j))) {
          continue;
        }
        kept.emplace_back(Score(e, u, j), j);
      }
      std::sort(kept.begin(), kept.end(), [](const auto& a, const auto& b) {
        return a.first != b.first ? a.first > b.first : a.second < b.second;
      });
      kept.resize(std::min(kept.size(), static_cast<size_t>(k)));
      out.emplace_back();
      scores_out->emplace_back();
      for (const auto& [score, item] : kept) {
        out.back().push_back(item);
        scores_out->back().push_back(score);
      }
    }
    return out;
  }
};

/// A tiny deterministic dataset: 6 users, 5 items, hand-written
/// chronology so the split is stable. Every user has train/valid/test
/// items.
inline data::Dataset TinyDataset() {
  std::vector<data::Interaction> all;
  int64_t ts = 0;
  // Users 0-2 like items 0-2; users 3-5 like items 2-4 (two clusters).
  const int32_t cluster_a[][2] = {{0, 0}, {0, 1}, {1, 0}, {1, 1}, {1, 2},
                                  {2, 0}, {2, 1}, {2, 2}, {0, 2}};
  const int32_t cluster_b[][2] = {{3, 2}, {3, 3}, {4, 3}, {4, 4}, {4, 2},
                                  {5, 3}, {5, 4}, {5, 2}, {3, 4}};
  for (const auto& p : cluster_a) all.push_back({p[0], p[1], ts++});
  for (const auto& p : cluster_b) all.push_back({p[0], p[1], ts++});
  // Interleave a second wave so every user appears in the held-out tail.
  const int32_t tail[][2] = {{0, 3}, {1, 3}, {2, 3}, {3, 0}, {4, 0}, {5, 0},
                             {0, 4}, {1, 4}, {2, 4}, {3, 1}, {4, 1}, {5, 1}};
  for (const auto& p : tail) all.push_back({p[0], p[1], ts++});
  return data::ChronologicalSplitDataset("tiny", 6, 5, std::move(all), 0.6,
                                         0.2);
}

/// A fresh, empty directory under the test temp root.
inline std::string TempDirFor(const char* name) {
  const std::string dir = std::string(::testing::TempDir()) + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// A small serving export (3 users) with known popularity structure:
///   counts: item0=3, item1=2, item2=1, item3=1, every other item 0
///   popular_items (count desc, id asc): [0, 1, 2, ..., num_items - 1]
/// Extra items beyond the default 6 only widen the catalog (and the rank
/// traversal's item runs); the first draws are the same either way.
inline train::ServingExport SmallExport(int64_t version,
                                        int64_t num_items = 6) {
  train::ServingExport ex;
  ex.version = version;
  ex.user_emb = tensor::Matrix(3, 4);
  ex.item_emb = tensor::Matrix(num_items, 4);
  util::Rng rng(7 + static_cast<uint64_t>(version));
  ex.user_emb.UniformInit(&rng, -1.f, 1.f);
  ex.item_emb.UniformInit(&rng, -1.f, 1.f);
  ex.user_history = {{0, 1}, {0, 2}, {0, 1, 3}};
  return ex;
}

/// Publishes SmallExport(version, num_items) as `dir`'s snapshot `version`.
inline void SaveSmall(const std::string& dir, int64_t version,
                      int64_t num_items = 6) {
  const util::Status s = train::SaveServingExport(
      serve::SnapshotStore::SnapshotPath(dir, version),
      SmallExport(version, num_items));
  ASSERT_TRUE(s.ok()) << s.ToString();
}

}  // namespace layergcn::testing

#endif  // LAYERGCN_TESTS_TEST_UTIL_H_
