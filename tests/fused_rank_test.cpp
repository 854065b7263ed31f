// Equivalence and determinism tests for the score-and-rank traversal
// (eval/fused_rank.h): the f32 path against the naive materialize-then-rank
// reference, every encoding against a scalar per-encoding oracle across
// tile sizes and thread counts, and the deadline rule for full scans and
// candidate lists; plus the single-pass MultiKMetrics helper against the
// per-K formulas.
//
// Embeddings are drawn from a small integer lattice so every f32 inner
// product is exactly representable regardless of accumulation order or FMA
// contraction — the comparisons below are bit-level, not tolerance based,
// and deliberately produce many tied scores.

#include "eval/fused_rank.h"

#include <algorithm>
#include <vector>

#include "data/split.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "eval/metrics.h"
#include "gtest/gtest.h"
#include "obs/obs.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"
#include "test_util.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace layergcn::eval {
namespace {

// Matrix with integer entries in [-range, range]: exact float arithmetic
// and a high tie rate in the resulting scores.
tensor::Matrix LatticeMatrix(int64_t rows, int64_t cols, int range,
                             util::Rng* rng) {
  tensor::Matrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng->NextInt(-range, range + 1));
  }
  return m;
}

// Sorted-ascending exclusion list per user with roughly `density` items.
std::vector<std::vector<int32_t>> RandomExclusions(int32_t num_users,
                                                   int32_t num_items,
                                                   double density,
                                                   util::Rng* rng) {
  std::vector<std::vector<int32_t>> out(static_cast<size_t>(num_users));
  for (auto& list : out) {
    for (int32_t i = 0; i < num_items; ++i) {
      if (rng->NextBernoulli(density)) list.push_back(i);
    }
  }
  return out;
}

std::vector<int32_t> AllUsers(int32_t num_users) {
  std::vector<int32_t> users(static_cast<size_t>(num_users));
  for (int32_t u = 0; u < num_users; ++u) users[static_cast<size_t>(u)] = u;
  return users;
}

void ExpectSameRankings(const std::vector<std::vector<int32_t>>& got,
                        const std::vector<std::vector<int32_t>>& want,
                        const char* label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t r = 0; r < got.size(); ++r) {
    EXPECT_EQ(got[r], want[r]) << label << ": user row " << r;
  }
}

struct GraphCase {
  int32_t num_users;
  int32_t num_items;
  int64_t dim;
  int k;
  double exclude_density;
};

TEST(FusedRankTest, MatchesReferenceOnRandomBipartiteGraphs) {
  const GraphCase cases[] = {
      {40, 200, 16, 10, 0.1},    // typical shape
      {7, 30, 3, 50, 0.3},       // K > num_items
      {64, 129, 8, 5, 0.0},      // no exclusions, tile-boundary item count
      {33, 500, 4, 20, 0.6},     // heavy exclusion, tiny dim → many ties
      {1, 17, 1, 17, 0.5},       // single user, K == num_items
  };
  uint64_t seed = 7;
  for (const GraphCase& c : cases) {
    util::Rng rng(seed++);
    const tensor::Matrix user_emb =
        LatticeMatrix(c.num_users, c.dim, 2, &rng);
    const tensor::Matrix item_emb =
        LatticeMatrix(c.num_items, c.dim, 2, &rng);
    const auto exclude =
        RandomExclusions(c.num_users, c.num_items, c.exclude_density, &rng);
    const auto users = AllUsers(c.num_users);

    FusedRankConfig reference;
    reference.enabled = false;
    const auto want =
        FusedScoreTopK(user_emb, users, item_emb, c.k, &exclude, reference);

    FusedRankConfig fused;  // defaults: enabled, 64 x 1024 tiles
    const auto got =
        FusedScoreTopK(user_emb, users, item_emb, c.k, &exclude, fused);
    ExpectSameRankings(got, want, "fused vs reference");
  }
}

TEST(FusedRankTest, TileSizeInvariance) {
  util::Rng rng(11);
  const testing::EncodedEmbeddings emb(LatticeMatrix(50, 8, 2, &rng),
                                       LatticeMatrix(300, 8, 2, &rng));
  const auto exclude = RandomExclusions(50, 300, 0.2, &rng);
  const auto users = AllUsers(50);

  for (const ScoreEncoding e : testing::kAllEncodings) {
    std::vector<std::vector<float>> want_scores;
    const auto want =
        emb.OracleTopK(e, users, nullptr, 12, &exclude, &want_scores);
    if (e == ScoreEncoding::kF32) {
      FusedRankConfig reference;
      reference.enabled = false;
      ExpectSameRankings(ScoreTopK(emb.view(e), users, nullptr, 12, &exclude,
                                   reference),
                         want, "reference vs oracle");
    }
    for (const auto& [ut, it] : std::vector<std::pair<int64_t, int64_t>>{
             {1, 16}, {7, 33}, {64, 1024}, {128, 100}, {50, 300}}) {
      FusedRankConfig cfg;
      cfg.user_tile = ut;
      cfg.item_tile = it;
      std::vector<std::vector<float>> scores;
      const auto got = ScoreTopK(emb.view(e), users, nullptr, 12, &exclude,
                                 cfg, nullptr, &scores);
      ExpectSameRankings(got, want, ScoreEncodingName(e));
      EXPECT_EQ(scores, want_scores) << ScoreEncodingName(e);
    }
  }
}

TEST(FusedRankTest, FullyExcludedUserGetsEmptyRanking) {
  util::Rng rng(13);
  const tensor::Matrix user_emb = LatticeMatrix(2, 4, 2, &rng);
  const tensor::Matrix item_emb = LatticeMatrix(10, 4, 2, &rng);
  std::vector<std::vector<int32_t>> exclude(2);
  for (int32_t i = 0; i < 10; ++i) exclude[0].push_back(i);  // user 0: all
  const auto ranked =
      FusedScoreTopK(user_emb, AllUsers(2), item_emb, 5, &exclude);
  EXPECT_TRUE(ranked[0].empty());
  EXPECT_EQ(ranked[1].size(), 5u);
}

TEST(FusedRankTest, DeterministicAcrossThreadCounts) {
  util::Rng rng(17);
  const testing::EncodedEmbeddings emb(LatticeMatrix(120, 16, 2, &rng),
                                       LatticeMatrix(700, 16, 2, &rng));
  const auto exclude = RandomExclusions(120, 700, 0.15, &rng);
  const auto users = AllUsers(120);
  FusedRankConfig cfg;
  cfg.user_tile = 16;  // several tiles per worker
  cfg.item_tile = 128;

  for (const ScoreEncoding e : testing::kAllEncodings) {
    const int threads[] = {1, 2, 8};
    std::vector<std::vector<std::vector<int32_t>>> results(3);
    std::vector<std::vector<std::vector<float>>> scores(3);
    for (size_t t = 0; t < 3; ++t) {
      util::ThreadPool pool(threads[t]);
      util::parallel::ScopedComputePool scoped(&pool);
      results[t] = ScoreTopK(emb.view(e), users, nullptr, 20, &exclude, cfg,
                             nullptr, &scores[t]);
    }
    ExpectSameRankings(results[1], results[0], ScoreEncodingName(e));
    ExpectSameRankings(results[2], results[0], ScoreEncodingName(e));
    EXPECT_EQ(scores[1], scores[0]) << ScoreEncodingName(e);
    EXPECT_EQ(scores[2], scores[0]) << ScoreEncodingName(e);
  }
}

// The materialize-then-rank reference ranks one user per block; which
// thread ran a user must not show in its ranking or its score bits.
TEST(FusedRankTest, ReferenceDeterministicAcrossThreadCounts) {
  util::Rng rng(23);
  const tensor::Matrix user_emb = testing::RandomMatrix(150, 12, &rng);
  const tensor::Matrix item_emb = testing::RandomMatrix(400, 12, &rng);
  const auto exclude = RandomExclusions(150, 400, 0.1, &rng);
  const auto users = AllUsers(150);
  FusedRankConfig reference;
  reference.enabled = false;
  using Result = std::pair<std::vector<std::vector<int32_t>>,
                           std::vector<std::vector<float>>>;
  const std::vector<Result> results = testing::AtPoolWidths([&] {
    Result r;
    r.first = FusedScoreTopK(user_emb, users, item_emb, 20, &exclude,
                             reference, nullptr, &r.second);
    return r;
  });
  for (size_t w = 1; w < results.size(); ++w) {
    ExpectSameRankings(results[w].first, results[0].first, "reference");
    EXPECT_EQ(results[w].second, results[0].second) << w;
  }
}

// A deadline already spent when the call starts ranks nothing, for every
// encoding and for full scans and candidate lists alike: the clock is read
// before the first user tile.
TEST(FusedRankTest, ExpiredDeadlineRanksNothing) {
  util::Rng rng(19);
  const testing::EncodedEmbeddings emb(LatticeMatrix(1, 8, 2, &rng),
                                       LatticeMatrix(64, 8, 2, &rng));
  std::vector<int32_t> evens;
  for (int32_t j = 0; j < 64; j += 2) evens.push_back(j);
  const std::vector<int32_t>* const scans[] = {nullptr, &evens};
  while (obs::NowMicros() <= 1) {
  }

  for (const ScoreEncoding e : testing::kAllEncodings) {
    for (const std::vector<int32_t>* candidates : scans) {
      RankDeadline deadline;
      deadline.deadline_us = 1;  // already past
      std::vector<std::vector<float>> scores;
      const auto ranked = ScoreTopK(emb.view(e), {0}, candidates, 10,
                                    nullptr, {}, &deadline, &scores);
      ASSERT_EQ(ranked.size(), 1u);
      EXPECT_TRUE(ranked[0].empty())
          << ScoreEncodingName(e) << (candidates ? " subset" : " all items");
      EXPECT_TRUE(scores[0].empty());
      EXPECT_TRUE(deadline.expired.load())
          << ScoreEncodingName(e) << (candidates ? " subset" : " all items");
    }
  }
}

TEST(MultiKMetricsTest, MatchesPerKFormulas) {
  util::Rng rng(23);
  const std::vector<int> ks{1, 3, 5, 10, 50};
  const MultiKMetrics multi(ks);
  for (int trial = 0; trial < 50; ++trial) {
    // Random ranked list (may be shorter than max K) and random ground
    // truth, including the empty ground-truth case.
    const int len = rng.NextInt(0, 40);
    std::vector<int32_t> ranked;
    for (int i = 0; i < len; ++i) {
      const int32_t item = rng.NextInt(0, 60);
      if (std::find(ranked.begin(), ranked.end(), item) == ranked.end()) {
        ranked.push_back(item);
      }
    }
    std::vector<int32_t> gt;
    for (int32_t i = 0; i < 60; ++i) {
      if (rng.NextBernoulli(0.1)) gt.push_back(i);
    }
    std::vector<double> recall(ks.size()), ndcg(ks.size());
    multi.Compute(ranked, gt, recall.data(), ndcg.data());
    for (size_t ki = 0; ki < ks.size(); ++ki) {
      EXPECT_DOUBLE_EQ(recall[ki], RecallAtK(ranked, gt, ks[ki]))
          << "trial " << trial << " K=" << ks[ki];
      EXPECT_DOUBLE_EQ(ndcg[ki], NdcgAtK(ranked, gt, ks[ki]))
          << "trial " << trial << " K=" << ks[ki];
    }
  }
}

TEST(TopKIndicesSortedExcludeTest, MatchesFlagVariant) {
  util::Rng rng(29);
  for (int trial = 0; trial < 20; ++trial) {
    const int64_t n = rng.NextInt(1, 101);
    std::vector<float> scores(static_cast<size_t>(n));
    for (auto& s : scores) {
      s = static_cast<float>(rng.NextInt(0, 7));  // ties galore
    }
    std::vector<bool> flags(static_cast<size_t>(n), false);
    std::vector<int32_t> sorted;
    for (int64_t i = 0; i < n; ++i) {
      if (rng.NextBernoulli(0.3)) {
        flags[static_cast<size_t>(i)] = true;
        sorted.push_back(static_cast<int32_t>(i));
      }
    }
    const int k = rng.NextInt(1, 21);
    EXPECT_EQ(TopKIndicesSortedExclude(scores.data(), n, k, sorted),
              TopKIndices(scores.data(), n, k, &flags))
        << "trial " << trial;
  }
}

// End-to-end: the evaluator's fused embedding path, its exact-reference
// fallback, and the legacy ScoreFn path must report identical metrics on a
// synthetic bipartite dataset (includes tied scores and users whose
// ground-truth lists have different sizes).
TEST(FusedRankEvaluatorTest, EvaluatorPathsAgree) {
  data::SyntheticConfig cfg;
  cfg.name = "fused-eval";
  cfg.num_users = 60;
  cfg.num_items = 40;
  cfg.num_interactions = 900;
  cfg.num_clusters = 4;
  const data::Dataset ds = data::ChronologicalSplitDataset(
      cfg.name, cfg.num_users, cfg.num_items,
      data::GenerateInteractions(cfg, 31));

  util::Rng rng(37);
  const tensor::Matrix user_emb = LatticeMatrix(ds.num_users, 8, 2, &rng);
  const tensor::Matrix item_emb = LatticeMatrix(ds.num_items, 8, 2, &rng);
  const ScoreFn score_fn = [&](const std::vector<int32_t>& users) {
    const tensor::Matrix block = tensor::GatherRows(user_emb, users);
    return tensor::MatMul(block, item_emb, false, true);
  };

  const std::vector<int> ks{5, 10, 20};
  const Evaluator fused_eval(&ds, ks, /*chunk_size=*/16);
  FusedRankConfig reference;
  reference.enabled = false;
  const Evaluator ref_eval(&ds, ks, /*chunk_size=*/16, reference);

  for (EvalSplit split : {EvalSplit::kValidation, EvalSplit::kTest}) {
    const RankingMetrics via_fused =
        fused_eval.Evaluate(user_emb, item_emb, split);
    const RankingMetrics via_reference =
        ref_eval.Evaluate(user_emb, item_emb, split);
    const RankingMetrics via_scorefn = fused_eval.Evaluate(score_fn, split);
    for (int k : ks) {
      EXPECT_DOUBLE_EQ(via_fused.recall.at(k), via_reference.recall.at(k));
      EXPECT_DOUBLE_EQ(via_fused.ndcg.at(k), via_reference.ndcg.at(k));
      EXPECT_DOUBLE_EQ(via_fused.recall.at(k), via_scorefn.recall.at(k));
      EXPECT_DOUBLE_EQ(via_fused.ndcg.at(k), via_scorefn.ndcg.at(k));
    }
    // Per-user values agree as well (feeds the paired t-tests).
    const auto pu_fused =
        fused_eval.EvaluatePerUser(user_emb, item_emb, split, 10);
    const auto pu_scorefn = fused_eval.EvaluatePerUser(score_fn, split, 10);
    ASSERT_EQ(pu_fused.recall.size(), pu_scorefn.recall.size());
    for (size_t i = 0; i < pu_fused.recall.size(); ++i) {
      EXPECT_DOUBLE_EQ(pu_fused.recall[i], pu_scorefn.recall[i]);
      EXPECT_DOUBLE_EQ(pu_fused.ndcg[i], pu_scorefn.ndcg[i]);
    }
  }
}

// Both ScoreFn paths rank each user of a score chunk in its own block; the
// metrics and per-user values must be the same bits at any pool width.
TEST(FusedRankEvaluatorTest, ScoreFnPathsDeterministicAcrossThreadCounts) {
  data::SyntheticConfig cfg;
  cfg.name = "scorefn-widths";
  cfg.num_users = 300;
  cfg.num_items = 120;
  cfg.num_interactions = 4000;
  cfg.num_clusters = 4;
  const data::Dataset ds = data::ChronologicalSplitDataset(
      cfg.name, cfg.num_users, cfg.num_items,
      data::GenerateInteractions(cfg, 41));
  util::Rng rng(43);
  const tensor::Matrix user_emb = testing::RandomMatrix(ds.num_users, 8, &rng);
  const tensor::Matrix item_emb = testing::RandomMatrix(ds.num_items, 8, &rng);
  const ScoreFn score_fn = [&](const std::vector<int32_t>& users) {
    return tensor::MatMul(tensor::GatherRows(user_emb, users), item_emb,
                          false, true);
  };
  const Evaluator evaluator(&ds, {5, 10, 20}, /*chunk_size=*/64);

  struct Result {
    RankingMetrics metrics;
    Evaluator::PerUser per_user;
  };
  const std::vector<Result> results = testing::AtPoolWidths([&] {
    return Result{evaluator.Evaluate(score_fn, EvalSplit::kTest),
                  evaluator.EvaluatePerUser(score_fn, EvalSplit::kTest, 10)};
  });
  ASSERT_FALSE(results[0].per_user.recall.empty());
  for (size_t w = 1; w < results.size(); ++w) {
    EXPECT_EQ(results[w].metrics.recall, results[0].metrics.recall) << w;
    EXPECT_EQ(results[w].metrics.ndcg, results[0].metrics.ndcg) << w;
    EXPECT_EQ(results[w].per_user.recall, results[0].per_user.recall) << w;
    EXPECT_EQ(results[w].per_user.ndcg, results[0].per_user.ndcg) << w;
  }
}

}  // namespace
}  // namespace layergcn::eval
