// Quantized storage + scoring suite: int8 round-trip error bounds, bf16
// round-trip relative error, traversal-vs-scalar-reference ranking parity
// for the quantized encodings, and the per-encoding determinism contract
// (bit-identical rankings at 1 and 8 threads and across tile shapes, for
// every encoding).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "eval/fused_rank.h"
#include "tensor/matrix.h"
#include "tensor/quant.h"
#include "test_util.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace layergcn {
namespace {

tensor::Matrix RandomMatrix(int64_t rows, int64_t cols, uint64_t seed,
                            float lo = -1.f, float hi = 1.f) {
  tensor::Matrix m(rows, cols);
  util::Rng rng(seed);
  m.UniformInit(&rng, lo, hi);
  return m;
}

TEST(QuantStorageTest, Int8RoundTripWithinHalfScalePerElement) {
  const tensor::Matrix m = RandomMatrix(17, 24, 123, -3.f, 3.f);
  const tensor::Int8Rows q = tensor::QuantizeInt8PerRow(m);
  ASSERT_EQ(q.rows, 17);
  ASSERT_EQ(q.cols, 24);
  ASSERT_EQ(q.scales.size(), 17u);
  const tensor::Matrix back = tensor::DequantizeInt8(q);
  for (int64_t r = 0; r < m.rows(); ++r) {
    // Symmetric per-row quantization: scale = max|row| / 127, and
    // round-to-nearest bounds the element error by scale / 2.
    float amax = 0.f;
    for (int64_t c = 0; c < m.cols(); ++c) {
      amax = std::max(amax, std::fabs(m.row(r)[c]));
    }
    EXPECT_NEAR(q.scales[static_cast<size_t>(r)], amax / 127.f, 1e-7f);
    for (int64_t c = 0; c < m.cols(); ++c) {
      EXPECT_LE(std::fabs(back.row(r)[c] - m.row(r)[c]),
                q.scales[static_cast<size_t>(r)] * 0.5f + 1e-9f)
          << "row " << r << " col " << c;
    }
  }
}

TEST(QuantStorageTest, Int8ZeroRowUsesUnitScale) {
  tensor::Matrix m(2, 8);  // zero-initialized
  const tensor::Int8Rows q = tensor::QuantizeInt8PerRow(m);
  EXPECT_EQ(q.scales[0], 1.f);
  for (int8_t v : q.data) EXPECT_EQ(v, 0);
  const tensor::Matrix back = tensor::DequantizeInt8(q);
  for (int64_t c = 0; c < 8; ++c) EXPECT_EQ(back.row(0)[c], 0.f);
}

TEST(QuantStorageTest, Bf16RoundTripWithinOneUlp) {
  const tensor::Matrix m = RandomMatrix(9, 33, 321, -10.f, 10.f);
  const tensor::Bf16Rows q = tensor::ToBf16Rows(m);
  const tensor::Matrix back = tensor::FromBf16Rows(q);
  for (int64_t r = 0; r < m.rows(); ++r) {
    for (int64_t c = 0; c < m.cols(); ++c) {
      const float x = m.row(r)[c];
      // bf16 keeps 8 significant bits: round-to-nearest-even is within
      // half an ulp, i.e. 2^-9 relative, slack for the exponent edge.
      EXPECT_LE(std::fabs(back.row(r)[c] - x), std::fabs(x) / 256.f + 1e-12f)
          << "row " << r << " col " << c;
    }
  }
}

TEST(QuantStorageTest, Bf16ExactValuesSurviveExactly) {
  tensor::Matrix m(1, 4);
  m.row(0)[0] = 1.f;
  m.row(0)[1] = -0.5f;
  m.row(0)[2] = 0.f;
  m.row(0)[3] = 2048.f;  // representable: small exponent shift, short mantissa
  const tensor::Matrix back = tensor::FromBf16Rows(tensor::ToBf16Rows(m));
  for (int64_t c = 0; c < 4; ++c) EXPECT_EQ(back.row(0)[c], m.row(0)[c]);
}

TEST(QuantStorageTest, PanelTransposeIsExact) {
  const tensor::Matrix m = RandomMatrix(13, 7, 99);
  const tensor::Int8Rows q = tensor::QuantizeInt8PerRow(m);
  const tensor::Int8Panel p = tensor::TransposeToPanel(q);
  ASSERT_EQ(p.depth, q.cols);
  ASSERT_EQ(p.count, q.rows);
  ASSERT_EQ(p.scales, q.scales);
  for (int64_t r = 0; r < q.rows; ++r) {
    for (int64_t c = 0; c < q.cols; ++c) {
      EXPECT_EQ(p.depth_row(c)[r], q.row(r)[c]);
    }
  }
}

TEST(QuantKernelTest, ScoreEncodingNamesRoundTrip) {
  for (const eval::ScoreEncoding e :
       {eval::ScoreEncoding::kF32, eval::ScoreEncoding::kInt8,
        eval::ScoreEncoding::kBf16}) {
    eval::ScoreEncoding parsed;
    ASSERT_TRUE(eval::ParseScoreEncoding(eval::ScoreEncodingName(e), &parsed));
    EXPECT_EQ(parsed, e);
  }
  eval::ScoreEncoding unused;
  EXPECT_FALSE(eval::ParseScoreEncoding("fp16", &unused));
  EXPECT_FALSE(eval::ParseScoreEncoding("", &unused));
}

struct QuantFixture {
  int32_t num_users = 23;
  int32_t num_items = 157;  // deliberately not a tile multiple
  int64_t dim = 19;
  testing::EncodedEmbeddings emb{RandomMatrix(num_users, dim, 11),
                                 RandomMatrix(num_items, dim, 22)};
  std::vector<std::vector<int32_t>> history;
  std::vector<int32_t> user_ids;

  QuantFixture() {
    history.resize(static_cast<size_t>(num_users));
    for (int32_t u = 0; u < num_users; ++u) {
      for (int32_t i = u % 7; i < num_items; i += 7 + u % 5) {
        history[static_cast<size_t>(u)].push_back(i);
      }
      user_ids.push_back(u);
    }
  }
};

// The traversal reproduces the scalar reference exactly — rankings and
// score bits: int8 accumulates the integer dot exactly in int32 (which
// cannot overflow at 127^2 * dim), bf16 accumulates widened products in
// ascending depth order.
TEST(QuantKernelTest, QuantMatchesScalarReferenceExactly) {
  const QuantFixture f;
  for (const eval::ScoreEncoding e :
       {eval::ScoreEncoding::kInt8, eval::ScoreEncoding::kBf16}) {
    std::vector<std::vector<float>> scores, want_scores;
    const auto ranked = eval::ScoreTopK(f.emb.view(e), f.user_ids, nullptr,
                                        10, &f.history, {}, nullptr, &scores);
    const auto want = f.emb.OracleTopK(e, f.user_ids, nullptr, 10, &f.history,
                                       &want_scores);
    EXPECT_EQ(ranked, want) << eval::ScoreEncodingName(e);
    EXPECT_EQ(scores, want_scores) << eval::ScoreEncodingName(e);
  }
}

TEST(QuantKernelTest, RankingsBitIdenticalAcrossThreadsAndTiles) {
  const QuantFixture f;
  for (const eval::ScoreEncoding e : testing::kAllEncodings) {
    const auto base =
        eval::ScoreTopK(f.emb.view(e), f.user_ids, nullptr, 10, &f.history);
    for (const int threads : {1, 8}) {
      util::ThreadPool pool(threads);
      util::parallel::ScopedComputePool scoped(&pool);
      for (const int64_t item_tile : {16, 64, 1024}) {
        for (const int64_t user_tile : {1, 5, 64}) {
          eval::FusedRankConfig cfg;
          cfg.item_tile = item_tile;
          cfg.user_tile = user_tile;
          EXPECT_EQ(eval::ScoreTopK(f.emb.view(e), f.user_ids, nullptr, 10,
                                    &f.history, cfg),
                    base)
              << eval::ScoreEncodingName(e) << ", " << threads
              << " threads, tile " << user_tile << "x" << item_tile;
        }
      }
    }
  }
}

TEST(QuantKernelTest, QuantTopKOverlapsF32TopK) {
  const QuantFixture f;
  const int k = 20;
  const auto rank = [&](eval::ScoreEncoding e) {
    return eval::ScoreTopK(f.emb.view(e), f.user_ids, nullptr, k, &f.history);
  };
  const auto f32 = rank(eval::ScoreEncoding::kF32);
  const auto int8 = rank(eval::ScoreEncoding::kInt8);
  const auto bf16 = rank(eval::ScoreEncoding::kBf16);

  auto mean_overlap = [&](const std::vector<std::vector<int32_t>>& other) {
    double total = 0.0;
    for (size_t u = 0; u < f32.size(); ++u) {
      std::vector<int32_t> a = f32[u], b = other[u];
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      std::vector<int32_t> inter;
      std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                            std::back_inserter(inter));
      total += static_cast<double>(inter.size()) /
               static_cast<double>(a.size());
    }
    return total / static_cast<double>(f32.size());
  };
  // Quantization perturbs scores by a bounded amount, so the top-K sets
  // stay close; bf16 (8 significant bits) sits above int8.
  EXPECT_GE(mean_overlap(int8), 0.8);
  EXPECT_GE(mean_overlap(bf16), 0.9);
}

TEST(QuantKernelTest, EmptyUsersAndKLargerThanItems) {
  const QuantFixture f;
  const eval::ScoringView view = f.emb.view(eval::ScoreEncoding::kInt8);
  EXPECT_TRUE(eval::ScoreTopK(view, {}, nullptr, 10, nullptr).empty());
  const auto all =
      eval::ScoreTopK(view, {0}, nullptr, f.num_items + 50, nullptr);
  EXPECT_EQ(all[0].size(), static_cast<size_t>(f.num_items));
}

}  // namespace
}  // namespace layergcn
