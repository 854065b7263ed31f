// Two-stage retrieval suite: ItemIndex build determinism across thread
// counts, candidate-list parity against the full scan for all three
// encodings, candidate edge cases (empty cells, nprobe >= cells, K larger
// than the candidate pool), index-build failure falling back to exact
// retrieval, and the score cache keying on retrieval mode.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "eval/fused_rank.h"
#include "obs/metrics.h"
#include "serve/item_index.h"
#include "serve/recommend_service.h"
#include "serve/snapshot.h"
#include "tensor/matrix.h"
#include "test_util.h"
#include "train/checkpoint.h"
#include "util/fault_injection.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace layergcn::serve {
namespace {

using testing::TempDirFor;

tensor::Matrix RandomMatrix(int64_t rows, int64_t cols, uint64_t seed) {
  tensor::Matrix m(rows, cols);
  util::Rng rng(seed);
  m.UniformInit(&rng, -1.f, 1.f);
  return m;
}

// Clustered items: `clusters` well-separated centers, each item a center
// plus small noise, so a k-means index recovers the structure and a user
// sitting near one center finds its whole top-K inside one probed cell.
tensor::Matrix ClusteredItems(int64_t num_items, int64_t dim,
                              int64_t clusters, uint64_t seed) {
  tensor::Matrix centers = RandomMatrix(clusters, dim, seed);
  for (int64_t c = 0; c < clusters; ++c) {
    float* row = centers.row(c);
    for (int64_t p = 0; p < dim; ++p) row[p] *= 4.f;
  }
  tensor::Matrix items(num_items, dim);
  util::Rng rng(seed + 1);
  for (int64_t j = 0; j < num_items; ++j) {
    const float* center = centers.row(j % clusters);
    float* row = items.row(j);
    for (int64_t p = 0; p < dim; ++p) {
      row[p] = center[p] + static_cast<float>(rng.NextUniform(-0.05, 0.05));
    }
  }
  return items;
}

struct IndexImage {
  std::vector<float> centroids;
  std::vector<int64_t> offsets;
  std::vector<int32_t> items;
};

IndexImage Flatten(const ItemIndex& index) {
  IndexImage image;
  const tensor::Matrix& c = index.centroids();
  image.centroids.assign(c.data(), c.data() + c.rows() * c.cols());
  image.offsets.reserve(index.cells() + 1);
  int64_t total = 0;
  for (int32_t cell = 0; cell < index.cells(); ++cell) {
    image.offsets.push_back(total);
    total += index.cell_size(cell);
    const int32_t* begin = index.cell_begin(cell);
    image.items.insert(image.items.end(), begin, begin + index.cell_size(cell));
  }
  image.offsets.push_back(total);
  return image;
}

class RetrievalTest : public ::testing::Test {
 protected:
  void SetUp() override { util::fault::DisarmAll(); }
  void TearDown() override { util::fault::DisarmAll(); }
};

// ------------------------------------------------------------ index build

TEST_F(RetrievalTest, IndexBuildDeterministicAcrossThreadCounts) {
  const tensor::Matrix items = ClusteredItems(500, 16, 12, 0xabc);
  ItemIndexOptions options;
  options.cells = 16;

  IndexImage reference;
  bool have_reference = false;
  for (const int threads : {1, 2, 8}) {
    util::ThreadPool pool(threads);
    util::parallel::ScopedComputePool scoped(&pool);
    const auto built = ItemIndex::Build(items, options);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    const IndexImage image = Flatten(*built.value());
    if (!have_reference) {
      reference = image;
      have_reference = true;
      continue;
    }
    // Bit-identical, not approximately equal: the same centroids bytes,
    // the same CSR layout, the same member order.
    ASSERT_EQ(image.centroids.size(), reference.centroids.size());
    EXPECT_EQ(std::memcmp(image.centroids.data(), reference.centroids.data(),
                          reference.centroids.size() * sizeof(float)),
              0)
        << "centroids differ at " << threads << " threads";
    EXPECT_EQ(image.offsets, reference.offsets)
        << "cell offsets differ at " << threads << " threads";
    EXPECT_EQ(image.items, reference.items)
        << "cell members differ at " << threads << " threads";
  }
}

TEST_F(RetrievalTest, IndexPartitionsAllItemsSortedWithinCells) {
  const tensor::Matrix items = ClusteredItems(300, 8, 7, 0x77);
  ItemIndexOptions options;
  options.cells = 8;
  const auto built = ItemIndex::Build(items, options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const ItemIndex& index = *built.value();

  std::vector<bool> seen(300, false);
  int64_t total = 0;
  for (int32_t cell = 0; cell < index.cells(); ++cell) {
    const int32_t* begin = index.cell_begin(cell);
    int32_t prev = -1;
    for (int64_t i = 0; i < index.cell_size(cell); ++i) {
      const int32_t item = begin[i];
      ASSERT_GE(item, 0);
      ASSERT_LT(item, 300);
      EXPECT_GT(item, prev) << "cell members not sorted ascending";
      prev = item;
      EXPECT_FALSE(seen[item]) << "item " << item << " in two cells";
      seen[item] = true;
      ++total;
    }
  }
  EXPECT_EQ(total, 300);
}

TEST_F(RetrievalTest, MoreCellsThanItemsClampsAndTolaratesEmptyCells) {
  const tensor::Matrix items = RandomMatrix(5, 4, 0x5);
  ItemIndexOptions options;
  options.cells = 64;  // > num_items: clamped to 5
  const auto built = ItemIndex::Build(items, options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const ItemIndex& index = *built.value();
  EXPECT_EQ(index.cells(), 5);

  // Duplicate points can still empty a cell; probing past every cell must
  // return all items regardless.
  const tensor::Matrix user = RandomMatrix(1, 4, 0x6);
  std::vector<int32_t> probe;
  index.TopCells(user.row(0), 1000, &probe);  // nprobe >> cells: clamped
  EXPECT_EQ(static_cast<int32_t>(probe.size()), index.cells());
  std::vector<int32_t> candidates;
  index.GatherCandidates(probe, &candidates);
  EXPECT_EQ(candidates, (std::vector<int32_t>{0, 1, 2, 3, 4}));
}

TEST_F(RetrievalTest, BuildRejectsEmptyAndNonFinite) {
  EXPECT_FALSE(ItemIndex::Build(tensor::Matrix(), {}).ok());
  tensor::Matrix bad = RandomMatrix(4, 4, 0x9);
  bad.row(2)[1] = std::numeric_limits<float>::quiet_NaN();
  const auto built = ItemIndex::Build(bad, {});
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), util::StatusCode::kDataLoss);
}

// ------------------------------------------------------- candidate lists

// A candidate list must produce the full scan's ranking filtered to the
// candidates — same relative order, same score bits — for every encoding,
// with the whole item space as candidates (the ranking then equals the
// full scan outright) and with a strict subset.
TEST_F(RetrievalTest, SubsetParityEveryEncoding) {
  const testing::EncodedEmbeddings emb(RandomMatrix(12, 24, 0x100),
                                       RandomMatrix(200, 24, 0x101));
  std::vector<int32_t> user_ids;
  for (int32_t u = 0; u < 12; u += 2) user_ids.push_back(u);
  std::vector<std::vector<int32_t>> exclude(12);
  for (int32_t u = 0; u < 12; ++u) exclude[u] = {u, u + 50, u + 100};
  std::vector<int32_t> all_items, every_third;
  for (int32_t j = 0; j < 200; ++j) {
    all_items.push_back(j);
    if (j % 3 == 0) every_third.push_back(j);
  }

  for (const int threads : {1, 8}) {
    util::ThreadPool pool(threads);
    util::parallel::ScopedComputePool scoped(&pool);
    for (const eval::ScoreEncoding e : testing::kAllEncodings) {
      std::vector<std::vector<float>> full_scores;
      const auto full = eval::ScoreTopK(emb.view(e), user_ids, nullptr, 200,
                                        &exclude, {}, nullptr, &full_scores);
      for (const std::vector<int32_t>* candidates : {&all_items,
                                                     &every_third}) {
        std::vector<std::vector<float>> subset_scores;
        const auto subset =
            eval::ScoreTopK(emb.view(e), user_ids, candidates, 20, &exclude,
                            {}, nullptr, &subset_scores);
        ASSERT_EQ(subset.size(), user_ids.size());
        for (size_t u = 0; u < user_ids.size(); ++u) {
          std::vector<int32_t> expect_items;
          std::vector<float> expect_scores;
          for (size_t r = 0;
               r < full[u].size() && expect_items.size() < 20; ++r) {
            if (std::binary_search(candidates->begin(), candidates->end(),
                                   full[u][r])) {
              expect_items.push_back(full[u][r]);
              expect_scores.push_back(full_scores[u][r]);
            }
          }
          EXPECT_EQ(subset[u], expect_items)
              << eval::ScoreEncodingName(e) << ", " << candidates->size()
              << " candidates, " << threads << " threads, user row " << u;
          EXPECT_EQ(subset_scores[u], expect_scores)
              << eval::ScoreEncodingName(e) << ", " << candidates->size()
              << " candidates, " << threads << " threads, user row " << u;
        }
      }
    }
  }
}

TEST_F(RetrievalTest, SubsetKLargerThanCandidatePool) {
  const tensor::Matrix users = RandomMatrix(2, 8, 0x500);
  const tensor::Matrix items = RandomMatrix(50, 8, 0x501);
  std::vector<int32_t> user_ids{0, 1};
  std::vector<int32_t> candidates{3, 17, 41};
  std::vector<std::vector<int32_t>> exclude(2);
  exclude[1] = {17};

  const auto ranked = eval::ScoreTopK(eval::F32Scoring{&users, &items},
                                      user_ids, &candidates, 10, &exclude);
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].size(), 3u);  // K = 10, only 3 candidates
  EXPECT_EQ(ranked[1].size(), 2u);  // one candidate excluded
  for (const int32_t item : ranked[1]) EXPECT_NE(item, 17);
}

// --------------------------------------------------------- service wiring

train::ServingExport ClusteredExport(int64_t version, int64_t num_users,
                                     int64_t num_items) {
  train::ServingExport ex;
  ex.version = version;
  ex.item_emb = ClusteredItems(num_items, 16, 10, 0x600);
  ex.user_emb = tensor::Matrix(num_users, 16);
  util::Rng rng(0x601);
  for (int64_t u = 0; u < num_users; ++u) {
    // Users sit near item clusters so ivf retrieval has signal to find.
    const float* anchor = ex.item_emb.row(u % num_items);
    float* row = ex.user_emb.row(u);
    for (int64_t p = 0; p < 16; ++p) {
      row[p] = anchor[p] + static_cast<float>(rng.NextUniform(-0.1, 0.1));
    }
  }
  ex.user_history.assign(num_users, {});
  for (int64_t u = 0; u < num_users; ++u) {
    ex.user_history[u] = {static_cast<int32_t>(u % num_items)};
  }
  return ex;
}

// nprobe >= cells makes the candidate set the whole item space, so the ivf
// response must be bit-identical to the exact response end to end.
TEST_F(RetrievalTest, IvfWithAllCellsProbedMatchesExact) {
  const std::string dir = TempDirFor("retrieval_allcells");
  ASSERT_TRUE(train::SaveServingExport(SnapshotStore::SnapshotPath(dir, 1),
                                       ClusteredExport(1, 8, 160))
                  .ok());
  SnapshotStore store(dir);
  ItemIndexOptions index_options;
  index_options.cells = 8;
  store.SetIndexOptions(index_options);
  ASSERT_TRUE(store.Reload().ok());
  ASSERT_TRUE(store.current()->has_index());

  RecommendServiceOptions options;
  options.retrieval = RetrievalMode::kIvf;
  options.nprobe = 1000;             // clamped to every cell
  options.score_cache_capacity = 0;  // no caching in a parity test
  RecommendService service(&store);
  RecommendService ivf_service(&store, options);

  for (int32_t u = 0; u < 8; ++u) {
    RecommendRequest req;
    req.user_id = u;
    req.k = 20;
    const auto ivf = ivf_service.Recommend(req);
    ASSERT_TRUE(ivf.ok()) << ivf.status().ToString();
    EXPECT_EQ(ivf.value().retrieval, RetrievalMode::kIvf);
    EXPECT_EQ(ivf.value().candidates, 160);

    req.exact = true;
    const auto exact = ivf_service.Recommend(req);
    ASSERT_TRUE(exact.ok()) << exact.status().ToString();
    EXPECT_EQ(exact.value().retrieval, RetrievalMode::kExact);
    ASSERT_EQ(ivf.value().items.size(), exact.value().items.size());
    for (size_t r = 0; r < exact.value().items.size(); ++r) {
      EXPECT_EQ(ivf.value().items[r].item, exact.value().items[r].item);
      EXPECT_EQ(ivf.value().items[r].score, exact.value().items[r].score);
    }
  }
}

TEST_F(RetrievalTest, IndexBuildFailureFallsBackToExact) {
  const std::string dir = TempDirFor("retrieval_buildfail");
  ASSERT_TRUE(train::SaveServingExport(SnapshotStore::SnapshotPath(dir, 1),
                                       ClusteredExport(1, 4, 80))
                  .ok());
  const obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();

  SnapshotStore store(dir);
  ItemIndexOptions index_options;
  index_options.cells = 8;
  store.SetIndexOptions(index_options);
  util::fault::Arm("serve.index_build_fail");
  // The build fails but the snapshot still publishes.
  ASSERT_TRUE(store.Reload().ok());
  ASSERT_NE(store.current(), nullptr);
  EXPECT_FALSE(store.current()->has_index());

  RecommendServiceOptions options;
  options.retrieval = RetrievalMode::kIvf;
  RecommendService service(&store, options);
  RecommendRequest req;
  req.user_id = 1;
  req.k = 5;
  const auto resp = service.Recommend(req);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp.value().retrieval, RetrievalMode::kExact);
  EXPECT_EQ(resp.value().candidates, 80);

  const obs::MetricsSnapshot after = obs::MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(after.CounterDelta(before, "serve.retrieval.index_build_failures"),
            1u);
  EXPECT_GE(after.CounterDelta(before, "serve.retrieval.exact_fallbacks"), 1u);
}

TEST_F(RetrievalTest, ScoreCacheKeyedByRetrievalMode) {
  const std::string dir = TempDirFor("retrieval_cachemode");
  ASSERT_TRUE(train::SaveServingExport(SnapshotStore::SnapshotPath(dir, 1),
                                       ClusteredExport(1, 4, 80))
                  .ok());
  SnapshotStore store(dir);
  ItemIndexOptions index_options;
  index_options.cells = 8;
  store.SetIndexOptions(index_options);
  ASSERT_TRUE(store.Reload().ok());

  RecommendServiceOptions options;
  options.retrieval = RetrievalMode::kIvf;
  options.nprobe = 2;
  RecommendService service(&store, options);

  RecommendRequest req;
  req.user_id = 2;
  req.k = 5;
  auto resp = service.Recommend(req);
  ASSERT_TRUE(resp.ok());
  EXPECT_FALSE(resp.value().cached);
  EXPECT_EQ(resp.value().retrieval, RetrievalMode::kIvf);

  // Same user again: the ivf entry serves ivf requests.
  resp = service.Recommend(req);
  ASSERT_TRUE(resp.ok());
  EXPECT_TRUE(resp.value().cached);
  EXPECT_EQ(resp.value().retrieval, RetrievalMode::kIvf);

  // An exact override must MISS the ivf entry — an approximate top-K must
  // never answer a request that demanded the exact one.
  req.exact = true;
  resp = service.Recommend(req);
  ASSERT_TRUE(resp.ok());
  EXPECT_FALSE(resp.value().cached);
  EXPECT_EQ(resp.value().retrieval, RetrievalMode::kExact);

  // And the exact entry it cached must not serve the next ivf request.
  req.exact = false;
  resp = service.Recommend(req);
  ASSERT_TRUE(resp.ok());
  EXPECT_FALSE(resp.value().cached);
  EXPECT_EQ(resp.value().retrieval, RetrievalMode::kIvf);
}

TEST_F(RetrievalTest, ParseRetrievalModeRoundTrip) {
  RetrievalMode mode;
  EXPECT_TRUE(ParseRetrievalMode("exact", &mode));
  EXPECT_EQ(mode, RetrievalMode::kExact);
  EXPECT_TRUE(ParseRetrievalMode("ivf", &mode));
  EXPECT_EQ(mode, RetrievalMode::kIvf);
  EXPECT_FALSE(ParseRetrievalMode("annoy", &mode));
  EXPECT_STREQ(RetrievalModeName(RetrievalMode::kExact), "exact");
  EXPECT_STREQ(RetrievalModeName(RetrievalMode::kIvf), "ivf");
}

}  // namespace
}  // namespace layergcn::serve
