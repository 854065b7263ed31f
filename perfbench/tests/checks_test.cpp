// Each per-op correctness check of the benchmark accepts the right answer
// and fails an op when fed a wrong one.

#include "checks.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <future>
#include <limits>
#include <memory>

#include "catalog.h"
#include "harness.h"
#include "pipeline/wal.h"
#include "serve/recommend_service.h"
#include "serve/snapshot.h"
#include "train/checkpoint.h"
#include "util/parallel.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

namespace pipeline = layergcn::pipeline;
namespace serve = layergcn::serve;
namespace util = layergcn::util;

std::string FreshDir(const std::string& name) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / ("perfbench_" + name))
          .string();
  ResetDir(dir);
  return dir;
}

TEST(ChecksTest, TrainEpochNeedsAFiniteLoss) {
  EXPECT_TRUE(LossIsFinite(0.693));
  EXPECT_FALSE(LossIsFinite(std::numeric_limits<double>::quiet_NaN()));
  EXPECT_FALSE(LossIsFinite(std::numeric_limits<double>::infinity()));
}

class ServeCheckTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string dir = FreshDir("serve_check");
    const layergcn::train::ServingExport ex =
        MakeCatalog(CatalogSpec{200, 300, 16, 8, 10}, 5);
    ASSERT_TRUE(layergcn::train::SaveServingExport(
                    serve::SnapshotStore::SnapshotPath(dir, ex.version), ex)
                    .ok());
    store_ = std::make_unique<serve::SnapshotStore>(dir);
    ASSERT_TRUE(store_->Reload().ok());
  }

  std::vector<serve::ScoredItem> Served(int32_t user) {
    serve::RecommendService service(store_.get());
    serve::RecommendRequest req;
    req.user_id = user;
    req.k = 20;
    const util::StatusOr<serve::RecommendResponse> r = service.Recommend(req);
    EXPECT_TRUE(r.ok());
    return r.value().items;
  }

  std::unique_ptr<serve::SnapshotStore> store_;
};

// The service ranks with the tiled kernel; the reference with the
// materialize-then-rank oracle. Every user's answer agrees bit for bit.
TEST_F(ServeCheckTest, ServedAnswerMatchesOfflineReRank) {
  for (int32_t user = 0; user < 200; ++user) {
    EXPECT_TRUE(RankingMatches(
        Served(user), ExactReference(*store_->current(), user, 20)))
        << "user " << user;
  }
}

TEST_F(ServeCheckTest, PerturbedReferenceFailsTheOp) {
  const std::vector<serve::ScoredItem> served = Served(17);
  const Ranking ref = ExactReference(*store_->current(), 17, 20);

  Ranking swapped = ref;
  std::swap(swapped.items[3], swapped.items[4]);
  EXPECT_FALSE(RankingMatches(served, swapped));

  Ranking flipped = ref;
  uint32_t bits = 0;
  std::memcpy(&bits, &flipped.scores[0], sizeof(bits));
  bits ^= 1u;  // one ulp: same order, different score bits
  std::memcpy(&flipped.scores[0], &bits, sizeof(bits));
  EXPECT_FALSE(RankingMatches(served, flipped));

  Ranking shorter = ref;
  shorter.items.pop_back();
  shorter.scores.pop_back();
  EXPECT_FALSE(RankingMatches(served, shorter));

  Ranking other = ExactReference(*store_->current(), 18, 20);
  EXPECT_FALSE(RankingMatches(served, other));
}

// A request the service strands in its queue is counted lost once the
// collector's 5 s wait runs out, and the loop still ends.
TEST_F(ServeCheckTest, StrandedRequestIsLostNotAwaited) {
  util::ThreadPool pool(1);
  util::parallel::ScopedComputePool scoped(&pool);
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  pool.Submit([gate] { gate.wait(); });  // the only worker is busy
  serve::RecommendService service(store_.get());
  int resolved = 0;
  {
    bool sent = false;
    OpenLoop loop(
        &service,
        [&](Arrival* a) {
          if (sent) return false;
          sent = true;
          a->due_us = NowUs();
          a->req.user_id = 3;
          a->req.k = 5;
          return true;
        },
        [&](const Finished&) { ++resolved; }, 1, Cpus{});
    loop.Join();
    EXPECT_EQ(loop.lost(), 1);
  }
  EXPECT_EQ(resolved, 0);
  release.set_value();
}

TEST(ChecksTest, LiveCycleMustServeTheNewVersion) {
  EXPECT_TRUE(CycleServesNewVersion(3, 4, 4));
  EXPECT_FALSE(CycleServesNewVersion(4, 4, 4));  // nothing published
  EXPECT_FALSE(CycleServesNewVersion(3, 4, 3));  // read served the old one
}

TEST(ChecksTest, LiveReadMustNotPredateAPublication) {
  const std::vector<Publication> published{{100, 1}, {200, 2}};
  EXPECT_TRUE(ReadIsFresh({150, 1}, published));
  EXPECT_TRUE(ReadIsFresh({250, 2}, published));
  EXPECT_FALSE(ReadIsFresh({250, 1}, published));
}

TEST(ChecksTest, LiveStateMustEqualWalReplay) {
  const std::string dir = FreshDir("wal_replay");
  EventStream events(50, 40, 9);
  const std::vector<pipeline::WalRecord> records = events.Next(300);
  {
    util::StatusOr<std::unique_ptr<pipeline::InteractionWal>> wal =
        pipeline::InteractionWal::Open({dir});
    ASSERT_TRUE(wal.ok());
    for (const pipeline::WalRecord& r : records) {
      ASSERT_TRUE(wal.value()->Append(r).ok());
    }
    ASSERT_TRUE(wal.value()->Commit().ok());
  }
  const pipeline::DeltaOptions options;
  pipeline::DeltaIngestor live(options);
  live.Apply(records);
  const util::StatusOr<uint32_t> replay = ReplayDigest(dir, options);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay.value(), live.Digest());

  // State the WAL never committed makes the digests differ.
  live.Apply({pipeline::WalRecord{60, 0, 1000}});
  EXPECT_NE(replay.value(), live.Digest());
}

}  // namespace
}  // namespace perfbench
