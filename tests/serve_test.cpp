// Robustness suite for the serving subsystem: request-line parsing,
// corrupt-snapshot fallback, deadline expiry mid-block, queue-overflow
// shedding, the deadline trip to the cache-only rung, and bit-identical
// parity between the RecommendService ranking and the offline fused-kernel
// ranking.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "eval/fused_rank.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "serve/access_log.h"
#include "serve/health.h"
#include "serve/recommend_service.h"
#include "serve/request_line.h"
#include "serve/snapshot.h"
#include "tensor/matrix.h"
#include "test_util.h"
#include "train/checkpoint.h"
#include "util/fault_injection.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace layergcn::serve {
namespace {

namespace fs = std::filesystem;

using testing::SaveSmall;
using testing::SmallExport;
using testing::TempDirFor;

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::fault::DisarmAll();
    obs::SetEnabled(true);
  }
  void TearDown() override { util::fault::DisarmAll(); }
};

TEST_F(ServeTest, SnapshotRoundTripAndPopularity) {
  const std::string dir = TempDirFor("serve_roundtrip");
  SaveSmall(dir, 4);
  const auto snap = ModelSnapshot::Load(SnapshotStore::SnapshotPath(dir, 4));
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_EQ(snap.value()->version(), 4);
  EXPECT_EQ(snap.value()->num_users(), 3);
  EXPECT_EQ(snap.value()->num_items(), 6);
  EXPECT_EQ(snap.value()->dim(), 4);
  EXPECT_EQ(snap.value()->popular_items(),
            (std::vector<int32_t>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(snap.value()->item_counts(), (std::vector<int64_t>{3, 2, 1, 1, 0, 0}));
}

TEST_F(ServeTest, SnapshotNamingAndListing) {
  const std::string dir = TempDirFor("serve_listing");
  EXPECT_EQ(SnapshotStore::SnapshotPath(dir, 12), dir + "/snap-000012.lgcn");
  SaveSmall(dir, 12);
  SaveSmall(dir, 3);
  // Noise the listing must ignore.
  { std::ofstream(dir + "/snap-xxxxxx.lgcn") << "nope"; }
  { std::ofstream(dir + "/other.txt") << "nope"; }
  const auto listed = SnapshotStore::ListSnapshots(dir);
  ASSERT_EQ(listed.size(), 2u);
  EXPECT_EQ(listed[0].first, 3);
  EXPECT_EQ(listed[1].first, 12);
}

TEST_F(ServeTest, ReloadEmptyDirectoryIsStructuredError) {
  const std::string dir = TempDirFor("serve_empty");
  SnapshotStore store(dir);
  const util::Status s = store.Reload();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(store.current(), nullptr);
}

TEST_F(ServeTest, CorruptNewestFallsBackToOlderValid) {
  const std::string dir = TempDirFor("serve_fallback");
  SaveSmall(dir, 1);
  SaveSmall(dir, 3);
  const obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();

  // One-shot bit flip corrupts the first file read — the newest (v3).
  util::fault::Arm("serve.snapshot_bit_flip");
  SnapshotStore store(dir);
  const util::Status s = store.Reload();
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_NE(store.current(), nullptr);
  EXPECT_EQ(store.current()->version(), 1);

  const obs::MetricsSnapshot after = obs::MetricsRegistry::Global().Snapshot();
  EXPECT_GE(after.CounterDelta(before, "serve.snapshot_fallbacks"), 1u);
}

TEST_F(ServeTest, TornReloadKeepsPreviousSnapshotServing) {
  const std::string dir = TempDirFor("serve_torn");
  SaveSmall(dir, 1);
  SnapshotStore store(dir);
  ASSERT_TRUE(store.Reload().ok());
  ASSERT_EQ(store.current()->version(), 1);

  SaveSmall(dir, 2);
  util::fault::Arm("serve.reload_torn_read");
  // v2 is torn mid-read; the store walks back to v1, which it is already
  // serving, and keeps it — reload is a graceful no-op, not an outage.
  const util::Status s = store.Reload();
  EXPECT_TRUE(s.ok()) << s.ToString();
  ASSERT_NE(store.current(), nullptr);
  EXPECT_EQ(store.current()->version(), 1);

  // Next reload (fault spent) picks up v2.
  ASSERT_TRUE(store.Reload().ok());
  EXPECT_EQ(store.current()->version(), 2);
}

TEST_F(ServeTest, AllSnapshotsCorruptKeepsNothingButNeverCrashes) {
  const std::string dir = TempDirFor("serve_all_corrupt");
  SaveSmall(dir, 1);
  util::fault::Arm("serve.snapshot_bit_flip");
  SnapshotStore store(dir);
  const util::Status s = store.Reload();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(store.current(), nullptr);
}

TEST_F(ServeTest, RequestValidation) {
  const std::string dir = TempDirFor("serve_validation");
  SaveSmall(dir, 1);
  SnapshotStore store(dir);
  ASSERT_TRUE(store.Reload().ok());
  RecommendService service(&store);

  for (const RecommendRequest req :
       {RecommendRequest{-1, 5, 0}, RecommendRequest{3, 5, 0},
        RecommendRequest{0, 0, 0},
        RecommendRequest{0, service.options().max_k + 1, 0}}) {
    const auto r = service.Recommend(req);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), util::StatusCode::kInvalidArgument)
        << r.status().ToString();
  }
  const auto ok = service.Recommend({0, 3, 0});
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok.value().items.size(), 3u);
}

TEST_F(ServeTest, RequestLineParsesFieldsOverDefaults) {
  RecommendRequest defaults;
  defaults.k = 7;
  defaults.budget_us = 900;
  defaults.priority = Priority::kBackground;

  const ParsedRequest bare = ParseRequestLine(R"({"user":5})", defaults);
  ASSERT_TRUE(bare.parse_ok) << bare.parse_error;
  EXPECT_EQ(bare.req.user_id, 5);
  EXPECT_EQ(bare.req.k, 7);
  EXPECT_EQ(bare.req.budget_us, 900u);
  EXPECT_EQ(bare.req.priority, Priority::kBackground);
  EXPECT_FALSE(bare.req.exact);

  const ParsedRequest full = ParseRequestLine(
      R"({"user":2147483647,"k":3,"budget_us":1e19,"exact":true,)"
      R"("priority":"batch"})",
      defaults);
  ASSERT_TRUE(full.parse_ok) << full.parse_error;
  EXPECT_EQ(full.req.user_id, 2147483647);
  EXPECT_EQ(full.req.k, 3);
  EXPECT_EQ(full.req.budget_us, 10'000'000'000'000'000'000u);
  EXPECT_TRUE(full.req.exact);
  EXPECT_EQ(full.req.priority, Priority::kBatch);

  // An unknown user is the service's verdict, not the parser's.
  EXPECT_TRUE(ParseRequestLine(R"({"user":-1})", defaults).parse_ok);
}

TEST_F(ServeTest, RequestLineRejectsNumbersItsFieldsCannotHold) {
  const RecommendRequest defaults;
  const struct {
    const char* line;
    const char* field;
  } cases[] = {
      {R"({"user":0.9,"k":3})", "\"user\""},
      {R"({"user":0,"k":3.7})", "\"k\""},
      {R"({"user":0,"k":4294967299})", "\"k\""},
      {R"({"user":4294967296,"k":3})", "\"user\""},
      {R"({"user":0,"k":3,"budget_us":1e30})", "\"budget_us\""},
      {R"({"user":0,"k":3,"budget_us":-1})", "\"budget_us\""},
      {R"({"user":-2147483649})", "\"user\""},
      {R"({"user":0,"k":"3"})", "\"k\""},
  };
  for (const auto& c : cases) {
    const ParsedRequest parsed = ParseRequestLine(c.line, defaults);
    EXPECT_FALSE(parsed.parse_ok) << c.line;
    EXPECT_NE(parsed.parse_error.find(c.field), std::string::npos)
        << c.line << ": " << parsed.parse_error;
  }
}

TEST_F(ServeTest, NoSnapshotIsFailedPrecondition) {
  const std::string dir = TempDirFor("serve_no_snapshot");
  SnapshotStore store(dir);
  RecommendService service(&store);
  const auto r = service.Recommend({0, 5, 0});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kFailedPrecondition);
}

TEST_F(ServeTest, DeadlineExpiryMidBlockReturnsPartialPrefix) {
  const std::string dir = TempDirFor("serve_deadline");
  // 64 items, item_tile 16 (the GEMM panel minimum) => 4 runs; the armed
  // slow-score stall burns the whole budget inside the first run, so the
  // traversal stops at the first run boundary and only items [0, 16) were
  // ever scored — in every encoding, since they share the traversal.
  train::ServingExport ex;
  ex.version = 1;
  ex.user_emb = tensor::Matrix(4, 8);
  ex.item_emb = tensor::Matrix(64, 8);
  util::Rng rng(11);
  ex.user_emb.UniformInit(&rng, -1.f, 1.f);
  ex.item_emb.UniformInit(&rng, -1.f, 1.f);
  ex.user_history.assign(4, {});
  ex.write_int8 = true;
  ex.write_bf16 = true;
  ASSERT_TRUE(
      train::SaveServingExport(SnapshotStore::SnapshotPath(dir, 1), ex).ok());

  SnapshotStore store(dir);
  ASSERT_TRUE(store.Reload().ok());
  for (const eval::ScoreEncoding encoding :
       {eval::ScoreEncoding::kF32, eval::ScoreEncoding::kInt8,
        eval::ScoreEncoding::kBf16}) {
    SCOPED_TRACE(eval::ScoreEncodingName(encoding));
    RecommendServiceOptions opt;
    opt.rank.item_tile = 16;
    opt.encoding = encoding;
    RecommendService service(&store, opt);

    // The stall fires before the first run and spins until deadline + 1ms,
    // so any budget produces the same partial prefix — size it generously
    // enough that sanitizer-slowed pre-kernel setup cannot eat the whole
    // budget before the first run is scored.
    util::fault::Arm("serve.slow_score");
    const auto r = service.Recommend({0, 16, /*budget_us=*/100'000});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().encoding, encoding);
    EXPECT_TRUE(r.value().partial);
    ASSERT_FALSE(r.value().items.empty());
    EXPECT_LE(r.value().items.size(), 16u);
    for (const ScoredItem& it : r.value().items) {
      EXPECT_GE(it.item, 0);
      EXPECT_LT(it.item, 16);
    }
  }
}

TEST_F(ServeTest, SpentBudgetIsStructuredNotACrash) {
  const std::string dir = TempDirFor("serve_tiny_budget");
  SaveSmall(dir, 1);
  SnapshotStore store(dir);
  ASSERT_TRUE(store.Reload().ok());
  RecommendService service(&store);
  // A 1us budget is near-certainly spent before the kernel's first block
  // check; either structured outcome (empty => DeadlineExceeded, something
  // scored => partial success) is acceptable — never UB or a crash.
  const auto r = service.Recommend({0, 4, /*budget_us=*/1});
  if (!r.ok()) {
    EXPECT_EQ(r.status().code(), util::StatusCode::kDeadlineExceeded)
        << r.status().ToString();
  }
}

TEST_F(ServeTest, QueueOverflowShedsWithResourceExhausted) {
  const std::string dir = TempDirFor("serve_shed");
  SaveSmall(dir, 1);
  SnapshotStore store(dir);
  ASSERT_TRUE(store.Reload().ok());

  // One compute-pool worker, blocked by a task we control: admitted
  // requests can only queue, so admission state is fully deterministic.
  util::ThreadPool pool(1);
  util::parallel::ScopedComputePool scope(&pool);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  pool.Submit([&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  });

  RecommendServiceOptions opt;
  opt.queue_capacity = 2;
  {
    RecommendService service(&store, opt);
    auto f1 = service.Submit({0, 3, 0});
    auto f2 = service.Submit({1, 3, 0});
    EXPECT_EQ(service.in_flight(), 2);

    auto f3 = service.Submit({2, 3, 0});
    const auto shed = f3.get();  // resolves immediately: shed at the door
    ASSERT_FALSE(shed.ok());
    EXPECT_EQ(shed.status().code(), util::StatusCode::kResourceExhausted);

    {
      std::lock_guard<std::mutex> lock(mu);
      release = true;
    }
    cv.notify_all();
    const auto r1 = f1.get();
    const auto r2 = f2.get();
    EXPECT_TRUE(r1.ok()) << r1.status().ToString();
    EXPECT_TRUE(r2.ok()) << r2.status().ToString();
  }  // dtor drains with the pool alive
}

TEST_F(ServeTest, BudgetExpiredWhileQueuedShedsAtDequeueNeverScored) {
  const std::string dir = TempDirFor("serve_expired_in_queue");
  SaveSmall(dir, 1);
  SnapshotStore store(dir);
  ASSERT_TRUE(store.Reload().ok());

  // Same deterministic-admission trick as the overflow test: one blocked
  // compute-pool worker, so the submitted request can only sit queued
  // while its budget burns down.
  util::ThreadPool pool(1);
  util::parallel::ScopedComputePool scope(&pool);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  pool.Submit([&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  });

  RecommendServiceOptions opt;
  {
    RecommendService service(&store, opt);
    const obs::MetricsSnapshot before =
        obs::MetricsRegistry::Global().Snapshot();

    RecommendRequest req;
    req.user_id = 0;
    req.k = 3;
    req.budget_us = 2'000;
    auto f = service.Submit(req);
    // Burn well past the budget while the request is stuck in the queue.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    {
      std::lock_guard<std::mutex> lock(mu);
      release = true;
    }
    cv.notify_all();

    const auto r = f.get();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), util::StatusCode::kDeadlineExceeded)
        << r.status().ToString();

    const obs::MetricsSnapshot after =
        obs::MetricsRegistry::Global().Snapshot();
    EXPECT_EQ(after.CounterDelta(before, "serve.expired_in_queue"), 1u);
    // Never scored: the request must not have entered the Recommend
    // pipeline at all — shedding expired work is the point.
    EXPECT_EQ(after.CounterDelta(before, "serve.requests"), 0u);
  }
}

// Options for the deadline-trip tests: 64 items at item_tile 16 make 4
// item runs, so the serve.slow_score stall burns the budget inside the
// first run and the second run's boundary check expires the request (a
// single run could never expire).
RecommendServiceOptions TripOptions(uint64_t hold_us) {
  RecommendServiceOptions opt;
  opt.rank.item_tile = 16;
  opt.overload.brownout.step_down_hold_us = hold_us;
  return opt;
}

// Expires kTripStreak scored requests for user 1 in a row. Either expiry
// outcome feeds the streak: a partial ranking or DeadlineExceeded.
void ExpireStreak(RecommendService* service, int count) {
  for (int i = 0; i < count; ++i) {
    util::fault::Arm("serve.slow_score");
    const auto r = service->Recommend({1, 3, /*budget_us=*/5'000});
    if (r.ok()) {
      EXPECT_TRUE(r.value().partial) << i;
    } else {
      EXPECT_EQ(r.status().code(), util::StatusCode::kDeadlineExceeded) << i;
    }
  }
}

TEST_F(ServeTest, DeadlineTripServesPopularityCacheAndExact) {
  const std::string dir = TempDirFor("serve_deadline_trip");
  // Every encoding: the cache-only rung forces int8 for what it would
  // score, yet user 0's entry below, cached at f32/exact, must still serve.
  SaveSmall(dir, 1, /*num_items=*/64);
  SnapshotStore store(dir);
  ASSERT_TRUE(store.Reload().ok());
  // The ladder stays disabled; the hold outlasts the test.
  RecommendService service(&store, TripOptions(3600ull * 1'000'000ull));

  ASSERT_TRUE(service.Recommend({0, 3, 0}).ok());  // user 0 is cached
  const obs::MetricsSnapshot before =
      obs::MetricsRegistry::Global().Snapshot();
  ExpireStreak(&service, BrownoutController::kTripStreak - 1);
  EXPECT_EQ(service.brownout().level(), BrownoutLevel::kNone);
  ExpireStreak(&service, 1);
  EXPECT_EQ(service.brownout().level(), BrownoutLevel::kCacheOnly);
  const obs::MetricsSnapshot after = obs::MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(after.CounterDelta(before, "serve.overload.deadline_trips"), 1u);

  // Uncached, non-exact: the popularity ranking. User 1's history is
  // {0, 2}; popularity minus history = [1, 3, 4, ...] with counts
  // [2, 1, 0, ...].
  RequestContext ctx;
  const auto r = service.Recommend({1, 3, 0}, &ctx);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.value().degraded);
  EXPECT_FALSE(r.value().cached);
  EXPECT_EQ(r.value().brownout, BrownoutLevel::kCacheOnly);
  ASSERT_EQ(r.value().items.size(), 3u);
  EXPECT_EQ(r.value().items[0].item, 1);
  EXPECT_EQ(r.value().items[1].item, 3);
  EXPECT_EQ(r.value().items[2].item, 4);
  EXPECT_FLOAT_EQ(r.value().items[0].score, 2.f);
  EXPECT_FLOAT_EQ(r.value().items[1].score, 1.f);
  EXPECT_FLOAT_EQ(r.value().items[2].score, 0.f);
  // The access log names the rung that explains the degraded answer.
  obs::JsonValue record;
  std::string error;
  ASSERT_TRUE(obs::ParseJson(AccessLog::RecordJson(ctx), &record, &error))
      << error;
  EXPECT_TRUE(record.Find("degraded")->boolean);
  EXPECT_EQ(record.Find("brownout_level")->number, 3.0);

  // A cached user keeps its cache hit, whatever mode it was cached at,
  // and the hit does not end the trip. The response, context and access
  // record name the entry's own encoding and retrieval.
  RequestContext cached_ctx;
  const auto cached = service.Recommend({0, 3, 0}, &cached_ctx);
  ASSERT_TRUE(cached.ok());
  EXPECT_TRUE(cached.value().cached);
  EXPECT_FALSE(cached.value().degraded);
  EXPECT_EQ(cached.value().encoding, eval::ScoreEncoding::kF32);
  EXPECT_EQ(cached.value().retrieval, RetrievalMode::kExact);
  EXPECT_EQ(cached.value().brownout, BrownoutLevel::kCacheOnly);
  obs::JsonValue cached_record;
  ASSERT_TRUE(obs::ParseJson(AccessLog::RecordJson(cached_ctx),
                             &cached_record, &error))
      << error;
  EXPECT_TRUE(cached_record.Find("cached")->boolean);
  EXPECT_FALSE(cached_record.Find("degraded")->boolean);
  EXPECT_EQ(cached_record.Find("encoding")->string, "f32");
  EXPECT_EQ(cached_record.Find("retrieval")->string, "exact");
  EXPECT_EQ(service.brownout().level(), BrownoutLevel::kCacheOnly);

  // An exact request is the parity reference: exempt, still scored.
  RecommendRequest exact{2, 3, 0};
  exact.exact = true;
  const auto scored = service.Recommend(exact);
  ASSERT_TRUE(scored.ok());
  EXPECT_FALSE(scored.value().degraded);
  EXPECT_FALSE(scored.value().cached);
  EXPECT_EQ(scored.value().candidates, 64);

  // Health: degraded, at the cache-only rung, with no separate breaker.
  HealthReporter health(&store, &service, {});
  const uint64_t now = obs::NowMicros();
  EXPECT_EQ(health.StatusString(now), "degraded");
  obs::JsonValue status;
  ASSERT_TRUE(obs::ParseJson(health.StatusJson(now), &status, &error))
      << error;
  EXPECT_EQ(status.Find("status")->string, "degraded");
  EXPECT_EQ(status.Find("overload")->Find("brownout")->string, "cache_only");
  EXPECT_EQ(status.Find("breaker"), nullptr);
}

TEST_F(ServeTest, CacheHitAfterReleaseLeavesTheProbeToScoring) {
  const std::string dir = TempDirFor("serve_deadline_probe");
  SaveSmall(dir, 1, /*num_items=*/64);
  SnapshotStore store(dir);
  ASSERT_TRUE(store.Reload().ok());
  const uint64_t hold_us = 20'000;
  RecommendService service(&store, TripOptions(hold_us));

  ASSERT_TRUE(service.Recommend({0, 3, 0}).ok());  // user 0 is cached
  const obs::MetricsSnapshot before =
      obs::MetricsRegistry::Global().Snapshot();
  ExpireStreak(&service, BrownoutController::kTripStreak);
  EXPECT_EQ(service.brownout().level(), BrownoutLevel::kCacheOnly);

  // Past the hold, the next request releases the trip. A cache hit ran no
  // scoring, so it says nothing about the scoring path: the streak stands.
  std::this_thread::sleep_for(std::chrono::microseconds(hold_us + 10'000));
  const auto cached = service.Recommend({0, 3, 0});
  ASSERT_TRUE(cached.ok());
  EXPECT_TRUE(cached.value().cached);
  EXPECT_EQ(cached.value().brownout, BrownoutLevel::kNone);
  EXPECT_EQ(service.brownout().level(), BrownoutLevel::kNone);

  // The first scored request is the probe: one expiry trips again.
  ExpireStreak(&service, 1);
  EXPECT_EQ(service.brownout().level(), BrownoutLevel::kCacheOnly);
  const obs::MetricsSnapshot after = obs::MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(after.CounterDelta(before, "serve.overload.deadline_trips"), 2u);
}

// The service must rank bit-identically to the offline evaluation path:
// same FusedScoreTopK kernel, same embeddings, same exclusion lists, same
// (score desc, id asc) total order — at any worker count.
TEST_F(ServeTest, TopKBitIdenticalToEvaluatorKernelAt1And8Threads) {
  const std::string dir = TempDirFor("serve_parity");
  const int32_t num_users = 40;
  const int32_t num_items = 300;
  const int64_t dim = 16;

  train::ServingExport ex;
  ex.version = 1;
  ex.user_emb = tensor::Matrix(num_users, dim);
  ex.item_emb = tensor::Matrix(num_items, dim);
  util::Rng rng(23);
  ex.user_emb.UniformInit(&rng, -1.f, 1.f);
  ex.item_emb.UniformInit(&rng, -1.f, 1.f);
  ex.user_history.resize(num_users);
  for (int32_t u = 0; u < num_users; ++u) {
    for (int32_t i = u % 7; i < num_items; i += 11 + u % 5) {
      ex.user_history[static_cast<size_t>(u)].push_back(i);
    }
  }
  ASSERT_TRUE(
      train::SaveServingExport(SnapshotStore::SnapshotPath(dir, 1), ex).ok());
  SnapshotStore store(dir);
  ASSERT_TRUE(store.Reload().ok());

  const int k = 20;
  std::vector<int32_t> all_users(num_users);
  for (int32_t u = 0; u < num_users; ++u) all_users[static_cast<size_t>(u)] = u;

  std::vector<std::vector<ScoredItem>> per_thread_results;
  for (const int threads : {1, 8}) {
    util::ThreadPool pool(threads);
    util::parallel::ScopedComputePool scoped(&pool);
    // The Evaluator's ranking for these embeddings: the fused kernel over
    // every user with training items excluded (Evaluator::RankUsers makes
    // exactly this call).
    std::vector<std::vector<float>> ref_scores;
    const std::vector<std::vector<int32_t>> reference = eval::FusedScoreTopK(
        ex.user_emb, all_users, ex.item_emb, k, &ex.user_history, {},
        /*deadline=*/nullptr, &ref_scores);

    RecommendService service(&store);
    std::vector<ScoredItem> flat;
    for (int32_t u = 0; u < num_users; ++u) {
      const auto r = service.Recommend({u, k, 0});
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_FALSE(r.value().partial);
      EXPECT_FALSE(r.value().degraded);
      const auto& ref_u = reference[static_cast<size_t>(u)];
      ASSERT_EQ(r.value().items.size(), ref_u.size()) << "user " << u;
      for (size_t i = 0; i < ref_u.size(); ++i) {
        EXPECT_EQ(r.value().items[i].item, ref_u[i])
            << "user " << u << " rank " << i << " threads " << threads;
        EXPECT_EQ(r.value().items[i].score, ref_scores[static_cast<size_t>(u)][i])
            << "user " << u << " rank " << i << " threads " << threads;
        flat.push_back(r.value().items[i]);
      }
    }
    per_thread_results.push_back(std::move(flat));
  }

  // And the served rankings themselves are identical across worker counts.
  ASSERT_EQ(per_thread_results[0].size(), per_thread_results[1].size());
  for (size_t i = 0; i < per_thread_results[0].size(); ++i) {
    EXPECT_EQ(per_thread_results[0][i].item, per_thread_results[1][i].item);
    EXPECT_EQ(per_thread_results[0][i].score, per_thread_results[1][i].score);
  }
}

// Every serve fault point degrades or errors structurally — no crash, and
// the service keeps answering afterwards.
TEST_F(ServeTest, FaultSweepNeverCrashes) {
  const std::string dir = TempDirFor("serve_sweep");
  SaveSmall(dir, 1);
  SaveSmall(dir, 2);
  for (const char* point :
       {"serve.snapshot_bit_flip", "serve.reload_torn_read",
        "serve.slow_score"}) {
    SCOPED_TRACE(point);
    util::fault::DisarmAll();
    util::fault::Arm(point);
    SnapshotStore store(dir);
    (void)store.Reload();  // may fall back; must not crash
    RecommendService service(&store);
    const auto r1 = service.Recommend({0, 3, /*budget_us=*/2000});
    if (!r1.ok()) {
      EXPECT_NE(r1.status().code(), util::StatusCode::kOk);
    }
    util::fault::DisarmAll();
    ASSERT_TRUE(store.Reload().ok());
    const auto r2 = service.Recommend({0, 3, 0});
    EXPECT_TRUE(r2.ok()) << r2.status().ToString();
  }
}

// --- Quantized snapshot encodings --------------------------------------

TEST_F(ServeTest, SnapshotCarriesQuantizedCopies) {
  const std::string dir = TempDirFor("serve_quant_roundtrip");
  SaveSmall(dir, 1);
  const auto snap = ModelSnapshot::Load(SnapshotStore::SnapshotPath(dir, 1));
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_TRUE(snap.value()->has_int8());
  EXPECT_TRUE(snap.value()->has_bf16());
  EXPECT_EQ(snap.value()->user_int8().rows, snap.value()->num_users());
  EXPECT_EQ(snap.value()->item_int8_panel().depth, snap.value()->dim());
  EXPECT_EQ(snap.value()->item_int8_panel().count, snap.value()->num_items());
  EXPECT_EQ(snap.value()->user_bf16().rows, snap.value()->num_users());
  EXPECT_EQ(snap.value()->item_bf16_panel().count, snap.value()->num_items());
}

TEST_F(ServeTest, F32OnlyExportLoadsWithoutQuant) {
  const std::string dir = TempDirFor("serve_quant_f32only");
  train::ServingExport ex = SmallExport(1);
  ex.write_int8 = false;
  ex.write_bf16 = false;
  ASSERT_TRUE(
      train::SaveServingExport(SnapshotStore::SnapshotPath(dir, 1), ex).ok());
  const auto snap = ModelSnapshot::Load(SnapshotStore::SnapshotPath(dir, 1));
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_FALSE(snap.value()->has_int8());
  EXPECT_FALSE(snap.value()->has_bf16());
}

TEST_F(ServeTest, CorruptQuantSectionFallsBackToF32) {
  const std::string dir = TempDirFor("serve_quant_corrupt");
  SaveSmall(dir, 1);
  const std::string path = SnapshotStore::SnapshotPath(dir, 1);

  // Flip a byte inside the bf16 section payload (the last section): its
  // CRC no longer matches, so exactly that quantized copy is dropped.
  std::string image;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    image = buf.str();
  }
  image[image.size() - 8] ^= 0x10;
  { std::ofstream(path, std::ios::binary | std::ios::trunc) << image; }

  const obs::MetricsSnapshot before =
      obs::MetricsRegistry::Global().Snapshot();
  const auto snap = ModelSnapshot::Load(path);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_TRUE(snap.value()->has_int8());   // earlier section, still valid
  EXPECT_FALSE(snap.value()->has_bf16());  // damaged copy dropped
  // The f32 reference is untouched — scoring still works.
  EXPECT_EQ(snap.value()->num_users(), 3);
  EXPECT_EQ(snap.value()->num_items(), 6);
  const obs::MetricsSnapshot after = obs::MetricsRegistry::Global().Snapshot();
  EXPECT_GE(after.CounterDelta(before, "serve.snapshot_fallbacks"), 1u);
}

TEST_F(ServeTest, TruncatedQuantTailFallsBackToF32) {
  const std::string dir = TempDirFor("serve_quant_truncated");
  // Baseline: the same export without quant sections, to find where the
  // quant tail begins.
  train::ServingExport f32_only = SmallExport(1);
  f32_only.write_int8 = false;
  f32_only.write_bf16 = false;
  const std::string probe = dir + "/probe.bin";
  ASSERT_TRUE(train::SaveServingExport(probe, f32_only).ok());
  const auto f32_size = fs::file_size(probe);

  SaveSmall(dir, 1);
  const std::string path = SnapshotStore::SnapshotPath(dir, 1);
  ASSERT_GT(fs::file_size(path), f32_size);

  // Tear the file inside the int8 section payload: both quant sections are
  // gone, the required sections before them are intact.
  fs::resize_file(path, f32_size + 16);
  // The v2 header still claims 5 sections; the parse must degrade, not
  // fail. (Quant sections are written last precisely for this.)
  const obs::MetricsSnapshot before =
      obs::MetricsRegistry::Global().Snapshot();
  const auto snap = ModelSnapshot::Load(path);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_FALSE(snap.value()->has_int8());
  EXPECT_FALSE(snap.value()->has_bf16());
  EXPECT_EQ(snap.value()->num_items(), 6);
  const obs::MetricsSnapshot after = obs::MetricsRegistry::Global().Snapshot();
  EXPECT_GE(after.CounterDelta(before, "serve.snapshot_fallbacks"), 1u);
}

TEST_F(ServeTest, MissingEncodingFallsBackToF32PerRequest) {
  const std::string dir = TempDirFor("serve_encoding_fallback");
  train::ServingExport ex = SmallExport(1);
  ex.write_int8 = false;
  ex.write_bf16 = false;
  ASSERT_TRUE(
      train::SaveServingExport(SnapshotStore::SnapshotPath(dir, 1), ex).ok());
  SnapshotStore store(dir);
  ASSERT_TRUE(store.Reload().ok());

  RecommendServiceOptions opt;
  opt.encoding = eval::ScoreEncoding::kInt8;
  RecommendService service(&store, opt);
  const obs::MetricsSnapshot before =
      obs::MetricsRegistry::Global().Snapshot();
  const auto r = service.Recommend({0, 3, 0});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().encoding, eval::ScoreEncoding::kF32);
  const obs::MetricsSnapshot after = obs::MetricsRegistry::Global().Snapshot();
  EXPECT_GE(after.CounterDelta(before, "serve.encoding_fallbacks"), 1u);
}

TEST_F(ServeTest, Int8ServingOverlapsF32TopK) {
  const std::string dir = TempDirFor("serve_quant_overlap");
  const int32_t num_users = 30;
  const int32_t num_items = 200;
  train::ServingExport ex;
  ex.version = 1;
  ex.user_emb = tensor::Matrix(num_users, 16);
  ex.item_emb = tensor::Matrix(num_items, 16);
  util::Rng rng(31);
  ex.user_emb.UniformInit(&rng, -1.f, 1.f);
  ex.item_emb.UniformInit(&rng, -1.f, 1.f);
  ex.user_history.resize(num_users);
  ASSERT_TRUE(
      train::SaveServingExport(SnapshotStore::SnapshotPath(dir, 1), ex).ok());
  SnapshotStore store(dir);
  ASSERT_TRUE(store.Reload().ok());

  RecommendServiceOptions f32_opt;
  RecommendServiceOptions int8_opt;
  int8_opt.encoding = eval::ScoreEncoding::kInt8;
  RecommendService f32_service(&store, f32_opt);
  RecommendService int8_service(&store, int8_opt);

  const int k = 20;
  double overlap_total = 0.0;
  for (int32_t u = 0; u < num_users; ++u) {
    const auto rf = f32_service.Recommend({u, k, 0});
    const auto rq = int8_service.Recommend({u, k, 0});
    ASSERT_TRUE(rf.ok());
    ASSERT_TRUE(rq.ok());
    EXPECT_EQ(rq.value().encoding, eval::ScoreEncoding::kInt8);
    std::vector<int32_t> a, b;
    for (const ScoredItem& it : rf.value().items) a.push_back(it.item);
    for (const ScoredItem& it : rq.value().items) b.push_back(it.item);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    std::vector<int32_t> inter;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(inter));
    overlap_total += static_cast<double>(inter.size()) /
                     static_cast<double>(a.size());
  }
  // int8 perturbs scores by a bounded amount; the served top-K must stay
  // close to the f32 reference (exact agreement is not required — ranks
  // near the cutoff may swap).
  EXPECT_GE(overlap_total / num_users, 0.8);
}

// --- Score cache --------------------------------------------------------

TEST_F(ServeTest, ScoreCacheHitsServePrefixesAndInvalidateOnHotSwap) {
  const std::string dir = TempDirFor("serve_score_cache");
  SaveSmall(dir, 1);
  SnapshotStore store(dir);
  ASSERT_TRUE(store.Reload().ok());
  RecommendService service(&store);  // cache on by default

  const obs::MetricsSnapshot before =
      obs::MetricsRegistry::Global().Snapshot();
  const auto r1 = service.Recommend({0, 4, 0});
  ASSERT_TRUE(r1.ok());
  EXPECT_FALSE(r1.value().cached);

  // Same request: served from cache, byte-identical items.
  const auto r2 = service.Recommend({0, 4, 0});
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2.value().cached);
  ASSERT_EQ(r2.value().items.size(), r1.value().items.size());
  for (size_t i = 0; i < r1.value().items.size(); ++i) {
    EXPECT_EQ(r2.value().items[i].item, r1.value().items[i].item);
    EXPECT_EQ(r2.value().items[i].score, r1.value().items[i].score);
  }

  // Smaller k: the cached top-4 answers k=2 exactly (prefix serve).
  const auto r3 = service.Recommend({0, 2, 0});
  ASSERT_TRUE(r3.ok());
  EXPECT_TRUE(r3.value().cached);
  ASSERT_EQ(r3.value().items.size(), 2u);
  EXPECT_EQ(r3.value().items[0].item, r1.value().items[0].item);
  EXPECT_EQ(r3.value().items[1].item, r1.value().items[1].item);

  // Larger k cannot be answered from a smaller cached list.
  const auto r4 = service.Recommend({0, 5, 0});
  ASSERT_TRUE(r4.ok());
  EXPECT_FALSE(r4.value().cached);

  const obs::MetricsSnapshot mid = obs::MetricsRegistry::Global().Snapshot();
  EXPECT_GE(mid.CounterDelta(before, "serve.score_cache_hits"), 2u);
  EXPECT_GE(mid.CounterDelta(before, "serve.score_cache_misses"), 2u);

  // Hot-swap to v2: entries keyed to v1 must never serve again.
  SaveSmall(dir, 2);
  ASSERT_TRUE(store.Reload().ok());
  const auto r5 = service.Recommend({0, 4, 0});
  ASSERT_TRUE(r5.ok());
  EXPECT_FALSE(r5.value().cached);
  EXPECT_EQ(r5.value().snapshot_version, 2);
  const auto r6 = service.Recommend({0, 4, 0});
  ASSERT_TRUE(r6.ok());
  EXPECT_TRUE(r6.value().cached);
  EXPECT_EQ(r6.value().snapshot_version, 2);
}

TEST_F(ServeTest, ScoreCacheDisabledNeverServesCached) {
  const std::string dir = TempDirFor("serve_cache_off");
  SaveSmall(dir, 1);
  SnapshotStore store(dir);
  ASSERT_TRUE(store.Reload().ok());
  RecommendServiceOptions opt;
  opt.score_cache_capacity = 0;
  RecommendService service(&store, opt);
  for (int i = 0; i < 3; ++i) {
    const auto r = service.Recommend({0, 4, 0});
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r.value().cached);
  }
}

TEST_F(ServeTest, ScoreCacheEvictsLeastRecentlyUsed) {
  const std::string dir = TempDirFor("serve_cache_lru");
  SaveSmall(dir, 1);
  SnapshotStore store(dir);
  ASSERT_TRUE(store.Reload().ok());
  RecommendServiceOptions opt;
  opt.score_cache_capacity = 2;
  RecommendService service(&store, opt);

  ASSERT_TRUE(service.Recommend({0, 3, 0}).ok());  // cache: {0}
  ASSERT_TRUE(service.Recommend({1, 3, 0}).ok());  // cache: {0, 1}
  // Touch 0 so user 1 is the LRU entry, then insert 2 — evicting 1.
  EXPECT_TRUE(service.Recommend({0, 3, 0}).value().cached);
  ASSERT_TRUE(service.Recommend({2, 3, 0}).ok());  // cache: {0, 2}
  EXPECT_TRUE(service.Recommend({0, 3, 0}).value().cached);
  EXPECT_TRUE(service.Recommend({2, 3, 0}).value().cached);
  EXPECT_FALSE(service.Recommend({1, 3, 0}).value().cached);  // evicted
}

TEST_F(ServeTest, HotSwapRacingInFlightRecommends) {
  // Reload() hot-swaps the snapshot pointer while reader threads hammer
  // Recommend(): every response must be complete, OK, and stamped with a
  // version that was published at some point — never a crash, never a
  // torn snapshot. All requests use user 0, valid in every version.
  const std::string dir = TempDirFor("serve_hotswap_race");
  SaveSmall(dir, 1);
  SnapshotStore store(dir);
  ASSERT_TRUE(store.Reload().ok());
  RecommendService service(&store);

  std::atomic<bool> stop{false};
  std::atomic<int64_t> served{0}, failed{0}, bad_version{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const auto r = service.Recommend({0, 3, 0});
        served.fetch_add(1, std::memory_order_relaxed);
        if (!r.ok()) {
          failed.fetch_add(1, std::memory_order_relaxed);
        } else if (r.value().snapshot_version < 1 ||
                   r.value().snapshot_version > 40 ||
                   r.value().items.empty()) {
          bad_version.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  // Publisher side: rotate through 40 versions as fast as reloads go.
  for (int64_t v = 2; v <= 40; ++v) {
    SaveSmall(dir, v);
    ASSERT_TRUE(store.Reload().ok());
    ASSERT_EQ(store.current()->version(), v);
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();

  EXPECT_GT(served.load(), 0);
  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(bad_version.load(), 0);
}

TEST_F(ServeTest, FailedReloadKeepsServingUnderConcurrentLoad) {
  // A reload that finds only garbage must leave in-flight and subsequent
  // requests on the previous snapshot, even while readers are active.
  const std::string dir = TempDirFor("serve_hotswap_fail");
  SaveSmall(dir, 1);
  SnapshotStore store(dir);
  ASSERT_TRUE(store.Reload().ok());
  RecommendService service(&store);

  std::atomic<bool> stop{false};
  std::atomic<int64_t> failed{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const auto r = service.Recommend({0, 3, 0});
      if (!r.ok() || r.value().snapshot_version != 1) {
        failed.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  for (int i = 0; i < 20; ++i) {
    // Newer-looking snapshot that is pure garbage: reload validation
    // rejects it and falls back to v1, which it is already serving.
    { std::ofstream(SnapshotStore::SnapshotPath(dir, 2)) << "garbage"; }
    (void)store.Reload();
    ASSERT_NE(store.current(), nullptr);
    ASSERT_EQ(store.current()->version(), 1);
  }
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(failed.load(), 0);
}

}  // namespace
}  // namespace layergcn::serve
