// Overload-control suite: AIMD limiter arithmetic on a synthetic clock,
// brownout ladder hysteresis and the deadline trip, the service's latency
// smoothing, strict-priority admission/eviction, and a TSan-hunting storm
// that races Submit() floods against limiter adaptation, brownout
// transitions, and snapshot hot-swaps.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/slo.h"
#include "serve/overload.h"
#include "serve/recommend_service.h"
#include "serve/snapshot.h"
#include "test_util.h"
#include "util/fault_injection.h"
#include "util/parallel.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace layergcn::serve {
namespace {

using SloState = obs::SloMonitor::State;
using testing::SaveSmall;
using testing::TempDirFor;

class OverloadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::fault::DisarmAll();
    obs::SetEnabled(true);
  }
  void TearDown() override { util::fault::DisarmAll(); }
};

// --- Priority ------------------------------------------------------------

TEST_F(OverloadTest, PriorityNamesRoundTrip) {
  EXPECT_STREQ(PriorityName(Priority::kInteractive), "interactive");
  EXPECT_STREQ(PriorityName(Priority::kBatch), "batch");
  EXPECT_STREQ(PriorityName(Priority::kBackground), "background");
  Priority p = Priority::kBackground;
  EXPECT_TRUE(ParsePriority("interactive", &p));
  EXPECT_EQ(p, Priority::kInteractive);
  EXPECT_TRUE(ParsePriority("batch", &p));
  EXPECT_EQ(p, Priority::kBatch);
  EXPECT_TRUE(ParsePriority("background", &p));
  EXPECT_EQ(p, Priority::kBackground);
  EXPECT_FALSE(ParsePriority("urgent", &p));
  EXPECT_FALSE(ParsePriority("", &p));
}

// --- AdaptiveLimiter -----------------------------------------------------

AdaptiveLimiter::Options SmallLimiter() {
  AdaptiveLimiter::Options o;
  o.initial_limit = 8;
  o.min_limit = 1;
  o.max_limit = 16;
  o.latency_target_us = 1'000;
  o.decrease_factor = 0.5;
  o.decrease_cooldown_us = 1'000;
  o.increase_every = 2;
  return o;
}

TEST_F(OverloadTest, LimiterDecreasesMultiplicativelyWithCooldown) {
  AdaptiveLimiter limiter(SmallLimiter());
  EXPECT_EQ(limiter.limit(), 8);

  // Slow completion: multiplicative decrease.
  limiter.OnComplete(/*now_us=*/10'000, /*latency_us=*/5'000, false);
  EXPECT_EQ(limiter.limit(), 4);
  EXPECT_EQ(limiter.decreases(), 1);

  // A burst of slow completions inside the cooldown is ONE signal.
  limiter.OnComplete(10'100, 5'000, false);
  limiter.OnComplete(10'200, 5'000, false);
  EXPECT_EQ(limiter.limit(), 4);
  EXPECT_EQ(limiter.decreases(), 1);

  // Cooldown elapsed: the next slow completion squeezes again.
  limiter.OnComplete(11'100, 5'000, false);
  EXPECT_EQ(limiter.limit(), 2);

  // The congested flag forces a decrease regardless of latency (deadline
  // partials are overload symptoms even when they finished "fast").
  limiter.OnComplete(13'000, /*latency_us=*/10, /*congested=*/true);
  EXPECT_EQ(limiter.limit(), 1);

  // Floor: never below min_limit.
  limiter.OnComplete(15'000, 5'000, false);
  limiter.OnComplete(17'000, 5'000, false);
  EXPECT_EQ(limiter.limit(), 1);
}

TEST_F(OverloadTest, LimiterIncreasesAdditivelyOnGoodStreaks) {
  AdaptiveLimiter::Options o = SmallLimiter();
  o.initial_limit = 2;
  AdaptiveLimiter limiter(o);

  // increase_every good completions buy exactly +1.
  limiter.OnComplete(1'000, 100, false);
  EXPECT_EQ(limiter.limit(), 2);
  limiter.OnComplete(1'100, 100, false);
  EXPECT_EQ(limiter.limit(), 3);
  EXPECT_EQ(limiter.increases(), 1);

  // A congestion signal resets the streak: the next single good
  // completion must not increase.
  limiter.OnComplete(5'000, 100, false);
  limiter.OnComplete(9'000, 5'000, false);  // decrease, streak reset
  EXPECT_EQ(limiter.limit(), 1);
  limiter.OnComplete(9'100, 100, false);
  EXPECT_EQ(limiter.limit(), 1);
  limiter.OnComplete(9'200, 100, false);
  EXPECT_EQ(limiter.limit(), 2);

  // Ceiling: never above max_limit.
  AdaptiveLimiter::Options top = SmallLimiter();
  top.initial_limit = 16;
  AdaptiveLimiter capped(top);
  for (int i = 0; i < 10; ++i) capped.OnComplete(1'000 + i, 100, false);
  EXPECT_EQ(capped.limit(), 16);
  EXPECT_EQ(capped.increases(), 0);
}

TEST_F(OverloadTest, LimiterExpiryIsAnImmediateCongestionSignal) {
  AdaptiveLimiter limiter(SmallLimiter());
  limiter.OnExpired(10'000);
  EXPECT_EQ(limiter.limit(), 4);
  // Still subject to the cooldown: expiry storms are one signal too.
  limiter.OnExpired(10'500);
  EXPECT_EQ(limiter.limit(), 4);
  limiter.OnExpired(11'500);
  EXPECT_EQ(limiter.limit(), 2);
}

// --- BrownoutController --------------------------------------------------

BrownoutController::Options FastBrownout() {
  BrownoutController::Options o;
  o.enabled = true;
  o.max_level = 3;
  o.step_down_hold_us = 1'000;
  o.step_up_hold_us = 10'000;
  return o;
}

TEST_F(OverloadTest, BrownoutWalksDownRungByRungAndRecoversSlowly) {
  BrownoutController ladder(FastBrownout());
  EXPECT_EQ(ladder.level(), BrownoutLevel::kNone);

  // Sustained breach: one rung per step_down_hold, not straight down.
  EXPECT_EQ(ladder.OnSloState(SloState::kBreach, 10'000), BrownoutLevel::kIvf);
  EXPECT_EQ(ladder.OnSloState(SloState::kBreach, 10'500), BrownoutLevel::kIvf);
  EXPECT_EQ(ladder.OnSloState(SloState::kBreach, 11'000),
            BrownoutLevel::kQuantized);
  EXPECT_EQ(ladder.OnSloState(SloState::kBreach, 12'000),
            BrownoutLevel::kCacheOnly);
  // Bottom rung holds.
  EXPECT_EQ(ladder.OnSloState(SloState::kBreach, 20'000),
            BrownoutLevel::kCacheOnly);
  EXPECT_EQ(ladder.transitions(), 3);

  // kWarn is the hysteresis band: no movement either way, and it resets
  // any recovery credit already earned.
  EXPECT_EQ(ladder.OnSloState(SloState::kOk, 30'000),
            BrownoutLevel::kCacheOnly);
  EXPECT_EQ(ladder.OnSloState(SloState::kWarn, 35'000),
            BrownoutLevel::kCacheOnly);
  // The earlier 5ms of kOk no longer counts: the hold restarts from here.
  EXPECT_EQ(ladder.OnSloState(SloState::kOk, 36'000),
            BrownoutLevel::kCacheOnly);
  EXPECT_EQ(ladder.OnSloState(SloState::kOk, 45'000),
            BrownoutLevel::kCacheOnly);
  EXPECT_EQ(ladder.OnSloState(SloState::kOk, 46'000),
            BrownoutLevel::kQuantized);

  // Each upward rung needs its own full hold.
  EXPECT_EQ(ladder.OnSloState(SloState::kOk, 47'000),
            BrownoutLevel::kQuantized);
  EXPECT_EQ(ladder.OnSloState(SloState::kOk, 56'000), BrownoutLevel::kIvf);
  EXPECT_EQ(ladder.OnSloState(SloState::kOk, 66'000), BrownoutLevel::kNone);
  EXPECT_EQ(ladder.transitions(), 6);
}

TEST_F(OverloadTest, BrownoutRespectsMaxLevelAndDisabled) {
  BrownoutController::Options o = FastBrownout();
  o.max_level = 1;
  BrownoutController shallow(o);
  EXPECT_EQ(shallow.OnSloState(SloState::kBreach, 10'000),
            BrownoutLevel::kIvf);
  EXPECT_EQ(shallow.OnSloState(SloState::kBreach, 20'000),
            BrownoutLevel::kIvf);

  BrownoutController off;  // default options: disabled
  EXPECT_EQ(off.OnSloState(SloState::kBreach, 10'000), BrownoutLevel::kNone);
  EXPECT_EQ(off.OnSloState(SloState::kBreach, 20'000), BrownoutLevel::kNone);
  EXPECT_EQ(off.transitions(), 0);
}

TEST_F(OverloadTest, DeadlineStreakTripsHoldsAndReleasesToNone) {
  BrownoutController::Options o = FastBrownout();
  o.enabled = false;  // the trip works without the SLO ladder
  BrownoutController controller(o);
  const obs::MetricsSnapshot before =
      obs::MetricsRegistry::Global().Snapshot();
  const int below = BrownoutController::kTripStreak - 1;

  // kTripStreak - 1 expiries do not trip, and a completion resets them.
  for (int i = 0; i < below; ++i) controller.OnScored(true, 1'000);
  EXPECT_EQ(controller.Resolve(1'000), BrownoutLevel::kNone);
  controller.OnScored(false, 1'100);
  for (int i = 0; i < below; ++i) controller.OnScored(true, 1'200);
  EXPECT_EQ(controller.Resolve(1'200), BrownoutLevel::kNone);
  // The next expiry completes the streak: straight to the deepest rung.
  controller.OnScored(true, 2'000);
  EXPECT_EQ(controller.level(), BrownoutLevel::kCacheOnly);
  EXPECT_EQ(controller.OnSloState(SloState::kOk, 2'500),
            BrownoutLevel::kCacheOnly);
  EXPECT_EQ(controller.Resolve(2'999), BrownoutLevel::kCacheOnly);
  // After step_down_hold_us the trip releases to the disabled ladder's
  // rung, kNone.
  EXPECT_EQ(controller.Resolve(3'000), BrownoutLevel::kNone);
  EXPECT_EQ(controller.transitions(), 2);

  // The first scored request after a release is the probe: one expiry
  // trips again at once...
  controller.OnScored(true, 3'100);
  EXPECT_EQ(controller.level(), BrownoutLevel::kCacheOnly);
  EXPECT_EQ(controller.Resolve(4'100), BrownoutLevel::kNone);
  // ...and one completion clears the streak.
  controller.OnScored(false, 4'200);
  for (int i = 0; i < below; ++i) controller.OnScored(true, 4'300);
  EXPECT_EQ(controller.Resolve(4'300), BrownoutLevel::kNone);
  EXPECT_EQ(controller.transitions(), 4);

  const obs::MetricsSnapshot after = obs::MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(after.CounterDelta(before, "serve.overload.deadline_trips"), 2u);
  EXPECT_EQ(after.CounterDelta(before, "serve.overload.brownout_transitions"),
            4u);
}

TEST_F(OverloadTest, DeadlineTripIgnoresMaxLevelAndReleasesToTheLadderRung) {
  BrownoutController::Options o = FastBrownout();
  o.max_level = 1;
  BrownoutController shallow(o);
  EXPECT_EQ(shallow.OnSloState(SloState::kBreach, 10'000),
            BrownoutLevel::kIvf);
  for (int i = 0; i < BrownoutController::kTripStreak; ++i) {
    shallow.OnScored(true, 10'100);
  }
  EXPECT_EQ(shallow.level(), BrownoutLevel::kCacheOnly);
  EXPECT_EQ(shallow.OnSloState(SloState::kBreach, 11'000),
            BrownoutLevel::kCacheOnly);
  EXPECT_EQ(shallow.OnSloState(SloState::kBreach, 11'100),
            BrownoutLevel::kIvf);
  EXPECT_EQ(shallow.transitions(), 3);

  // The ladder keeps stepping underneath a trip; the release lands on the
  // rung it reached.
  BrownoutController deep(FastBrownout());
  EXPECT_EQ(deep.OnSloState(SloState::kBreach, 10'000), BrownoutLevel::kIvf);
  for (int i = 0; i < BrownoutController::kTripStreak; ++i) {
    deep.OnScored(true, 10'100);
  }
  EXPECT_EQ(deep.OnSloState(SloState::kBreach, 11'000),
            BrownoutLevel::kCacheOnly);
  EXPECT_EQ(deep.OnSloState(SloState::kWarn, 11'100),
            BrownoutLevel::kQuantized);
  EXPECT_EQ(deep.transitions(), 3);
}

// --- Strict-priority admission -------------------------------------------

TEST_F(OverloadTest, CapacityEvictsLowestClassNewestFirst) {
  const std::string dir = TempDirFor("overload_priority");
  SaveSmall(dir, 1);
  SnapshotStore store(dir);
  ASSERT_TRUE(store.Reload().ok());

  // One blocked compute-pool worker: admission state is deterministic.
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
  opt.queue_capacity = 3;
  {
    RecommendService service(&store, opt);
    const obs::MetricsSnapshot before =
        obs::MetricsRegistry::Global().Snapshot();

    const auto make = [](int32_t user, Priority priority) {
      RecommendRequest req;
      req.user_id = user;
      req.k = 3;
      req.priority = priority;
      return req;
    };
    auto fi = service.Submit(make(0, Priority::kInteractive));
    auto fb1 = service.Submit(make(1, Priority::kBatch));
    auto fb2 = service.Submit(make(2, Priority::kBatch));
    EXPECT_EQ(service.in_flight(), 3);

    // Interactive arrival at capacity evicts the NEWEST queued batch
    // request (fb2), not the oldest — freshest low-priority work has
    // waited least, so shedding it wastes the least queueing effort.
    auto fi2 = service.Submit(make(0, Priority::kInteractive));
    const auto evicted = fb2.get();
    ASSERT_FALSE(evicted.ok());
    EXPECT_EQ(evicted.status().code(),
              util::StatusCode::kResourceExhausted);
    EXPECT_NE(evicted.status().message().find("retry_after_ms="),
              std::string::npos)
        << evicted.status().message();
    EXPECT_EQ(service.in_flight(), 3);

    // A background arrival at capacity finds nothing below itself to
    // evict: it is shed at the door.
    auto fbg = service.Submit(make(1, Priority::kBackground));
    const auto shed = fbg.get();
    ASSERT_FALSE(shed.ok());
    EXPECT_EQ(shed.status().code(), util::StatusCode::kResourceExhausted);

    // A batch arrival at capacity cannot evict its own class either.
    auto fb3 = service.Submit(make(2, Priority::kBatch));
    const auto shed_batch = fb3.get();
    ASSERT_FALSE(shed_batch.ok());
    EXPECT_EQ(shed_batch.status().code(),
              util::StatusCode::kResourceExhausted);

    {
      std::lock_guard<std::mutex> lock(mu);
      release = true;
    }
    cv.notify_all();
    // Everything still queued completes: both interactive and the oldest
    // batch request survived the storm.
    EXPECT_TRUE(fi.get().ok());
    EXPECT_TRUE(fb1.get().ok());
    EXPECT_TRUE(fi2.get().ok());

    const obs::MetricsSnapshot after =
        obs::MetricsRegistry::Global().Snapshot();
    EXPECT_EQ(after.CounterDelta(before, "serve.shed"), 3u);
    EXPECT_EQ(after.CounterDelta(before, "serve.shed.batch"), 2u);
    EXPECT_EQ(after.CounterDelta(before, "serve.shed.background"), 1u);
    EXPECT_EQ(after.CounterDelta(before, "serve.shed.interactive"), 0u);
  }
}

// --- Latency smoothing -----------------------------------------------------

TEST_F(OverloadTest, ServiceSmoothsLatencyForRetryHints) {
  const std::string dir = TempDirFor("overload_ewma");
  SaveSmall(dir, 1);
  SnapshotStore store(dir);
  ASSERT_TRUE(store.Reload().ok());

  // One blocked compute-pool worker holds the first request queued for at
  // least 50ms, so its submit-to-finish latency dwarfs the second's.
  util::ThreadPool pool(1);
  util::parallel::ScopedComputePool scope(&pool);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  pool.Submit([&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  });
  RecommendService service(&store);
  EXPECT_EQ(service.overload_state(obs::NowMicros()).smoothed_latency_us,
            0u);

  auto slow = service.Submit({0, 3, 0});
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  ASSERT_TRUE(slow.get().ok());
  // The first sample seeds the average whole, not at weight 1/8.
  const uint64_t seeded =
      service.overload_state(obs::NowMicros()).smoothed_latency_us;
  EXPECT_GE(seeded, 50'000u);

  // A fast sample moves it by 1/8 of the difference.
  ASSERT_TRUE(service.Submit({1, 3, 0}).get().ok());
  const uint64_t smoothed =
      service.overload_state(obs::NowMicros()).smoothed_latency_us;
  EXPECT_LT(smoothed, seeded);
  EXPECT_GE(smoothed, seeded - seeded / 8);
}

// --- The storm: Submit() floods vs adaptation vs hot-swap ----------------

// Every structured outcome an async request may legitimately resolve to
// under overload; anything else is a bug the storm exists to catch.
bool StructuredOutcome(const util::StatusOr<RecommendResponse>& r) {
  if (r.ok()) return true;
  switch (r.status().code()) {
    case util::StatusCode::kResourceExhausted:   // shed / evicted
    case util::StatusCode::kDeadlineExceeded:    // expired or mid-score
      return true;
    default:
      return false;
  }
}

TEST_F(OverloadTest, SubmitStormRacesAdaptationBrownoutAndHotSwap) {
  const std::string dir = TempDirFor("overload_storm");
  SaveSmall(dir, 1);
  SnapshotStore store(dir);
  ASSERT_TRUE(store.Reload().ok());

  util::ThreadPool pool(4);
  util::parallel::ScopedComputePool scope(&pool);

  RecommendServiceOptions opt;
  opt.queue_capacity = 16;
  opt.overload.adaptive = true;
  opt.overload.limiter.initial_limit = 4;
  opt.overload.limiter.max_limit = 16;
  // A 200us target under storm load guarantees both congestion signals
  // and good streaks, so the limit genuinely moves while Submit() races.
  opt.overload.limiter.latency_target_us = 200;
  opt.overload.limiter.decrease_cooldown_us = 500;
  opt.overload.limiter.increase_every = 4;
  opt.overload.brownout.enabled = true;
  opt.overload.brownout.step_down_hold_us = 1'000;
  opt.overload.brownout.step_up_hold_us = 2'000;
  // An aggressive latency SLO so the burn monitor actually changes state
  // during the storm and drives brownout transitions.
  opt.stats.slo.latency_target_us = 200;

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 200;
  std::atomic<int64_t> ok_count{0}, shed_count{0}, deadline_count{0},
      unstructured{0};
  {
    RecommendService service(&store, opt);

    std::atomic<bool> stop_swapping{false};
    std::thread swapper([&] {
      // Hot-swap a new snapshot version every ~2ms for the storm's whole
      // duration: in-flight requests keep their snapshot, new ones see
      // the fresh version, and nothing tears.
      int64_t version = 2;
      while (!stop_swapping.load(std::memory_order_relaxed)) {
        SaveSmall(dir, version);
        ASSERT_TRUE(store.Reload().ok());
        ++version;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });

    std::vector<std::thread> producers;
    for (int t = 0; t < kProducers; ++t) {
      producers.emplace_back([&, t] {
        std::vector<std::future<util::StatusOr<RecommendResponse>>> futures;
        futures.reserve(kPerProducer);
        for (int i = 0; i < kPerProducer; ++i) {
          RecommendRequest req;
          req.user_id = (t + i) % 3;
          req.k = 3;
          req.priority = static_cast<Priority>(i % kNumPriorities);
          // Half the storm carries tight budgets so deadline expiry and
          // the expired-in-queue path race the limiter too.
          req.budget_us = (i % 2 == 0) ? 500 : 0;
          futures.push_back(service.Submit(req));
        }
        for (auto& f : futures) {
          const auto r = f.get();
          if (!StructuredOutcome(r)) {
            unstructured.fetch_add(1);
          } else if (r.ok()) {
            ok_count.fetch_add(1);
          } else if (r.status().code() ==
                     util::StatusCode::kResourceExhausted) {
            shed_count.fetch_add(1);
          } else {
            deadline_count.fetch_add(1);
          }
        }
      });
    }
    for (std::thread& p : producers) p.join();
    stop_swapping.store(true, std::memory_order_relaxed);
    swapper.join();

    // Full accounting: every offered request resolved to exactly one
    // structured outcome.
    EXPECT_EQ(unstructured.load(), 0);
    EXPECT_EQ(ok_count.load() + shed_count.load() + deadline_count.load(),
              kProducers * kPerProducer);
    EXPECT_GT(ok_count.load(), 0);

    // The limiter stayed inside its bounds while racing everything.
    const OverloadState state = service.overload_state(obs::NowMicros());
    EXPECT_TRUE(state.adaptive);
    EXPECT_GE(state.limit, opt.overload.limiter.min_limit);
    EXPECT_LE(state.limit, opt.overload.limiter.max_limit);
  }  // service dtor drains against the live pool
}

}  // namespace
}  // namespace layergcn::serve
