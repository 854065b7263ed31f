// Overload control for the serving tier: adaptive concurrency, priority
// classes, and the brownout ladder.
//
// Three cooperating pieces, all deterministic under a synthetic clock
// (callers pass `now_us` explicitly):
//
//   AdaptiveLimiter      AIMD concurrency limit driven by completion
//                        latency. Completions over the latency target (or
//                        flagged congested: deadline partials/expiries)
//                        multiply the limit down by `decrease_factor`, at
//                        most once per `decrease_cooldown_us`; a streak of
//                        `increase_every` good completions adds one. The
//                        live limit is the serve.overload.limit gauge, so
//                        an operator sees the service squeeze itself when
//                        scoring slows down and re-open when it recovers.
//
//   Priority             Strict-priority admission classes. When the
//                        admission bound is hit, the service sheds the
//                        lowest class first (evicting a queued background
//                        or batch request to admit an interactive one)
//                        and stamps shed responses with a retry_after_ms
//                        hint sized from the smoothed service latency and
//                        current backlog.
//
//   BrownoutController   The one state machine behind every degraded
//                        answer. Two inputs move it:
//                        - SLO burn (obs::SloMonitor), when enabled:
//                          sustained kBreach steps the ladder down one rung
//                          at a time — exact -> ivf -> quantized ->
//                          cache/popularity only — and recovery steps back
//                          up only after the SLO has held kOk for
//                          `step_up_hold_us` (hysteresis: stepping down is
//                          fast, stepping up is deliberate, so the ladder
//                          cannot flap on the boundary of a burn window).
//                        - Deadline outcomes, always: kTripStreak scored
//                          requests expiring in a row trip the controller
//                          straight to kCacheOnly (serve.overload.
//                          deadline_trips), so a struggling scoring path is
//                          not hammered while it is slow. After
//                          `step_down_hold_us` the trip releases to the
//                          ladder's own rung; the next scored request is
//                          the probe — one more expiry trips again at
//                          once, a completion clears the streak.
//                        The live rung is the serve.overload.brownout_level
//                        gauge and is recorded per-request in
//                        RequestContext / the access log.
//
// RecommendService owns one of each and wires them into Submit()
// admission, worker dequeue, and Recommend() mode resolution.

#ifndef LAYERGCN_SERVE_OVERLOAD_H_
#define LAYERGCN_SERVE_OVERLOAD_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

#include "obs/slo.h"

namespace layergcn::serve {

// --- Priority classes --------------------------------------------------

/// Admission priority, highest first. Shedding walks the classes from the
/// bottom: background is dropped before batch, batch before interactive.
enum class Priority {
  kInteractive = 0,
  kBatch = 1,
  kBackground = 2,
};
inline constexpr int kNumPriorities = 3;

const char* PriorityName(Priority priority);
/// Parses "interactive" / "batch" / "background"; false on anything else.
bool ParsePriority(const std::string& name, Priority* out);

// --- Adaptive concurrency limiter --------------------------------------

/// Thread-safe AIMD concurrency limiter. limit() is a lock-free read on
/// the admission path; OnComplete()/OnExpired() take a mutex (one call per
/// finished request).
class AdaptiveLimiter {
 public:
  struct Options {
    /// Limit at startup, clamped into [min_limit, max_limit].
    int64_t initial_limit = 8;
    int64_t min_limit = 1;
    int64_t max_limit = 512;
    /// Completions slower than this are congestion signals.
    uint64_t latency_target_us = 50'000;
    /// Multiplicative decrease on congestion (0 < factor < 1).
    double decrease_factor = 0.7;
    /// At most one multiplicative decrease per this window — one slow
    /// burst is one signal, not limit^-N.
    uint64_t decrease_cooldown_us = 20'000;
    /// Good completions per additive +1.
    int64_t increase_every = 16;
  };

  AdaptiveLimiter();  // default Options
  explicit AdaptiveLimiter(const Options& options);

  /// Current concurrency limit (admission reads this lock-free).
  int64_t limit() const { return limit_.load(std::memory_order_relaxed); }

  /// Accounts one finished request: `latency_us` is submit-to-finish (the
  /// queue wait is the signal AIMD needs), `congested` marks outcomes that
  /// are overload symptoms regardless of latency (deadline partial /
  /// deadline error).
  void OnComplete(uint64_t now_us, uint64_t latency_us, bool congested);

  /// A request expired while queued — the strongest congestion signal; an
  /// immediate multiplicative decrease (subject to the cooldown).
  void OnExpired(uint64_t now_us);

  int64_t decreases() const { return decreases_.load(std::memory_order_relaxed); }
  int64_t increases() const { return increases_.load(std::memory_order_relaxed); }
  const Options& options() const { return options_; }

 private:
  void CongestionLocked(uint64_t now_us);  // mu_ held

  const Options options_;
  std::atomic<int64_t> limit_;
  std::atomic<int64_t> decreases_{0};
  std::atomic<int64_t> increases_{0};
  std::mutex mu_;
  uint64_t last_decrease_us_ = 0;
  int64_t good_streak_ = 0;
};

// --- Brownout ladder ----------------------------------------------------

/// Serving-quality rungs, cheapest last. Each level implies the ones above
/// it (kQuantized also serves from the index when one exists).
enum class BrownoutLevel {
  kNone = 0,       // exact / configured serving mode
  kIvf = 1,        // force index retrieval (candidate subset)
  kQuantized = 2,  // force the cheapest quantized encoding too
  kCacheOnly = 3,  // cache hits and popularity fallback only
};
inline constexpr int kNumBrownoutLevels = 4;

const char* BrownoutLevelName(BrownoutLevel level);

/// Thread-safe brownout state machine: a hysteresis ladder over SLO burn
/// states plus a deadline trip to the deepest rung.
class BrownoutController {
 public:
  /// Scored requests expiring in a row that trip the controller.
  static constexpr int kTripStreak = 5;

  struct Options {
    /// SLO burn drives the ladder. The deadline trip works either way.
    bool enabled = false;
    /// Deepest rung the ladder may reach (0..3). A trip ignores it.
    int max_level = 3;
    /// Minimum dwell between consecutive downward steps — one sustained
    /// breach walks the ladder rung by rung, not straight to the bottom.
    /// Also how long a deadline trip holds kCacheOnly.
    uint64_t step_down_hold_us = 250'000;
    /// Continuous kOk required per upward step. Much longer than the
    /// downward hold: recovery must be proven, not glimpsed.
    uint64_t step_up_hold_us = 2'000'000;
  };

  BrownoutController();  // default Options
  explicit BrownoutController(const Options& options);

  /// Feeds the current SLO state at `now_us` and returns the rung a request
  /// starting then is served under. kBreach steps the ladder down one rung
  /// per step_down_hold_us; kWarn holds; kOk held continuously for
  /// step_up_hold_us steps up one rung (and restarts the hold, so full
  /// recovery takes one hold per rung). A disabled ladder stays at kNone.
  /// Either way a live trip overrides the ladder's rung (see Resolve).
  BrownoutLevel OnSloState(obs::SloMonitor::State state, uint64_t now_us);

  /// The rung a request starting at `now_us` is served under without
  /// consulting the SLO: releases a trip whose hold has passed.
  BrownoutLevel Resolve(uint64_t now_us);

  /// Reports whether a model-scored request's deadline expired (a partial
  /// ranking or DeadlineExceeded). kTripStreak expiries in a row trip the
  /// controller; a completion resets the streak.
  void OnScored(bool expired, uint64_t now_us);

  /// The current rung, as of the last request, trip or release.
  BrownoutLevel level() const {
    return static_cast<BrownoutLevel>(
        level_.load(std::memory_order_relaxed));
  }
  /// Level changes in either direction since construction, trips and
  /// releases included.
  int64_t transitions() const {
    return transitions_.load(std::memory_order_relaxed);
  }
  const Options& options() const { return options_; }

 private:
  /// Ends a trip whose hold has passed. mu_ held.
  void ReleaseLocked(uint64_t now_us);
  /// Publishes the effective rung: kCacheOnly while tripped, else the
  /// ladder's own. mu_ held.
  void PublishLocked();

  const Options options_;
  std::atomic<int> level_{0};
  std::atomic<int64_t> transitions_{0};
  std::mutex mu_;
  int ladder_ = 0;             // the SLO ladder's own rung
  uint64_t last_step_us_ = 0;  // last ladder step, either direction
  uint64_t ok_since_us_ = 0;
  int expired_streak_ = 0;
  bool tripped_ = false;
  uint64_t tripped_at_us_ = 0;
};

// --- Service wiring ------------------------------------------------------

struct OverloadOptions {
  /// Adaptive concurrency on: the limiter replaces the static bound as the
  /// number of requests scored concurrently; queue_capacity still bounds
  /// total backlog (queued + executing).
  bool adaptive = false;
  /// Static concurrency cap when not adaptive; 0 = queue_capacity (the
  /// pre-limiter behavior: everything admitted is dispatched at once).
  int64_t fixed_limit = 0;
  AdaptiveLimiter::Options limiter;
  BrownoutController::Options brownout;
};

/// Point-in-time overload snapshot for HealthReporter / tests.
struct OverloadState {
  bool adaptive = false;
  int64_t limit = 0;
  int64_t executing = 0;
  int64_t queued[kNumPriorities] = {0, 0, 0};
  BrownoutLevel brownout = BrownoutLevel::kNone;
  int64_t brownout_transitions = 0;
  uint64_t smoothed_latency_us = 0;
};

}  // namespace layergcn::serve

#endif  // LAYERGCN_SERVE_OVERLOAD_H_
