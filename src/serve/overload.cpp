#include "serve/overload.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/obs.h"
#include "util/logging.h"

namespace layergcn::serve {

const char* PriorityName(Priority priority) {
  switch (priority) {
    case Priority::kInteractive: return "interactive";
    case Priority::kBatch: return "batch";
    case Priority::kBackground: return "background";
  }
  return "unknown";
}

bool ParsePriority(const std::string& name, Priority* out) {
  if (name == "interactive") {
    *out = Priority::kInteractive;
  } else if (name == "batch") {
    *out = Priority::kBatch;
  } else if (name == "background") {
    *out = Priority::kBackground;
  } else {
    return false;
  }
  return true;
}

// --- AdaptiveLimiter ----------------------------------------------------

namespace {

AdaptiveLimiter::Options SanitizeLimiter(AdaptiveLimiter::Options o) {
  o.min_limit = std::max<int64_t>(o.min_limit, 1);
  o.max_limit = std::max(o.max_limit, o.min_limit);
  o.initial_limit = std::clamp(o.initial_limit, o.min_limit, o.max_limit);
  o.decrease_factor = std::clamp(o.decrease_factor, 0.05, 0.99);
  o.increase_every = std::max<int64_t>(o.increase_every, 1);
  return o;
}

}  // namespace

AdaptiveLimiter::AdaptiveLimiter() : AdaptiveLimiter(Options()) {}

AdaptiveLimiter::AdaptiveLimiter(const Options& options)
    : options_(SanitizeLimiter(options)), limit_(options_.initial_limit) {
  OBS_GAUGE("serve.overload.limit", static_cast<double>(limit_.load()));
}

void AdaptiveLimiter::CongestionLocked(uint64_t now_us) {
  if (now_us < last_decrease_us_ + options_.decrease_cooldown_us) return;
  last_decrease_us_ = now_us;
  good_streak_ = 0;
  const int64_t cur = limit_.load(std::memory_order_relaxed);
  const int64_t next = std::max(
      options_.min_limit,
      static_cast<int64_t>(static_cast<double>(cur) *
                           options_.decrease_factor));
  if (next != cur) {
    limit_.store(next, std::memory_order_relaxed);
    decreases_.fetch_add(1, std::memory_order_relaxed);
    OBS_COUNT("serve.overload.limit_decreases", 1);
    OBS_GAUGE("serve.overload.limit", static_cast<double>(next));
  }
}

void AdaptiveLimiter::OnComplete(uint64_t now_us, uint64_t latency_us,
                                 bool congested) {
  std::lock_guard<std::mutex> lock(mu_);
  if (congested || latency_us > options_.latency_target_us) {
    CongestionLocked(now_us);
    return;
  }
  if (++good_streak_ < options_.increase_every) return;
  good_streak_ = 0;
  const int64_t cur = limit_.load(std::memory_order_relaxed);
  if (cur >= options_.max_limit) return;
  limit_.store(cur + 1, std::memory_order_relaxed);
  increases_.fetch_add(1, std::memory_order_relaxed);
  OBS_COUNT("serve.overload.limit_increases", 1);
  OBS_GAUGE("serve.overload.limit", static_cast<double>(cur + 1));
}

void AdaptiveLimiter::OnExpired(uint64_t now_us) {
  std::lock_guard<std::mutex> lock(mu_);
  CongestionLocked(now_us);
}

// --- BrownoutController -------------------------------------------------

const char* BrownoutLevelName(BrownoutLevel level) {
  switch (level) {
    case BrownoutLevel::kNone: return "none";
    case BrownoutLevel::kIvf: return "ivf";
    case BrownoutLevel::kQuantized: return "quantized";
    case BrownoutLevel::kCacheOnly: return "cache_only";
  }
  return "unknown";
}

namespace {

BrownoutController::Options SanitizeBrownout(BrownoutController::Options o) {
  o.max_level = std::clamp(o.max_level, 0, kNumBrownoutLevels - 1);
  return o;
}

}  // namespace

BrownoutController::BrownoutController()
    : BrownoutController(Options()) {}

BrownoutController::BrownoutController(const Options& options)
    : options_(SanitizeBrownout(options)) {
  OBS_GAUGE("serve.overload.brownout_level", 0.0);
}

void BrownoutController::PublishLocked() {
  const int level =
      tripped_ ? static_cast<int>(BrownoutLevel::kCacheOnly) : ladder_;
  const int prev = level_.load(std::memory_order_relaxed);
  if (level == prev) return;
  level_.store(level, std::memory_order_relaxed);
  transitions_.fetch_add(1, std::memory_order_relaxed);
  OBS_COUNT("serve.overload.brownout_transitions", 1);
  OBS_GAUGE("serve.overload.brownout_level", static_cast<double>(level));
  LAYERGCN_LOG(kWarning) << "brownout "
                         << BrownoutLevelName(
                                static_cast<BrownoutLevel>(prev))
                         << " -> "
                         << BrownoutLevelName(
                                static_cast<BrownoutLevel>(level));
}

void BrownoutController::ReleaseLocked(uint64_t now_us) {
  if (!tripped_ || now_us < tripped_at_us_ + options_.step_down_hold_us) {
    return;
  }
  // The streak is left as it was: the next scored request is the probe,
  // and one more expiry trips again at once.
  tripped_ = false;
  PublishLocked();
}

BrownoutLevel BrownoutController::OnSloState(obs::SloMonitor::State state,
                                             uint64_t now_us) {
  if (!options_.enabled) return Resolve(now_us);
  std::lock_guard<std::mutex> lock(mu_);
  switch (state) {
    case obs::SloMonitor::State::kBreach:
      ok_since_us_ = 0;
      if (ladder_ < options_.max_level &&
          now_us >= last_step_us_ + options_.step_down_hold_us) {
        ++ladder_;
        last_step_us_ = now_us;
      }
      break;
    case obs::SloMonitor::State::kWarn:
      // Hold: neither direction moves while the burn is elevated but not
      // breaching — this is the hysteresis band.
      ok_since_us_ = 0;
      break;
    case obs::SloMonitor::State::kOk:
      if (ladder_ == 0) break;
      if (ok_since_us_ == 0) {
        ok_since_us_ = now_us;
      } else if (now_us >= ok_since_us_ + options_.step_up_hold_us) {
        --ladder_;
        last_step_us_ = now_us;
        ok_since_us_ = now_us;  // prove recovery again per rung
      }
      break;
  }
  ReleaseLocked(now_us);
  PublishLocked();
  return level();
}

BrownoutLevel BrownoutController::LevelAt(uint64_t now_us) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (tripped_ && now_us < tripped_at_us_ + options_.step_down_hold_us) {
    return BrownoutLevel::kCacheOnly;
  }
  return static_cast<BrownoutLevel>(ladder_);
}

BrownoutLevel BrownoutController::Resolve(uint64_t now_us) {
  std::lock_guard<std::mutex> lock(mu_);
  ReleaseLocked(now_us);
  return level();
}

void BrownoutController::OnScored(bool expired, uint64_t now_us) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!expired) {
    expired_streak_ = 0;
    return;
  }
  // Capped at kTripStreak: past it, every expiry is a trip-worthy one.
  expired_streak_ = std::min(expired_streak_ + 1, kTripStreak);
  if (expired_streak_ < kTripStreak || tripped_) return;
  tripped_ = true;
  tripped_at_us_ = now_us;
  OBS_COUNT("serve.overload.deadline_trips", 1);
  PublishLocked();
}

}  // namespace layergcn::serve
