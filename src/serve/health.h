// Health / readiness reporting for the serving tier.
//
// HealthReporter periodically renders one JSON status document answering
// the operator's questions at a glance — is the service ready (a snapshot
// is loaded), how stale is it, which brownout rung is it serving at, is
// the SLO burning, what are the current shed/degraded/cache-hit rates, how
// deep is the admission queue — and writes it atomically
// (util::WriteFileImage: tmp, fsync, rename) so a reader never sees a torn
// file. Optionally it also writes the whole MetricsRegistry as Prometheus
// text exposition next to it, replaced the same way.
//
// Readiness ladder:
//   "unready"   no snapshot published — the service cannot answer
//   "degraded"  serving, but impaired: a brownout rung (the deadline trip
//               included), an SLO breach, or a stale snapshot
//   "ok"        serving normally
//
// Rates are per-second deltas between consecutive writes of the relevant
// serve.* counters (zero on the first write and when obs metrics are
// compiled out or switched off).
//
// Start() spawns one background thread that writes every period_us;
// WriteNow() is the synchronous path drivers call after a sweep and tests
// use with a synthetic clock.

#ifndef LAYERGCN_SERVE_HEALTH_H_
#define LAYERGCN_SERVE_HEALTH_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "obs/metrics.h"
#include "serve/recommend_service.h"
#include "serve/snapshot.h"

namespace layergcn::serve {

class HealthReporter {
 public:
  struct Options {
    /// Status JSON path; empty disables the status file (StatusJson()
    /// still works).
    std::string status_path;
    /// Prometheus text exposition path; empty disables it.
    std::string prom_path;
    /// Background write period.
    uint64_t period_us = 1'000'000;
    /// Snapshot-staleness alarm: when the served snapshot is older than
    /// this, the ladder degrades and the serve.snapshot_stale gauge flips
    /// to 1 — the "publisher wedged" signal of the continuous pipeline.
    /// 0 disables the check.
    uint64_t max_snapshot_age_us = 0;
  };

  /// `store` and `service` must outlive the reporter.
  HealthReporter(const SnapshotStore* store, const RecommendService* service,
                 Options options);
  ~HealthReporter();

  HealthReporter(const HealthReporter&) = delete;
  HealthReporter& operator=(const HealthReporter&) = delete;

  /// Starts the periodic writer (no-op if already running).
  void Start();
  /// Stops it, flushing one final write so the file reflects shutdown
  /// state. Idempotent; also run by the destructor.
  void Stop();

  /// Renders the status document at `now_us` (obs::NowMicros() epoch).
  std::string StatusJson(uint64_t now_us);

  /// Writes the status file (and the Prometheus file when configured) at
  /// `now_us`. False when any configured write failed.
  bool WriteNow(uint64_t now_us);

  /// Overall status string at `now_us`: "unready" / "degraded" / "ok".
  /// Degraded covers an SLO breach, an active brownout rung (a deadline
  /// trip reads cache_only), or a stale snapshot.
  std::string StatusString(uint64_t now_us) const;

  /// True when staleness checking is on, a snapshot is published, and its
  /// age at `now_us` exceeds Options::max_snapshot_age_us. Updates the
  /// serve.snapshot_stale gauge as a side effect.
  bool SnapshotStale(uint64_t now_us) const;

  /// Status writes that completed (tests / liveness checks).
  uint64_t writes() const { return writes_.load(std::memory_order_relaxed); }

 private:
  void RunLoop();

  const SnapshotStore* const store_;
  const RecommendService* const service_;
  const Options options_;

  // Counter baseline from the previous write, for per-second rates.
  std::mutex rate_mu_;
  obs::MetricsSnapshot last_snapshot_;
  uint64_t last_write_us_ = 0;
  bool has_baseline_ = false;

  std::atomic<uint64_t> writes_{0};

  std::mutex thread_mu_;
  std::condition_variable stop_cv_;
  std::thread thread_;
  bool stopping_ = false;
};

}  // namespace layergcn::serve

#endif  // LAYERGCN_SERVE_HEALTH_H_
