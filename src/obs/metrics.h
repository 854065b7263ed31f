// MetricsRegistry: named counters, gauges, and fixed-bucket histograms.
//
// Writers never take the registry lock: each Counter/Histogram spreads its
// updates over cache-line-padded atomic shards indexed by obs::ThreadId(),
// so concurrent increments from pool workers do not bounce a shared line.
// Snapshot() merges the shards under the registry mutex and returns plain
// totals; exact-sum semantics hold because every update is an atomic add.
//
// Get*() returns a stable pointer valid for the process lifetime — call
// sites cache it in a function-local static (the OBS_COUNT / OBS_GAUGE /
// OBS_OBSERVE macros in this header do exactly that).

#ifndef LAYERGCN_OBS_METRICS_H_
#define LAYERGCN_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/obs.h"

namespace layergcn::obs {

namespace internal {

// One cache line per shard so concurrent writers do not false-share.
struct alignas(64) CounterShard {
  std::atomic<uint64_t> value{0};
};

struct alignas(64) DoubleShard {
  std::atomic<double> value{0.0};
};

constexpr int kNumShards = 16;

inline int ShardIndex() {
  return static_cast<int>(ThreadId() % static_cast<uint32_t>(kNumShards));
}

// Sharded double accumulator (CAS add per shard; exact merge on read for
// the magnitudes metrics see — each shard sums in isolation).
class DoubleAdder {
 public:
  void Add(double d) {
    std::atomic<double>& a = shards_[ShardIndex()].value;
    double cur = a.load(std::memory_order_relaxed);
    while (!a.compare_exchange_weak(cur, cur + d,
                                    std::memory_order_relaxed)) {
    }
  }
  double Total() const {
    double total = 0.0;
    for (const auto& s : shards_) {
      total += s.value.load(std::memory_order_relaxed);
    }
    return total;
  }
  void Reset() {
    for (auto& s : shards_) s.value.store(0.0, std::memory_order_relaxed);
  }

 private:
  DoubleShard shards_[kNumShards];
};

}  // namespace internal

/// Monotonic counter.
class Counter {
 public:
  void Add(uint64_t delta) {
    shards_[internal::ShardIndex()].value.fetch_add(delta,
                                                    std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  /// Exact sum of every Add() that happened-before the call.
  uint64_t Total() const {
    uint64_t total = 0;
    for (const auto& s : shards_) total += s.value.load(std::memory_order_relaxed);
    return total;
  }

  void Reset() {
    for (auto& s : shards_) s.value.store(0, std::memory_order_relaxed);
  }

 private:
  internal::CounterShard shards_[internal::kNumShards];
};

/// Last-write-wins double gauge.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double Get() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram. `bounds` are ascending upper edges; a value v
/// lands in the first bucket with v <= bounds[i], or the overflow bucket.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double v);

  const std::vector<double>& bounds() const { return bounds_; }
  /// Merged per-bucket counts (size bounds().size() + 1; last = overflow).
  std::vector<uint64_t> BucketCounts() const;
  uint64_t Count() const { return count_.Total(); }
  double Sum() const;
  void Reset();

 private:
  std::vector<double> bounds_;
  std::vector<std::unique_ptr<Counter>> buckets_;  // last bucket = overflow
  Counter count_;
  internal::DoubleAdder sum_;
};

/// Plain-value view of every metric, merged across shards.
struct HistogramData {
  std::vector<double> bounds;
  std::vector<uint64_t> bucket_counts;
  uint64_t count = 0;
  double sum = 0.0;

  /// The q-quantile (0 < q <= 1) estimated from the bucket counts by
  /// linear interpolation inside the bucket holding rank ceil(q * count);
  /// ranks landing in the overflow bucket answer the last bound. 0 when
  /// the histogram is empty. Deterministic given the same counts.
  double Quantile(double q) const;

  /// this minus `earlier`, bucket by bucket (for per-phase summaries over
  /// a long-lived histogram). Bounds must match; mismatched shapes return
  /// a copy of *this.
  HistogramData Delta(const HistogramData& earlier) const;
};

struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramData> histograms;

  /// counters[name] here minus counters[name] in `earlier` (0 if absent).
  uint64_t CounterDelta(const MetricsSnapshot& earlier,
                        const std::string& name) const;
};

/// Process-wide registry of named metrics.
class MetricsRegistry {
 public:
  /// The global instance (leaked singleton: safe from thread_local dtors).
  static MetricsRegistry& Global();

  /// Get-or-create. Pointers stay valid for the process lifetime.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  /// `bounds` is used on first creation only; later calls return the
  /// existing histogram regardless.
  Histogram* GetHistogram(const std::string& name, std::vector<double> bounds);

  MetricsSnapshot Snapshot() const;
  /// Snapshot rendered as one JSON object (stable key order). Histograms
  /// carry p50/p95/p99 summaries next to their bucket counts.
  std::string SnapshotJson() const;
  /// Writes SnapshotJson() to `path`; false on I/O failure.
  bool WriteSnapshotJson(const std::string& path) const;

  /// Snapshot rendered as Prometheus text exposition format (one
  /// `layergcn_`-prefixed family per metric; '.' in names becomes '_';
  /// histograms export cumulative `_bucket{le=...}` series + _sum/_count).
  std::string PrometheusText() const;

  /// Zeroes every registered metric (names stay registered).
  void ResetAll();

 private:
  MetricsRegistry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace layergcn::obs

#if LAYERGCN_OBS_ENABLED

/// Adds `n` to counter `name` (resolved once, gated on the runtime switch).
#define OBS_COUNT(name, n)                                              \
  do {                                                                  \
    if (::layergcn::obs::Flags() & ::layergcn::obs::kMetricsBit) {      \
      static ::layergcn::obs::Counter* obs_counter_ =                   \
          ::layergcn::obs::MetricsRegistry::Global().GetCounter(name);  \
      obs_counter_->Add(static_cast<uint64_t>(n));                      \
    }                                                                   \
  } while (0)

/// Sets gauge `name` to `v`.
#define OBS_GAUGE(name, v)                                            \
  do {                                                                \
    if (::layergcn::obs::Flags() & ::layergcn::obs::kMetricsBit) {    \
      static ::layergcn::obs::Gauge* obs_gauge_ =                     \
          ::layergcn::obs::MetricsRegistry::Global().GetGauge(name);  \
      obs_gauge_->Set(static_cast<double>(v));                        \
    }                                                                 \
  } while (0)

/// Observes `v` in histogram `name`; parenthesize the bounds argument:
/// OBS_OBSERVE("pool.task_us", (std::vector<double>{10, 100, 1000}), us).
#define OBS_OBSERVE(name, bounds, v)                                       \
  do {                                                                     \
    if (::layergcn::obs::Flags() & ::layergcn::obs::kMetricsBit) {         \
      static ::layergcn::obs::Histogram* obs_histogram_ =                  \
          ::layergcn::obs::MetricsRegistry::Global().GetHistogram(name,    \
                                                                  bounds); \
      obs_histogram_->Observe(static_cast<double>(v));                     \
    }                                                                      \
  } while (0)

#else  // !LAYERGCN_OBS_ENABLED

#define OBS_COUNT(name, n) ((void)0)
#define OBS_GAUGE(name, v) ((void)0)
#define OBS_OBSERVE(name, bounds, v) ((void)0)

#endif  // LAYERGCN_OBS_ENABLED

#endif  // LAYERGCN_OBS_METRICS_H_
