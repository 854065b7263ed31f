#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "obs/json.h"

namespace layergcn::obs {

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  // Bounds must be strictly ascending; enforce by sorting + deduping so a
  // bad literal degrades gracefully instead of mis-bucketing.
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  buckets_.reserve(bounds_.size() + 1);
  for (size_t i = 0; i < bounds_.size() + 1; ++i) {
    buckets_.push_back(std::make_unique<Counter>());
  }
}

void Histogram::Observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  buckets_[static_cast<size_t>(it - bounds_.begin())]->Increment();
  count_.Increment();
  sum_.Add(v);
}

std::vector<uint64_t> Histogram::BucketCounts() const {
  std::vector<uint64_t> out;
  out.reserve(buckets_.size());
  for (const auto& b : buckets_) out.push_back(b->Total());
  return out;
}

double Histogram::Sum() const { return sum_.Total(); }

void Histogram::Reset() {
  for (auto& b : buckets_) b->Reset();
  count_.Reset();
  sum_.Reset();
}

double HistogramData::Quantile(double q) const {
  if (count == 0 || bucket_counts.empty()) return 0.0;
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(q * static_cast<double>(count)));
  rank = std::min(std::max<uint64_t>(rank, 1), count);
  uint64_t cum = 0;
  for (size_t i = 0; i < bucket_counts.size(); ++i) {
    const uint64_t in_bucket = bucket_counts[i];
    if (cum + in_bucket < rank) {
      cum += in_bucket;
      continue;
    }
    if (i >= bounds.size()) {
      // Overflow bucket: no upper edge to interpolate toward.
      return bounds.empty() ? 0.0 : bounds.back();
    }
    const double lo = i == 0 ? 0.0 : bounds[i - 1];
    const double hi = bounds[i];
    const double within =
        static_cast<double>(rank - cum) / static_cast<double>(in_bucket);
    return lo + (hi - lo) * within;
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

HistogramData HistogramData::Delta(const HistogramData& earlier) const {
  if (earlier.bounds != bounds ||
      earlier.bucket_counts.size() != bucket_counts.size()) {
    return *this;
  }
  HistogramData out;
  out.bounds = bounds;
  out.bucket_counts.resize(bucket_counts.size());
  for (size_t i = 0; i < bucket_counts.size(); ++i) {
    out.bucket_counts[i] = bucket_counts[i] >= earlier.bucket_counts[i]
                               ? bucket_counts[i] - earlier.bucket_counts[i]
                               : 0;
  }
  out.count = count >= earlier.count ? count - earlier.count : 0;
  out.sum = sum - earlier.sum;
  return out;
}

uint64_t MetricsSnapshot::CounterDelta(const MetricsSnapshot& earlier,
                                       const std::string& name) const {
  const auto now_it = counters.find(name);
  if (now_it == counters.end()) return 0;
  const auto then_it = earlier.counters.find(name);
  const uint64_t then = then_it == earlier.counters.end() ? 0 : then_it->second;
  return now_it->second >= then ? now_it->second - then : 0;
}

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked: metric pointers cached in function-local statics and updates
  // from thread_local destructors must stay valid through shutdown.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>(std::move(bounds));
  return slot.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot out;
  for (const auto& [name, counter] : counters_) {
    out.counters[name] = counter->Total();
  }
  for (const auto& [name, gauge] : gauges_) {
    out.gauges[name] = gauge->Get();
  }
  for (const auto& [name, histogram] : histograms_) {
    HistogramData data;
    data.bounds = histogram->bounds();
    data.bucket_counts = histogram->BucketCounts();
    data.count = histogram->Count();
    data.sum = histogram->Sum();
    out.histograms[name] = std::move(data);
  }
  return out;
}

std::string MetricsRegistry::SnapshotJson() const {
  const MetricsSnapshot snap = Snapshot();
  JsonWriter w;
  w.BeginObject();
  w.Key("counters").BeginObject();
  for (const auto& [name, value] : snap.counters) {
    w.Key(name).Uint(value);
  }
  w.EndObject();
  w.Key("gauges").BeginObject();
  for (const auto& [name, value] : snap.gauges) {
    w.Key(name).Number(value);
  }
  w.EndObject();
  w.Key("histograms").BeginObject();
  for (const auto& [name, h] : snap.histograms) {
    w.Key(name).BeginObject();
    w.Key("bounds").BeginArray();
    for (double b : h.bounds) w.Number(b);
    w.EndArray();
    w.Key("bucket_counts").BeginArray();
    for (uint64_t c : h.bucket_counts) w.Uint(c);
    w.EndArray();
    w.Key("count").Uint(h.count);
    w.Key("sum").Number(h.sum);
    w.Key("p50").Number(h.Quantile(0.50));
    w.Key("p95").Number(h.Quantile(0.95));
    w.Key("p99").Number(h.Quantile(0.99));
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return w.str();
}

bool MetricsRegistry::WriteSnapshotJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out.good()) return false;
  out << SnapshotJson() << "\n";
  return out.good();
}

namespace {

// Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*; the registry's dotted
// names map '.' (and any other illegal byte) to '_'.
std::string PrometheusName(const std::string& name) {
  std::string out = "layergcn_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

void AppendNumber(double v, std::string* out) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out->append(buf);
}

}  // namespace

std::string MetricsRegistry::PrometheusText() const {
  const MetricsSnapshot snap = Snapshot();
  std::string out;
  for (const auto& [name, value] : snap.counters) {
    const std::string prom = PrometheusName(name);
    out += "# TYPE " + prom + " counter\n";
    out += prom + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : snap.gauges) {
    const std::string prom = PrometheusName(name);
    out += "# TYPE " + prom + " gauge\n";
    out += prom + " ";
    AppendNumber(value, &out);
    out += "\n";
  }
  for (const auto& [name, h] : snap.histograms) {
    const std::string prom = PrometheusName(name);
    out += "# TYPE " + prom + " histogram\n";
    uint64_t cum = 0;
    for (size_t i = 0; i < h.bucket_counts.size(); ++i) {
      cum += h.bucket_counts[i];
      out += prom + "_bucket{le=\"";
      if (i < h.bounds.size()) {
        AppendNumber(h.bounds[i], &out);
      } else {
        out += "+Inf";
      }
      out += "\"} " + std::to_string(cum) + "\n";
    }
    out += prom + "_sum ";
    AppendNumber(h.sum, &out);
    out += "\n";
    out += prom + "_count " + std::to_string(h.count) + "\n";
  }
  return out;
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

}  // namespace layergcn::obs
