#include "serve/health.h"

#include <chrono>
#include <utility>

#include "obs/json.h"
#include "obs/obs.h"
#include "obs/slo.h"
#include "util/file_image.h"
#include "util/logging.h"

namespace layergcn::serve {

HealthReporter::HealthReporter(const SnapshotStore* store,
                               const RecommendService* service,
                               Options options)
    : store_(store), service_(service), options_(std::move(options)) {
  LAYERGCN_CHECK(store_ != nullptr);
  LAYERGCN_CHECK(service_ != nullptr);
}

HealthReporter::~HealthReporter() { Stop(); }

bool HealthReporter::SnapshotStale(uint64_t now_us) const {
  bool stale = false;
  if (options_.max_snapshot_age_us > 0 && store_->current() != nullptr) {
    const uint64_t published = store_->published_at_us();
    stale = now_us > published &&
            now_us - published > options_.max_snapshot_age_us;
  }
  OBS_GAUGE("serve.snapshot_stale", stale ? 1 : 0);
  return stale;
}

std::string HealthReporter::StatusString(uint64_t now_us) const {
  const std::shared_ptr<const ModelSnapshot> snap = store_->current();
  if (snap == nullptr) return "unready";
  const bool slo_breach =
      service_->stats().slo().state() == obs::SloMonitor::State::kBreach;
  // A browned-out service (ladder rung or deadline trip) is answering, but
  // below its configured quality — that is "degraded" even after the burn
  // subsides, until the ladder has stepped all the way back up.
  const bool browned_out =
      service_->brownout().LevelAt(now_us) != BrownoutLevel::kNone;
  if (slo_breach || browned_out || SnapshotStale(now_us)) {
    return "degraded";
  }
  return "ok";
}

std::string HealthReporter::StatusJson(uint64_t now_us) {
  const std::shared_ptr<const ModelSnapshot> snap = store_->current();
  const ServingStats& stats = service_->stats();
  const obs::SloMonitor::Burn burn = stats.slo().BurnRates(now_us);
  const obs::MetricsSnapshot metrics = obs::MetricsRegistry::Global().Snapshot();

  // Per-second counter rates since the previous write.
  double dt_s = 0.0;
  obs::MetricsSnapshot baseline;
  {
    std::lock_guard<std::mutex> lock(rate_mu_);
    if (has_baseline_ && now_us > last_write_us_) {
      dt_s = static_cast<double>(now_us - last_write_us_) / 1e6;
      baseline = std::move(last_snapshot_);
    }
    last_snapshot_ = metrics;
    last_write_us_ = now_us;
    has_baseline_ = true;
  }
  const auto rate = [&](const char* name) {
    if (dt_s <= 0.0) return 0.0;
    return static_cast<double>(metrics.CounterDelta(baseline, name)) / dt_s;
  };
  const uint64_t hits =
      metrics.CounterDelta(baseline, "serve.score_cache_hits");
  const uint64_t misses =
      metrics.CounterDelta(baseline, "serve.score_cache_misses");
  const double hit_rate =
      hits + misses > 0
          ? static_cast<double>(hits) / static_cast<double>(hits + misses)
          : 0.0;

  obs::JsonWriter w;
  w.BeginObject();
  w.Key("status").String(StatusString(now_us));
  w.Key("now_us").Uint(now_us);
  w.Key("snapshot").BeginObject();
  w.Key("loaded").Bool(snap != nullptr);
  if (snap != nullptr) {
    const uint64_t published = store_->published_at_us();
    w.Key("version").Int(snap->version());
    w.Key("published_at_us").Uint(published);
    w.Key("age_us").Uint(now_us > published ? now_us - published : 0);
    if (options_.max_snapshot_age_us > 0) {
      w.Key("max_age_us").Uint(options_.max_snapshot_age_us);
      w.Key("stale").Bool(SnapshotStale(now_us));
    }
    w.Key("num_users").Int(snap->num_users());
    w.Key("num_items").Int(snap->num_items());
    w.Key("index").BeginObject();
    w.Key("built").Bool(snap->has_index());
    if (snap->has_index()) {
      const ItemIndex& index = snap->item_index();
      w.Key("cells").Int(index.cells());
      w.Key("empty_cells").Int(index.empty_cells());
      w.Key("iterations").Int(index.iterations());
      w.Key("build_us").Uint(index.build_us());
    }
    w.EndObject();
  }
  w.EndObject();
  w.Key("queue_depth").Int(service_->in_flight());
  w.Key("queue_capacity").Int(service_->options().queue_capacity);
  {
    const OverloadState overload = service_->overload_state(now_us);
    w.Key("overload").BeginObject();
    w.Key("adaptive").Bool(overload.adaptive);
    w.Key("limit").Int(overload.limit);
    w.Key("executing").Int(overload.executing);
    w.Key("queued").BeginObject();
    for (int cls = 0; cls < kNumPriorities; ++cls) {
      w.Key(PriorityName(static_cast<Priority>(cls)))
          .Int(overload.queued[cls]);
    }
    w.EndObject();
    w.Key("brownout").String(BrownoutLevelName(overload.brownout));
    w.Key("brownout_transitions").Int(overload.brownout_transitions);
    w.Key("smoothed_latency_us").Uint(overload.smoothed_latency_us);
    w.Key("expired_per_sec").Number(rate("serve.expired_in_queue"));
    w.EndObject();
  }
  w.Key("slo").BeginObject();
  w.Key("state").String(obs::SloMonitor::StateName(stats.slo().state()));
  w.Key("transitions").Int(stats.slo().transitions());
  w.Key("burn_short").Number(burn.max_short);
  w.Key("burn_long").Number(burn.max_long);
  w.Key("requests_long_window").Uint(burn.total_long);
  w.EndObject();
  w.Key("rates").BeginObject();
  w.Key("requests_per_sec").Number(rate("serve.requests"));
  w.Key("shed_per_sec").Number(rate("serve.shed"));
  w.Key("degraded_per_sec").Number(rate("serve.degraded"));
  w.Key("malformed_per_sec").Number(rate("serve.malformed_requests"));
  w.Key("encoding_fallbacks_per_sec").Number(rate("serve.encoding_fallbacks"));
  w.Key("cache_hit_rate").Number(hit_rate);
  w.EndObject();
  w.Key("retrieval").BeginObject();
  w.Key("ivf_per_sec").Number(rate("serve.retrieval.requests"));
  w.Key("exact_fallbacks_per_sec")
      .Number(rate("serve.retrieval.exact_fallbacks"));
  w.Key("cells_probed").Uint(
      metrics.CounterDelta(obs::MetricsSnapshot{},
                           "serve.retrieval.cells_probed"));
  w.Key("candidates_scored").Uint(
      metrics.CounterDelta(obs::MetricsSnapshot{},
                           "serve.retrieval.candidates_scored"));
  {
    const auto gauge = metrics.gauges.find("serve.retrieval.recall_sample");
    if (gauge != metrics.gauges.end()) {
      w.Key("recall_sample").Number(gauge->second);
    }
  }
  w.EndObject();
  w.Key("requests_recorded").Uint(stats.recorded());
  w.EndObject();
  return w.str();
}

bool HealthReporter::WriteNow(uint64_t now_us) {
  // Both files are replaced atomically: a reader polling either one sees
  // the previous complete document or the new one, never a prefix.
  bool ok = true;
  if (!options_.status_path.empty()) {
    const std::string doc = StatusJson(now_us) + "\n";
    ok = util::WriteFileImage(options_.status_path, doc).ok();
  }
  if (!options_.prom_path.empty()) {
    const std::string text = obs::MetricsRegistry::Global().PrometheusText();
    ok = util::WriteFileImage(options_.prom_path, text).ok() && ok;
  }
  if (ok) writes_.fetch_add(1, std::memory_order_relaxed);
  return ok;
}

void HealthReporter::Start() {
  std::lock_guard<std::mutex> lock(thread_mu_);
  if (thread_.joinable()) return;
  stopping_ = false;
  thread_ = std::thread([this] { RunLoop(); });
}

void HealthReporter::RunLoop() {
  std::unique_lock<std::mutex> lock(thread_mu_);
  while (!stopping_) {
    stop_cv_.wait_for(lock, std::chrono::microseconds(options_.period_us),
                      [this] { return stopping_; });
    if (stopping_) break;
    lock.unlock();
    WriteNow(obs::NowMicros());
    lock.lock();
  }
}

void HealthReporter::Stop() {
  {
    std::lock_guard<std::mutex> lock(thread_mu_);
    if (!thread_.joinable()) return;
    stopping_ = true;
  }
  stop_cv_.notify_all();
  thread_.join();
  {
    std::lock_guard<std::mutex> lock(thread_mu_);
    thread_ = std::thread();
  }
  // Final write so the file reflects end-of-run state.
  WriteNow(obs::NowMicros());
}

}  // namespace layergcn::serve
