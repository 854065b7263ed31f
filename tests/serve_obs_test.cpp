// Serving-tier observability suite: RequestContext stage timings through
// RecommendService, access-log schema, ServingStats classification and
// percentile gauges, health/readiness reporting, and the Prometheus /
// histogram-summary surfaces of the metrics registry.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "serve/access_log.h"
#include "serve/health.h"
#include "serve/recommend_service.h"
#include "serve/request_context.h"
#include "serve/serving_stats.h"
#include "serve/snapshot.h"
#include "test_util.h"
#include "util/fault_injection.h"
#include "util/status.h"

namespace layergcn::serve {
namespace {

namespace fs = std::filesystem;
using testing::SaveSmall;
using testing::TempDirFor;

// An SLO with a 10% error budget so a handful of synthetic requests can
// move the state machine.
obs::SloMonitor::Options WideSlo() {
  obs::SloMonitor::Options slo;
  slo.availability_objective = 0.9;
  slo.latency_target_us = 1'000'000;
  slo.latency_objective = 0.9;
  slo.short_window_us = 1'000'000;
  slo.long_window_us = 10'000'000;
  return slo;
}

// A fully populated successful context, as the driver would hand it to the
// access log after serialization.
RequestContext OkContext(uint64_t id) {
  RequestContext ctx;
  ctx.id = id;
  ctx.user = 1;
  ctx.k = 3;
  ctx.budget_us = 50'000;
  ctx.encoding = eval::ScoreEncoding::kF32;
  ctx.snapshot_version = 9;
  ctx.submit_us = 1'000'000;
  ctx.start_us = 1'000'100;
  ctx.finish_us = 1'000'900;
  ctx.done_us = 1'001'000;
  ctx.stage(Stage::kAdmission) = 100;
  ctx.stage(Stage::kSnapshot) = 50;
  ctx.stage(Stage::kCache) = 10;
  ctx.stage(Stage::kScore) = 700;
  ctx.stage(Stage::kSerialize) = 80;
  return ctx;
}

class ServeObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::fault::DisarmAll();
    obs::SetEnabled(true);
  }
  void TearDown() override { util::fault::DisarmAll(); }
};

uint64_t StageSum(const RequestContext& ctx) {
  uint64_t sum = 0;
  for (int i = 0; i < kNumStages; ++i) sum += ctx.stage_us[i];
  return sum;
}

// ---------------------------------------------------------------- contexts

TEST_F(ServeObsTest, RequestContextTotals) {
  RequestContext ctx = OkContext(1);
  EXPECT_EQ(ctx.total_us(), 1000u);   // submit -> done
  EXPECT_EQ(ctx.service_us(), 900u);  // submit -> finish
  EXPECT_LE(StageSum(ctx), ctx.total_us());
  // Without driver timestamps, total falls back to the service interval.
  ctx.submit_us = 0;
  ctx.done_us = 0;
  EXPECT_EQ(ctx.total_us(), 800u);  // start -> finish
}

TEST_F(ServeObsTest, StageNamesCoverEveryStage) {
  EXPECT_STREQ(StageName(Stage::kAdmission), "admission");
  EXPECT_STREQ(StageName(Stage::kSnapshot), "snapshot");
  EXPECT_STREQ(StageName(Stage::kCache), "cache");
  EXPECT_STREQ(StageName(Stage::kScore), "score");
  EXPECT_STREQ(StageName(Stage::kSerialize), "serialize");
}

// -------------------------------------------------------------- access log

TEST_F(ServeObsTest, AccessRecordJsonSchemaOnSuccess) {
  const std::string line = AccessLog::RecordJson(OkContext(42));
  obs::JsonValue value;
  std::string error;
  ASSERT_TRUE(obs::ParseJson(line, &value, &error)) << error;
  ASSERT_EQ(value.type, obs::JsonValue::Type::kObject);
  for (const char* key :
       {"type", "id", "user", "k", "budget_us", "status", "malformed", "shed",
        "cached", "partial", "degraded", "encoding", "retrieval", "candidates",
        "snapshot_version", "submit_us", "done_us", "latency_us",
        "admission_us", "snapshot_us", "cache_us", "score_us",
        "serialize_us"}) {
    EXPECT_NE(value.Find(key), nullptr) << "missing " << key;
  }
  EXPECT_EQ(value.Find("type")->string, "access");
  EXPECT_EQ(value.Find("id")->number, 42.0);
  EXPECT_EQ(value.Find("status")->string, "OK");
  EXPECT_EQ(value.Find("encoding")->string, "f32");
  EXPECT_EQ(value.Find("retrieval")->string, "exact");
  EXPECT_EQ(value.Find("candidates")->number, 0.0);
  EXPECT_EQ(value.Find("latency_us")->number, 1000.0);
  EXPECT_EQ(value.Find("score_us")->number, 700.0);
  // OK records carry no error message.
  EXPECT_EQ(value.Find("error"), nullptr);
}

TEST_F(ServeObsTest, AccessRecordJsonCarriesErrorsAndFlags) {
  RequestContext shed;
  shed.id = 7;
  shed.shed = true;
  shed.code = util::StatusCode::kResourceExhausted;
  shed.error = "admission queue full";
  shed.submit_us = 500;
  shed.finish_us = 500;
  obs::JsonValue value;
  std::string error;
  ASSERT_TRUE(obs::ParseJson(AccessLog::RecordJson(shed), &value, &error))
      << error;
  EXPECT_EQ(value.Find("status")->string, "RESOURCE_EXHAUSTED");
  EXPECT_TRUE(value.Find("shed")->boolean);
  ASSERT_NE(value.Find("error"), nullptr);
  EXPECT_EQ(value.Find("error")->string, "admission queue full");
  // Shed requests never reached any stage.
  EXPECT_EQ(value.Find("score_us")->number, 0.0);
}

TEST_F(ServeObsTest, AccessLogAppendsOneLinePerRequest) {
  const std::string dir = TempDirFor("serve_obs_accesslog");
  const std::string path = dir + "/access.jsonl";
  AccessLog log;
  ASSERT_TRUE(log.Open(path));
  EXPECT_TRUE(log.is_open());
  for (uint64_t id = 1; id <= 3; ++id) log.Append(OkContext(id));
  EXPECT_TRUE(log.Close());
  EXPECT_FALSE(log.is_open());

  std::ifstream in(path);
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    obs::JsonValue value;
    std::string error;
    ASSERT_TRUE(obs::ParseJson(line, &value, &error)) << error;
    ++lines;
    EXPECT_EQ(value.Find("id")->number, static_cast<double>(lines));
  }
  EXPECT_EQ(lines, 3);
}

TEST_F(ServeObsTest, ClosedAccessLogIgnoresAppends) {
  AccessLog log;
  log.Append(OkContext(1));  // must not crash or write anywhere
  EXPECT_FALSE(log.is_open());
  EXPECT_FALSE(log.Open("/nonexistent-dir/zzz/access.jsonl"));
}

// ------------------------------------------------- service with a context

TEST_F(ServeObsTest, RecommendFillsContextStagesAndFlags) {
  const std::string dir = TempDirFor("serve_obs_ctx");
  SaveSmall(dir, 3);
  SnapshotStore store(dir);
  ASSERT_TRUE(store.Reload().ok());
  RecommendService service(&store);

  RecommendRequest req;
  req.user_id = 1;
  req.k = 4;
  RequestContext ctx;
  ctx.id = 11;
  ctx.submit_us = obs::NowMicros();
  const auto resp = service.Recommend(req, &ctx);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  ctx.done_us = obs::NowMicros();

  EXPECT_EQ(ctx.code, util::StatusCode::kOk);
  EXPECT_EQ(ctx.user, 1);
  EXPECT_EQ(ctx.k, 4);
  EXPECT_EQ(ctx.snapshot_version, 3);
  EXPECT_FALSE(ctx.cached);
  EXPECT_FALSE(ctx.degraded);
  EXPECT_GE(ctx.start_us, ctx.submit_us);
  EXPECT_GE(ctx.finish_us, ctx.start_us);
  EXPECT_GE(ctx.done_us, ctx.finish_us);
  // The stages time disjoint sub-intervals of [submit, done].
  EXPECT_LE(StageSum(ctx), ctx.total_us());

  // The same request again is a cache hit: flagged on the context, and the
  // scoring stage never ran.
  RequestContext hit;
  hit.id = 12;
  hit.submit_us = obs::NowMicros();
  const auto resp2 = service.Recommend(req, &hit);
  ASSERT_TRUE(resp2.ok()) << resp2.status().ToString();
  EXPECT_TRUE(hit.cached);
  EXPECT_EQ(hit.stage(Stage::kScore), 0u);

  // Ctx-taking Recommend leaves recording to the caller.
  EXPECT_EQ(service.stats().recorded(), 0u);
  service.stats().Record(ctx, ctx.done_us);
  service.stats().Record(hit, obs::NowMicros());
  EXPECT_EQ(service.stats().recorded(), 2u);
}

TEST_F(ServeObsTest, InvalidRequestSetsContextStatus) {
  const std::string dir = TempDirFor("serve_obs_invalid");
  SaveSmall(dir, 1);
  SnapshotStore store(dir);
  ASSERT_TRUE(store.Reload().ok());
  RecommendService service(&store);

  RecommendRequest req;
  req.user_id = -5;
  RequestContext ctx;
  ctx.id = 1;
  const auto resp = service.Recommend(req, &ctx);
  EXPECT_FALSE(resp.ok());
  EXPECT_EQ(ctx.code, util::StatusCode::kInvalidArgument);
  EXPECT_FALSE(ctx.error.empty());
  EXPECT_NE(ctx.finish_us, 0u);
}

TEST_F(ServeObsTest, SubmitStampsAdmissionOnTheContext) {
  const std::string dir = TempDirFor("serve_obs_submit");
  SaveSmall(dir, 2);
  SnapshotStore store(dir);
  ASSERT_TRUE(store.Reload().ok());
  RecommendService service(&store);

  RecommendRequest req;
  req.user_id = 0;
  req.k = 3;
  RequestContext ctx;
  ctx.id = 21;
  auto future = service.Submit(req, &ctx);
  const auto resp = future.get();
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_NE(ctx.submit_us, 0u);
  EXPECT_GE(ctx.start_us, ctx.submit_us);
  EXPECT_EQ(ctx.stage(Stage::kAdmission), ctx.start_us - ctx.submit_us);
  // Caller records; the service must not have double-counted.
  EXPECT_EQ(service.stats().recorded(), 0u);
}

TEST_F(ServeObsTest, SelfRecordingOverloadsFeedStats) {
  const std::string dir = TempDirFor("serve_obs_selfrecord");
  SaveSmall(dir, 2);
  SnapshotStore store(dir);
  ASSERT_TRUE(store.Reload().ok());
  RecommendService service(&store);

  RecommendRequest req;
  req.user_id = 2;
  req.k = 2;
  ASSERT_TRUE(service.Recommend(req).ok());
  EXPECT_EQ(service.stats().recorded(), 1u);
  ASSERT_TRUE(service.Submit(req).get().ok());
  EXPECT_EQ(service.stats().recorded(), 2u);
}

// ----------------------------------------------------------- serving stats

TEST_F(ServeObsTest, ServingStatsClassifiesAndCounts) {
  ServingStatsOptions options;
  options.slo = WideSlo();
  options.quantile.window_us = 1'000'000;
  options.quantile.num_windows = 12;
  options.gauge_update_every = 1 << 20;  // no automatic refresh mid-test
  ServingStats stats(options);
  const uint64_t now = 1'000'000'000;

  const obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();

  stats.Record(OkContext(1), now);
  RequestContext malformed;
  malformed.id = 2;
  malformed.malformed = true;
  malformed.code = util::StatusCode::kInvalidArgument;
  stats.Record(malformed, now);
  RequestContext shed;
  shed.id = 3;
  shed.shed = true;
  shed.code = util::StatusCode::kResourceExhausted;
  stats.Record(shed, now);

  EXPECT_EQ(stats.recorded(), 3u);
  // Only answered requests feed the quantile estimators...
  EXPECT_EQ(stats.latency_quantile().Count(now), 1u);
  EXPECT_EQ(stats.stage_quantile(Stage::kScore).Count(now), 1u);
  // ...but every request lands in the SLO windows, and only the shed one
  // is a server error (malformed is the client's mistake).
  const obs::SloMonitor::Burn burn = stats.slo().BurnRates(now);
  EXPECT_EQ(burn.total_long, 3u);
  EXPECT_NEAR(burn.availability_long, (1.0 / 3.0) / 0.1, 1e-9);

  const obs::MetricsSnapshot after = obs::MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(after.CounterDelta(before, "serve.malformed_requests"), 1u);
}

TEST_F(ServeObsTest, UpdateGaugesPublishesSlidingPercentiles) {
  ServingStatsOptions options;
  options.slo = WideSlo();
  options.gauge_update_every = 1 << 20;
  ServingStats stats(options);
  const uint64_t now = 2'000'000'000;
  for (uint64_t i = 1; i <= 100; ++i) {
    RequestContext ctx = OkContext(i);
    ctx.submit_us = now - i * 100;  // latencies 100..10000us
    ctx.done_us = now;
    stats.Record(ctx, now);
  }
  stats.UpdateGauges(now);
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
  ASSERT_TRUE(snap.gauges.count("serve.latency.p50_us"));
  ASSERT_TRUE(snap.gauges.count("serve.latency.p99_us"));
  ASSERT_TRUE(snap.gauges.count("serve.stage.score.p95_us"));
  const double p50 = snap.gauges.at("serve.latency.p50_us");
  const double p99 = snap.gauges.at("serve.latency.p99_us");
  EXPECT_GT(p50, 0.0);
  EXPECT_LE(p50, p99);
  // The answers come from the sliding estimator itself.
  EXPECT_EQ(p99, static_cast<double>(
                     stats.latency_quantile().Quantile(0.99, now)));
}

TEST_F(ServeObsTest, IsServerErrorClassification) {
  using util::StatusCode;
  EXPECT_TRUE(ServingStats::IsServerError(StatusCode::kResourceExhausted));
  EXPECT_TRUE(ServingStats::IsServerError(StatusCode::kDeadlineExceeded));
  EXPECT_TRUE(ServingStats::IsServerError(StatusCode::kFailedPrecondition));
  EXPECT_TRUE(ServingStats::IsServerError(StatusCode::kInternal));
  EXPECT_TRUE(ServingStats::IsServerError(StatusCode::kUnavailable));
  EXPECT_TRUE(ServingStats::IsServerError(StatusCode::kDataLoss));
  EXPECT_FALSE(ServingStats::IsServerError(StatusCode::kOk));
  EXPECT_FALSE(ServingStats::IsServerError(StatusCode::kInvalidArgument));
  EXPECT_FALSE(ServingStats::IsServerError(StatusCode::kNotFound));
  EXPECT_FALSE(ServingStats::IsServerError(StatusCode::kCancelled));
}

// ------------------------------------------------------------------ health

TEST_F(ServeObsTest, HealthReadinessLadder) {
  const std::string dir = TempDirFor("serve_obs_health");
  SnapshotStore store(dir);
  // 64 items at item_tile 16: a serve.slow_score stall expires the request
  // at the second item run's boundary.
  RecommendServiceOptions opt;
  opt.rank.item_tile = 16;
  opt.overload.brownout.step_down_hold_us = 3600ull * 1'000'000ull;
  RecommendService service(&store, opt);
  HealthReporter health(&store, &service, {});
  const uint64_t now = obs::NowMicros();

  // No snapshot published: the service cannot answer.
  EXPECT_EQ(health.StatusString(now), "unready");

  SaveSmall(dir, 5, /*num_items=*/64);
  ASSERT_TRUE(store.Reload().ok());
  EXPECT_EQ(health.StatusString(now), "ok");

  // A deadline trip degrades the report without making it unready.
  for (int i = 0; i < BrownoutController::kTripStreak; ++i) {
    util::fault::Arm("serve.slow_score");
    (void)service.Recommend({1, 3, /*budget_us=*/5'000});
  }
  EXPECT_EQ(service.brownout().level(), BrownoutLevel::kCacheOnly);
  EXPECT_EQ(health.StatusString(now), "degraded");
}

TEST_F(ServeObsTest, HealthStatusJsonAndAtomicWrite) {
  const std::string dir = TempDirFor("serve_obs_healthjson");
  SaveSmall(dir, 8);
  SnapshotStore store(dir);
  ASSERT_TRUE(store.Reload().ok());
  RecommendService service(&store);

  HealthReporter::Options options;
  options.status_path = dir + "/health.json";
  options.prom_path = dir + "/metrics.prom";
  HealthReporter health(&store, &service, options);

  const uint64_t now = obs::NowMicros();
  const std::string doc = health.StatusJson(now);
  obs::JsonValue value;
  std::string error;
  ASSERT_TRUE(obs::ParseJson(doc, &value, &error)) << error;
  EXPECT_EQ(value.Find("status")->string, "ok");
  ASSERT_NE(value.Find("snapshot"), nullptr);
  EXPECT_EQ(value.Find("snapshot")->Find("version")->number, 8.0);
  EXPECT_TRUE(value.Find("snapshot")->Find("loaded")->boolean);
  // The brownout rung is the one degradation state; there is no breaker.
  EXPECT_EQ(value.Find("breaker"), nullptr);
  ASSERT_NE(value.Find("overload"), nullptr);
  EXPECT_EQ(value.Find("overload")->Find("brownout")->string, "none");
  ASSERT_NE(value.Find("slo"), nullptr);
  ASSERT_NE(value.Find("rates"), nullptr);

  ASSERT_TRUE(health.WriteNow(now));
  EXPECT_EQ(health.writes(), 1u);
  // Both files landed whole (the tmp+rename publish never leaves a torn
  // file behind) and parse/scan cleanly.
  std::ifstream status_in(options.status_path);
  std::ostringstream status_buf;
  status_buf << status_in.rdbuf();
  ASSERT_TRUE(obs::ParseJson(status_buf.str(), &value, &error)) << error;
  std::ifstream prom_in(options.prom_path);
  std::ostringstream prom_buf;
  prom_buf << prom_in.rdbuf();
  EXPECT_NE(prom_buf.str().find("layergcn_"), std::string::npos);
  EXPECT_FALSE(fs::exists(options.status_path + ".tmp"));
  EXPECT_FALSE(fs::exists(options.prom_path + ".tmp"));
}

TEST_F(ServeObsTest, HealthReleasesTripAfterHoldWithoutTraffic) {
  // A trip counts only for its hold. Health reads the rung in force at
  // its own clock, so once the hold has passed it reports "ok" even though
  // no request has arrived since to release the controller itself.
  const std::string dir = TempDirFor("serve_obs_trip_release");
  SaveSmall(dir, 1, /*num_items=*/64);
  SnapshotStore store(dir);
  ASSERT_TRUE(store.Reload().ok());
  const uint64_t hold_us = 3600ull * 1'000'000ull;
  RecommendServiceOptions opt;
  opt.rank.item_tile = 16;
  opt.overload.brownout.step_down_hold_us = hold_us;
  RecommendService service(&store, opt);
  HealthReporter health(&store, &service, {});

  for (int i = 0; i < BrownoutController::kTripStreak; ++i) {
    util::fault::Arm("serve.slow_score");
    (void)service.Recommend({1, 3, /*budget_us=*/5'000});
  }
  const uint64_t tripped = obs::NowMicros();
  ASSERT_EQ(service.brownout().level(), BrownoutLevel::kCacheOnly);
  EXPECT_EQ(service.brownout().LevelAt(tripped), BrownoutLevel::kCacheOnly);
  EXPECT_EQ(health.StatusString(tripped), "degraded");

  const uint64_t released = tripped + hold_us + 1;
  EXPECT_EQ(service.brownout().LevelAt(released), BrownoutLevel::kNone);
  EXPECT_EQ(health.StatusString(released), "ok");
  obs::JsonValue value;
  std::string error;
  ASSERT_TRUE(obs::ParseJson(health.StatusJson(released), &value, &error))
      << error;
  EXPECT_EQ(value.Find("status")->string, "ok");
  EXPECT_EQ(value.Find("overload")->Find("brownout")->string, "none");
  // Reading changed nothing: the controller releases on the next request.
  EXPECT_EQ(service.brownout().level(), BrownoutLevel::kCacheOnly);
}

TEST_F(ServeObsTest, HealthBackgroundWriterStops) {
  const std::string dir = TempDirFor("serve_obs_healthbg");
  SaveSmall(dir, 1);
  SnapshotStore store(dir);
  ASSERT_TRUE(store.Reload().ok());
  RecommendService service(&store);
  HealthReporter::Options options;
  options.status_path = dir + "/health.json";
  options.period_us = 3'600'000'000ull;  // only the shutdown flush writes
  HealthReporter health(&store, &service, options);
  health.Start();
  health.Stop();
  EXPECT_GE(health.writes(), 1u);
  EXPECT_TRUE(fs::exists(options.status_path));
  health.Stop();  // idempotent
}

// ------------------------------------------------------- registry surfaces

TEST_F(ServeObsTest, PrometheusTextExposition) {
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("promtest.requests")->Add(3);
  registry.GetGauge("promtest.depth")->Set(2.5);
  auto* hist =
      registry.GetHistogram("promtest.lat_us", std::vector<double>{1, 2, 4});
  hist->Observe(1.5);
  hist->Observe(100.0);  // overflow bucket

  const std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("# TYPE layergcn_promtest_requests counter"),
            std::string::npos);
  EXPECT_NE(text.find("layergcn_promtest_requests 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE layergcn_promtest_depth gauge"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE layergcn_promtest_lat_us histogram"),
            std::string::npos);
  // Buckets are cumulative and end with +Inf at the total count.
  EXPECT_NE(text.find("layergcn_promtest_lat_us_bucket{le=\"2\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("layergcn_promtest_lat_us_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("layergcn_promtest_lat_us_count 2"), std::string::npos);
}

TEST_F(ServeObsTest, HistogramDataQuantileAndDelta) {
  obs::HistogramData h;
  h.bounds = {10, 20, 40};
  h.bucket_counts = {10, 10, 0, 0};  // 20 values, none in overflow
  h.count = 20;
  h.sum = 300.0;
  // Rank 10 is the last value of the first bucket: interpolates to its
  // upper edge; rank 20 tops out the second bucket.
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 10.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 20.0);

  obs::HistogramData later = h;
  later.bucket_counts = {15, 12, 2, 1};
  later.count = 30;
  later.sum = 520.0;
  const obs::HistogramData delta = later.Delta(h);
  EXPECT_EQ(delta.count, 10u);
  EXPECT_DOUBLE_EQ(delta.sum, 220.0);
  EXPECT_EQ(delta.bucket_counts,
            (std::vector<uint64_t>{5, 2, 2, 1}));
  // Ranks landing in the overflow bucket answer the last bound.
  obs::HistogramData overflow;
  overflow.bounds = {10};
  overflow.bucket_counts = {0, 5};
  overflow.count = 5;
  EXPECT_DOUBLE_EQ(overflow.Quantile(0.99), 10.0);
  // Mismatched shapes return the newer data unchanged.
  const obs::HistogramData mismatched = later.Delta(overflow);
  EXPECT_EQ(mismatched.count, later.count);
}

}  // namespace
}  // namespace layergcn::serve
