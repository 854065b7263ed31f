// layergcn_serve — batch-drive the hardened recommendation service from
// JSONL requests (stdin or a file), against a snapshot directory written
// by `layergcn_cli --export-snapshot=DIR`.
//
// One request per line:
//   {"user": 17, "k": 10, "budget_us": 5000, "priority": "batch"}
// "k", "budget_us", and "priority" are optional (defaults --topk /
// --deadline-us / --priority-default); serve/request_line.h parses it.
// One response line per request, in request order:
//   {"user":17,"status":"OK","items":[...],"scores":[...],"partial":false,
//    "degraded":false,"snapshot_version":3,"latency_us":412}
// Failed requests keep the line protocol with a structured status:
//   {"user":-1,"status":"INVALID_ARGUMENT","error":"user_id -1 ..."}
//
// Exit codes: 0 = every request received a response (including structured
// errors — degradation is graceful, not fatal); 1 = setup failure (bad
// flags, no valid snapshot). The process never crashes on a bad request
// or a corrupt snapshot; LAYERGCN_FAULT sweeps rely on that.
//
// Examples:
//   layergcn_serve --snapshot-dir=snaps --random-requests=1000
//       --deadline-us=50000   (one command line)
//   layergcn_serve --snapshot-dir=snaps --requests=reqs.jsonl --burst

#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <future>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "serve/access_log.h"
#include "serve/health.h"
#include "serve/overload.h"
#include "serve/recommend_service.h"
#include "serve/request_context.h"
#include "serve/request_line.h"
#include "serve/snapshot.h"
#include "train/stop_token.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/strings.h"
#include "util/thread_pool.h"

using namespace layergcn;

namespace {

struct Flags {
  std::string snapshot_dir;
  std::string requests_path;  // "-" or empty = stdin
  int64_t random_requests = 0;
  uint64_t deadline_us = 0;  // default request budget; 0 = none
  int32_t topk = 10;
  int32_t max_k = 1000;
  int64_t queue_capacity = 64;
  // Concurrency limit: "" = queue_capacity (legacy static behavior),
  // "auto" = adaptive AIMD limiter, a number = static cap.
  std::string max_inflight;
  bool brownout = false;          // enable the SLO-driven brownout ladder
  std::string priority_default = "interactive";
  bool priority_mix = false;      // --random-requests cycles the classes
  int threads = 0;
  std::string encoding = "f32";       // f32|int8|bf16 scoring encoding
  std::string retrieval = "exact";    // exact|ivf candidate generation
  int32_t cells = 64;                 // IVF index cell count
  int32_t nprobe = 8;                 // cells probed per ivf request
  int64_t recall_sample = 0;          // exact recall check every N ivf reqs
  int64_t score_cache = 1024;         // LRU score cache capacity; 0 = off
  bool burst = false;  // submit everything before draining (sheds load)
  bool quiet = false;  // suppress per-request response lines
  uint64_t seed = 42;
  std::string metrics_out;
  std::string access_log;  // per-request JSONL access log
  std::string trace_out;   // Chrome trace (enables span recording)
  std::string health_out;  // periodic health/readiness JSON
  std::string prom_out;    // Prometheus text exposition
  int64_t max_snapshot_age_s = 0;  // staleness alarm; 0 = off
  // SLO objective overrides (<0 / 0 = keep defaults; LAYERGCN_SLO_* env
  // vars are applied on top by the service and win).
  double slo_availability = -1.0;
  int64_t slo_latency_target_us = 0;
  double slo_latency_objective = -1.0;
};

void PrintUsage(const char* argv0) {
  std::printf(
      "usage: %s --snapshot-dir=DIR [flags]\n"
      "  --snapshot-dir=DIR   directory of snap-NNNNNN.lgcn files (required)\n"
      "request source (one of):\n"
      "  --requests=PATH      JSONL requests; '-' = stdin (default)\n"
      "  --random-requests=N  generate N uniform-random requests instead\n"
      "request defaults:\n"
      "  --topk=N             k for requests that omit it (default 10)\n"
      "  --deadline-us=N      budget_us for requests that omit it (0 = none)\n"
      "service tuning:\n"
      "  --max-k=N            largest admissible k (default 1000)\n"
      "  --queue-capacity=N   async admission bound (default 64)\n"
      "  --max-inflight=auto|N  concurrent scoring limit: a number pins a\n"
      "                       static cap, 'auto' enables the adaptive AIMD\n"
      "                       limiter (default: queue capacity)\n"
      "  --brownout           enable the SLO-driven brownout ladder\n"
      "                       (exact -> ivf -> quantized -> cache-only)\n"
      "  --priority-default=interactive|batch|background\n"
      "                       class for requests that omit \"priority\"\n"
      "  --priority-mix       --random-requests only: cycle the generated\n"
      "                       requests through all three classes\n"
      "  --threads=N          compute threads (0 = default pool)\n"
      "  --encoding=f32|int8|bf16  embedding encoding scored against\n"
      "                       (default f32; falls back to f32 per request\n"
      "                       when the snapshot lacks the quantized copy)\n"
      "  --retrieval=exact|ivf  candidate generation: exact full scan\n"
      "                       (default) or IVF two-stage retrieval (build\n"
      "                       a k-means item index at load, probe top\n"
      "                       cells, re-rank candidates exactly)\n"
      "  --cells=N            IVF index cell count (default 64)\n"
      "  --nprobe=N           cells probed per ivf request (default 8)\n"
      "  --recall-sample=N    re-rank every Nth ivf request exactly and\n"
      "                       publish the top-K overlap gauge (0 = off)\n"
      "  --score-cache=N      LRU score cache capacity in users\n"
      "                       (default 1024; 0 disables)\n"
      "  --burst              submit all requests before draining any —\n"
      "                       overruns the admission queue on purpose\n"
      "  --quiet              print only the summary, not response lines\n"
      "  --seed=N             RNG seed for --random-requests (default 42)\n"
      "observability:\n"
      "  --metrics-out=PATH   write a metrics snapshot JSON on exit\n"
      "  --access-log=PATH    JSONL access log, one record per request\n"
      "  --trace-out=PATH     Chrome trace of request-keyed spans\n"
      "  --health-out=PATH    health/readiness JSON, refreshed every second\n"
      "  --prom-out=PATH      Prometheus text exposition of all metrics\n"
      "  --max-snapshot-age=S degrade health when the served snapshot is\n"
      "                       older than S seconds (0 = off)\n"
      "  --slo-availability=F        availability objective (e.g. 0.999)\n"
      "  --slo-latency-target-us=N   latency SLO target in microseconds\n"
      "  --slo-latency-objective=F   fraction that must beat the target\n"
      "  (LAYERGCN_SLO_* environment variables override the --slo-* flags)\n",
      argv0);
}

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? "" : arg.substr(eq + 1);
    bool ok = true;
    if (key == "--help" || key == "-h") {
      PrintUsage(argv[0]);
      std::exit(0);
    } else if (key == "--snapshot-dir") {
      flags->snapshot_dir = value;
    } else if (key == "--requests") {
      flags->requests_path = value;
    } else if (key == "--random-requests") {
      ok = util::ParseInt(value, &flags->random_requests) &&
           flags->random_requests >= 1;
    } else if (key == "--deadline-us") {
      ok = util::ParseInt(value, &flags->deadline_us);
    } else if (key == "--topk") {
      ok = util::ParseInt(value, &flags->topk) && flags->topk >= 1;
    } else if (key == "--max-k") {
      ok = util::ParseInt(value, &flags->max_k) && flags->max_k >= 1;
    } else if (key == "--queue-capacity") {
      ok = util::ParseInt(value, &flags->queue_capacity) &&
           flags->queue_capacity >= 1;
    } else if (key == "--max-inflight") {
      if (value == "auto") {
        flags->max_inflight = value;
      } else {
        int64_t v = 0;
        ok = util::ParseInt64(value, &v) && v >= 1;
        flags->max_inflight = value;
      }
    } else if (key == "--brownout") {
      flags->brownout = true;
    } else if (key == "--priority-default") {
      serve::Priority parsed;
      ok = serve::ParsePriority(value, &parsed);
      flags->priority_default = value;
    } else if (key == "--priority-mix") {
      flags->priority_mix = true;
    } else if (key == "--threads") {
      ok = util::ParseInt(value, &flags->threads) && flags->threads >= 0;
    } else if (key == "--encoding") {
      eval::ScoreEncoding parsed;
      ok = eval::ParseScoreEncoding(value, &parsed);
      flags->encoding = value;
    } else if (key == "--retrieval") {
      serve::RetrievalMode parsed;
      ok = serve::ParseRetrievalMode(value, &parsed);
      flags->retrieval = value;
    } else if (key == "--cells") {
      ok = util::ParseInt(value, &flags->cells) && flags->cells >= 1;
    } else if (key == "--nprobe") {
      ok = util::ParseInt(value, &flags->nprobe) && flags->nprobe >= 1;
    } else if (key == "--recall-sample") {
      ok = util::ParseInt(value, &flags->recall_sample) &&
           flags->recall_sample >= 0;
    } else if (key == "--score-cache") {
      ok = util::ParseInt(value, &flags->score_cache) &&
           flags->score_cache >= 0;
    } else if (key == "--burst") {
      flags->burst = true;
    } else if (key == "--quiet") {
      flags->quiet = true;
    } else if (key == "--seed") {
      ok = util::ParseInt(value, &flags->seed);
    } else if (key == "--metrics-out") {
      flags->metrics_out = value;
    } else if (key == "--access-log") {
      flags->access_log = value;
    } else if (key == "--trace-out") {
      flags->trace_out = value;
    } else if (key == "--health-out") {
      flags->health_out = value;
    } else if (key == "--prom-out") {
      flags->prom_out = value;
    } else if (key == "--max-snapshot-age") {
      ok = util::ParseInt(value, &flags->max_snapshot_age_s) &&
           flags->max_snapshot_age_s >= 0;
    } else if (key == "--slo-availability") {
      ok = util::ParseDouble(value, &flags->slo_availability) &&
           flags->slo_availability > 0.0 && flags->slo_availability < 1.0;
    } else if (key == "--slo-latency-target-us") {
      ok = util::ParseInt(value, &flags->slo_latency_target_us) &&
           flags->slo_latency_target_us >= 1;
    } else if (key == "--slo-latency-objective") {
      ok = util::ParseDouble(value, &flags->slo_latency_objective) &&
           flags->slo_latency_objective > 0.0 &&
           flags->slo_latency_objective < 1.0;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", key.c_str());
      return false;
    }
    if (!ok) {
      std::fprintf(stderr, "bad value for %s: '%s'\n", key.c_str(),
                   value.c_str());
      return false;
    }
  }
  if (flags->snapshot_dir.empty()) {
    std::fprintf(stderr, "--snapshot-dir is required\n");
    return false;
  }
  if (flags->random_requests > 0 && !flags->requests_path.empty()) {
    std::fprintf(stderr,
                 "--requests and --random-requests are exclusive\n");
    return false;
  }
  return true;
}

std::string ResponseLine(const serve::RecommendRequest& req,
                         const util::StatusOr<serve::RecommendResponse>& r,
                         const serve::RequestContext& ctx) {
  obs::JsonWriter w;
  w.BeginObject().Key("user").Int(req.user_id);
  w.Key("priority").String(serve::PriorityName(req.priority));
  if (!r.ok()) {
    w.Key("status").String(util::StatusCodeName(r.status().code()));
    w.Key("error").String(r.status().message());
    if (ctx.shed) w.Key("retry_after_ms").Uint(ctx.retry_after_ms);
    if (ctx.expired) w.Key("expired").Bool(true);
    w.EndObject();
    return w.str();
  }
  const serve::RecommendResponse& resp = r.value();
  w.Key("status").String("OK");
  w.Key("items").BeginArray();
  for (const serve::ScoredItem& it : resp.items) w.Int(it.item);
  w.EndArray();
  w.Key("scores").BeginArray();
  for (const serve::ScoredItem& it : resp.items) w.Number(it.score);
  w.EndArray();
  w.Key("partial").Bool(resp.partial);
  w.Key("degraded").Bool(resp.degraded);
  w.Key("cached").Bool(resp.cached);
  w.Key("encoding").String(eval::ScoreEncodingName(resp.encoding));
  w.Key("retrieval").String(serve::RetrievalModeName(resp.retrieval));
  w.Key("candidates").Int(resp.candidates);
  w.Key("brownout_level").Int(static_cast<int>(resp.brownout));
  w.Key("snapshot_version").Int(resp.snapshot_version);
  w.Key("latency_us").Uint(resp.latency_us);
  w.EndObject();
  return w.str();
}

struct Tally {
  int64_t total = 0, ok = 0, partial = 0, degraded = 0;
  int64_t shed = 0, expired = 0, deadline = 0, invalid = 0, other_error = 0;
  int64_t malformed = 0;  // subset of invalid: lines that never parsed
  // Per-class offered/shed, for the strict-priority summary.
  int64_t offered_by_class[serve::kNumPriorities] = {0, 0, 0};
  int64_t shed_by_class[serve::kNumPriorities] = {0, 0, 0};
};

void Count(const util::StatusOr<serve::RecommendResponse>& r,
           const serve::RequestContext& ctx, Tally* tally) {
  ++tally->total;
  ++tally->offered_by_class[static_cast<int>(ctx.priority)];
  if (r.ok()) {
    ++tally->ok;
    if (r.value().partial) ++tally->partial;
    if (r.value().degraded) ++tally->degraded;
    return;
  }
  if (ctx.shed) ++tally->shed_by_class[static_cast<int>(ctx.priority)];
  if (ctx.expired) ++tally->expired;
  switch (r.status().code()) {
    case util::StatusCode::kResourceExhausted: ++tally->shed; break;
    case util::StatusCode::kDeadlineExceeded:
      if (!ctx.expired) ++tally->deadline;
      break;
    case util::StatusCode::kInvalidArgument: ++tally->invalid; break;
    default: ++tally->other_error; break;
  }
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) {
    PrintUsage(argv[0]);
    return 1;
  }

  // SIGINT/SIGTERM request a graceful drain: stop submitting, finish the
  // in-flight window, flush the access log and final health/metrics
  // snapshots, exit 0. A second signal kills the process the usual way.
  train::ClearStopRequest();
  train::InstallStopSignalHandlers();

  std::unique_ptr<util::ThreadPool> pool;
  std::unique_ptr<util::parallel::ScopedComputePool> pool_scope;
  if (flags.threads > 0) {
    pool = std::make_unique<util::ThreadPool>(flags.threads);
    pool_scope =
        std::make_unique<util::parallel::ScopedComputePool>(pool.get());
  }
  obs::SetEnabled(true);
  if (!flags.trace_out.empty()) obs::SetTraceEnabled(true);

  serve::AccessLog access_log;
  if (!flags.access_log.empty() && !access_log.Open(flags.access_log)) {
    std::fprintf(stderr, "cannot write %s\n", flags.access_log.c_str());
    return 1;
  }

  serve::SnapshotStore store(flags.snapshot_dir);
  serve::RetrievalMode retrieval = serve::RetrievalMode::kExact;
  serve::ParseRetrievalMode(flags.retrieval, &retrieval);
  if (retrieval == serve::RetrievalMode::kIvf) {
    serve::ItemIndexOptions index_options;
    index_options.cells = flags.cells;
    store.SetIndexOptions(index_options);
  }
  const util::Status loaded = store.Reload();
  if (!loaded.ok()) {
    std::fprintf(stderr, "cannot load a snapshot from %s: %s\n",
                 flags.snapshot_dir.c_str(), loaded.ToString().c_str());
    return 1;
  }
  const std::shared_ptr<const serve::ModelSnapshot> snap = store.current();
  std::fprintf(stderr,
               "serving snapshot v%lld: %lld users, %lld items, dim %lld "
               "(encodings: f32%s%s)\n",
               static_cast<long long>(snap->version()),
               static_cast<long long>(snap->num_users()),
               static_cast<long long>(snap->num_items()),
               static_cast<long long>(snap->dim()),
               snap->has_int8() ? " int8" : "",
               snap->has_bf16() ? " bf16" : "");

  serve::RecommendServiceOptions options;
  options.max_k = flags.max_k;
  options.queue_capacity = flags.queue_capacity;
  if (flags.max_inflight == "auto") {
    options.overload.adaptive = true;
    // The request deadline is the natural congestion threshold: a
    // completion that ran past what callers wait for should squeeze the
    // limit even before requests start failing outright.
    if (flags.deadline_us > 0) {
      options.overload.limiter.latency_target_us = flags.deadline_us;
    }
    options.overload.limiter.max_limit = flags.queue_capacity;
  } else if (!flags.max_inflight.empty()) {
    int64_t fixed = 0;
    util::ParseInt64(flags.max_inflight, &fixed);
    options.overload.fixed_limit = fixed;
  }
  options.overload.brownout.enabled = flags.brownout;
  options.score_cache_capacity = flags.score_cache;
  eval::ParseScoreEncoding(flags.encoding, &options.encoding);
  options.retrieval = retrieval;
  options.nprobe = flags.nprobe;
  options.recall_sample_every = flags.recall_sample;
  if (flags.slo_availability > 0.0) {
    options.stats.slo.availability_objective = flags.slo_availability;
  }
  if (flags.slo_latency_target_us > 0) {
    options.stats.slo.latency_target_us =
        static_cast<uint64_t>(flags.slo_latency_target_us);
  }
  if (flags.slo_latency_objective > 0.0) {
    options.stats.slo.latency_objective = flags.slo_latency_objective;
  }
  std::fprintf(stderr, "scoring encoding: %s, score cache: %lld\n",
               eval::ScoreEncodingName(options.encoding),
               static_cast<long long>(flags.score_cache));
  if (retrieval == serve::RetrievalMode::kIvf) {
    if (snap->has_index()) {
      std::fprintf(
          stderr,
          "retrieval: ivf (%d cells, %d empty, built in %lldus), nprobe %d\n",
          snap->item_index().cells(), snap->item_index().empty_cells(),
          static_cast<long long>(snap->item_index().build_us()),
          flags.nprobe);
    } else {
      std::fprintf(stderr,
                   "retrieval: ivf requested but index build failed; "
                   "serving exact\n");
    }
  }
  serve::RecommendService service(&store, options);

  serve::HealthReporter::Options health_options;
  health_options.status_path = flags.health_out;
  health_options.prom_path = flags.prom_out;
  health_options.max_snapshot_age_us =
      static_cast<uint64_t>(flags.max_snapshot_age_s) * 1'000'000;
  serve::HealthReporter health(&store, &service, health_options);
  if (!flags.health_out.empty() || !flags.prom_out.empty()) health.Start();

  // Build the request stream.
  serve::RecommendRequest defaults;
  defaults.k = flags.topk;
  defaults.budget_us = flags.deadline_us;
  serve::ParsePriority(flags.priority_default, &defaults.priority);
  std::vector<serve::ParsedRequest> requests;
  if (flags.random_requests > 0) {
    util::Rng rng(flags.seed);
    requests.reserve(static_cast<size_t>(flags.random_requests));
    for (int64_t i = 0; i < flags.random_requests; ++i) {
      serve::ParsedRequest pending;
      pending.req = defaults;
      pending.req.user_id = static_cast<int32_t>(
          rng.NextBounded(static_cast<uint64_t>(snap->num_users())));
      if (flags.priority_mix) {
        pending.req.priority =
            static_cast<serve::Priority>(i % serve::kNumPriorities);
      }
      requests.push_back(pending);
    }
  } else {
    std::ifstream file;
    const bool use_stdin =
        flags.requests_path.empty() || flags.requests_path == "-";
    if (!use_stdin) {
      file.open(flags.requests_path);
      if (!file.good()) {
        std::fprintf(stderr, "cannot read %s\n",
                     flags.requests_path.c_str());
        return 1;
      }
    }
    std::istream& in = use_stdin ? std::cin : file;
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      requests.push_back(serve::ParseRequestLine(line, defaults));
    }
  }

  // Drive the admission-controlled async path, printing responses in
  // request order. Windowed mode keeps at most queue_capacity requests
  // outstanding; --burst submits everything up front so overload actually
  // sheds. Each request carries a RequestContext (deterministic 1-based
  // id) that the service fills with stage timings; the drain stamps
  // serialize time and done_us, then records the finished context into
  // the stats/SLO monitor and the access log — exactly one access record
  // per request, malformed and shed included.
  Tally tally;
  struct InFlight {
    serve::RecommendRequest req;
    std::future<util::StatusOr<serve::RecommendResponse>> future;
    std::unique_ptr<serve::RequestContext> ctx;
  };
  std::deque<InFlight> window;
  uint64_t next_id = 0;
  auto drain_one = [&] {
    InFlight& front = window.front();
    const util::StatusOr<serve::RecommendResponse> r = front.future.get();
    serve::RequestContext& ctx = *front.ctx;
    Count(r, ctx, &tally);
    {
      obs::TraceRequestScope serialize_scope(ctx.id);
      OBS_SPAN("serve.serialize");
      const uint64_t serialize_t0 = obs::NowMicros();
      const std::string line = ResponseLine(front.req, r, ctx);
      if (!flags.quiet) std::printf("%s\n", line.c_str());
      ctx.done_us = obs::NowMicros();
      ctx.stage(serve::Stage::kSerialize) = ctx.done_us - serialize_t0;
    }
    service.stats().Record(ctx, ctx.done_us);
    access_log.Append(ctx);
    window.pop_front();
  };
  bool interrupted = false;
  for (const serve::ParsedRequest& pending : requests) {
    if (train::StopRequested()) {
      interrupted = true;
      break;
    }
    if (!flags.burst) {
      while (static_cast<int64_t>(window.size()) >= flags.queue_capacity) {
        drain_one();
      }
    }
    auto ctx = std::make_unique<serve::RequestContext>();
    ctx->id = ++next_id;
    if (!pending.parse_ok) {
      ++tally.malformed;
      // Pre-resolved future so parse failures stay in request order. The
      // context still gets an access record (malformed=true) but never
      // reaches the service.
      ctx->malformed = true;
      ctx->user = pending.req.user_id;
      ctx->k = pending.req.k;
      ctx->budget_us = pending.req.budget_us;
      ctx->priority = pending.req.priority;
      ctx->code = util::StatusCode::kInvalidArgument;
      ctx->error = pending.parse_error;
      ctx->submit_us = obs::NowMicros();
      ctx->finish_us = ctx->submit_us;
      std::promise<util::StatusOr<serve::RecommendResponse>> failed;
      failed.set_value(util::InvalidArgumentError(pending.parse_error));
      window.push_back(
          InFlight{pending.req, failed.get_future(), std::move(ctx)});
      continue;
    }
    std::future<util::StatusOr<serve::RecommendResponse>> future =
        service.Submit(pending.req, ctx.get());
    window.push_back(InFlight{pending.req, std::move(future), std::move(ctx)});
  }
  while (!window.empty()) drain_one();
  service.stats().UpdateGauges(obs::NowMicros());

  if (interrupted) {
    std::fprintf(stderr,
                 "graceful stop: drained %lld in-flight requests, "
                 "skipped %lld unsubmitted\n",
                 static_cast<long long>(tally.total),
                 static_cast<long long>(
                     static_cast<int64_t>(requests.size()) - tally.total));
  }
  std::fprintf(stderr,
               "served %lld requests: %lld ok (%lld partial, %lld degraded), "
               "%lld shed, %lld expired-in-queue, %lld deadline, "
               "%lld invalid (%lld malformed), %lld other\n",
               static_cast<long long>(tally.total),
               static_cast<long long>(tally.ok),
               static_cast<long long>(tally.partial),
               static_cast<long long>(tally.degraded),
               static_cast<long long>(tally.shed),
               static_cast<long long>(tally.expired),
               static_cast<long long>(tally.deadline),
               static_cast<long long>(tally.invalid),
               static_cast<long long>(tally.malformed),
               static_cast<long long>(tally.other_error));
  if (tally.shed > 0) {
    std::fprintf(
        stderr, "shed by class:%s\n",
        [&tally] {
          std::string out;
          for (int cls = 0; cls < serve::kNumPriorities; ++cls) {
            out += " " + std::string(serve::PriorityName(
                             static_cast<serve::Priority>(cls))) +
                   " " + std::to_string(tally.shed_by_class[cls]) + "/" +
                   std::to_string(tally.offered_by_class[cls]);
          }
          return out;
        }()
            .c_str());
  }

  // Stop() flushes one final health/prom write covering the whole sweep.
  health.Stop();
  if ((!flags.health_out.empty() || !flags.prom_out.empty()) &&
      health.writes() == 0) {
    std::fprintf(stderr, "cannot write %s\n",
                 (!flags.health_out.empty() ? flags.health_out
                                            : flags.prom_out)
                     .c_str());
    return 1;
  }

  if (!access_log.Close() && !flags.access_log.empty()) {
    std::fprintf(stderr, "access log write to %s failed\n",
                 flags.access_log.c_str());
    return 1;
  }

  if (!flags.trace_out.empty()) {
    if (!obs::TraceRecorder::Global().WriteChromeTrace(flags.trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", flags.trace_out.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote chrome trace to %s\n",
                 flags.trace_out.c_str());
  }

  if (!flags.metrics_out.empty()) {
    if (!obs::MetricsRegistry::Global().WriteSnapshotJson(
            flags.metrics_out)) {
      std::fprintf(stderr, "cannot write %s\n", flags.metrics_out.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote metrics snapshot to %s\n",
                 flags.metrics_out.c_str());
  }
  return 0;
}
