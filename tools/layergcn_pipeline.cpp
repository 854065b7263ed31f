// layergcn_pipeline — long-running ingest → fine-tune → publish → serve
// demo of the continuous pipeline (DESIGN.md §16).
//
// One process plays every role: a deterministic event generator feeds the
// supervisor's WAL, the supervisor fine-tunes and publishes snapshots on
// cadence, and a serving thread issues well-formed Recommend requests the
// whole time — including while the pipeline is being crashed, corrupted
// (LAYERGCN_FAULT), or SIGKILLed by tools/check.sh. Restarting with the
// same --dir resumes exactly where the previous incarnation committed:
// the generator is a pure function of the WAL's committed count, so the
// event sequence — and therefore the merged-state digest — is identical
// to an unfaulted run's.
//
// SIGINT/SIGTERM stop the cycle loop gracefully: the serving thread is
// drained, the summary JSON is still written, and the process exits 0.
//
// Exit codes: 0 = ran (or was gracefully stopped) with every well-formed
// serve request answered; 1 = setup failure; 2 = at least one well-formed
// serve request failed (the chaos-stage tripwire).
//
// The summary JSON (--summary-out, default stdout) carries the counters
// check.sh asserts on: WAL recovery stats, publish/gate/halt counters,
// the serve tally, the merged-state digest, and the final version.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "pipeline/supervisor.h"
#include "serve/health.h"
#include "serve/recommend_service.h"
#include "serve/snapshot.h"
#include "train/stop_token.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/strings.h"

using namespace layergcn;

namespace {

struct Flags {
  std::string dir;           // pipeline root: wal/, ckpt/, manifest.txt
  std::string snapshot_dir;  // default <dir>/snapshots
  int64_t cycles = 8;
  int64_t events_per_cycle = 200;
  int64_t min_train_events = 400;
  int fine_tune_epochs = 2;
  int bootstrap_epochs = 3;
  int dim = 16;
  uint64_t seed = 7;
  int64_t cycle_sleep_ms = 0;
  int64_t serve_period_us = 500;
  int64_t max_snapshot_age_s = 0;  // health staleness alarm; 0 = off
  std::string summary_out;         // summary JSON; empty = stdout
  std::string health_out;          // periodic health JSON
  std::string metrics_out;         // metrics snapshot JSON on exit
  bool quiet = false;
};

void PrintUsage(const char* argv0) {
  std::printf(
      "usage: %s --dir=DIR [flags]\n"
      "  --dir=DIR             pipeline root (wal/, ckpt/, manifest.txt);\n"
      "                        restarting with the same DIR resumes the\n"
      "                        committed event sequence exactly\n"
      "  --snapshot-dir=DIR    serving snapshot directory\n"
      "                        (default DIR/snapshots)\n"
      "  --cycles=N            supervision cycles to run (default 8)\n"
      "  --events-per-cycle=N  events ingested per cycle (default 200)\n"
      "  --min-train-events=N  fine-tune once this many new events are\n"
      "                        pending (default 400)\n"
      "  --fine-tune-epochs=N  epoch budget per warm-started run (default 2)\n"
      "  --bootstrap-epochs=N  epoch budget for the cold first run "
      "(default 3)\n"
      "  --dim=N               embedding dimension (default 16)\n"
      "  --seed=N              event-generator seed (default 7)\n"
      "  --cycle-sleep-ms=N    pause between cycles (default 0)\n"
      "  --serve-period-us=N   pacing of the serving thread (default 500)\n"
      "  --max-snapshot-age=S  degrade health when the served snapshot is\n"
      "                        older than S seconds (0 = off)\n"
      "  --summary-out=PATH    summary JSON (default stdout)\n"
      "  --health-out=PATH     periodic health/readiness JSON\n"
      "  --metrics-out=PATH    metrics snapshot JSON on exit\n"
      "  --quiet               suppress progress lines\n",
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
    } else if (key == "--dir") {
      flags->dir = value;
    } else if (key == "--snapshot-dir") {
      flags->snapshot_dir = value;
    } else if (key == "--cycles") {
      ok = util::ParseInt(value, &flags->cycles) && flags->cycles >= 1;
    } else if (key == "--events-per-cycle") {
      ok = util::ParseInt(value, &flags->events_per_cycle) &&
           flags->events_per_cycle >= 1;
    } else if (key == "--min-train-events") {
      ok = util::ParseInt(value, &flags->min_train_events) &&
           flags->min_train_events >= 1;
    } else if (key == "--fine-tune-epochs") {
      ok = util::ParseInt(value, &flags->fine_tune_epochs) &&
           flags->fine_tune_epochs >= 1;
    } else if (key == "--bootstrap-epochs") {
      ok = util::ParseInt(value, &flags->bootstrap_epochs) &&
           flags->bootstrap_epochs >= 1;
    } else if (key == "--dim") {
      ok = util::ParseInt(value, &flags->dim) && flags->dim >= 1;
    } else if (key == "--seed") {
      ok = util::ParseInt(value, &flags->seed);
    } else if (key == "--cycle-sleep-ms") {
      ok = util::ParseInt(value, &flags->cycle_sleep_ms) &&
           flags->cycle_sleep_ms >= 0;
    } else if (key == "--serve-period-us") {
      ok = util::ParseInt(value, &flags->serve_period_us) &&
           flags->serve_period_us >= 0;
    } else if (key == "--max-snapshot-age") {
      ok = util::ParseInt(value, &flags->max_snapshot_age_s) &&
           flags->max_snapshot_age_s >= 0;
    } else if (key == "--summary-out") {
      flags->summary_out = value;
    } else if (key == "--health-out") {
      flags->health_out = value;
    } else if (key == "--metrics-out") {
      flags->metrics_out = value;
    } else if (key == "--quiet") {
      flags->quiet = true;
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
  if (flags->dir.empty()) {
    std::fprintf(stderr, "--dir is required\n");
    return false;
  }
  if (flags->snapshot_dir.empty()) {
    flags->snapshot_dir = flags->dir + "/snapshots";
  }
  return true;
}

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// The i-th event of the stream, a pure function of (seed, i): after a
// crash the restarted generator continues from the WAL's committed count
// and reproduces exactly the events the dead incarnation would have
// written. Id spaces widen slowly with i so warm starts must grow rows.
pipeline::WalRecord EventAt(uint64_t seed, int64_t i) {
  const uint64_t h = Mix64(seed ^ static_cast<uint64_t>(i));
  const auto ucap = static_cast<uint64_t>(24 + i / 16);
  const auto icap = static_cast<uint64_t>(32 + i / 10);
  pipeline::WalRecord rec;
  rec.user = static_cast<int32_t>(h % ucap);
  rec.item = static_cast<int32_t>((h >> 32) % icap);
  rec.timestamp = i;
  return rec;
}

// Serving-side tally, updated by the serving thread only.
struct ServeTally {
  std::atomic<int64_t> requests{0};
  std::atomic<int64_t> ok{0};
  std::atomic<int64_t> degraded{0};
  std::atomic<int64_t> partial{0};
  std::atomic<int64_t> failed{0};
};

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) {
    PrintUsage(argv[0]);
    return 1;
  }
  train::ClearStopRequest();
  train::InstallStopSignalHandlers();
  obs::SetEnabled(true);

  std::error_code ec;
  std::filesystem::create_directories(flags.dir, ec);
  std::filesystem::create_directories(flags.snapshot_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n",
                 flags.snapshot_dir.c_str(), ec.message().c_str());
    return 1;
  }

  // Serving tier: the store hot-swaps under the publisher's Reload()s
  // while the serving thread reads it; before the first publish the
  // thread just waits for a snapshot to appear.
  serve::SnapshotStore store(flags.snapshot_dir);
  (void)store.Reload();  // cold start is fine; current() stays null
  serve::RecommendServiceOptions service_options;
  serve::RecommendService service(&store, service_options);

  serve::HealthReporter::Options health_options;
  health_options.status_path = flags.health_out;
  health_options.max_snapshot_age_us =
      static_cast<uint64_t>(flags.max_snapshot_age_s) * 1'000'000;
  serve::HealthReporter health(&store, &service, health_options);
  if (!flags.health_out.empty()) health.Start();

  pipeline::SupervisorOptions sup_options;
  sup_options.root_dir = flags.dir;
  sup_options.snapshot_dir = flags.snapshot_dir;
  sup_options.min_train_events = flags.min_train_events;
  sup_options.train_config.embedding_dim = flags.dim;
  sup_options.train_config.num_layers = 2;
  sup_options.train_config.batch_size = 512;
  sup_options.train_config.seed = flags.seed;
  sup_options.warm.fine_tune_epochs = flags.fine_tune_epochs;
  sup_options.warm.bootstrap_epochs = flags.bootstrap_epochs;
  sup_options.warm.quality_k = 10;
  sup_options.warm.verbose = !flags.quiet;
  sup_options.publish.backoff_base_us = 5'000;
  sup_options.publish.backoff_max_us = 200'000;

  pipeline::PipelineSupervisor supervisor(sup_options, &store);
  if (const util::Status started = supervisor.Start(); !started.ok()) {
    std::fprintf(stderr, "pipeline start failed: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  if (!flags.quiet) {
    std::fprintf(stderr,
                 "pipeline up: %lld committed events recovered, run %lld, "
                 "version %lld\n",
                 static_cast<long long>(supervisor.events_committed()),
                 static_cast<long long>(supervisor.manifest().run_id),
                 static_cast<long long>(supervisor.manifest().version));
  }

  // The serving thread never stops answering while the pipeline crashes
  // and recovers around it. Every request it issues is well-formed (a
  // valid user of the currently served snapshot), so any non-OK response
  // is a real serving failure — the chaos stage's tripwire.
  ServeTally tally;
  std::atomic<bool> stop_serving{false};
  std::thread server([&] {
    util::Rng rng(flags.seed ^ 0x5eedf00dull);
    while (!stop_serving.load(std::memory_order_relaxed)) {
      const std::shared_ptr<const serve::ModelSnapshot> snap =
          store.current();
      if (snap == nullptr || snap->num_users() <= 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        continue;
      }
      serve::RecommendRequest req;
      req.user_id = static_cast<int32_t>(
          rng.NextBounded(static_cast<uint64_t>(snap->num_users())));
      req.k = 10;
      const util::StatusOr<serve::RecommendResponse> r =
          service.Recommend(req);
      tally.requests.fetch_add(1, std::memory_order_relaxed);
      if (r.ok()) {
        tally.ok.fetch_add(1, std::memory_order_relaxed);
        if (r.value().degraded) {
          tally.degraded.fetch_add(1, std::memory_order_relaxed);
        }
        if (r.value().partial) {
          tally.partial.fetch_add(1, std::memory_order_relaxed);
        }
      } else {
        tally.failed.fetch_add(1, std::memory_order_relaxed);
        std::fprintf(stderr, "serve failure for user %d: %s\n", req.user_id,
                     r.status().ToString().c_str());
      }
      if (flags.serve_period_us > 0) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(flags.serve_period_us));
      }
    }
  });

  // Cycle loop: generate → ingest (durable) → maybe fine-tune/publish.
  bool interrupted = false;
  util::Status pipeline_error;
  for (int64_t cycle = 0; cycle < flags.cycles; ++cycle) {
    if (train::StopRequested()) {
      interrupted = true;
      break;
    }
    const int64_t base = supervisor.events_committed();
    std::vector<pipeline::WalRecord> events;
    events.reserve(static_cast<size_t>(flags.events_per_cycle));
    for (int64_t j = 0; j < flags.events_per_cycle; ++j) {
      events.push_back(EventAt(flags.seed, base + j));
    }
    if (const util::Status st = supervisor.Ingest(events); !st.ok()) {
      std::fprintf(stderr, "ingest failed: %s\n", st.ToString().c_str());
      pipeline_error = st;
      break;
    }
    if (const util::Status st = supervisor.RunCycle(); !st.ok()) {
      // Stage failures are retried on later cycles by design; only a
      // halted supervisor ends the loop (serving continues regardless).
      std::fprintf(stderr, "cycle %lld: %s\n", static_cast<long long>(cycle),
                   st.ToString().c_str());
      if (supervisor.halted()) {
        pipeline_error = st;
        break;
      }
    }
    if (!flags.quiet) {
      std::fprintf(stderr,
                   "cycle %lld: %lld committed, %lld pending, run %lld, "
                   "version %lld, %lld served\n",
                   static_cast<long long>(cycle),
                   static_cast<long long>(supervisor.events_committed()),
                   static_cast<long long>(supervisor.events_pending_train()),
                   static_cast<long long>(supervisor.manifest().run_id),
                   static_cast<long long>(supervisor.manifest().version),
                   static_cast<long long>(
                       tally.requests.load(std::memory_order_relaxed)));
    }
    if (flags.cycle_sleep_ms > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(flags.cycle_sleep_ms));
    }
  }
  if (train::StopRequested()) interrupted = true;

  stop_serving.store(true, std::memory_order_relaxed);
  server.join();
  health.Stop();

  const pipeline::PipelineSupervisor::Counters& c = supervisor.counters();
  const pipeline::WalRecoveryStats& wal = supervisor.wal_recovery();
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("interrupted").Bool(interrupted);
  w.Key("halted").Bool(supervisor.halted());
  w.Key("events_committed").Int(supervisor.events_committed());
  w.Key("digest").Uint(supervisor.ingestor().Digest());
  w.Key("wal").BeginObject();
  w.Key("recovered_records").Int(wal.records);
  w.Key("corrupt_records").Int(wal.corrupt_records);
  w.Key("torn_tails").Int(wal.torn_tails);
  w.Key("reopens").Int(c.wal_reopens);
  w.EndObject();
  w.Key("pipeline").BeginObject();
  w.Key("runs_completed").Int(c.runs_completed);
  w.Key("gate_refusals").Int(c.gate_refusals);
  w.Key("train_failures").Int(c.train_failures);
  w.Key("publishes").Int(c.publishes);
  w.Key("publish_failures").Int(c.publish_failures);
  w.Key("final_version").Int(supervisor.manifest().version);
  w.Key("num_users").Int(supervisor.ingestor().num_users());
  w.Key("num_items").Int(supervisor.ingestor().num_items());
  w.EndObject();
  w.Key("serve").BeginObject();
  w.Key("requests").Int(tally.requests.load());
  w.Key("ok").Int(tally.ok.load());
  w.Key("degraded").Int(tally.degraded.load());
  w.Key("partial").Int(tally.partial.load());
  w.Key("failed").Int(tally.failed.load());
  w.EndObject();
  w.EndObject();

  if (flags.summary_out.empty()) {
    std::printf("%s\n", w.str().c_str());
  } else {
    std::ofstream out(flags.summary_out, std::ios::trunc);
    out << w.str() << '\n';
    if (!out.good()) {
      std::fprintf(stderr, "cannot write %s\n", flags.summary_out.c_str());
      return 1;
    }
  }
  if (!flags.metrics_out.empty() &&
      !obs::MetricsRegistry::Global().WriteSnapshotJson(flags.metrics_out)) {
    std::fprintf(stderr, "cannot write %s\n", flags.metrics_out.c_str());
    return 1;
  }

  if (!flags.quiet) {
    std::fprintf(stderr,
                 "%s: %lld events committed, %lld publishes "
                 "(%lld gate refusals), served %lld/%lld ok\n",
                 interrupted        ? "gracefully stopped"
                 : supervisor.halted() ? "halted"
                                       : "done",
                 static_cast<long long>(supervisor.events_committed()),
                 static_cast<long long>(c.publishes),
                 static_cast<long long>(c.gate_refusals),
                 static_cast<long long>(tally.ok.load()),
                 static_cast<long long>(tally.requests.load()));
  }
  // Serving failures are the only fatal outcome: a crashed / halted /
  // interrupted pipeline that kept answering is the designed degradation.
  return tally.failed.load() > 0 ? 2 : 0;
}
