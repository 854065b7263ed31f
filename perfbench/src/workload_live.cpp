// live: PipelineSupervisor over a seeded Zipf event stream while a reader
// sends requests at a fixed rate to the same SnapshotStore. One op is
// Ingest(batch) -> RunCycle() (warm-start fine-tune, quality gate, publish)
// -> the first read that returns the new version. It is the only workload
// that writes while serving reads, so a freshness gain that stalls reads,
// or the reverse, shows up here.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "catalog.h"
#include "checks.h"
#include "obs/obs.h"
#include "pipeline/supervisor.h"
#include "serve/snapshot.h"
#include "util/discrete_distribution.h"
#include "util/parallel.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace pipeline = layergcn::pipeline;
namespace serve = layergcn::serve;
namespace util = layergcn::util;

// Training runs inline on the main thread; the single pool worker serves
// the reads. Main + worker + reader generator + collector = 4 threads.
constexpr int kPoolWidth = 1;
// Set-ups timed before the measured phase, and again after it.
constexpr int kSetupReps = 3;
constexpr int32_t kUsers = 3000;
constexpr int32_t kItems = 2000;
constexpr int64_t kBootstrapEvents = 6000;
constexpr int64_t kBatchEvents = 1000;
// Cycles are paced evenly over the run, so every run fine-tunes the same
// sequence of graph sizes whatever the host's speed.
constexpr int kCycles = 20;
constexpr double kReadRatePerS = 200.0;
constexpr int kTopK = 20;
constexpr double kUserSkew = 0.8;
// One read in this many is re-ranked offline.
constexpr uint64_t kCheckEvery = 8;

pipeline::SupervisorOptions Options(const std::string& root, uint64_t seed) {
  pipeline::SupervisorOptions options;
  options.root_dir = root;
  options.snapshot_dir = root + "/snapshots";
  options.min_train_events = 100;
  options.train_config.embedding_dim = 64;
  options.train_config.num_layers = 4;
  options.train_config.batch_size = 2048;
  options.train_config.seed = seed;
  options.warm.bootstrap_epochs = 2;
  options.warm.fine_tune_epochs = 1;
  options.warm.quality_k = kTopK;
  // Every cycle publishes: the gate still runs, but cannot refuse.
  options.warm.max_quality_drop = 1.0;
  options.publish.backoff_base_us = 1000;
  options.publish.backoff_max_us = 50000;
  return options;
}

struct Pipeline {
  std::unique_ptr<serve::SnapshotStore> store;
  std::unique_ptr<pipeline::PipelineSupervisor> supervisor;
  std::unique_ptr<EventStream> events;
};

// Start() + the bootstrap cycle.
util::Status SetUp(const pipeline::SupervisorOptions& options, uint64_t seed,
                   int32_t users, int32_t items, int64_t bootstrap,
                   Pipeline* p) {
  ResetDir(options.root_dir);
  p->store = std::make_unique<serve::SnapshotStore>(options.snapshot_dir);
  p->supervisor =
      std::make_unique<pipeline::PipelineSupervisor>(options, p->store.get());
  p->events = std::make_unique<EventStream>(users, items, seed);
  util::Status st = p->supervisor->Start();
  if (st.ok()) st = p->supervisor->Ingest(p->events->Next(bootstrap));
  if (st.ok()) st = p->supervisor->RunCycle();
  if (st.ok() && p->store->current() == nullptr) {
    st = util::InternalError("bootstrap cycle published nothing");
  }
  return st;
}

}  // namespace

RunResult RunLive(const Args& args) {
  util::ThreadPool pool(kPoolWidth);
  util::parallel::ScopedComputePool scoped(&pool);
  const Cpus cpus = PinThreads(&pool);
  layergcn::obs::SetEnabled(false);
  const int32_t users = args.smoke ? 1000 : kUsers;
  const int32_t items = args.smoke ? 600 : kItems;
  const int64_t bootstrap = args.smoke ? 1000 : kBootstrapEvents;
  const int64_t batch = args.smoke ? 400 : kBatchEvents;
  const int cycles = args.smoke ? 4 : kCycles;

  const pipeline::SupervisorOptions options =
      Options(args.workdir + "/pipeline", args.seed);
  RunResult out;
  EndToEnd e;
  Pipeline p;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    p = Pipeline{};
    const uint64_t t0 = NowUs();
    const util::Status st =
        SetUp(options, args.seed, users, items, bootstrap, &p);
    e.setup_s.push_back(static_cast<double>(NowUs() - t0) * 1e-6);
    if (!st.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
      out.CountOp(false);
      return out;
    }
  }
  serve::RecommendService service(p.store.get());
  const int32_t read_users =
      static_cast<int32_t>(p.store->current()->num_users());
  const int64_t refusals0 = p.supervisor->counters().gate_refusals;

  Layers l;
  std::vector<Publication> publications;
  // Reader state, owned by the collector until the loop is joined.
  std::vector<ReadRecord> reads;
  // Whether each read matched the offline re-rank (true when not sampled).
  std::vector<bool> read_exact;
  int64_t read_failures = 0;

  const uint64_t start = NowUs() + 10000;
  const uint64_t period =
      static_cast<uint64_t>(args.seconds * 1e6 / static_cast<double>(cycles));
  PoissonClock clock(kReadRatePerS, start, UINT64_MAX, args.seed + 7);
  util::Rng draw(args.seed + 11);
  const util::DiscreteDistribution zipf(
      util::ZipfWeights(read_users, kUserSkew));
  ResetPeakRss();
  const HostCpuSample host0 = SampleHostCpu();
  l.proc0 = SampleProcess();
  RegistryDelta registry;
  uint64_t stop = start;
  {
    OpenLoop reader(
        &service,
        [&](Arrival* a) {
          if (!clock.Next(&a->due_us)) return false;
          a->req = serve::RecommendRequest{};
          a->req.user_id = static_cast<int32_t>(zipf.Sample(&draw));
          a->req.k = kTopK;
          return true;
        },
        [&](const Finished& f) {
          if (!f.result->ok()) {
            ++read_failures;
            return;
          }
          const serve::RecommendResponse& resp = f.result->value();
          reads.push_back({f.sent_us, resp.snapshot_version});
          // A sampled read is re-ranked against the snapshot it came from,
          // while that snapshot is still the one serving.
          bool exact = true;
          if (Mix64(args.seed ^ f.index) % kCheckEvery == 0) {
            const std::shared_ptr<const serve::ModelSnapshot> snap =
                p.store->current();
            if (snap->version() == resp.snapshot_version) {
              exact = RankingMatches(
                  resp.items, ExactReference(*snap, f.ctx->user, kTopK));
            }
          }
          read_exact.push_back(exact);
          e.good += !resp.partial && !resp.degraded;
          l.read_ms.push_back(f.latency_ms());
          l.queue_ms.push_back(
              static_cast<double>(f.ctx->stage(serve::Stage::kAdmission)) *
              1e-3);
          if (!resp.cached) {
            l.score_ms.push_back(
                static_cast<double>(f.ctx->stage(serve::Stage::kScore)) *
                1e-3);
          }
          ++l.answered;
          l.cached += resp.cached;
        },
        static_cast<size_t>(1.1 * kReadRatePerS * args.seconds), cpus);
    for (int c = 0; c < cycles; ++c) {
      const uint64_t due = start + static_cast<uint64_t>(c) * period;
      const uint64_t now = NowUs();
      if (due > now) {
        std::this_thread::sleep_for(std::chrono::microseconds(due - now));
      }
      const bool traced = args.trace && c % 2 == 1;
      layergcn::obs::SetEnabled(traced);
      const std::vector<pipeline::WalRecord> events = p.events->Next(batch);
      const int64_t before = p.supervisor->manifest().version;
      const uint64_t t0 = NowUs();
      util::Status st = p.supervisor->Ingest(events);
      const uint64_t t1 = NowUs();
      if (st.ok()) st = p.supervisor->RunCycle();
      const uint64_t t2 = NowUs();
      const int64_t published = p.supervisor->manifest().version;
      serve::RecommendRequest probe;
      probe.user_id = 0;
      probe.k = kTopK;
      const util::StatusOr<serve::RecommendResponse> r =
          service.Recommend(probe);
      const uint64_t t3 = NowUs();
      layergcn::obs::SetEnabled(false);
      const bool ok = st.ok() && r.ok() &&
                      CycleServesNewVersion(before, published,
                                            r.value().snapshot_version);
      if (!ok) {
        std::fprintf(stderr, "cycle %d: %s, version %lld -> %lld\n", c,
                     st.ToString().c_str(), static_cast<long long>(before),
                     static_cast<long long>(published));
      }
      out.CountOp(ok);
      publications.push_back({t2, published});
      (traced ? l.traced_ms : l.untraced_ms)
          .push_back(static_cast<double>(t3 - t0) * 1e-3);
      if (traced) {
        l.ingest_ms.push_back(static_cast<double>(t1 - t0) * 1e-3);
        l.cycle_ms.push_back(static_cast<double>(t2 - t1) * 1e-3);
      }
    }
    stop = NowUs();
    reader.Stop();
    reader.Join();
    e.peak_rss_mb = PeakRssMiB();  // before the checks allocate
    l.gen_late_p99_ms = Quantile(reader.lateness_ms(), 0.99);
    read_failures += reader.lost();
  }
  registry.Finish();
  l.proc1 = SampleProcess();
  l.ops = cycles;
  l.steal_share = StealShare(host0, SampleHostCpu());
  PrintDiagnostics("live", kPoolWidth, l.steal_share, l.gen_late_p99_ms);

  // Every read must serve at least the version published before it was
  // sent, a sampled read must equal the offline f32 re-rank bit for bit,
  // and the merged state must equal a fresh replay of the WAL.
  for (size_t i = 0; i < reads.size(); ++i) {
    out.CountOp(ReadIsFresh(reads[i], publications) && read_exact[i]);
  }
  for (int64_t i = 0; i < read_failures; ++i) out.CountOp(false);
  const util::StatusOr<uint32_t> replay =
      ReplayDigest(options.root_dir + "/wal", options.delta);
  const bool digest_ok =
      replay.ok() && replay.value() == p.supervisor->ingestor().Digest();
  if (!digest_ok) std::fprintf(stderr, "WAL replay digest differs\n");
  out.CountOp(digest_ok);

  if (!args.trace) {
    e.op_ms = l.untraced_ms;
    e.good_seconds = static_cast<double>(stop - start) * 1e-6;
    e.recall20 = ServedRecall20(&service, *p.store->current(), args.seed);
    // The second half of the set-up repetitions, after the measured phase,
    // under a root of their own (the WAL above was just checked).
    pipeline::SupervisorOptions again =
        Options(args.workdir + "/setup", args.seed);
    for (int rep = 0; rep < kSetupReps; ++rep) {
      Pipeline q;
      const uint64_t t0 = NowUs();
      const util::Status st = SetUp(again, args.seed, users, items, bootstrap,
                                    &q);
      e.setup_s.push_back(static_cast<double>(NowUs() - t0) * 1e-6);
      if (!st.ok()) out.CountOp(false);
    }
    AddEndToEnd(e, &out);
    return out;
  }
  l.traced_ops = static_cast<int64_t>(l.traced_ms.size());
  l.gate_refusals = p.supervisor->counters().gate_refusals - refusals0;
  AddLayers(registry, l, &out);
  return out;
}

}  // namespace perfbench
