// Shared machinery of the benchmark program: arguments, the result line,
// quantiles, process/host probes taken from outside the program, registry
// deltas, the metrics every workload reports, thread placement, and the
// open-loop request generator of live's reader.
//
// Everything here observes the program through its public surface:
// timers around public calls, the stage times RecommendService writes into
// serve::RequestContext, and the span/counter totals obs::MetricsRegistry
// already keeps. Nothing is added to src/.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "serve/recommend_service.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs for the self-test; never used for measurements.
  bool smoke = false;
  /// Working directory for snapshots, WAL and checkpoints. Created and
  /// emptied by the workload.
  std::string workdir;
};

/// The result printed as the last line of standard output.
struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Counts one op and whether it passed its correctness check.
  void CountOp(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// Prints `r` as one JSON object on its own line (the last line of standard output).
void PrintResult(const RunResult& r);

// --- The metrics of BENCHMARK.json ------------------------------------------
//
// Every workload reports every metric: the end-to-end ones untraced, the
// per-layer ones traced. A workload fills in what it measured; a layer it
// does not exercise reads 0.

/// What an untraced run measured.
struct EndToEnd {
  /// One entry per set-up repetition; setup_s is their median.
  std::vector<double> setup_s;
  double peak_rss_mb = 0.0;
  /// Every op of the measured phase: epochs, answered requests or cycles.
  std::vector<double> op_ms;
  /// Good answers (epochs on train) over the seconds they are counted in.
  int64_t good = 0;
  double good_seconds = 0.0;
  double recall20 = 0.0;
};

/// Adds setup_s, peak_rss_mb, op_p50_ms, goodput_rps, recall20.
void AddEndToEnd(const EndToEnd& e, RunResult* out);

/// Getrusage totals for the whole process.
struct ProcessSample {
  double user_s = 0.0;
  double sys_s = 0.0;
  int64_t minor_faults = 0;
};

/// What a traced run measured outside the registry.
struct Layers {
  /// Epochs or cycles run with obs on; span totals are divided by it.
  int64_t traced_ops = 0;
  /// Op latencies with obs on and off, for bench.trace_overhead.
  std::vector<double> traced_ms, untraced_ms;
  /// Answered reads (live): admission and score stages from RequestContext,
  /// due -> finish latency, and how many came from cache.
  std::vector<double> queue_ms, score_ms, read_ms;
  int64_t answered = 0;
  int64_t cached = 0;
  /// Timers around PipelineSupervisor::Ingest and RunCycle (live).
  std::vector<double> ingest_ms, cycle_ms;
  int64_t gate_refusals = 0;
  /// Getrusage around the measured phase, and the ops it held.
  ProcessSample proc0, proc1;
  int64_t ops = 0;
  double steal_share = 0.0;
  double gen_late_p99_ms = 0.0;
};

class RegistryDelta;
/// Adds every per-layer metric, in BENCHMARK.json's order.
void AddLayers(const RegistryDelta& registry, const Layers& l, RunResult* out);

/// Prints a diagnostic JSON line (env stamp, host steal, generator
/// lateness) so a slow run can be explained. Not part of the result.
void PrintDiagnostics(const std::string& workload, int pool_width,
                      double steal_share, double gen_late_p99_ms);

/// Linear-interpolated q-quantile (0 <= q <= 1) of `v`; 0 when empty.
double Quantile(std::vector<double> v, double q);

// --- Probes from outside the program -----------------------------------

ProcessSample SampleProcess();

/// Returns freed heap pages to the system and restarts the peak resident
/// set count, so PeakRssMiB() covers only what follows. Workloads call it
/// after set-up, once the benchmark's own copy of its inputs is freed.
void ResetPeakRss();

/// Peak resident set (VmHWM) since the last ResetPeakRss(), in MiB.
double PeakRssMiB();

/// Aggregate CPU jiffies from the "cpu" line of /proc/stat.
struct HostCpuSample {
  uint64_t steal = 0;
  uint64_t total = 0;
};
HostCpuSample SampleHostCpu();
/// Share of host CPU time stolen by the hypervisor between two samples.
double StealShare(const HostCpuSample& before, const HostCpuSample& after);

/// Counter and span deltas of the global registry over a window.
class RegistryDelta {
 public:
  RegistryDelta();
  /// Closes the window.
  void Finish();
  uint64_t Counter(const std::string& name) const;
  /// Summed duration of the named spans in milliseconds.
  double SpanMs(std::initializer_list<const char*> names) const;

 private:
  layergcn::obs::MetricsSnapshot before_;
  layergcn::obs::MetricsSnapshot after_;
};

/// SplitMix64 finaliser: derives independent seeds and per-request sampling
/// decisions from --seed.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Monotonic microseconds on the clock RequestContext stamps use.
uint64_t NowUs();

/// Empties and re-creates `dir`.
void ResetDir(const std::string& dir);

// --- Thread placement ---------------------------------------------------

/// CPUs of a workload's four busy threads, each its own; -1 leaves a thread
/// to the scheduler. Unpinned, the scheduler sometimes kept a pool worker on
/// the CPU of the generator that wakes it for a whole run (README, "Thread
/// placement").
struct Cpus {
  int main = -1;
  int worker = -1;
  int generator = -1;
  int collector = -1;
};

/// Pins the calling thread and `pool`'s single worker, and returns the CPUs
/// for OpenLoop's threads. The calling thread, which runs the ops, takes the
/// highest allowed CPU, away from where interrupts usually land. Pins
/// nothing when the process may use fewer than four CPUs.
Cpus PinThreads(layergcn::util::ThreadPool* pool);

// --- Open-loop traffic --------------------------------------------------

/// One request of an open-loop schedule.
struct Arrival {
  uint64_t due_us = 0;  // on NowUs()'s clock
  layergcn::serve::RecommendRequest req;
};

/// A finished request as the collector sees it.
struct Finished {
  uint64_t index = 0;   // position in the schedule
  uint64_t due_us = 0;
  uint64_t sent_us = 0;
  const layergcn::serve::RequestContext* ctx = nullptr;
  const layergcn::util::StatusOr<layergcn::serve::RecommendResponse>* result =
      nullptr;
  /// Latency from the due time to the service's finish stamp (ms).
  double latency_ms() const;
};

/// Drives RecommendService::Submit from one generator thread on an
/// open-loop schedule and hands each request to `done` on one collector
/// thread, which looks for resolved futures every 5 ms. Requests are
/// timed from their due time to the service's finish stamp, so a stalled
/// generator or service shows up as latency of the requests behind the
/// stall, and the collector's polling does not.
///
/// A request that does not resolve within its budget plus 5 s of being
/// sent is lost: it skips `done` and counts in lost(), so a service that
/// strands requests fails the run's checks instead of stalling it. The
/// service may still write into a lost request's context later, so that
/// context is never freed.
class OpenLoop {
 public:
  /// Produces the next arrival; returns false when the schedule ends.
  using NextFn = std::function<bool(Arrival*)>;
  /// Called on the collector thread for every resolved request, soon after
  /// it resolves; not in schedule order.
  using DoneFn = std::function<void(const Finished&)>;

  /// `expected_requests` sizes the per-request record up front, so its
  /// growth does not show in the run's peak resident set.
  /// The generator and collector run on `cpus.generator` and
  /// `cpus.collector`.
  OpenLoop(layergcn::serve::RecommendService* service, NextFn next,
           DoneFn done, size_t expected_requests, const Cpus& cpus);
  /// Stops the generator and joins both threads.
  ~OpenLoop();

  OpenLoop(const OpenLoop&) = delete;
  OpenLoop& operator=(const OpenLoop&) = delete;

  /// Ends the schedule early (the live workload stops its reader when the
  /// last cycle finishes).
  void Stop();
  /// Waits until every scheduled request has been collected.
  void Join();

  /// Send time minus due time of every request, in ms.
  const std::vector<double>& lateness_ms() const { return lateness_ms_; }
  /// Requests that never resolved (read after Join()).
  int64_t lost() const { return lost_; }

 private:
  struct Pending;
  void Generate();
  void Collect();

  layergcn::serve::RecommendService* service_;
  NextFn next_;
  DoneFn done_;
  Cpus cpus_;
  std::atomic<bool> stop_{false};
  std::vector<double> lateness_ms_;  // collector-owned
  int64_t lost_ = 0;                 // collector-owned

  struct Channel;
  std::unique_ptr<Channel> channel_;
  std::thread generator_;
  std::thread collector_;
};

/// recall20 of live: the mean top-20 overlap of `service`'s
/// answers with the exact f32 ranking (ExactReference) over a seeded
/// sample of `snap`'s users, asked after the timed phase.
double ServedRecall20(layergcn::serve::RecommendService* service,
                      const layergcn::serve::ModelSnapshot& snap,
                      uint64_t seed);

/// Poisson arrivals at `rate_per_s` from `start_us` until `end_us`.
class PoissonClock {
 public:
  PoissonClock(double rate_per_s, uint64_t start_us, uint64_t end_us,
               uint64_t seed);
  /// Next due time; false past the end.
  bool Next(uint64_t* due_us);

 private:
  double mean_gap_us_;
  double t_us_;
  uint64_t end_us_;
  layergcn::util::Rng rng_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
