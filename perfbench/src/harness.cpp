#include "harness.h"

#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <latch>
#include <mutex>
#include <sstream>

#include "bench/bench_env.h"
#include "checks.h"
#include "obs/obs.h"

namespace perfbench {

namespace serve = layergcn::serve;
namespace util = layergcn::util;

namespace {

// How long past its budget an OpenLoop request may take to resolve before
// it is lost; far beyond any stall a healthy run shows.
constexpr uint64_t kResolveMarginUs = 5000000;
// Users sampled for ServedRecall20.
constexpr int kRecallUsers = 256;
constexpr int kRecallK = 20;
// How often the OpenLoop collector looks for resolved requests. Latency is
// read from the service's own finish stamp, so this only bounds how long
// an answer is held; 200 wake-ups a second are no more than a collector
// woken per answer would take at the lowest rate a workload sends.
constexpr uint64_t kCollectEveryUs = 5000;

void PinThisThread(int cpu) {
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// bench_env.h writes `  "env": {...},\n` for a multi-line writer; this
// returns the bare `"env": {...}` member for a one-line record.
std::string EnvMember() {
  char* data = nullptr;
  size_t size = 0;
  FILE* mem = open_memstream(&data, &size);
  if (mem == nullptr) return "\"env\": {}";
  layergcn::bench::WriteBenchEnvJson(mem);
  std::fclose(mem);
  std::string s(data, size);
  std::free(data);
  const size_t begin = s.find('"');
  const size_t end = s.rfind('}');
  if (begin == std::string::npos || end == std::string::npos) {
    return "\"env\": {}";
  }
  return s.substr(begin, end - begin + 1);
}

}  // namespace

void PrintResult(const RunResult& r) {
  bool correct = r.correct && r.failed == 0 && r.attempted > 0;
  std::ostringstream metrics;
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const RunResult::Metric& m = r.metrics[i];
    double v = m.value;
    if (!std::isfinite(v)) {
      std::fprintf(stderr, "metric %s is not finite\n", m.name.c_str());
      correct = false;
      v = 0.0;
    }
    metrics << (i > 0 ? ", " : "") << "\"" << m.name << "\": {\"value\": "
            << JsonNumber(v) << ", \"unit\": \"" << m.unit << "\"}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false", static_cast<long long>(r.attempted),
      static_cast<long long>(r.failed), metrics.str().c_str());
  std::fflush(stdout);
}

void PrintDiagnostics(const std::string& workload, int pool_width,
                      double steal_share, double gen_late_p99_ms) {
  std::printf(
      "{\"diagnostics\": \"%s\", \"pool_width\": %d, \"host_steal_share\": "
      "%s, \"gen_late_p99_ms\": %s, %s}\n",
      workload.c_str(), pool_width, JsonNumber(steal_share).c_str(),
      JsonNumber(gen_late_p99_ms).c_str(), EnvMember().c_str());
  std::fflush(stdout);
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(v.size() - 1, lo + 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

ProcessSample SampleProcess() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  ProcessSample s;
  s.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
  s.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
  s.minor_faults = static_cast<int64_t>(ru.ru_minflt);
  return s;
}

void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";  // resets VmHWM
}

double PeakRssMiB() {
  std::ifstream in("/proc/self/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return std::nan("");  // PrintResult fails a run with a non-finite metric
}

HostCpuSample SampleHostCpu() {
  HostCpuSample s;
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") return s;
  // user nice system idle iowait irq softirq steal (guest time is already
  // inside user/nice).
  for (int field = 0; field < 8; ++field) {
    uint64_t v = 0;
    if (!(in >> v)) return HostCpuSample{};
    s.total += v;
    if (field == 7) s.steal = v;
  }
  return s;
}

double StealShare(const HostCpuSample& before, const HostCpuSample& after) {
  if (after.total <= before.total) return 0.0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

void AddEndToEnd(const EndToEnd& e, RunResult* out) {
  out->Add("setup_s", Quantile(e.setup_s, 0.5), "s");
  out->Add("peak_rss_mb", e.peak_rss_mb, "MiB");
  out->Add("op_p50_ms", Quantile(e.op_ms, 0.5), "ms");
  out->Add("goodput_rps",
           e.good_seconds > 0.0
               ? static_cast<double>(e.good) / e.good_seconds
               : 0.0,
           "1/s");
  out->Add("recall20", e.recall20, "ratio");
}

void AddLayers(const RegistryDelta& registry, const Layers& l,
               RunResult* out) {
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const auto mean = [](const std::vector<double>& v) {
    double sum = 0.0;
    for (double x : v) sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
  };
  const auto counter = [&](const std::string& name) {
    return static_cast<double>(registry.Counter(name));
  };
  const double ops = static_cast<double>(l.traced_ops);
  const auto per_op = [&](std::initializer_list<const char*> spans) {
    return ratio(registry.SpanMs(spans), ops);
  };
  const double requests = counter("serve.requests");

  out->Add("graph.resample_ms", per_op({"train.resample_adjacency"}), "ms");
  out->Add("train.sampler_ms", per_op({"train.sampler"}), "ms");
  out->Add("train.neg_reject_share",
           ratio(counter("bpr.neg_rejected"), counter("bpr.neg_sampled")),
           "ratio");
  out->Add("autograd.forward_ms", per_op({"train.forward"}), "ms");
  out->Add("autograd.backward_ms", per_op({"train.backward"}), "ms");
  out->Add("autograd.gather_ms", per_op({"fw.gather_rows", "bw.gather_rows"}),
           "ms");
  out->Add("sparse.spmm_ms", per_op({"fw.spmm", "bw.spmm"}), "ms");
  out->Add("core.refine_ms",
           per_op({"fw.rowwise_cosine", "bw.rowwise_cosine", "bw.scale_rows"}),
           "ms");
  out->Add("train.adam_ms", per_op({"adam.step"}), "ms");

  out->Add("serve.queue_ms", Quantile(l.queue_ms, 0.5), "ms");
  out->Add("serve.queue_ms.p90", Quantile(l.queue_ms, 0.9), "ms");
  out->Add("serve.score_ms", Quantile(l.score_ms, 0.5), "ms");
  out->Add("serve.read_p50_ms", Quantile(l.read_ms, 0.5), "ms");
  out->Add("serve.cache_hit_share",
           ratio(counter("serve.score_cache_hits"), requests), "ratio");
  out->Add("util.pool_tasks_per_op",
           ratio(counter("pool.tasks_submitted"), requests), "count");

  // The cycle's spans only mean fine-tune and gate inside a cycle.
  const bool cycles = !l.cycle_ms.empty();
  const double finetune = cycles ? per_op({"train.epoch"}) : 0.0;
  const double gate = cycles ? per_op({"eval.evaluate"}) : 0.0;
  out->Add("pipeline.ingest_ms", mean(l.ingest_ms), "ms");
  out->Add("pipeline.cycle_ms", mean(l.cycle_ms), "ms");
  out->Add("train.finetune_ms", finetune, "ms");
  out->Add("eval.gate_ms", gate, "ms");
  out->Add("pipeline.unattributed_ms",
           cycles ? mean(l.cycle_ms) - finetune - gate : 0.0, "ms");
  out->Add("serve.read_cache_hit_share",
           ratio(static_cast<double>(l.cached),
                 static_cast<double>(l.answered)),
           "ratio");
  out->Add("pipeline.gate_refusals", static_cast<double>(l.gate_refusals),
           "count");
  out->Add("pipeline.publish_retries", counter("pipeline.publish.retries"),
           "count");

  const double user = l.proc1.user_s - l.proc0.user_s;
  const double sys = l.proc1.sys_s - l.proc0.sys_s;
  out->Add("process.minor_faults",
           ratio(static_cast<double>(l.proc1.minor_faults -
                                     l.proc0.minor_faults),
                 static_cast<double>(l.ops)),
           "count");
  out->Add("process.sys_share", ratio(sys, user + sys), "ratio");
  out->Add("bench.gen_late_p99_ms", l.gen_late_p99_ms, "ms");
  out->Add("host.steal_share", l.steal_share, "ratio");
  out->Add("bench.trace_overhead",
           ratio(Quantile(l.traced_ms, 0.5), Quantile(l.untraced_ms, 0.5)),
           "ratio");
}

RegistryDelta::RegistryDelta()
    : before_(layergcn::obs::MetricsRegistry::Global().Snapshot()) {}

void RegistryDelta::Finish() {
  after_ = layergcn::obs::MetricsRegistry::Global().Snapshot();
}

uint64_t RegistryDelta::Counter(const std::string& name) const {
  return after_.CounterDelta(before_, name);
}

double RegistryDelta::SpanMs(std::initializer_list<const char*> names) const {
  uint64_t us = 0;
  for (const char* name : names) {
    us += Counter(std::string("span.") + name + ".sum_us");
  }
  return static_cast<double>(us) * 1e-3;
}

uint64_t NowUs() { return layergcn::obs::NowMicros(); }

void ResetDir(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
}

Cpus PinThreads(util::ThreadPool* pool) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return Cpus{};
  std::vector<int> cpus;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && cpus.size() < 4; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  if (cpus.size() < 4) return Cpus{};
  const Cpus c{cpus[0], cpus[1], cpus[2], cpus[3]};
  PinThisThread(c.main);
  std::latch pinned(1);
  pool->Submit([&] {
    PinThisThread(c.worker);
    pinned.count_down();
  });
  pinned.wait();
  return c;
}

// --- OpenLoop -----------------------------------------------------------

double Finished::latency_ms() const {
  return ctx->finish_us > due_us
             ? static_cast<double>(ctx->finish_us - due_us) * 1e-3
             : 0.0;
}

struct OpenLoop::Pending {
  uint64_t index = 0;
  uint64_t due_us = 0;
  uint64_t sent_us = 0;
  std::unique_ptr<serve::RequestContext> ctx;
  std::future<util::StatusOr<serve::RecommendResponse>> future;
};

struct OpenLoop::Channel {
  std::mutex mu;
  std::vector<std::unique_ptr<Pending>> queue;
  bool closed = false;
};

OpenLoop::OpenLoop(serve::RecommendService* service, NextFn next, DoneFn done,
                   size_t expected_requests, const Cpus& cpus)
    : service_(service),
      next_(std::move(next)),
      done_(std::move(done)),
      cpus_(cpus),
      channel_(std::make_unique<Channel>()) {
  lateness_ms_.reserve(expected_requests);
  generator_ = std::thread([this] { Generate(); });
  collector_ = std::thread([this] { Collect(); });
}

OpenLoop::~OpenLoop() {
  Stop();
  Join();
}

void OpenLoop::Stop() { stop_.store(true, std::memory_order_relaxed); }

void OpenLoop::Join() {
  if (generator_.joinable()) generator_.join();
  if (collector_.joinable()) collector_.join();
}

void OpenLoop::Generate() {
  // Sleep precision sets how late requests leave; the default 50 us timer
  // slack would add that much to every gap.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  PinThisThread(cpus_.generator);
  uint64_t index = 0;
  Arrival a;
  while (!stop_.load(std::memory_order_relaxed) && next_(&a)) {
    const uint64_t now = NowUs();
    if (a.due_us > now) {
      std::this_thread::sleep_for(std::chrono::microseconds(a.due_us - now));
    }
    auto p = std::make_unique<Pending>();
    p->index = index;
    p->due_us = a.due_us;
    p->ctx = std::make_unique<serve::RequestContext>();
    p->ctx->id = ++index;
    p->ctx->user = a.req.user_id;
    p->ctx->k = a.req.k;
    p->ctx->budget_us = a.req.budget_us;
    p->ctx->priority = a.req.priority;
    p->sent_us = NowUs();
    p->future = service_->Submit(a.req, p->ctx.get());
    std::lock_guard<std::mutex> lock(channel_->mu);
    channel_->queue.push_back(std::move(p));
  }
  std::lock_guard<std::mutex> lock(channel_->mu);
  channel_->closed = true;
}

void OpenLoop::Collect() {
  // Requests are handed over as they resolve, not in schedule order: in
  // order, answers would pile up behind a request starving in a
  // low-priority queue, and that backlog, whose size varies from run to
  // run, would count in the run's peak memory.
  PinThisThread(cpus_.collector);
  std::vector<std::unique_ptr<Pending>> pending;
  for (bool closed = false; !closed || !pending.empty();) {
    std::this_thread::sleep_for(std::chrono::microseconds(kCollectEveryUs));
    {
      std::lock_guard<std::mutex> lock(channel_->mu);
      closed = channel_->closed;
      for (std::unique_ptr<Pending>& p : channel_->queue) {
        lateness_ms_.push_back(
            p->sent_us > p->due_us
                ? static_cast<double>(p->sent_us - p->due_us) * 1e-3
                : 0.0);
        pending.push_back(std::move(p));
      }
      channel_->queue.clear();
    }
    const uint64_t now = NowUs();
    std::vector<std::unique_ptr<Pending>> unresolved;
    for (std::unique_ptr<Pending>& p : pending) {
      if (p->future.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        const util::StatusOr<serve::RecommendResponse> result =
            p->future.get();
        Finished f;
        f.index = p->index;
        f.due_us = p->due_us;
        f.sent_us = p->sent_us;
        f.ctx = p->ctx.get();
        f.result = &result;
        done_(f);
      } else if (now >= p->sent_us + p->ctx->budget_us + kResolveMarginUs) {
        ++lost_;
        static_cast<void>(p.release());  // the service may still resolve it
      } else {
        unresolved.push_back(std::move(p));
      }
    }
    pending.swap(unresolved);
  }
}

double ServedRecall20(serve::RecommendService* service,
                      const serve::ModelSnapshot& snap, uint64_t seed) {
  util::Rng rng(seed ^ 0x5eed5eedull);
  double sum = 0.0;
  for (int i = 0; i < kRecallUsers; ++i) {
    serve::RecommendRequest req;
    req.user_id = static_cast<int32_t>(
        rng.NextBounded(static_cast<uint64_t>(snap.num_users())));
    req.k = kRecallK;
    const util::StatusOr<serve::RecommendResponse> r = service->Recommend(req);
    if (!r.ok()) continue;
    const Ranking ref = ExactReference(snap, req.user_id, kRecallK);
    int hits = 0;
    for (const serve::ScoredItem& s : r.value().items) {
      for (int32_t item : ref.items) hits += item == s.item;
    }
    sum += static_cast<double>(hits) / static_cast<double>(ref.items.size());
  }
  return sum / kRecallUsers;
}

PoissonClock::PoissonClock(double rate_per_s, uint64_t start_us,
                           uint64_t end_us, uint64_t seed)
    : mean_gap_us_(1e6 / rate_per_s),
      t_us_(static_cast<double>(start_us)),
      end_us_(end_us),
      rng_(seed) {}

bool PoissonClock::Next(uint64_t* due_us) {
  t_us_ += -std::log(1.0 - rng_.NextDouble()) * mean_gap_us_;
  if (t_us_ >= static_cast<double>(end_us_)) return false;
  *due_us = static_cast<uint64_t>(t_us_);
  return true;
}

}  // namespace perfbench
