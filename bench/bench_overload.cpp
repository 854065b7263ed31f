// Benchmark: goodput under sustained overload, with and without the
// adaptive overload controls.
//
// Setup: a synthetic snapshot (random embeddings + strided histories,
// int8/bf16 copies and an IVF index included so every brownout rung is
// real), served through RecommendService::Submit from paced open-loop
// clients. A closed-loop warmup measures the service's capacity; both
// overload passes then offer 3x that rate so the service cannot keep up
// and *something* must give. Every request carries a deadline budget and
// a priority class (50% interactive / 30% batch / 20% background).
//
//   static    the pre-overload-control configuration: concurrency bound
//             by the static queue_capacity, no limiter, no brownout.
//             Admitted requests thrash the shared compute pool, latency
//             blows through the budget, and goodput collapses even
//             though the CPUs are saturated.
//   adaptive  AIMD limiter + brownout ladder + deadline-aware dequeue.
//             Concurrency squeezes to what the pool can finish inside
//             the budget, excess load is shed at the door (batch first),
//             and sustained SLO breach steps scoring down the
//             exact -> ivf -> quantized -> cache/popularity ladder.
//
// Goodput = complete (non-partial) answers whose end-to-end latency --
// submit to future resolution, measured client-side -- beat the
// request's own budget, per second of wall clock.
//
// Emits BENCH_overload.json. Acceptance (exit 2 on failure):
//   - every response in both passes is answered or a structured shed/
//     expiry: answered + shed + expired == offered, nothing unstructured
//   - interactive shed rate < batch shed rate in the adaptive pass
//     (strict priority actually protected the interactive class)
//   - adaptive goodput >= 1.5x static goodput (skipped under
//     LAYERGCN_BENCH_QUALITY_ONLY=1 -- sanitizer builds distort the
//     timing-dependent gate; the structural gates still hold there)

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_env.h"
#include "bench/strided_export.h"
#include "experiments/env.h"
#include "obs/obs.h"
#include "serve/overload.h"
#include "serve/recommend_service.h"
#include "serve/snapshot.h"
#include "train/checkpoint.h"
#include "util/fault_injection.h"
#include "util/rng.h"
#include "util/status.h"

using namespace layergcn;

namespace {

constexpr int kClients = 4;

double Percentile(std::vector<uint64_t>* latencies, double q) {
  if (latencies->empty()) return 0.0;
  std::sort(latencies->begin(), latencies->end());
  const size_t idx = std::min(
      latencies->size() - 1,
      static_cast<size_t>(q * static_cast<double>(latencies->size())));
  return static_cast<double>((*latencies)[idx]);
}

serve::Priority MixPriority(int64_t i) {
  const int64_t r = i % 10;
  if (r < 5) return serve::Priority::kInteractive;
  if (r < 8) return serve::Priority::kBatch;
  return serve::Priority::kBackground;
}

struct CapacityResult {
  double req_per_sec = 0.0;
  double mean_us = 0.0;
};

// Closed-loop calibration: kClients threads issue synchronous requests
// back-to-back. The achieved rate is (roughly) the service's capacity on
// this machine and build — the overload passes offer a multiple of it,
// so the bench self-calibrates across hardware and sanitizers.
CapacityResult MeasureCapacity(serve::SnapshotStore* store, int32_t num_users,
                               int64_t per_client, uint64_t seed) {
  serve::RecommendServiceOptions opt;
  opt.score_cache_capacity = 0;
  serve::RecommendService service(store, opt);

  std::vector<uint64_t> sums(kClients, 0);
  std::vector<int64_t> counts(kClients, 0);
  const uint64_t t0 = obs::NowMicros();
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      util::Rng rng(seed + static_cast<uint64_t>(c) * 7919);
      for (int64_t i = 0; i < per_client; ++i) {
        serve::RecommendRequest req;
        req.user_id = static_cast<int32_t>(
            rng.NextBounded(static_cast<uint64_t>(num_users)));
        req.k = 20;
        const uint64_t s = obs::NowMicros();
        if (service.Recommend(req).ok()) {
          sums[static_cast<size_t>(c)] += obs::NowMicros() - s;
          ++counts[static_cast<size_t>(c)];
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const double elapsed_s = static_cast<double>(obs::NowMicros() - t0) * 1e-6;

  CapacityResult out;
  uint64_t sum = 0;
  int64_t n = 0;
  for (int c = 0; c < kClients; ++c) {
    sum += sums[static_cast<size_t>(c)];
    n += counts[static_cast<size_t>(c)];
  }
  out.req_per_sec =
      elapsed_s > 0.0 ? static_cast<double>(n) / elapsed_s : 0.0;
  out.mean_us = n > 0 ? static_cast<double>(sum) / static_cast<double>(n) : 0.0;
  return out;
}

struct OverloadPass {
  std::string name;
  bool adaptive = false;
  int64_t offered = 0;
  int64_t offered_by_class[serve::kNumPriorities] = {0, 0, 0};
  int64_t shed_by_class[serve::kNumPriorities] = {0, 0, 0};
  int64_t answered = 0;   // ok status: complete, partial, degraded, cached
  int64_t partial = 0;
  int64_t degraded = 0;
  int64_t browned_out = 0;  // answered at a brownout rung below exact
  int64_t shed = 0;         // structured ResourceExhausted
  int64_t expired = 0;      // structured DeadlineExceeded
  int64_t unstructured = 0; // anything else — acceptance failure
  int64_t goodput = 0;      // complete answers within their own budget
  double duration_s = 0.0;
  double goodput_per_sec = 0.0;
  double p50_us = 0.0;  // end-to-end latency of the goodput set
  double p99_us = 0.0;
  int64_t final_limit = 0;
  int64_t brownout_transitions = 0;
};

// One submitted request riding from the paced submitter to the harvester.
struct InFlight {
  std::future<util::StatusOr<serve::RecommendResponse>> future;
  uint64_t submit_us = 0;
  uint64_t budget_us = 0;
  serve::Priority priority = serve::Priority::kInteractive;
};

// Per-client tallies the harvester accumulates while the submitter paces.
struct ClientTally {
  int64_t offered_by_class[serve::kNumPriorities] = {0, 0, 0};
  int64_t shed_by_class[serve::kNumPriorities] = {0, 0, 0};
  int64_t answered = 0, partial = 0, degraded = 0, browned_out = 0;
  int64_t shed = 0, expired = 0, unstructured = 0, goodput = 0;
  std::vector<uint64_t> good_latencies;
};

// Open-loop overload: each of kClients submitter threads offers requests
// at a fixed interval regardless of how the service is coping (that is
// the point — demand does not politely back off), while a paired
// harvester resolves the futures in submission order and classifies the
// outcome. End-to-end latency is measured client-side at resolution.
OverloadPass RunOverloadPass(serve::SnapshotStore* store,
                             const std::string& name, bool adaptive,
                             int32_t num_users, double offered_per_sec,
                             double duration_s, uint64_t budget_us,
                             uint64_t seed) {
  serve::RecommendServiceOptions opt;
  opt.score_cache_capacity = 0;
  opt.queue_capacity = 64;
  if (adaptive) {
    opt.overload.adaptive = true;
    opt.overload.limiter.initial_limit = 8;
    opt.overload.limiter.min_limit = 1;
    opt.overload.limiter.max_limit = 64;
    opt.overload.limiter.latency_target_us = budget_us / 2;
    opt.overload.limiter.decrease_cooldown_us = 10'000;
    opt.overload.limiter.increase_every = 8;
    opt.overload.brownout.enabled = true;
    opt.overload.brownout.step_down_hold_us = 100'000;
    opt.overload.brownout.step_up_hold_us = 500'000;
    opt.stats.slo.latency_target_us = budget_us;
    opt.stats.slo.latency_objective = 0.9;
    opt.stats.slo.availability_objective = 0.9;
    opt.stats.slo.short_window_us = 200'000;
    opt.stats.slo.long_window_us = 1'000'000;
  }
  serve::RecommendService service(store, opt);

  const int64_t per_client = std::max<int64_t>(
      1, static_cast<int64_t>(offered_per_sec * duration_s /
                              static_cast<double>(kClients)));
  const auto interval = std::chrono::nanoseconds(static_cast<int64_t>(
      static_cast<double>(kClients) * 1e9 / offered_per_sec));

  std::vector<ClientTally> tallies(kClients);
  const uint64_t pass_t0 = obs::NowMicros();
  std::vector<std::thread> submitters, harvesters;
  std::vector<std::deque<InFlight>> channels(kClients);
  std::vector<std::mutex> channel_mu(kClients);
  std::vector<std::condition_variable> channel_cv(kClients);
  std::vector<bool> channel_done(kClients, false);

  for (int c = 0; c < kClients; ++c) {
    submitters.emplace_back([&, c] {
      util::Rng rng(seed + static_cast<uint64_t>(c) * 104729);
      const auto start = std::chrono::steady_clock::now();
      for (int64_t i = 0; i < per_client; ++i) {
        std::this_thread::sleep_until(start + interval * i);
        serve::RecommendRequest req;
        req.user_id = static_cast<int32_t>(
            rng.NextBounded(static_cast<uint64_t>(num_users)));
        req.k = 20;
        req.budget_us = budget_us;
        req.priority = MixPriority(i + c);
        InFlight f;
        f.submit_us = obs::NowMicros();
        f.budget_us = budget_us;
        f.priority = req.priority;
        f.future = service.Submit(req);
        {
          std::lock_guard<std::mutex> lock(channel_mu[static_cast<size_t>(c)]);
          channels[static_cast<size_t>(c)].push_back(std::move(f));
        }
        channel_cv[static_cast<size_t>(c)].notify_one();
      }
      {
        std::lock_guard<std::mutex> lock(channel_mu[static_cast<size_t>(c)]);
        channel_done[static_cast<size_t>(c)] = true;
      }
      channel_cv[static_cast<size_t>(c)].notify_one();
    });
    harvesters.emplace_back([&, c] {
      ClientTally& mine = tallies[static_cast<size_t>(c)];
      for (;;) {
        InFlight f;
        {
          std::unique_lock<std::mutex> lock(
              channel_mu[static_cast<size_t>(c)]);
          channel_cv[static_cast<size_t>(c)].wait(lock, [&] {
            return !channels[static_cast<size_t>(c)].empty() ||
                   channel_done[static_cast<size_t>(c)];
          });
          if (channels[static_cast<size_t>(c)].empty()) break;
          f = std::move(channels[static_cast<size_t>(c)].front());
          channels[static_cast<size_t>(c)].pop_front();
        }
        const util::StatusOr<serve::RecommendResponse> r = f.future.get();
        const uint64_t done_us = obs::NowMicros();
        ++mine.offered_by_class[static_cast<int>(f.priority)];
        if (r.ok()) {
          ++mine.answered;
          if (r.value().degraded) ++mine.degraded;
          if (r.value().brownout != serve::BrownoutLevel::kNone) {
            ++mine.browned_out;
          }
          if (r.value().partial) {
            ++mine.partial;
          } else {
            const uint64_t e2e =
                done_us > f.submit_us ? done_us - f.submit_us : 0;
            if (e2e <= f.budget_us) {
              ++mine.goodput;
              mine.good_latencies.push_back(e2e);
            }
          }
        } else if (r.status().code() ==
                   util::StatusCode::kResourceExhausted) {
          ++mine.shed;
          ++mine.shed_by_class[static_cast<int>(f.priority)];
        } else if (r.status().code() ==
                   util::StatusCode::kDeadlineExceeded) {
          ++mine.expired;
        } else {
          ++mine.unstructured;
        }
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  for (std::thread& t : harvesters) t.join();

  OverloadPass out;
  out.name = name;
  out.adaptive = adaptive;
  out.duration_s = static_cast<double>(obs::NowMicros() - pass_t0) * 1e-6;
  std::vector<uint64_t> good;
  for (const ClientTally& t : tallies) {
    for (int p = 0; p < serve::kNumPriorities; ++p) {
      out.offered_by_class[p] += t.offered_by_class[p];
      out.shed_by_class[p] += t.shed_by_class[p];
      out.offered += t.offered_by_class[p];
    }
    out.answered += t.answered;
    out.partial += t.partial;
    out.degraded += t.degraded;
    out.browned_out += t.browned_out;
    out.shed += t.shed;
    out.expired += t.expired;
    out.unstructured += t.unstructured;
    out.goodput += t.goodput;
    good.insert(good.end(), t.good_latencies.begin(), t.good_latencies.end());
  }
  out.goodput_per_sec = out.duration_s > 0.0
                            ? static_cast<double>(out.goodput) / out.duration_s
                            : 0.0;
  out.p50_us = Percentile(&good, 0.50);
  out.p99_us = Percentile(&good, 0.99);
  const serve::OverloadState state = service.overload_state();
  out.final_limit = state.limit;
  out.brownout_transitions = state.brownout_transitions;
  return out;
}

double ShedRate(const OverloadPass& p, serve::Priority cls) {
  const int64_t offered = p.offered_by_class[static_cast<int>(cls)];
  if (offered <= 0) return 0.0;
  return static_cast<double>(p.shed_by_class[static_cast<int>(cls)]) /
         static_cast<double>(offered);
}

void PrintPass(const OverloadPass& p, uint64_t budget_us) {
  std::printf(
      "%-8s  offered %ld over %.2fs  budget %luus\n"
      "          answered %ld (partial %ld, degraded %ld, browned-out %ld), "
      "shed %ld, expired %ld, unstructured %ld\n"
      "          goodput %ld (%.0f/s)  p50 %7.0fus  p99 %7.0fus\n"
      "          shed rate interactive %.3f  batch %.3f  background %.3f\n"
      "          final limit %ld, brownout transitions %ld\n",
      p.name.c_str(), static_cast<long>(p.offered), p.duration_s,
      static_cast<unsigned long>(budget_us), static_cast<long>(p.answered),
      static_cast<long>(p.partial), static_cast<long>(p.degraded),
      static_cast<long>(p.browned_out), static_cast<long>(p.shed),
      static_cast<long>(p.expired), static_cast<long>(p.unstructured),
      static_cast<long>(p.goodput), p.goodput_per_sec, p.p50_us, p.p99_us,
      ShedRate(p, serve::Priority::kInteractive),
      ShedRate(p, serve::Priority::kBatch),
      ShedRate(p, serve::Priority::kBackground),
      static_cast<long>(p.final_limit),
      static_cast<long>(p.brownout_transitions));
}

void WritePassJson(FILE* out, const OverloadPass& p, bool last) {
  std::fprintf(
      out,
      "    {\"pass\": \"%s\", \"adaptive\": %s, \"offered\": %ld, "
      "\"duration_s\": %.3f, \"answered\": %ld, \"partial\": %ld, "
      "\"degraded\": %ld, \"browned_out\": %ld, \"shed\": %ld, "
      "\"expired\": %ld, \"unstructured\": %ld, \"goodput\": %ld, "
      "\"goodput_per_sec\": %.1f, \"p50_us\": %.1f, \"p99_us\": %.1f, "
      "\"shed_rate_interactive\": %.4f, \"shed_rate_batch\": %.4f, "
      "\"shed_rate_background\": %.4f, \"final_limit\": %ld, "
      "\"brownout_transitions\": %ld}%s\n",
      p.name.c_str(), p.adaptive ? "true" : "false",
      static_cast<long>(p.offered), p.duration_s,
      static_cast<long>(p.answered), static_cast<long>(p.partial),
      static_cast<long>(p.degraded), static_cast<long>(p.browned_out),
      static_cast<long>(p.shed), static_cast<long>(p.expired),
      static_cast<long>(p.unstructured), static_cast<long>(p.goodput),
      p.goodput_per_sec, p.p50_us, p.p99_us,
      ShedRate(p, serve::Priority::kInteractive),
      ShedRate(p, serve::Priority::kBatch),
      ShedRate(p, serve::Priority::kBackground),
      static_cast<long>(p.final_limit),
      static_cast<long>(p.brownout_transitions), last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  const experiments::Env env = experiments::ParseEnv(argc, argv);
  experiments::PrintBanner("Goodput under sustained overload", env);
  obs::SetEnabled(true);
  util::fault::DisarmAll();

  const double s = env.Scale(0.25, 1.0);
  const int32_t num_users = static_cast<int32_t>(4000 * s);
  const int32_t num_items = static_cast<int32_t>(8000 * s);
  const int64_t dim = 64;

  const train::ServingExport ex =
      bench::StridedExport(num_users, num_items, dim, env.seed);

  const std::string dir =
      std::filesystem::temp_directory_path() / "bench_overload";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const util::Status saved = train::SaveServingExport(
      serve::SnapshotStore::SnapshotPath(dir, 1), ex);
  if (!saved.ok()) {
    std::fprintf(stderr, "snapshot export failed: %s\n",
                 saved.ToString().c_str());
    return 1;
  }
  serve::SnapshotStore store(dir);
  // Index + quantized copies make the ivf and quantized brownout rungs
  // real mode switches rather than silent exact fallbacks.
  serve::ItemIndexOptions index_options;
  index_options.cells = 64;
  store.SetIndexOptions(index_options);
  const util::Status loaded = store.Reload();
  if (!loaded.ok()) {
    std::fprintf(stderr, "snapshot load failed: %s\n",
                 loaded.ToString().c_str());
    return 1;
  }
  std::printf("snapshot: %d users x %d items, dim %ld\n", num_users,
              num_items, static_cast<long>(dim));

  const CapacityResult capacity =
      MeasureCapacity(&store, num_users, env.Epochs(100, 400), env.seed);
  if (capacity.req_per_sec <= 0.0) {
    std::fprintf(stderr, "capacity calibration produced no throughput\n");
    return 1;
  }
  // Budget: generous against the uncontended mean so a well-managed
  // service answers within it easily, but far below what a thrashing
  // 64-wide free-for-all can deliver.
  const uint64_t budget_us = std::max<uint64_t>(
      2'000, static_cast<uint64_t>(capacity.mean_us * 3.0));
  const double offered = 3.0 * capacity.req_per_sec;
  const double duration_s = env.Scale(1.0, 2.5);
  std::printf(
      "capacity %.0f req/s (mean %.0fus closed-loop) -> offering %.0f "
      "req/s for %.1fs, budget %luus\n",
      capacity.req_per_sec, capacity.mean_us, offered, duration_s,
      static_cast<unsigned long>(budget_us));

  std::vector<OverloadPass> passes;
  passes.push_back(RunOverloadPass(&store, "static", /*adaptive=*/false,
                                   num_users, offered, duration_s, budget_us,
                                   env.seed + 1));
  PrintPass(passes.back(), budget_us);
  passes.push_back(RunOverloadPass(&store, "adaptive", /*adaptive=*/true,
                                   num_users, offered, duration_s, budget_us,
                                   env.seed + 2));
  PrintPass(passes.back(), budget_us);
  const OverloadPass& st = passes[0];
  const OverloadPass& ad = passes[1];

  FILE* out = std::fopen("BENCH_overload.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_overload.json\n");
    return 1;
  }
  const double ratio =
      st.goodput_per_sec > 0.0
          ? ad.goodput_per_sec / st.goodput_per_sec
          : (ad.goodput_per_sec > 0.0 ? 1e9 : 0.0);
  std::fprintf(out, "{\n");
  bench::WriteBenchEnvJson(out);
  std::fprintf(out,
               "  \"bench\": \"overload\",\n"
               "  \"num_users\": %d,\n"
               "  \"num_items\": %d,\n"
               "  \"embedding_dim\": %ld,\n"
               "  \"capacity_req_per_sec\": %.1f,\n"
               "  \"offered_req_per_sec\": %.1f,\n"
               "  \"overload_factor\": 3.0,\n"
               "  \"budget_us\": %lu,\n"
               "  \"goodput_ratio_adaptive_vs_static\": %.3f,\n"
               "  \"passes\": [\n",
               num_users, num_items, static_cast<long>(dim),
               capacity.req_per_sec, offered,
               static_cast<unsigned long>(budget_us), ratio);
  for (size_t i = 0; i < passes.size(); ++i) {
    WritePassJson(out, passes[i], i + 1 == passes.size());
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote BENCH_overload.json\n");

  bool ok = true;
  for (const OverloadPass& p : passes) {
    if (p.unstructured > 0) {
      std::printf("acceptance: FAIL (%ld unstructured outcomes in %s pass)\n",
                  static_cast<long>(p.unstructured), p.name.c_str());
      ok = false;
    }
    if (p.answered + p.shed + p.expired != p.offered) {
      std::printf(
          "acceptance: FAIL (%s accounting: answered %ld + shed %ld + "
          "expired %ld != offered %ld)\n",
          p.name.c_str(), static_cast<long>(p.answered),
          static_cast<long>(p.shed), static_cast<long>(p.expired),
          static_cast<long>(p.offered));
      ok = false;
    }
  }
  // Priority protection: strict-priority admission must shed the batch
  // class proportionally harder than interactive. When nothing at all was
  // shed the pass was not actually overloaded — also a failure, since the
  // bench exists to measure behavior at 3x capacity.
  if (ad.shed == 0) {
    std::printf(
        "acceptance: FAIL (adaptive pass shed nothing at 3x capacity)\n");
    ok = false;
  } else {
    const double shed_interactive = ShedRate(ad, serve::Priority::kInteractive);
    const double shed_batch = ShedRate(ad, serve::Priority::kBatch);
    if (!(shed_interactive < shed_batch) &&
        !(shed_interactive == 0.0 && shed_batch == 0.0)) {
      std::printf(
          "acceptance: FAIL (interactive shed rate %.4f not below batch "
          "%.4f)\n",
          shed_interactive, shed_batch);
      ok = false;
    }
  }
  const char* quality_only = std::getenv("LAYERGCN_BENCH_QUALITY_ONLY");
  if (quality_only != nullptr && quality_only[0] == '1') {
    std::printf("goodput gate skipped (LAYERGCN_BENCH_QUALITY_ONLY)\n");
  } else if (ratio < 1.5) {
    std::printf(
        "acceptance: FAIL (adaptive goodput %.0f/s < 1.5x static %.0f/s)\n",
        ad.goodput_per_sec, st.goodput_per_sec);
    ok = false;
  } else {
    std::printf("goodput: adaptive %.0f/s vs static %.0f/s (%.2fx)\n",
                ad.goodput_per_sec, st.goodput_per_sec, ratio);
  }
  std::printf("acceptance: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 2;
}
