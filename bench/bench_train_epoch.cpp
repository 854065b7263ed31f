// Benchmark: LayerGCN training epoch wall-clock vs. compute-thread count.
//
// Trains the same model/config/seed at 1, 2, and max threads through the
// deterministic parallel layer (util/parallel.h) and records per-epoch
// wall-clock plus the per-phase breakdown from the observability span
// counters (adjacency resampling, BPR sampling, forward, backward, Adam).
// The widths run in kRounds rounds, the order rotating by one each round,
// so no width always runs first in the process; each width reports its
// median run. Because the parallel layer is bit-deterministic, the epoch
// losses must be identical in every run — the bench verifies that too, and
// fails if any loss differs.
//
// Emits BENCH_train_epoch.json. The scaling acceptance (>= 2x epoch speedup
// of the median epochs at 4+ threads) is only judged when the machine
// actually has 4+ cores; on smaller boxes the numbers are recorded and the
// check is skipped.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_env.h"
#include "core/layergcn.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "experiments/env.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "train/trainer.h"
#include "util/parallel.h"
#include "util/thread_pool.h"

using namespace layergcn;

namespace {

// Rounds over the widths; the order rotates by one each round.
constexpr int kRounds = 3;

struct RunResult {
  int threads = 0;
  double epoch_seconds = 0.0;  // mean wall-clock per epoch
  double graph_seconds = 0.0;  // per-phase means
  double sampler_seconds = 0.0;
  double forward_seconds = 0.0;
  double backward_seconds = 0.0;
  double adam_seconds = 0.0;
  std::vector<double> epoch_losses;
};

double SpanSeconds(const obs::MetricsSnapshot& after,
                   const obs::MetricsSnapshot& before,
                   const std::string& name) {
  return static_cast<double>(
             after.CounterDelta(before, "span." + name + ".sum_us")) *
         1e-6;
}

RunResult TrainAtWidth(const data::Dataset& ds, const train::TrainConfig& cfg,
                       int threads) {
  util::ThreadPool pool(threads);
  util::parallel::ScopedComputePool scope(&pool);

  core::LayerGcn model;
  const obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();
  const train::TrainResult r = train::FitRecommender(&model, ds, cfg);
  const obs::MetricsSnapshot after = obs::MetricsRegistry::Global().Snapshot();

  RunResult out;
  out.threads = threads;
  const double epochs = static_cast<double>(std::max(r.epochs_run, 1));
  out.epoch_seconds = SpanSeconds(after, before, "train.epoch") / epochs;
  out.graph_seconds =
      SpanSeconds(after, before, "train.resample_adjacency") / epochs;
  out.sampler_seconds = SpanSeconds(after, before, "train.sampler") / epochs;
  out.forward_seconds = SpanSeconds(after, before, "train.forward") / epochs;
  out.backward_seconds = SpanSeconds(after, before, "train.backward") / epochs;
  out.adam_seconds = SpanSeconds(after, before, "adam.step") / epochs;
  out.epoch_losses = r.epoch_losses;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const experiments::Env env = experiments::ParseEnv(argc, argv);
  experiments::PrintBanner("Training epoch wall-clock vs. thread count", env);
  obs::SetEnabled(true);

  data::SyntheticConfig cfg;
  cfg.name = "train-epoch-bench";
  const double s = env.Scale(0.25, 1.0);
  cfg.num_users = static_cast<int32_t>(8000 * s);
  cfg.num_items = static_cast<int32_t>(4000 * s);
  cfg.num_interactions = static_cast<int64_t>(200000 * s);
  cfg.num_clusters = 32;
  const data::Dataset ds = data::ChronologicalSplitDataset(
      cfg.name, cfg.num_users, cfg.num_items,
      data::GenerateInteractions(cfg, env.seed));
  std::printf("%s\n", ds.Summary().c_str());

  train::TrainConfig tc;
  tc.embedding_dim = 64;
  tc.num_layers = 3;
  tc.batch_size = 2048;
  tc.max_epochs = env.Epochs(3, 5);
  tc.edge_drop_kind = graph::EdgeDropKind::kDegreeDrop;
  tc.edge_drop_ratio = 0.1;
  tc.eval_every = tc.max_epochs + 1;  // pure training epochs, no eval
  tc.seed = env.seed;

  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const int max_threads = std::max(2, hw);
  std::vector<int> widths{1, 2};
  if (max_threads > 2) widths.push_back(max_threads);

  // by_width[i] holds every run of widths[i].
  std::vector<std::vector<RunResult>> by_width(widths.size());
  for (int round = 0; round < kRounds; ++round) {
    for (size_t j = 0; j < widths.size(); ++j) {
      const size_t i = (j + static_cast<size_t>(round)) % widths.size();
      std::printf("round %d: training %d epochs at %d thread(s)...\n",
                  round + 1, tc.max_epochs, widths[i]);
      by_width[i].push_back(TrainAtWidth(ds, tc, widths[i]));
      const RunResult& r = by_width[i].back();
      std::printf(
          "  epoch %7.3fs  (graph %.3fs, sampler %.3fs, forward %.3fs, "
          "backward %.3fs, adam %.3fs)  final loss %.9g\n",
          r.epoch_seconds, r.graph_seconds, r.sampler_seconds,
          r.forward_seconds, r.backward_seconds, r.adam_seconds,
          r.epoch_losses.empty() ? 0.0 : r.epoch_losses.back());
    }
  }

  // The deterministic parallel layer promises bit-identical training at any
  // width; a loss mismatch is a correctness bug, not a tuning matter.
  bool deterministic = true;
  for (const std::vector<RunResult>& width_runs : by_width) {
    for (const RunResult& r : width_runs) {
      if (r.epoch_losses != by_width.front().front().epoch_losses) {
        deterministic = false;
      }
    }
  }
  // Each width's median run by epoch time.
  std::vector<RunResult> runs;
  for (std::vector<RunResult>& width_runs : by_width) {
    std::sort(width_runs.begin(), width_runs.end(),
              [](const RunResult& a, const RunResult& b) {
                return a.epoch_seconds < b.epoch_seconds;
              });
    runs.push_back(width_runs[width_runs.size() / 2]);
  }
  const double speedup =
      runs.back().epoch_seconds > 0.0
          ? runs.front().epoch_seconds / runs.back().epoch_seconds
          : 0.0;
  std::printf("losses bit-identical across runs: %s\n",
              deterministic ? "yes" : "NO");
  std::printf(
      "median epoch speedup %d -> %d threads over %d rounds: %.2fx "
      "(machine has %d cores)\n",
      widths.front(), widths.back(), kRounds, speedup, hw);

  FILE* out = std::fopen("BENCH_train_epoch.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_train_epoch.json\n");
    return 1;
  }
  std::fprintf(out, "{\n");
  bench::WriteBenchEnvJson(out);
  std::fprintf(out,
               "  \"bench\": \"train_epoch\",\n"
               "  \"num_users\": %d,\n"
               "  \"num_items\": %d,\n"
               "  \"interactions\": %ld,\n"
               "  \"embedding_dim\": %d,\n"
               "  \"num_layers\": %d,\n"
               "  \"epochs\": %d,\n"
               "  \"rounds\": %d,\n"
               "  \"hardware_concurrency\": %d,\n"
               "  \"runs\": [\n",
               ds.num_users, ds.num_items,
               static_cast<long>(ds.num_train()), tc.embedding_dim,
               tc.num_layers, tc.max_epochs, kRounds, hw);
  // One entry per width: its median run, plus every round's epoch time in
  // ascending order.
  for (size_t i = 0; i < runs.size(); ++i) {
    const RunResult& r = runs[i];
    std::fprintf(out,
                 "    {\"threads\": %d, \"epoch_seconds\": %.6f, "
                 "\"graph_seconds\": %.6f, \"sampler_seconds\": %.6f, "
                 "\"forward_seconds\": %.6f, \"backward_seconds\": %.6f, "
                 "\"adam_seconds\": %.6f, \"final_loss\": %.17g, "
                 "\"epoch_seconds_rounds\": [",
                 r.threads, r.epoch_seconds, r.graph_seconds,
                 r.sampler_seconds, r.forward_seconds, r.backward_seconds,
                 r.adam_seconds,
                 r.epoch_losses.empty() ? 0.0 : r.epoch_losses.back());
    for (size_t k = 0; k < by_width[i].size(); ++k) {
      std::fprintf(out, "%s%.6f", k > 0 ? ", " : "",
                   by_width[i][k].epoch_seconds);
    }
    std::fprintf(out, "]}%s\n", i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(out,
               "  ],\n"
               "  \"speedup_max_vs_1\": %.3f,\n"
               "  \"losses_bit_identical\": %s\n"
               "}\n",
               speedup, deterministic ? "true" : "false");
  std::fclose(out);
  std::printf("wrote BENCH_train_epoch.json\n");

  if (!deterministic) {
    std::printf("acceptance: FAIL (losses differ between runs)\n");
    return 2;
  }
  if (hw >= 4) {
    const bool ok = speedup >= 2.0;
    std::printf("acceptance (>=2x median epoch at %d threads): %s\n",
                widths.back(), ok ? "PASS" : "FAIL");
    return ok ? 0 : 2;
  }
  std::printf("acceptance: scaling check skipped (%d core(s) available)\n",
              hw);
  return 0;
}
