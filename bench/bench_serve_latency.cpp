// Benchmark: recommendation serving latency under concurrent load.
//
// Builds a synthetic model snapshot (random embeddings + histories),
// publishes it through a SnapshotStore, and drives a RecommendService from
// several client threads. Two passes:
//
//   clean    no deadlines, no faults — the baseline p50/p99 of the fused
//            scoring path under contention for the shared compute pool
//   faulted  every request carries a deadline budget and each client
//            periodically arms the serve.slow_score fault point — the pass
//            exercises the degradation ladder (partial results, structured
//            DeadlineExceeded, breaker-driven popularity fallback) and
//            must stay crash-free with every response structured
//
// Two further passes cover the quantized serving stack:
//
//   quant    planted-signal quality evaluation (Recall@20 / NDCG@20 per
//            encoding against known ground truth, plus top-20 overlap vs
//            f32) and single-threaded scoring throughput per encoding.
//            Acceptance: int8 reaches >= 2x the f32 per-core throughput at
//            <= 0.1% relative Recall@20 / NDCG@20 loss. Set
//            LAYERGCN_BENCH_QUALITY_ONLY=1 to skip the throughput gate
//            (sanitizer builds distort relative timings).
//   cache    repeated hot-user requests against the score cache: hit rate
//            while the snapshot is stable, and invalidation on hot-swap
//            (a request served right after Reload() must not be cached).
//
// Emits BENCH_serve_latency.json. Acceptance: every request in both passes
// resolves to a structured outcome (exit 2 on any unexpected status), and
// the faulted pass actually hit the ladder (some partial/degraded/deadline
// outcome was observed).

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_env.h"
#include "eval/fused_rank.h"
#include "experiments/env.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "serve/recommend_service.h"
#include "serve/snapshot.h"
#include "tensor/matrix.h"
#include "tensor/quant.h"
#include "train/checkpoint.h"
#include "util/fault_injection.h"
#include "util/rng.h"
#include "util/status.h"

using namespace layergcn;

namespace {

struct PassResult {
  std::string name;
  int client_threads = 0;
  int rank_threads = 0;  // compute-pool width scoring ran at
  int64_t requests = 0;
  int64_t ok_complete = 0;
  int64_t partial = 0;
  int64_t degraded = 0;
  int64_t deadline_errors = 0;
  int64_t other_errors = 0;  // anything outside the structured set
  double p50_us = 0.0;
  double p99_us = 0.0;
  double mean_us = 0.0;
  // Wall-clock throughput of the whole pass, and the same normalized by
  // the compute-pool width — the number the rank-pool sweep watches (ideal
  // scaling keeps per-thread throughput flat as rank_threads grows).
  double req_per_sec = 0.0;
  double per_thread_req_per_sec = 0.0;
  // The same latencies as the registry's serve.latency_us histogram saw
  // them, per-pass via HistogramData::Delta — coarser buckets than the
  // exact client-side sort above, but the series operators actually watch.
  double hist_p50_us = 0.0;
  double hist_p95_us = 0.0;
  double hist_p99_us = 0.0;
};

double Percentile(std::vector<uint64_t>* latencies, double q) {
  if (latencies->empty()) return 0.0;
  std::sort(latencies->begin(), latencies->end());
  const size_t idx = std::min(
      latencies->size() - 1,
      static_cast<size_t>(q * static_cast<double>(latencies->size())));
  return static_cast<double>((*latencies)[idx]);
}

PassResult RunPass(serve::RecommendService* service, const std::string& name,
                   int client_threads, int64_t requests_per_client,
                   int32_t num_users, uint64_t budget_us, int fault_every,
                   uint64_t seed) {
  PassResult out;
  out.name = name;
  out.client_threads = client_threads;
  out.rank_threads = util::parallel::ComputePool()->num_threads();
  const obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();

  const uint64_t pass_t0 = obs::NowMicros();
  std::vector<std::vector<uint64_t>> latencies(
      static_cast<size_t>(client_threads));
  std::vector<PassResult> partials(static_cast<size_t>(client_threads));
  std::vector<std::thread> clients;
  clients.reserve(static_cast<size_t>(client_threads));
  for (int c = 0; c < client_threads; ++c) {
    clients.emplace_back([&, c] {
      util::Rng rng(seed + static_cast<uint64_t>(c) * 7919);
      PassResult& mine = partials[static_cast<size_t>(c)];
      for (int64_t i = 0; i < requests_per_client; ++i) {
        if (fault_every > 0 && i % fault_every == 0) {
          util::fault::Arm("serve.slow_score");
        }
        serve::RecommendRequest req;
        req.user_id = static_cast<int32_t>(
            rng.NextBounded(static_cast<uint64_t>(num_users)));
        req.k = 20;
        req.budget_us = budget_us;
        const uint64_t t0 = obs::NowMicros();
        const util::StatusOr<serve::RecommendResponse> r =
            service->Recommend(req);
        latencies[static_cast<size_t>(c)].push_back(obs::NowMicros() - t0);
        ++mine.requests;
        if (r.ok()) {
          if (r.value().degraded) {
            ++mine.degraded;
          } else if (r.value().partial) {
            ++mine.partial;
          } else {
            ++mine.ok_complete;
          }
        } else if (r.status().code() == util::StatusCode::kDeadlineExceeded) {
          ++mine.deadline_errors;
        } else {
          ++mine.other_errors;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const double pass_s =
      static_cast<double>(obs::NowMicros() - pass_t0) * 1e-6;
  util::fault::DisarmAll();

  std::vector<uint64_t> all;
  for (const auto& l : latencies) all.insert(all.end(), l.begin(), l.end());
  for (const PassResult& p : partials) {
    out.requests += p.requests;
    out.ok_complete += p.ok_complete;
    out.partial += p.partial;
    out.degraded += p.degraded;
    out.deadline_errors += p.deadline_errors;
    out.other_errors += p.other_errors;
  }
  uint64_t sum = 0;
  for (uint64_t v : all) sum += v;
  out.mean_us =
      all.empty() ? 0.0
                  : static_cast<double>(sum) / static_cast<double>(all.size());
  out.p50_us = Percentile(&all, 0.50);
  out.p99_us = Percentile(&all, 0.99);
  out.req_per_sec =
      pass_s > 0.0 ? static_cast<double>(out.requests) / pass_s : 0.0;
  out.per_thread_req_per_sec =
      out.rank_threads > 0 ? out.req_per_sec / out.rank_threads : 0.0;

  const obs::MetricsSnapshot after = obs::MetricsRegistry::Global().Snapshot();
  const auto it = after.histograms.find("serve.latency_us");
  if (it != after.histograms.end()) {
    obs::HistogramData pass = it->second;
    const auto base = before.histograms.find("serve.latency_us");
    if (base != before.histograms.end()) pass = pass.Delta(base->second);
    out.hist_p50_us = pass.Quantile(0.50);
    out.hist_p95_us = pass.Quantile(0.95);
    out.hist_p99_us = pass.Quantile(0.99);
  }
  return out;
}

void PrintPass(const PassResult& r) {
  std::printf(
      "%-8s  %ld req x %d clients  p50 %7.0fus  p99 %7.0fus  mean %7.0fus\n"
      "          complete %ld, partial %ld, degraded %ld, deadline %ld, "
      "other %ld\n"
      "          registry histogram p50 %7.0fus  p95 %7.0fus  p99 %7.0fus\n"
      "          %.0f req/s at %d rank threads (%.0f req/s/thread)\n",
      r.name.c_str(), static_cast<long>(r.requests), r.client_threads,
      r.p50_us, r.p99_us, r.mean_us, static_cast<long>(r.ok_complete),
      static_cast<long>(r.partial), static_cast<long>(r.degraded),
      static_cast<long>(r.deadline_errors), static_cast<long>(r.other_errors),
      r.hist_p50_us, r.hist_p95_us, r.hist_p99_us, r.req_per_sec,
      r.rank_threads, r.per_thread_req_per_sec);
}

void WritePassJson(FILE* out, const PassResult& r, bool last) {
  std::fprintf(out,
               "    {\"pass\": \"%s\", \"requests\": %ld, "
               "\"client_threads\": %d, \"rank_threads\": %d, "
               "\"p50_us\": %.1f, \"p99_us\": %.1f, "
               "\"mean_us\": %.1f, \"hist_p50_us\": %.1f, "
               "\"hist_p95_us\": %.1f, \"hist_p99_us\": %.1f, "
               "\"req_per_sec\": %.1f, "
               "\"per_thread_req_per_sec\": %.1f, "
               "\"complete\": %ld, \"partial\": %ld, "
               "\"degraded\": %ld, \"deadline_errors\": %ld, "
               "\"other_errors\": %ld}%s\n",
               r.name.c_str(), static_cast<long>(r.requests),
               r.client_threads, r.rank_threads, r.p50_us, r.p99_us,
               r.mean_us, r.hist_p50_us, r.hist_p95_us, r.hist_p99_us,
               r.req_per_sec, r.per_thread_req_per_sec,
               static_cast<long>(r.ok_complete), static_cast<long>(r.partial),
               static_cast<long>(r.degraded),
               static_cast<long>(r.deadline_errors),
               static_cast<long>(r.other_errors), last ? "" : ",");
}

// --- Quantization pass ------------------------------------------------

struct EncodingResult {
  std::string name;
  double recall20 = 0.0;
  double ndcg20 = 0.0;
  double overlap_f32 = 0.0;      // mean |top20 ∩ f32 top20| / 20
  double scores_per_sec = 0.0;   // single-thread user·item scores per sec
  double speedup_vs_f32 = 0.0;
};

// Binary-relevance Recall@K / NDCG@K of `ranked` against the planted truth
// set [truth_lo, truth_lo + truth_n).
void PlantedMetrics(const std::vector<int32_t>& ranked, int32_t truth_lo,
                    int32_t truth_n, double* recall, double* ndcg) {
  double hits = 0.0, dcg = 0.0, idcg = 0.0;
  for (size_t pos = 0; pos < ranked.size(); ++pos) {
    if (ranked[pos] >= truth_lo && ranked[pos] < truth_lo + truth_n) {
      hits += 1.0;
      dcg += 1.0 / std::log2(static_cast<double>(pos) + 2.0);
    }
  }
  for (int32_t i = 0; i < truth_n; ++i) {
    idcg += 1.0 / std::log2(static_cast<double>(i) + 2.0);
  }
  *recall = hits / static_cast<double>(truth_n);
  *ndcg = dcg / idcg;
}

double MeanOverlap(const std::vector<std::vector<int32_t>>& a,
                   const std::vector<std::vector<int32_t>>& b) {
  double total = 0.0;
  for (size_t u = 0; u < a.size(); ++u) {
    std::vector<int32_t> sa = a[u], sb = b[u];
    std::sort(sa.begin(), sa.end());
    std::sort(sb.begin(), sb.end());
    std::vector<int32_t> inter;
    std::set_intersection(sa.begin(), sa.end(), sb.begin(), sb.end(),
                          std::back_inserter(inter));
    total += static_cast<double>(inter.size()) /
             std::max<double>(1.0, static_cast<double>(sa.size()));
  }
  return a.empty() ? 0.0 : total / static_cast<double>(a.size());
}

// Planted-signal quality + single-core throughput per encoding. Users get
// unit directions scaled to norm 2; each user's `planted` items sit along
// the same direction at norm 2.5, so planted scores (~5) clear the random
// tail (<~1) by a margin far wider than any quantization error — ground
// truth is recoverable exactly, and a quality loss from int8/bf16 shows up
// directly in the Recall/NDCG deltas rather than being confounded with
// order-statistic noise near the cutoff.
std::vector<EncodingResult> RunQuantPass(uint64_t seed, bool* f32_parity_ok) {
  const int32_t num_users = 400;
  const int32_t num_items = 2000;
  const int64_t dim = 64;
  const int32_t planted = 4;  // items per user, ids [u*4, u*4+4)
  const int k = 20;

  util::Rng rng(seed);
  tensor::Matrix user_emb(num_users, dim), item_emb(num_items, dim);
  user_emb.UniformInit(&rng, -1.f, 1.f);
  item_emb.UniformInit(&rng, -1.f, 1.f);
  auto normalize = [dim](float* row, float target) {
    float sq = 0.f;
    for (int64_t c = 0; c < dim; ++c) sq += row[c] * row[c];
    const float inv = target / std::sqrt(std::max(sq, 1e-12f));
    for (int64_t c = 0; c < dim; ++c) row[c] *= inv;
  };
  for (int32_t u = 0; u < num_users; ++u) normalize(user_emb.row(u), 2.f);
  for (int32_t i = 0; i < num_items; ++i) normalize(item_emb.row(i), 1.f);
  for (int32_t u = 0; u < num_users; ++u) {
    for (int32_t j = 0; j < planted; ++j) {
      float* row = item_emb.row(u * planted + j);
      const float* urow = user_emb.row(u);
      for (int64_t c = 0; c < dim; ++c) row[c] = 1.25f * urow[c];
    }
  }

  std::vector<int32_t> user_ids(static_cast<size_t>(num_users));
  for (int32_t u = 0; u < num_users; ++u) {
    user_ids[static_cast<size_t>(u)] = u;
  }
  // Per-core throughput: pin the shared compute pool to one worker for the
  // duration of the pass (a dedicated per-call pool would measure thread
  // spawning, not scoring).
  util::ThreadPool single(1);
  util::parallel::ScopedComputePool pinned(&single);
  eval::FusedRankConfig one_thread;  // runs on the pinned pool

  const tensor::Int8Rows user_i8 = tensor::QuantizeInt8PerRow(user_emb);
  const tensor::Int8Panel item_i8 =
      tensor::TransposeToPanel(tensor::QuantizeInt8PerRow(item_emb));
  const tensor::Bf16Rows user_b16 = tensor::ToBf16Rows(user_emb);
  const tensor::Bf16Panel item_b16 =
      tensor::TransposeToPanel(tensor::ToBf16Rows(item_emb));

  // Time min-of-3 sweeps per encoding, issuing one single-user kernel call
  // per request — the exact shape RecommendService::Recommend uses. This
  // is where the precomputed item panels earn their keep: the f32 path
  // re-transposes the item matrix every call, the quantized paths read
  // their snapshot-resident panels directly. Quant structures are built
  // once up front, as a snapshot load would.
  auto timed = [&](auto&& fn, std::vector<std::vector<int32_t>>* ranked,
                   double* scores_per_sec) {
    double best_us = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      ranked->clear();
      const uint64_t t0 = obs::NowMicros();
      for (int32_t u = 0; u < num_users; ++u) {
        std::vector<std::vector<int32_t>> one = fn(u);
        ranked->push_back(std::move(one[0]));
      }
      const double us = static_cast<double>(obs::NowMicros() - t0);
      if (rep == 0 || us < best_us) best_us = us;
    }
    *scores_per_sec = static_cast<double>(num_users) *
                      static_cast<double>(num_items) /
                      (best_us * 1e-6);
  };

  std::vector<std::vector<int32_t>> f32_ranked, i8_ranked, b16_ranked;
  std::vector<EncodingResult> out(3);
  out[0].name = "f32";
  timed([&](int32_t u) {
          return eval::FusedScoreTopK(user_emb, {u}, item_emb, k, nullptr,
                                      one_thread);
        },
        &f32_ranked, &out[0].scores_per_sec);
  out[1].name = "int8";
  timed([&](int32_t u) {
          return eval::ScoreTopK(eval::Int8Scoring{&user_i8, &item_i8}, {u},
                                 nullptr, k, nullptr, one_thread);
        },
        &i8_ranked, &out[1].scores_per_sec);
  out[2].name = "bf16";
  timed([&](int32_t u) {
          return eval::ScoreTopK(eval::Bf16Scoring{&user_b16, &item_b16},
                                 {u}, nullptr, k, nullptr, one_thread);
        },
        &b16_ranked, &out[2].scores_per_sec);

  // The f32 serving kernel must agree bit-for-bit with the offline
  // reference ranking (the Evaluator's scoring order).
  eval::FusedRankConfig reference = one_thread;
  reference.enabled = false;
  *f32_parity_ok = f32_ranked == eval::FusedScoreTopK(user_emb, user_ids,
                                                      item_emb, k, nullptr,
                                                      reference);

  const std::vector<std::vector<int32_t>>* rankings[3] = {
      &f32_ranked, &i8_ranked, &b16_ranked};
  for (int e = 0; e < 3; ++e) {
    double recall_sum = 0.0, ndcg_sum = 0.0;
    for (int32_t u = 0; u < num_users; ++u) {
      double r = 0.0, n = 0.0;
      PlantedMetrics((*rankings[e])[static_cast<size_t>(u)], u * planted,
                     planted, &r, &n);
      recall_sum += r;
      ndcg_sum += n;
    }
    out[static_cast<size_t>(e)].recall20 =
        recall_sum / static_cast<double>(num_users);
    out[static_cast<size_t>(e)].ndcg20 =
        ndcg_sum / static_cast<double>(num_users);
    out[static_cast<size_t>(e)].overlap_f32 =
        MeanOverlap(*rankings[e], f32_ranked);
    out[static_cast<size_t>(e)].speedup_vs_f32 =
        out[0].scores_per_sec > 0.0
            ? out[static_cast<size_t>(e)].scores_per_sec /
                  out[0].scores_per_sec
            : 0.0;
  }
  return out;
}

// --- Score-cache pass -------------------------------------------------

struct CachePassResult {
  int64_t requests = 0;
  int64_t hits = 0;
  double hit_rate = 0.0;
  bool invalidated_on_swap = false;
  bool ok = true;
};

CachePassResult RunCachePass(serve::SnapshotStore* store,
                             const train::ServingExport& ex,
                             const std::string& dir, int32_t num_users) {
  CachePassResult out;
  serve::RecommendServiceOptions opt;
  opt.score_cache_capacity = 256;
  serve::RecommendService service(store, opt);

  const int32_t hot_users = std::min<int32_t>(50, num_users);
  auto round = [&](bool* any_cached, bool* all_ok) {
    for (int32_t u = 0; u < hot_users; ++u) {
      serve::RecommendRequest req;
      req.user_id = u;
      req.k = 20;
      const util::StatusOr<serve::RecommendResponse> r =
          service.Recommend(req);
      ++out.requests;
      if (!r.ok()) {
        *all_ok = false;
        continue;
      }
      if (r.value().cached) {
        ++out.hits;
        if (any_cached != nullptr) *any_cached = true;
      }
    }
  };

  bool all_ok = true;
  round(nullptr, &all_ok);         // cold: every request misses + fills
  bool warm_hit = false;
  for (int i = 0; i < 4; ++i) round(&warm_hit, &all_ok);

  // Hot-swap: publish the same embeddings as a newer version; entries
  // keyed to the old version must never serve again.
  train::ServingExport next = ex;
  next.version = ex.version + 1;
  const util::Status saved = train::SaveServingExport(
      serve::SnapshotStore::SnapshotPath(dir, next.version), next);
  bool post_swap_cached = false;
  if (!saved.ok() || !store->Reload().ok()) {
    all_ok = false;
  } else {
    round(&post_swap_cached, &all_ok);  // must be all fresh
  }

  out.hit_rate = out.requests > 0
                     ? static_cast<double>(out.hits) /
                           static_cast<double>(out.requests)
                     : 0.0;
  out.invalidated_on_swap = !post_swap_cached;
  out.ok = all_ok && warm_hit && out.invalidated_on_swap;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const experiments::Env env = experiments::ParseEnv(argc, argv);
  experiments::PrintBanner("Serving latency under concurrent load", env);
  obs::SetEnabled(true);
  util::fault::DisarmAll();

  const double s = env.Scale(0.25, 1.0);
  const int32_t num_users = static_cast<int32_t>(4000 * s);
  const int32_t num_items = static_cast<int32_t>(8000 * s);
  const int64_t dim = 64;

  // Synthetic snapshot: random embeddings plus strided histories (so the
  // exclusion path does real work).
  train::ServingExport ex;
  ex.version = 1;
  ex.user_emb = tensor::Matrix(num_users, dim);
  ex.item_emb = tensor::Matrix(num_items, dim);
  util::Rng rng(env.seed);
  ex.user_emb.UniformInit(&rng, -0.5f, 0.5f);
  ex.item_emb.UniformInit(&rng, -0.5f, 0.5f);
  ex.user_history.resize(static_cast<size_t>(num_users));
  for (int32_t u = 0; u < num_users; ++u) {
    const int32_t stride = 37 + u % 17;
    for (int32_t i = u % stride; i < num_items; i += stride) {
      ex.user_history[static_cast<size_t>(u)].push_back(i);
    }
  }

  const std::string dir =
      std::filesystem::temp_directory_path() / "bench_serve_latency";
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
  const util::Status loaded = store.Reload();
  if (!loaded.ok()) {
    std::fprintf(stderr, "snapshot load failed: %s\n",
                 loaded.ToString().c_str());
    return 1;
  }
  std::printf("snapshot: %d users x %d items, dim %ld\n", num_users,
              num_items, static_cast<long>(dim));

  serve::RecommendServiceOptions opt;
  opt.breaker.failure_threshold = 8;
  opt.breaker.open_cooldown_us = 20000;
  // The latency passes measure the scoring path; caching is benchmarked by
  // its own pass below.
  opt.score_cache_capacity = 0;
  serve::RecommendService service(&store, opt);

  const int clients = 4;
  const int64_t per_client = env.Epochs(250, 1000);
  std::vector<PassResult> passes;
  passes.push_back(RunPass(&service, "clean", clients, per_client, num_users,
                           /*budget_us=*/0, /*fault_every=*/0, env.seed));
  PrintPass(passes.back());
  passes.push_back(RunPass(&service, "faulted", clients, per_client,
                           num_users, /*budget_us=*/2000, /*fault_every=*/16,
                           env.seed + 1));
  PrintPass(passes.back());
  // Every request stalls past its budget: consecutive deadline failures
  // trip the breaker and the service rides the popularity fallback.
  passes.push_back(RunPass(&service, "storm", clients, per_client / 4 + 1,
                           num_users, /*budget_us=*/1500, /*fault_every=*/1,
                           env.seed + 2));
  PrintPass(passes.back());
  const size_t storm_idx = passes.size() - 1;

  // Rank-pool width sweep: the same clean load with the shared compute
  // pool pinned to 1, 2, and N workers. Per-thread throughput across the
  // sweep shows how request throughput scales with scoring parallelism
  // (rank_threads is recorded in each pass). A fresh service per width:
  // the storm pass leaves the shared service's breaker open, and a sweep
  // riding the popularity fallback would measure nothing.
  std::vector<int> sweep_widths{1, 2};
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  if (hw > 2) sweep_widths.push_back(hw);
  for (const int width : sweep_widths) {
    serve::RecommendService sweep_service(&store, opt);
    util::ThreadPool sweep_pool(width);
    util::parallel::ScopedComputePool pinned(&sweep_pool);
    passes.push_back(RunPass(&sweep_service, "sweep_t" + std::to_string(width),
                             clients, per_client / 2 + 1, num_users,
                             /*budget_us=*/0, /*fault_every=*/0,
                             env.seed + 10 + static_cast<uint64_t>(width)));
    PrintPass(passes.back());
  }

  // Quantized scoring: quality against planted truth, per-core throughput.
  bool f32_parity_ok = false;
  const std::vector<EncodingResult> quant =
      RunQuantPass(env.seed + 3, &f32_parity_ok);
  for (const EncodingResult& e : quant) {
    std::printf(
        "quant %-5s recall@20 %.4f  ndcg@20 %.4f  overlap(f32) %.4f  "
        "%.2fM scores/s  (%.2fx f32)\n",
        e.name.c_str(), e.recall20, e.ndcg20, e.overlap_f32,
        e.scores_per_sec / 1e6, e.speedup_vs_f32);
  }
  std::printf("f32 fused == reference ranking: %s\n",
              f32_parity_ok ? "yes" : "NO");

  // Score cache: hit rate on hot users, invalidation on hot-swap.
  const CachePassResult cache = RunCachePass(&store, ex, dir, num_users);
  std::printf(
      "cache: %ld requests, %ld hits (%.2f), invalidated on hot-swap: %s\n",
      static_cast<long>(cache.requests), static_cast<long>(cache.hits),
      cache.hit_rate, cache.invalidated_on_swap ? "yes" : "NO");

  FILE* out = std::fopen("BENCH_serve_latency.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_serve_latency.json\n");
    return 1;
  }
  std::fprintf(out, "{\n");
  bench::WriteBenchEnvJson(out);
  std::fprintf(out,
               "  \"bench\": \"serve_latency\",\n"
               "  \"num_users\": %d,\n"
               "  \"num_items\": %d,\n"
               "  \"embedding_dim\": %ld,\n"
               "  \"topk\": 20,\n"
               "  \"passes\": [\n",
               num_users, num_items, static_cast<long>(dim));
  for (size_t i = 0; i < passes.size(); ++i) {
    WritePassJson(out, passes[i], i + 1 == passes.size());
  }
  std::fprintf(out, "  ],\n  \"quant\": [\n");
  for (size_t i = 0; i < quant.size(); ++i) {
    const EncodingResult& e = quant[i];
    std::fprintf(out,
                 "    {\"encoding\": \"%s\", \"recall20\": %.6f, "
                 "\"ndcg20\": %.6f, \"overlap_f32\": %.6f, "
                 "\"scores_per_sec\": %.0f, \"speedup_vs_f32\": %.3f}%s\n",
                 e.name.c_str(), e.recall20, e.ndcg20, e.overlap_f32,
                 e.scores_per_sec, e.speedup_vs_f32,
                 i + 1 < quant.size() ? "," : "");
  }
  std::fprintf(out,
               "  ],\n"
               "  \"f32_reference_parity\": %s,\n"
               "  \"score_cache\": {\"requests\": %ld, \"hits\": %ld, "
               "\"hit_rate\": %.4f, \"invalidated_on_swap\": %s}\n"
               "}\n",
               f32_parity_ok ? "true" : "false",
               static_cast<long>(cache.requests),
               static_cast<long>(cache.hits), cache.hit_rate,
               cache.invalidated_on_swap ? "true" : "false");
  std::fclose(out);
  std::printf("wrote BENCH_serve_latency.json\n");

  bool ok = true;
  for (const PassResult& r : passes) {
    if (r.other_errors > 0) {
      std::printf("acceptance: FAIL (%ld unstructured errors in %s pass)\n",
                  static_cast<long>(r.other_errors), r.name.c_str());
      ok = false;
    }
  }
  const PassResult& faulted = passes[storm_idx];
  const bool ladder_hit = faulted.partial + faulted.degraded +
                              faulted.deadline_errors >
                          0;
  if (!ladder_hit) {
    std::printf(
        "acceptance: FAIL (fault pass never exercised the degradation "
        "ladder)\n");
    ok = false;
  }

  // Quantization gates: near-zero metric loss always; >= 2x per-core int8
  // throughput unless LAYERGCN_BENCH_QUALITY_ONLY=1 (sanitizer builds
  // distort relative timings, the quality gates still hold there).
  if (!f32_parity_ok) {
    std::printf("acceptance: FAIL (f32 fused != reference ranking)\n");
    ok = false;
  }
  const double kMaxRelLoss = 0.001;  // <= 0.1% relative
  for (size_t e = 1; e < quant.size(); ++e) {
    const double recall_loss =
        (quant[0].recall20 - quant[e].recall20) /
        std::max(quant[0].recall20, 1e-12);
    const double ndcg_loss = (quant[0].ndcg20 - quant[e].ndcg20) /
                             std::max(quant[0].ndcg20, 1e-12);
    if (recall_loss > kMaxRelLoss || ndcg_loss > kMaxRelLoss) {
      std::printf(
          "acceptance: FAIL (%s quality loss: recall %.5f, ndcg %.5f "
          "relative)\n",
          quant[e].name.c_str(), recall_loss, ndcg_loss);
      ok = false;
    }
  }
  const char* quality_only = std::getenv("LAYERGCN_BENCH_QUALITY_ONLY");
  if (quality_only != nullptr && quality_only[0] == '1') {
    std::printf("throughput gate skipped (LAYERGCN_BENCH_QUALITY_ONLY)\n");
  } else if (quant[1].speedup_vs_f32 < 2.0) {
    std::printf("acceptance: FAIL (int8 speedup %.2fx < 2x f32)\n",
                quant[1].speedup_vs_f32);
    ok = false;
  }
  if (!cache.ok) {
    std::printf(
        "acceptance: FAIL (score cache: warm hits %s, invalidated on swap "
        "%s)\n",
        cache.hits > 0 ? "yes" : "NO",
        cache.invalidated_on_swap ? "yes" : "NO");
    ok = false;
  }
  std::printf("acceptance: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 2;
}
