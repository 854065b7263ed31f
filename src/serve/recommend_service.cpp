#include "serve/recommend_service.h"

#include <algorithm>
#include <iterator>
#include <memory>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace layergcn::serve {
namespace {

// serve.latency_us histogram bucket upper edges (microseconds).
const std::vector<double>& LatencyBounds() {
  static const std::vector<double>* bounds = new std::vector<double>{
      100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000};
  return *bounds;
}

}  // namespace

RecommendService::RecommendService(SnapshotStore* store)
    : RecommendService(store, RecommendServiceOptions()) {}

namespace {

// LAYERGCN_SLO_* environment overrides win over programmatic options.
ServingStatsOptions WithEnvSlo(ServingStatsOptions stats) {
  stats.slo = obs::SloMonitor::FromEnv(stats.slo);
  return stats;
}

}  // namespace

RecommendService::RecommendService(SnapshotStore* store,
                                   const RecommendServiceOptions& options)
    : store_(store),
      options_(options),
      stats_(WithEnvSlo(options.stats)),
      limiter_(options.overload.limiter),
      brownout_(options.overload.brownout) {
  LAYERGCN_CHECK(store_ != nullptr);
  LAYERGCN_CHECK_GE(options_.max_k, 1);
  LAYERGCN_CHECK_GE(options_.queue_capacity, 1);
}

RecommendService::~RecommendService() {
  // Refuse new arrivals, fail what is still waiting, drain what is
  // executing. Queued promises are resolved outside the lock.
  std::vector<Pending> abandoned;
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutting_down_ = true;
    for (auto& queue : queues_) {
      while (!queue.empty()) {
        abandoned.push_back(std::move(queue.front()));
        queue.pop_front();
        --queued_;
      }
    }
  }
  const uint64_t now_us = obs::NowMicros();
  for (Pending& p : abandoned) {
    ResolveShed(std::move(p), "service shutting down", 0, now_us);
  }
  std::unique_lock<std::mutex> lock(mu_);
  drained_cv_.wait(lock, [this] { return workers_ == 0 && executing_ == 0; });
}

util::Status RecommendService::Validate(const ModelSnapshot& snap,
                                        const RecommendRequest& req) const {
  if (req.user_id < 0 ||
      static_cast<int64_t>(req.user_id) >= snap.num_users()) {
    return util::InvalidArgumentError(
        "user_id " + std::to_string(req.user_id) + " outside [0, " +
        std::to_string(snap.num_users()) + ")");
  }
  if (req.k < 1 || req.k > options_.max_k) {
    return util::InvalidArgumentError("k " + std::to_string(req.k) +
                                      " outside [1, " +
                                      std::to_string(options_.max_k) + "]");
  }
  return util::OkStatus();
}

bool RecommendService::CacheLookup(const ModelSnapshot& snap,
                                   eval::ScoreEncoding encoding,
                                   RetrievalMode retrieval, bool any_mode,
                                   const RecommendRequest& req,
                                   RecommendResponse* resp) {
  std::lock_guard<std::mutex> lock(cache_mu_);
  const auto it = cache_.find(req.user_id);
  // Version + encoding + retrieval-mode keying is the invalidation: an
  // entry computed against a hot-swapped-out snapshot, another encoding,
  // or the other retrieval path never serves. In particular an
  // approximate (ivf) top-K is never handed out as an exact prefix. A
  // cached top-k' answers any k <= k' within its mode — serve the prefix.
  // With `any_mode` (the cache-only rung, where the alternative is the
  // popularity ranking) any complete entry of this snapshot serves, and
  // the response names the entry's own mode.
  if (it == cache_.end() || it->second.snapshot_version != snap.version() ||
      (!any_mode && (it->second.encoding != encoding ||
                     it->second.retrieval != retrieval)) ||
      it->second.k < req.k) {
    OBS_COUNT("serve.score_cache_misses", 1);
    return false;
  }
  CacheEntry& entry = it->second;
  cache_lru_.splice(cache_lru_.begin(), cache_lru_, entry.lru_it);
  const size_t n =
      std::min(entry.items.size(), static_cast<size_t>(req.k));
  resp->items.assign(entry.items.begin(),
                     entry.items.begin() + static_cast<ptrdiff_t>(n));
  resp->cached = true;
  resp->encoding = entry.encoding;
  resp->retrieval = entry.retrieval;
  resp->snapshot_version = snap.version();
  OBS_COUNT("serve.score_cache_hits", 1);
  return true;
}

void RecommendService::CacheInsert(const ModelSnapshot& snap,
                                   eval::ScoreEncoding encoding,
                                   RetrievalMode retrieval,
                                   const RecommendRequest& req,
                                   const RecommendResponse& resp) {
  std::lock_guard<std::mutex> lock(cache_mu_);
  auto it = cache_.find(req.user_id);
  if (it == cache_.end()) {
    while (static_cast<int64_t>(cache_.size()) >=
           options_.score_cache_capacity) {
      cache_.erase(cache_lru_.back());
      cache_lru_.pop_back();
    }
    cache_lru_.push_front(req.user_id);
    it = cache_.emplace(req.user_id, CacheEntry{}).first;
    it->second.lru_it = cache_lru_.begin();
  } else {
    // Keep a same-version same-encoding same-mode entry with a larger k:
    // it already answers this request and more.
    if (it->second.snapshot_version == snap.version() &&
        it->second.encoding == encoding &&
        it->second.retrieval == retrieval && it->second.k >= req.k) {
      cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second.lru_it);
      return;
    }
    cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second.lru_it);
  }
  CacheEntry& entry = it->second;
  entry.snapshot_version = snap.version();
  entry.encoding = encoding;
  entry.retrieval = retrieval;
  entry.k = req.k;
  entry.items = resp.items;
}

std::vector<std::vector<int32_t>> RecommendService::ScoreTopK(
    const ModelSnapshot& snap, const RecommendRequest& req,
    eval::ScoreEncoding encoding, RetrievalMode retrieval,
    eval::RankDeadline* deadline, std::vector<std::vector<float>>* scores,
    int64_t* candidates_scored) {
  const std::vector<int32_t>* candidates = nullptr;
  *candidates_scored = snap.num_items();
  if (retrieval == RetrievalMode::kIvf) {
    // Stage one: probe. Centroids are scored against the f32 user row
    // (always present, whatever encoding re-ranks) — the probe picks
    // cells, it never contributes to item scores, so mixing precisions
    // here cannot perturb the ranking.
    const ItemIndex& index = snap.item_index();
    // Per-worker scratch: requests run one per pool worker, so these
    // never see concurrent use and the hot path stays allocation-free.
    thread_local std::vector<int32_t> probe_cells;
    thread_local std::vector<int32_t> ivf_candidates;
    index.TopCells(snap.user_emb().row(req.user_id), options_.nprobe,
                   &probe_cells);
    index.GatherCandidates(probe_cells, &ivf_candidates);
    OBS_COUNT("serve.retrieval.requests", 1);
    OBS_COUNT("serve.retrieval.cells_probed",
              static_cast<int64_t>(probe_cells.size()));
    OBS_COUNT("serve.retrieval.candidates_scored",
              static_cast<int64_t>(ivf_candidates.size()));
    candidates = &ivf_candidates;
    *candidates_scored = static_cast<int64_t>(ivf_candidates.size());
  }
  // Stage two (or the whole exact scan): the one rank traversal, fed the
  // candidate list when there is one — same per-pair scores and (score
  // desc, id asc) order either way.
  return eval::ScoreTopK(snap.scoring(encoding), {req.user_id}, candidates,
                         req.k, &snap.user_history(), options_.rank, deadline,
                         scores);
}

RecommendResponse RecommendService::ServeDegraded(
    const ModelSnapshot& snap, const RecommendRequest& req) const {
  OBS_COUNT("serve.degraded", 1);
  RecommendResponse resp;
  resp.degraded = true;
  resp.snapshot_version = snap.version();
  const std::vector<int32_t>& hist =
      snap.user_history()[static_cast<size_t>(req.user_id)];
  resp.items.reserve(static_cast<size_t>(req.k));
  for (int32_t item : snap.popular_items()) {
    if (std::binary_search(hist.begin(), hist.end(), item)) continue;
    resp.items.push_back(ScoredItem{
        item,
        static_cast<float>(snap.item_counts()[static_cast<size_t>(item)])});
    if (resp.items.size() == static_cast<size_t>(req.k)) break;
  }
  return resp;
}

util::StatusOr<RecommendResponse> RecommendService::Recommend(
    const RecommendRequest& req) {
  // Self-recording convenience path: the local context still feeds the
  // SLO/percentile stats, it just has no driver-side serialize stage.
  RequestContext ctx;
  util::StatusOr<RecommendResponse> out = Recommend(req, &ctx);
  ctx.done_us = obs::NowMicros();
  stats_.Record(ctx, ctx.done_us);
  return out;
}

util::StatusOr<RecommendResponse> RecommendService::Recommend(
    const RecommendRequest& req, RequestContext* ctx) {
  LAYERGCN_CHECK(ctx != nullptr);
  obs::TraceRequestScope request_scope(ctx->id);
  OBS_SPAN("serve.request");
  OBS_COUNT("serve.requests", 1);
  const uint64_t start_us = obs::NowMicros();
  ctx->user = req.user_id;
  ctx->k = req.k;
  ctx->budget_us = req.budget_us;
  ctx->start_us = start_us;
  if (ctx->submit_us != 0 && start_us > ctx->submit_us) {
    ctx->stage(Stage::kAdmission) = start_us - ctx->submit_us;
  }

  const auto fail = [ctx](util::Status status) {
    ctx->code = status.code();
    ctx->error = status.message();
    ctx->finish_us = obs::NowMicros();
    return status;
  };

  const std::shared_ptr<const ModelSnapshot> snap = store_->current();
  if (snap == nullptr) {
    OBS_COUNT("serve.validation_errors", 1);
    ctx->stage(Stage::kSnapshot) = obs::NowMicros() - start_us;
    return fail(util::FailedPreconditionError("no snapshot loaded"));
  }
  ctx->snapshot_version = snap->version();
  const util::Status valid = Validate(*snap, req);
  ctx->stage(Stage::kSnapshot) = obs::NowMicros() - start_us;
  if (!valid.ok()) {
    OBS_COUNT("serve.validation_errors", 1);
    return fail(valid);
  }

  // Brownout rung for this request: the SLO burn state steps the ladder
  // (with hysteresis inside the controller) and a deadline trip overrides
  // it; the rung then forces cheaper serving modes below. The SLO monitor
  // locks, so it is read only when it drives the ladder. Explicit exact
  // requests are exempt — they are the bit-exact reference parity tests
  // and recall sampling rely on.
  const BrownoutLevel brownout =
      options_.overload.brownout.enabled
          ? brownout_.OnSloState(stats_.slo().state(), start_us)
          : brownout_.Resolve(start_us);
  ctx->brownout = brownout;
  const bool brownout_applies = !req.exact;
  const bool cache_only =
      brownout_applies && brownout >= BrownoutLevel::kCacheOnly;

  // Resolve the encoding this request actually scores with: a requested
  // quantized copy the snapshot does not carry degrades to the f32
  // reference for this request only. A brownout rung at or past
  // kQuantized forces the cheapest quantized copy the snapshot carries.
  eval::ScoreEncoding encoding = options_.encoding;
  if (brownout_applies && brownout >= BrownoutLevel::kQuantized) {
    if (snap->has_int8()) {
      encoding = eval::ScoreEncoding::kInt8;
    } else if (snap->has_bf16()) {
      encoding = eval::ScoreEncoding::kBf16;
    }
  }
  if ((encoding == eval::ScoreEncoding::kInt8 && !snap->has_int8()) ||
      (encoding == eval::ScoreEncoding::kBf16 && !snap->has_bf16())) {
    OBS_COUNT("serve.encoding_fallbacks", 1);
    encoding = eval::ScoreEncoding::kF32;
  }
  // Resolve the retrieval path: a per-request exact override always
  // wins, a brownout rung at or past kIvf forces the index when one
  // exists, and an ivf default degrades to exact for this request when
  // the snapshot carries no index (build failed or never requested).
  RetrievalMode retrieval = options_.retrieval;
  if (req.exact) {
    retrieval = RetrievalMode::kExact;
  } else if (brownout >= BrownoutLevel::kIvf && snap->has_index()) {
    retrieval = RetrievalMode::kIvf;
  } else if (retrieval == RetrievalMode::kIvf && !snap->has_index()) {
    OBS_COUNT("serve.retrieval.exact_fallbacks", 1);
    retrieval = RetrievalMode::kExact;
  }

  RecommendResponse resp;
  bool served = false;
  if (options_.score_cache_capacity > 0) {
    const uint64_t cache_t0 = obs::NowMicros();
    served = CacheLookup(*snap, encoding, retrieval, cache_only, req, &resp);
    ctx->stage(Stage::kCache) = obs::NowMicros() - cache_t0;
  }

  // Deepest rung: no kernel at all. A complete cached answer of any mode
  // serves above; a miss serves the popularity ranking — still an answer,
  // at the cost of personalization, never of availability.
  if (!served && cache_only) {
    OBS_COUNT("serve.overload.cache_only_served", 1);
    const uint64_t score_t0 = obs::NowMicros();
    resp = ServeDegraded(*snap, req);
    ctx->stage(Stage::kScore) = obs::NowMicros() - score_t0;
    served = true;
  }

  if (!served) {
    const uint64_t score_t0 = obs::NowMicros();
    eval::RankDeadline deadline;
    if (req.budget_us > 0) deadline.deadline_us = start_us + req.budget_us;
    std::vector<std::vector<float>> scores;
    eval::RankDeadline* dl = req.budget_us > 0 ? &deadline : nullptr;
    int64_t candidates_scored = 0;
    std::vector<std::vector<int32_t>> ranked = ScoreTopK(
        *snap, req, encoding, retrieval, dl, &scores, &candidates_scored);
    ctx->stage(Stage::kScore) = obs::NowMicros() - score_t0;

    // Only model-scored outcomes feed the deadline trip: cache hits and
    // popularity answers say nothing about the scoring path's health.
    const bool expired = deadline.expired.load(std::memory_order_relaxed);
    brownout_.OnScored(expired, obs::NowMicros());
    if (expired) {
      if (ranked[0].empty()) {
        OBS_COUNT("serve.deadline_errors", 1);
        OBS_OBSERVE("serve.latency_us", LatencyBounds(),
                    obs::NowMicros() - start_us);
        return fail(util::DeadlineExceededError(
            "budget " + std::to_string(req.budget_us) +
            "us spent before any item tile was scored"));
      }
      OBS_COUNT("serve.deadline_partial", 1);
      resp.partial = true;
    }
    resp.encoding = encoding;
    resp.retrieval = retrieval;
    resp.candidates = candidates_scored;
    resp.snapshot_version = snap->version();
    resp.items.resize(ranked[0].size());
    for (size_t i = 0; i < ranked[0].size(); ++i) {
      resp.items[i] = ScoredItem{ranked[0][i], scores[0][i]};
    }
    if (options_.score_cache_capacity > 0 && !resp.partial) {
      CacheInsert(*snap, encoding, retrieval, req, resp);
    }

    // Live recall monitor: every Nth complete index-served response is
    // re-ranked exactly (no deadline — the sample must be complete) and
    // the top-K overlap published as a gauge. One extra full scan per N
    // requests, on the request's own thread.
    if (retrieval == RetrievalMode::kIvf && !resp.partial &&
        options_.recall_sample_every > 0 &&
        ivf_served_.fetch_add(1, std::memory_order_relaxed) %
                options_.recall_sample_every ==
            0) {
      std::vector<std::vector<float>> exact_scores;
      int64_t exact_candidates = 0;
      const std::vector<std::vector<int32_t>> exact_ranked =
          ScoreTopK(*snap, req, encoding, RetrievalMode::kExact, nullptr,
                    &exact_scores, &exact_candidates);
      std::vector<int32_t> a = ranked[0], b = exact_ranked[0];
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      std::vector<int32_t> both;
      std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                            std::back_inserter(both));
      const double overlap =
          b.empty() ? 1.0
                    : static_cast<double>(both.size()) /
                          static_cast<double>(b.size());
      OBS_COUNT("serve.retrieval.recall_samples", 1);
      OBS_GAUGE("serve.retrieval.recall_sample", overlap);
    }
  }

  resp.brownout = brownout;
  ctx->cached = resp.cached;
  ctx->partial = resp.partial;
  ctx->degraded = resp.degraded;
  ctx->encoding = resp.encoding;
  ctx->retrieval = resp.retrieval;
  ctx->candidates = resp.candidates;
  resp.latency_us = obs::NowMicros() - start_us;
  OBS_OBSERVE("serve.latency_us", LatencyBounds(), resp.latency_us);
  ctx->finish_us = obs::NowMicros();
  return resp;
}

std::future<util::StatusOr<RecommendResponse>> RecommendService::Submit(
    const RecommendRequest& req) {
  return Submit(req, nullptr);
}

namespace {

// Per-class shed counters use fixed literals so the OBS_COUNT static
// caching applies (the shed path is exactly where the service is melting).
void CountShed(Priority priority) {
  OBS_COUNT("serve.shed", 1);
  switch (priority) {
    case Priority::kInteractive:
      OBS_COUNT("serve.shed.interactive", 1);
      break;
    case Priority::kBatch:
      OBS_COUNT("serve.shed.batch", 1);
      break;
    case Priority::kBackground:
      OBS_COUNT("serve.shed.background", 1);
      break;
  }
}

}  // namespace

int64_t RecommendService::concurrency_limit() const {
  if (options_.overload.adaptive) return limiter_.limit();
  if (options_.overload.fixed_limit > 0) return options_.overload.fixed_limit;
  return options_.queue_capacity;
}

uint64_t RecommendService::RetryAfterMsLocked() const {
  // Rough drain-time estimate: backlog ahead of a retry, each costing the
  // smoothed completion latency, spread over the concurrency limit.
  const uint64_t ewma_us =
      std::max<uint64_t>(ewma_latency_us_.load(std::memory_order_relaxed),
                         1000);
  const int64_t backlog = queued_ + executing_;
  const int64_t limit = std::max<int64_t>(concurrency_limit(), 1);
  const uint64_t estimate_ms =
      (static_cast<uint64_t>(backlog) * ewma_us) /
      (static_cast<uint64_t>(limit) * 1000);
  return std::clamp<uint64_t>(estimate_ms, 1, 5000);
}

void RecommendService::ResolveShed(Pending&& p, const std::string& reason,
                                   uint64_t retry_after_ms,
                                   uint64_t now_us) {
  // Every shed response carries a backoff hint, even shutdown sheds.
  retry_after_ms = std::max<uint64_t>(retry_after_ms, 1);
  CountShed(p.req.priority);
  util::Status status = util::ResourceExhaustedError(
      reason + " (retry_after_ms=" + std::to_string(retry_after_ms) + ")");
  if (p.ctx != nullptr) {
    // Caller records when the future resolves.
    p.ctx->shed = true;
    p.ctx->retry_after_ms = retry_after_ms;
    p.ctx->code = status.code();
    p.ctx->error = status.message();
    p.ctx->finish_us = now_us;
  } else {
    RequestContext shed_ctx;
    shed_ctx.user = p.req.user_id;
    shed_ctx.k = p.req.k;
    shed_ctx.budget_us = p.req.budget_us;
    shed_ctx.priority = p.req.priority;
    shed_ctx.shed = true;
    shed_ctx.retry_after_ms = retry_after_ms;
    shed_ctx.code = status.code();
    shed_ctx.error = status.message();
    shed_ctx.submit_us = p.submit_us;
    shed_ctx.finish_us = now_us;
    shed_ctx.done_us = now_us;
    stats_.Record(shed_ctx, now_us);
  }
  p.promise->set_value(std::move(status));
}

void RecommendService::ResolveExpired(Pending&& p, uint64_t now_us) {
  OBS_COUNT("serve.expired_in_queue", 1);
  if (options_.overload.adaptive) limiter_.OnExpired(now_us);
  util::Status status = util::DeadlineExceededError(
      "budget " + std::to_string(p.req.budget_us) +
      "us expired while queued; never scored");
  if (p.ctx != nullptr) {
    p.ctx->expired = true;
    p.ctx->code = status.code();
    p.ctx->error = status.message();
    if (now_us > p.submit_us) {
      p.ctx->stage(Stage::kAdmission) = now_us - p.submit_us;
    }
    p.ctx->finish_us = now_us;
  } else {
    RequestContext exp_ctx;
    exp_ctx.user = p.req.user_id;
    exp_ctx.k = p.req.k;
    exp_ctx.budget_us = p.req.budget_us;
    exp_ctx.priority = p.req.priority;
    exp_ctx.expired = true;
    exp_ctx.code = status.code();
    exp_ctx.error = status.message();
    exp_ctx.submit_us = p.submit_us;
    if (now_us > p.submit_us) {
      exp_ctx.stage(Stage::kAdmission) = now_us - p.submit_us;
    }
    exp_ctx.finish_us = now_us;
    exp_ctx.done_us = now_us;
    stats_.Record(exp_ctx, now_us);
  }
  p.promise->set_value(std::move(status));
}

bool RecommendService::PopNextLocked(Pending* out) {
  for (auto& queue : queues_) {
    if (queue.empty()) continue;
    *out = std::move(queue.front());
    queue.pop_front();
    --queued_;
    ++executing_;
    return true;
  }
  return false;
}

void RecommendService::DispatchLocked() {
  // One worker can cover one request at a time, so spawn until either the
  // limit is reached or there are as many workers as backlog. A worker
  // that races to an empty queue just exits — overspawn is harmless,
  // underspawn would strand queued requests.
  const int64_t limit = concurrency_limit();
  while (workers_ < limit && workers_ < queued_ + executing_) {
    ++workers_;
    util::parallel::ComputePool()->Submit([this] { WorkerLoop(); });
  }
}

void RecommendService::WorkerLoop() {
  for (;;) {
    Pending p;
    {
      std::lock_guard<std::mutex> lock(mu_);
      // The limit may have shrunk while this worker was scoring: workers
      // beyond it retire instead of picking up more work.
      if (workers_ > concurrency_limit() || !PopNextLocked(&p)) {
        --workers_;
        drained_cv_.notify_all();
        return;
      }
    }
    const uint64_t dequeue_us = obs::NowMicros();
    if (p.req.budget_us > 0 && dequeue_us >= p.submit_us + p.req.budget_us) {
      // Expired while queued: shed at dequeue, never scored — under
      // overload, CPU goes to requests someone is still waiting for.
      ResolveExpired(std::move(p), dequeue_us);
    } else {
      util::StatusOr<RecommendResponse> result =
          p.ctx != nullptr ? Recommend(p.req, p.ctx) : Recommend(p.req);
      const uint64_t end_us = obs::NowMicros();
      const uint64_t latency = end_us > p.submit_us ? end_us - p.submit_us : 0;
      uint64_t prev = ewma_latency_us_.load(std::memory_order_relaxed);
      ewma_latency_us_.store(
          prev == 0 ? latency : prev - prev / 8 + latency / 8,
          std::memory_order_relaxed);
      if (options_.overload.adaptive) {
        const bool congested =
            result.ok()
                ? result.value().partial
                : result.status().code() ==
                      util::StatusCode::kDeadlineExceeded;
        limiter_.OnComplete(end_us, latency, congested);
      }
      p.promise->set_value(std::move(result));
    }
    std::lock_guard<std::mutex> lock(mu_);
    --executing_;
    drained_cv_.notify_all();
  }
}

std::future<util::StatusOr<RecommendResponse>> RecommendService::Submit(
    const RecommendRequest& req, RequestContext* ctx) {
  const uint64_t submit_us = obs::NowMicros();
  if (ctx != nullptr) {
    ctx->submit_us = submit_us;
    ctx->user = req.user_id;
    ctx->k = req.k;
    ctx->budget_us = req.budget_us;
    ctx->priority = req.priority;
  }
  Pending incoming;
  incoming.req = req;
  incoming.ctx = ctx;
  incoming.promise =
      std::make_shared<std::promise<util::StatusOr<RecommendResponse>>>();
  incoming.submit_us = submit_us;
  std::future<util::StatusOr<RecommendResponse>> future =
      incoming.promise->get_future();

  bool shed_incoming = false;
  std::string shed_reason;
  uint64_t retry_after_ms = 0;
  Pending victim;
  bool have_victim = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutting_down_) {
      shed_incoming = true;
      shed_reason = "service shutting down";
    } else if (queued_ + executing_ >= options_.queue_capacity) {
      retry_after_ms = RetryAfterMsLocked();
      // Strict priority at the bound: evict the newest queued request of
      // the lowest class strictly below the arrival; when nothing queued
      // is lower, the arrival itself is shed.
      int victim_class = -1;
      for (int cls = kNumPriorities - 1;
           cls > static_cast<int>(req.priority); --cls) {
        if (!queues_[cls].empty()) {
          victim_class = cls;
          break;
        }
      }
      if (victim_class >= 0) {
        victim = std::move(queues_[victim_class].back());
        queues_[victim_class].pop_back();
        --queued_;
        have_victim = true;
        queues_[static_cast<int>(req.priority)].push_back(
            std::move(incoming));
        ++queued_;
        DispatchLocked();
      } else {
        shed_incoming = true;
        shed_reason = "admission queue full (" +
                      std::to_string(options_.queue_capacity) +
                      " in flight)";
      }
    } else {
      queues_[static_cast<int>(req.priority)].push_back(std::move(incoming));
      ++queued_;
      DispatchLocked();
    }
  }
  const uint64_t now_us = obs::NowMicros();
  if (shed_incoming) {
    ResolveShed(std::move(incoming), shed_reason, retry_after_ms, now_us);
  }
  if (have_victim) {
    ResolveShed(std::move(victim),
                "evicted by " + std::string(PriorityName(req.priority)) +
                    "-class arrival at capacity",
                retry_after_ms, now_us);
  }
  return future;
}

int64_t RecommendService::in_flight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queued_ + executing_;
}

OverloadState RecommendService::overload_state(uint64_t now_us) const {
  OverloadState state;
  state.adaptive = options_.overload.adaptive;
  state.brownout = brownout_.LevelAt(now_us);
  state.brownout_transitions = brownout_.transitions();
  state.smoothed_latency_us =
      ewma_latency_us_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  state.limit = concurrency_limit();
  state.executing = executing_;
  for (int cls = 0; cls < kNumPriorities; ++cls) {
    state.queued[cls] = static_cast<int64_t>(queues_[cls].size());
  }
  return state;
}

}  // namespace layergcn::serve
