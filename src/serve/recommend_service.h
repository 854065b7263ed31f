// Hardened top-K recommendation serving on top of the rank traversal.
//
// A request names a user and a K; the response is the model's top-K items
// (training interactions excluded), scored against the current
// ModelSnapshot by one eval::ScoreTopK call — the traversal, arguments,
// and (score desc, id asc) total order the offline Evaluator uses, so a
// served f32 ranking is bit-identical to the evaluation ranking for the
// same embeddings at any thread count.
//
// Robustness ladder, in order:
//   validation   every request field is checked up front; anything
//                unusable is a structured InvalidArgument, never UB
//   admission    Submit() queues requests in strict-priority classes
//                (interactive > batch > background) and bounds total
//                backlog by `queue_capacity`; at the bound the newest
//                lowest-priority queued request is evicted to admit a
//                higher-priority one, otherwise the arrival itself is
//                shed — always a structured ResourceExhausted
//                (serve.shed, serve.shed.<class>) carrying a
//                retry_after_ms hint sized from the smoothed service
//                latency and current backlog
//   concurrency  queued requests are scored by at most `limit` workers:
//                the static cap (queue_capacity, or overload.fixed_limit)
//                or, with overload.adaptive, an AIMD AdaptiveLimiter that
//                squeezes the limit down when completions run past the
//                latency target and re-opens it on a good streak
//                (serve.overload.limit gauge — see serve/overload.h)
//   dequeue      a request whose budget expired while it waited is shed
//                at dequeue with DeadlineExceeded and never scored
//                (serve.expired_in_queue) — overload must not burn CPU
//                computing answers nobody is waiting for
//   deadline     a per-request budget becomes an absolute RankDeadline
//                the traversal checks before its user tile and between
//                item runs (eval/fused_rank.h); on expiry a truncated
//                prefix ranking is returned flagged `partial`
//                (serve.deadline_partial), or DeadlineExceeded when
//                nothing was scored (serve.deadline_errors) — which is
//                what a budget already spent at scoring time gets, exact
//                and ivf alike
//   brownout     one BrownoutController picks the rung every request is
//                served under (serve.overload.brownout_level; per-request
//                in RequestContext::brownout). With overload.brownout.
//                enabled, sustained SLO breach (serving_stats'
//                SloMonitor) steps the serving mode down exact -> ivf ->
//                quantized -> cache/popularity-only and back up with
//                hysteresis. Always, a streak of deadline expiries among
//                scored requests trips it straight to cache-only for a
//                hold. At that rung no model scoring runs: a complete
//                cached answer for the user serves whatever its encoding
//                and retrieval mode, and a cache miss serves the
//                snapshot's popularity ranking flagged `degraded`
//                (serve.degraded) — the service answers something
//                sensible even when scoring is unhealthy
//
// Scoring encoding: options.encoding selects which embedding copy the
// request scores against — f32 (the bit-exact reference, default), int8,
// or bf16 (ModelSnapshot::scoring hands the traversal that copy's view).
// A request whose snapshot lacks the requested encoding falls back to f32
// for that request (serve.encoding_fallbacks). Rankings are deterministic
// within an encoding; across encodings they differ by bounded
// quantization error.
//
// Two-stage retrieval: options.retrieval selects the candidate set the
// rank traversal scores. kExact scans every item (the reference path
// above); kIvf probes the snapshot's ItemIndex — score the user against
// all cell centroids (a tiny GEMV), take the top options.nprobe cells,
// gather their members, and feed that sorted candidate list through the
// same traversal (same per-pair score bits, heaps and deadline checks).
// The ivf ranking is the exact ranking filtered to the probed cells —
// approximate only in which items were considered, never in how they
// were scored or ordered. Requests carrying exact=true, and every
// request against a snapshot without an index (build failed or never
// requested — serve.retrieval.exact_fallbacks), take the exact path.
// Counters: serve.retrieval.{requests,cells_probed,candidates_scored};
// options.recall_sample_every adds a live recall gauge.
//
// Score cache: a bounded LRU of complete responses keyed by user id
// (serve.score_cache_{hits,misses}). An entry is served only when its
// snapshot version AND encoding AND retrieval mode match the current ones
// and it was computed for a k >= the request's k (a top-K prefix of a
// larger top-K is exact within its mode; an ivf prefix is never an exact
// answer, hence the mode key). The cache-only rung drops the mode key:
// there the alternative is the popularity ranking, so any complete entry
// of the current snapshot serves, reported under its own encoding and
// retrieval mode. Version keying makes hot-swap invalidation automatic:
// entries from a replaced snapshot can never be served again. Partial and
// degraded responses are never cached.
//
// Every request increments serve.requests, lands in the serve.latency_us
// histogram, and runs under an OBS_SPAN("serve.request") trace span.
//
// Observability: the ctx-taking overloads thread a RequestContext through
// the pipeline — per-stage timings (admission/snapshot/cache/score), the
// outcome flags above, and the request's deterministic id, which a
// TraceRequestScope stamps onto every span the request closes so Chrome
// traces are filterable by request. Finished contexts feed stats():
// sliding-window stage percentile gauges plus the availability/latency
// SLO burn-rate monitor (see serve/serving_stats.h).

#ifndef LAYERGCN_SERVE_RECOMMEND_SERVICE_H_
#define LAYERGCN_SERVE_RECOMMEND_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "eval/fused_rank.h"
#include "serve/overload.h"
#include "serve/request_context.h"
#include "serve/serving_stats.h"
#include "serve/snapshot.h"
#include "util/status.h"

namespace layergcn::serve {

struct RecommendRequest {
  int32_t user_id = -1;
  /// Number of items wanted; 1 <= k <= options.max_k.
  int32_t k = 10;
  /// Wall-clock budget in microseconds; 0 = no deadline.
  uint64_t budget_us = 0;
  /// Force the exact full-scan path for this request even when the service
  /// defaults to ivf retrieval — the bit-exact reference used by parity
  /// tests and recall sampling. Also exempt from every brownout rung, the
  /// deadline trip included.
  bool exact = false;
  /// Admission class; under overload lower classes are shed first.
  Priority priority = Priority::kInteractive;
};

struct ScoredItem {
  int32_t item = 0;
  float score = 0.f;
};

struct RecommendResponse {
  /// Best first. Model scores normally; popularity counts when degraded.
  std::vector<ScoredItem> items;
  /// Deadline expired mid-scan: `items` ranks only the scanned prefix of
  /// the item space (still best-first within it).
  bool partial = false;
  /// Served from the popularity fallback, not model scoring.
  bool degraded = false;
  /// Served from the score cache (no kernel ran for this request).
  bool cached = false;
  /// The encoding that actually scored this response (f32 when the
  /// requested quantized encoding was absent from the snapshot).
  eval::ScoreEncoding encoding = eval::ScoreEncoding::kF32;
  /// The retrieval path that actually served this response: ivf when the
  /// index was probed, exact for full scans — including per-request
  /// fallbacks when the snapshot has no index (serve.retrieval.
  /// exact_fallbacks) and req.exact overrides.
  RetrievalMode retrieval = RetrievalMode::kExact;
  /// Items the rank kernel scored (see RequestContext::candidates).
  int64_t candidates = 0;
  /// Brownout rung this response was served under (kNone = full quality).
  BrownoutLevel brownout = BrownoutLevel::kNone;
  int64_t snapshot_version = 0;
  uint64_t latency_us = 0;
};

struct RecommendServiceOptions {
  /// Largest admissible request k.
  int32_t max_k = 1000;
  /// Async admission bound: queued + executing Submit() requests past this
  /// are shed (or displace a lower-priority queued request). >= 1.
  int64_t queue_capacity = 64;
  /// Adaptive concurrency limiter, priority shedding hints, and the
  /// brownout ladder (see serve/overload.h). Defaults preserve the static
  /// behavior: limit = queue_capacity, SLO ladder off (the deadline trip is
  /// always on).
  OverloadOptions overload;
  /// Rank traversal tiling (runs on the shared compute pool).
  eval::FusedRankConfig rank;
  /// Embedding encoding requests score against (per-request f32 fallback
  /// when the snapshot lacks it).
  eval::ScoreEncoding encoding = eval::ScoreEncoding::kF32;
  /// Candidate-generation mode. kIvf requires the snapshot to carry an
  /// ItemIndex (SnapshotStore::SetIndexOptions before Reload); requests
  /// against an index-less snapshot fall back to exact per request
  /// (serve.retrieval.exact_fallbacks).
  RetrievalMode retrieval = RetrievalMode::kExact;
  /// Cells probed per ivf request (clamped to [1, index cells]).
  int32_t nprobe = 8;
  /// When > 0 and serving ivf, every Nth complete index-served response is
  /// re-ranked exactly and the top-K overlap published as the
  /// serve.retrieval.recall_sample gauge — a live recall monitor costing
  /// one exact scan per N requests.
  int64_t recall_sample_every = 0;
  /// Bounded LRU score cache size in users; 0 disables caching.
  int64_t score_cache_capacity = 1024;
  /// SLO objectives + quantile windows. The service applies
  /// obs::SloMonitor::FromEnv on top, so LAYERGCN_SLO_* environment
  /// overrides always win over these programmatic defaults.
  ServingStatsOptions stats;
};

/// Thread-safe serving front end over a SnapshotStore. The store outlives
/// the service; the service holds no training state.
class RecommendService {
 public:
  explicit RecommendService(SnapshotStore* store);  // default options
  RecommendService(SnapshotStore* store,
                   const RecommendServiceOptions& options);
  /// Drains in-flight async requests before returning.
  ~RecommendService();

  RecommendService(const RecommendService&) = delete;
  RecommendService& operator=(const RecommendService&) = delete;

  /// Synchronous path: validate, score (or degrade), respond. Errors:
  /// FailedPrecondition (no snapshot), InvalidArgument (bad request),
  /// DeadlineExceeded (budget spent with nothing scored). Records itself
  /// into stats() on completion.
  util::StatusOr<RecommendResponse> Recommend(const RecommendRequest& req);

  /// Observable synchronous path: fills `ctx` (stage timings, outcome
  /// flags, status) as the request moves through the pipeline and tags
  /// every trace span with ctx->id. Does NOT record into stats() — the
  /// caller finishes the request (stamps serialize time / done_us) and
  /// records. `ctx` must be non-null.
  util::StatusOr<RecommendResponse> Recommend(const RecommendRequest& req,
                                              RequestContext* ctx);

  /// Admission-controlled async path: queues the request in its priority
  /// class and scores it on the shared compute pool under the concurrency
  /// limit. At the backlog bound the future resolves immediately to
  /// ResourceExhausted (possibly after evicting a lower-priority queued
  /// request, whose own future resolves shed) — load is shed at the door,
  /// not queued forever. A request whose budget expires while queued
  /// resolves to DeadlineExceeded without ever being scored.
  std::future<util::StatusOr<RecommendResponse>> Submit(
      const RecommendRequest& req);

  /// Observable async path: stamps ctx->submit_us now (admission time =
  /// submit -> worker pickup) and, when shed/expired, ctx's flags +
  /// status + retry_after_ms. `ctx` may be null (self-recording, as
  /// Submit(req)); when non-null it must outlive the returned future and
  /// recording is the caller's.
  std::future<util::StatusOr<RecommendResponse>> Submit(
      const RecommendRequest& req, RequestContext* ctx);

  /// Async requests currently queued or executing.
  int64_t in_flight() const;

  /// Concurrency limit admission currently dispatches under: the live
  /// limiter value when adaptive, else the static cap.
  int64_t concurrency_limit() const;

  /// Point-in-time overload snapshot (limit, per-class queue depths, the
  /// brownout rung in force at `now_us`) for HealthReporter and tests.
  OverloadState overload_state(uint64_t now_us) const;

  const AdaptiveLimiter& limiter() const { return limiter_; }
  const BrownoutController& brownout() const { return brownout_; }
  /// Live per-stage quantiles + SLO burn state fed by finished requests.
  ServingStats& stats() { return stats_; }
  const ServingStats& stats() const { return stats_; }
  const RecommendServiceOptions& options() const { return options_; }

 private:
  /// One cached complete response: valid only against the snapshot
  /// version, encoding, and retrieval mode it was computed with, reusable
  /// for any request k <= k. Keying by retrieval mode matters for
  /// correctness, not just freshness: an ivf top-K is approximate, so its
  /// prefix must never answer a request that asked for exact (and an
  /// exact entry must not masquerade as the index's output either).
  struct CacheEntry {
    int64_t snapshot_version = 0;
    eval::ScoreEncoding encoding = eval::ScoreEncoding::kF32;
    RetrievalMode retrieval = RetrievalMode::kExact;
    int32_t k = 0;
    std::vector<ScoredItem> items;
    std::list<int32_t>::iterator lru_it;
  };

  /// One admitted-but-not-finished async request.
  struct Pending {
    RecommendRequest req;
    RequestContext* ctx = nullptr;  // caller-owned; null = self-recording
    std::shared_ptr<std::promise<util::StatusOr<RecommendResponse>>> promise;
    uint64_t submit_us = 0;
  };

  util::Status Validate(const ModelSnapshot& snap,
                        const RecommendRequest& req) const;
  RecommendResponse ServeDegraded(const ModelSnapshot& snap,
                                  const RecommendRequest& req) const;
  /// Runs eval::ScoreTopK for `req` over `encoding`'s copy: every item
  /// for exact, the TopCells -> GatherCandidates list for ivf. Returns the
  /// per-user rankings (single user) and fills `scores` /
  /// `candidates_scored`.
  std::vector<std::vector<int32_t>> ScoreTopK(
      const ModelSnapshot& snap, const RecommendRequest& req,
      eval::ScoreEncoding encoding, RetrievalMode retrieval,
      eval::RankDeadline* deadline, std::vector<std::vector<float>>* scores,
      int64_t* candidates_scored);
  /// Cache lookup for (user, k) against `snap` + `encoding` + `retrieval`
  /// (`any_mode`: against `snap` alone, whatever mode the entry holds);
  /// fills `resp`, the entry's mode included, and returns true on a hit.
  /// Counts serve.score_cache_{hits,misses}.
  bool CacheLookup(const ModelSnapshot& snap, eval::ScoreEncoding encoding,
                   RetrievalMode retrieval, bool any_mode,
                   const RecommendRequest& req, RecommendResponse* resp);
  /// Inserts a complete (non-partial, non-degraded) response, evicting the
  /// least recently used entry past capacity.
  void CacheInsert(const ModelSnapshot& snap, eval::ScoreEncoding encoding,
                   RetrievalMode retrieval, const RecommendRequest& req,
                   const RecommendResponse& resp);

  /// Pops the oldest request of the highest non-empty priority class.
  /// False when every queue is empty. mu_ held.
  bool PopNextLocked(Pending* out);
  /// Spawns pool workers until either the concurrency limit or the
  /// backlog is covered. mu_ held.
  void DispatchLocked();
  /// Worker body: drain queued requests one at a time until the backlog
  /// is empty or the limit shrank below this worker.
  void WorkerLoop();
  /// Resolves a shed request (at admission or via priority eviction) with
  /// ResourceExhausted + retry hint; records when self-recording.
  void ResolveShed(Pending&& p, const std::string& reason,
                   uint64_t retry_after_ms, uint64_t now_us);
  /// Resolves a request whose budget expired while queued with
  /// DeadlineExceeded (serve.expired_in_queue); never scores it.
  void ResolveExpired(Pending&& p, uint64_t now_us);
  /// retry_after_ms hint from smoothed latency and backlog. mu_ held.
  uint64_t RetryAfterMsLocked() const;

  SnapshotStore* const store_;
  const RecommendServiceOptions options_;
  ServingStats stats_;
  AdaptiveLimiter limiter_;
  BrownoutController brownout_;
  /// Index-served responses since startup, driving recall_sample_every.
  std::atomic<int64_t> ivf_served_{0};
  /// EWMA of async completion latency (retry hints; kept even when the
  /// limiter is off).
  std::atomic<uint64_t> ewma_latency_us_{0};

  mutable std::mutex mu_;
  std::condition_variable drained_cv_;
  std::deque<Pending> queues_[kNumPriorities];  // waiting, per class
  int64_t queued_ = 0;     // total across queues_
  int64_t executing_ = 0;  // popped by a worker, not yet finished
  int64_t workers_ = 0;    // pool worker tasks alive
  bool shutting_down_ = false;

  // Score cache state (own lock: cache traffic must not contend with the
  // admission/drain bookkeeping above).
  mutable std::mutex cache_mu_;
  std::list<int32_t> cache_lru_;  // front = most recently used user
  std::unordered_map<int32_t, CacheEntry> cache_;
};

}  // namespace layergcn::serve

#endif  // LAYERGCN_SERVE_RECOMMEND_SERVICE_H_
