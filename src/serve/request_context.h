// Per-request observability context for the serving tier.
//
// A RequestContext travels with one request from the moment the driver
// (layergcn_serve, a bench, a test) assigns it a deterministic id until
// the response line is written. The service fills stage timings and
// outcome flags as the request moves through the pipeline:
//
//   admission   Submit() call -> Recommend() entry (priority-class queue
//               wait + worker pickup; the whole latency for requests shed
//               at admission or expired while queued)
//   snapshot    snapshot fetch + request validation
//   cache       score-cache lookup (hits end the request here)
//   score       rank traversal (eval::ScoreTopK, any encoding) plus the
//               ivf probe, or the popularity fallback when degraded
//   serialize   response JSON construction + write (filled by the driver)
//
// Stage values are durations in microseconds over obs::NowMicros()'s
// clock; they cover disjoint sub-intervals of [submit_us, done_us], so
// their sum never exceeds total_us() — tools/validate_jsonl enforces
// exactly that on access logs. The context is written by one thread at a
// time (driver -> pool worker -> driver, sequenced by the Submit future),
// so it needs no internal synchronization.

#ifndef LAYERGCN_SERVE_REQUEST_CONTEXT_H_
#define LAYERGCN_SERVE_REQUEST_CONTEXT_H_

#include <cstdint>
#include <string>

#include "eval/fused_rank.h"
#include "serve/item_index.h"
#include "serve/overload.h"
#include "util/status.h"

namespace layergcn::serve {

enum class Stage {
  kAdmission = 0,
  kSnapshot,
  kCache,
  kScore,
  kSerialize,
};
inline constexpr int kNumStages = 5;

inline const char* StageName(Stage stage) {
  switch (stage) {
    case Stage::kAdmission: return "admission";
    case Stage::kSnapshot: return "snapshot";
    case Stage::kCache: return "cache";
    case Stage::kScore: return "score";
    case Stage::kSerialize: return "serialize";
  }
  return "unknown";
}

struct RequestContext {
  /// Driver-assigned id, unique and increasing within a run (1-based).
  uint64_t id = 0;

  // Request echo (available even when the request never parsed).
  int32_t user = -1;
  int32_t k = 0;
  uint64_t budget_us = 0;
  Priority priority = Priority::kInteractive;

  // Outcome flags.
  bool malformed = false;  // request line never parsed into a request
  bool shed = false;       // rejected at the admission door
  bool expired = false;    // budget elapsed while queued; never scored
  bool cached = false;
  bool partial = false;
  bool degraded = false;
  /// Brownout rung the request was served under (kNone when brownout is
  /// off or the ladder sat at full quality).
  BrownoutLevel brownout = BrownoutLevel::kNone;
  /// Backoff hint attached to shed responses (0 otherwise).
  uint64_t retry_after_ms = 0;
  eval::ScoreEncoding encoding = eval::ScoreEncoding::kF32;
  /// Candidate-generation path that produced the ranking: ivf when the
  /// index was probed, exact otherwise (full scan, cache hits, degraded
  /// and failed requests included — anything that never probed).
  RetrievalMode retrieval = RetrievalMode::kExact;
  /// Items the rank kernel scored: the gathered candidate count under ivf,
  /// the full item count under an exact scan, 0 when no kernel ran
  /// (cached / degraded / shed / failed).
  int64_t candidates = 0;
  int64_t snapshot_version = 0;

  util::StatusCode code = util::StatusCode::kOk;
  std::string error;  // status message when code != kOk

  // Timeline (obs::NowMicros() epoch). submit/done belong to the driver,
  // start/finish to the service. Zero = never reached.
  uint64_t submit_us = 0;
  uint64_t start_us = 0;
  uint64_t finish_us = 0;
  uint64_t done_us = 0;

  /// Disjoint per-stage durations, indexed by Stage.
  uint64_t stage_us[kNumStages] = {0, 0, 0, 0, 0};

  uint64_t& stage(Stage s) { return stage_us[static_cast<int>(s)]; }
  uint64_t stage(Stage s) const { return stage_us[static_cast<int>(s)]; }

  /// End-to-end latency as the access log reports it: driver submit to
  /// response written, falling back to the widest interval recorded.
  uint64_t total_us() const {
    const uint64_t begin = submit_us != 0 ? submit_us : start_us;
    const uint64_t end = done_us != 0 ? done_us : finish_us;
    return end > begin ? end - begin : 0;
  }

  /// Latency the service observed (for SLO accounting before the driver
  /// finishes serialization).
  uint64_t service_us() const {
    const uint64_t begin = submit_us != 0 ? submit_us : start_us;
    return finish_us > begin ? finish_us - begin : 0;
  }
};

}  // namespace layergcn::serve

#endif  // LAYERGCN_SERVE_REQUEST_CONTEXT_H_
