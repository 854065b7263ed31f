// Test-only fault injection for the fault-tolerance paths.
//
// A fault *point* is a named site in production code that asks
// `fault::Fire("name")` whether it should misbehave this time. Points are
// disarmed by default and Fire() is a cheap early-out, so shipping the
// probes costs nothing; tests (and tools/check.sh) arm them either
// programmatically or through the environment:
//
//   LAYERGCN_FAULT="checkpoint.bit_flip,trainer.nan_loss:3"
//
// arms `checkpoint.bit_flip` to fire on its 1st hit and `trainer.nan_loss`
// on its 3rd. Every armed point is one-shot: it fires once, then disarms,
// so a recovery retry of the same code path succeeds.
//
// Points wired up in this PR:
//   checkpoint.torn_write    writer persists only a prefix of the file
//                            (simulates a crash inside the write window)
//   checkpoint.short_read    reader sees a truncated file image
//   checkpoint.bit_flip      reader sees one flipped payload bit
//   trainer.nan_loss         the epoch loss is replaced with a quiet NaN
//
// Serving points (src/serve/):
//   serve.snapshot_bit_flip  snapshot reader sees one flipped payload bit
//                            (CRC mismatch -> newest-valid fallback)
//   serve.reload_torn_read   snapshot reader sees half the file, as if a
//                            reload raced a partially written snapshot
//   serve.slow_score         the fused rank kernel stalls past the
//                            request deadline (only fires when a request
//                            carries a budget) -> partial result or
//                            DeadlineExceeded; a streak of them trips
//                            the brownout controller to cache-only
//
// Pipeline points (src/pipeline/):
//   wal.torn_write           a WAL commit persists only a mid-frame prefix
//                            of the batch and poisons the writer (recovery
//                            re-opens, truncates the torn tail)
//   wal.short_read           WAL recovery sees a truncated segment image
//   wal.bit_flip             WAL recovery sees one flipped payload bit
//                            (CRC mismatch -> record skipped + counted)
//   wal.enospc               a WAL commit fails as ResourceExhausted with
//                            nothing written (full disk); the writer is
//                            poisoned and owners that cannot restore
//                            durability degrade to serving-only
//   publish.torn_rename      the publisher's export write leaves a torn
//                            file under the final snap- name and the
//                            attempt fails (store falls back; the retry
//                            rewrites it)

#ifndef LAYERGCN_UTIL_FAULT_INJECTION_H_
#define LAYERGCN_UTIL_FAULT_INJECTION_H_

#include <string>
#include <vector>

namespace layergcn::util::fault {

/// Arms `point` to fire on its `trigger_on_hit`-th Fire() call (1-based),
/// then disarm. Re-arming resets the hit count.
void Arm(const std::string& point, int trigger_on_hit = 1);

/// Disarms `point` (no-op if not armed).
void Disarm(const std::string& point);

/// Disarms everything and clears hit counts (test isolation). Also
/// re-enables env arming for the next Fire() if the env was never read.
void DisarmAll();

/// Called by production code at a fault point. Counts the hit; returns
/// true exactly when the armed trigger count is reached. Reads
/// LAYERGCN_FAULT on first use. Thread-safe.
bool Fire(const std::string& point);

/// Number of Fire() calls seen by `point` since the last (re-)arm or
/// DisarmAll (armed or not — probes count either way once the point has
/// been touched).
int64_t HitCount(const std::string& point);

/// True if any point is currently armed.
bool AnyArmed();

/// Names of currently armed points (diagnostics).
std::vector<std::string> ArmedPoints();

}  // namespace layergcn::util::fault

#endif  // LAYERGCN_UTIL_FAULT_INJECTION_H_
