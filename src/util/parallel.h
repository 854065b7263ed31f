// The one data-parallel loop of the library, over the shared ThreadPool.
//
// Every kernel that runs work on the compute pool — the elementwise
// tensor/autograd kernels, Adam, the embedding scatter-add, SpMM, GEMM and
// the score-and-rank traversal — does it through For (or Reduce, which
// shares its dispatch). Training must produce bit-identical results at 1,
// 2, or N threads so any run is reproducible from its seed regardless of the
// machine it lands on. The contract below makes that a structural property
// instead of a per-kernel proof obligation:
//
//   * The iteration space [0, n) is split into fixed-size blocks of `grain`
//     iterations. The partition is a function of (n, grain) only. A call
//     site may derive its grain from the pool width (ComputePool()
//     ->num_threads()) only where every block writes disjoint outputs, so
//     where the block boundaries fall cannot show in the result.
//   * Blocks are claimed dynamically (atomic cursor), so scheduling stays
//     load-balanced; but a block only ever writes its own outputs or its own
//     partial-reduction slot, so which thread ran it cannot be observed.
//   * Reduction partials are combined on the calling thread in ascending
//     block order (a fixed left-to-right tree). Each block accumulates in
//     double; the combine is a double sum in block order. The serial path
//     performs the same blocked accumulation, so serial == parallel bitwise.
//
// A dispatch waits only for its own blocks. The calling thread claims
// blocks off the cursor like its helpers and returns once every block has
// run. At most (pool width - 1) helpers are submitted, so the threads
// running blocks never outnumber the pool width. A helper that starts after
// the last block is claimed exits at once; it touches only state it
// co-owns with the dispatch, never the caller's stack. So a dispatch can
// neither wait on nor be starved by a task it did not submit: if every
// worker is busy, the caller runs all of its blocks itself.
//
// Nested loops run inline: a call made on a pool worker, or by a caller
// while it runs its own blocks, runs its blocks serially on that thread,
// with identical blocking and combine order, so determinism survives
// nesting too. Block bodies must not throw.
//
// The pool used by every kernel in the library is ComputePool(): by default
// the process-global pool (sized by LAYERGCN_NUM_THREADS or the hardware),
// overridable with ScopedComputePool for tests, benchmarks, and the CLI
// --threads flag.

#ifndef LAYERGCN_UTIL_PARALLEL_H_
#define LAYERGCN_UTIL_PARALLEL_H_

#include <cstdint>
#include <functional>

#include "util/thread_pool.h"

namespace layergcn::util {
namespace parallel {

/// Default block size for scalar elementwise kernels: large enough that the
/// per-block dispatch (one atomic increment + one std::function call) is
/// noise, small enough that mid-size embedding tables still split. Kernels
/// iterating over rows scale it down by the row width so a block always
/// represents roughly this much scalar work.
///
/// The pool is engaged only when the partition has more than one block (and
/// the pool has more than one worker, and the loop is not nested);
/// otherwise the same blocked loop runs inline on the caller, so the
/// work-size cutoff is the grain itself.
inline constexpr int64_t kDefaultGrain = 16384;

/// Number of fixed blocks for an iteration space of `n` at block size
/// `grain` (== ceil(n / grain); 0 when n <= 0).
int64_t NumBlocks(int64_t n, int64_t grain);

/// The pool the compute kernels run on: the ScopedComputePool override if
/// one is active, else ThreadPool::Global().
ThreadPool* ComputePool();

/// RAII override of ComputePool(). Intended for single-threaded
/// orchestration (tests / benchmarks / CLI startup); the override is
/// process-global, not per-thread.
class ScopedComputePool {
 public:
  explicit ScopedComputePool(ThreadPool* pool);
  ~ScopedComputePool();

  ScopedComputePool(const ScopedComputePool&) = delete;
  ScopedComputePool& operator=(const ScopedComputePool&) = delete;

 private:
  ThreadPool* previous_;
};

/// Runs body(lo, hi) for every fixed block [lo, hi) of [0, n). Blocks may
/// run concurrently and in any order; `body` must write only state owned by
/// its block. Deterministic for any worker count provided each output
/// element is computed by exactly one block (true by construction for
/// elementwise kernels).
void For(int64_t n, const std::function<void(int64_t, int64_t)>& body,
         int64_t grain = kDefaultGrain);

/// Blocked reduction: block(lo, hi) returns its partial (accumulated in
/// double over the block); partials are summed in ascending block order.
/// Bit-exact for any worker count, including the inline/serial path.
double Reduce(int64_t n,
              const std::function<double(int64_t, int64_t)>& block,
              int64_t grain = kDefaultGrain);

}  // namespace parallel
}  // namespace layergcn::util

#endif  // LAYERGCN_UTIL_PARALLEL_H_
