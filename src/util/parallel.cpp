#include "util/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/metrics.h"
#include "util/logging.h"

namespace layergcn::util {

// True on a ThreadPool worker thread (thread_pool.cpp).
bool InPoolWorker();

namespace parallel {
namespace {

// Process-global override installed by ScopedComputePool. Plain atomic:
// installs happen on the orchestration thread, reads from kernel call sites.
std::atomic<ThreadPool*> g_override{nullptr};

// True while this thread runs the blocks of its own dispatch.
thread_local bool t_running_blocks = false;

using BlockFn = std::function<void(int64_t, int64_t, int64_t)>;

// A loop runs its blocks inline when there is nothing to split, nobody to
// split it with, or it is nested inside a pool task or a dispatch.
bool RunsInline(const ThreadPool& pool, int64_t blocks) {
  return blocks <= 1 || pool.num_threads() <= 1 || InPoolWorker() ||
         t_running_blocks;
}

// The state one dispatch's caller and helpers share. Each claims blocks off
// `next` and adds the number it ran to `done`. Helpers hold it by
// shared_ptr, so one that starts after the caller returned still finds it
// and exits without claiming. `run` lives on the caller's stack; it is
// called only for a claimed block, and the caller cannot return before
// that block is counted in `done`.
struct Dispatch {
  Dispatch(int64_t blocks, int64_t grain, int64_t n, const BlockFn* run)
      : blocks(blocks), grain(grain), n(n), run(run) {}

  // Runs blocks until none are left unclaimed.
  void Drain() {
    int64_t ran = 0;
    for (;;) {
      const int64_t b = next.fetch_add(1, std::memory_order_relaxed);
      if (b >= blocks) break;
      const int64_t lo = b * grain;
      (*run)(b, lo, std::min(n, lo + grain));
      ++ran;
    }
    if (ran == 0) return;
    std::lock_guard<std::mutex> lock(mu);
    done += ran;
    if (done == blocks) all_done.notify_one();
  }

  const int64_t blocks, grain, n;
  const BlockFn* const run;
  std::atomic<int64_t> next{0};
  std::mutex mu;
  int64_t done = 0;  // guarded by mu
  std::condition_variable all_done;
};

// One dispatch: up to `width - 1` helpers and the calling thread drain the
// block list through a shared cursor. Returns once every block has run.
void RunBlocks(ThreadPool* pool, int64_t blocks, int64_t grain, int64_t n,
               const BlockFn& run) {
  const auto d = std::make_shared<Dispatch>(blocks, grain, n, &run);
  const int64_t helpers = std::min<int64_t>(pool->num_threads(), blocks) - 1;
  for (int64_t h = 0; h < helpers; ++h) {
    pool->Submit([d] { d->Drain(); });
  }
  t_running_blocks = true;
  d->Drain();
  t_running_blocks = false;
  std::unique_lock<std::mutex> lock(d->mu);
  d->all_done.wait(lock, [&d] { return d->done == d->blocks; });
}

}  // namespace

int64_t NumBlocks(int64_t n, int64_t grain) {
  if (n <= 0) return 0;
  LAYERGCN_CHECK_GT(grain, 0);
  return (n + grain - 1) / grain;
}

ThreadPool* ComputePool() {
  ThreadPool* p = g_override.load(std::memory_order_acquire);
  return p != nullptr ? p : &ThreadPool::Global();
}

ScopedComputePool::ScopedComputePool(ThreadPool* pool)
    : previous_(g_override.exchange(pool, std::memory_order_acq_rel)) {}

ScopedComputePool::~ScopedComputePool() {
  g_override.store(previous_, std::memory_order_release);
}

void For(int64_t n, const std::function<void(int64_t, int64_t)>& body,
         int64_t grain) {
  const int64_t blocks = NumBlocks(n, grain);
  if (blocks == 0) return;
  ThreadPool* pool = ComputePool();
  if (RunsInline(*pool, blocks)) {
    for (int64_t b = 0; b < blocks; ++b) {
      body(b * grain, std::min(n, b * grain + grain));
    }
    return;
  }
  OBS_COUNT("parallel.for_dispatches", 1);
  OBS_COUNT("parallel.for_blocks", blocks);
  RunBlocks(pool, blocks, grain, n,
            [&body](int64_t /*b*/, int64_t lo, int64_t hi) { body(lo, hi); });
}

double Reduce(int64_t n,
              const std::function<double(int64_t, int64_t)>& block,
              int64_t grain) {
  const int64_t blocks = NumBlocks(n, grain);
  if (blocks == 0) return 0.0;
  ThreadPool* pool = ComputePool();
  if (RunsInline(*pool, blocks)) {
    // Same blocked accumulation and left-to-right combine as the parallel
    // path, so serial results are bitwise identical.
    double acc = 0.0;
    for (int64_t b = 0; b < blocks; ++b) {
      acc += block(b * grain, std::min(n, b * grain + grain));
    }
    return acc;
  }
  OBS_COUNT("parallel.reduce_dispatches", 1);
  OBS_COUNT("parallel.reduce_blocks", blocks);
  std::vector<double> partials(static_cast<size_t>(blocks), 0.0);
  RunBlocks(pool, blocks, grain, n,
            [&block, &partials](int64_t b, int64_t lo, int64_t hi) {
              partials[static_cast<size_t>(b)] = block(lo, hi);
            });
  double acc = 0.0;
  for (double p : partials) acc += p;
  return acc;
}

}  // namespace parallel
}  // namespace layergcn::util
