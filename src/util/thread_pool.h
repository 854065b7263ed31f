// A small fixed-size thread pool.
//
// Its workers run two kinds of task: the blocks of util::parallel loops
// (parallel.h), the only way kernels put work on the pool, and long-lived
// tasks such as the serving workers. The pool promises nothing about when
// a task runs, so a loop never waits for the pool to go idle; it waits only
// for its own blocks. The kernels use OpenMP only for `#pragma omp simd`
// vectorization hints, never for threads.

#ifndef LAYERGCN_UTIL_THREAD_POOL_H_
#define LAYERGCN_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace layergcn::util {

/// Fixed-size worker pool.
class ThreadPool {
 public:
  /// Creates `num_threads` workers (>= 1). Defaults to the hardware
  /// concurrency, floored at two so the parallel paths run everywhere.
  explicit ThreadPool(int num_threads = 0);
  /// Runs every queued task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Thread-safe.
  void Submit(std::function<void()> task);

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Process-wide shared pool. Sized by the LAYERGCN_NUM_THREADS
  /// environment variable when set (>= 1), else the hardware concurrency.
  static ThreadPool& Global();

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable task_cv_;
  bool shutdown_ = false;
};

}  // namespace layergcn::util

#endif  // LAYERGCN_UTIL_THREAD_POOL_H_
