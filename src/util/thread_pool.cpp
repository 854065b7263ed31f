#include "util/thread_pool.h"

#include <cstdint>
#include <cstdlib>

#include "obs/metrics.h"
#include "obs/obs.h"
#include "util/logging.h"

namespace layergcn::util {
namespace {

// True on threads that live inside a ThreadPool. util::parallel loops check
// it to run nested work inline on the worker.
thread_local bool t_in_pool_worker = false;

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 0) {
    num_threads = static_cast<int>(std::thread::hardware_concurrency());
    // Keep at least two workers even on single-core machines: a parallel
    // loop only engages the pool when num_threads() > 1, and the concurrent
    // dispatch paths should stay exercised (and sanitized) everywhere.
    if (num_threads < 2) num_threads = 2;
  }
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  task_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    LAYERGCN_CHECK(!shutdown_);
    tasks_.push(std::move(task));
    OBS_GAUGE("pool.queue_depth", tasks_.size());
  }
  OBS_COUNT("pool.tasks_submitted", 1);
  task_cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  t_in_pool_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      const uint64_t wait_start = OBS_NOW_US();
      std::unique_lock<std::mutex> lock(mutex_);
      task_cv_.wait(lock, [this] { return shutdown_ || !tasks_.empty(); });
      OBS_COUNT("pool.idle_us", OBS_NOW_US() - wait_start);
      if (tasks_.empty()) return;  // shutdown_ with drained queue
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    const uint64_t task_start = OBS_NOW_US();
    task();
    [[maybe_unused]] const uint64_t task_us = OBS_NOW_US() - task_start;
    OBS_COUNT("pool.tasks_executed", 1);
    OBS_COUNT("pool.task_us", task_us);
    OBS_OBSERVE("pool.task_dur_us",
                (std::vector<double>{10, 100, 1000, 10000, 100000, 1000000}),
                task_us);
  }
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool pool([] {
    // LAYERGCN_NUM_THREADS overrides the hardware sizing (results are
    // bit-identical either way; the knob only trades wall-clock).
    const char* env = std::getenv("LAYERGCN_NUM_THREADS");
    if (env != nullptr) {
      char* end = nullptr;
      const long v = std::strtol(env, &end, 10);
      if (end != env && *end == '\0' && v >= 1 && v <= 1024) {
        return static_cast<int>(v);
      }
      LAYERGCN_LOG(kWarning) << "ignoring invalid LAYERGCN_NUM_THREADS='"
                             << env << "'";
    }
    return 0;  // ThreadPool default: hardware concurrency, floored at 2
  }());
  return pool;
}

bool InPoolWorker() { return t_in_pool_worker; }

}  // namespace layergcn::util
