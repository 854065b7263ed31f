#include "util/thread_pool.h"

#include <atomic>
#include <latch>
#include <numeric>
#include <vector>

#include "gtest/gtest.h"
#include "util/parallel.h"

namespace layergcn::util {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  std::latch done(50);
  for (int i = 0; i < 50; ++i) {
    pool.Submit([&] {
      counter.fetch_add(1);
      done.count_down();
    });
  }
  done.wait();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, ReusableAfterWait) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::latch first(1);
  pool.Submit([&] {
    counter.fetch_add(1);
    first.count_down();
  });
  first.wait();
  std::latch second(1);
  pool.Submit([&] {
    counter.fetch_add(1);
    second.count_down();
  });
  second.wait();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPoolTest, SingleThreadPoolStillCorrect) {
  ThreadPool pool(1);
  parallel::ScopedComputePool scope(&pool);
  std::vector<int> order;
  parallel::For(
      10,
      [&](int64_t lo, int64_t hi) {
        // A width-1 pool runs every block inline, in order: no race.
        for (int64_t i = lo; i < hi; ++i) order.push_back(static_cast<int>(i));
      },
      1);
  std::vector<int> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

}  // namespace
}  // namespace layergcn::util
