#include "util/parallel.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <latch>
#include <mutex>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace layergcn::util::parallel {
namespace {

using BlockList = std::vector<std::pair<int64_t, int64_t>>;

// Runs For and records every (lo, hi) block it dispatched, in sorted order.
BlockList CollectBlocks(int64_t n, int64_t grain) {
  BlockList blocks;
  std::mutex mu;
  For(
      n,
      [&](int64_t lo, int64_t hi) {
        std::lock_guard<std::mutex> lock(mu);
        blocks.emplace_back(lo, hi);
      },
      grain);
  std::sort(blocks.begin(), blocks.end());
  return blocks;
}

TEST(ParallelPartitionTest, EmptyRangeNeverInvokesBody) {
  EXPECT_TRUE(CollectBlocks(0, 8).empty());
  EXPECT_EQ(NumBlocks(0, 8), 0);
  EXPECT_EQ(NumBlocks(-5, 8), 0);
}

TEST(ParallelPartitionTest, SingleElementIsOneBlock) {
  EXPECT_EQ(CollectBlocks(1, 8), (BlockList{{0, 1}}));
  EXPECT_EQ(NumBlocks(1, 8), 1);
}

TEST(ParallelPartitionTest, RangeSmallerThanGrainIsOneBlock) {
  EXPECT_EQ(CollectBlocks(7, 8), (BlockList{{0, 7}}));
}

TEST(ParallelPartitionTest, ExactMultipleSplitsAtGrainBoundaries) {
  EXPECT_EQ(CollectBlocks(24, 8), (BlockList{{0, 8}, {8, 16}, {16, 24}}));
}

TEST(ParallelPartitionTest, RemainderFormsShortFinalBlock) {
  EXPECT_EQ(CollectBlocks(21, 8), (BlockList{{0, 8}, {8, 16}, {16, 21}}));
}

TEST(ParallelPartitionTest, NumBlocksMatchesDispatchedBlocks) {
  for (int64_t n : {0L, 1L, 7L, 8L, 9L, 63L, 64L, 65L, 1000L}) {
    EXPECT_EQ(NumBlocks(n, 8), static_cast<int64_t>(CollectBlocks(n, 8).size()))
        << "n=" << n;
  }
}

TEST(ParallelPartitionTest, PartitionIndependentOfPoolWidth) {
  BlockList reference;
  for (int width : {1, 2, 8}) {
    ThreadPool pool(width);
    ScopedComputePool scope(&pool);
    const BlockList blocks = CollectBlocks(1000, 16);
    if (reference.empty()) {
      reference = blocks;
    } else {
      EXPECT_EQ(blocks, reference) << "width=" << width;
    }
  }
}

TEST(ParallelForTest, EveryIndexVisitedExactlyOnce) {
  ThreadPool pool(8);
  ScopedComputePool scope(&pool);
  const int64_t n = 1003;
  std::vector<int> counts(static_cast<size_t>(n), 0);
  // Blocks own disjoint index ranges, so unsynchronized writes are safe.
  For(
      n,
      [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) ++counts[static_cast<size_t>(i)];
      },
      8);
  EXPECT_TRUE(std::all_of(counts.begin(), counts.end(),
                          [](int c) { return c == 1; }));
}

TEST(ParallelForTest, NestedCallsRunInlineWithoutDeadlock) {
  ThreadPool pool(4);
  ScopedComputePool scope(&pool);
  const int64_t outer = 64;
  std::vector<double> results(static_cast<size_t>(outer), 0.0);
  For(
      outer,
      [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          // Inner call from a pool worker must run inline (a worker waiting
          // on its own pool would deadlock) with the same blocked math.
          results[static_cast<size_t>(i)] =
              Reduce(100, [](int64_t blo, int64_t bhi) {
                double s = 0.0;
                for (int64_t j = blo; j < bhi; ++j) s += static_cast<double>(j);
                return s;
              });
        }
      },
      1);
  for (double r : results) EXPECT_EQ(r, 4950.0);
}

// A dispatch waits only for its own blocks: with every worker held by a
// task the loop did not submit, the calling thread runs all of the blocks
// itself and returns while those tasks are still running. (A loop that
// waited for the pool to go idle would return only after their 5 s
// timeouts.)
TEST(ParallelForTest, CallerRunsItsBlocksWhileEveryWorkerIsBusy) {
  constexpr int kWorkers = 2;
  // Declared before the pool, whose destructor joins the holding tasks.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> finished{0};
  std::latch holding(kWorkers);
  ThreadPool pool(kWorkers);
  ScopedComputePool scope(&pool);
  for (int w = 0; w < kWorkers; ++w) {
    pool.Submit([&] {
      holding.count_down();
      std::unique_lock<std::mutex> lock(mu);
      cv.wait_for(lock, std::chrono::seconds(5), [&] { return release; });
      finished.fetch_add(1);
    });
  }
  holding.wait();

  const int64_t n = 1000;
  std::vector<int> counts(static_cast<size_t>(n), 0);
  For(
      n,
      [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) ++counts[static_cast<size_t>(i)];
      },
      10);
  const double sum = Reduce(
      n,
      [](int64_t lo, int64_t hi) {
        double s = 0.0;
        for (int64_t i = lo; i < hi; ++i) s += static_cast<double>(i);
        return s;
      },
      10);
  EXPECT_EQ(finished.load(), 0) << "the loops waited for unrelated tasks";
  EXPECT_TRUE(std::all_of(counts.begin(), counts.end(),
                          [](int c) { return c == 1; }));
  EXPECT_EQ(sum, 499500.0);

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
}

TEST(ParallelReduceTest, EmptyRangeIsZero) {
  EXPECT_EQ(Reduce(0, [](int64_t, int64_t) { return 1.0; }), 0.0);
}

TEST(ParallelReduceTest, GrainOfOneSumsEveryBlock) {
  const double s = Reduce(
      1000, [](int64_t lo, int64_t) { return static_cast<double>(lo); }, 1);
  EXPECT_EQ(s, 499500.0);
}

TEST(ParallelReduceTest, BitExactAcrossPoolWidths) {
  Rng rng(123);
  std::vector<double> xs(100000);
  for (double& x : xs) x = rng.NextUniform(-1.0, 1.0);
  const auto block = [&](int64_t lo, int64_t hi) {
    double s = 0.0;
    for (int64_t i = lo; i < hi; ++i) s += xs[static_cast<size_t>(i)];
    return s;
  };

  // The width-1 pool takes the inline path; wider pools run the blocks
  // concurrently. All must agree to the last bit.
  double reference = 0.0;
  for (int width : {1, 2, 8}) {
    ThreadPool pool(width);
    ScopedComputePool scope(&pool);
    const double s =
        Reduce(static_cast<int64_t>(xs.size()), block, /*grain=*/64);
    if (width == 1) {
      reference = s;
      // The inline path must equal a hand-rolled blocked sum.
      double manual = 0.0;
      for (size_t lo = 0; lo < xs.size(); lo += 64) {
        manual += block(static_cast<int64_t>(lo),
                        static_cast<int64_t>(std::min(lo + 64, xs.size())));
      }
      EXPECT_EQ(s, manual);
    } else {
      EXPECT_EQ(s, reference) << "width=" << width;
    }
  }
}

TEST(ParallelReduceTest, DeterministicAcrossRepeatedRuns) {
  ThreadPool pool(8);
  ScopedComputePool scope(&pool);
  Rng rng(7);
  std::vector<double> xs(50000);
  for (double& x : xs) x = rng.NextGaussian();
  const auto block = [&](int64_t lo, int64_t hi) {
    double s = 0.0;
    for (int64_t i = lo; i < hi; ++i) s += xs[static_cast<size_t>(i)];
    return s;
  };
  const double first =
      Reduce(static_cast<int64_t>(xs.size()), block, /*grain=*/128);
  for (int run = 0; run < 10; ++run) {
    EXPECT_EQ(Reduce(static_cast<int64_t>(xs.size()), block, /*grain=*/128),
              first);
  }
}

TEST(ScatterAddRowsTest, BitIdenticalAcrossPoolWidths) {
  Rng rng(42);
  const int64_t batch = 5000, dim = 8, dst_rows = 300;
  tensor::Matrix src(batch, dim);
  src.UniformInit(&rng, -1.f, 1.f);
  tensor::Matrix base(dst_rows, dim);
  base.UniformInit(&rng, -1.f, 1.f);
  std::vector<int32_t> rows(static_cast<size_t>(batch));
  for (int32_t& r : rows) {
    r = static_cast<int32_t>(rng.NextBounded(static_cast<uint64_t>(dst_rows)));
  }

  tensor::Matrix reference;
  for (int width : {1, 2, 8}) {
    ThreadPool pool(width);
    ScopedComputePool scope(&pool);
    tensor::Matrix dst = base;
    tensor::ScatterAddRows(&dst, rows, src);
    if (width == 1) {
      reference = dst;
    } else {
      ASSERT_EQ(0, std::memcmp(dst.data(), reference.data(),
                               sizeof(float) * static_cast<size_t>(
                                                   reference.size())))
          << "width=" << width;
    }
  }
}

}  // namespace
}  // namespace layergcn::util::parallel
