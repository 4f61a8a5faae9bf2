#include "parallel/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace tdmd::parallel {
namespace {

TEST(ThreadPoolTest, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1u);
}

TEST(ThreadPoolTest, SubmitReturnsResult) {
  ThreadPool pool(2);
  auto future = pool.Submit([]() { return 6 * 7; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPoolTest, SubmitVoidTask) {
  ThreadPool pool(2);
  std::atomic<int> flag{0};
  pool.Submit([&]() { flag = 1; }).get();
  EXPECT_EQ(flag.load(), 1);
}

TEST(ThreadPoolTest, ExceptionsPropagateThroughFuture) {
  ThreadPool pool(1);
  auto future =
      pool.Submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPoolTest, ManyTasksAllExecute) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 500; ++i) {
    futures.push_back(pool.Submit([&]() { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 500);
}

TEST(ThreadPoolTest, WaitBlocksUntilIdle) {
  ThreadPool pool(3);
  std::atomic<int> done{0};
  for (int i = 0; i < 20; ++i) {
    pool.Submit([&]() {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ++done;
    });
  }
  pool.Wait();
  EXPECT_EQ(done.load(), 20);
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&]() { ++done; });
    }
  }  // destructor joins after draining
  EXPECT_EQ(done.load(), 50);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(pool, 0, 1000, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelForTest, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  int calls = 0;
  ParallelFor(pool, 5, 5, [&](std::size_t) { ++calls; });
  ParallelFor(pool, 7, 3, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelForTest, NonZeroBegin) {
  ThreadPool pool(3);
  std::atomic<std::size_t> sum{0};
  ParallelFor(pool, 10, 20, [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum.load(), std::size_t{145});  // 10 + ... + 19
}

TEST(ParallelForTest, ExceptionPropagates) {
  ThreadPool pool(2);
  EXPECT_THROW(ParallelFor(pool, 0, 100,
                           [](std::size_t i) {
                             if (i == 57) throw std::logic_error("bad");
                           }),
               std::logic_error);
}

TEST(ParallelMapTest, ResultsInIndexOrder) {
  ThreadPool pool(4);
  auto results =
      ParallelMap(pool, 64, [](std::size_t i) { return i * i; });
  ASSERT_EQ(results.size(), 64u);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(results[i], i * i);
  }
}

TEST(ParallelMapTest, MatchesSerialComputation) {
  ThreadPool pool(8);
  auto heavy = [](std::size_t i) {
    double acc = 0.0;
    for (std::size_t j = 1; j <= 1000; ++j) {
      acc += static_cast<double>((i + j) % 97);
    }
    return acc;
  };
  auto par = ParallelMap(pool, 200, heavy);
  for (std::size_t i = 0; i < 200; ++i) {
    EXPECT_DOUBLE_EQ(par[i], heavy(i));
  }
}

}  // namespace
}  // namespace tdmd::parallel
