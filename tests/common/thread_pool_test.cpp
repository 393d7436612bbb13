#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <latch>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/error.hpp"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace {

using hpcfail::ThreadPool;

// Reset the shared pool to the hardware default after each test so the
// knob never leaks across test cases.
class ParallelTest : public ::testing::Test {
 protected:
  ~ParallelTest() override { hpcfail::set_parallelism(0); }
};

TEST(ThreadPoolTest, SubmitReturnsResultsThroughFutures) {
  ThreadPool pool(3);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 20; ++i) {
    futures.push_back(pool.submit([i] { return i * i; }));
  }
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
  }
}

TEST(ThreadPoolTest, SubmitPropagatesExceptionsThroughFutures) {
  ThreadPool pool(2);
  auto future = pool.submit(
      []() -> int { throw std::runtime_error("task failed"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPoolTest, ZeroThreadPoolRunsTasksInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 0u);
  auto future = pool.submit([] { return 7; });
  // Already ran inside submit(): the future must be ready immediately.
  EXPECT_EQ(future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(future.get(), 7);
}

TEST(ThreadPoolTest, TasksRunOnWorkerThreads) {
  EXPECT_FALSE(ThreadPool::inside_worker());
  ThreadPool pool(2);
  auto future = pool.submit([] { return ThreadPool::inside_worker(); });
  EXPECT_TRUE(future.get());
  EXPECT_FALSE(ThreadPool::inside_worker());
}

#if defined(__linux__)
/// The calling thread's affinity mask.
cpu_set_t affinity() {
  cpu_set_t set;
  CPU_ZERO(&set);
  EXPECT_EQ(pthread_getaffinity_np(pthread_self(), sizeof set, &set), 0);
  return set;
}

int set_affinity(const cpu_set_t& set) {
  return pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

/// The masks of `pool`'s workers, one task per worker: every task waits
/// until all have started, so no worker runs two.
std::vector<cpu_set_t> worker_masks(ThreadPool& pool) {
  const unsigned n = pool.thread_count();
  std::latch started(n);
  std::vector<std::future<cpu_set_t>> futures;
  for (unsigned i = 0; i < n; ++i) {
    futures.push_back(pool.submit([&started] {
      started.arrive_and_wait();
      return affinity();
    }));
  }
  std::vector<cpu_set_t> masks;
  for (auto& future : futures) masks.push_back(future.get());
  return masks;
}

TEST(ThreadPoolTest, WorkersRunOnDistinctAllowedCpus) {
  const cpu_set_t allowed = affinity();
  const int cpus = CPU_COUNT(&allowed);
  ThreadPool pool(static_cast<unsigned>(std::min(cpus, 8)));
  const std::vector<cpu_set_t> masks = worker_masks(pool);
  for (std::size_t i = 0; i < masks.size(); ++i) {
    EXPECT_EQ(CPU_COUNT(&masks[i]), 1) << "worker " << i;
    cpu_set_t inside;
    CPU_AND(&inside, &masks[i], &allowed);
    EXPECT_TRUE(CPU_EQUAL(&inside, &masks[i])) << "worker " << i;
    for (std::size_t j = 0; j < i; ++j) {
      EXPECT_FALSE(CPU_EQUAL(&masks[i], &masks[j]))
          << "workers " << j << " and " << i;
    }
  }

  // A creating thread held to one CPU pins nothing, and its workers still
  // run tasks there.
  int first = 0;
  while (!CPU_ISSET(first, &allowed)) ++first;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(set_affinity(one), 0);
  {
    ThreadPool held(3);
    for (const cpu_set_t& mask : worker_masks(held)) {
      EXPECT_TRUE(CPU_EQUAL(&mask, &one));
    }
    EXPECT_EQ(held.submit([] { return 6 * 7; }).get(), 42);
  }
  ASSERT_EQ(set_affinity(allowed), 0);
}
#endif

TEST(ThreadPoolTest, DestructorCompletesQueuedTasks) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&done] { ++done; });
    }
  }  // ~ThreadPool drains the queue before joining
  EXPECT_EQ(done.load(), 50);
}

TEST_F(ParallelTest, ParallelismKnobRoundTrips) {
  hpcfail::set_parallelism(3);
  EXPECT_EQ(hpcfail::parallelism(), 3u);
  hpcfail::set_parallelism(0);
  EXPECT_EQ(hpcfail::parallelism(), hpcfail::hardware_parallelism());
  EXPECT_GE(hpcfail::hardware_parallelism(), 1u);
}

TEST_F(ParallelTest, ParallelForVisitsEveryIndexOnce) {
  for (const unsigned threads : {1u, 2u, 8u}) {
    hpcfail::set_parallelism(threads);
    constexpr std::size_t n = 1000;
    std::vector<std::atomic<int>> visits(n);
    hpcfail::parallel_for(n, [&visits](std::size_t i) { ++visits[i]; });
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(visits[i].load(), 1) << "index " << i << " at " << threads
                                     << " threads";
    }
  }
}

TEST_F(ParallelTest, ParallelMapPreservesIndexOrder) {
  for (const unsigned threads : {1u, 4u}) {
    hpcfail::set_parallelism(threads);
    const auto out = hpcfail::parallel_map(
        257, [](std::size_t i) { return static_cast<int>(i) * 3; });
    ASSERT_EQ(out.size(), 257u);
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i], static_cast<int>(i) * 3);
    }
  }
}

TEST_F(ParallelTest, ParallelForPropagatesTaskException) {
  hpcfail::set_parallelism(4);
  EXPECT_THROW(
      hpcfail::parallel_for(100,
                            [](std::size_t i) {
                              if (i == 63) {
                                throw hpcfail::NumericError("boom at 63");
                              }
                            }),
      hpcfail::NumericError);
}

TEST_F(ParallelTest, ParallelForFinishesRemainingChunksAfterException) {
  hpcfail::set_parallelism(4);
  std::atomic<int> visited{0};
  try {
    // Index 99 is the last index of the last chunk, so every other index
    // runs before the throw regardless of how the range is chunked.
    hpcfail::parallel_for(100, [&visited](std::size_t i) {
      if (i == 99) throw std::runtime_error("last index fails");
      ++visited;
    });
    FAIL() << "expected the exception to propagate";
  } catch (const std::runtime_error&) {
  }
  // A failure does not silently cancel the other chunks of the sweep.
  EXPECT_EQ(visited.load(), 99);
}

TEST_F(ParallelTest, NestedParallelForRunsInlineWithoutDeadlock) {
  hpcfail::set_parallelism(2);
  std::vector<std::atomic<int>> cells(64);
  hpcfail::parallel_for(8, [&cells](std::size_t outer) {
    // Nested call from a pool worker: must degrade to a sequential loop
    // (inside_worker() is true there) instead of waiting on a queue only
    // this worker could drain.
    hpcfail::parallel_for(8, [&cells, outer](std::size_t inner) {
      ++cells[outer * 8 + inner];
    });
  });
  for (std::size_t i = 0; i < cells.size(); ++i) {
    ASSERT_EQ(cells[i].load(), 1) << "cell " << i;
  }
}

TEST_F(ParallelTest, NestedSubmitViaParallelMapProducesOrderedResults) {
  hpcfail::set_parallelism(3);
  const auto table = hpcfail::parallel_map(6, [](std::size_t outer) {
    return hpcfail::parallel_map(5, [outer](std::size_t inner) {
      return static_cast<int>(outer * 10 + inner);
    });
  });
  ASSERT_EQ(table.size(), 6u);
  for (std::size_t outer = 0; outer < table.size(); ++outer) {
    ASSERT_EQ(table[outer].size(), 5u);
    for (std::size_t inner = 0; inner < 5; ++inner) {
      ASSERT_EQ(table[outer][inner], static_cast<int>(outer * 10 + inner));
    }
  }
}

TEST_F(ParallelTest, ParallelMapHandlesEmptyAndSingleton) {
  hpcfail::set_parallelism(4);
  EXPECT_TRUE(
      hpcfail::parallel_map(0, [](std::size_t) { return 1; }).empty());
  const auto one = hpcfail::parallel_map(1, [](std::size_t) { return 5; });
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 5);
}

}  // namespace
