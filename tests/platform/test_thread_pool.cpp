#include "platform/thread_pool.hpp"

#include <atomic>
#include <future>
#include <numeric>
#include <stdexcept>
#if defined(__linux__)
#include <sched.h>
#endif

#include <gtest/gtest.h>

namespace tc::plat {
namespace {

TEST(EvenChunk, CoversRangeWithoutOverlap) {
  for (i32 count : {1, 7, 48, 100}) {
    for (i32 chunks : {1, 2, 3, 5, 8}) {
      i32 covered = 0;
      i32 expected_lo = 0;
      for (i32 c = 0; c < chunks; ++c) {
        IndexRange r = even_chunk(count, chunks, c);
        EXPECT_EQ(r.lo, expected_lo);
        covered += r.length();
        expected_lo = r.hi;
      }
      EXPECT_EQ(covered, count) << count << "/" << chunks;
    }
  }
}

TEST(EvenChunk, SizesDifferByAtMostOne) {
  for (i32 c = 0; c < 7; ++c) {
    IndexRange r = even_chunk(47, 7, c);
    EXPECT_GE(r.length(), 6);
    EXPECT_LE(r.length(), 7);
  }
}

TEST(EvenChunk, MoreChunksThanItems) {
  i32 nonempty = 0;
  for (i32 c = 0; c < 8; ++c) {
    if (!even_chunk(3, 8, c).empty()) ++nonempty;
  }
  EXPECT_EQ(nonempty, 3);
}

TEST(EvenChunk, ZeroCountGivesEmptyRanges) {
  for (i32 chunks : {1, 3, 8}) {
    for (i32 c = 0; c < chunks; ++c) {
      IndexRange r = even_chunk(0, chunks, c);
      EXPECT_TRUE(r.empty()) << chunks << "/" << c;
      EXPECT_EQ(r.lo, 0);
    }
  }
}

TEST(EvenChunk, SingleChunkIsWholeRange) {
  IndexRange r = even_chunk(123, 1, 0);
  EXPECT_EQ(r.lo, 0);
  EXPECT_EQ(r.hi, 123);
}

TEST(EvenChunk, NonPositiveChunksFallBackToWholeRange) {
  for (i32 chunks : {0, -1}) {
    IndexRange r = even_chunk(55, chunks, 0);
    EXPECT_EQ(r.lo, 0);
    EXPECT_EQ(r.hi, 55);
  }
}

TEST(ThreadPool, RunsAllJobs) {
  ThreadPool pool(4);
  std::atomic<i32> counter{0};
  std::vector<std::function<void()>> jobs;
  for (i32 i = 0; i < 100; ++i) {
    jobs.push_back([&counter] { counter.fetch_add(1); });
  }
  pool.run_all(std::move(jobs));
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, RunAllBlocksUntilDone) {
  ThreadPool pool(2);
  std::atomic<i32> done{0};
  std::vector<std::function<void()>> jobs;
  for (i32 i = 0; i < 10; ++i) {
    jobs.push_back([&done] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      done.fetch_add(1);
    });
  }
  pool.run_all(std::move(jobs));
  EXPECT_EQ(done.load(), 10);  // visible immediately after return
}

TEST(ThreadPool, EmptyJobListIsNoop) {
  ThreadPool pool(2);
  pool.run_all({});  // must not hang
  SUCCEED();
}

TEST(ThreadPool, EmptyJobListBetweenBatchesKeepsPoolUsable) {
  ThreadPool pool(2);
  std::atomic<i32> counter{0};
  pool.run_all({});
  std::vector<std::function<void()>> jobs;
  for (i32 i = 0; i < 8; ++i) {
    jobs.push_back([&counter] { counter.fetch_add(1); });
  }
  pool.run_all(std::move(jobs));
  pool.run_all({});
  EXPECT_EQ(counter.load(), 8);
}

TEST(ThreadPool, ParallelRangesZeroCountRunsNothing) {
  ThreadPool pool(2);
  std::atomic<i32> calls{0};
  pool.parallel_ranges(0, 4, [&](i32, IndexRange) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool pool(3);
  std::atomic<i32> counter{0};
  for (i32 batch = 0; batch < 5; ++batch) {
    std::vector<std::function<void()>> jobs;
    for (i32 i = 0; i < 20; ++i) {
      jobs.push_back([&counter] { counter.fetch_add(1); });
    }
    pool.run_all(std::move(jobs));
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelRangesCoverEverything) {
  ThreadPool pool(4);
  std::vector<i32> hits(97, 0);
  std::mutex m;
  pool.parallel_ranges(97, 5, [&](i32 chunk, IndexRange r) {
    (void)chunk;
    std::lock_guard<std::mutex> lock(m);
    for (i32 i = r.lo; i < r.hi; ++i) ++hits[static_cast<usize>(i)];
  });
  for (i32 h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, ParallelRangesPassesChunkIndex) {
  ThreadPool pool(2);
  std::vector<i32> seen(4, -1);
  std::mutex m;
  pool.parallel_ranges(40, 4, [&](i32 chunk, IndexRange r) {
    std::lock_guard<std::mutex> lock(m);
    seen[static_cast<usize>(chunk)] = r.lo;
  });
  EXPECT_EQ(seen[0], 0);
  EXPECT_EQ(seen[1], 10);
  EXPECT_EQ(seen[2], 20);
  EXPECT_EQ(seen[3], 30);
}

TEST(ThreadPool, DefaultThreadCountAtLeastOne) {
  ThreadPool pool;
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ThreadPool, UnpinnedPoolReportsNotPinned) {
  ThreadPool pool(2);
  EXPECT_FALSE(pool.pinned());
}

TEST(ThreadPool, PinnedPoolStillExecutesCorrectly) {
  // Pinning is a placement hint: on Linux pinned() turns true, elsewhere the
  // request degrades to a no-op — either way the pool must work identically.
  ThreadPool pool(2, /*pin_threads=*/true);
#if defined(__linux__)
  EXPECT_TRUE(pool.pinned());
#else
  EXPECT_FALSE(pool.pinned());
#endif
  std::atomic<i64> sum{0};
  pool.parallel_ranges(1000, 4, [&](i32, IndexRange r) {
    i64 local = 0;
    for (i32 i = r.lo; i < r.hi; ++i) local += i;
    sum.fetch_add(local);
  });
  EXPECT_EQ(sum.load(), 499500);
}

#if defined(__linux__)
TEST(ThreadPool, PinnedWorkersRunOnTheirAssignedCores) {
  const usize cores = std::thread::hardware_concurrency();
  ThreadPool pool(2, /*pin_threads=*/true);
  ASSERT_TRUE(pool.pinned());
  std::vector<i32> cpu_of_job;
  std::mutex m;
  std::vector<std::function<void()>> jobs;
  for (i32 j = 0; j < 16; ++j) {
    jobs.emplace_back([&] {
      const i32 cpu = sched_getcpu();
      std::lock_guard<std::mutex> lock(m);
      cpu_of_job.push_back(cpu);
    });
  }
  pool.run_all(std::move(jobs));
  // Worker i is pinned to core i mod cores: with 2 workers every job must
  // observe a cpu in {0 mod cores, 1 mod cores}.
  for (const i32 cpu : cpu_of_job) {
    ASSERT_GE(cpu, 0);
    EXPECT_TRUE(cpu == 0 % static_cast<i32>(cores) ||
                cpu == 1 % static_cast<i32>(cores))
        << "job ran on cpu " << cpu;
  }
}
#endif

TEST(ThreadPool, RunAllWaitsOnlyForItsOwnBatch) {
  // Caller A's job blocks until released; caller B's batch must complete
  // and return meanwhile (a pool-wide wait would block B until A's job
  // finished, and this test would hang).
  ThreadPool pool(2);
  std::promise<void> a_started;
  std::promise<void> release_a;
  std::shared_future<void> released = release_a.get_future().share();
  std::atomic<bool> a_returned{false};
  std::thread caller_a([&] {
    std::vector<std::function<void()>> jobs;
    jobs.push_back([&a_started, released] {
      a_started.set_value();
      released.wait();
    });
    pool.run_all(std::move(jobs));
    a_returned.store(true);
  });
  a_started.get_future().wait();

  std::atomic<i32> b_ran{0};
  std::vector<std::function<void()>> jobs;
  for (i32 i = 0; i < 4; ++i) jobs.push_back([&b_ran] { b_ran.fetch_add(1); });
  pool.run_all(std::move(jobs));
  EXPECT_EQ(b_ran.load(), 4);
  EXPECT_FALSE(a_returned.load());

  release_a.set_value();
  caller_a.join();
  EXPECT_TRUE(a_returned.load());
}

TEST(ThreadPool, ThrowingJobIsRethrownAtCallerAndPoolStaysUsable) {
  ThreadPool pool(3);
  std::atomic<i32> ran{0};
  std::vector<std::function<void()>> jobs;
  for (i32 i = 0; i < 12; ++i) {
    jobs.push_back([&ran, i] {
      if (i == 5) throw std::runtime_error("job 5 failed");
      ran.fetch_add(1);
    });
  }
  try {
    pool.run_all(std::move(jobs));
    ADD_FAILURE() << "run_all did not rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "job 5 failed");
  }
  // Every other job of the batch still ran to completion.
  EXPECT_EQ(ran.load(), 11);

  // The workers survived: later batches run normally, and parallel_ranges
  // propagates a failure the same way.
  std::atomic<i64> sum{0};
  pool.parallel_ranges(100, 4, [&](i32, IndexRange r) {
    for (i32 i = r.lo; i < r.hi; ++i) sum.fetch_add(i);
  });
  EXPECT_EQ(sum.load(), 4950);
  EXPECT_THROW(pool.parallel_ranges(8, 4,
                                    [](i32 chunk, IndexRange) {
                                      if (chunk == 3) throw std::logic_error("x");
                                    }),
               std::logic_error);
  EXPECT_EQ(pool.thread_count(), 3u);
}

TEST(ThreadPool, SingleThreadPoolStillCorrect) {
  ThreadPool pool(1);
  std::atomic<i64> sum{0};
  pool.parallel_ranges(1000, 8, [&](i32, IndexRange r) {
    i64 local = 0;
    for (i32 i = r.lo; i < r.hi; ++i) local += i;
    sum.fetch_add(local);
  });
  EXPECT_EQ(sum.load(), 499500);
}

}  // namespace
}  // namespace tc::plat
