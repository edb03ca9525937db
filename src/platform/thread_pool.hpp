// Host thread pool for real (not simulated) stripe-parallel execution.
//
// Used by the executors to actually run data-parallel stripes concurrently
// on the host machine; the simulated platform timing comes from CostModel,
// so host core count never affects experiment results — only wall-clock.
//
// Several callers may share one pool (the streams of a StreamServer, the
// front and back stages of a FramePipeline).  Each run_all call is one
// batch with its own completion latch: it waits for its own jobs only,
// never for another caller's.  A job that throws does not take the worker
// down: the batch keeps its first exception, its other jobs still run to
// completion, and run_all rethrows that exception at its caller.
#pragma once

#include <exception>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "common/sync.hpp"
#include "common/types.hpp"

namespace tc::plat {

class ThreadPool {
 public:
  /// Spawn `threads` workers (0 = std::thread::hardware_concurrency()).
  /// With `pin_threads`, worker i is pinned to core i mod hardware cores
  /// (pthread_setaffinity_np); a no-op on platforms without the call — the
  /// pool works identically, only the scheduler placement hint is lost.
  explicit ThreadPool(usize threads = 0, bool pin_threads = false);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] usize thread_count() const { return workers_.size(); }
  /// True when every worker was successfully pinned to a core.
  [[nodiscard]] bool pinned() const { return pinned_; }

  /// Run all jobs (possibly concurrently) and block until every one of
  /// them finished — jobs of concurrent callers are not waited for.  If any
  /// job threw, rethrows the first exception caught after all jobs ran.
  /// Safe to call repeatedly and from several threads; not reentrant from
  /// inside a job.
  void run_all(std::vector<std::function<void()>> jobs);

  /// Split [0, count) into `chunks` contiguous ranges and run
  /// fn(chunk_index, range) for each in parallel.
  void parallel_ranges(i32 count, i32 chunks,
                       const std::function<void(i32, IndexRange)>& fn);

 private:
  /// Completion latch of one run_all call; lives on the caller's stack and
  /// is only touched under `mutex_`.
  struct Batch {
    usize pending = 0;
    std::exception_ptr error;
    common::CondVar done;
  };
  struct Job {
    std::function<void()> fn;
    Batch* batch = nullptr;
  };

  void worker_loop();

  std::vector<std::thread> workers_;
  common::Mutex mutex_;
  std::queue<Job> queue_ TC_GUARDED_BY(mutex_);
  common::CondVar cv_;
  bool stop_ TC_GUARDED_BY(mutex_) = false;
  bool pinned_ = false;
};

/// Compute the `chunk`-th of `chunks` contiguous ranges covering [0, count):
/// sizes differ by at most one row.
[[nodiscard]] IndexRange even_chunk(i32 count, i32 chunks, i32 chunk);

}  // namespace tc::plat
