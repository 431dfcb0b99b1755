// Fixed-size worker pool for deterministic fan-out of independent tasks.
//
// Deliberately work-stealing-free: a single FIFO queue feeds the workers,
// so tasks *start* in submission order and the pool adds no scheduling
// randomness of its own. Determinism of results is the caller's contract:
// tasks write to disjoint, pre-allocated slots and every reduction happens
// serially in the caller, so numeric output is bit-identical for any pool
// size (including 1).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace manetcap::util {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers; 0 means default_num_threads(). If a
  /// worker fails to start, the ones already started are joined and the
  /// error is rethrown.
  explicit ThreadPool(std::size_t num_threads = 0);

  /// Joins the workers. No task is pending then: parallel_for returns only
  /// after every runner it queued has run.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Group-scoped fan-out: runs fn(0), …, fn(count-1) with at most `width`
  /// indices executing concurrently (0 = no extra cap beyond the pool),
  /// and blocks until exactly these indices finish, so concurrent groups
  /// (from different callers sharing one pool) cannot observe each other.
  /// The calling thread participates as one of the runners, so a pool of
  /// W workers sustains W+1-wide groups and a fan-out on a fully busy pool
  /// still makes progress on the caller. Every index runs even if another
  /// throws; afterwards the exception of the lowest failing index is
  /// rethrown, so error reporting does not depend on thread timing.
  ///
  /// Do not call parallel_for from inside a task of a group that can
  /// occupy every worker: the nested caller waits for runners queued behind
  /// busy workers, and nothing runs them.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn,
                    std::size_t width = 0);

  /// Process-wide persistent pool (default_num_threads() workers, created
  /// on first use). Callers that fan out repeatedly — run_sweep above all —
  /// share these workers instead of paying thread creation and teardown
  /// per call.
  static ThreadPool& shared();

  /// Worker count to use when the caller does not care: the
  /// MANETCAP_THREADS environment variable if set to an integer in
  /// [1, 1024], otherwise std::thread::hardware_concurrency() (minimum 1).
  /// MANETCAP_THREADS=0 also means all cores; any other value throws a
  /// CheckError that names the variable.
  static std::size_t default_num_threads();

 private:
  /// Queues one of parallel_for's runners; tasks are dequeued FIFO.
  void submit(std::function<void()> task);
  void worker_loop();
  /// Sets shutdown_ and joins every started worker.
  void join_workers();

  std::mutex mu_;
  std::condition_variable cv_work_;  // queue became non-empty / shutdown
  std::deque<std::function<void()>> queue_;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace manetcap::util
