#ifndef PHOCUS_UTIL_THREAD_POOL_H_
#define PHOCUS_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

/// \file thread_pool.h
/// A fixed-size worker pool plus a blocking ParallelFor helper.
///
/// Embedding extraction and marginal-gain evaluation over large candidate
/// sets are embarrassingly parallel; the pool keeps those paths simple.

namespace phocus {

/// Fixed-size thread pool. Tasks are `std::function<void()>`.
class ThreadPool {
 public:
  /// Creates `num_threads` workers; 0 means `hardware_concurrency()`.
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for asynchronous execution.
  void Submit(std::function<void()> task);

  /// Blocks until all submitted tasks have completed. Must not be called
  /// from a pool worker (the worker's own task can never drain).
  void Wait();

  std::size_t num_threads() const { return workers_.size(); }

  /// Runs `body(i)` for i in [0, count) and blocks until all iterations
  /// finish. Iterations are chunked to limit queue churn. Safe to call
  /// concurrently from several threads (completion is tracked per call,
  /// not via the global Wait), and safe to call from a task of this pool —
  /// such a nested call runs inline on the calling worker instead of
  /// deadlocking on its own unfinished task; any other thread, a worker of
  /// another pool included, fans out. Runs inline too when the pool has a
  /// single worker or `count` is small; either way every index is visited
  /// exactly once, so callers may depend on it only for throughput.
  ///
  /// If `body` throws (e.g. a PHOCUS_CHECK failure), the first exception is
  /// rethrown on the calling thread after every worker has drained — the
  /// call never deadlocks and never terminates the process. Remaining
  /// chunks are abandoned, but chunks already claimed by other workers run
  /// to completion, so some indices past the throwing one may still be
  /// visited; later exceptions are dropped.
  void ParallelFor(std::size_t count,
                   const std::function<void(std::size_t)>& body);

  /// Process-wide shared pool (lazily constructed). Sized from the
  /// PHOCUS_NUM_THREADS environment variable when set to a positive
  /// integer, else `hardware_concurrency()`. Read once at first use.
  static ThreadPool& Global();

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable task_available_;
  std::condition_variable all_done_;
  std::size_t in_flight_ = 0;
  bool shutting_down_ = false;
};

}  // namespace phocus

#endif  // PHOCUS_UTIL_THREAD_POOL_H_
