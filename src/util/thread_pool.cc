#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>

#include "util/failpoint.h"

namespace phocus {

namespace {

/// The pool owning this thread, or null. A ParallelFor issued from a task
/// of the same pool must not block on that pool (its own task holds a
/// worker the fan-out may need); it runs inline. Other threads fan out.
thread_local const ThreadPool* t_worker_of = nullptr;

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] {
      t_worker_of = this;
      WorkerLoop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  task_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_available_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_available_.wait(lock,
                           [this] { return shutting_down_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // shutting down
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    // Delay-only: WorkerLoop has no exception barrier, so a thrown action
    // would std::terminate the process. A delay perturbs task scheduling,
    // which is what races under TSan care about anyway.
    PHOCUS_FAILPOINT_DELAY_ONLY("thread_pool.task");
    task();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--in_flight_ == 0) all_done_.notify_all();
    }
  }
}

void ThreadPool::ParallelFor(std::size_t count,
                             const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  const std::size_t threads = num_threads();
  if (threads <= 1 || count < 2 * threads || t_worker_of == this) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  const std::size_t chunks = threads * 4;
  const std::size_t chunk_size = (count + chunks - 1) / chunks;
  std::atomic<std::size_t> next_chunk{0};
  std::atomic<bool> abort{false};

  // Per-call completion state: concurrent ParallelFor calls (e.g. the UC
  // and CB CELF passes running side by side) each wait only on their own
  // tasks, not on the pool-wide in_flight_ count.
  struct Completion {
    std::mutex mutex;
    std::condition_variable done;
    std::size_t pending;
    std::exception_ptr first_error;
  } completion;
  completion.pending = threads;

  for (std::size_t t = 0; t < threads; ++t) {
    Submit([&, chunk_size, count] {
      while (!abort.load(std::memory_order_relaxed)) {
        const std::size_t c = next_chunk.fetch_add(1);
        const std::size_t begin = c * chunk_size;
        if (begin >= count) break;
        const std::size_t end = std::min(count, begin + chunk_size);
        try {
          for (std::size_t i = begin; i < end; ++i) body(i);
        } catch (...) {
          // A body exception must never escape into WorkerLoop (which has
          // no barrier and would std::terminate). Record the first one for
          // the calling thread and abandon the remaining chunks; chunks
          // already claimed by other workers still run to completion.
          abort.store(true, std::memory_order_relaxed);
          std::lock_guard<std::mutex> lock(completion.mutex);
          if (!completion.first_error) {
            completion.first_error = std::current_exception();
          }
          break;
        }
      }
      std::lock_guard<std::mutex> lock(completion.mutex);
      if (--completion.pending == 0) completion.done.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(completion.mutex);
  completion.done.wait(lock, [&] { return completion.pending == 0; });
  if (completion.first_error) std::rethrow_exception(completion.first_error);
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool pool([] {
    if (const char* env = std::getenv("PHOCUS_NUM_THREADS")) {
      const long parsed = std::strtol(env, nullptr, 10);
      if (parsed > 0) return static_cast<std::size_t>(parsed);
    }
    return static_cast<std::size_t>(0);
  }());
  return pool;
}

}  // namespace phocus
