// Fixed-size worker pool with a shared task queue.
//
// Used by the experiment harness to fan seeded trials out across cores and
// by GTP's optional parallel marginal-gain evaluation.  Design notes:
//   * Tasks are type-erased std::function<void()>; results flow through
//     futures (Submit) or caller-owned output slots (ParallelFor).
//   * The pool is explicitly sized; determinism of *results* is preserved
//     because each trial owns an independent Rng stream and writes to its
//     own output index — only completion order varies.
//   * Destruction joins all workers after draining the queue (RAII, no
//     detached threads).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/check.hpp"
#include "common/mutex.hpp"
#include "obs/trace.hpp"

namespace tdmd::parallel {

class ThreadPool {
 public:
  /// `num_threads == 0` selects std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t num_threads = 0);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains outstanding tasks, then joins all workers.
  ~ThreadPool();

  std::size_t num_threads() const { return workers_.size(); }

  /// Enqueues a callable; the future resolves with its result (or
  /// exception).
  template <typename F>
  auto Submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    Enqueue([task]() { (*task)(); });
    return future;
  }

  /// Blocks until all currently queued and running tasks finish.
  void Wait() TDMD_EXCLUDES(mutex_);

 private:
  // Tasks carry their enqueue timestamp when a tracer is installed, so the
  // pool-task-run span can report queue wait time as its arg.
  struct QueuedTask {
    std::function<void()> fn;
    std::uint64_t queued_ns = 0;  // obs::MonotonicNanos at enqueue; 0 = off
  };

  void Enqueue(std::function<void()> task) TDMD_EXCLUDES(mutex_);
  void WorkerLoop() TDMD_EXCLUDES(mutex_);

  /// Predicate for the worker wakeup wait (must hold mutex_).
  bool HasWorkOrShutdown() const TDMD_REQUIRES(mutex_) {
    return shutting_down_ || !queue_.empty();
  }

  std::vector<std::thread> workers_;  // written only by the constructor
  Mutex mutex_;
  CondVar work_available_;
  CondVar all_idle_;
  std::queue<QueuedTask> queue_ TDMD_GUARDED_BY(mutex_);
  std::size_t in_flight_ TDMD_GUARDED_BY(mutex_) = 0;  // queued + executing
  bool shutting_down_ TDMD_GUARDED_BY(mutex_) = false;
};

/// Runs fn(i) for i in [begin, end), partitioned into contiguous chunks
/// across the pool.  Blocks until every index is processed.  Exceptions
/// from fn propagate (first one wins).
template <typename Fn>
void ParallelFor(ThreadPool& pool, std::size_t begin, std::size_t end,
                 Fn&& fn) {
  if (begin >= end) return;
  const std::size_t count = end - begin;
  const std::size_t chunks =
      std::min(count, std::max<std::size_t>(1, pool.num_threads()));
  const std::size_t chunk_size = (count + chunks - 1) / chunks;

  std::vector<std::future<void>> futures;
  futures.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = begin + c * chunk_size;
    const std::size_t hi = std::min(end, lo + chunk_size);
    if (lo >= hi) break;
    futures.push_back(pool.Submit([lo, hi, &fn]() {
      for (std::size_t i = lo; i < hi; ++i) fn(i);
    }));
  }
  for (auto& f : futures) f.get();
}

/// Maps fn over [0, count), collecting results by index.  Result order is
/// deterministic regardless of scheduling.
template <typename Fn>
auto ParallelMap(ThreadPool& pool, std::size_t count, Fn&& fn)
    -> std::vector<std::invoke_result_t<Fn, std::size_t>> {
  using R = std::invoke_result_t<Fn, std::size_t>;
  std::vector<R> results(count);
  ParallelFor(pool, 0, count, [&](std::size_t i) { results[i] = fn(i); });
  return results;
}

}  // namespace tdmd::parallel
