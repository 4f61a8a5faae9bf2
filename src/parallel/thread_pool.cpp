#include "parallel/thread_pool.hpp"

namespace tdmd::parallel {

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this]() { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.NotifyAll();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::Enqueue(std::function<void()> task) {
  QueuedTask queued{std::move(task), 0};
  if (obs::CurrentTracer() != nullptr) {
    queued.queued_ns = obs::MonotonicNanos();
    obs::TraceInstant(obs::TracePhase::kPoolTaskQueued);
  }
  {
    MutexLock lock(mutex_);
    TDMD_CHECK_MSG(!shutting_down_, "Submit after ThreadPool destruction");
    queue_.push(std::move(queued));
    ++in_flight_;
  }
  work_available_.NotifyOne();
}

void ThreadPool::Wait() {
  MutexLock lock(mutex_);
  all_idle_.Wait(mutex_,
                 [this]() TDMD_REQUIRES(mutex_) { return in_flight_ == 0; });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    QueuedTask task;
    {
      MutexLock lock(mutex_);
      work_available_.Wait(
          mutex_, [this]() TDMD_REQUIRES(mutex_) {
            return HasWorkOrShutdown();
          });
      if (queue_.empty()) {
        // shutting_down_ && empty queue: exit.  Tasks queued before the
        // destructor ran are still drained because the predicate prefers
        // non-empty queues.
        return;
      }
      task = std::move(queue_.front());
      queue_.pop();
    }
    {
      // Span arg: how long the task sat in the queue (0 when the tracer
      // was off at enqueue time).
      obs::ScopedSpan run_span(
          obs::TracePhase::kPoolTaskRun,
          task.queued_ns != 0 ? obs::MonotonicNanos() - task.queued_ns : 0);
      task.fn();  // packaged_task captures exceptions into the future
    }
    {
      MutexLock lock(mutex_);
      if (--in_flight_ == 0) {
        all_idle_.NotifyAll();
      }
    }
  }
}

}  // namespace tdmd::parallel
