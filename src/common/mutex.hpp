// Annotated lock primitives: thin wrappers over std::mutex /
// std::condition_variable carrying the Clang Thread Safety capability
// attributes from common/annotations.hpp.
//
// Every lock-holding component in src/ uses these instead of the raw
// standard types (tools/tdmd_lint rule raw-mutex enforces it outside
// src/common), so that under the `thread-safety` preset the compiler
// proves, per translation unit:
//   * every TDMD_GUARDED_BY member is only touched with its mutex held,
//   * every TDMD_REQUIRES function is only called under the right lock,
//   * every TDMD_EXCLUDES function is never called with the lock held
//     (re-entrant deadlocks become compile errors),
//   * declared TDMD_ACQUIRED_AFTER orderings are respected (beta check).
//
// The wrappers add no state and no behavior: Mutex is a std::mutex,
// MutexLock is a scope guard (std::lock_guard), and CondVar waits on the
// caller's already-held Mutex via adopt/release so the capability never
// appears to change hands.  Zero-cost when the attributes are off.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <utility>

#include "common/annotations.hpp"

namespace tdmd {

/// Annotated exclusive mutex.  Prefer MutexLock over manual Lock/Unlock
/// pairs; the manual API exists for the rare non-scoped pattern and for
/// CondVar's internals.
class TDMD_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() TDMD_ACQUIRE() { mu_.lock(); }
  void Unlock() TDMD_RELEASE() { mu_.unlock(); }
  bool TryLock() TDMD_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  /// The wrapped std::mutex, for interop that the analysis cannot model
  /// (CondVar's adopt/release dance).  Do not lock it directly.
  std::mutex& native() { return mu_; }

 private:
  std::mutex mu_;
};

/// RAII scope guard: acquires `mu` for the lifetime of the object.
class TDMD_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) TDMD_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;
  ~MutexLock() TDMD_RELEASE() { mu_.Unlock(); }

 private:
  Mutex& mu_;
};

/// Condition variable bound to an annotated Mutex at each wait.  All wait
/// forms require the caller to hold the Mutex (TDMD_REQUIRES), which is
/// exactly the std::condition_variable contract — but now checked at
/// compile time, including that the wait *predicate* itself is annotated
/// with the capability guarding the state it reads:
///
///   cv.Wait(mu_, [this]() TDMD_REQUIRES(mu_) { return ready_; });
///
/// Internally the wait adopts the caller's lock into a unique_lock and
/// releases it back on return, so from the analysis' point of view the
/// capability is held across the whole call (the transient unlock inside
/// std::condition_variable::wait is invisible, as it should be: the
/// predicate only runs with the lock held).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

  // The wait bodies are TDMD_NO_THREAD_SAFETY_ANALYSIS: the analysis is
  // intraprocedural and cannot prove that the predicate's required
  // capability (the caller's member mutex) is the same lock as the `mu`
  // parameter.  The REQUIRES contract on the declaration still checks
  // every caller, and the predicate's own body is still checked against
  // its annotation; only these four-line adapter bodies are exempt.

  /// Blocks until `pred()` is true; `mu` must be held and is held whenever
  /// `pred` runs.
  template <typename Pred>
  void Wait(Mutex& mu, Pred pred)
      TDMD_REQUIRES(mu) TDMD_NO_THREAD_SAFETY_ANALYSIS {
    std::unique_lock<std::mutex> lock(mu.native(), std::adopt_lock);
    while (!pred()) {
      cv_.wait(lock);
    }
    lock.release();  // hand the still-held lock back to the caller
  }

  /// Blocks until `pred()` is true or `timeout` elapses; returns pred().
  template <typename Rep, typename Period, typename Pred>
  bool WaitFor(Mutex& mu,
               const std::chrono::duration<Rep, Period>& timeout,
               Pred pred) TDMD_REQUIRES(mu) TDMD_NO_THREAD_SAFETY_ANALYSIS {
    std::unique_lock<std::mutex> lock(mu.native(), std::adopt_lock);
    const bool satisfied = cv_.wait_for(lock, timeout, std::move(pred));
    lock.release();
    return satisfied;
  }

 private:
  std::condition_variable cv_;
};

}  // namespace tdmd
