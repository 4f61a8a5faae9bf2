#pragma once

// Lock-light in-process sampling CPU profiler.
//
// A POSIX interval timer (ITIMER_PROF) delivers SIGPROF to whichever thread
// is consuming CPU; the handler attributes the sample to the phases the
// thread currently has open — the thread-local phase stack maintained by
// obs::ScopedSpan — and appends one packed 64-bit word to the thread's
// fixed-capacity sample ring (overwrite-oldest with drop counting, the same
// discipline as the tracer's event rings).  Profiles therefore speak the
// same vocabulary as traces: epoch, patch, gtp-round, celf-pop, ...
//
// Signal-safety rules (DESIGN.md §16): the SIGPROF handler performs no
// allocation, takes no locks, and touches only (a) lock-free atomics and
// (b) thread-local POD that is only ever written by the interrupted thread
// itself, ordered with std::atomic_signal_fence.  Ring registration — which
// does allocate — happens on the normal span-entry path, never in the
// handler; samples delivered to a thread that has not yet registered are
// counted as `orphaned` instead of being recorded.
//
// Lifecycle contract (mirrors the tracer): the profiler must outlive every
// thread that may run spans while it is installed.  Install with
// InstallProfiler(&profiler); InstallProfiler(nullptr) disarms the timer,
// waits for in-flight handlers to retire, and latches the cumulative drop
// and sample totals so ProfileDropTotal()/ProfileSampleTotal() keep
// answering after the profiler is gone.  Drain() requires the profiler to
// be uninstalled.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "common/mutex.hpp"
#include "obs/trace.hpp"

namespace tdmd::obs {

/// Maximum attributable stack depth: a sample packs its depth plus up to 7
/// phase bytes into one 64-bit ring slot (what keeps the handler wait-free
/// and the drain TSan-clean).  Deeper nesting keeps the outermost 7 frames.
inline constexpr std::size_t kMaxProfiledDepth = 7;

/// One aggregated collapsed stack: phases root-first, plus sample count.
/// An empty phase vector is an unattributed sample (no span was open).
struct ProfStack {
  std::vector<TracePhase> phases;
  std::uint64_t count = 0;
};

struct ProfDrainResult {
  /// Aggregated stacks, sorted by count descending.
  std::vector<ProfStack> stacks;
  /// Samples represented in `stacks` (drops already excluded).
  std::uint64_t samples = 0;
  /// Samples overwritten by ring wrap-around since construction.
  std::uint64_t dropped = 0;
  /// Samples delivered to threads that never registered a ring.
  std::uint64_t orphaned = 0;
  /// Number of distinct registered sample rings (one per thread).
  std::size_t num_threads = 0;
  /// Configured sampling rate, echoed into the collapsed-profile header.
  std::uint32_t sample_hz = 0;
};

class Profiler {
 public:
  struct Options {
    /// SIGPROF delivery rate against consumed CPU time.  An odd prime so
    /// the sampler does not phase-lock with millisecond-periodic work.
    std::uint32_t sample_hz = kDefaultSampleHz;
    /// Per-thread sample-ring capacity in samples.
    std::size_t ring_capacity = kDefaultRingCapacity;
  };

  Profiler();  // defaults: kDefaultSampleHz, kDefaultRingCapacity
  explicit Profiler(Options options);
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;
  ~Profiler();

  std::uint32_t sample_hz() const { return options_.sample_hz; }

  /// Cumulative samples lost to ring overwrite.  Thread-safe; exposed by
  /// Engine::Metrics as tdmd_profile_dropped_total (latched on uninstall).
  std::uint64_t DroppedTotal() TDMD_EXCLUDES(rings_mu_);

  /// Cumulative samples delivered (recorded + orphaned).  Thread-safe.
  std::uint64_t SampleTotal() TDMD_EXCLUDES(rings_mu_);

  /// Aggregates and clears every ring.  Must only be called while this
  /// profiler is NOT installed (the SIGPROF handler writes rings without
  /// locks; uninstall is the quiesce point).
  ProfDrainResult Drain() TDMD_EXCLUDES(rings_mu_);

  static constexpr std::uint32_t kDefaultSampleHz = 997;
  static constexpr std::size_t kDefaultRingCapacity = 1U << 16;

 private:
  friend struct ProfilerAccess;  // handler-side access, see profiler.cpp

  // One per emitting thread.  `head` counts every sample ever written into
  // this ring (drained resets fold into drained_samples_/drained_drops_).
  // Slots pack depth in byte 0 and root-first phase bytes above it, and
  // are accessed only through std::atomic_ref, so a concurrent reader
  // never races the handler.  The slot storage is not written before use
  // (a fresh ring costs no fill, so a new thread's first span does not
  // stall on it while samples go orphaned): a slot is read only after the
  // handler stored it, since Drain reads [head - count, head).
  struct Ring {
    explicit Ring(std::size_t size)
        : slots(std::make_unique_for_overwrite<std::uint64_t[]>(size)),
          capacity(size) {}
    std::unique_ptr<std::uint64_t[]> slots;
    std::size_t capacity;
    std::atomic<std::uint64_t> head{0};
    std::uint32_t tid = 0;  // set once at registration, then read-only
  };

  /// Registers (or returns) the calling thread's ring.  Normal-context
  /// only: allocates and takes rings_mu_.
  Ring* ThreadRing() TDMD_EXCLUDES(rings_mu_);

  const Options options_;
  const std::uint64_t generation_;  // process-unique, keys the TLS cache
  std::atomic<std::uint64_t> orphaned_{0};
  std::uint64_t drained_samples_ TDMD_GUARDED_BY(rings_mu_) = 0;
  std::uint64_t drained_drops_ TDMD_GUARDED_BY(rings_mu_) = 0;
  Mutex rings_mu_;  // guards rings_ growth and the drained_* accumulators
  std::vector<std::unique_ptr<Ring>> rings_ TDMD_GUARDED_BY(rings_mu_);
};

/// Installs `profiler` as the process-wide sampler: arms the SIGPROF
/// handler plus ITIMER_PROF at profiler->sample_hz(), and sets the
/// profiler bit in the shared obs hook-flags word so spans start
/// maintaining the phase stack.  Passing nullptr disarms the timer, spins
/// until in-flight handlers retire (the uninstall-while-sampling race is
/// covered under TSan), and latches DroppedTotal()/SampleTotal() into the
/// process-wide last-known totals.  The caller keeps ownership.
void InstallProfiler(Profiler* profiler);

/// The installed profiler, or nullptr.
Profiler* CurrentProfiler();

/// Cumulative sample-drop total: the live profiler's DroppedTotal() while
/// one is installed, otherwise the total latched from the last uninstalled
/// profiler — same latching contract as TraceDropTotal().
std::uint64_t ProfileDropTotal();

/// Cumulative samples delivered, latched across uninstall the same way.
std::uint64_t ProfileSampleTotal();

/// Writes a drained profile as collapsed stacks — one
/// "phase;phase;phase <count>" line per distinct stack, root first —
/// preceded by a "# tdmd-prof samples=... dropped=... orphaned=...
/// threads=... hz=..." header.  The stack lines are directly consumable by
/// flamegraph tooling (e.g. flamegraph.pl); unattributed samples render as
/// a single "(unattributed)" frame.
void WriteCollapsedProfile(std::ostream& os, const ProfDrainResult& drained);

}  // namespace tdmd::obs
