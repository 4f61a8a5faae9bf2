#pragma once

// Lock-light structured event tracer.
//
// Each thread that emits gets its own fixed-capacity ring buffer of
// TraceEvents; rings overwrite their oldest entries when full and count the
// overwritten events as drops.  Every ring has its own mutex, which is
// uncontended on the hot path (only the owning thread writes it) and exists
// so Drain() can read concurrently with emission — so the steady-state cost
// of an enabled span is a clock read plus an uncontended lock per endpoint,
// and the cost with no tracer installed is a single relaxed atomic load.
//
// Lifecycle contract: the tracer must outlive every thread that may emit
// into it.  Install with InstallTracer(&tracer), and before destroying the
// tracer call InstallTracer(nullptr) and quiesce the instrumented threads
// (e.g. join a thread pool's workers, or destroy a shard fleet).
// ScopedSpan captures the installed tracer at construction, so a span that
// straddles an uninstall still writes into the tracer it started with.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.hpp"
#include "obs/histogram.hpp"

namespace tdmd::obs {

enum class TracePhase : std::uint8_t;

namespace internal {

/// Shared observability hook-flags word: bit 0 = tracer installed, bit 1 =
/// profiler installed.  ScopedSpan and TraceInstant check it with ONE
/// relaxed load and bail when it is zero, so the entire cost of an
/// instrumentation hook with no tracer and no profiler installed is a
/// single relaxed atomic load (bench/obs_overhead holds this budget).
inline constexpr std::uint32_t kHookTracer = 1U << 0;
inline constexpr std::uint32_t kHookProfiler = 1U << 1;

extern std::atomic<std::uint32_t> g_obs_hooks;

inline std::uint32_t ObsHooks() {
  return g_obs_hooks.load(std::memory_order_relaxed);
}

/// Sets/clears one hook bit; called by InstallTracer/InstallProfiler only.
void SetObsHook(std::uint32_t bit, bool enabled);

/// Profiler phase-stack maintenance (defined in profiler.cpp): push/pop
/// the calling thread's phase stack that the SIGPROF handler samples.
/// Called by ScopedSpan only while the profiler hook bit is set.
void ProfilerSpanEnter(TracePhase phase) noexcept;
void ProfilerSpanExit() noexcept;

}  // namespace internal

/// Instrumented phases across the engine, thread pool, and batch solvers.
enum class TracePhase : std::uint8_t {
  kEpoch,           // engine: one SubmitBatch call (arg: epoch)
  kIndexDelta,      // engine: coverage-index churn delta (arg: ops)
  kPatch,           // engine: synchronous feasibility patch (arg: boxes)
  kResolveAttempt,  // engine: one incremental-GTP solve (arg: attempt)
  kAdoption,        // engine: re-solve adoption instant (arg: moves)
  kBackoff,         // engine: re-solve backoff edge (arg: 1 enter, 0 exit)
  kCheckpoint,      // engine: checkpoint capture
  kRestore,         // engine: checkpoint restore
  kPoolTaskQueued,  // thread pool: task enqueued
  kPoolTaskRun,     // thread pool: task execution (arg: queue wait ns)
  kGtpRound,        // GTP/incremental-GTP greedy round (arg: round)
  kCelfPop,         // CELF lazy-greedy pop (arg: gain re-evaluations)
  kDpNodeMerge,     // tree-DP per-node table merge (arg: vertex)
  kHatExtract,      // HAT lazy heap extraction
  kQualitySample,   // engine: per-epoch quality sample (arg: packed
                    // epoch/ratio, see obs::PackQualitySampleArg)
  kQualityAlert,    // engine: quality alert edge (arg: packed
                    // epoch/kind/raised, see obs::PackQualityAlertArg)
  kFleetSubmit,     // coordinator: one fleet SubmitBatch routing span
                    // (arg: touched shards; batch: batch id)
  kQueueDwell,      // shard worker: route→dequeue MPSC queue dwell
                    // (arg: shard; batch: batch id)
  kBatchAdopted,    // engine: published state advanced for a fleet batch
                    // (arg: epoch; batch: batch id)
  kShardRecovery,   // coordinator: crashed shard respawned (arg: shard)
  kShedBatch,       // coordinator: batch admitted shed — re-solve
                    // deferred (arg: shard; batch: batch id)
};

inline constexpr std::size_t kNumTracePhases = 21;

/// Stable dash-separated name used in trace output and reports.
const char* TracePhaseName(TracePhase phase);

struct TraceEvent {
  TracePhase phase = TracePhase::kEpoch;
  bool is_span = false;  // span (has duration) vs instant
  std::uint32_t tid = 0;  // dense per-tracer thread index
  std::uint64_t start_ns = 0;  // steady-clock ns since tracer construction
  std::uint64_t duration_ns = 0;  // 0 for instants
  std::uint64_t arg = 0;  // phase-specific payload (see TracePhase)
  /// Causal batch id binding this event to one fleet SubmitBatch (0 =
  /// unbound).  Bound events carry `"batch"` in their Chrome args and a
  /// shared flow-event chain ("ph":"s"/"t"/"f") so Perfetto draws one
  /// connected arrow per batch across the coordinator and worker rings.
  std::uint64_t batch = 0;
};

struct TraceDrainResult {
  /// All buffered events, sorted by (start_ns, tid).
  std::vector<TraceEvent> events;
  /// Events overwritten by ring wrap-around since construction.
  std::uint64_t dropped = 0;
  /// Number of distinct emitting threads seen.
  std::size_t num_threads = 0;
};

class Tracer {
 public:
  /// `ring_capacity` is the per-thread buffer size in events.
  explicit Tracer(std::size_t ring_capacity = kDefaultRingCapacity);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;
  ~Tracer();

  /// Nanoseconds since this tracer was constructed.
  std::uint64_t NowNs() const { return MonotonicNanos() - origin_ns_; }

  /// Appends one event to the calling thread's ring (overwriting the
  /// oldest buffered event when full).  Thread-safe.  `batch` binds the
  /// event to a fleet batch for causal flow reconstruction (0 = unbound).
  void Emit(TracePhase phase, bool is_span, std::uint64_t start_ns,
            std::uint64_t duration_ns, std::uint64_t arg,
            std::uint64_t batch = 0);

  /// Collects and clears every ring.  Safe to call concurrently with
  /// emission; concurrent events land in the next drain.
  TraceDrainResult Drain() TDMD_EXCLUDES(rings_mu_);

  /// Events overwritten by ring wrap-around since construction, without
  /// draining the rings (the per-ring overwrite counters are cumulative,
  /// so this matches the `dropped` field of a Drain issued at the same
  /// moment).  Thread-safe; Engine::Metrics exposes it as
  /// tdmd_trace_dropped_total.
  std::uint64_t DroppedTotal() TDMD_EXCLUDES(rings_mu_);

  static constexpr std::size_t kDefaultRingCapacity = 1U << 14;

 private:
  // Lock ordering: rings_mu_ before Ring::mu (Drain/DroppedTotal iterate
  // rings_ under rings_mu_ and lock each ring inside; no path locks the
  // other way around).
  struct Ring {
    Mutex mu;
    std::vector<TraceEvent> events
        TDMD_GUARDED_BY(mu);                      // ring_capacity slots
    std::size_t next TDMD_GUARDED_BY(mu) = 0;     // write cursor
    std::size_t size TDMD_GUARDED_BY(mu) = 0;     // filled slots
    std::uint64_t overwritten TDMD_GUARDED_BY(mu) = 0;
    std::uint32_t tid = 0;  // set once at registration, then read-only
  };

  Ring& ThreadRing() TDMD_EXCLUDES(rings_mu_);

  const std::size_t ring_capacity_;
  const std::uint64_t origin_ns_;
  const std::uint64_t generation_;
  Mutex rings_mu_;  // guards rings_ growth; ring contents use Ring::mu
  std::vector<std::unique_ptr<Ring>> rings_ TDMD_GUARDED_BY(rings_mu_);
};

/// Installs `tracer` as the process-wide current tracer (nullptr to
/// disable).  The caller keeps ownership and must respect the lifecycle
/// contract above.  Uninstalling (or replacing) a tracer latches its
/// cumulative DroppedTotal() into the process-wide last-known drop total,
/// so TraceDropTotal() keeps answering after the tracer is gone.
void InstallTracer(Tracer* tracer);

/// The installed tracer, or nullptr.  One atomic load; this is the whole
/// cost of an instrumentation hook when tracing is off.
Tracer* CurrentTracer();

/// Cumulative ring-overwrite drop total: the live tracer's DroppedTotal()
/// while one is installed, otherwise the total latched from the last
/// uninstalled tracer.  Metrics expositions read this so a post-run
/// scrape of tdmd_trace_dropped_total does not silently report zero.
std::uint64_t TraceDropTotal();

/// RAII span: captures the current tracer and start time at construction,
/// emits a span with the elapsed duration at destruction, and — while a
/// profiler is installed — pushes the phase onto the thread-local phase
/// stack the SIGPROF sampler attributes against.  Inert (no clock reads,
/// one relaxed atomic load total) when neither hook is installed.
class ScopedSpan {
 public:
  explicit ScopedSpan(TracePhase phase, std::uint64_t arg = 0)
      : phase_(phase), arg_(arg) {
    const std::uint32_t hooks = internal::ObsHooks();
    if (hooks == 0) {
      return;
    }
    if ((hooks & internal::kHookTracer) != 0) {
      tracer_ = CurrentTracer();
      if (tracer_ != nullptr) {
        start_ns_ = tracer_->NowNs();
      }
    }
    if ((hooks & internal::kHookProfiler) != 0) {
      internal::ProfilerSpanEnter(phase_);
      pushed_ = true;
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    // Pop exactly when the constructor pushed, so the phase stack stays
    // balanced across a profiler uninstalled mid-span.
    if (pushed_) {
      internal::ProfilerSpanExit();
    }
    if (tracer_ != nullptr) {
      tracer_->Emit(phase_, /*is_span=*/true, start_ns_,
                    tracer_->NowNs() - start_ns_, arg_, batch_);
    }
  }

  void set_arg(std::uint64_t arg) { arg_ = arg; }
  /// Binds the span to a fleet batch (see TraceEvent::batch).
  void set_batch(std::uint64_t batch) { batch_ = batch; }

 private:
  Tracer* tracer_ = nullptr;
  TracePhase phase_;
  std::uint64_t arg_;
  std::uint64_t batch_ = 0;
  std::uint64_t start_ns_ = 0;
  bool pushed_ = false;
};

/// Emits a zero-duration instant event; no-op (one relaxed atomic load)
/// when no tracer is installed.
inline void TraceInstant(TracePhase phase, std::uint64_t arg = 0,
                         std::uint64_t batch = 0) {
  if ((internal::ObsHooks() & internal::kHookTracer) == 0) {
    return;
  }
  if (Tracer* tracer = CurrentTracer(); tracer != nullptr) {
    tracer->Emit(phase, /*is_span=*/false, tracer->NowNs(), 0, arg, batch);
  }
}

/// Writes events as Chrome trace_event JSON (load in chrome://tracing or
/// Perfetto): spans as "ph":"X" complete events, instants as "ph":"i",
/// timestamps in microseconds.  Batch-bound events additionally carry
/// `"batch"` in args and are stitched with flow events — start/step/
/// finish records sharing id = batch — so the viewer draws one arrow per
/// batch across threads.  Flow-event emission lives here on purpose:
/// tools/tdmd_lint bans it outside src/obs (rule flow-event).
void WriteChromeTrace(std::ostream& os, const TraceDrainResult& drained);

/// One run event read back from a Chrome trace by ReadChromeTrace.  Times
/// stay in the file's microseconds, exactly as written.
struct ChromeTraceEvent {
  std::string name;
  bool is_span = false;  // "ph":"X" (has a duration) vs instant
  double tid = 0.0;      // 0 when absent
  double ts_us = 0.0;
  double dur_us = 0.0;   // 0 for instants
  bool has_arg = false;  // args.arg present and a non-negative integer
  std::uint64_t arg = 0;
  std::uint64_t batch = 0;  // args.batch (0 = unbound)
};

struct ChromeTrace {
  bool ok = false;
  std::string error;  // one-line diagnostic when !ok
  /// Run events in file order.
  std::vector<ChromeTraceEvent> events;
  /// Events the tracer's rings overwrote before the drain
  /// (otherData.dropped); nonzero means the trace is partial.
  std::uint64_t dropped = 0;
};

/// Reads a file written by WriteChromeTrace: the narrow JSON subset it
/// emits (a "traceEvents" array of flat objects, any key order), without
/// a general JSON dependency.  Fails (ok=false) on a missing or
/// non-array "traceEvents", a truncated or unbalanced object, an event
/// missing name/ph/ts, a span without dur, or a trace with no events.
/// Flow records ("ph":"s"/"t"/"f") are viewer decorations derived from
/// batch ids, not run events, so they are validated and then skipped.
/// Every report section reads traces through this one parser.
ChromeTrace ReadChromeTrace(std::istream& is);

}  // namespace tdmd::obs
