// Engine: the online placement front end (serving layer).
//
// Clients submit batched flow arrivals/departures; the engine keeps a
// middlebox deployment continuously good under that churn:
//
//   1. Deltas are applied to the FlowCoverageIndex in O(churn), not
//      O(|F| * |V|) rebuild.
//   2. Feasibility is restored synchronously: newly unserved flows are
//      greedy-covered with spare budget, so a snapshot published right
//      after SubmitBatch already serves every coverable flow.
//   3. When the re-solve cadence calls for it, a full re-solve
//      (IncrementalGtp, CELF) runs inline inside the same SubmitBatch
//      against the live index.  A completed re-solve is adopted only
//      under the hysteresis rule (bandwidth saved >= move_threshold per
//      middlebox moved — or unconditionally when the patched plan is
//      infeasible).
//
// The engine is a single-threaded state machine: it starts no threads of
// its own.  Running engines concurrently is the shard fleet's job
// (src/shard), which gives each engine its own worker thread.
//
// Fault tolerance (DESIGN.md Section 9).  The re-solve is the engine's
// only best-effort component — the synchronous patch keeps every
// coverable flow served no matter what — so all degradation machinery
// wraps re-solves:
//
//   * Re-solve attempts carry an optional per-attempt deadline; an expired
//     attempt returns its greedy prefix flagged deadline_expired.  By
//     Theorem 2 every greedy prefix is a valid deployment of at most k
//     middleboxes, so a feasible expired prefix may still be adopted (a
//     degraded answer now beats a perfect answer never).
//   * Failed / expired / injected-cancel attempts are retried inline, up
//     to max_resolve_retries per epoch.
//   * Consecutive re-solve failures drive a degradation state machine
//     NORMAL -> DEGRADED -> PATCH_ONLY.  DEGRADED labels a failure streak
//     and changes no scheduling; PATCH_ONLY stops re-solving except for a
//     probe attempt every probe_interval_epochs.  Any clean completion
//     resets the machine to NORMAL.
//
// Deployments are published as immutable, versioned snapshots behind
// shared_ptr: readers on any thread grab CurrentSnapshot() and keep using
// it without locks while newer versions supersede it.  In debug/sanitizer
// builds every published snapshot is validated by the src/analysis
// invariant auditors.
//
// Threading contract: SubmitBatch/index/Checkpoint/Restore must be called
// from one client thread (the serving loop); CurrentSnapshot and the
// readers that take state_mu_ (stats, histograms, Metrics) are safe from
// any thread.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "common/mutex.hpp"
#include "common/types.hpp"
#include "core/deployment.hpp"
#include "engine/coverage_index.hpp"
#include "engine/incremental_gtp.hpp"
#include "faults/faults.hpp"
#include "graph/digraph.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/quality.hpp"
#include "obs/timeseries.hpp"
#include "traffic/flow.hpp"

namespace tdmd::engine {

/// Degradation state machine (DESIGN.md Section 9.2).  The underlying
/// type is fixed so EngineStats stays a flat block of 64-bit words (see
/// the static_assert next to the checkpoint serializer).
enum class EngineMode : std::uint64_t {
  /// Healthy: re-solves run at the resolve_churn_fraction cadence.
  kNormal = 0,
  /// Re-solves keep failing (degrade_after_failures in a row).  A label
  /// for the failure streak: scheduling is the same as in NORMAL.
  kDegraded = 1,
  /// Re-solves presumed useless: only the synchronous patch runs, plus a
  /// probe re-solve every probe_interval_epochs to detect recovery.
  kPatchOnly = 2,
};

const char* EngineModeName(EngineMode mode);

struct EngineOptions {
  /// Middlebox budget k (Section 3.1); the engine never deploys more.
  /// This is the *initial* budget: a coordinator may retarget it later
  /// through Engine::SetBudget (shard fleets reallocate k across engines
  /// on epoch boundaries).
  std::size_t k = 8;
  /// Traffic-changing ratio lambda in [0, 1].
  double lambda = 0.5;
  /// Hysteresis: minimum bandwidth saving per moved middlebox before a
  /// completed re-solve replaces the maintained deployment.
  double move_threshold = 0.0;
  /// Re-solve cadence hysteresis: defer the full re-solve until the churn
  /// accumulated since the last scheduled re-solve reaches this fraction
  /// of the active flow set (at least one event).  Zero keeps the classic
  /// behavior — a re-solve every batch.  Deferred epochs still apply
  /// index deltas and the synchronous feasibility patch, so coverage
  /// never waits; only re-optimization is batched.  A shard fleet relies
  /// on this to keep engines that received a stray event or two from
  /// paying a full CELF solve for it.
  double resolve_churn_fraction = 0.0;
  /// Ignored: re-solves always run inline inside SubmitBatch.  Kept only
  /// because the benchmark harness (perfbench/cpp/workload_engine.cpp)
  /// still sets it.
  bool synchronous = true;

  // --- quality observability ----------------------------------------------

  /// Record a QualitySample on every snapshot publish (skipping the
  /// constructor's empty-deployment publish) and run the regression
  /// detectors over the stream.  O(|P| + |churn|) per epoch; the
  /// bench/quality_overhead leg pins the cost under the 5% budget.  The
  /// timeline keeps obs::QualityTimeline's default ring capacity and
  /// detector tuning.
  bool quality_sampling = true;

  // --- fault tolerance ----------------------------------------------------

  /// Optional fault injector wired into the coverage index (site
  /// kIndexDelta) and every re-solve attempt (site kGreedyRound).  Must
  /// outlive the engine.
  faults::FaultInjector* fault_injector = nullptr;
  /// Per-attempt re-solve deadline; zero means none.
  std::chrono::milliseconds solve_deadline{0};
  /// Retries per epoch after a failed/expired first attempt.  Retries
  /// run back to back without sleeping, keeping runs deterministic.
  std::size_t max_resolve_retries = 3;
  /// Consecutive re-solve failures before NORMAL -> DEGRADED and before
  /// DEGRADED -> PATCH_ONLY.  Must satisfy 1 <= degrade <= patch_only.
  std::uint64_t degrade_after_failures = 2;
  std::uint64_t patch_only_after_failures = 4;
  /// In PATCH_ONLY, probe with one re-solve every this many epochs.
  std::uint64_t probe_interval_epochs = 4;
};

/// Immutable published deployment.  Readers hold the shared_ptr as long
/// as they need; the engine never mutates a published snapshot.
struct DeploymentSnapshot {
  /// Monotonically increasing publish counter (unique per snapshot).
  std::uint64_t version = 0;
  /// Epoch whose flow set this snapshot was evaluated against.
  std::uint64_t epoch = 0;
  core::Deployment deployment;
  Bandwidth bandwidth = 0.0;
  bool feasible = false;
};

/// Owned-heap accounting of the engine's hot structures — the
/// MemoryFootprint() contract, independent of checkpoint size.  Feeds the
/// tdmd_mem_* gauges in Engine::Metrics and the fleet roll-up in
/// ShardedEngine::Metrics; bench/prof_capacity records it per run.
struct EngineMemoryStats {
  /// FlowCoverageIndex::MemoryFootprint() of the live index.
  std::size_t index_bytes = 0;
  /// Published DeploymentSnapshot (struct + owned deployment storage).
  std::size_t snapshot_bytes = 0;
  /// Active flow count — the denominator of tdmd_mem_bytes_per_flow.
  std::size_t active_flows = 0;
};

/// The uint64 counters of EngineStats, in declaration order.  The
/// checkpoint serializer iterates this list, and a static_assert ties it
/// to sizeof(EngineStats) so adding a counter without updating both is a
/// compile error.
#define TDMD_ENGINE_STATS_COUNTERS(X) \
  X(epochs)                           \
  X(arrivals)                         \
  X(departures)                       \
  X(stale_departures)                 \
  X(index_delta_ops)                  \
  X(index_fault_retries)              \
  X(patches)                          \
  X(patch_boxes)                      \
  X(adoptions)                        \
  X(middlebox_moves)                  \
  X(resolves_started)                 \
  X(resolves_completed)               \
  X(resolves_cancelled)               \
  X(resolve_failures)                 \
  X(resolve_timeouts)                 \
  X(resolve_retries)                  \
  X(resolves_expired_adopted)         \
  X(resolves_coalesced)               \
  X(watchdog_cancels)                 \
  X(mode_transitions)                 \
  X(degraded_epochs)                  \
  X(patch_only_epochs)                \
  X(consecutive_failures)             \
  X(gain_reevals)                     \
  X(reevals_saved)                    \
  X(snapshots_published)

/// Counter block; all values since engine construction.  Every started
/// re-solve attempt lands in exactly one terminal bucket, so
///   resolves_started == resolves_completed + resolve_failures
///                       + resolve_timeouts
/// holds after every SubmitBatch.
struct EngineStats {
  std::uint64_t epochs = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t departures = 0;
  /// Departure tickets that were already stale (departed or never issued);
  /// counted, not an error — SubmitBatch departures are idempotent.
  std::uint64_t stale_departures = 0;
  std::uint64_t index_delta_ops = 0;
  /// Index mutations retried after an injected kIndexDelta fault.
  std::uint64_t index_fault_retries = 0;
  /// Epochs where the synchronous patch added at least one middlebox.
  std::uint64_t patches = 0;
  std::uint64_t patch_boxes = 0;
  /// Completed re-solves adopted under the hysteresis rule.
  std::uint64_t adoptions = 0;
  std::uint64_t middlebox_moves = 0;
  std::uint64_t resolves_started = 0;
  std::uint64_t resolves_completed = 0;
  /// Always zero: inline re-solves are never superseded.  Kept, like
  /// resolves_coalesced and watchdog_cancels, so the checkpoint layout
  /// and the tdmd_engine_* metric names stay unchanged.
  std::uint64_t resolves_cancelled = 0;
  /// Attempts that threw or were cancelled by an injected fault.
  std::uint64_t resolve_failures = 0;
  /// Attempts that hit their deadline.
  std::uint64_t resolve_timeouts = 0;
  /// Retry attempts scheduled after an abnormal outcome.
  std::uint64_t resolve_retries = 0;
  /// Deadline-expired greedy prefixes adopted as degraded answers.
  std::uint64_t resolves_expired_adopted = 0;
  /// Always zero (see resolves_cancelled).
  std::uint64_t resolves_coalesced = 0;
  /// Always zero (see resolves_cancelled).
  std::uint64_t watchdog_cancels = 0;
  std::uint64_t mode_transitions = 0;
  /// Epochs served while in the respective degraded mode.
  std::uint64_t degraded_epochs = 0;
  std::uint64_t patch_only_epochs = 0;
  /// Current failure streak (resets to zero on any clean completion).
  std::uint64_t consecutive_failures = 0;
  /// CELF marginal-gain evaluations performed across all re-solves.
  std::uint64_t gain_reevals = 0;
  /// Evaluations a plain full-scan greedy would have performed but the
  /// lazy heap skipped (Theorem 2's dividend).
  std::uint64_t reevals_saved = 0;
  std::uint64_t snapshots_published = 0;
  /// Degradation mode at the time stats() was taken.
  EngineMode mode = EngineMode::kNormal;
};

/// Latency distributions (nanosecond samples) recorded unconditionally —
/// the cost is a handful of steady-clock reads per epoch, independent of
/// whether a tracer is installed.  Checkpointed alongside EngineStats (as
/// the optional histograms section of the engine-checkpoint record) and
/// exposed through Engine::Metrics / DumpMetrics.
struct EngineHistograms {
  /// Synchronous feasibility patch, one sample per epoch.
  obs::LatencyHistogram patch_ns;
  /// One re-solve attempt's solve wall time.
  obs::LatencyHistogram resolve_ns;
  /// Coverage-index churn delta (departures + arrivals), one sample per
  /// epoch.
  obs::LatencyHistogram index_delta_ns;
  /// One CELF greedy round inside a re-solve.
  obs::LatencyHistogram greedy_round_ns;
};

struct EngineCheckpoint;

class Engine {
 public:
  Engine(graph::Digraph network, EngineOptions options);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  struct BatchResult {
    std::uint64_t epoch = 0;
    /// One ticket per arrival, in submission order; pass them back as
    /// departures later.
    std::vector<FlowTicket> tickets;
    /// Middleboxes added by the synchronous feasibility patch.
    std::size_t patch_boxes = 0;
    /// Stage clocks for the fleet's end-to-end latency pipeline, in
    /// obs::MonotonicNanos() time: when the synchronous patch published
    /// its snapshot, and when the last published-state advance of this
    /// call landed (a resolve adoption when one happened inside the call,
    /// otherwise the patch publish itself).  Zero until the batch runs.
    std::uint64_t patched_ns = 0;
    std::uint64_t adopted_ns = 0;
  };

  // Public entry points carry TDMD_EXCLUDES(state_mu_): calling back into
  // the engine from a context that already holds the engine lock — e.g.
  // an obs hook invoked under state_mu_ — is a self-deadlock, and under
  // the thread-safety preset it is a compile error.

  /// Per-batch knobs for the overload path.
  struct SubmitOptions {
    /// Shed admission (the sharded fleet's load-shedding posture): the
    /// batch is applied in full — index deltas, feasibility patch,
    /// snapshot publish — but no re-solve is scheduled this epoch.  The
    /// churn still accumulates in pending_churn_, so the next un-shed
    /// epoch's cadence check sees the deferred work.  Equivalent to a
    /// PATCH_ONLY epoch without a mode transition.
    bool defer_resolve = false;
    /// Fleet-wide causal batch id stamped by the shard coordinator (0 =
    /// standalone engine, no binding).  Threaded onto this epoch's trace
    /// spans (epoch, patch, resolve-attempt, adoption, batch-adopted) so
    /// the merged fleet trace reconstructs one connected
    /// submit -> dequeue -> patch -> adopt chain per batch (DESIGN.md
    /// Section 15).
    std::uint64_t batch_id = 0;
  };

  /// Applies one epoch of churn: departures (stale tickets are counted
  /// and ignored) then arrivals; patches feasibility; publishes a
  /// snapshot; runs the re-solve the cadence and mode call for, inline,
  /// before returning.
  BatchResult SubmitBatch(const traffic::FlowSet& arrivals,
                          const std::vector<FlowTicket>& departures)
      TDMD_EXCLUDES(state_mu_);
  BatchResult SubmitBatch(const traffic::FlowSet& arrivals,
                          const std::vector<FlowTicket>& departures,
                          const SubmitOptions& submit)
      TDMD_EXCLUDES(state_mu_);

  /// Latest published snapshot (never null).  Thread-safe.
  std::shared_ptr<const DeploymentSnapshot> CurrentSnapshot() const
      TDMD_EXCLUDES(snapshot_mu_);

  EngineStats stats() const TDMD_EXCLUDES(state_mu_);

  /// Copy of the latency histograms accumulated so far.
  EngineHistograms histograms() const TDMD_EXCLUDES(state_mu_);

  /// Counters + histograms as a flat metrics registry: every
  /// TDMD_ENGINE_STATS_COUNTERS counter as `tdmd_engine_<name>`, the
  /// current mode as `tdmd_engine_mode`, and the four latency histograms.
  /// Counters, histograms and the quality timeline are captured under one
  /// state_mu_ acquisition, so cross-metric invariants (e.g. epochs ==
  /// patch-histogram count) hold within a single exposition.
  obs::MetricsRegistry Metrics() const TDMD_EXCLUDES(state_mu_);

  /// Renders Metrics() in the requested exposition format.
  void DumpMetrics(std::ostream& os, obs::MetricsFormat format) const
      TDMD_EXCLUDES(state_mu_);

  /// Owned heap bytes of the hot structures (index under state_mu_, the
  /// published snapshot under snapshot_mu_).  Thread-safe.
  EngineMemoryStats MemoryUsage() const
      TDMD_EXCLUDES(state_mu_, snapshot_mu_);

  /// Current degradation mode.
  EngineMode mode() const TDMD_EXCLUDES(state_mu_);

  /// Copy of the quality timeline: the epoch ring (oldest first), the
  /// alert log and the detector state.  Empty when quality_sampling is
  /// off.
  obs::QualityTimelineSnapshot QualityTimeline() const
      TDMD_EXCLUDES(state_mu_);

  /// Live coverage index (client-thread only; see threading contract).
  /// Exempt from the lock analysis: the single-client-thread contract,
  /// not state_mu_, is what makes this reference safe to hand out.
  const FlowCoverageIndex& index() const TDMD_NO_THREAD_SAFETY_ANALYSIS {
    return index_;
  }

  const EngineOptions& options() const { return options_; }

  /// Live middlebox budget.  Starts at options().k; SetBudget retargets
  /// it.
  std::size_t budget() const TDMD_EXCLUDES(state_mu_);

  /// Retargets the middlebox budget (k >= 1).  Used by the shard
  /// coordinator when the fleet reallocates the global budget across
  /// engines.  Takes effect on the next re-solve: a shrunken budget does
  /// not evict already-deployed middleboxes synchronously — the next
  /// adopted solve (forced due at the next batch) replaces the plan with
  /// one of at most k boxes.  Client-thread only, like SubmitBatch.
  void SetBudget(std::size_t k) TDMD_EXCLUDES(state_mu_);

  /// Marginal-decrement curve probe for the fleet budget allocator: runs
  /// one CELF solve against the live flow set with up to `budget`
  /// middleboxes and returns the chosen vertices' marginal decrements in
  /// selection order, WITHOUT adopting the solution or touching the
  /// maintained deployment.  By submodularity the curve is
  /// non-increasing past the feasibility-aware prefix, which is what the
  /// coordinator's CelfQueue greedy-merge over shards requires.  Runs
  /// inline on the calling thread; client-thread only, like SubmitBatch.
  std::vector<Bandwidth> ProbeMarginalGains(std::size_t budget)
      TDMD_EXCLUDES(state_mu_);

  /// Recomputes the optimality certificate for the CURRENT flow set and
  /// budget with one fresh CELF solve (no adoption, like the probe) and
  /// feeds it to the quality tracker, replacing whatever churn-inflated
  /// bound deferral left behind.  Returns the fresh certified upper bound
  /// on d(OPT_k).  Client-thread only, like SubmitBatch.
  Bandwidth RefreshCertificate() TDMD_EXCLUDES(state_mu_);

  /// Annotation-only alias for the engine's lock capability, so external
  /// code (obs hooks, tests) can spell caller-side contracts like
  /// TDMD_REQUIRES(engine.state_mutex()) and have the TDMD_EXCLUDES
  /// checks above catch deadlock inversions at compile time.  Never lock
  /// it directly.
  Mutex& state_mutex() const TDMD_RETURN_CAPABILITY(state_mu_) {
    return state_mu_;
  }

  // --- checkpoint/restore -------------------------------------------------

  /// Captures the complete client-visible state: flow set with exact
  /// tickets (and the free-slot stack, so post-restore arrivals draw the
  /// same tickets), deployment, maintained objective, epoch, snapshot
  /// version, mode and counters.  No re-solve is ever in flight between
  /// client calls, so the checkpoint is the whole engine state.
  EngineCheckpoint Checkpoint() const TDMD_EXCLUDES(state_mu_);

  /// Rebuilds this engine from `checkpoint`.  Must be called on a freshly
  /// constructed engine (no batches yet) whose network and options (k,
  /// lambda) match the checkpointed ones.  After Restore, replaying the
  /// post-checkpoint churn yields byte-identical snapshots to the
  /// uninterrupted run (pinned by tests/engine_checkpoint_test.cpp).
  void Restore(const EngineCheckpoint& checkpoint)
      TDMD_EXCLUDES(state_mu_);

 private:
  /// Greedy-covers currently unserved flows with spare budget; returns
  /// middleboxes added and refreshes maintained_feasible_.
  std::size_t PatchFeasibilityLocked() TDMD_REQUIRES(state_mu_);

  /// Publishes the current deployment as a new snapshot (and audits it in
  /// debug/sanitizer builds).
  void PublishLocked() TDMD_REQUIRES(state_mu_);

  /// Adopts `result` under the hysteresis rule (unconditionally when the
  /// maintained plan is infeasible).
  void MaybeAdoptLocked(const IncrementalGtpResult& result, bool expired)
      TDMD_REQUIRES(state_mu_);

  /// Classifies one finished attempt into its terminal bucket, applies
  /// adoption / failure-streak / mode effects, and returns true when the
  /// attempt should be retried.
  bool HandleResolveOutcomeLocked(const IncrementalGtpResult& result,
                                  bool threw, std::size_t attempt)
      TDMD_REQUIRES(state_mu_);

  void RecordResolveFailureLocked() TDMD_REQUIRES(state_mu_);
  void RecordResolveSuccessLocked() TDMD_REQUIRES(state_mu_);
  void TransitionLocked(EngineMode target) TDMD_REQUIRES(state_mu_);

  /// Re-solves against the live index for the current epoch, retrying
  /// abnormal attempts back to back up to max_resolve_retries.
  void ResolveLocked() TDMD_REQUIRES(state_mu_);

  /// EngineStats copy with the derived fields (index delta ops, mode,
  /// failure streak) filled in.
  EngineStats StatsLocked() const TDMD_REQUIRES(state_mu_);

  /// True when the accumulated churn (or a budget retarget) calls for a
  /// re-solve under resolve_churn_fraction.
  bool ResolveDueLocked() const TDMD_REQUIRES(state_mu_);

  /// Runs `fn`, retrying on injected kIndexDelta faults (the injector
  /// fires before any index mutation, so a retry is safe).
  template <typename Fn>
  decltype(auto) RetryIndexDeltaLocked(Fn&& fn) TDMD_REQUIRES(state_mu_);

  EngineOptions options_;  // immutable after construction

  mutable Mutex state_mu_;
  /// Live middlebox budget; options_.k until SetBudget retargets it.
  std::size_t budget_k_ TDMD_GUARDED_BY(state_mu_);
  /// Churn events since the last scheduled re-solve, for the
  /// resolve_churn_fraction deferral rule; checkpointed so a restored
  /// engine defers exactly like the uninterrupted run.
  std::uint64_t pending_churn_ TDMD_GUARDED_BY(state_mu_) = 0;
  /// SetBudget marks the plan dirty so the next batch re-solves even if
  /// the churn threshold is not met.
  bool budget_dirty_ TDMD_GUARDED_BY(state_mu_) = false;
  FlowCoverageIndex index_ TDMD_GUARDED_BY(state_mu_);
  core::Deployment deployment_ TDMD_GUARDED_BY(state_mu_);
  /// b(P) and feasibility of deployment_ against the index's current flow
  /// set, maintained incrementally (O(|p|) per arrival/departure, reset
  /// exactly on adoption) so no per-epoch full index sweep is needed.
  Bandwidth maintained_bandwidth_ TDMD_GUARDED_BY(state_mu_) = 0.0;
  bool maintained_feasible_ TDMD_GUARDED_BY(state_mu_) = true;
  /// Active flows with no deployed vertex on their path.  Arrivals are the
  /// only way coverage is lost (departures and adoptions of a feasible
  /// re-solve never unserve a survivor), so this is maintained by
  /// appending uncovered arrivals and clearing on feasible adoption;
  /// departed tickets are filtered out lazily by the patch.
  std::vector<FlowTicket> uncovered_ TDMD_GUARDED_BY(state_mu_);
  std::uint64_t epoch_ TDMD_GUARDED_BY(state_mu_) = 0;
  /// Fleet batch id of the in-progress SubmitBatch (0 outside a stamped
  /// batch); MaybeAdoptLocked and the re-solve read it to bind their
  /// trace events to the batch that caused them.
  std::uint64_t current_batch_id_ TDMD_GUARDED_BY(state_mu_) = 0;
  /// When the in-progress SubmitBatch adopted a re-solve, the
  /// MonotonicNanos() adoption time (0 otherwise); feeds
  /// BatchResult::adopted_ns.
  std::uint64_t last_adoption_ns_ TDMD_GUARDED_BY(state_mu_) = 0;
  EngineMode mode_ TDMD_GUARDED_BY(state_mu_) = EngineMode::kNormal;
  std::uint64_t consecutive_failures_ TDMD_GUARDED_BY(state_mu_) = 0;
  std::uint64_t epochs_since_probe_ TDMD_GUARDED_BY(state_mu_) = 0;
  EngineStats stats_ TDMD_GUARDED_BY(state_mu_);
  EngineHistograms histograms_ TDMD_GUARDED_BY(state_mu_);
  /// Quality observability (all guarded by state_mu_).  The tracker owns
  /// the optimality-certificate bookkeeping, the timeline the epoch ring
  /// and detectors; quality_prev_deployment_ is the deployment at the
  /// previous publish (for churn_moves) and quality_attribution_ the live
  /// per-vertex marginal-decrement ledger (rebuilt on adoption from the
  /// solver's chosen gains, appended to by the feasibility patch).
  obs::QualityTracker quality_tracker_ TDMD_GUARDED_BY(state_mu_);
  obs::QualityTimeline quality_timeline_ TDMD_GUARDED_BY(state_mu_);
  core::Deployment quality_prev_deployment_ TDMD_GUARDED_BY(state_mu_);
  std::vector<obs::VertexAttribution> quality_attribution_
      TDMD_GUARDED_BY(state_mu_);

  /// Lock ordering: snapshot_mu_ nests inside state_mu_ (PublishLocked
  /// and Checkpoint take it while holding state_mu_; CurrentSnapshot
  /// takes it alone).  Declared so the beta analysis rejects the inverse
  /// nesting.
  mutable Mutex snapshot_mu_ TDMD_ACQUIRED_AFTER(state_mu_);
  std::shared_ptr<const DeploymentSnapshot> snapshot_
      TDMD_GUARDED_BY(snapshot_mu_);
};

}  // namespace tdmd::engine
