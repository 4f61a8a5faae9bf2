// ShardedEngine: the multi-engine serving fleet (DESIGN.md Section 13).
//
// One coordinator fronts N engine::Engine instances, each owned by a
// dedicated worker thread.  The topology is split once at construction by
// the deterministic partitioner (shard/partition.hpp); every flow is
// pinned to exactly one owner shard (OwnerShard) and all of its events —
// arrival, departure, accounting — happen on that shard, so no flow's
// bandwidth is ever counted twice (the exactly-once property the fleet
// tests pin).
//
// Data path.  SubmitBatch groups one epoch's churn by owner shard and
// routes one command per *touched* shard through that shard's lock-free
// MPSC queue; shards whose region saw no events this epoch receive
// nothing at all, which — combined with the engines'
// resolve_churn_fraction deferral — is where the fleet's speedup on
// regionalized workloads comes from: the per-epoch CELF re-solve runs
// against one region's flow subset instead of the global flow set.
//
// Budget.  The global middlebox budget K is split across shards
// (initially near-evenly) and reallocated every realloc_interval_epochs:
// the coordinator drains the fleet, asks every engine for its
// marginal-decrement curve (Engine::ProbeMarginalGains), and greedily
// merges the curves with the same core::CelfQueue the solvers use —
// "vertices" are shard ids, the gain oracle is the shard's next curve
// point.  By submodularity of the per-shard decrement the merged greedy
// split maximizes the predicted fleet decrement for the probed curves;
// the new split is adopted only when it beats the current one by the
// realloc_hysteresis fraction, so the fleet does not thrash budget
// between near-tied shards.
//
// Synchronization.  Three rules, machine-checked where the annotations
// reach:
//   1. Producer -> worker: the MPSC queue's release/acquire edge.  The
//      coordinator never blocks on a worker lock to route (the park
//      wakeup takes park_mu_ only when the worker is already asleep).
//   2. Worker -> coordinator: the outstanding-command counter under
//      done_mu_.  Drain() returns only after every routed command
//      completed, and the counter handshake's release/acquire pair makes
//      every worker-side write to its engine visible to the coordinator.
//   3. Quiesced handoff: after Drain() (and until the next command is
//      routed) the coordinator is the engines' client thread — it may
//      call client-thread-only Engine methods (index(), Checkpoint())
//      directly.  Rule 2 is what makes this sound; Snapshot/Metrics/
//      Checkpoint all drain first.
// Like Engine, all ShardedEngine methods are single-client-thread.
//
// Survivability (DESIGN.md Section 14).  With supervise on, the
// coordinator doubles as the fleet supervisor: it heartbeats workers at
// every client-thread entry point (SubmitBatch / Snapshot / Checkpoint /
// Metrics), detects a crashed shard (its worker caught a fault, dropped
// its engine, and tombstoned itself) or a stalled one (busy past
// stall_timeout), quarantines it — routed commands are discarded but
// recorded — and respawns the engine from the last good per-shard
// checkpoint, replaying everything since from a bounded per-shard redo
// ring.  Replay correctness rests on engine determinism: an engine
// restored from a checkpoint and fed the same command sequence issues the
// same tickets and reaches byte-identical state.  Bounded
// queues add the overload posture: past queue_depth the coordinator
// blocks with a deadline, then sheds the batch to deferred-re-solve
// admission (arrivals applied, CELF deferred), metering the shed rate
// through an obs::RateCusum alert.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/mutex.hpp"
#include "common/types.hpp"
#include "core/deployment.hpp"
#include "engine/checkpoint.hpp"
#include "engine/engine.hpp"
#include "faults/faults.hpp"
#include "graph/digraph.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "shard/mpsc_queue.hpp"
#include "shard/partition.hpp"
#include "traffic/flow.hpp"

namespace tdmd::shard {

/// Stable client-side identifier for a flow across the fleet.  Unlike
/// engine::FlowTicket (which is per-engine and private to the owner
/// worker), fleet flow ids are handed out by the coordinator and survive
/// checkpoint/restore.
using FlowId64 = std::uint64_t;

struct ShardedEngineOptions {
  /// How to split the topology.  partition.num_shards is the fleet size.
  PartitionSpec partition;
  /// Global middlebox budget K, split across shards (each shard always
  /// keeps at least one box).  Must be >= partition.num_shards.
  std::size_t total_budget = 8;
  /// Template for every per-shard engine.  `k` is overridden by the
  /// fleet's budget split.  The fleet's parallelism axis is shards: each
  /// engine re-solves inline on its worker thread.
  engine::EngineOptions engine;
  /// Reallocate the budget split every this many epochs; 0 disables.
  std::uint64_t realloc_interval_epochs = 16;
  /// Adopt a new split only when its predicted fleet decrement beats the
  /// current split's by this fraction.  Doubles as the fleet's bandwidth
  /// tolerance: a run whose total bandwidth is within this band of the
  /// single-engine run is considered split-neutral.
  double realloc_hysteresis = 0.05;
  /// Best-effort worker thread affinity: worker i is pinned to CPU
  /// i % hardware_concurrency.  Failures are ignored (containers often
  /// forbid affinity calls).
  bool pin_threads = true;
  /// Optional fault injection: when true, shard i gets its own injector
  /// seeded fault_spec.seed + i, so the per-shard fault sequences are
  /// decorrelated but each is individually replay-deterministic.
  bool inject_faults = false;
  faults::FaultSpec fault_spec;

  // --- survivability (DESIGN.md Section 14) ---------------------------
  /// Supervise the fleet: capture per-shard recovery checkpoints, record
  /// routed commands in redo rings, and auto-recover crashed shards.  A
  /// worker that catches a FaultInjectedError tombstones itself instead
  /// of taking the process down (without supervision the fault
  /// propagates, the PR 7 behavior).
  bool supervise = false;
  /// Capture a fresh per-shard recovery checkpoint every this many fleet
  /// epochs (0 = only at construction/Restore).  Shorter intervals bound
  /// redo-replay work; longer ones bound capture overhead.
  /// Redo rings longer than 64 commands also force a capture at the next
  /// epoch boundary, so replay work stays bounded either way.
  std::uint64_t supervisor_checkpoint_interval_epochs = 16;
  /// A worker busy on one command for longer than this is reported
  /// stalled (fleet state SHARD_DEGRADED); stalls are waited out, not
  /// killed — only a crash loses the engine.
  std::chrono::milliseconds stall_timeout{1000};
  /// Per-shard queue high-water mark; 0 = unbounded (no backpressure,
  /// no shedding).
  std::size_t queue_depth = 0;
  /// How long SubmitBatch blocks for a saturated shard to drain below
  /// queue_depth before shedding the batch to deferred-re-solve
  /// admission.
  std::chrono::milliseconds backpressure_deadline{20};
  /// Shed-rate alert (one-sided CUSUM over the per-epoch shed fraction).
  obs::RateCusumOptions shed_alert;

  // --- end-to-end latency SLO (DESIGN.md Section 15) ------------------
  /// Admission-to-adoption SLO: a batch command whose submit→adopt
  /// latency exceeds this violates the SLO.  Zero disables the burn
  /// detector (the tdmd_fleet_e2e_* histograms record regardless).
  std::chrono::nanoseconds e2e_slo{std::chrono::milliseconds(100)};
  /// SLO-burn alert: one-sided CUSUM over the per-epoch fraction of
  /// batch commands violating e2e_slo (same shape as shed_alert).
  obs::RateCusumOptions e2e_alert;
};

/// Fleet health state machine: NORMAL -> SHARD_DEGRADED (a shard is
/// crashed or stalled) -> RECOVERING (a quarantined shard is being
/// respawned and replayed) -> NORMAL.
enum class FleetState : std::uint8_t {
  kNormal = 0,
  kShardDegraded = 1,
  kRecovering = 2,
};

const char* FleetStateName(FleetState state);

/// Per-shard slice of a FleetSnapshot.
struct ShardStatus {
  std::size_t budget = 0;
  std::size_t boxes = 0;
  /// The shard's own maintained bandwidth over its own flows (the
  /// exactly-once local account; these sum to the naive fleet total).
  Bandwidth bandwidth = 0.0;
  bool feasible = false;
  engine::EngineMode mode = engine::EngineMode::kNormal;
  std::uint64_t epochs = 0;
  std::size_t active_flows = 0;
  bool cert_valid = false;
  double cert_bound = 0.0;
  /// Approximate command-queue occupancy at snapshot time (exact when
  /// drained, which Snapshot() guarantees — so normally 0).
  std::size_t queue_occupancy = 0;
  /// Commands waiting in this shard's redo ring (replayed on recovery).
  std::size_t redo_ring = 0;
  /// True while the shard is quarantined (engine lost, recovery pending).
  bool quarantined = false;
};

/// Fleet-level state at a drained instant.
struct FleetSnapshot {
  std::uint64_t epoch = 0;
  /// Bandwidth of the *union* deployment evaluated against the union
  /// flow set — the number comparable with a single-engine run.  Never
  /// worse than the sum of per-shard bandwidths (a shard's flow may be
  /// served even better by another shard's box on its path).
  Bandwidth bandwidth = 0.0;
  /// Union feasibility, also union-evaluated.
  bool feasible = false;
  core::Deployment deployment;
  /// Split-conditional fleet certificate: the sum of per-shard certified
  /// bounds upper-bounds the decrement of any fleet deployment that
  /// respects the current per-shard budget split (each shard's bound
  /// covers every deployment of at most k_s boxes against its flows).
  bool cert_valid = false;
  double cert_bound = 0.0;
  /// Worst (most degraded) mode across shards — the fleet DEGRADED
  /// aggregation rule: the fleet is only as healthy as its sickest shard.
  engine::EngineMode mode = engine::EngineMode::kNormal;
  /// Supervisor state machine (kNormal when supervision is off).
  FleetState state = FleetState::kNormal;
  std::vector<ShardStatus> shards;
};

/// Coordinator-side counters (client-thread state, no lock).
struct FleetStats {
  std::uint64_t epochs = 0;
  std::uint64_t commands_routed = 0;
  /// Shard-epochs skipped because the shard had no events.
  std::uint64_t batches_skipped = 0;
  /// Arrivals whose path touched more than one shard region.
  std::uint64_t cross_shard_flows = 0;
  std::uint64_t realloc_rounds = 0;
  std::uint64_t realloc_adoptions = 0;
  /// Total boxes moved between shards by adopted reallocations.
  std::uint64_t budget_moves = 0;

  // --- survivability -------------------------------------------------
  /// Batches shed to deferred-re-solve admission past the backpressure
  /// deadline.
  std::uint64_t shed_batches = 0;
  /// Arrivals + departures carried by shed batches (all admitted; only
  /// their re-solves were deferred).
  std::uint64_t shed_events = 0;
  /// Batches that blocked at a shard's queue high-water mark.
  std::uint64_t backpressure_waits = 0;
  /// Crashed shards detected by the supervisor.
  std::uint64_t crashes_detected = 0;
  /// Stall episodes (a worker busy past stall_timeout) detected.
  std::uint64_t stalls_detected = 0;
  /// Shard recoveries driven to completion (restore + redo replay).
  std::uint64_t recoveries_completed = 0;
  /// Commands replayed from redo rings during recoveries.
  std::uint64_t redo_replayed = 0;
  /// Per-shard recovery checkpoints captured by the supervisor.
  std::uint64_t supervisor_checkpoints = 0;
  /// Fleet state machine edges (NORMAL/SHARD_DEGRADED/RECOVERING).
  std::uint64_t state_transitions = 0;
  /// Wall-clock nanoseconds of the most recent completed recovery.
  std::uint64_t last_recovery_ns = 0;
};

/// Fleet-wide owned-heap accounting (the MemoryFootprint() contract
/// rolled up across shards): per-engine index/snapshot bytes plus the
/// coordinator-side redo rings and MPSC command queues.  Read under the
/// quiesced handoff, so the per-engine numbers are exact.
struct FleetMemoryStats {
  std::size_t index_bytes = 0;     // sum of per-engine index footprints
  std::size_t snapshot_bytes = 0;  // sum of per-engine snapshot footprints
  std::size_t queue_bytes = 0;     // MPSC command queues (0 when drained)
  std::size_t redo_ring_bytes = 0; // per-shard redo rings (supervision)
  std::size_t active_flows = 0;    // fleet-wide bytes-per-flow denominator
};

/// Serializable fleet state: coordinator header plus one embedded
/// engine::EngineCheckpoint per shard (io is in shard/fleet_io.hpp).
struct FleetCheckpoint {
  std::size_t num_shards = 1;
  PartitionMethod method = PartitionMethod::kBfs;
  std::uint64_t partition_seed = 1;
  std::uint64_t epoch = 0;
  std::uint64_t next_flow_id = 0;
  std::vector<std::size_t> budgets;
  struct FlowEntry {
    FlowId64 id = 0;
    std::uint32_t shard = 0;
    engine::FlowTicket ticket = engine::kInvalidTicket;
  };
  /// Ascending by id.  Carries the owner worker's ticket so a restored
  /// fleet routes departures to the exact per-engine tickets the
  /// uninterrupted run would have used.
  std::vector<FlowEntry> flows;
  std::vector<engine::EngineCheckpoint> engines;
};

class ShardedEngine {
 public:
  /// Partitions `network` and spawns one worker (owning one synchronous
  /// Engine) per shard.
  ShardedEngine(graph::Digraph network, ShardedEngineOptions options);

  /// Stops and joins every worker.
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  struct BatchResult {
    std::uint64_t epoch = 0;
    /// One fleet flow id per arrival, in submission order; pass them back
    /// as departures later.
    std::vector<FlowId64> flow_ids;
  };

  /// Routes one epoch of churn to the owner shards and returns without
  /// waiting for the workers (call Drain() to quiesce).  Departure ids
  /// must be live (previously returned and not yet departed).
  BatchResult SubmitBatch(const traffic::FlowSet& arrivals,
                          const std::vector<FlowId64>& departures);

  /// Blocks until every routed command has completed on its worker.
  void Drain();

  /// Drains, then assembles the union-evaluated fleet snapshot.
  FleetSnapshot Snapshot();

  /// Drains, then renders the merged fleet exposition: every
  /// TDMD_ENGINE_STATS_COUNTERS counter summed as `tdmd_fleet_<name>` and
  /// per shard as `tdmd_shard<i>_<name>`, merged latency histograms,
  /// coordinator counters, and the union bandwidth / certificate gauges.
  obs::MetricsRegistry Metrics();
  void DumpMetrics(std::ostream& os, obs::MetricsFormat format);

  /// Drains, then rolls up the MemoryFootprint() contract across shards
  /// (also embedded in Metrics() as the fleet tdmd_mem_* gauges).
  FleetMemoryStats MemoryUsage();

  const FleetStats& stats() const { return stats_; }
  const Partition& partition() const { return partition_; }
  std::size_t num_shards() const { return workers_.size(); }
  /// Current budget split (coordinator's copy; exact after Drain).
  const std::vector<std::size_t>& budgets() const { return shard_budget_; }

  /// Supervisor state machine (kNormal when supervision is off).
  FleetState fleet_state() const { return fleet_state_; }
  /// Shed-rate alert detector (advisory reads; exact after Drain).
  const obs::RateCusum& shed_alert() const { return shed_alert_; }
  /// e2e SLO-burn detector on the per-epoch fraction of batch commands
  /// whose admission-to-adoption latency exceeded options.e2e_slo.
  const obs::RateCusum& e2e_alert() const { return e2e_alert_; }

  /// One supervision tick: recover crashed shards, flag stalled ones,
  /// update the fleet state machine.  Runs automatically at the top of
  /// SubmitBatch / Snapshot / Checkpoint / Metrics; exposed so drills
  /// and tests can heartbeat without submitting churn.  No-op unless
  /// options.supervise.
  void Supervise();

  /// Deterministic crash drill (requires supervise): routes a poison
  /// command that makes shard `shard`'s worker abort exactly as an
  /// injected worker fault would — the engine is dropped and the shard
  /// quarantined until the next supervision tick recovers it.
  void CrashShard(std::size_t shard);

  /// Drains, then captures the complete fleet state.
  FleetCheckpoint Checkpoint();

  /// Rebuilds this fleet from `checkpoint`.  Must be called on a freshly
  /// constructed fleet (no batches yet) whose network, shard count and
  /// partition spec match the checkpointed ones.  Worker engines are
  /// reconstructed with their checkpointed budgets (the split may differ
  /// from the initial even split) and restored in place.
  void Restore(const FleetCheckpoint& checkpoint);

 private:
  struct Command {
    enum class Kind : std::uint8_t {
      kBatch,
      kProbe,
      kCertify,
      kSetBudget,
      kRestore,
      kCrash,
      kStop,
    };
    Kind kind = Kind::kBatch;
    std::uint64_t epoch = 0;
    // kBatch.
    traffic::FlowSet arrivals;
    std::vector<FlowId64> arrival_ids;
    std::vector<FlowId64> departure_ids;
    /// Shed admission: the worker applies the batch with
    /// Engine::SubmitOptions{defer_resolve = true}.  Recorded in the
    /// redo ring, so replay reproduces the exact same engine epochs.
    bool shed = false;
    /// Causal batch id (DESIGN.md Section 15): stamped at SubmitBatch,
    /// threaded through the engine's spans and the worker's queue-dwell
    /// span so a merged trace reconstructs one submit -> dequeue ->
    /// patch -> adopt chain per batch.  0 for control commands (probe,
    /// certify, budget, restore), which stay unbound.
    std::uint64_t batch_id = 0;
    /// MonotonicNanos at route time — the admission clock the worker
    /// subtracts to get queue dwell and the e2e stage latencies.
    std::uint64_t route_ns = 0;
    // kProbe / kCertify / kSetBudget.  probe_out / cert_out are
    // coordinator-owned and stay valid until the Drain() that follows
    // the round.
    std::size_t budget = 0;
    std::vector<Bandwidth>* probe_out = nullptr;
    Bandwidth* cert_out = nullptr;
    // kRestore.
    struct RestorePayload {
      engine::EngineCheckpoint checkpoint;
      std::vector<std::pair<FlowId64, engine::FlowTicket>> tickets;
    };
    std::shared_ptr<RestorePayload> restore;
  };

  struct Worker {
    std::size_t id = 0;
    /// Per-shard injector (seed = base + id); null when faults are off.
    std::unique_ptr<faults::FaultInjector> injector;
    /// Engine options this worker (re)constructs engines with; k tracks
    /// the live budget split.
    engine::EngineOptions base_options;
    /// Owned by the worker thread while commands are outstanding; the
    /// coordinator touches it only under the quiesced handoff (rule 3).
    std::unique_ptr<engine::Engine> engine;
    /// Fleet flow id -> this engine's ticket.  Same ownership rule.
    std::unordered_map<FlowId64, engine::FlowTicket> tickets;
    MpscQueue<Command> queue;
    /// seq_cst park flag; pairs with MpscQueue::ConsumerIdle (see there).
    std::atomic<bool> parked{false};
    Mutex park_mu;
    CondVar park_cv;
    /// Quarantine flag: set by the worker when it catches a fault under
    /// supervision (release), read by the coordinator (acquire).  While
    /// set, the worker discards every command except kRestore.
    std::atomic<bool> crashed{false};
    /// Commands routed but not yet completed on this shard — the
    /// backpressure gauge (incremented at route, decremented at
    /// completion).
    std::atomic<std::size_t> inflight{0};
    /// steady_clock ns when the worker began its current command; 0 when
    /// idle.  The supervisor's stall detector compares against it.
    std::atomic<std::int64_t> busy_since_ns{0};
    /// Coordinator-side edge detector so one stall episode counts once.
    bool stall_flagged = false;
    /// Per-stage e2e latency histograms for batch commands (DESIGN.md
    /// Section 15): worker-owned while commands are outstanding, read by
    /// the coordinator only under the quiesced handoff (rule 3), merged
    /// into the tdmd_fleet_e2e_* exposition.  Recovery replay records
    /// nothing here (replayed commands carry no admission clock), so a
    /// recovered shard's histograms keep exactly its pre-crash samples.
    obs::LatencyHistogram e2e_submit_dequeue;
    obs::LatencyHistogram e2e_dequeue_patched;
    obs::LatencyHistogram e2e_patched_adopted;
    obs::LatencyHistogram e2e_admission_adoption;
    /// SLO accounting: batch commands completed / completed over
    /// options.e2e_slo.  Relaxed atomics — the coordinator reads deltas
    /// once per epoch to feed the burn detector, exactness per read is
    /// not required (the handshake in rule 2 bounds the lag to one
    /// in-flight command).
    std::atomic<std::uint64_t> e2e_total{0};
    std::atomic<std::uint64_t> e2e_over_slo{0};
    std::thread thread;
  };

  /// One redo-ring record: everything needed to re-route a mutating
  /// command (kBatch or kSetBudget) to a freshly restored engine, in the
  /// original order.  Invariant: the ring holds exactly the mutating
  /// commands routed after the shard's last captured checkpoint, so
  /// capture-state + ring-replay == live-state for a deterministic
  /// (synchronous) engine.
  struct RedoEntry {
    Command::Kind kind = Command::Kind::kBatch;
    std::uint64_t epoch = 0;
    bool shed = false;
    traffic::FlowSet arrivals;
    std::vector<FlowId64> arrival_ids;
    std::vector<FlowId64> departure_ids;
    std::size_t budget = 0;
    /// Recorded so recovery replay rebinds the replayed engine work to
    /// the original batch id (and never mints fresh ids).
    std::uint64_t batch_id = 0;
  };

  /// Per-shard recovery state (client-thread only): the last good
  /// checkpoint block plus the redo ring of commands routed since.
  struct ShardGuard {
    engine::EngineCheckpoint checkpoint;
    std::vector<std::pair<FlowId64, engine::FlowTicket>> tickets;
    std::deque<RedoEntry> ring;
  };

  void WorkerLoop(Worker& worker);
  void ProcessCommand(Worker& worker, Command& command);
  /// Increments outstanding_ and enqueues; wakes the worker if parked.
  /// Under supervision also records mutating commands in the shard's
  /// redo ring (unless replaying).
  void RouteCommand(std::size_t shard, Command command)
      TDMD_EXCLUDES(done_mu_);
  void CompleteCommand(Worker& worker) TDMD_EXCLUDES(done_mu_);

  /// MemoryFootprint() roll-up; requires the quiesced handoff (rule 3) —
  /// callers drain first (MemoryUsage/Metrics both do).
  FleetMemoryStats MemoryUsageQuiesced();

  // --- supervisor internals (client thread) ---------------------------
  void SetFleetState(FleetState state);
  /// Quarantined-shard recovery: drain, restore the last good checkpoint
  /// onto a rebuilt engine, replay the redo ring, re-enter the budget
  /// reallocation round.
  void RecoverShard(std::size_t shard);
  /// Captures fresh recovery checkpoints when the cadence or a full redo
  /// ring calls for it.
  void MaybeCaptureCheckpoints();
  /// Drains, then snapshots every healthy shard's engine + tickets into
  /// its guard and clears its redo ring.
  void CaptureCheckpoints();
  /// Blocks (bounded) for shard headroom, then marks the batch shed.
  /// Returns true when the batch must be shed.
  bool ApplyBackpressure(std::size_t shard, const Command& command)
      TDMD_EXCLUDES(done_mu_);
  /// The probe/merge/adopt round of MaybeReallocateBudgets, unguarded by
  /// the epoch cadence (recovery re-enters it directly).
  void ReallocateBudgetsNow();

  /// Every realloc_interval_epochs: drain, probe curves, CelfQueue-merge,
  /// hysteresis-adopt.
  void MaybeReallocateBudgets();
  /// Greedy merge of per-shard curves into a split summing to
  /// total_budget (every shard >= 1).
  std::vector<std::size_t> AllocateFromCurves(
      const std::vector<std::vector<Bandwidth>>& curves) const;

  ShardedEngineOptions options_;  // immutable after construction
  graph::Digraph network_;        // coordinator's copy, for union evals
  Partition partition_;

  // --- client-thread coordinator state (no lock; see class comment) ----
  std::uint64_t epoch_ = 0;
  FlowId64 next_flow_id_ = 0;
  /// Owner shard of every live flow (the routing table for departures).
  std::unordered_map<FlowId64, std::uint32_t> flow_owner_;
  std::vector<std::size_t> shard_budget_;
  FleetStats stats_;

  // --- supervisor state (client thread) -------------------------------
  FleetState fleet_state_ = FleetState::kNormal;
  std::vector<ShardGuard> guards_;
  std::uint64_t last_capture_epoch_ = 0;
  /// Set when any redo ring exceeds kRedoRingCapacity; forces a capture
  /// at the next epoch boundary.
  bool capture_due_ = false;
  /// True while RecoverShard replays a redo ring, so replayed commands
  /// are not re-recorded.
  bool replaying_ = false;
  obs::RateCusum shed_alert_;

  // --- e2e SLO pipeline (client thread; DESIGN.md Section 15) ----------
  /// Causal batch ids are minted here, strictly increasing from 1.
  /// Recovery replay re-uses the recorded ids and never advances this.
  std::uint64_t next_batch_id_ = 0;
  obs::RateCusum e2e_alert_;
  /// Last-seen worker SLO counter totals, for per-epoch delta pushes
  /// into e2e_alert_.
  std::uint64_t e2e_seen_total_ = 0;
  std::uint64_t e2e_seen_over_ = 0;

  /// Commands routed but not yet completed by their worker.  The
  /// release/acquire on done_mu_ is the worker->coordinator visibility
  /// edge the quiesced handoff relies on.
  Mutex done_mu_;
  std::size_t outstanding_ TDMD_GUARDED_BY(done_mu_) = 0;
  CondVar done_cv_;

  /// Declared last so workers are joined in ~ShardedEngine before any
  /// state they touch is destroyed (the dtor stops them explicitly; this
  /// ordering is belt and braces).
  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace tdmd::shard
