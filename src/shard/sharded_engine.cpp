#include "shard/sharded_engine.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "common/check.hpp"
#include "core/celf.hpp"
#include "core/instance.hpp"
#include "core/objective.hpp"
#include "obs/build_info.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"

namespace tdmd::shard {

namespace {

/// Redo-ring high-water mark: a ring longer than this forces a capture at
/// the next epoch boundary, so replay work stays bounded even when the
/// capture cadence is long.
constexpr std::size_t kRedoRingCapacity = 64;

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* FleetStateName(FleetState state) {
  switch (state) {
    case FleetState::kNormal:
      return "NORMAL";
    case FleetState::kShardDegraded:
      return "SHARD_DEGRADED";
    case FleetState::kRecovering:
      return "RECOVERING";
  }
  return "unknown";
}

ShardedEngine::ShardedEngine(graph::Digraph network,
                             ShardedEngineOptions options)
    : options_(std::move(options)),
      network_(std::move(network)),
      partition_(PartitionGraph(network_, options_.partition)),
      shed_alert_(options_.shed_alert),
      e2e_alert_(options_.e2e_alert) {
  const std::size_t n = partition_.num_shards;
  TDMD_CHECK_MSG(options_.total_budget >= n,
                 "fleet budget " << options_.total_budget
                                 << " cannot give every one of " << n
                                 << " shards a middlebox");
  TDMD_CHECK_MSG(options_.realloc_hysteresis >= 0.0,
                 "realloc_hysteresis must be >= 0");

  // Initial split: near-even, remainder toward the lowest shard ids.
  shard_budget_.assign(n, options_.total_budget / n);
  for (std::size_t s = 0; s < options_.total_budget % n; ++s) {
    ++shard_budget_[s];
  }

  workers_.reserve(n);
  for (std::size_t s = 0; s < n; ++s) {
    auto worker = std::make_unique<Worker>();
    worker->id = s;
    if (options_.inject_faults) {
      faults::FaultSpec spec = options_.fault_spec;
      // Decorrelated per-shard fault sequences, each individually
      // replay-deterministic.
      spec.seed = options_.fault_spec.seed + s;
      worker->injector = std::make_unique<faults::FaultInjector>(spec);
    }
    worker->base_options = options_.engine;
    worker->base_options.k = shard_budget_[s];
    worker->base_options.fault_injector = worker->injector.get();
    worker->engine =
        std::make_unique<engine::Engine>(network_, worker->base_options);
    workers_.push_back(std::move(worker));
  }
  // Spawn only after the vector is final: workers index into *this.
  for (auto& worker : workers_) {
    Worker* w = worker.get();
    w->thread = std::thread([this, w] { WorkerLoop(*w); });
  }
  if (options_.supervise) {
    // Seed every guard with the fresh-engine state so a shard that
    // crashes before the first cadence capture still recovers (replaying
    // its whole history from the redo ring).
    guards_.resize(n);
    CaptureCheckpoints();
  }
}

ShardedEngine::~ShardedEngine() {
  for (std::size_t s = 0; s < workers_.size(); ++s) {
    Command stop;
    stop.kind = Command::Kind::kStop;
    RouteCommand(s, std::move(stop));
  }
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
}

void ShardedEngine::WorkerLoop(Worker& worker) {
#if defined(__linux__)
  if (options_.pin_threads) {
    const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(static_cast<int>(worker.id % cpus), &set);
    // Best effort: containers and restricted runtimes may refuse.
    (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
  }
#endif
  for (;;) {
    Command command;
    if (!worker.queue.Pop(command)) {
      MutexLock lock(worker.park_mu);
      // Declare parked *before* the idle re-check: a producer that
      // pushes after the check observes parked (both seq_cst, see
      // MpscQueue::ConsumerIdle) and rings park_cv under park_mu.
      worker.parked.store(true, std::memory_order_seq_cst);
      if (worker.queue.ConsumerIdle()) {
        worker.park_cv.Wait(worker.park_mu,
                            [&worker]() TDMD_REQUIRES(worker.park_mu) {
                              return !worker.queue.ConsumerIdle();
                            });
      }
      worker.parked.store(false, std::memory_order_relaxed);
      continue;
    }
    const bool stop = command.kind == Command::Kind::kStop;
    if (!stop) {
      worker.busy_since_ns.store(NowNs(), std::memory_order_release);
      if (options_.supervise) {
        try {
          ProcessCommand(worker, command);
        } catch (const faults::FaultInjectedError&) {
          // Worker abort under supervision: drop the engine (its state
          // may be torn mid-batch), tombstone the shard, and keep
          // draining the queue so the coordinator never deadlocks on
          // outstanding commands.  The supervisor recovers us from the
          // last good checkpoint + redo ring.
          worker.engine.reset();
          worker.tickets.clear();
          worker.crashed.store(true, std::memory_order_release);
        }
      } else {
        // Unsupervised fleets keep the PR 7 contract: an injected worker
        // fault propagates and takes the process down.
        ProcessCommand(worker, command);
      }
      worker.busy_since_ns.store(0, std::memory_order_release);
    }
    CompleteCommand(worker);
    if (stop) return;
  }
}

void ShardedEngine::ProcessCommand(Worker& worker, Command& command) {
  if (worker.crashed.load(std::memory_order_relaxed) &&
      command.kind != Command::Kind::kRestore) {
    // Quarantined: the engine is gone.  Discard the command (the redo
    // ring holds the mutating ones for replay) but satisfy round outputs
    // with neutral values so coordinator rounds stay well-defined.
    if (command.probe_out != nullptr) command.probe_out->clear();
    if (command.cert_out != nullptr) *command.cert_out = 0.0;
    return;
  }
  switch (command.kind) {
    case Command::Kind::kBatch: {
      const std::uint64_t dequeue_ns = obs::MonotonicNanos();
      if (command.batch_id != 0 && command.route_ns != 0) {
        const std::uint64_t dwell =
            dequeue_ns > command.route_ns ? dequeue_ns - command.route_ns
                                          : 0;
        worker.e2e_submit_dequeue.Record(dwell);
        if (obs::Tracer* tracer = obs::CurrentTracer();
            tracer != nullptr) {
          // The MPSC queue-dwell span, reconstructed backwards: it ends
          // at this dequeue and started `dwell` ago on the tracer clock.
          const std::uint64_t now = tracer->NowNs();
          tracer->Emit(obs::TracePhase::kQueueDwell, /*is_span=*/true,
                       now > dwell ? now - dwell : 0, dwell, worker.id,
                       command.batch_id);
        }
      }
      if (worker.injector != nullptr) {
        // Shard-layer fault hooks, visited once per batch: a kDelay at
        // queue-drain models a stalled consumer; a kThrow at
        // shard-worker models a worker abort (caught in WorkerLoop under
        // supervision).
        worker.injector->MaybeInject(faults::FaultSite::kQueueDrain);
        worker.injector->MaybeInject(faults::FaultSite::kShardWorker);
      }
      std::vector<engine::FlowTicket> departures;
      departures.reserve(command.departure_ids.size());
      for (FlowId64 id : command.departure_ids) {
        const auto it = worker.tickets.find(id);
        // The coordinator routes a departure only to the recorded owner,
        // so a miss means the routing table and worker map diverged.
        TDMD_CHECK_MSG(it != worker.tickets.end(),
                       "departure for unknown fleet flow " << id);
        departures.push_back(it->second);
        worker.tickets.erase(it);
      }
      engine::Engine::SubmitOptions submit;
      submit.defer_resolve = command.shed;
      submit.batch_id = command.batch_id;
      const engine::Engine::BatchResult result =
          worker.engine->SubmitBatch(command.arrivals, departures, submit);
      TDMD_CHECK(result.tickets.size() == command.arrival_ids.size());
      for (std::size_t i = 0; i < result.tickets.size(); ++i) {
        worker.tickets.emplace(command.arrival_ids[i], result.tickets[i]);
      }
      if (command.batch_id != 0 && command.route_ns != 0) {
        // Stage clocks share MonotonicNanos' origin, so the differences
        // below are exact; the guards only defend against an engine that
        // reported no patch (an all-departures batch reports its publish
        // time regardless, so in practice they never fire).
        if (result.patched_ns >= dequeue_ns) {
          worker.e2e_dequeue_patched.Record(result.patched_ns -
                                            dequeue_ns);
        }
        if (result.adopted_ns >= result.patched_ns) {
          worker.e2e_patched_adopted.Record(result.adopted_ns -
                                            result.patched_ns);
        }
        const std::uint64_t e2e = result.adopted_ns > command.route_ns
                                      ? result.adopted_ns - command.route_ns
                                      : 0;
        worker.e2e_admission_adoption.Record(e2e);
        worker.e2e_total.fetch_add(1, std::memory_order_relaxed);
        const auto slo =
            static_cast<std::uint64_t>(options_.e2e_slo.count());
        if (slo != 0 && e2e > slo) {
          worker.e2e_over_slo.fetch_add(1, std::memory_order_relaxed);
        }
      }
      break;
    }
    case Command::Kind::kProbe:
      *command.probe_out = worker.engine->ProbeMarginalGains(command.budget);
      break;
    case Command::Kind::kCertify:
      *command.cert_out = worker.engine->RefreshCertificate();
      break;
    case Command::Kind::kSetBudget:
      worker.engine->SetBudget(command.budget);
      worker.base_options.k = command.budget;
      break;
    case Command::Kind::kRestore: {
      Command::RestorePayload& payload = *command.restore;
      // Engine::Restore cross-checks k against the engine's construction
      // options, and the checkpointed split may differ from the initial
      // even split — so rebuild the engine with the checkpointed budget.
      engine::EngineOptions opts = worker.base_options;
      opts.k = payload.checkpoint.k;
      // The coordinator's network_ copy is immutable after construction,
      // so reading it here is safe from the worker thread — and it is
      // the only copy left when a crashed worker (engine == nullptr) is
      // being revived.
      worker.engine.reset();
      worker.engine = std::make_unique<engine::Engine>(network_, opts);
      worker.engine->Restore(payload.checkpoint);
      worker.base_options.k = opts.k;
      worker.tickets.clear();
      worker.tickets.insert(payload.tickets.begin(), payload.tickets.end());
      // Revival: a restore is exactly how quarantine ends.
      worker.crashed.store(false, std::memory_order_release);
      break;
    }
    case Command::Kind::kCrash:
      // Deterministic crash drill: identical failure path to an injected
      // worker abort (caught in WorkerLoop, engine dropped, tombstoned).
      throw faults::FaultInjectedError("injected shard crash (crash drill)");
    case Command::Kind::kStop:
      break;  // handled by the loop
  }
}

void ShardedEngine::RouteCommand(std::size_t shard, Command command) {
  if (options_.supervise && !replaying_ &&
      (command.kind == Command::Kind::kBatch ||
       command.kind == Command::Kind::kSetBudget)) {
    // Record every mutating command (including realloc kicks and shed
    // batches) before it leaves the coordinator: the redo ring must hold
    // exactly what was routed after the last capture, in order.
    RedoEntry entry;
    entry.kind = command.kind;
    entry.epoch = command.epoch;
    entry.shed = command.shed;
    entry.arrivals = command.arrivals;
    entry.arrival_ids = command.arrival_ids;
    entry.departure_ids = command.departure_ids;
    entry.budget = command.budget;
    entry.batch_id = command.batch_id;
    ShardGuard& guard = guards_[shard];
    guard.ring.push_back(std::move(entry));
    if (guard.ring.size() > kRedoRingCapacity) capture_due_ = true;
  }
  if (!replaying_) {
    // Admission clock for the e2e stage latencies.  Replayed commands
    // stay unstamped: their original run already recorded (or lost) its
    // samples, and re-recording would double-count recovery work.
    command.route_ns = obs::MonotonicNanos();
  }
  {
    MutexLock lock(done_mu_);
    ++outstanding_;
  }
  ++stats_.commands_routed;
  Worker& worker = *workers_[shard];
  worker.inflight.fetch_add(1, std::memory_order_acq_rel);
  worker.queue.Push(std::move(command));
  if (worker.parked.load(std::memory_order_seq_cst)) {
    // Taking park_mu here (only on the parked edge) closes the race with
    // a worker between its predicate check and the actual wait.
    MutexLock lock(worker.park_mu);
    worker.park_cv.NotifyOne();
  }
}

void ShardedEngine::CompleteCommand(Worker& worker) {
  worker.inflight.fetch_sub(1, std::memory_order_acq_rel);
  MutexLock lock(done_mu_);
  TDMD_CHECK_MSG(outstanding_ > 0, "command completion underflow");
  --outstanding_;
  // Every completion notifies: Drain() waits for outstanding_ == 0, but
  // a backpressured SubmitBatch waits only for one shard's inflight to
  // dip below the high-water mark.
  done_cv_.NotifyAll();
}

void ShardedEngine::Drain() {
  MutexLock lock(done_mu_);
  done_cv_.Wait(done_mu_, [this]() TDMD_REQUIRES(done_mu_) {
    return outstanding_ == 0;
  });
}

ShardedEngine::BatchResult ShardedEngine::SubmitBatch(
    const traffic::FlowSet& arrivals,
    const std::vector<FlowId64>& departures) {
  // Supervision tick first (recover any quarantined shard), then a
  // cadence capture while the fleet is still consistent with epoch_.
  Supervise();
  MaybeCaptureCheckpoints();
  ++epoch_;
  ++stats_.epochs;
  // Mint the batch's causal id and open the root span of its flow chain
  // (DESIGN.md Section 15): every engine/worker span this batch touches
  // binds the same id, so a merged trace reconstructs one connected
  // submit -> dequeue -> patch -> adopt arrow per batch.
  const std::uint64_t batch_id = ++next_batch_id_;
  obs::ScopedSpan fleet_span(obs::TracePhase::kFleetSubmit);
  fleet_span.set_batch(batch_id);
  const std::size_t n = workers_.size();
  std::vector<Command> commands(n);
  std::vector<bool> touched(n, false);

  // Departures first (matching Engine::SubmitBatch's order within each
  // shard batch).
  for (FlowId64 id : departures) {
    const auto it = flow_owner_.find(id);
    TDMD_CHECK_MSG(it != flow_owner_.end(),
                   "departure for unknown or already-departed fleet flow "
                       << id);
    const std::uint32_t s = it->second;
    flow_owner_.erase(it);
    commands[s].departure_ids.push_back(id);
    touched[s] = true;
  }

  BatchResult result;
  result.epoch = epoch_;
  result.flow_ids.reserve(arrivals.size());
  for (const traffic::Flow& flow : arrivals) {
    const FlowId64 id = next_flow_id_++;
    const std::size_t s = OwnerShard(partition_, flow, id);
    if (ShardsTouched(partition_, flow) > 1) ++stats_.cross_shard_flows;
    commands[s].arrivals.push_back(flow);
    commands[s].arrival_ids.push_back(id);
    flow_owner_.emplace(id, static_cast<std::uint32_t>(s));
    result.flow_ids.push_back(id);
    touched[s] = true;
  }

  std::size_t epoch_events = 0;
  std::size_t epoch_shed_events = 0;
  std::size_t shards_touched = 0;
  for (std::size_t s = 0; s < n; ++s) {
    if (!touched[s]) {
      // The empty-batch skip: an untouched shard pays nothing this epoch
      // (no command, no index delta, no re-solve consideration).
      ++stats_.batches_skipped;
      continue;
    }
    ++shards_touched;
    commands[s].kind = Command::Kind::kBatch;
    commands[s].epoch = epoch_;
    commands[s].batch_id = batch_id;
    const std::size_t events =
        commands[s].arrivals.size() + commands[s].departure_ids.size();
    epoch_events += events;
    if (ApplyBackpressure(s, commands[s])) {
      commands[s].shed = true;
      ++stats_.shed_batches;
      stats_.shed_events += events;
      epoch_shed_events += events;
      obs::TraceInstant(obs::TracePhase::kShedBatch, s, batch_id);
    }
    RouteCommand(s, std::move(commands[s]));
  }
  fleet_span.set_arg(shards_touched);
  // One shed-rate sample per epoch (shed fraction of this epoch's
  // events) drives the overload alert; epochs without events score 0 so
  // the CUSUM drains during lulls.
  shed_alert_.Push(epoch_events == 0
                       ? 0.0
                       : static_cast<double>(epoch_shed_events) /
                             static_cast<double>(epoch_events));

  // One SLO-burn sample per epoch: the violation fraction among batch
  // commands the workers completed since the last sample.  Relaxed reads
  // of cumulative worker counters — the handshake in rule 2 bounds the
  // lag to the commands still in flight, which land in the next sample.
  if (options_.e2e_slo.count() != 0) {
    std::uint64_t total = 0;
    std::uint64_t over = 0;
    for (const auto& worker : workers_) {
      total += worker->e2e_total.load(std::memory_order_relaxed);
      over += worker->e2e_over_slo.load(std::memory_order_relaxed);
    }
    const std::uint64_t delta_total = total - e2e_seen_total_;
    const std::uint64_t delta_over = over - e2e_seen_over_;
    e2e_seen_total_ = total;
    e2e_seen_over_ = over;
    e2e_alert_.Push(delta_total == 0
                        ? 0.0
                        : static_cast<double>(delta_over) /
                              static_cast<double>(delta_total));
  }

  MaybeReallocateBudgets();
  return result;
}

bool ShardedEngine::ApplyBackpressure(std::size_t shard,
                                      const Command& command) {
  (void)command;
  if (options_.queue_depth == 0) return false;
  Worker& worker = *workers_[shard];
  if (worker.inflight.load(std::memory_order_acquire) <
      options_.queue_depth) {
    return false;
  }
  // Saturated: block (bounded) for the shard to drain below the
  // high-water mark.  A crashed shard "drains" instantly — its tombstone
  // loop discards commands — so the predicate also watches the
  // quarantine flag to avoid stalling the whole fleet on a dead shard.
  ++stats_.backpressure_waits;
  MutexLock lock(done_mu_);
  const bool headroom = done_cv_.WaitFor(
      done_mu_, options_.backpressure_deadline,
      [this, &worker]() TDMD_REQUIRES(done_mu_) {
        return worker.inflight.load(std::memory_order_acquire) <
                   options_.queue_depth ||
               worker.crashed.load(std::memory_order_acquire);
      });
  return !headroom;
}

std::vector<std::size_t> ShardedEngine::AllocateFromCurves(
    const std::vector<std::vector<Bandwidth>>& curves) const {
  const std::size_t n = workers_.size();
  // Every shard keeps one box (engines require k >= 1); the remaining
  // K - n boxes go to the globally best next curve point each round.
  std::vector<std::size_t> alloc(n, 1);
  const auto gain = [&](VertexId s) -> Bandwidth {
    const auto& curve = curves[static_cast<std::size_t>(s)];
    const std::size_t i = alloc[static_cast<std::size_t>(s)];
    return i < curve.size() ? curve[i] : 0.0;
  };
  core::CelfQueue queue;
  // "Vertices" are shard ids; nothing is ever deployed, so the queue's
  // dedup/tie-break machinery (lowest id wins ties) is all we reuse.
  const core::Deployment none(static_cast<VertexId>(n));
  queue.Prime(static_cast<VertexId>(n), gain, nullptr);
  for (std::size_t round = 1; round + n <= options_.total_budget; ++round) {
    const core::CelfCandidate best =
        queue.PopBest(round, none, gain, nullptr);
    if (best.vertex == kInvalidVertex || best.gain <= 0.0) {
      // Curves exhausted: spread the remaining boxes deterministically so
      // the split always sums to the full budget.
      std::size_t next = 0;
      for (std::size_t r = round; r + n <= options_.total_budget; ++r) {
        ++alloc[next];
        next = (next + 1) % n;
      }
      break;
    }
    const auto s = static_cast<std::size_t>(best.vertex);
    ++alloc[s];
    // Re-offer the shard's next curve point.  By submodularity (the probe
    // curve is a CELF gain sequence) it is no larger than the point just
    // consumed, so the cached-gain upper-bound invariant holds.
    queue.Push(core::CelfCandidate{gain(best.vertex), best.vertex, round});
  }
  return alloc;
}

void ShardedEngine::MaybeReallocateBudgets() {
  const std::size_t n = workers_.size();
  if (n <= 1 || options_.realloc_interval_epochs == 0) return;
  if (epoch_ % options_.realloc_interval_epochs != 0) return;
  ReallocateBudgetsNow();
}

void ShardedEngine::ReallocateBudgetsNow() {
  const std::size_t n = workers_.size();
  if (n <= 1) return;
  ++stats_.realloc_rounds;
  Drain();

  // Any shard could in principle hold everything but the other shards'
  // mandatory single boxes, so every curve is probed to that depth.
  const std::size_t probe_budget = options_.total_budget - (n - 1);
  std::vector<std::vector<Bandwidth>> curves(n);
  for (std::size_t s = 0; s < n; ++s) {
    Command probe;
    probe.kind = Command::Kind::kProbe;
    probe.budget = probe_budget;
    probe.probe_out = &curves[s];
    RouteCommand(s, std::move(probe));
  }
  Drain();

  const std::vector<std::size_t> proposal = AllocateFromCurves(curves);
  const auto predicted = [&](const std::vector<std::size_t>& alloc) {
    Bandwidth total = 0.0;
    for (std::size_t s = 0; s < n; ++s) {
      const std::size_t depth = std::min(alloc[s], curves[s].size());
      for (std::size_t i = 0; i < depth; ++i) total += curves[s][i];
    }
    return total;
  };
  const Bandwidth current = predicted(shard_budget_);
  const Bandwidth proposed = predicted(proposal);
  // Hysteresis: adopt only a strict, material improvement, so near-tied
  // splits do not thrash boxes (and re-solves) between shards.
  if (proposed <= current ||
      proposed - current < options_.realloc_hysteresis * current) {
    return;
  }
  ++stats_.realloc_adoptions;
  std::vector<std::size_t> changed;
  for (std::size_t s = 0; s < n; ++s) {
    if (proposal[s] == shard_budget_[s]) continue;
    if (proposal[s] > shard_budget_[s]) {
      stats_.budget_moves += proposal[s] - shard_budget_[s];
    }
    Command retarget;
    retarget.kind = Command::Kind::kSetBudget;
    retarget.budget = proposal[s];
    shard_budget_[s] = proposal[s];
    RouteCommand(s, std::move(retarget));
    changed.push_back(s);
  }
  Drain();
  // SetBudget only marks the plan dirty; the re-solve happens on the next
  // batch.  Push an empty batch at every retargeted shard so the published
  // deployments respect the new split before this round returns — without
  // it a shrunken shard could stay over budget until churn next touches it.
  for (std::size_t s : changed) {
    Command kick;
    kick.kind = Command::Kind::kBatch;
    kick.epoch = epoch_;
    RouteCommand(s, std::move(kick));
  }
  Drain();
}

void ShardedEngine::SetFleetState(FleetState state) {
  if (state == fleet_state_) return;
  fleet_state_ = state;
  ++stats_.state_transitions;
}

void ShardedEngine::Supervise() {
  if (!options_.supervise) return;
  bool any_unhealthy = false;
  for (std::size_t s = 0; s < workers_.size(); ++s) {
    Worker& worker = *workers_[s];
    if (worker.crashed.load(std::memory_order_acquire)) {
      RecoverShard(s);
      if (worker.crashed.load(std::memory_order_acquire)) {
        // Recovery itself hit a fault (the redo replay re-crashed the
        // worker); stay quarantined and retry on the next tick.
        any_unhealthy = true;
      }
      continue;
    }
    const std::int64_t busy =
        worker.busy_since_ns.load(std::memory_order_acquire);
    const std::int64_t timeout_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            options_.stall_timeout)
            .count();
    if (busy != 0 && NowNs() - busy >= timeout_ns) {
      // Stalled, not dead: the engine is intact, so the episode is
      // flagged (SHARD_DEGRADED) and waited out rather than killed.
      if (!worker.stall_flagged) {
        worker.stall_flagged = true;
        ++stats_.stalls_detected;
      }
      any_unhealthy = true;
    } else {
      worker.stall_flagged = false;
    }
  }
  SetFleetState(any_unhealthy ? FleetState::kShardDegraded
                              : FleetState::kNormal);
}

void ShardedEngine::RecoverShard(std::size_t shard) {
  Worker& worker = *workers_[shard];
  ++stats_.crashes_detected;
  SetFleetState(FleetState::kShardDegraded);
  const std::int64_t start_ns = NowNs();
  // Quiesce: the tombstoned worker keeps completing (and discarding)
  // whatever is still queued, so this cannot hang on the dead shard.
  Drain();
  SetFleetState(FleetState::kRecovering);

  // Respawn from the last good checkpoint...
  ShardGuard& guard = guards_[shard];
  Command restore;
  restore.kind = Command::Kind::kRestore;
  restore.restore = std::make_shared<Command::RestorePayload>();
  restore.restore->checkpoint = guard.checkpoint;
  restore.restore->tickets = guard.tickets;
  RouteCommand(shard, std::move(restore));

  // ...then replay everything routed since, in original order.  The
  // entries stay in the ring (replay must not consume them: if the
  // replay itself crashes, the next recovery attempt needs them again);
  // they are pruned by the next capture.
  replaying_ = true;
  for (const RedoEntry& entry : guard.ring) {
    Command command;
    command.kind = entry.kind;
    command.epoch = entry.epoch;
    command.shed = entry.shed;
    command.arrivals = entry.arrivals;
    command.arrival_ids = entry.arrival_ids;
    command.departure_ids = entry.departure_ids;
    command.budget = entry.budget;
    // Rebind replayed engine work to the original batch id (never mint a
    // fresh one): the merged trace shows the recovery re-solves hanging
    // off the batches that first carried the churn.
    command.batch_id = entry.batch_id;
    RouteCommand(shard, std::move(command));
    ++stats_.redo_replayed;
  }
  replaying_ = false;
  Drain();

  if (worker.crashed.load(std::memory_order_acquire)) return;  // re-crashed
  obs::TraceInstant(obs::TracePhase::kShardRecovery, shard);
  stats_.last_recovery_ns = static_cast<std::uint64_t>(NowNs() - start_ns);
  ++stats_.recoveries_completed;
  worker.stall_flagged = false;
  // Re-enter the budget-reallocation round: the fleet may have moved
  // budget while this shard was down, and the recovered shard's curve
  // belongs back in the merge.  Cadence-independent but respects the
  // realloc-disabled configuration.
  if (options_.realloc_interval_epochs != 0) ReallocateBudgetsNow();
  SetFleetState(FleetState::kNormal);
}

void ShardedEngine::MaybeCaptureCheckpoints() {
  if (!options_.supervise) return;
  const std::uint64_t interval =
      options_.supervisor_checkpoint_interval_epochs;
  if (!capture_due_ &&
      (interval == 0 || epoch_ - last_capture_epoch_ < interval)) {
    return;
  }
  CaptureCheckpoints();
}

void ShardedEngine::CaptureCheckpoints() {
  Drain();
  for (std::size_t s = 0; s < workers_.size(); ++s) {
    Worker& worker = *workers_[s];
    if (worker.crashed.load(std::memory_order_acquire)) {
      // Quarantined shards keep their previous guard (and its ring):
      // capture resumes once recovery succeeds.
      continue;
    }
    // Quiesced handoff (rule 3): after Drain the coordinator is the
    // engines' client thread.
    ShardGuard& guard = guards_[s];
    guard.checkpoint = worker.engine->Checkpoint();
    guard.tickets.assign(worker.tickets.begin(), worker.tickets.end());
    guard.ring.clear();
    ++stats_.supervisor_checkpoints;
  }
  last_capture_epoch_ = epoch_;
  capture_due_ = false;
}

void ShardedEngine::CrashShard(std::size_t shard) {
  TDMD_CHECK_MSG(options_.supervise,
                 "CrashShard is a supervised-fleet drill; enable "
                 "ShardedEngineOptions::supervise");
  TDMD_CHECK_MSG(shard < workers_.size(), "CrashShard: no such shard");
  Command crash;
  crash.kind = Command::Kind::kCrash;
  crash.epoch = epoch_;
  RouteCommand(shard, std::move(crash));
}

FleetSnapshot ShardedEngine::Snapshot() {
  // Quiesce BEFORE the supervision tick: an injected worker abort only
  // materializes when the worker actually dequeues the poisoned command,
  // which on a saturated (or single-core) host may not happen until the
  // coordinator blocks right here.  Supervise-then-Drain would read the
  // quarantined hole without recovering it; Drain-then-Supervise sees
  // every crash caused by commands routed so far.
  Drain();
  Supervise();
  // Certificate refresh round: churn deferral inflates each shard's
  // running bound by every arrival since its last re-solve, so the
  // summed fleet certificate would drift looser than a single engine's.
  // One fresh probe-style solve per non-empty shard (in parallel on the
  // shard workers) replaces the inflated bounds with exact ones.
  std::vector<Bandwidth> fresh_certs(workers_.size(), 0.0);
  for (std::size_t s = 0; s < workers_.size(); ++s) {
    // A persistently failing shard (recovery re-crashed on this tick) has
    // no engine to certify; its status below reports crashed = true.
    if (workers_[s]->engine == nullptr) continue;
    if (workers_[s]->engine->index().active_flows() == 0) continue;
    Command certify;
    certify.kind = Command::Kind::kCertify;
    certify.cert_out = &fresh_certs[s];
    RouteCommand(s, std::move(certify));
  }
  Drain();

  FleetSnapshot snapshot;
  snapshot.epoch = epoch_;
  snapshot.state = fleet_state_;
  snapshot.deployment = core::Deployment(network_.num_vertices());
  snapshot.cert_valid = true;
  snapshot.shards.reserve(workers_.size());

  traffic::FlowSet all_flows;
  for (std::size_t s = 0; s < workers_.size(); ++s) {
    if (workers_[s]->engine == nullptr) {
      // Still quarantined: report the hole instead of dereferencing it.
      ShardStatus status;
      status.budget = shard_budget_[s];
      status.quarantined = true;
      status.redo_ring = options_.supervise ? guards_[s].ring.size() : 0;
      snapshot.cert_valid = false;
      snapshot.feasible = false;
      snapshot.shards.push_back(std::move(status));
      continue;
    }
    // Quiesced handoff (rule 3 in the header): after Drain the
    // coordinator is the engines' client thread.
    const engine::Engine& eng = *workers_[s]->engine;
    const std::shared_ptr<const engine::DeploymentSnapshot> shard_snap =
        eng.CurrentSnapshot();
    const engine::EngineStats stats = eng.stats();

    ShardStatus status;
    status.budget = shard_budget_[s];
    status.boxes = shard_snap->deployment.size();
    status.bandwidth = shard_snap->bandwidth;
    status.feasible = shard_snap->feasible;
    status.mode = stats.mode;
    status.epochs = stats.epochs;
    status.active_flows = eng.index().active_flows();
    status.queue_occupancy = workers_[s]->queue.ApproxSize();
    status.redo_ring = options_.supervise ? guards_[s].ring.size() : 0;
    status.quarantined = false;

    // Empty shard: contributes decrement 0 and the zero bound is exact;
    // otherwise the fresh bound from this snapshot's certify round.
    status.cert_valid = true;
    status.cert_bound = fresh_certs[s];
    snapshot.cert_valid = snapshot.cert_valid && status.cert_valid;
    snapshot.cert_bound += status.cert_bound;
    if (static_cast<std::uint64_t>(status.mode) >
        static_cast<std::uint64_t>(snapshot.mode)) {
      snapshot.mode = status.mode;
    }

    for (const VertexId v : shard_snap->deployment.vertices()) {
      if (!snapshot.deployment.Contains(v)) snapshot.deployment.Add(v);
    }
    for (const engine::FlowTicket ticket : eng.index().ActiveTickets()) {
      all_flows.push_back(eng.index().FlowAt(ticket));
    }
    snapshot.shards.push_back(std::move(status));
  }

  // The fleet-level numbers are union-evaluated: one instance over every
  // active flow, the merged deployment against it.  This is the number
  // comparable with a single-engine run — per-shard bandwidths are the
  // exactly-once local accounts and ignore cross-shard help.
  const core::Instance instance(network_, std::move(all_flows),
                                options_.engine.lambda);
  snapshot.bandwidth = core::EvaluateBandwidth(instance, snapshot.deployment);
  core::ServedState served(instance);
  for (const VertexId v : snapshot.deployment.vertices()) {
    served.Deploy(v);
  }
  snapshot.feasible = served.AllServed();
  return snapshot;
}

obs::MetricsRegistry ShardedEngine::Metrics() {
  const FleetSnapshot snapshot = Snapshot();  // drains
  obs::MetricsRegistry registry;

  engine::EngineStats totals{};
  engine::EngineHistograms merged;
  std::vector<engine::EngineStats> per_shard;
  per_shard.reserve(workers_.size());
  for (const auto& worker : workers_) {
    if (worker->engine == nullptr) {
      per_shard.emplace_back();  // quarantined shard: zero counters
      continue;
    }
    per_shard.push_back(worker->engine->stats());
    const engine::EngineHistograms h = worker->engine->histograms();
    merged.patch_ns.Merge(h.patch_ns);
    merged.resolve_ns.Merge(h.resolve_ns);
    merged.index_delta_ns.Merge(h.index_delta_ns);
    merged.greedy_round_ns.Merge(h.greedy_round_ns);
  }
#define TDMD_SUM_COUNTER(name) totals.name += stats.name;
  for (const engine::EngineStats& stats : per_shard) {
    TDMD_ENGINE_STATS_COUNTERS(TDMD_SUM_COUNTER)
  }
#undef TDMD_SUM_COUNTER

#define TDMD_FLEET_COUNTER(name)                            \
  registry.AddCounter("tdmd_fleet_" #name, totals.name,     \
                      "sum of tdmd_engine_" #name " across all shards");
  TDMD_ENGINE_STATS_COUNTERS(TDMD_FLEET_COUNTER)
#undef TDMD_FLEET_COUNTER

  registry.AddCounter("tdmd_fleet_num_shards", workers_.size(),
                      "number of shards in the serving fleet");
  registry.AddCounter("tdmd_fleet_epochs", stats_.epochs,
                      "fleet epochs submitted to the coordinator");
  registry.AddCounter("tdmd_fleet_commands_routed", stats_.commands_routed,
                      "commands routed through shard queues");
  registry.AddCounter("tdmd_fleet_batches_skipped", stats_.batches_skipped,
                      "shard-epochs skipped because the shard had no events");
  registry.AddCounter("tdmd_fleet_cross_shard_flows",
                      stats_.cross_shard_flows,
                      "arrivals whose path touched more than one shard");
  registry.AddCounter("tdmd_fleet_realloc_rounds", stats_.realloc_rounds,
                      "budget reallocation rounds considered");
  registry.AddCounter("tdmd_fleet_realloc_adoptions",
                      stats_.realloc_adoptions,
                      "budget reallocations adopted past hysteresis");
  registry.AddCounter("tdmd_fleet_budget_moves", stats_.budget_moves,
                      "middlebox budget units moved between shards");
  registry.AddCounter(
      "tdmd_fleet_mode", static_cast<std::uint64_t>(snapshot.mode),
      "worst degradation mode across shards (0 normal, 1 degraded, "
      "2 patch-only)");
  registry.AddCounter("tdmd_fleet_boxes", snapshot.deployment.size(),
                      "distinct middleboxes deployed across the fleet");
  registry.AddCounter("tdmd_fleet_feasible", snapshot.feasible ? 1 : 0,
                      "1 when the union deployment serves every flow");
  registry.AddCounter("tdmd_fleet_cert_valid", snapshot.cert_valid ? 1 : 0,
                      "1 when every shard holds a valid certificate");
  registry.AddGauge("tdmd_fleet_bandwidth", snapshot.bandwidth,
                    "union-evaluated fleet bandwidth");
  registry.AddGauge("tdmd_fleet_cert_bound", snapshot.cert_bound,
                    "split-conditional fleet optimality bound (sum of "
                    "per-shard certified bounds)");

  // --- survivability (DESIGN.md Section 14) ---------------------------
  registry.AddCounter(
      "tdmd_fleet_state", static_cast<std::uint64_t>(snapshot.state),
      "supervisor state machine (0 NORMAL, 1 SHARD_DEGRADED, "
      "2 RECOVERING)");
  registry.AddCounter("tdmd_fleet_state_transitions",
                      stats_.state_transitions,
                      "fleet state machine edges");
  registry.AddCounter("tdmd_fleet_crashes_detected",
                      stats_.crashes_detected,
                      "crashed shards detected by the supervisor");
  registry.AddCounter("tdmd_fleet_stalls_detected", stats_.stalls_detected,
                      "worker stall episodes past stall_timeout");
  registry.AddCounter("tdmd_fleet_recoveries_completed",
                      stats_.recoveries_completed,
                      "shard recoveries (restore + redo replay) completed");
  registry.AddCounter("tdmd_fleet_redo_replayed", stats_.redo_replayed,
                      "commands replayed from redo rings during recovery");
  registry.AddCounter("tdmd_fleet_supervisor_checkpoints",
                      stats_.supervisor_checkpoints,
                      "per-shard recovery checkpoints captured");
  registry.AddGauge("tdmd_fleet_last_recovery_seconds",
                    static_cast<double>(stats_.last_recovery_ns) * 1e-9,
                    "wall time of the most recent completed recovery");
  registry.AddCounter("tdmd_fleet_shed_batches", stats_.shed_batches,
                      "batches shed to deferred-re-solve admission");
  registry.AddCounter("tdmd_fleet_shed_events", stats_.shed_events,
                      "arrivals+departures carried by shed batches");
  registry.AddCounter("tdmd_fleet_backpressure_waits",
                      stats_.backpressure_waits,
                      "batches that blocked at a queue high-water mark");
  registry.AddCounter("tdmd_fleet_queue_depth_limit", options_.queue_depth,
                      "configured per-shard queue high-water mark "
                      "(0 unbounded)");
  registry.AddCounter("tdmd_fleet_shed_alert_active",
                      shed_alert_.active() ? 1 : 0,
                      "1 while the shed-rate CUSUM alert is raised");
  registry.AddCounter("tdmd_fleet_shed_alerts_raised",
                      shed_alert_.raised_total(),
                      "shed-rate alert raise edges");
  registry.AddCounter("tdmd_fleet_shed_alerts_cleared",
                      shed_alert_.cleared_total(),
                      "shed-rate alert clear edges");
  registry.AddGauge("tdmd_fleet_shed_cusum", shed_alert_.value(),
                    "one-sided CUSUM over the per-epoch shed fraction");

  // --- e2e SLO pipeline (DESIGN.md Section 15) ------------------------
  // Worker e2e state is read under the quiesced handoff (Snapshot()
  // above drained).
  obs::LatencyHistogram e2e_submit_dequeue;
  obs::LatencyHistogram e2e_dequeue_patched;
  obs::LatencyHistogram e2e_patched_adopted;
  obs::LatencyHistogram e2e_admission_adoption;
  std::uint64_t e2e_total = 0;
  std::uint64_t e2e_over = 0;
  for (const auto& worker : workers_) {
    e2e_submit_dequeue.Merge(worker->e2e_submit_dequeue);
    e2e_dequeue_patched.Merge(worker->e2e_dequeue_patched);
    e2e_patched_adopted.Merge(worker->e2e_patched_adopted);
    e2e_admission_adoption.Merge(worker->e2e_admission_adoption);
    e2e_total += worker->e2e_total.load(std::memory_order_relaxed);
    e2e_over += worker->e2e_over_slo.load(std::memory_order_relaxed);
  }
  registry.AddHistogramNs("tdmd_fleet_e2e_submit_dequeue",
                          e2e_submit_dequeue,
                          "fleet batch submit-to-dequeue (queue dwell) "
                          "latency");
  registry.AddHistogramNs("tdmd_fleet_e2e_dequeue_patched",
                          e2e_dequeue_patched,
                          "fleet batch dequeue-to-patch-publish latency");
  registry.AddHistogramNs("tdmd_fleet_e2e_patched_adopted",
                          e2e_patched_adopted,
                          "fleet batch patch-publish-to-adoption latency");
  registry.AddHistogramNs("tdmd_fleet_e2e_admission_adoption",
                          e2e_admission_adoption,
                          "fleet batch end-to-end admission-to-adoption "
                          "latency");
  registry.AddGauge("tdmd_fleet_e2e_slo_seconds",
                    static_cast<double>(options_.e2e_slo.count()) * 1e-9,
                    "configured admission-to-adoption SLO (0 disables the "
                    "burn detector)");
  registry.AddCounter("tdmd_fleet_e2e_batches", e2e_total,
                      "batch commands with e2e stage accounting");
  registry.AddCounter("tdmd_fleet_e2e_slo_violations", e2e_over,
                      "batch commands over the admission-to-adoption SLO");
  registry.AddCounter("tdmd_fleet_e2e_alert_active",
                      e2e_alert_.active() ? 1 : 0,
                      "1 while the e2e SLO-burn alert is raised");
  registry.AddCounter("tdmd_fleet_e2e_alerts_raised",
                      e2e_alert_.raised_total(),
                      "e2e SLO-burn alert raise edges");
  registry.AddCounter("tdmd_fleet_e2e_alerts_cleared",
                      e2e_alert_.cleared_total(),
                      "e2e SLO-burn alert clear edges");
  registry.AddGauge("tdmd_fleet_e2e_cusum", e2e_alert_.value(),
                    "one-sided CUSUM over the per-epoch e2e SLO violation "
                    "fraction");
  // Last-known even after the run's tracer is uninstalled (the latch in
  // obs::InstallTracer), so post-run scrapes never read a silent zero.
  registry.AddCounter("tdmd_trace_dropped_total", obs::TraceDropTotal(),
                      "trace events overwritten by ring wrap-around");
  registry.AddCounter("tdmd_profile_samples_total",
                      obs::ProfileSampleTotal(),
                      "CPU samples delivered by the sampling profiler");
  registry.AddCounter("tdmd_profile_dropped_total", obs::ProfileDropTotal(),
                      "CPU samples overwritten by ring wrap-around");

  // Fleet-wide memory-capacity accounting: the engines are touchable here
  // because Snapshot() above left the fleet quiesced (rule 3).
  const FleetMemoryStats memory = MemoryUsageQuiesced();
  registry.AddGauge("tdmd_mem_index_bytes",
                    static_cast<double>(memory.index_bytes),
                    "summed per-engine FlowCoverageIndex heap bytes");
  registry.AddGauge("tdmd_mem_snapshot_bytes",
                    static_cast<double>(memory.snapshot_bytes),
                    "summed per-engine published snapshot bytes");
  registry.AddGauge("tdmd_mem_queue_bytes",
                    static_cast<double>(memory.queue_bytes),
                    "MPSC command-queue node bytes (0 when drained)");
  registry.AddGauge("tdmd_mem_redo_ring_bytes",
                    static_cast<double>(memory.redo_ring_bytes),
                    "per-shard redo-ring heap bytes");
  registry.AddGauge("tdmd_mem_active_flows",
                    static_cast<double>(memory.active_flows),
                    "fleet-wide active flows backing bytes-per-flow");
  registry.AddGauge(
      "tdmd_mem_bytes_per_flow",
      memory.active_flows > 0
          ? static_cast<double>(memory.index_bytes) /
                static_cast<double>(memory.active_flows)
          : 0.0,
      "summed index heap bytes per fleet-wide active flow");
  obs::AddBuildInfoMetric(registry);

  registry.AddHistogramNs("tdmd_fleet_patch", merged.patch_ns,
                          "merged per-shard feasibility patch latency");
  registry.AddHistogramNs("tdmd_fleet_resolve", merged.resolve_ns,
                          "merged per-shard re-solve latency");
  registry.AddHistogramNs("tdmd_fleet_index_delta", merged.index_delta_ns,
                          "merged per-shard index delta latency");
  registry.AddHistogramNs("tdmd_fleet_greedy_round", merged.greedy_round_ns,
                          "merged per-shard CELF greedy round latency");

  for (std::size_t s = 0; s < workers_.size(); ++s) {
    const std::string prefix = "tdmd_shard" + std::to_string(s) + "_";
    const ShardStatus& status = snapshot.shards[s];
#define TDMD_SHARD_COUNTER(name)                          \
  registry.AddCounter(prefix + #name, per_shard[s].name,  \
                      "shard-local tdmd_engine_" #name);
    TDMD_ENGINE_STATS_COUNTERS(TDMD_SHARD_COUNTER)
#undef TDMD_SHARD_COUNTER
    registry.AddCounter(prefix + "budget", status.budget,
                        "middlebox budget allocated to this shard");
    registry.AddCounter(prefix + "boxes", status.boxes,
                        "middleboxes deployed by this shard");
    registry.AddCounter(prefix + "active_flows", status.active_flows,
                        "flows owned by this shard");
    registry.AddCounter(prefix + "feasible", status.feasible ? 1 : 0,
                        "1 when this shard serves all of its flows");
    registry.AddCounter(prefix + "mode",
                        static_cast<std::uint64_t>(status.mode),
                        "shard degradation mode");
    registry.AddGauge(prefix + "bandwidth", status.bandwidth,
                      "shard-local bandwidth over owned flows");
    registry.AddGauge(prefix + "cert_bound", status.cert_bound,
                      "shard-local certified optimality bound");
    registry.AddCounter(prefix + "queue_depth", status.queue_occupancy,
                        "approximate command-queue occupancy (0 when "
                        "drained)");
    registry.AddCounter(prefix + "redo_ring", status.redo_ring,
                        "commands held in this shard's redo ring");
    registry.AddCounter(prefix + "crashed", status.quarantined ? 1 : 0,
                        "1 while this shard is quarantined");
  }
  return registry;
}

void ShardedEngine::DumpMetrics(std::ostream& os, obs::MetricsFormat format) {
  Metrics().Render(os, format);
}

FleetMemoryStats ShardedEngine::MemoryUsage() {
  Drain();
  return MemoryUsageQuiesced();
}

FleetMemoryStats ShardedEngine::MemoryUsageQuiesced() {
  FleetMemoryStats memory;
  for (const auto& worker : workers_) {
    memory.queue_bytes += worker->queue.MemoryFootprint();
    if (worker->engine == nullptr) {
      continue;  // quarantined shard: engine dropped until recovery
    }
    const engine::EngineMemoryStats engine_memory =
        worker->engine->MemoryUsage();
    memory.index_bytes += engine_memory.index_bytes;
    memory.snapshot_bytes += engine_memory.snapshot_bytes;
    memory.active_flows += engine_memory.active_flows;
  }
  for (const ShardGuard& guard : guards_) {
    for (const RedoEntry& entry : guard.ring) {
      memory.redo_ring_bytes += sizeof(RedoEntry);
      for (const traffic::Flow& flow : entry.arrivals) {
        memory.redo_ring_bytes +=
            sizeof(traffic::Flow) +
            flow.path.vertices.capacity() * sizeof(VertexId);
      }
      memory.redo_ring_bytes +=
          entry.arrival_ids.capacity() * sizeof(FlowId64) +
          entry.departure_ids.capacity() * sizeof(FlowId64);
    }
  }
  return memory;
}

FleetCheckpoint ShardedEngine::Checkpoint() {
  // Quiesce, then recover any quarantined shard: a crash materializes
  // only when the worker dequeues the poisoned command (possibly during
  // this very Drain), and a checkpoint must cover every shard's engine.
  Drain();
  Supervise();
  FleetCheckpoint checkpoint;
  checkpoint.num_shards = workers_.size();
  checkpoint.method = partition_.method;
  checkpoint.partition_seed = partition_.seed;
  checkpoint.epoch = epoch_;
  checkpoint.next_flow_id = next_flow_id_;
  checkpoint.budgets = shard_budget_;
  checkpoint.engines.reserve(workers_.size());
  for (std::size_t s = 0; s < workers_.size(); ++s) {
    const Worker& worker = *workers_[s];
    TDMD_CHECK_MSG(worker.engine != nullptr,
                   "cannot checkpoint: shard "
                       << s << " is quarantined and its recovery keeps "
                       << "re-crashing");
    for (const auto& [id, ticket] : worker.tickets) {
      checkpoint.flows.push_back(FleetCheckpoint::FlowEntry{
          id, static_cast<std::uint32_t>(s), ticket});
    }
    checkpoint.engines.push_back(worker.engine->Checkpoint());
  }
  std::sort(checkpoint.flows.begin(), checkpoint.flows.end(),
            [](const FleetCheckpoint::FlowEntry& a,
               const FleetCheckpoint::FlowEntry& b) { return a.id < b.id; });
  TDMD_CHECK_MSG(checkpoint.flows.size() == flow_owner_.size(),
                 "fleet flow table and worker ticket maps diverged");
  return checkpoint;
}

void ShardedEngine::Restore(const FleetCheckpoint& checkpoint) {
  TDMD_CHECK_MSG(epoch_ == 0 && next_flow_id_ == 0 && flow_owner_.empty(),
                 "Restore requires a freshly constructed fleet");
  const std::size_t n = workers_.size();
  TDMD_CHECK_MSG(checkpoint.num_shards == n,
                 "checkpoint has " << checkpoint.num_shards
                                   << " shards, fleet has " << n);
  TDMD_CHECK_MSG(checkpoint.method == partition_.method,
                 "checkpoint partition method mismatch");
  TDMD_CHECK_MSG(checkpoint.partition_seed == partition_.seed,
                 "checkpoint partition seed mismatch");
  TDMD_CHECK_MSG(checkpoint.budgets.size() == n &&
                     checkpoint.engines.size() == n,
                 "checkpoint shard records incomplete");
  std::size_t budget_sum = 0;
  for (const std::size_t b : checkpoint.budgets) {
    TDMD_CHECK_MSG(b >= 1, "checkpoint shard budget must be >= 1");
    budget_sum += b;
  }
  TDMD_CHECK_MSG(budget_sum == options_.total_budget,
                 "checkpoint budgets sum to " << budget_sum
                                              << ", fleet budget is "
                                              << options_.total_budget);

  epoch_ = checkpoint.epoch;
  next_flow_id_ = checkpoint.next_flow_id;
  shard_budget_ = checkpoint.budgets;

  std::vector<std::shared_ptr<Command::RestorePayload>> payloads(n);
  for (std::size_t s = 0; s < n; ++s) {
    payloads[s] = std::make_shared<Command::RestorePayload>();
    payloads[s]->checkpoint = checkpoint.engines[s];
  }
  for (const FleetCheckpoint::FlowEntry& entry : checkpoint.flows) {
    TDMD_CHECK_MSG(entry.shard < n, "flow entry names an unknown shard");
    const bool inserted =
        flow_owner_.emplace(entry.id, entry.shard).second;
    TDMD_CHECK_MSG(inserted, "duplicate fleet flow id in checkpoint");
    payloads[entry.shard]->tickets.emplace_back(entry.id, entry.ticket);
  }
  for (std::size_t s = 0; s < n; ++s) {
    Command restore;
    restore.kind = Command::Kind::kRestore;
    restore.restore = std::move(payloads[s]);
    RouteCommand(s, std::move(restore));
  }
  Drain();
  // Re-seed the recovery guards from the restored state so a crash right
  // after Restore replays from this checkpoint, not the empty fleet.
  if (options_.supervise) CaptureCheckpoints();
}

}  // namespace tdmd::shard
