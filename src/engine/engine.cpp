#include "engine/engine.hpp"

#include <algorithm>
#include <ostream>
#include <span>
#include <type_traits>
#include <utility>

#include "analysis/audit.hpp"
#include "core/objective.hpp"
#include "engine/checkpoint.hpp"
#include "obs/build_info.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"

namespace tdmd::engine {

namespace {

struct FlowEval {
  Bandwidth contribution = 0.0;
  bool covered = false;
};

/// One flow's term of b(P, F) under the forced nearest-source allocation,
/// plus whether any deployed vertex lies on its path.  O(|p|).
FlowEval EvaluateFlow(std::span<const VertexId> path, Rate rate,
                      const core::Deployment& deployment, double lambda) {
  const auto edges = static_cast<Bandwidth>(path.size() - 1);
  FlowEval eval;
  Bandwidth diminished = 0.0;
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (deployment.Contains(path[i])) {
      diminished = edges - static_cast<Bandwidth>(i);
      eval.covered = true;
      break;
    }
  }
  eval.contribution =
      static_cast<Bandwidth>(rate) * (edges - (1.0 - lambda) * diminished);
  return eval;
}

/// Injected kIndexDelta throws fire before any index mutation, so a
/// bounded retry loop is safe; the bound only guards against a
/// misconfigured injector with throw probability 1.
constexpr std::size_t kMaxIndexDeltaRetries = 64;

}  // namespace

Engine::Engine(graph::Digraph network, EngineOptions options)
    : options_(options),
      budget_k_(options.k),
      index_(std::move(network), options.lambda),
      deployment_(index_.num_vertices()),
      quality_prev_deployment_(index_.num_vertices()) {
  TDMD_CHECK_MSG(options_.k >= 1, "middlebox budget k must be >= 1");
  TDMD_CHECK_MSG(options_.resolve_churn_fraction >= 0.0,
                 "resolve_churn_fraction must be >= 0");
  if (options_.fault_injector != nullptr) {
    index_.set_fault_injector(options_.fault_injector);
  }
  {
    MutexLock lock(state_mu_);
    PublishLocked();  // version 1: the empty deployment, trivially feasible
  }
}

template <typename Fn>
decltype(auto) Engine::RetryIndexDeltaLocked(Fn&& fn) {
  for (std::size_t attempt = 0;; ++attempt) {
    try {
      return fn();
    } catch (const faults::FaultInjectedError&) {
      if (attempt + 1 >= kMaxIndexDeltaRetries) throw;
      ++stats_.index_fault_retries;
    }
  }
}

Engine::BatchResult Engine::SubmitBatch(
    const traffic::FlowSet& arrivals,
    const std::vector<FlowTicket>& departures) {
  return SubmitBatch(arrivals, departures, SubmitOptions{});
}

Engine::BatchResult Engine::SubmitBatch(
    const traffic::FlowSet& arrivals,
    const std::vector<FlowTicket>& departures, const SubmitOptions& submit) {
  return SubmitArrivals(arrivals, departures, submit);
}

Engine::BatchResult Engine::SubmitBatch(
    const ArrivalBatch& arrivals, const std::vector<FlowTicket>& departures,
    const SubmitOptions& submit) {
  return SubmitArrivals(arrivals, departures, submit);
}

template <typename Arrivals>
Engine::BatchResult Engine::SubmitArrivals(
    const Arrivals& arrivals, const std::vector<FlowTicket>& departures,
    const SubmitOptions& submit) {
  constexpr bool kFlat = std::is_same_v<Arrivals, ArrivalBatch>;
  BatchResult result;
  obs::ScopedSpan epoch_span(obs::TracePhase::kEpoch);
  epoch_span.set_batch(submit.batch_id);
  MutexLock lock(state_mu_);
  current_batch_id_ = submit.batch_id;
  last_adoption_ns_ = 0;

  ++epoch_;
  ++stats_.epochs;
  result.epoch = epoch_;
  epoch_span.set_arg(epoch_);
  // Adoption-staleness clock ticks once per epoch, before any sampling.
  if (options_.quality_sampling) quality_tracker_.OnEpoch();
  if (BackingOffLocked()) ++stats_.patch_only_epochs;

  {
    // One batched index-delta sample per epoch (not per op) keeps the
    // histogram cost off the per-flow hot path.
    obs::ScopedSpan delta_span(obs::TracePhase::kIndexDelta,
                               departures.size() + arrivals.size());
    obs::ScopedHistogramTimer delta_timer(&histograms_.index_delta_ns);
    for (FlowTicket ticket : departures) {
      const std::uint32_t path_class = index_.ClassOf(ticket);
      if (path_class == FlowCoverageIndex::kNoClass) {
        // Duplicate, already-departed or never-issued ticket: a counted
        // no-op, so departure submission is idempotent.
        ++stats_.stale_departures;
        continue;
      }
      // Compute the contribution before the (fault-injectable) removal: an
      // injected throw leaves both the index and the maintained objective
      // untouched, and the two are only updated together once it succeeds.
      const Bandwidth contribution =
          EvaluateFlow(index_.ClassPath(path_class), index_.RateOf(ticket),
                       deployment_, options_.lambda)
              .contribution;
      RetryIndexDeltaLocked(
          [&]() TDMD_REQUIRES(state_mu_) { index_.RemoveFlow(ticket); });
      maintained_bandwidth_ -= contribution;
      ++stats_.departures;
    }
    result.tickets.reserve(arrivals.size());
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      std::span<const VertexId> path;
      Rate rate = 0;
      if constexpr (kFlat) {
        path = arrivals.Path(i);
        rate = arrivals.rates[i];
      } else {
        path = arrivals[i].path.vertices;
        rate = arrivals[i].rate;
      }
      const FlowTicket ticket =
          RetryIndexDeltaLocked([&]() TDMD_REQUIRES(state_mu_) {
            if constexpr (kFlat) {
              return index_.AddFlow(path, rate);
            } else {
              return index_.AddFlow(arrivals[i]);  // also checks src/dst
            }
          });
      result.tickets.push_back(ticket);
      ++stats_.arrivals;
      const FlowEval eval =
          EvaluateFlow(path, rate, deployment_, options_.lambda);
      maintained_bandwidth_ += eval.contribution;
      if (options_.quality_sampling) {
        // The arrival can add at most rate * (1 - lambda) * |p| to any
        // deployment's decrement (serve at source), so inflating the
        // certificate by that potential keeps it a valid bound.
        quality_tracker_.OnArrival(static_cast<Bandwidth>(rate) *
                                   (1.0 - options_.lambda) *
                                   static_cast<Bandwidth>(path.size() - 1));
      }
      if (!eval.covered) uncovered_.push_back(ticket);
    }
  }

  pending_churn_ += departures.size() + arrivals.size();

  {
    obs::ScopedSpan patch_span(obs::TracePhase::kPatch);
    patch_span.set_batch(submit.batch_id);
    obs::ScopedHistogramTimer patch_timer(&histograms_.patch_ns);
    result.patch_boxes = PatchFeasibilityLocked();
    if (result.patch_boxes > 0) {
      ++stats_.patches;
      stats_.patch_boxes += result.patch_boxes;
      // The patched boxes also serve (or serve earlier) flows that were
      // already covered, so the incremental total is stale; resync once.
      maintained_bandwidth_ =
          EvaluateUnits(index_, deployment_).bandwidth(index_.lambda());
    }
    patch_span.set_arg(result.patch_boxes);
  }
  PublishLocked();
  result.patched_ns = obs::MonotonicNanos();

  // Shed admission defers the re-solve outright: the epoch's churn has
  // been applied and published above, and pending_churn_ carries the
  // deferred work into the next un-shed epoch's cadence check.
  if (!submit.defer_resolve && index_.active_flows() > 0) {
    if (BackingOffLocked()) {
      if (++epochs_since_probe_ >= kProbeIntervalEpochs) {
        epochs_since_probe_ = 0;
        ResolveLocked();  // probe: detects solver recovery
      }
    } else if (ResolveDueLocked()) {
      ResolveLocked();
    }
  }
  result.backing_off = BackingOffLocked();
  // The batch's last published-state advance: a re-solve adoption when
  // one landed inside this call, otherwise the patch publish.  Fleet runs
  // mark it with a batch-adopted instant so the merged trace closes each
  // batch's causal chain.
  result.adopted_ns =
      last_adoption_ns_ != 0 ? last_adoption_ns_ : result.patched_ns;
  if (submit.batch_id != 0) {
    obs::TraceInstant(obs::TracePhase::kBatchAdopted, epoch_,
                      submit.batch_id);
  }
  current_batch_id_ = 0;
  return result;
}

bool Engine::ResolveDueLocked() const {
  // fraction == 0 keeps the classic cadence: a re-solve every batch, even
  // an empty one (probes rely on that).
  if (options_.resolve_churn_fraction <= 0.0) return true;
  if (budget_dirty_) return true;
  const auto threshold = static_cast<std::uint64_t>(std::max(
      1.0, options_.resolve_churn_fraction *
               static_cast<double>(index_.active_flows())));
  return pending_churn_ >= threshold;
}

std::size_t Engine::PatchFeasibilityLocked() {
  const FlowCoverageIndex& index = index_;
  const core::Deployment& deployment = deployment_;
  const auto unserved_class = [&](FlowTicket ticket) {
    const std::uint32_t path_class = index.ClassOf(ticket);
    return path_class != FlowCoverageIndex::kNoClass &&
           ServingIndex(index, path_class, deployment) ==
               core::kUnservedIndex;
  };
  // Refresh the uncovered list: drop tickets that departed or gained
  // coverage since they were recorded.  O(|uncovered| * |p|), not O(|F|).
  std::erase_if(uncovered_, [&](FlowTicket t) { return !unserved_class(t); });
  if (uncovered_.empty()) {
    maintained_feasible_ = true;
    return 0;
  }

  // Greedy cover with spare budget: repeatedly deploy the vertex covering
  // the most unserved flows (ties toward the lowest id).  Flows of one
  // class are served together, so the cover runs over the unserved
  // classes weighted by their unserved-flow counts; no vertex on their
  // paths is deployed while they stay on the list.
  struct UnservedClass {
    std::uint32_t path_class;
    std::size_t flows;
  };
  std::vector<UnservedClass> classes;
  std::vector<std::uint32_t> position(index.num_path_classes(),
                                      FlowCoverageIndex::kNoClass);
  for (FlowTicket ticket : uncovered_) {
    const std::uint32_t path_class = index.ClassOf(ticket);
    if (position[path_class] == FlowCoverageIndex::kNoClass) {
      position[path_class] = static_cast<std::uint32_t>(classes.size());
      classes.push_back(UnservedClass{path_class, 0});
    }
    ++classes[position[path_class]].flows;
  }
  std::size_t added = 0;
  std::vector<std::size_t> cover(
      static_cast<std::size_t>(index.num_vertices()));
  while (!classes.empty() && deployment_.size() < budget_k_) {
    std::fill(cover.begin(), cover.end(), 0);
    for (const UnservedClass& entry : classes) {
      for (VertexId v : index.ClassPath(entry.path_class)) {
        cover[static_cast<std::size_t>(v)] += entry.flows;
      }
    }
    VertexId best = kInvalidVertex;
    std::size_t best_cover = 0;
    for (VertexId v = 0; v < index.num_vertices(); ++v) {
      if (cover[static_cast<std::size_t>(v)] > best_cover) {
        best = v;
        best_cover = cover[static_cast<std::size_t>(v)];
      }
    }
    if (best == kInvalidVertex) break;  // remaining flows are uncoverable
    if (options_.quality_sampling) {
      // Attribute the patch box its marginal decrement at deploy time, in
      // the solver's gain arithmetic (the CELF chosen gain is the same
      // quantity for adopted solves).
      quality_attribution_.push_back(obs::VertexAttribution{
          best, MarginalDecrement(index, deployment, best)});
    }
    deployment_.Add(best);
    ++added;
    std::erase_if(classes, [&](const UnservedClass& entry) {
      const std::span<const VertexId> path = index.ClassPath(entry.path_class);
      return std::find(path.begin(), path.end(), best) != path.end();
    });
  }
  // Only the uncoverable remainder stays, in maintenance order.
  std::erase_if(uncovered_, [&](FlowTicket t) { return !unserved_class(t); });
  maintained_feasible_ = uncovered_.empty();
  return added;
}

void Engine::PublishLocked() {
  auto snapshot = std::make_shared<DeploymentSnapshot>();
  snapshot->epoch = epoch_;
  snapshot->deployment = deployment_;
  snapshot->bandwidth = maintained_bandwidth_;
  snapshot->feasible = maintained_feasible_;
  ++stats_.snapshots_published;

#if TDMD_AUDITS_ENABLED
  // Every published snapshot must satisfy the Section 3 contracts plus
  // the patch invariant: the auditor rebuilds the instance and recomputes
  // b(P, F) independently of the index's incremental bookkeeping.
  {
    const core::Instance instance = index_.BuildInstance();
    analysis::AuditOptions audit_options;
    // A budget retarget below the current deployment size is legal and
    // resolves at the next adoption, so the audit tolerates the
    // transitional oversize.
    audit_options.max_middleboxes =
        std::max<std::size_t>(budget_k_, deployment_.size());
    analysis::CheckAudit(analysis::AuditEngineSnapshot(
        instance, deployment_, snapshot->bandwidth, snapshot->feasible,
        audit_options));
  }
#endif

  std::uint64_t version = 0;
  {
    MutexLock lock(snapshot_mu_);
    snapshot->version =
        (snapshot_ == nullptr ? 0 : snapshot_->version) + 1;
    version = snapshot->version;
    snapshot_ = std::move(snapshot);
  }

  // Quality sampling rides every publish except the constructor's empty
  // one (epoch 0): that is two samples per epoch (post-patch and, on
  // adoption, post-adoption), all deterministic in the churn stream so
  // checkpoint replay reproduces the timeline byte-identically.
  if (options_.quality_sampling && epoch_ > 0) {
    obs::QualitySampleInputs inputs;
    inputs.epoch = epoch_;
    inputs.version = version;
    inputs.feasible = maintained_feasible_;
    inputs.deployed = static_cast<std::uint32_t>(deployment_.size());
    inputs.budget = static_cast<std::uint32_t>(budget_k_);
    inputs.churn_moves = static_cast<std::uint32_t>(
        core::DeploymentMoveCount(quality_prev_deployment_, deployment_));
    inputs.bandwidth = maintained_bandwidth_;
    inputs.unprocessed = index_.unprocessed_bandwidth();
    inputs.lambda = options_.lambda;
    inputs.attribution = &quality_attribution_;
    const obs::QualitySample sample = quality_tracker_.MakeSample(inputs);
    const std::vector<obs::QualityAlert> fired =
        quality_timeline_.Push(sample);
    obs::TraceInstant(
        obs::TracePhase::kQualitySample,
        obs::PackQualitySampleArg(sample.epoch, sample.realized_ratio));
    for (const obs::QualityAlert& alert : fired) {
      obs::TraceInstant(obs::TracePhase::kQualityAlert,
                        obs::PackQualityAlertArg(alert));
    }
    quality_prev_deployment_ = deployment_;
  }
}

void Engine::MaybeAdoptLocked(const IncrementalGtpResult& result,
                              bool expired) {
  // maintained_bandwidth_/maintained_feasible_ are current for this
  // epoch's flow set: they were refreshed by the SubmitBatch that runs
  // this re-solve.
  const std::size_t moves =
      core::DeploymentMoveCount(deployment_, result.deployment);
  const double required =
      options_.move_threshold * static_cast<double>(moves);
  // After a SetBudget shrink the maintained deployment can exceed the
  // budget; a within-budget re-solve is then adopted unconditionally even
  // though fewer boxes means more bandwidth — the budget constraint
  // outranks the move-hysteresis improvement test.
  const bool over_budget = deployment_.size() > budget_k_;
  if (result.feasible &&
      (!maintained_feasible_ || over_budget ||
       (moves > 0 && maintained_bandwidth_ - result.bandwidth >= required))) {
    deployment_ = result.deployment;
    maintained_bandwidth_ = result.bandwidth;
    maintained_feasible_ = result.feasible;
    uncovered_.clear();  // a feasible re-solve covers every current flow
    ++stats_.adoptions;
    if (expired) ++stats_.resolves_expired_adopted;
    stats_.middlebox_moves += moves;
    last_adoption_ns_ = obs::MonotonicNanos();
    obs::TraceInstant(obs::TracePhase::kAdoption, moves,
                      current_batch_id_);
    if (options_.quality_sampling) {
      // The adopted deployment replaces the attribution ledger wholesale:
      // chosen_gains[i] is the CELF marginal of deployment.vertices()[i]
      // at its selection, exactly "what that middlebox bought".
      quality_attribution_.clear();
      quality_attribution_.reserve(result.chosen_gains.size());
      const std::vector<VertexId>& vertices = result.deployment.vertices();
      for (std::size_t i = 0; i < result.chosen_gains.size(); ++i) {
        quality_attribution_.push_back(
            obs::VertexAttribution{vertices[i], result.chosen_gains[i]});
      }
      quality_tracker_.OnAdoption();
    }
    PublishLocked();
  }
}

bool Engine::HandleResolveOutcomeLocked(const IncrementalGtpResult& result,
                                        bool threw, std::size_t attempt) {
  stats_.gain_reevals += result.oracle_calls;
  stats_.reevals_saved += result.reevals_saved;

  // Any solve that ran (did not throw) yields a valid certificate — even
  // cancelled/expired prefixes, whose leftover heap gains still
  // upper-bound marginals wrt the prefix — and a fresh one must be active
  // before any adoption publish samples below.
  if (options_.quality_sampling && !threw) {
    quality_tracker_.OnCertificate(result.opt_decrement_bound);
  }

  if (threw || result.cancelled) {
    ++stats_.resolve_failures;  // injected throw or cancellation
  } else if (result.deadline_expired) {
    ++stats_.resolve_timeouts;
    // Theorem 2: every greedy prefix is a valid deployment of <= k
    // middleboxes with a truthfully evaluated objective, so a feasible
    // expired prefix is adoptable as a degraded answer.
    if (result.feasible) MaybeAdoptLocked(result, /*expired=*/true);
  } else {
    ++stats_.resolves_completed;
    MaybeAdoptLocked(result, /*expired=*/false);
    // The first clean completion ends the streak, and any backoff with it.
    if (BackingOffLocked()) obs::TraceInstant(obs::TracePhase::kBackoff, 0);
    stats_.consecutive_failures = 0;
    return false;
  }

  if (++stats_.consecutive_failures == kBackoffAfterFailures) {
    // The backoff edge: the probe interval counts from here.
    epochs_since_probe_ = 0;
    obs::TraceInstant(obs::TracePhase::kBackoff, 1);
  }
  if (attempt < options_.max_resolve_retries && !BackingOffLocked()) {
    ++stats_.resolve_retries;
    return true;
  }
  return false;
}

void Engine::ResolveLocked() {
  // This re-solve consumes the accumulated churn signal.
  pending_churn_ = 0;
  budget_dirty_ = false;
  // The lock is held across the solve, so nothing can mutate the index
  // mid-solve.  Retries loop without sleeping so runs stay deterministic.
  for (std::size_t attempt = 0;; ++attempt) {
    ++stats_.resolves_started;
    IncrementalGtpOptions solve_options;
    solve_options.max_middleboxes = budget_k_;
    solve_options.feasibility_aware = true;  // adoptable whenever coverable
    solve_options.fault_injector = options_.fault_injector;
    solve_options.round_histogram = &histograms_.greedy_round_ns;
    if (options_.solve_deadline.count() > 0) {
      solve_options.deadline =
          std::chrono::steady_clock::now() + options_.solve_deadline;
    }
    IncrementalGtpResult result;
    bool threw = false;
    {
      obs::ScopedSpan solve_span(obs::TracePhase::kResolveAttempt, attempt);
      solve_span.set_batch(current_batch_id_);
      obs::ScopedHistogramTimer solve_timer(&histograms_.resolve_ns);
      try {
        result = SolveIncrementalGtp(index_, solve_options);
      } catch (const faults::FaultInjectedError&) {
        threw = true;
      }
    }
    if (!HandleResolveOutcomeLocked(result, threw, attempt)) return;
  }
}

std::shared_ptr<const DeploymentSnapshot> Engine::CurrentSnapshot() const {
  MutexLock lock(snapshot_mu_);
  return snapshot_;
}

EngineStats Engine::StatsLocked() const {
  EngineStats stats = stats_;
  stats.index_delta_ops = index_.stats().delta_ops;
  return stats;
}

EngineStats Engine::stats() const {
  MutexLock lock(state_mu_);
  return StatsLocked();
}

bool Engine::backing_off() const {
  MutexLock lock(state_mu_);
  return BackingOffLocked();
}

std::size_t Engine::budget() const {
  MutexLock lock(state_mu_);
  return budget_k_;
}

void Engine::SetBudget(std::size_t k) {
  TDMD_CHECK_MSG(k >= 1, "middlebox budget k must be >= 1");
  MutexLock lock(state_mu_);
  if (k == budget_k_) return;
  budget_k_ = k;
  // Force a re-solve at the next batch even under the churn-deferral
  // rule: the maintained plan was optimized for the old budget.
  budget_dirty_ = true;
}

IncrementalGtpResult Engine::Probe(std::size_t budget) const {
  MutexLock lock(state_mu_);
  IncrementalGtpOptions solve_options;
  solve_options.max_middleboxes = budget;
  solve_options.feasibility_aware = true;
  // No injector, deadline or round histogram: the probe is a measurement
  // for the fleet's budget split and certificate, not part of the
  // resilience surface — it must return the same answer under fault
  // injection as without, or the fleet's k split would depend on
  // injected faults.
  return SolveIncrementalGtp(index_, solve_options);
}

obs::QualityTimelineSnapshot Engine::QualityTimeline() const {
  MutexLock lock(state_mu_);
  return quality_timeline_.Snapshot();
}

EngineHistograms Engine::histograms() const {
  MutexLock lock(state_mu_);
  return histograms_;
}

obs::MetricsRegistry Engine::Metrics() const {
  // One state_mu_ acquisition for counters, histograms and the quality
  // timeline.  Reading them through the individual accessors would give a
  // torn exposition: an epoch finishing between stats() and histograms()
  // breaks invariants like epochs == patch_ns.count() that hold under the
  // lock (pinned by EngineMetricsConsistency tests).
  EngineStats counters;
  EngineHistograms latencies;
  obs::QualityTimelineSnapshot quality;
  EngineMemoryStats memory;
  {
    MutexLock lock(state_mu_);
    counters = StatsLocked();
    latencies = histograms_;
    quality = quality_timeline_.Snapshot();
    memory.index_bytes = index_.MemoryFootprint();
    memory.active_flows = index_.active_flows();
  }
  {
    MutexLock snapshot_lock(snapshot_mu_);
    memory.snapshot_bytes =
        sizeof(DeploymentSnapshot) + snapshot_->deployment.MemoryFootprint();
  }
  obs::MetricsRegistry registry;
  // Iterating the X-macro guarantees every counter is exposed; adding a
  // counter to the block adds it here with no further wiring.
#define TDMD_EXPOSE_COUNTER(name) \
  registry.AddCounter("tdmd_engine_" #name, counters.name, \
                      "EngineStats counter " #name);
  TDMD_ENGINE_STATS_COUNTERS(TDMD_EXPOSE_COUNTER)
#undef TDMD_EXPOSE_COUNTER
  registry.AddHistogramNs("tdmd_engine_patch_latency", latencies.patch_ns,
                          "synchronous feasibility patch per epoch");
  registry.AddHistogramNs("tdmd_engine_resolve_latency",
                          latencies.resolve_ns,
                          "one re-solve attempt's solve wall time");
  registry.AddHistogramNs("tdmd_engine_index_delta_cost",
                          latencies.index_delta_ns,
                          "coverage-index churn delta per epoch");
  registry.AddHistogramNs("tdmd_engine_greedy_round",
                          latencies.greedy_round_ns,
                          "one CELF greedy round inside a re-solve");
  registry.AddCounter("tdmd_quality_samples_total", quality.samples_total,
                      "quality samples recorded");
  registry.AddCounter("tdmd_quality_alerts_raised_total",
                      quality.alerts_raised_total,
                      "quality alert raise edges");
  registry.AddCounter("tdmd_quality_alerts_cleared_total",
                      quality.alerts_cleared_total,
                      "quality alert clear edges");
  registry.AddCounter("tdmd_quality_alerts_active", quality.active_alerts,
                      "active quality alert bitmask (bit per "
                      "QualityAlertKind)");
  if (!quality.samples.empty()) {
    const obs::QualitySample& latest = quality.samples.back();
    registry.AddGauge("tdmd_quality_realized_ratio", latest.realized_ratio,
                      "realized decrement over the certified optimum "
                      "bound; Theorem 3 floor is 1 - 1/e");
    registry.AddGauge("tdmd_quality_decrement", latest.decrement,
                      "realized bandwidth decrement d(P)");
    registry.AddGauge("tdmd_quality_opt_bound", latest.opt_bound,
                      "certified upper bound on d(OPT_k)");
    registry.AddGauge("tdmd_quality_feasibility_margin",
                      latest.feasibility_margin,
                      "spare budget fraction (k - |P|) / k");
    registry.AddGauge("tdmd_quality_ewma_ratio", quality.ewma,
                      "EWMA-smoothed realized ratio");
    registry.AddGauge("tdmd_quality_cusum", quality.cusum,
                      "one-sided CUSUM statistic on the quality gap");
  }
  // Memory-capacity accounting: owned heap bytes of the hot structures,
  // captured under the same state_mu_ acquisition as the counters so the
  // bytes-per-flow ratio is coherent with active_flows.
  registry.AddGauge("tdmd_mem_index_bytes",
                    static_cast<double>(memory.index_bytes),
                    "FlowCoverageIndex owned heap bytes");
  registry.AddGauge("tdmd_mem_snapshot_bytes",
                    static_cast<double>(memory.snapshot_bytes),
                    "published DeploymentSnapshot bytes");
  registry.AddGauge("tdmd_mem_active_flows",
                    static_cast<double>(memory.active_flows),
                    "active flows backing the bytes-per-flow gauge");
  registry.AddGauge("tdmd_mem_bytes_per_flow",
                    memory.active_flows > 0
                        ? static_cast<double>(memory.index_bytes) /
                              static_cast<double>(memory.active_flows)
                        : 0.0,
                    "index heap bytes per active flow");
  // TraceDropTotal falls back to the total latched at the last tracer
  // uninstall, so a post-run scrape still reports the real drop count
  // instead of silently reading zero.
  registry.AddCounter(
      "tdmd_trace_dropped_total", obs::TraceDropTotal(),
      "trace events overwritten in per-thread rings before draining");
  // Same latching contract for the sampling profiler.
  registry.AddCounter(
      "tdmd_profile_samples_total", obs::ProfileSampleTotal(),
      "CPU samples delivered by the sampling profiler");
  registry.AddCounter(
      "tdmd_profile_dropped_total", obs::ProfileDropTotal(),
      "CPU samples overwritten in per-thread rings before draining");
  obs::AddBuildInfoMetric(registry);
  return registry;
}

void Engine::DumpMetrics(std::ostream& os, obs::MetricsFormat format) const {
  Metrics().Render(os, format);
}

EngineMemoryStats Engine::MemoryUsage() const {
  EngineMemoryStats memory;
  {
    MutexLock lock(state_mu_);
    memory.index_bytes = index_.MemoryFootprint();
    memory.active_flows = index_.active_flows();
  }
  MutexLock snapshot_lock(snapshot_mu_);
  memory.snapshot_bytes =
      sizeof(DeploymentSnapshot) + snapshot_->deployment.MemoryFootprint();
  return memory;
}

EngineCheckpoint Engine::Checkpoint() const {
  obs::ScopedSpan checkpoint_span(obs::TracePhase::kCheckpoint);
  MutexLock lock(state_mu_);
  EngineCheckpoint checkpoint;
  checkpoint.epoch = epoch_;
  {
    MutexLock snapshot_lock(snapshot_mu_);
    checkpoint.snapshot_version = snapshot_->version;
  }
  checkpoint.epochs_since_probe = epochs_since_probe_;
  checkpoint.pending_churn = pending_churn_;
  checkpoint.k = budget_k_;
  checkpoint.lambda = options_.lambda;
  checkpoint.num_vertices = index_.num_vertices();
  checkpoint.maintained_bandwidth = maintained_bandwidth_;
  checkpoint.maintained_feasible = maintained_feasible_;
  checkpoint.stats = StatsLocked();
  checkpoint.deployment = deployment_.vertices();  // insertion order
  checkpoint.uncovered = uncovered_;
  checkpoint.flows = index_.LiveFlows();
  checkpoint.free_slots = index_.FreeSlotTickets();
  checkpoint.patch_histogram = histograms_.patch_ns.Snapshot();
  checkpoint.resolve_histogram = histograms_.resolve_ns.Snapshot();
  checkpoint.index_delta_histogram = histograms_.index_delta_ns.Snapshot();
  checkpoint.greedy_round_histogram =
      histograms_.greedy_round_ns.Snapshot();
  checkpoint.has_quality = options_.quality_sampling;
  if (checkpoint.has_quality) {
    checkpoint.quality_tracker = quality_tracker_.state();
    checkpoint.quality_attribution = quality_attribution_;
    checkpoint.quality = quality_timeline_.Snapshot();
  }
  return checkpoint;
}

void Engine::Restore(const EngineCheckpoint& checkpoint) {
  obs::ScopedSpan restore_span(obs::TracePhase::kRestore);
  MutexLock lock(state_mu_);
  TDMD_CHECK_MSG(epoch_ == 0 && index_.active_flows() == 0,
                 "Restore requires a freshly constructed engine");
  TDMD_CHECK_MSG(checkpoint.k == budget_k_,
                 "checkpoint k " << checkpoint.k << " != engine budget "
                                 << budget_k_);
  TDMD_CHECK_MSG(checkpoint.lambda == options_.lambda,
                 "checkpoint lambda " << checkpoint.lambda
                                      << " != engine lambda "
                                      << options_.lambda);
  TDMD_CHECK_MSG(checkpoint.num_vertices == index_.num_vertices(),
                 "checkpoint network has " << checkpoint.num_vertices
                                           << " vertices, engine has "
                                           << index_.num_vertices());

  index_.RestoreSlots(checkpoint.flows, checkpoint.free_slots);
  IndexStats index_stats;
  index_stats.delta_ops = checkpoint.stats.index_delta_ops;
  index_stats.arrivals = checkpoint.stats.arrivals;
  index_stats.departures = checkpoint.stats.departures;
  index_.RestoreStats(index_stats);

  deployment_ = core::Deployment(index_.num_vertices());
  for (VertexId v : checkpoint.deployment) deployment_.Add(v);
  maintained_bandwidth_ = checkpoint.maintained_bandwidth;
  maintained_feasible_ = checkpoint.maintained_feasible;
  uncovered_ = checkpoint.uncovered;
  epoch_ = checkpoint.epoch;
  epochs_since_probe_ = checkpoint.epochs_since_probe;
  pending_churn_ = checkpoint.pending_churn;
  stats_ = checkpoint.stats;
  TDMD_CHECK_MSG(
      histograms_.patch_ns.Restore(checkpoint.patch_histogram) &&
          histograms_.resolve_ns.Restore(checkpoint.resolve_histogram) &&
          histograms_.index_delta_ns.Restore(
              checkpoint.index_delta_histogram) &&
          histograms_.greedy_round_ns.Restore(
              checkpoint.greedy_round_histogram),
      "checkpoint histogram state is incoherent");
  if (checkpoint.has_quality) {
    quality_tracker_.RestoreState(checkpoint.quality_tracker);
    quality_attribution_ = checkpoint.quality_attribution;
    TDMD_CHECK_MSG(quality_timeline_.Restore(checkpoint.quality),
                   "checkpoint quality state is incoherent");
  }
  // The previous publish left prev == deployment, so replayed churn
  // computes the same churn_moves the uninterrupted run would.
  quality_prev_deployment_ = deployment_;

  // Re-seat the published snapshot wholesale (not via PublishLocked): the
  // version sequence must continue from the checkpointed value so replay
  // after restore is byte-identical to the uninterrupted run.
  auto snapshot = std::make_shared<DeploymentSnapshot>();
  snapshot->version = checkpoint.snapshot_version;
  snapshot->epoch = checkpoint.epoch;
  snapshot->deployment = deployment_;
  snapshot->bandwidth = maintained_bandwidth_;
  snapshot->feasible = maintained_feasible_;
  {
    MutexLock snapshot_lock(snapshot_mu_);
    snapshot_ = std::move(snapshot);
  }
}

}  // namespace tdmd::engine
