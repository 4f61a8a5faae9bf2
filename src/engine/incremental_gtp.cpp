// tdmd-lint: hot-path — no iostream formatting, rand, or
// system_clock::now in this file (tools/tdmd_lint rule hot-path).
#include "engine/incremental_gtp.hpp"

#include <algorithm>
#include <span>
#include <vector>

#include "analysis/audit.hpp"
#include "core/celf.hpp"
#include "core/objective.hpp"
#include "obs/trace.hpp"

namespace tdmd::engine {

namespace {

/// rate_sum * (l_new - l_old): the integer decrement of moving the visit's
/// class from serving position `current` to the visit's position.
std::int64_t DecrementUnits(const FlowCoverageIndex& index,
                            const FlowCoverageIndex::Visit& visit,
                            std::int32_t current) {
  const std::int32_t new_l = visit.edges - visit.path_index;
  const std::int32_t old_l =
      current == core::kUnservedIndex ? 0 : visit.edges - current;
  return index.PathClassAt(visit.path_class).rate_sum * (new_l - old_l);
}

/// Per-class serving state: the engine-side counterpart of
/// core::ServedState, reading the coverage index instead of an Instance.
/// Both sum rate * delta-l as exact integers and scale by (1 - lambda)
/// once, and integer sums do not depend on order, so a class's summed
/// rate contributes exactly what its flows contribute one by one: gains
/// and bandwidth match batch GTP's bit for bit for every lambda.
class ClassServedState {
 public:
  explicit ClassServedState(const FlowCoverageIndex& index)
      : index_(&index),
        one_minus_lambda_(1.0 - index.lambda()),
        best_index_(index.num_path_classes(), core::kUnservedIndex),
        unserved_count_(index.active_flows()) {}

  bool AllServed() const { return unserved_count_ == 0; }
  Bandwidth bandwidth() const {
    return static_cast<Bandwidth>(index_->unprocessed_units()) -
           one_minus_lambda_ * static_cast<Bandwidth>(decrement_units_);
  }

  // The gain loops stream one Visit per (vertex, live class) and read the
  // class record only for its rate sum.
  Bandwidth MarginalDecrement(VertexId v) const {
    std::int64_t units = 0;
    for (const FlowCoverageIndex::Visit& visit : index_->ClassesThrough(v)) {
      const std::int32_t current = best_index_[visit.path_class];
      if (visit.path_index >= current) continue;  // no improvement
      units += DecrementUnits(*index_, visit, current);
    }
    return one_minus_lambda_ * static_cast<Bandwidth>(units);
  }

  void Deploy(VertexId v) {
    for (const FlowCoverageIndex::Visit& visit : index_->ClassesThrough(v)) {
      std::int32_t& current = best_index_[visit.path_class];
      if (visit.path_index >= current) continue;
      decrement_units_ += DecrementUnits(*index_, visit, current);
      if (current == core::kUnservedIndex) {
        unserved_count_ -= index_->PathClassAt(visit.path_class).active_flows;
      }
      current = visit.path_index;
    }
  }

 private:
  const FlowCoverageIndex* index_;
  double one_minus_lambda_;
  std::vector<std::int32_t> best_index_;
  std::int64_t decrement_units_ = 0;
  std::size_t unserved_count_;
};

/// Index-native counterpart of core::ResidualCoverable: if `candidate` is
/// deployed now, can the still-unserved flows be covered by the remaining
/// budget?  Replicates setcover::GreedyCover's selection rule directly
/// over the coverage index — repeatedly pick the vertex covering the most
/// uncovered residual flows, ties toward the lowest vertex id (the set
/// index in the materialized reduction), fail if some residual flow is
/// uncoverable — so the accept/reject decision is exactly batch GTP's:
/// the residual universes are the same flow multiset under a monotone
/// slot <-> flow-id bijection, the per-vertex sets have identical
/// membership, and greedy ties break on vertex id only.  (Deployed
/// vertices need no explicit exclusion: an unserved flow by definition
/// has no deployed vertex on its path, so their counts are zero.)
///
/// Two things make the probe cheap enough for the re-solve hot path:
///
///   * Flows sharing one path are served by exactly the same deployments,
///     so the probe works on the index's distinct path classes with
///     flow-count weights.  The weighted greedy computes exactly the
///     per-set element counts GreedyCover computes over individual flows
///     (each class contributes its multiplicity to every count it appears
///     in, and is covered all-or-nothing), hence identical selections and
///     an identical verdict, at cost O(distinct paths), not O(|F|).
///   * Scratch persists across calls: the unserved-class snapshot, the
///     per-vertex weights, and the vertex -> unserved classes lists are
///     built once per CELF round (BeginRound) and shared by every
///     candidate probed that round; covered marks are invalidated by a
///     probe counter instead of clearing.  A probe also rejects as soon
///     as its cover provably exceeds the remaining budget.
///   * Most candidates are settled without a greedy run, by three exact
///     verdict rules (DESIGN.md Section 8): an empty residual is coverable;
///     a residual larger than remaining * M, M the round's largest
///     per-vertex residual count, is not (no greedy pick covers more than
///     M flows); and every candidate that touches no unserved class shares
///     one greedy run per round (greedy never picks a zero-count vertex,
///     so the run does not depend on which such candidate is probed).
class FeasibilityProbe {
 public:
  explicit FeasibilityProbe(const FlowCoverageIndex& index)
      : index_(&index),
        classes_through_(static_cast<std::size_t>(index.num_vertices())),
        base_count_(static_cast<std::size_t>(index.num_vertices()), 0),
        count_(static_cast<std::size_t>(index.num_vertices()), 0) {}

  /// Snapshots the round's unserved path classes and the per-vertex
  /// residual flow counts; `remaining_budget` is the number of boxes left
  /// after the round's pick.  O(sum of unserved-class path lengths).
  void BeginRound(const core::Deployment& deployment,
                  std::size_t remaining_budget) {
    remaining_budget_ = remaining_budget;
    untouched_known_ = false;
    const std::size_t num_classes = index_->num_path_classes();
    if (covered_stamp_.size() < num_classes) {
      covered_stamp_.resize(num_classes, 0);
    }
    for (auto& list : classes_through_) list.clear();
    std::fill(base_count_.begin(), base_count_.end(), 0);
    base_residual_ = 0;
    for (std::uint32_t c = 0; c < num_classes; ++c) {
      const FlowCoverageIndex::PathClass& cls = index_->PathClassAt(c);
      if (cls.active_flows == 0 ||
          ServingIndex(*index_, c, deployment) != core::kUnservedIndex) {
        continue;
      }
      base_residual_ += cls.active_flows;
      for (VertexId v : index_->ClassPath(c)) {
        base_count_[static_cast<std::size_t>(v)] += cls.active_flows;
        classes_through_[static_cast<std::size_t>(v)].push_back(c);
      }
    }
    max_count_ = 0;
    for (std::size_t count : base_count_) {
      max_count_ = std::max(max_count_, count);
    }
  }

  /// The coverability verdict for one candidate.  Requires BeginRound for
  /// the round's deployment.
  bool Coverable(VertexId candidate) {
    // Paths are simple, so the candidate's count is exactly the unserved
    // flows it would serve.
    const std::size_t touched =
        base_count_[static_cast<std::size_t>(candidate)];
    const std::size_t residual = base_residual_ - touched;
    if (residual == 0) return true;
    if (residual > remaining_budget_ * max_count_) return false;
    if (touched > 0) return GreedyCovers(candidate);
    if (!untouched_known_) {
      untouched_coverable_ = GreedyCovers(candidate);
      untouched_known_ = true;
    }
    return untouched_coverable_;
  }

 private:
  /// setcover::GreedyCover's run over the residual left by `candidate`.
  bool GreedyCovers(VertexId candidate) {
    ++probe_;  // invalidates all covered marks from earlier probes
    count_ = base_count_;
    std::size_t residual = base_residual_;
    CoverClassesThrough(candidate, &residual);

    std::size_t chosen_sets = 0;
    while (residual > 0) {
      VertexId best = kInvalidVertex;
      std::size_t best_gain = 0;
      const VertexId num_vertices = index_->num_vertices();
      for (VertexId v = 0; v < num_vertices; ++v) {
        if (v == candidate) continue;
        if (count_[static_cast<std::size_t>(v)] > best_gain) {
          best_gain = count_[static_cast<std::size_t>(v)];
          best = v;
        }
      }
      if (best_gain == 0) return false;  // uncoverable residue
      if (++chosen_sets > remaining_budget_) return false;
      CoverClassesThrough(best, &residual);
    }
    return true;
  }

  /// Marks every not-yet-covered unserved class through `v` covered for
  /// this probe and retires its flows from the per-vertex counts.
  void CoverClassesThrough(VertexId v, std::size_t* residual) {
    for (std::uint32_t c : classes_through_[static_cast<std::size_t>(v)]) {
      if (covered_stamp_[c] == probe_) continue;
      covered_stamp_[c] = probe_;
      const std::size_t flows = index_->PathClassAt(c).active_flows;
      *residual -= flows;
      for (VertexId u : index_->ClassPath(c)) {
        count_[static_cast<std::size_t>(u)] -= flows;
      }
    }
  }

  const FlowCoverageIndex* index_;
  /// covered_stamp_[c] == probe_  <=>  class c covered in this probe.
  std::vector<std::uint64_t> covered_stamp_;
  std::uint64_t probe_ = 0;
  /// classes_through_[v] = unserved classes through v as of BeginRound.
  std::vector<std::vector<std::uint32_t>> classes_through_;
  /// base_count_[v] = unserved flows through v; count_ is the working copy
  /// consumed by each probe's greedy run.  base_residual_ = total unserved.
  std::vector<std::size_t> base_count_;
  std::vector<std::size_t> count_;
  std::size_t base_residual_ = 0;
  /// M: the largest base_count_ entry, the most any greedy pick covers.
  std::size_t max_count_ = 0;
  std::size_t remaining_budget_ = 0;
  /// The shared verdict of this round's candidates that touch no unserved
  /// class, valid once one was probed.
  bool untouched_known_ = false;
  bool untouched_coverable_ = false;
};

}  // namespace

IncrementalGtpResult SolveIncrementalGtp(
    const FlowCoverageIndex& index, const IncrementalGtpOptions& options) {
  IncrementalGtpResult result;
  result.deployment = core::Deployment(index.num_vertices());
  ClassServedState state(index);
  FeasibilityProbe probe(index);

  const auto num_vertices = static_cast<std::size_t>(index.num_vertices());
  const std::size_t budget =
      options.max_middleboxes == 0
          ? num_vertices
          : std::min<std::size_t>(options.max_middleboxes, num_vertices);

  core::CelfQueue celf;
  const auto gain_oracle = [&state](VertexId v) {
    return state.MarginalDecrement(v);
  };
  celf.Prime(index.num_vertices(), gain_oracle, &result.oracle_calls);

  const bool has_deadline =
      options.deadline != std::chrono::steady_clock::time_point{};

  for (std::size_t round = 1; result.deployment.size() < budget; ++round) {
    obs::ScopedSpan round_span(obs::TracePhase::kGtpRound, round);
    obs::ScopedHistogramTimer round_timer(options.round_histogram);
    if (has_deadline &&
        std::chrono::steady_clock::now() >= options.deadline) {
      result.deadline_expired = true;
      break;
    }
    // Injection sits after the deadline check: a delay injected here
    // stalls the round but the selection still completes (expiry is only
    // observed at the top of the next round), so a solve whose very first
    // round overruns the deadline still returns a 1-box prefix — the
    // deterministic deadline tests rely on that.
    if (options.fault_injector != nullptr &&
        options.fault_injector->MaybeInject(faults::FaultSite::kGreedyRound)) {
      result.cancelled = true;  // injected cancellation
      break;
    }
    core::CelfCandidate chosen{-1.0, kInvalidVertex, 0};
    if (options.feasibility_aware && options.max_middleboxes > 0 &&
        !state.AllServed()) {
      // Lazy counterpart of batch GTP's feasibility-aware round: batch
      // ranks every candidate by fresh gain and takes the best one that
      // keeps the residual coverable.  PopBest already yields candidates
      // in exactly that fresh-gain order (identical tie-break), so we pop,
      // test coverability, and set rejects aside — same selection, no full
      // scan.  Rejected fresh gains go back on the heap afterwards; they
      // remain upper bounds for later rounds by submodularity.
      const std::size_t remaining = budget - result.deployment.size() - 1;
      probe.BeginRound(result.deployment, remaining);
      std::vector<core::CelfCandidate> rejected;
      while (true) {
        const core::CelfCandidate candidate =
            celf.PopBest(round, result.deployment, gain_oracle,
                         &result.oracle_calls, &result.reevals_saved);
        if (candidate.vertex == kInvalidVertex) break;  // queue ran dry
        if (probe.Coverable(candidate.vertex)) {
          chosen = candidate;
          break;
        }
        rejected.push_back(candidate);
      }
      if (chosen.vertex == kInvalidVertex && !rejected.empty()) {
        chosen = rejected.front();  // no feasible completion; best effort
      }
      for (const core::CelfCandidate& candidate : rejected) {
        celf.Push(candidate);  // deployed entries are skipped on later pops
      }
    } else {
      chosen = celf.PopBest(round, result.deployment, gain_oracle,
                            &result.oracle_calls, &result.reevals_saved);
    }
    if (chosen.vertex == kInvalidVertex) break;  // nothing left to deploy
    if (chosen.gain <= 0.0 && state.AllServed()) {
      break;  // additional middleboxes cannot reduce bandwidth
    }
    state.Deploy(chosen.vertex);
    result.deployment.Add(chosen.vertex);
    result.chosen_gains.push_back(chosen.gain);
    // Algorithm 1's loop condition: in unbudgeted mode, stop as soon as
    // every flow is served.
    if (options.max_middleboxes == 0 && state.AllServed()) break;
  }

  result.bandwidth = state.bandwidth();
  result.feasible = state.AllServed();
  // Optimality certificate: d(P) plus the top-`budget` residual stale
  // gains.  The heap entries left behind (including re-pushed feasibility
  // rejects) all upper-bound their vertices' marginals wrt P, so for any
  // |S| <= budget, d(S) <= d(P) + that sum.  The candidate dropped on the
  // `gain <= 0 && AllServed` break had a non-positive bound and
  // contributes nothing.
  result.opt_decrement_bound =
      (index.unprocessed_bandwidth() - state.bandwidth()) +
      celf.ResidualUpperBound(budget, result.deployment);
#if TDMD_AUDITS_ENABLED
  if (!result.cancelled) {
    // Feasibility-aware selection deliberately skips max-gain vertices, so
    // only the pure lazy-greedy mode promises Theorem 2's monotone gains.
    if (!options.feasibility_aware) {
      analysis::CheckAudit(
          analysis::AuditGreedyGainSequence(result.chosen_gains));
    }
    const core::Instance instance = index.BuildInstance();
    core::PlacementResult as_placement;
    as_placement.deployment = result.deployment;
    as_placement.allocation = core::Allocate(instance, result.deployment);
    as_placement.bandwidth = result.bandwidth;
    as_placement.feasible = result.feasible;
    analysis::AuditOptions audit_options;
    audit_options.max_middleboxes = options.max_middleboxes;
    analysis::CheckAudit(
        analysis::AuditPlacementResult(instance, as_placement,
                                       audit_options));
  }
#endif
  return result;
}

std::int32_t ServingIndex(const FlowCoverageIndex& index, std::size_t c,
                          const core::Deployment& deployment) {
  const std::span<const VertexId> path = index.ClassPath(c);
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (deployment.Contains(path[i])) return static_cast<std::int32_t>(i);
  }
  return core::kUnservedIndex;
}

Bandwidth MarginalDecrement(const FlowCoverageIndex& index,
                            const core::Deployment& deployment, VertexId v) {
  std::int64_t units = 0;
  for (const FlowCoverageIndex::Visit& visit : index.ClassesThrough(v)) {
    const std::int32_t current =
        ServingIndex(index, visit.path_class, deployment);
    if (visit.path_index >= current) continue;  // no improvement
    units += DecrementUnits(index, visit, current);
  }
  return (1.0 - index.lambda()) * static_cast<Bandwidth>(units);
}

DeploymentUnits EvaluateUnits(const FlowCoverageIndex& index,
                              const core::Deployment& deployment) {
  DeploymentUnits units;
  units.unprocessed = index.unprocessed_units();
  for (std::size_t c = 0; c < index.num_path_classes(); ++c) {
    const FlowCoverageIndex::PathClass& cls = index.PathClassAt(c);
    if (cls.active_flows == 0) continue;
    const std::int32_t serving = ServingIndex(index, c, deployment);
    if (serving == core::kUnservedIndex) {
      units.all_served = false;
      continue;
    }
    units.decrement += cls.rate_sum * (cls.edges() - serving);
  }
  return units;
}

}  // namespace tdmd::engine
