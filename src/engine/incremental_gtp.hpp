// IncrementalGtp: CELF lazy-greedy GTP over a FlowCoverageIndex.
//
// Batch GTP answers "where do k middleboxes go" for one frozen
// core::Instance; this solver answers the same question directly against
// the serving layer's live coverage index, with three differences that
// matter online:
//
//   * No instance rebuild.  The gain oracle reads the index's reverse
//     vertex -> path-class lists, so a re-solve costs O(evaluated gains)
//     at one visit per (vertex, class), not O(|F| * |V|) table
//     construction up front.
//   * Lazy (CELF) evaluation via core::CelfQueue — the *same* selection
//     code batch GTP's lazy mode runs, so the chosen deployment and final
//     b(P) are exactly those of batch GTP under the identical
//     deterministic tie-break (Theorem 2 makes the laziness safe; the
//     property tests in tests/engine_gtp_test.cpp pin the equivalence on
//     random trees and general digraphs).
//   * A per-solve deadline, checked once per greedy round: an expired
//     solve returns its greedy prefix, which the engine may adopt.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "core/deployment.hpp"
#include "engine/coverage_index.hpp"
#include "faults/faults.hpp"
#include "obs/histogram.hpp"

namespace tdmd::engine {

struct IncrementalGtpOptions {
  /// Stop after this many middleboxes; 0 means run to feasibility (the
  /// paper's Algorithm 1, deriving k).
  std::size_t max_middleboxes = 0;
  /// Budgeted mode only: while flows remain unserved, pick the best-gain
  /// vertex whose selection keeps the residual coverable within the
  /// remaining budget (the paper's Fig. 1 walkthrough; same rule as batch
  /// GTP's feasibility_aware).  Those rounds are full scans; once every
  /// flow is served the solver drops back to the lazy CELF heap, whose
  /// round-0 gains are still valid upper bounds by submodularity.  The
  /// engine's re-solves enable this so a completed re-solve is adoptable
  /// (feasible) whenever coverage is possible at all.
  bool feasibility_aware = false;
  /// Absolute deadline checked once per greedy round (before fault
  /// injection).  A default-constructed time_point means "no deadline".
  /// An expired solve stops and returns the greedy prefix built so far
  /// with `deadline_expired` set — still a valid deployment of at most k
  /// middleboxes by Theorem 2 (every greedy prefix is), so the engine may
  /// adopt it as a degraded answer.
  std::chrono::steady_clock::time_point deadline{};
  /// When set, fired (site kGreedyRound) once per greedy round.  An
  /// injected throw propagates out of the solve; an injected cancel marks
  /// the result cancelled; a delay stalls the round (which is how the
  /// deadline tests force expiry deterministically).
  faults::FaultInjector* fault_injector = nullptr;
  /// When non-null, every greedy round's duration (nanoseconds, including
  /// rounds that end early on cancel/deadline) is recorded here.  The
  /// histogram is caller-owned and not synchronized; the engine passes
  /// its own, guarded by the engine lock it holds across the solve.
  obs::LatencyHistogram* round_histogram = nullptr;
};

struct IncrementalGtpResult {
  core::Deployment deployment;
  Bandwidth bandwidth = 0.0;
  bool feasible = false;
  /// True if an injected cancellation (site kGreedyRound) stopped the
  /// solve; the deployment is a valid prefix of the full greedy run but
  /// must not be adopted.
  bool cancelled = false;
  /// True if the solve stopped because options.deadline passed.  Unlike
  /// cancellation the prefix is a candidate answer: the engine may adopt
  /// it (counted as resolves_expired_adopted) when it is feasible.
  bool deadline_expired = false;
  /// Marginal-gain evaluations performed (heap priming + revalidations).
  std::size_t oracle_calls = 0;
  /// Gain evaluations a plain full-scan greedy would have performed but
  /// CELF skipped — the "heap re-evaluations saved" engine counter.
  std::size_t reevals_saved = 0;
  /// Certified upper bound on d(S) for any deployment S with |S| <= the
  /// effective budget: d(P) plus the CELF heap's residual top-k stale-gain
  /// sum (CelfQueue::ResidualUpperBound).  Valid by submodularity even for
  /// cancelled / deadline-expired prefixes — their stale gains still
  /// upper-bound marginals wrt the prefix.  Feeds obs::QualityTracker.
  Bandwidth opt_decrement_bound = 0.0;
  /// Marginal gain of each chosen vertex, in selection order — the
  /// per-vertex decrement attribution the engine republishes on adoption
  /// (obs::VertexAttribution) and the audit layer's gain-monotonicity
  /// input.  chosen_gains[i] belongs to deployment.vertices()[i].
  std::vector<Bandwidth> chosen_gains;
};

/// Runs budgeted lazy-greedy GTP against the index's current flow set.
IncrementalGtpResult SolveIncrementalGtp(
    const FlowCoverageIndex& index, const IncrementalGtpOptions& options);

/// The integer sums behind b(P) under the forced nearest-source
/// allocation: U = sum of r_f * |p_f|, D = sum of r_f * l_v(f) over the
/// served flows, and whether every flow is served.  Sums over several
/// indexes add, so a fleet evaluates its union deployment shard by shard
/// and scales by (1 - lambda) once.
struct DeploymentUnits {
  std::int64_t unprocessed = 0;
  std::int64_t decrement = 0;
  bool all_served = true;

  DeploymentUnits& operator+=(const DeploymentUnits& other) {
    unprocessed += other.unprocessed;
    decrement += other.decrement;
    all_served = all_served && other.all_served;
    return *this;
  }
  /// b(P) = U - (1 - lambda) * D: exactly the solver's b(P) for the same
  /// deployment, unserved flows paying full rate.
  Bandwidth bandwidth(double lambda) const {
    return static_cast<Bandwidth>(unprocessed) -
           (1.0 - lambda) * static_cast<Bandwidth>(decrement);
  }
};

/// One pass over the index's live path classes against `deployment`: each
/// class adds rate_sum * (|p| - serving index) to D.  O(sum of distinct
/// live path lengths); allocates nothing.
DeploymentUnits EvaluateUnits(const FlowCoverageIndex& index,
                              const core::Deployment& deployment);

/// Path position of the first deployed vertex on class c's path (the
/// forced nearest-source server of all its flows), or
/// core::kUnservedIndex.  O(|p|).
std::int32_t ServingIndex(const FlowCoverageIndex& index, std::size_t c,
                          const core::Deployment& deployment);

/// d_P({v}): the bandwidth decrement a middlebox at v would add to
/// `deployment`, in the solver's gain arithmetic (one integer sum over the
/// live classes through v, scaled by (1 - lambda) once).
Bandwidth MarginalDecrement(const FlowCoverageIndex& index,
                            const core::Deployment& deployment, VertexId v);

}  // namespace tdmd::engine
