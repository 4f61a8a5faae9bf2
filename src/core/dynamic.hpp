// Dynamic re-placement under traffic churn (extension).
//
// The paper's evaluation is static: one flow set, one deployment.  Real
// deployments face churn — flows arrive and depart — and the operator
// question becomes *when to move middleboxes*, since each move has an
// operational cost (the concern behind the paper's Fei et al. [11]
// citation on proactive provisioning).  DynamicPlacer maintains a
// deployment across epochs:
//
//   * Each epoch applies arrivals/departures to the flow set.
//   * The placer re-solves with budgeted feasibility-aware GTP, but only
//     *adopts* the new plan if it saves at least `move_threshold`
//     bandwidth per middlebox moved (hysteresis); otherwise it patches
//     feasibility minimally (greedy-covers any newly unserved flows with
//     spare budget).
//
// Metrics per epoch: bandwidth of the maintained plan, bandwidth of the
// from-scratch plan (the regret reference), middlebox moves.  The
// dynamic_churn bench sweeps the threshold to expose the
// stability/optimality trade-off.
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.hpp"
#include "core/deployment.hpp"
#include "core/instance.hpp"
#include "graph/digraph.hpp"
#include "traffic/flow.hpp"

namespace tdmd::core {

struct DynamicOptions {
  std::size_t k = 8;
  double lambda = 0.5;
  /// Minimum bandwidth saving per moved middlebox to adopt a re-solve.
  double move_threshold = 0.0;
};

struct EpochReport {
  /// Bandwidth of the maintained (possibly stale) deployment.
  Bandwidth maintained_bandwidth = 0.0;
  /// Bandwidth of the freshly solved plan (regret reference).
  Bandwidth resolve_bandwidth = 0.0;
  /// Middleboxes added + removed when (if) the new plan was adopted or
  /// patched.
  std::size_t moves = 0;
  bool adopted_resolve = false;
  bool feasible = false;
  FlowId active_flows = 0;
};

class DynamicPlacer {
 public:
  /// The network is fixed; flows churn.
  DynamicPlacer(graph::Digraph network, DynamicOptions options);

  /// Applies one epoch of churn and re-evaluates.  `departures` (indices
  /// into the pre-arrival flow list; deduped, out-of-range ignored) are
  /// removed first, then `arrivals` are appended.
  EpochReport Step(const traffic::FlowSet& arrivals,
                   const std::vector<std::size_t>& departures);

  const traffic::FlowSet& active_flows() const { return flows_; }
  const Deployment& deployment() const { return deployment_; }

 private:
  /// Ensures every active flow is covered, spending spare budget via
  /// greedy cover; returns boxes added.
  std::size_t PatchFeasibility(const Instance& instance);

  graph::Digraph network_;
  DynamicOptions options_;
  traffic::FlowSet flows_;
  Deployment deployment_;
};

/// Churn generator for benches/tests: each epoch draws `arrival_count`
/// fresh flows (shortest paths to `destination`) and departs each
/// existing flow with probability `departure_probability`.
struct ChurnModel {
  std::size_t arrival_count = 5;
  double departure_probability = 0.15;
  VertexId destination = 0;
  Rate max_rate = 12;
};

traffic::FlowSet DrawArrivals(const graph::Digraph& network,
                              const ChurnModel& model, Rng& rng);
std::vector<std::size_t> DrawDepartures(std::size_t current_flows,
                                        const ChurnModel& model, Rng& rng);

}  // namespace tdmd::core
