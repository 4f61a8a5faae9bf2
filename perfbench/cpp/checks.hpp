// Output checks.  They run outside the timed sections; a failed check is
// counted (ok_frac, failed) and never aborts the run.
//
// The per-request checks recompute everything from the benchmark's own
// record of the live flows — what it submitted and has not yet departed —
// and share no code with the program: coverage by path scan, bandwidth
// edge count by edge count.  The exit audits and the tree checks call the
// program's independent auditors in src/analysis.
#pragma once

#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "core/deployment.hpp"
#include "core/instance.hpp"
#include "graph/shortest_path.hpp"
#include "graph/tree.hpp"
#include "shard/sharded_engine.hpp"

namespace perfbench {

/// One live flow as the benchmark submitted it.
struct FlowRef {
  tdmd::Rate rate = 0;
  const tdmd::graph::Path* path = nullptr;
};

/// The benchmark's record of the live flows, aggregated per path: every
/// deployment serves all flows of one path at the same vertex, so coverage
/// and bandwidth are computed once per path with its summed (integral)
/// rate.
class LiveLoad {
 public:
  struct PathLoad {
    const tdmd::graph::Path* path;
    std::size_t flows;
    tdmd::Rate rate;
  };

  LiveLoad() = default;
  explicit LiveLoad(const std::vector<FlowRef>& flows);

  void Add(const FlowRef& flow);
  void Remove(const FlowRef& flow);

  std::size_t flows() const { return flows_; }
  /// Every path seen so far, including ones whose flows all departed.
  const std::vector<PathLoad>& paths() const { return paths_; }

 private:
  std::vector<PathLoad> paths_;
  std::unordered_map<const tdmd::graph::Path*, std::size_t> slot_;
  std::size_t flows_ = 0;
};

struct CheckResult {
  bool ok = true;
  /// Issue name of the first failed property ("" when ok).
  std::string issue;
  /// True when the failure is a named, known program defect.
  bool known_defect = false;
};

/// Issue names.
inline constexpr const char* kBudgetExceeded = "budget-exceeded";
inline constexpr const char* kUnservedFlow = "unserved-flow";
inline constexpr const char* kFeasibleFlag = "feasible-flag";
inline constexpr const char* kBandwidthMismatch = "bandwidth-mismatch";
inline constexpr const char* kFlowCountMismatch = "flow-count-mismatch";
/// Known program defect: after a budget reallocation shrinks a shard, the
/// shard's re-solve under the smaller budget can be infeasible, and the
/// engine adopts only feasible results, so the shard keeps its old boxes
/// and the fleet holds more than K of them.
inline constexpr const char* kFleetBudgetOverrun = "fleet-budget-overrun";
/// Known program defect: with the re-solve deferred by
/// resolve_churn_fraction, the feasibility patch deploys spare budget
/// only, so once all k boxes are in use a new flow whose path avoids every
/// box stays unserved, and the engine does not bring the re-solve forward;
/// its snapshot says feasible = false until the next scheduled re-solve.
inline constexpr const char* kDeferredUnserved = "deferred-resolve-unserved";
inline constexpr const char* kDpAboveGtp = "dp-above-gtp";
inline constexpr const char* kDpAboveHat = "dp-above-hat";

/// b(P) of `load` under `deployment` recomputed edge by edge: each flow
/// pays its full rate up to the deployed vertex nearest its source and
/// lambda times the rate after it.  Sets *all_served.
tdmd::Bandwidth RecomputeBandwidth(const LiveLoad& load,
                                   const tdmd::core::Deployment& deployment,
                                   double lambda, bool* all_served);

/// b(empty deployment) of `load`: every flow at full rate on every edge.
tdmd::Bandwidth UnprocessedBandwidth(const LiveLoad& load);

/// A published single-engine deployment: |P| <= k, every live flow served,
/// the feasible flag and the reported bandwidth both equal to the
/// recomputation.
CheckResult CheckEngineDeployment(const LiveLoad& load,
                                  const tdmd::core::Deployment& deployment,
                                  tdmd::Bandwidth reported_bandwidth,
                                  bool reported_feasible, std::size_t k);

/// CheckEngineDeployment for one engine's own snapshot, telling the known
/// deferred-re-solve defect apart: an unserved flow while all k boxes are
/// in use, reported infeasible, at the exactly recomputed bandwidth.
/// Anything else stays unexplained.
CheckResult CheckEngineSnapshot(const LiveLoad& load,
                                const tdmd::core::Deployment& deployment,
                                tdmd::Bandwidth reported_bandwidth,
                                bool reported_feasible, std::size_t k);

/// A fleet snapshot: sum of shard box counts <= K, and the union
/// deployment serves every live flow at the reported bandwidth.  A
/// failure that is only the box overrun is the known defect.
CheckResult CheckFleetSnapshot(const LiveLoad& load,
                               const tdmd::shard::FleetSnapshot& snapshot,
                               std::size_t total_budget);

/// src/analysis::AuditEngineSnapshot against an independently built
/// instance, with |P| <= k (k = 0: no budget) and, unless a known defect
/// already accounts for it, every flow served required.
CheckResult AuditFinalSnapshot(const tdmd::core::Instance& instance,
                               const tdmd::core::Deployment& deployment,
                               tdmd::Bandwidth reported_bandwidth,
                               bool reported_feasible, std::size_t k,
                               bool require_feasible = true);

/// The three plans of one tree instance: each passes AuditTreePlacement
/// with |P| <= k and every flow served, and the DP optimum is no worse
/// than GTP's or HAT's bandwidth.
CheckResult CheckTreePlans(const tdmd::core::Instance& instance,
                           const tdmd::graph::Tree& tree,
                           const tdmd::core::PlacementResult& gtp,
                           const tdmd::core::PlacementResult& hat,
                           const tdmd::core::PlacementResult& dp,
                           std::size_t k);

}  // namespace perfbench
