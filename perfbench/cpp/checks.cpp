#include "checks.hpp"

#include <algorithm>
#include <cmath>

#include "analysis/audit.hpp"
#include "bench.hpp"

namespace perfbench {

using tdmd::Bandwidth;

namespace {

bool SameBandwidth(Bandwidth a, Bandwidth b) {
  return std::abs(a - b) <= 1e-9 * std::max(1.0, std::abs(b));
}

CheckResult Fail(const char* issue, bool known_defect = false) {
  return CheckResult{false, issue, known_defect};
}

CheckResult FromAudit(const tdmd::analysis::AuditReport& report,
                      const std::string& prefix) {
  if (report.ok()) return {};
  return CheckResult{false, prefix + report.issues.front().code, false};
}

}  // namespace

LiveLoad::LiveLoad(const std::vector<FlowRef>& flows) {
  for (const FlowRef& flow : flows) Add(flow);
}

void LiveLoad::Add(const FlowRef& flow) {
  const auto [it, fresh] = slot_.emplace(flow.path, paths_.size());
  if (fresh) paths_.push_back(PathLoad{flow.path, 0, 0});
  PathLoad& load = paths_[it->second];
  ++load.flows;
  load.rate += flow.rate;
  ++flows_;
}

void LiveLoad::Remove(const FlowRef& flow) {
  PathLoad& load = paths_[slot_.at(flow.path)];
  --load.flows;
  load.rate -= flow.rate;
  --flows_;
}

Bandwidth RecomputeBandwidth(const LiveLoad& load,
                             const tdmd::core::Deployment& deployment,
                             double lambda, bool* all_served) {
  Bandwidth total = 0.0;
  bool served_all = true;
  for (const LiveLoad::PathLoad& flow : load.paths()) {
    if (flow.flows == 0) continue;
    const std::vector<tdmd::VertexId>& path = flow.path->vertices;
    const std::size_t edges = path.size() - 1;
    std::size_t serve = edges + 1;  // position of the serving vertex
    for (std::size_t i = 0; i < path.size(); ++i) {
      if (deployment.Contains(path[i])) {
        serve = i;
        break;
      }
    }
    const auto rate = static_cast<double>(flow.rate);
    if (serve > edges) {
      served_all = false;
      total += rate * static_cast<double>(edges);
    } else {
      total += rate * (static_cast<double>(serve) +
                       lambda * static_cast<double>(edges - serve));
    }
  }
  *all_served = served_all;
  return total;
}

Bandwidth UnprocessedBandwidth(const LiveLoad& load) {
  Bandwidth total = 0.0;
  for (const LiveLoad::PathLoad& flow : load.paths()) {
    total += static_cast<double>(flow.rate) *
             static_cast<double>(flow.path->vertices.size() - 1);
  }
  return total;
}

CheckResult CheckEngineDeployment(const LiveLoad& load,
                                  const tdmd::core::Deployment& deployment,
                                  Bandwidth reported_bandwidth,
                                  bool reported_feasible, std::size_t k) {
  if (deployment.size() > k) return Fail(kBudgetExceeded);
  bool all_served = false;
  const Bandwidth b =
      RecomputeBandwidth(load, deployment, kLambda, &all_served);
  if (!all_served) return Fail(kUnservedFlow);
  if (!reported_feasible) return Fail(kFeasibleFlag);
  if (!SameBandwidth(reported_bandwidth, b)) return Fail(kBandwidthMismatch);
  return {};
}

CheckResult CheckEngineSnapshot(const LiveLoad& load,
                                const tdmd::core::Deployment& deployment,
                                Bandwidth reported_bandwidth,
                                bool reported_feasible, std::size_t k) {
  const CheckResult check = CheckEngineDeployment(
      load, deployment, reported_bandwidth, reported_feasible, k);
  if (check.issue != kUnservedFlow || reported_feasible ||
      deployment.size() != k) {
    return check;
  }
  bool all_served = false;
  const Bandwidth b =
      RecomputeBandwidth(load, deployment, kLambda, &all_served);
  if (!SameBandwidth(reported_bandwidth, b)) return check;
  return Fail(kDeferredUnserved, /*known_defect=*/true);
}

CheckResult CheckFleetSnapshot(const LiveLoad& load,
                               const tdmd::shard::FleetSnapshot& snapshot,
                               std::size_t total_budget) {
  // The union is checked without a budget: the fleet's budget is the sum
  // of the shards' box counts, checked last so that any other failure
  // takes precedence over the known defect.
  const CheckResult union_check = CheckEngineDeployment(
      load, snapshot.deployment, snapshot.bandwidth, snapshot.feasible,
      snapshot.deployment.size());
  if (!union_check.ok) return union_check;
  std::size_t boxes = 0;
  for (const tdmd::shard::ShardStatus& shard : snapshot.shards) {
    boxes += shard.boxes;
  }
  if (boxes > total_budget) {
    // The defect's signature: some shard holds more boxes than its
    // (reallocated) budget.  Anything else over K is not explained.
    const bool known = std::any_of(
        snapshot.shards.begin(), snapshot.shards.end(),
        [](const tdmd::shard::ShardStatus& s) { return s.boxes > s.budget; });
    return Fail(known ? kFleetBudgetOverrun : kBudgetExceeded, known);
  }
  return {};
}

CheckResult AuditFinalSnapshot(const tdmd::core::Instance& instance,
                               const tdmd::core::Deployment& deployment,
                               Bandwidth reported_bandwidth,
                               bool reported_feasible, std::size_t k,
                               bool require_feasible) {
  tdmd::analysis::AuditOptions options;
  options.max_middleboxes = k;
  options.require_feasible = require_feasible;
  return FromAudit(tdmd::analysis::AuditEngineSnapshot(
                       instance, deployment, reported_bandwidth,
                       reported_feasible, options),
                   "audit:");
}

CheckResult CheckTreePlans(const tdmd::core::Instance& instance,
                           const tdmd::graph::Tree& tree,
                           const tdmd::core::PlacementResult& gtp,
                           const tdmd::core::PlacementResult& hat,
                           const tdmd::core::PlacementResult& dp,
                           std::size_t k) {
  tdmd::analysis::AuditOptions options;
  options.max_middleboxes = k;
  options.require_feasible = true;
  const std::pair<const char*, const tdmd::core::PlacementResult*> plans[] =
      {{"gtp:", &gtp}, {"hat:", &hat}, {"dp:", &dp}};
  for (const auto& [name, plan] : plans) {
    const CheckResult audit = FromAudit(
        tdmd::analysis::AuditTreePlacement(instance, tree, *plan, options),
        name);
    if (!audit.ok) return audit;
  }
  const auto above = [](Bandwidth a, Bandwidth b) {
    return a > b && !SameBandwidth(a, b);
  };
  if (above(dp.bandwidth, gtp.bandwidth)) return Fail(kDpAboveGtp);
  if (above(dp.bandwidth, hat.bandwidth)) return Fail(kDpAboveHat);
  return {};
}

}  // namespace perfbench
