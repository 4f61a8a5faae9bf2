#include "core/dynamic.hpp"

#include <algorithm>
#include <functional>
#include <set>

#include "core/gtp.hpp"
#include "core/objective.hpp"
#include "setcover/reduction.hpp"
#include "setcover/set_cover.hpp"

namespace tdmd::core {

DynamicPlacer::DynamicPlacer(graph::Digraph network, DynamicOptions options)
    : network_(std::move(network)),
      options_(std::move(options)),
      deployment_(network_.num_vertices()) {
  TDMD_CHECK(options_.k >= 1);
}

std::size_t DynamicPlacer::PatchFeasibility(const Instance& instance) {
  const Allocation allocation = Allocate(instance, deployment_);
  std::vector<FlowId> unserved;
  for (FlowId f = 0; f < instance.num_flows(); ++f) {
    if (allocation.serving_vertex[static_cast<std::size_t>(f)] ==
        kInvalidVertex) {
      unserved.push_back(f);
    }
  }
  if (unserved.empty()) return 0;

  // Greedy-cover the unserved flows with vertices outside the plan.
  setcover::SetCoverInstance sc;
  sc.universe_size = unserved.size();
  sc.sets.assign(static_cast<std::size_t>(instance.num_vertices()), {});
  for (std::size_t i = 0; i < unserved.size(); ++i) {
    for (VertexId v : instance.flow(unserved[i]).path.vertices) {
      if (deployment_.Contains(v)) continue;
      sc.sets[static_cast<std::size_t>(v)].push_back(i);
    }
  }
  const auto cover = setcover::GreedyCover(sc);
  std::size_t added = 0;
  if (cover.has_value()) {
    for (std::size_t v : *cover) {
      if (deployment_.size() >= options_.k) break;
      deployment_.Add(static_cast<VertexId>(v));
      ++added;
    }
  }
  return added;
}

EpochReport DynamicPlacer::Step(const traffic::FlowSet& arrivals,
                                const std::vector<std::size_t>& departures) {
  // Departures first index into the pre-arrival list; dedupe + bound.
  std::set<std::size_t, std::greater<>> leaving(departures.begin(),
                                                departures.end());
  for (std::size_t index : leaving) {
    if (index < flows_.size()) {
      flows_.erase(flows_.begin() + static_cast<long>(index));
    }
  }
  flows_.insert(flows_.end(), arrivals.begin(), arrivals.end());

  EpochReport report;
  report.active_flows = static_cast<FlowId>(flows_.size());

  const Instance instance(network_, flows_, options_.lambda);
  if (flows_.empty()) {
    report.feasible = true;
    return report;
  }

  // Re-solve from scratch (the regret reference).
  GtpOptions gtp;
  gtp.max_middleboxes = options_.k;
  gtp.feasibility_aware = true;
  const PlacementResult resolved = Gtp(instance, gtp);
  report.resolve_bandwidth = resolved.bandwidth;

  // Candidate 1: keep the maintained plan, minimally patched.
  const std::size_t patch_moves = PatchFeasibility(instance);
  const Bandwidth maintained = EvaluateBandwidth(instance, deployment_);

  // Adopt the re-solve if it pays for its moves — or unconditionally if
  // the patched plan could not regain feasibility (budget exhausted).
  const bool maintained_feasible = IsFeasible(instance, deployment_);
  const std::size_t switch_moves =
      DeploymentMoveCount(deployment_, resolved.deployment);
  const double required =
      options_.move_threshold * static_cast<double>(switch_moves);
  if (resolved.feasible &&
      (!maintained_feasible ||
       (switch_moves > 0 && maintained - resolved.bandwidth >= required))) {
    deployment_ = resolved.deployment;
    report.adopted_resolve = true;
    report.moves = patch_moves + switch_moves;
  } else {
    report.moves = patch_moves;
  }
  report.maintained_bandwidth = EvaluateBandwidth(instance, deployment_);
  report.feasible = IsFeasible(instance, deployment_);
  return report;
}

traffic::FlowSet DrawArrivals(const graph::Digraph& network,
                              const ChurnModel& model, Rng& rng) {
  traffic::FlowSet arrivals;
  for (std::size_t i = 0; i < model.arrival_count; ++i) {
    for (int attempt = 0; attempt < 64; ++attempt) {
      const auto src = static_cast<VertexId>(rng.NextBounded(
          static_cast<std::uint64_t>(network.num_vertices())));
      if (src == model.destination) continue;
      auto path = graph::ShortestHopPath(network, src, model.destination);
      if (!path.has_value() || path->NumEdges() == 0) continue;
      traffic::Flow flow;
      flow.src = src;
      flow.dst = model.destination;
      flow.rate = rng.NextInt(1, model.max_rate);
      flow.path = std::move(*path);
      arrivals.push_back(std::move(flow));
      break;
    }
  }
  return arrivals;
}

std::vector<std::size_t> DrawDepartures(std::size_t current_flows,
                                        const ChurnModel& model, Rng& rng) {
  std::vector<std::size_t> departures;
  for (std::size_t i = 0; i < current_flows; ++i) {
    if (rng.NextBool(model.departure_probability)) {
      departures.push_back(i);
    }
  }
  return departures;
}

}  // namespace tdmd::core
