#include "core/objective.hpp"

#include <limits>

namespace tdmd::core {

Bandwidth FlowBandwidth(const Instance& instance, FlowId f,
                        std::int32_t serving_index) {
  const traffic::Flow& flow = instance.flow(f);
  const auto edges = static_cast<Bandwidth>(flow.PathEdges());
  const auto rate = static_cast<Bandwidth>(flow.rate);
  if (serving_index == kUnservedIndex) {
    return rate * edges;
  }
  TDMD_DCHECK(serving_index >= 0 &&
              serving_index <= static_cast<std::int32_t>(flow.PathEdges()));
  // Edges before the serving vertex carry r_f; the l = |p| - index edges
  // after it carry lambda * r_f.
  const auto diminished =
      static_cast<Bandwidth>(flow.PathEdges()) - serving_index;
  return rate * (edges - (1.0 - instance.lambda()) * diminished);
}

Bandwidth EvaluateBandwidth(const Instance& instance,
                            const Deployment& deployment) {
  Bandwidth total = 0.0;
  for (FlowId f = 0; f < instance.num_flows(); ++f) {
    std::int32_t serving_index = kUnservedIndex;
    for (VertexId v : instance.flow(f).path.vertices) {
      if (deployment.Contains(v)) {
        serving_index = instance.PathIndex(f, v);
        break;
      }
    }
    total += FlowBandwidth(instance, f, serving_index);
  }
  return total;
}

Bandwidth EvaluateDecrement(const Instance& instance,
                            const Deployment& deployment) {
  return instance.UnprocessedBandwidth() -
         EvaluateBandwidth(instance, deployment);
}

ServedState::ServedState(const Instance& instance)
    : instance_(&instance),
      one_minus_lambda_(1.0 - instance.lambda()),
      best_index_(static_cast<std::size_t>(instance.num_flows()),
                  kUnservedIndex),
      unserved_count_(instance.num_flows()) {
  for (const traffic::Flow& flow : instance.flows()) {
    unprocessed_units_ +=
        flow.rate * static_cast<std::int64_t>(flow.PathEdges());
  }
}

std::int64_t ServedState::DecrementUnits(const Instance::FlowVisit& visit,
                                         std::int32_t current) const {
  const traffic::Flow& flow = instance_->flow(visit.flow);
  const auto edges = static_cast<std::int32_t>(flow.PathEdges());
  const std::int32_t new_l = edges - visit.path_index;
  const std::int32_t old_l = current == kUnservedIndex ? 0 : edges - current;
  return flow.rate * (new_l - old_l);
}

Bandwidth ServedState::MarginalDecrement(VertexId v) const {
  std::int64_t units = 0;
  for (const Instance::FlowVisit& visit : instance_->FlowsThrough(v)) {
    const std::int32_t current =
        best_index_[static_cast<std::size_t>(visit.flow)];
    if (visit.path_index >= current) continue;  // no improvement
    units += DecrementUnits(visit, current);
  }
  return one_minus_lambda_ * static_cast<Bandwidth>(units);
}

void ServedState::Deploy(VertexId v) {
  for (const Instance::FlowVisit& visit : instance_->FlowsThrough(v)) {
    auto& current = best_index_[static_cast<std::size_t>(visit.flow)];
    if (visit.path_index >= current) continue;
    decrement_units_ += DecrementUnits(visit, current);
    if (current == kUnservedIndex) --unserved_count_;
    current = visit.path_index;
  }
}

}  // namespace tdmd::core
