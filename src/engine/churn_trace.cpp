#include "engine/churn_trace.hpp"

#include <numeric>

#include "graph/shortest_path.hpp"

namespace tdmd::engine {

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

std::vector<std::size_t> DrawDepartures(std::vector<std::size_t>& live,
                                        const ChurnModel& model, Rng& rng) {
  std::vector<std::size_t> departures;
  std::size_t kept = 0;
  for (const std::size_t entry : live) {
    if (rng.NextBool(model.departure_probability)) {
      departures.push_back(entry);
    } else {
      live[kept++] = entry;
    }
  }
  live.resize(kept);
  return departures;
}

ChurnTrace BuildChurnTrace(const graph::Digraph& network,
                           const ChurnModel& model, std::size_t epochs,
                           std::size_t initial_active, Rng& rng) {
  ChurnTrace trace;
  trace.epochs.reserve(epochs);
  std::vector<std::size_t> live(initial_active);  // by arrival sequence
  std::iota(live.begin(), live.end(), std::size_t{0});
  std::size_t next_sequence = initial_active;
  for (std::size_t e = 0; e < epochs; ++e) {
    ChurnEpoch epoch;
    epoch.arrivals = DrawArrivals(network, model, rng);
    epoch.departures = DrawDepartures(live, model, rng);
    for (std::size_t i = 0; i < epoch.arrivals.size(); ++i) {
      live.push_back(next_sequence++);
    }
    trace.epochs.push_back(std::move(epoch));
  }
  return trace;
}

ChurnTrace BuildChurnTrace(const graph::Digraph& network,
                           const ChurnModel& model, std::size_t epochs,
                           std::size_t initial_active, std::uint64_t seed) {
  Rng rng(seed);
  return BuildChurnTrace(network, model, epochs, initial_active, rng);
}

}  // namespace tdmd::engine
