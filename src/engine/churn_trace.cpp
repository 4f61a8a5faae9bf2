#include "engine/churn_trace.hpp"

#include <numeric>

#include "common/check.hpp"

namespace tdmd::engine {

std::size_t ChurnTrace::FinalActiveCount(std::size_t initial_active) const {
  std::size_t active = initial_active;
  for (const ChurnEpoch& epoch : epochs) {
    active -= epoch.departures.size();
    active += epoch.arrivals.size();
  }
  return active;
}

ChurnTrace BuildChurnTrace(const graph::Digraph& network,
                           const core::ChurnModel& model,
                           std::size_t epochs, std::size_t initial_active,
                           Rng& rng) {
  ChurnTrace trace;
  trace.epochs.reserve(epochs);
  std::size_t active = initial_active;
  for (std::size_t e = 0; e < epochs; ++e) {
    ChurnEpoch epoch;
    epoch.arrivals = core::DrawArrivals(network, model, rng);
    epoch.departures = core::DrawDepartures(active, model, rng);
    active -= epoch.departures.size();
    active += epoch.arrivals.size();
    trace.epochs.push_back(std::move(epoch));
  }
  return trace;
}

ChurnTrace BuildChurnTrace(const graph::Digraph& network,
                           const core::ChurnModel& model,
                           std::size_t epochs, std::size_t initial_active,
                           std::uint64_t seed) {
  Rng rng(seed);
  return BuildChurnTrace(network, model, epochs, initial_active, rng);
}

std::vector<std::vector<std::size_t>> DepartureSequences(
    const std::vector<ChurnEpoch>& epochs, std::size_t initial_active) {
  std::vector<std::size_t> active(initial_active);
  std::iota(active.begin(), active.end(), std::size_t{0});
  std::size_t next_sequence = initial_active;
  std::vector<std::vector<std::size_t>> sequences;
  sequences.reserve(epochs.size());
  for (const ChurnEpoch& epoch : epochs) {
    // One compaction pass over the pre-arrival list; positions ascend.
    std::vector<std::size_t>& departing = sequences.emplace_back();
    departing.reserve(epoch.departures.size());
    std::size_t kept = 0;
    std::size_t next = 0;  // first entry neither kept nor departed yet
    for (std::size_t position : epoch.departures) {
      TDMD_CHECK_MSG(position >= next && position < active.size(),
                     "departure positions must ascend within the "
                     "active list");
      while (next < position) active[kept++] = active[next++];
      departing.push_back(active[next++]);
    }
    while (next < active.size()) active[kept++] = active[next++];
    active.resize(kept);
    for (std::size_t i = 0; i < epoch.arrivals.size(); ++i) {
      active.push_back(next_sequence++);
    }
  }
  return sequences;
}

}  // namespace tdmd::engine
