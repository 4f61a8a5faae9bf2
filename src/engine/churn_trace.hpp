// Pre-drawn churn traces: one seeded RNG path for every consumer.
//
// Engine-vs-baseline comparisons (bench/engine_churn, bench/dynamic_churn
// and `tdmd_cli serve-trace`) are only meaningful if both sides replay
// the *same* arrival/departure sequence.  Drawing churn inline is fragile
// — any difference in RNG consumption order between two code paths
// silently diverges the workloads — so the trace is drawn once up front,
// from a single seed, and then replayed verbatim.
//
// Departures name flows by arrival sequence number: 0 .. initial_active-1
// are the flows live before the first epoch, in their list order, and
// each epoch's arrivals follow in order.  A replay appends every batch's
// handles (engine tickets, fleet flow ids) to one vector and finds an
// epoch's departing handles by indexing it, in O(departures).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "graph/digraph.hpp"
#include "traffic/flow.hpp"

namespace tdmd::engine {

/// Churn generator: each epoch draws `arrival_count` fresh flows
/// (shortest paths to `destination`) and departs each live flow with
/// probability `departure_probability`.
struct ChurnModel {
  std::size_t arrival_count = 5;
  double departure_probability = 0.15;
  VertexId destination = 0;
  Rate max_rate = 12;
};

traffic::FlowSet DrawArrivals(const graph::Digraph& network,
                              const ChurnModel& model, Rng& rng);

/// Draws one coin per entry of `live`, in list order; removes the entries
/// that depart (the survivors keep their order) and returns them.
std::vector<std::size_t> DrawDepartures(std::vector<std::size_t>& live,
                                        const ChurnModel& model, Rng& rng);

struct ChurnEpoch {
  traffic::FlowSet arrivals;
  /// Arrival sequence numbers of the flows leaving before `arrivals`
  /// join, ascending.
  std::vector<std::size_t> departures;
};

struct ChurnTrace {
  std::vector<ChurnEpoch> epochs;
};

/// Draws `epochs` epochs of churn from `rng`, assuming `initial_active`
/// flows are live before the first epoch.  Per epoch the draw order is
/// arrivals first, then one departure coin per pre-arrival live flow —
/// the order every seed has always meant.
ChurnTrace BuildChurnTrace(const graph::Digraph& network,
                           const ChurnModel& model, std::size_t epochs,
                           std::size_t initial_active, Rng& rng);

/// Convenience overload seeding a fresh Rng.
ChurnTrace BuildChurnTrace(const graph::Digraph& network,
                           const ChurnModel& model, std::size_t epochs,
                           std::size_t initial_active, std::uint64_t seed);

}  // namespace tdmd::engine
