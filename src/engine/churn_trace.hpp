// Pre-drawn churn traces: one seeded RNG path for every consumer.
//
// The engine-vs-baseline comparisons (bench/engine_churn, the refactored
// bench/dynamic_churn, and `tdmd_cli serve-trace`) are only meaningful if
// both sides replay the *same* arrival/departure sequence.  Drawing churn
// inline is fragile — any difference in RNG consumption order between two
// code paths silently diverges the workloads — so the trace is drawn once
// up front, from a single seed, and then replayed verbatim.
//
// Departure draws depend only on the active-flow count, which is itself a
// pure function of the trace (count' = count - departures + arrivals), so
// pre-drawing is exact: DynamicPlacer::Step and Engine::SubmitBatch see
// byte-identical flow sets for the same seed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "core/dynamic.hpp"
#include "graph/digraph.hpp"
#include "traffic/flow.hpp"

namespace tdmd::engine {

struct ChurnEpoch {
  traffic::FlowSet arrivals;
  /// Indices into the pre-arrival active-flow list, ascending (the
  /// convention of DynamicPlacer::Step; Engine replays map them to
  /// tickets positionally).
  std::vector<std::size_t> departures;
};

struct ChurnTrace {
  std::vector<ChurnEpoch> epochs;

  /// Active-flow count after replaying the whole trace from
  /// `initial_active` flows.
  std::size_t FinalActiveCount(std::size_t initial_active) const;
};

/// Draws `epochs` epochs of churn from `rng`, assuming `initial_active`
/// flows are live before the first epoch.  Per epoch the draw order is
/// arrivals first, then departures over the pre-arrival count — matching
/// the historical bench/dynamic_churn loop so existing seeds keep their
/// meaning.
ChurnTrace BuildChurnTrace(const graph::Digraph& network,
                           const core::ChurnModel& model,
                           std::size_t epochs, std::size_t initial_active,
                           Rng& rng);

/// Convenience overload seeding a fresh Rng.
ChurnTrace BuildChurnTrace(const graph::Digraph& network,
                           const core::ChurnModel& model,
                           std::size_t epochs, std::size_t initial_active,
                           std::uint64_t seed);

/// Resolves every epoch's positional departures to arrival sequence
/// numbers: 0 .. initial_active - 1 name the flows live before the first
/// epoch, in their list order, and each epoch's arrivals follow in order.
/// A replay loop that appends every batch's handles to one
/// sequence-ordered vector then finds an epoch's departing handles in
/// O(departures).  Mapping positions against a live list instead costs an
/// O(active) compaction per epoch, bookkeeping that would run inside the
/// served (and profiled) loop, outside every trace span.
std::vector<std::vector<std::size_t>> DepartureSequences(
    const std::vector<ChurnEpoch>& epochs, std::size_t initial_active);

}  // namespace tdmd::engine
