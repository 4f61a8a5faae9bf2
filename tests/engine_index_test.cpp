#include "engine/coverage_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <span>
#include <tuple>
#include <vector>

#include "core/dynamic.hpp"
#include "engine/churn_trace.hpp"
#include "test_util.hpp"
#include "topology/generators.hpp"

namespace tdmd::engine {
namespace {

graph::Digraph TestNetwork(std::uint64_t seed, VertexId n = 20) {
  Rng rng(seed);
  return topology::Waxman(n, 0.5, 0.4, rng);
}

traffic::Flow MakeFlow(const graph::Digraph& network, VertexId src,
                       VertexId dst, Rate rate) {
  traffic::Flow flow;
  flow.src = src;
  flow.dst = dst;
  flow.rate = rate;
  auto path = graph::ShortestHopPath(network, src, dst);
  EXPECT_TRUE(path.has_value());
  flow.path = std::move(*path);
  return flow;
}

/// Canonical content of an index: per vertex, the sorted multiset of
/// (path, path_index, flow count, rate sum) over its class visits —
/// insensitive to class ids and to the swap-erase ordering the
/// incremental maintenance produces.
using ClassVisit =
    std::tuple<std::vector<VertexId>, std::int32_t, std::size_t, Rate>;
using VertexVisits = std::vector<std::vector<ClassVisit>>;

VertexVisits Canonicalize(const FlowCoverageIndex& index) {
  VertexVisits result(static_cast<std::size_t>(index.num_vertices()));
  for (VertexId v = 0; v < index.num_vertices(); ++v) {
    auto& visits = result[static_cast<std::size_t>(v)];
    for (const FlowCoverageIndex::Visit& visit : index.ClassesThrough(v)) {
      const std::span<const VertexId> path =
          index.ClassPath(visit.path_class);
      const FlowCoverageIndex::PathClass& cls =
          index.PathClassAt(visit.path_class);
      EXPECT_EQ(visit.edges, cls.edges());
      visits.emplace_back(std::vector<VertexId>(path.begin(), path.end()),
                          visit.path_index, cls.active_flows, cls.rate_sum);
    }
    std::sort(visits.begin(), visits.end());
  }
  return result;
}

/// From-scratch rebuild: a fresh index fed only the active flows.
FlowCoverageIndex Rebuild(const FlowCoverageIndex& index) {
  FlowCoverageIndex fresh(index.network(), index.lambda());
  for (FlowTicket ticket : index.ActiveTickets()) {
    fresh.AddFlow(index.FlowAt(ticket));
  }
  return fresh;
}

TEST(FlowCoverageIndexTest, AddIndexesEveryPathVertex) {
  graph::Digraph network = TestNetwork(1);
  FlowCoverageIndex index(network, 0.5);
  const traffic::Flow flow = MakeFlow(network, 7, 0, 3);
  const FlowTicket ticket = index.AddFlow(flow);
  ASSERT_NE(ticket, kInvalidTicket);
  EXPECT_EQ(index.active_flows(), 1u);
  EXPECT_DOUBLE_EQ(index.unprocessed_bandwidth(),
                   3.0 * static_cast<double>(flow.PathEdges()));
  for (std::size_t i = 0; i < flow.path.vertices.size(); ++i) {
    const auto& visits = index.ClassesThrough(flow.path.vertices[i]);
    ASSERT_EQ(visits.size(), 1u);
    EXPECT_EQ(visits[0].path_index, static_cast<std::int32_t>(i));
    EXPECT_EQ(visits[0].edges,
              static_cast<std::int32_t>(flow.PathEdges()));
  }
  EXPECT_EQ(index.FlowAt(ticket).path.vertices, flow.path.vertices);
}

TEST(FlowCoverageIndexTest, RemoveIsExactInverse) {
  graph::Digraph network = TestNetwork(2);
  FlowCoverageIndex index(network, 0.5);
  const FlowTicket keep = index.AddFlow(MakeFlow(network, 5, 0, 2));
  const VertexVisits before = Canonicalize(index);
  const Bandwidth bandwidth_before = index.unprocessed_bandwidth();

  const FlowTicket transient = index.AddFlow(MakeFlow(network, 9, 0, 4));
  EXPECT_EQ(index.active_flows(), 2u);
  EXPECT_TRUE(index.RemoveFlow(transient));
  EXPECT_EQ(index.active_flows(), 1u);
  EXPECT_EQ(Canonicalize(index), before);
  EXPECT_DOUBLE_EQ(index.unprocessed_bandwidth(), bandwidth_before);
  EXPECT_TRUE(index.Contains(keep));
}

TEST(FlowCoverageIndexTest, StaleTicketsAreRejected) {
  graph::Digraph network = TestNetwork(3);
  FlowCoverageIndex index(network, 0.5);
  const FlowTicket ticket = index.AddFlow(MakeFlow(network, 4, 0, 1));
  EXPECT_TRUE(index.RemoveFlow(ticket));
  // Double-remove, invalid and recycled-slot tickets must all be no-ops.
  EXPECT_FALSE(index.RemoveFlow(ticket));
  EXPECT_FALSE(index.RemoveFlow(kInvalidTicket));
  EXPECT_FALSE(index.Contains(ticket));

  const FlowTicket recycled = index.AddFlow(MakeFlow(network, 6, 0, 2));
  EXPECT_NE(recycled, ticket);  // generation bumped
  EXPECT_FALSE(index.RemoveFlow(ticket));
  EXPECT_EQ(index.active_flows(), 1u);
  EXPECT_TRUE(index.Contains(recycled));
}

TEST(FlowCoverageIndexTest, SlotsAreRecycled) {
  graph::Digraph network = TestNetwork(4);
  FlowCoverageIndex index(network, 0.5);
  std::vector<FlowTicket> tickets;
  for (int i = 0; i < 8; ++i) {
    tickets.push_back(index.AddFlow(MakeFlow(network, 10, 0, 1)));
  }
  const std::size_t high_water = index.num_slots();
  for (FlowTicket t : tickets) EXPECT_TRUE(index.RemoveFlow(t));
  for (int round = 0; round < 4; ++round) {
    std::vector<FlowTicket> batch;
    for (int i = 0; i < 8; ++i) {
      batch.push_back(index.AddFlow(MakeFlow(network, 10, 0, 1)));
    }
    for (FlowTicket t : batch) EXPECT_TRUE(index.RemoveFlow(t));
  }
  EXPECT_EQ(index.num_slots(), high_water);  // no unbounded growth
  EXPECT_EQ(index.active_flows(), 0u);
}

// delta_ops counts index entries written or erased: one slot entry per
// flow event, plus the class's |p| visit entries when it gains its first
// flow or loses its last.
TEST(FlowCoverageIndexTest, DeltaOpsCountVisitEntries) {
  graph::Digraph network = TestNetwork(5);
  FlowCoverageIndex index(network, 0.5);
  const traffic::Flow flow = MakeFlow(network, 11, 0, 2);
  const std::size_t path_vertices = flow.path.vertices.size();
  const FlowTicket first = index.AddFlow(flow);
  EXPECT_EQ(index.stats().delta_ops, 1 + path_vertices);
  const FlowTicket second = index.AddFlow(flow);  // same class: slot only
  EXPECT_EQ(index.stats().delta_ops, 2 + path_vertices);
  EXPECT_TRUE(index.RemoveFlow(first));
  EXPECT_EQ(index.stats().delta_ops, 3 + path_vertices);
  EXPECT_TRUE(index.RemoveFlow(second));  // last flow: visits erased
  EXPECT_EQ(index.stats().delta_ops, 4 + 2 * path_vertices);
  EXPECT_EQ(index.stats().arrivals, 2u);
  EXPECT_EQ(index.stats().departures, 2u);
}

// Flows on one path share one class: one visit per path vertex, the
// summed rate, and a record (with its id) that outlives its last flow.
TEST(FlowCoverageIndexTest, SamePathFlowsShareOneClass) {
  graph::Digraph network = TestNetwork(8);
  FlowCoverageIndex index(network, 0.5);
  const traffic::Flow slow = MakeFlow(network, 9, 0, 2);
  traffic::Flow fast = slow;
  fast.rate = 5;
  const traffic::Flow other = MakeFlow(network, 4, 0, 1);
  ASSERT_NE(slow.path.vertices, other.path.vertices);

  const FlowTicket a = index.AddFlow(slow);
  const FlowTicket b = index.AddFlow(fast);
  (void)index.AddFlow(other);
  ASSERT_EQ(index.num_path_classes(), 2u);  // first-seen order
  EXPECT_EQ(index.ClassOf(a), 0u);
  EXPECT_EQ(index.ClassOf(b), 0u);
  EXPECT_EQ(index.ClassOf(index.ActiveTickets().back()), 1u);
  EXPECT_EQ(index.PathClassAt(0).active_flows, 2u);
  EXPECT_EQ(index.PathClassAt(0).rate_sum, 7);
  EXPECT_EQ(index.RateOf(b), 5);
  EXPECT_EQ(index.unprocessed_units(),
            7 * static_cast<std::int64_t>(slow.PathEdges()) +
                static_cast<std::int64_t>(other.PathEdges()));
  const VertexId src = slow.path.vertices.front();
  ASSERT_EQ(index.ClassesThrough(src).size(), 1u);

  EXPECT_TRUE(index.RemoveFlow(a));
  EXPECT_EQ(index.ClassesThrough(src).size(), 1u);  // class still live
  EXPECT_EQ(index.PathClassAt(0).rate_sum, 5);
  EXPECT_TRUE(index.RemoveFlow(b));
  EXPECT_TRUE(index.ClassesThrough(src).empty());
  EXPECT_EQ(index.PathClassAt(0).active_flows, 0u);

  const FlowTicket again = index.AddFlow(slow);  // revives class 0
  EXPECT_EQ(index.ClassOf(again), 0u);
  EXPECT_EQ(index.num_path_classes(), 2u);
  EXPECT_EQ(index.ClassesThrough(src).size(), 1u);
  const traffic::Flow rebuilt = index.FlowAt(again);
  EXPECT_EQ(rebuilt.src, slow.src);
  EXPECT_EQ(rebuilt.dst, slow.dst);
  EXPECT_EQ(rebuilt.rate, slow.rate);
  EXPECT_EQ(rebuilt.path.vertices, slow.path.vertices);
}

TEST(FlowCoverageIndexTest, BuildInstanceMatchesActiveFlows) {
  graph::Digraph network = TestNetwork(6);
  FlowCoverageIndex index(network, 0.25);
  index.AddFlow(MakeFlow(network, 3, 0, 2));
  const FlowTicket doomed = index.AddFlow(MakeFlow(network, 8, 0, 5));
  index.AddFlow(MakeFlow(network, 12, 0, 1));
  index.RemoveFlow(doomed);

  const core::Instance instance = index.BuildInstance();
  EXPECT_EQ(instance.num_flows(), 2);
  EXPECT_DOUBLE_EQ(instance.UnprocessedBandwidth(),
                   index.unprocessed_bandwidth());
  EXPECT_DOUBLE_EQ(instance.lambda(), index.lambda());
  // The reverse indices agree vertex by vertex (as multisets).
  FlowCoverageIndex from_instance(network, index.lambda());
  for (FlowId f = 0; f < instance.num_flows(); ++f) {
    from_instance.AddFlow(instance.flow(f));
  }
  EXPECT_EQ(Canonicalize(from_instance), Canonicalize(index));
}

// The ISSUE's churn soak: after 50 arrival/departure epochs the
// incrementally maintained index must equal a from-scratch rebuild.
TEST(FlowCoverageIndexSoakTest, FiftyEpochsMatchRebuild) {
  graph::Digraph network = TestNetwork(7, 24);
  FlowCoverageIndex index(network, 0.37);  // non-dyadic lambda on purpose
  core::ChurnModel churn;
  churn.arrival_count = 12;
  churn.departure_probability = 0.3;
  Rng rng(99);
  const ChurnTrace trace = BuildChurnTrace(network, churn, 50, 0, rng);

  std::vector<FlowTicket> active;
  for (const ChurnEpoch& epoch : trace.epochs) {
    // Departures index the pre-arrival active list, ascending; erase from
    // the back so earlier indices stay valid.
    for (auto it = epoch.departures.rbegin(); it != epoch.departures.rend();
         ++it) {
      ASSERT_LT(*it, active.size());
      ASSERT_TRUE(index.RemoveFlow(active[*it]));
      active.erase(active.begin() + static_cast<std::ptrdiff_t>(*it));
    }
    for (const traffic::Flow& flow : epoch.arrivals) {
      active.push_back(index.AddFlow(flow));
    }
  }

  ASSERT_EQ(index.active_flows(), active.size());
  ASSERT_EQ(active.size(), trace.FinalActiveCount(0));
  const FlowCoverageIndex rebuilt = Rebuild(index);
  EXPECT_EQ(Canonicalize(index), Canonicalize(rebuilt));
  EXPECT_NEAR(index.unprocessed_bandwidth(),
              rebuilt.unprocessed_bandwidth(), 1e-9);
  EXPECT_GT(index.stats().delta_ops, 0u);
}

// Replay loops resolve positional departures up front: the sequence
// numbers DepartureSequences names must be exactly the flows a positional
// replay departs, epoch by epoch.
TEST(ChurnTraceTest, DepartureSequencesMatchPositionalReplay) {
  graph::Digraph network = TestNetwork(9, 24);
  core::ChurnModel churn;
  churn.arrival_count = 7;
  churn.departure_probability = 0.3;
  constexpr std::size_t kInitial = 10;
  const ChurnTrace trace = BuildChurnTrace(network, churn, 30, kInitial, 5);
  const std::vector<std::vector<std::size_t>> sequences =
      DepartureSequences(trace.epochs, kInitial);
  ASSERT_EQ(sequences.size(), trace.epochs.size());

  std::vector<std::size_t> active(kInitial);
  std::iota(active.begin(), active.end(), std::size_t{0});
  std::size_t next_sequence = kInitial;
  for (std::size_t e = 0; e < trace.epochs.size(); ++e) {
    std::vector<std::size_t> departed;
    for (std::size_t position : trace.epochs[e].departures) {
      departed.push_back(active[position]);
    }
    for (auto it = trace.epochs[e].departures.rbegin();
         it != trace.epochs[e].departures.rend(); ++it) {
      active.erase(active.begin() + static_cast<std::ptrdiff_t>(*it));
    }
    EXPECT_EQ(sequences[e], departed) << "epoch " << e;
    for (std::size_t i = 0; i < trace.epochs[e].arrivals.size(); ++i) {
      active.push_back(next_sequence++);
    }
  }
}

}  // namespace
}  // namespace tdmd::engine
