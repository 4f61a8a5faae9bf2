#include "engine/incremental_gtp.hpp"

#include <gtest/gtest.h>

#include <iterator>
#include <utility>
#include <vector>

#include "core/gtp.hpp"
#include "core/objective.hpp"
#include "engine/coverage_index.hpp"
#include "test_util.hpp"
#include "topology/generators.hpp"

namespace tdmd::engine {
namespace {

// Both solvers sum r_f * delta_l as integers and scale by (1 - lambda)
// once, so gains and b(P) are order-independent and the equivalence check
// below is exact for every lambda — the non-dyadic 0.3 and 0.37 included —
// even though the index sums per path class, in swap-erase order, and the
// Instance per flow, in flow-id order.
constexpr double kLambdas[] = {0.0, 0.125, 0.25, 0.3, 0.37, 0.5, 0.75, 1.0};

double LambdaFor(int trial) {
  return kLambdas[static_cast<std::size_t>(trial) % std::size(kLambdas)];
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

traffic::FlowSet RandomGeneralFlows(const graph::Digraph& network,
                                    std::size_t count, Rng& rng) {
  traffic::FlowSet flows;
  while (flows.size() < count) {
    const auto src = static_cast<VertexId>(
        rng.NextBounded(static_cast<std::uint64_t>(network.num_vertices())));
    if (src == 0) continue;
    flows.push_back(MakeFlow(network, src, 0, rng.NextInt(1, 12)));
  }
  return flows;
}

traffic::FlowSet RandomTreeFlows(const graph::Tree& tree,
                                 std::size_t count, Rng& rng) {
  traffic::FlowSet flows;
  const std::vector<VertexId>& leaves = tree.Leaves();
  for (std::size_t i = 0; i < count; ++i) {
    const VertexId leaf = leaves[static_cast<std::size_t>(
        rng.NextBounded(static_cast<std::uint64_t>(leaves.size())))];
    traffic::Flow flow;
    flow.src = leaf;
    flow.dst = tree.root();
    flow.rate = rng.NextInt(1, 12);
    flow.path.vertices = tree.PathToRoot(leaf);
    flows.push_back(std::move(flow));
  }
  return flows;
}

/// The equivalence contract of the tentpole: CELF over the live index
/// must reproduce batch GTP exactly — same deployment (same order, even),
/// same b(P), same feasibility.
void ExpectEquivalent(const FlowCoverageIndex& index,
                      const core::Instance& instance, std::size_t k,
                      const char* label) {
  IncrementalGtpOptions incremental_options;
  incremental_options.max_middleboxes = k;
  const IncrementalGtpResult incremental =
      SolveIncrementalGtp(index, incremental_options);

  core::GtpOptions batch_options;
  batch_options.max_middleboxes = k;
  const core::PlacementResult batch = Gtp(instance, batch_options);

  EXPECT_FALSE(incremental.cancelled) << label;
  EXPECT_EQ(incremental.deployment.vertices(), batch.deployment.vertices())
      << label << ": greedy selection order diverged";
  EXPECT_EQ(incremental.bandwidth, batch.bandwidth) << label;
  EXPECT_EQ(incremental.feasible, batch.feasible) << label;

  // The lazy mode of batch GTP shares CelfQueue with the incremental
  // solver; close the triangle.
  batch_options.lazy = true;
  const core::PlacementResult lazy = Gtp(instance, batch_options);
  EXPECT_EQ(incremental.deployment.vertices(), lazy.deployment.vertices())
      << label;
}

TEST(IncrementalGtpPropertyTest, MatchesBatchOnRandomGeneralDigraphs) {
  Rng rng(2024);
  for (int trial = 0; trial < 100; ++trial) {
    const auto n = static_cast<VertexId>(6 + trial % 25);
    graph::Digraph network = topology::Waxman(n, 0.5, 0.4, rng);
    const std::size_t flow_count = 1 + (static_cast<std::size_t>(trial) * 7) % 40;
    const traffic::FlowSet flows = RandomGeneralFlows(network, flow_count, rng);
    const double lambda = LambdaFor(trial);
    const std::size_t k = static_cast<std::size_t>(trial) % 9;  // 0 = unlimited

    FlowCoverageIndex index(network, lambda);
    for (const traffic::Flow& flow : flows) index.AddFlow(flow);
    const core::Instance instance(std::move(network), flows, lambda);
    ExpectEquivalent(index, instance, k,
                     ("general trial " + std::to_string(trial)).c_str());
  }
}

TEST(IncrementalGtpPropertyTest, MatchesBatchOnRandomTrees) {
  Rng rng(4048);
  for (int trial = 0; trial < 100; ++trial) {
    const auto n = static_cast<VertexId>(4 + trial % 21);
    const graph::Tree tree = topology::RandomTree(n, rng);
    const std::size_t flow_count = 1 + (static_cast<std::size_t>(trial) * 5) % 30;
    const traffic::FlowSet flows = RandomTreeFlows(tree, flow_count, rng);
    const double lambda = LambdaFor(trial + 3);
    const std::size_t k = static_cast<std::size_t>(trial + 1) % 7;

    FlowCoverageIndex index(tree.ToDigraph(), lambda);
    for (const traffic::Flow& flow : flows) index.AddFlow(flow);
    const core::Instance instance(tree.ToDigraph(), flows, lambda);
    ExpectEquivalent(index, instance, k,
                     ("tree trial " + std::to_string(trial)).c_str());
  }
}

// The equivalence must survive churn: an index that absorbed arrivals and
// departures (so its visit lists are swap-erase-permuted and its slots
// recycled) still solves identically to a batch run over the survivors.
TEST(IncrementalGtpPropertyTest, MatchesBatchAfterChurn) {
  Rng rng(777);
  for (int trial = 0; trial < 30; ++trial) {
    const auto n = static_cast<VertexId>(10 + trial % 15);
    graph::Digraph network = topology::Waxman(n, 0.5, 0.4, rng);
    const double lambda = LambdaFor(trial);

    FlowCoverageIndex index(network, lambda);
    std::vector<FlowTicket> tickets;
    for (const traffic::Flow& flow :
         RandomGeneralFlows(network, 30, rng)) {
      tickets.push_back(index.AddFlow(flow));
    }
    // Depart ~half, in a scattered pattern, then add a second wave.
    for (std::size_t i = 0; i < tickets.size(); i += 2) {
      ASSERT_TRUE(index.RemoveFlow(tickets[i]));
    }
    for (const traffic::Flow& flow :
         RandomGeneralFlows(network, 10, rng)) {
      index.AddFlow(flow);
    }

    const core::Instance instance = index.BuildInstance();
    ExpectEquivalent(index, instance, 1 + static_cast<std::size_t>(trial) % 6,
                     ("churn trial " + std::to_string(trial)).c_str());
  }
}

// The engine's re-solve mode: feasibility-aware selection while flows are
// unserved, CELF afterwards.  Must match batch GTP's feasibility_aware
// mode (the churn benches' from-scratch reference) exactly.
TEST(IncrementalGtpPropertyTest, FeasibilityAwareMatchesBatch) {
  Rng rng(911);
  for (int trial = 0; trial < 60; ++trial) {
    const auto n = static_cast<VertexId>(8 + trial % 20);
    graph::Digraph network = topology::Waxman(n, 0.5, 0.4, rng);
    const traffic::FlowSet flows =
        RandomGeneralFlows(network, 5 + (static_cast<std::size_t>(trial) * 3) % 25, rng);
    const double lambda = LambdaFor(trial);
    const std::size_t k = 1 + static_cast<std::size_t>(trial) % 6;

    FlowCoverageIndex index(network, lambda);
    for (const traffic::Flow& flow : flows) index.AddFlow(flow);

    IncrementalGtpOptions incremental_options;
    incremental_options.max_middleboxes = k;
    incremental_options.feasibility_aware = true;
    const IncrementalGtpResult incremental =
        SolveIncrementalGtp(index, incremental_options);

    core::GtpOptions batch_options;
    batch_options.max_middleboxes = k;
    batch_options.feasibility_aware = true;
    const core::Instance instance(std::move(network), flows, lambda);
    const core::PlacementResult batch = Gtp(instance, batch_options);

    EXPECT_EQ(incremental.deployment.vertices(), batch.deployment.vertices())
        << "feasibility-aware trial " << trial;
    EXPECT_EQ(incremental.bandwidth, batch.bandwidth)
        << "feasibility-aware trial " << trial;
    EXPECT_EQ(incremental.feasible, batch.feasible)
        << "feasibility-aware trial " << trial;
  }
}

TEST(IncrementalGtpTest, EmptyIndexIsTriviallyFeasible) {
  Rng rng(5);
  FlowCoverageIndex index(topology::Waxman(8, 0.5, 0.4, rng), 0.5);
  const IncrementalGtpResult result = SolveIncrementalGtp(index, {});
  EXPECT_TRUE(result.feasible);
  EXPECT_TRUE(result.deployment.empty());
  EXPECT_DOUBLE_EQ(result.bandwidth, 0.0);
}

TEST(IncrementalGtpTest, LazyHeapSavesReevaluations) {
  Rng rng(6);
  graph::Digraph network = topology::Waxman(40, 0.6, 0.5, rng);
  FlowCoverageIndex index(network, 0.5);
  for (const traffic::Flow& flow : RandomGeneralFlows(network, 120, rng)) {
    index.AddFlow(flow);
  }
  IncrementalGtpOptions options;
  options.max_middleboxes = 10;
  const IncrementalGtpResult result = SolveIncrementalGtp(index, options);
  EXPECT_GT(result.reevals_saved, 0u);
  // CELF's total work (prime + revalidations) must undercut the plain
  // full-scan count on an instance this size.
  core::GtpOptions batch_options;
  batch_options.max_middleboxes = 10;
  const core::PlacementResult plain =
      Gtp(index.BuildInstance(), batch_options);
  EXPECT_LT(result.oracle_calls, plain.oracle_calls);
}

}  // namespace
}  // namespace tdmd::engine
