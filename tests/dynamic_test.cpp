#include "core/dynamic.hpp"

#include <gtest/gtest.h>

#include "core/objective.hpp"
#include "test_util.hpp"
#include "topology/generators.hpp"

namespace tdmd::core {
namespace {

graph::Digraph TestNetwork(std::uint64_t seed) {
  Rng rng(seed);
  return topology::Waxman(20, 0.5, 0.4, rng);
}

DynamicOptions DefaultOptions() {
  DynamicOptions options;
  options.k = 6;
  options.lambda = 0.5;
  return options;
}

TEST(DynamicPlacerTest, EmptyEpochIsTrivial) {
  DynamicPlacer placer(TestNetwork(1), DefaultOptions());
  const EpochReport report = placer.Step({}, {});
  EXPECT_TRUE(report.feasible);
  EXPECT_EQ(report.active_flows, 0);
  EXPECT_EQ(report.moves, 0u);
}

TEST(DynamicPlacerTest, FirstArrivalsGetCovered) {
  graph::Digraph network = TestNetwork(2);
  DynamicPlacer placer(network, DefaultOptions());
  Rng rng(3);
  ChurnModel churn;
  const traffic::FlowSet arrivals = DrawArrivals(network, churn, rng);
  ASSERT_FALSE(arrivals.empty());
  const EpochReport report = placer.Step(arrivals, {});
  EXPECT_TRUE(report.feasible);
  EXPECT_EQ(report.active_flows,
            static_cast<FlowId>(arrivals.size()));
  EXPECT_GT(report.moves, 0u);  // first plan requires placements
  EXPECT_LE(placer.deployment().size(), 6u);
}

TEST(DynamicPlacerTest, DeparturesShrinkTheFlowSet) {
  graph::Digraph network = TestNetwork(4);
  DynamicPlacer placer(network, DefaultOptions());
  Rng rng(5);
  ChurnModel churn;
  churn.arrival_count = 8;
  placer.Step(DrawArrivals(network, churn, rng), {});
  ASSERT_EQ(placer.active_flows().size(), 8u);
  const EpochReport report = placer.Step({}, {0, 2, 4, 4, 99});
  EXPECT_EQ(report.active_flows, 5);  // 3 distinct valid departures
  EXPECT_TRUE(report.feasible);
}

TEST(DynamicPlacerTest, ZeroThresholdNeverWorseThanResolve) {
  // With no hysteresis the placer adopts the re-solve whenever it is at
  // least as good — so the maintained plan is never *worse* than the
  // from-scratch reference.  (It can be strictly better: the patched
  // historical plan sometimes beats a fresh greedy run.)
  graph::Digraph network = TestNetwork(6);
  DynamicOptions options = DefaultOptions();
  options.move_threshold = 0.0;
  DynamicPlacer placer(network, options);
  Rng rng(7);
  ChurnModel churn;
  for (int epoch = 0; epoch < 10; ++epoch) {
    const traffic::FlowSet arrivals = DrawArrivals(network, churn, rng);
    const std::vector<std::size_t> departures =
        DrawDepartures(placer.active_flows().size(), churn, rng);
    const EpochReport report = placer.Step(arrivals, departures);
    EXPECT_TRUE(report.feasible);
    EXPECT_LE(report.maintained_bandwidth,
              report.resolve_bandwidth + 1e-9)
        << "epoch " << epoch;
  }
}

TEST(DynamicPlacerTest, HighThresholdFreezesTheDeployment) {
  graph::Digraph network = TestNetwork(8);
  DynamicOptions options = DefaultOptions();
  options.move_threshold = 1e9;  // never worth moving
  DynamicPlacer placer(network, options);
  Rng rng(9);
  ChurnModel churn;
  placer.Step(DrawArrivals(network, churn, rng), {});
  const auto frozen = placer.deployment().SortedVertices();
  std::size_t patch_moves = 0;
  for (int epoch = 0; epoch < 8; ++epoch) {
    const EpochReport report =
        placer.Step(DrawArrivals(network, churn, rng),
                    DrawDepartures(placer.active_flows().size(), churn,
                                   rng));
    EXPECT_TRUE(report.feasible);
    EXPECT_FALSE(report.adopted_resolve);
    patch_moves += report.moves;
  }
  // The original boxes never move; only feasibility patches add boxes.
  for (VertexId v : frozen) {
    EXPECT_TRUE(placer.deployment().Contains(v));
  }
  EXPECT_LE(placer.deployment().size(), options.k);
  (void)patch_moves;
}

TEST(DynamicPlacerTest, ThresholdTradesMovesForBandwidth) {
  // Across thresholds, total moves decrease while total maintained
  // bandwidth (regret) increases — the stability/optimality trade-off.
  graph::Digraph network = TestNetwork(10);
  ChurnModel churn;
  churn.arrival_count = 6;
  auto run = [&](double threshold) {
    DynamicOptions options = DefaultOptions();
    options.move_threshold = threshold;
    DynamicPlacer placer(network, options);
    Rng rng(11);
    std::size_t moves = 0;
    double bandwidth = 0.0;
    for (int epoch = 0; epoch < 12; ++epoch) {
      const EpochReport report =
          placer.Step(DrawArrivals(network, churn, rng),
                      DrawDepartures(placer.active_flows().size(), churn,
                                     rng));
      moves += report.moves;
      bandwidth += report.maintained_bandwidth;
    }
    return std::pair<std::size_t, double>(moves, bandwidth);
  };
  const auto [eager_moves, eager_bw] = run(0.0);
  const auto [lazy_moves, lazy_bw] = run(1e9);
  EXPECT_LE(lazy_moves, eager_moves);
  EXPECT_GE(lazy_bw + 1e-9, eager_bw);
}

TEST(ChurnModelTest, ArrivalsAreValidFlows) {
  graph::Digraph network = TestNetwork(14);
  Rng rng(15);
  ChurnModel churn;
  churn.arrival_count = 10;
  const traffic::FlowSet arrivals = DrawArrivals(network, churn, rng);
  EXPECT_EQ(arrivals.size(), 10u);
  EXPECT_TRUE(traffic::AllFlowsValid(network, arrivals));
  for (const traffic::Flow& f : arrivals) {
    EXPECT_EQ(f.dst, churn.destination);
  }
}

TEST(ChurnModelTest, DeparturesRespectProbability) {
  Rng rng(17);
  ChurnModel churn;
  churn.departure_probability = 0.25;
  std::size_t total = 0;
  for (int trial = 0; trial < 100; ++trial) {
    total += DrawDepartures(40, churn, rng).size();
  }
  // E = 100 * 40 * 0.25 = 1000; allow generous slack.
  EXPECT_NEAR(static_cast<double>(total), 1000.0, 150.0);
}

}  // namespace
}  // namespace tdmd::core
