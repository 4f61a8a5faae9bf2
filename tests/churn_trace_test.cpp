// The churn generator and the pre-drawn trace every churn replay shares.
#include "engine/churn_trace.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "topology/generators.hpp"

namespace tdmd::engine {
namespace {

graph::Digraph TestNetwork(std::uint64_t seed, VertexId n = 20) {
  Rng rng(seed);
  return topology::Waxman(n, 0.5, 0.4, rng);
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
    std::vector<std::size_t> live(40);
    std::iota(live.begin(), live.end(), std::size_t{0});
    const std::vector<std::size_t> departed =
        DrawDepartures(live, churn, rng);
    // Every entry either departs or stays, in list order.
    EXPECT_EQ(live.size() + departed.size(), 40u);
    EXPECT_TRUE(std::is_sorted(live.begin(), live.end()));
    EXPECT_TRUE(std::is_sorted(departed.begin(), departed.end()));
    total += departed.size();
  }
  // E = 100 * 40 * 0.25 = 1000; allow generous slack.
  EXPECT_NEAR(static_cast<double>(total), 1000.0, 150.0);
}

// The trace names departures by arrival sequence number.  The oracle
// replays the same draws over a positional active list — one coin per
// entry, then erase the departed positions from the back — and names the
// entries it removed; both must agree epoch by epoch.
TEST(ChurnTraceTest, SequenceDeparturesMatchPositionalReplay) {
  const graph::Digraph network = TestNetwork(9, 24);
  ChurnModel churn;
  churn.arrival_count = 7;
  churn.departure_probability = 0.3;
  constexpr std::size_t kInitial = 10;
  constexpr std::uint64_t kSeed = 5;
  const ChurnTrace trace =
      BuildChurnTrace(network, churn, 30, kInitial, kSeed);
  ASSERT_EQ(trace.epochs.size(), 30u);

  Rng rng(kSeed);
  std::vector<std::size_t> active(kInitial);  // sequence at each position
  std::iota(active.begin(), active.end(), std::size_t{0});
  std::size_t next_sequence = kInitial;
  std::size_t departures = 0;
  for (std::size_t e = 0; e < trace.epochs.size(); ++e) {
    const traffic::FlowSet arrivals = DrawArrivals(network, churn, rng);
    std::vector<std::size_t> positions;
    for (std::size_t i = 0; i < active.size(); ++i) {
      if (rng.NextBool(churn.departure_probability)) positions.push_back(i);
    }
    std::vector<std::size_t> departed;
    for (std::size_t position : positions) {
      departed.push_back(active[position]);
    }
    for (auto it = positions.rbegin(); it != positions.rend(); ++it) {
      active.erase(active.begin() + static_cast<std::ptrdiff_t>(*it));
    }
    EXPECT_EQ(trace.epochs[e].departures, departed) << "epoch " << e;
    ASSERT_EQ(trace.epochs[e].arrivals.size(), arrivals.size());
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      EXPECT_EQ(trace.epochs[e].arrivals[i].path.vertices,
                arrivals[i].path.vertices);
      EXPECT_EQ(trace.epochs[e].arrivals[i].rate, arrivals[i].rate);
      active.push_back(next_sequence++);
    }
    departures += departed.size();
  }
  EXPECT_GT(departures, 0u);
}

}  // namespace
}  // namespace tdmd::engine
