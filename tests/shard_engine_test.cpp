// ShardedEngine coordinator behavior: exactly-once flow accounting across
// shards, single-shard parity with the plain engine, budget reallocation,
// backoff health aggregation, the merged metrics exposition and the
// coordinator's arrival checks (DESIGN.md Section 13).
#include "shard/sharded_engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/instance.hpp"
#include "core/objective.hpp"
#include "engine/churn_trace.hpp"
#include "engine/engine.hpp"
#include "faults/faults.hpp"
#include "graph/digraph.hpp"
#include "graph/shortest_path.hpp"
#include "obs/metrics.hpp"
#include "shard/partition.hpp"
#include "test_util.hpp"
#include "topology/generators.hpp"

namespace tdmd::shard {
namespace {

graph::Digraph TestNetwork(std::uint64_t seed, VertexId n = 40) {
  Rng rng(seed);
  return topology::Waxman(n, 0.5, 0.4, rng);
}

engine::ChurnTrace MakeTrace(const graph::Digraph& g, std::size_t epochs,
                             std::uint64_t seed) {
  engine::ChurnModel churn;
  churn.arrival_count = 6;
  churn.departure_probability = 0.3;
  return engine::BuildChurnTrace(g, churn, epochs, 0, seed);
}

/// Replays trace epochs [from, to) into the fleet, appending each batch's
/// flow ids to `handles` (indexed by arrival sequence, the trace's
/// departure numbering).
void ReplayFleet(ShardedEngine& fleet, const engine::ChurnTrace& trace,
                 std::size_t from, std::size_t to,
                 std::vector<FlowId64>& handles) {
  for (std::size_t e = from; e < to; ++e) {
    const engine::ChurnEpoch& epoch = trace.epochs[e];
    std::vector<FlowId64> departures;
    departures.reserve(epoch.departures.size());
    for (std::size_t sequence : epoch.departures) {
      departures.push_back(handles[sequence]);
    }
    const ShardedEngine::BatchResult result =
        fleet.SubmitBatch(epoch.arrivals, departures);
    handles.insert(handles.end(), result.flow_ids.begin(),
                   result.flow_ids.end());
  }
  fleet.Drain();
}

/// Same replay against a plain engine (tickets by arrival sequence).
void ReplayEngine(engine::Engine& eng, const engine::ChurnTrace& trace,
                  std::size_t from, std::size_t to,
                  std::vector<engine::FlowTicket>& handles) {
  for (std::size_t e = from; e < to; ++e) {
    const engine::ChurnEpoch& epoch = trace.epochs[e];
    std::vector<engine::FlowTicket> departures;
    departures.reserve(epoch.departures.size());
    for (std::size_t sequence : epoch.departures) {
      departures.push_back(handles[sequence]);
    }
    const engine::Engine::BatchResult result =
        eng.SubmitBatch(epoch.arrivals, departures);
    handles.insert(handles.end(), result.tickets.begin(),
                   result.tickets.end());
  }
}

ShardedEngineOptions FleetOptions(std::size_t shards, std::size_t budget) {
  ShardedEngineOptions options;
  options.partition.num_shards = shards;
  options.total_budget = budget;
  options.engine.lambda = 0.5;
  options.engine.move_threshold = 0.0;
  options.realloc_interval_epochs = 0;  // data path only, unless a test opts in
  options.pin_threads = false;
  return options;
}

TEST(ShardEngineTest, ExactlyOnceFlowAccounting) {
  const graph::Digraph g = TestNetwork(41);
  const engine::ChurnTrace trace = MakeTrace(g, 10, 7);
  ShardedEngine fleet(g, FleetOptions(3, 9));

  std::vector<FlowId64> handles;
  ReplayFleet(fleet, trace, 0, trace.epochs.size(), handles);
  const std::vector<FlowId64> live = test::LiveHandles(handles, trace.epochs);
  ASSERT_FALSE(live.empty());
  // The workload must actually exercise cross-shard paths, or the
  // exactly-once property is vacuous.
  EXPECT_GT(fleet.stats().cross_shard_flows, 0u);

  const FleetSnapshot snapshot = fleet.Snapshot();
  std::size_t snapshot_flows = 0;
  for (const ShardStatus& shard : snapshot.shards) {
    snapshot_flows += shard.active_flows;
  }
  EXPECT_EQ(snapshot_flows, live.size());

  const FleetCheckpoint cp = fleet.Checkpoint().value();
  ASSERT_EQ(cp.flows.size(), live.size());

  // Every live flow appears in the routing table exactly once (ids
  // strictly ascending) and in exactly one shard's engine.
  std::size_t engine_flows = 0;
  for (const engine::EngineCheckpoint& ecp : cp.engines) {
    engine_flows += ecp.flows.records.size();
  }
  EXPECT_EQ(engine_flows, cp.flows.size());

  for (std::size_t i = 0; i < cp.flows.size(); ++i) {
    const FleetCheckpoint::FlowEntry& entry = cp.flows[i];
    if (i > 0) {
      EXPECT_LT(cp.flows[i - 1].id, entry.id);
    }
    ASSERT_LT(entry.shard, cp.engines.size());
    // The flow lives in its owner shard's engine (by ticket), and the
    // owner is the partition's deterministic pin for that flow.
    std::size_t hits = 0;
    const engine::ClassKeyedFlows& flows = cp.engines[entry.shard].flows;
    for (const engine::ClassKeyedFlows::Record& record : flows.records) {
      if (record.ticket == entry.ticket) {
        ++hits;
        const std::span<const VertexId> path =
            flows.ClassPath(record.path_class);
        traffic::Flow flow;
        flow.src = path.front();
        flow.dst = path.back();
        flow.rate = record.rate;
        flow.path.vertices.assign(path.begin(), path.end());
        EXPECT_EQ(OwnerShard(fleet.partition(), flow, entry.id), entry.shard);
      }
    }
    EXPECT_EQ(hits, 1u) << "flow " << entry.id;
  }

  // Union bandwidth never exceeds the sum of the disjoint per-shard
  // accounts (a shard's flow may be served even better by another
  // shard's box on its path, never worse).
  Bandwidth shard_sum = 0.0;
  for (const ShardStatus& shard : snapshot.shards) {
    shard_sum += shard.bandwidth;
  }
  EXPECT_LE(snapshot.bandwidth, shard_sum + 1e-9);
}

// The fleet's union evaluation sums path classes shard by shard; it must
// equal, exactly, the batch objective over one instance of every live
// flow with the union deployed — for a non-dyadic 1 - lambda too, where
// the per-flow sum core::EvaluateBandwidth rounds differently.
TEST(ShardEngineTest, UnionSnapshotIsExactlyTheBatchObjective) {
  const graph::Digraph g = TestNetwork(41);
  const engine::ChurnTrace trace = MakeTrace(g, 10, 7);
  traffic::FlowSet arrivals;  // by arrival sequence
  for (const engine::ChurnEpoch& epoch : trace.epochs) {
    arrivals.insert(arrivals.end(), epoch.arrivals.begin(),
                    epoch.arrivals.end());
  }
  traffic::FlowSet live = test::LiveHandles(arrivals, trace.epochs);
  ASSERT_FALSE(live.empty());
  // The trace's flows all end at vertex 0, which one box serves; flows to
  // other destinations let a small budget leave some unserved.
  traffic::FlowSet elsewhere;
  Rng rng(9);
  for (const VertexId destination : {13, 27, 39}) {
    engine::ChurnModel model;
    model.arrival_count = 6;
    model.destination = destination;
    const traffic::FlowSet drawn = engine::DrawArrivals(g, model, rng);
    elsewhere.insert(elsewhere.end(), drawn.begin(), drawn.end());
  }
  live.insert(live.end(), elsewhere.begin(), elsewhere.end());

  bool saw_feasible = false;
  bool saw_infeasible = false;
  for (const double lambda : {0.5, 0.7}) {
    for (const std::size_t budget : {3u, 12u}) {
      SCOPED_TRACE(testing::Message()
                   << "lambda " << lambda << ", budget " << budget);
      ShardedEngineOptions options = FleetOptions(3, budget);
      options.engine.lambda = lambda;
      ShardedEngine fleet(g, options);
      std::vector<FlowId64> handles;
      ReplayFleet(fleet, trace, 0, trace.epochs.size(), handles);
      (void)fleet.SubmitBatch(elsewhere, {});
      ASSERT_GT(fleet.stats().cross_shard_flows, 0u);
      const FleetSnapshot snapshot = fleet.Snapshot();

      const core::Instance instance(g, live, lambda);
      core::ServedState served(instance);
      for (const VertexId v : snapshot.deployment.vertices()) {
        served.Deploy(v);
      }
      EXPECT_EQ(snapshot.bandwidth, served.bandwidth());
      EXPECT_EQ(snapshot.feasible, served.AllServed());
      if (lambda == 0.5) {
        EXPECT_EQ(snapshot.bandwidth,
                  core::EvaluateBandwidth(instance, snapshot.deployment));
      }
      (snapshot.feasible ? saw_feasible : saw_infeasible) = true;
    }
  }
  // Both verdicts are exercised, or the feasibility check is vacuous.
  EXPECT_TRUE(saw_feasible);
  EXPECT_TRUE(saw_infeasible);
}

TEST(ShardEngineTest, SingleShardMatchesPlainEngine) {
  const graph::Digraph g = TestNetwork(43, 25);
  const engine::ChurnTrace trace = MakeTrace(g, 8, 11);

  ShardedEngineOptions options = FleetOptions(1, 5);
  ShardedEngine fleet(g, options);
  std::vector<FlowId64> fleet_handles;
  ReplayFleet(fleet, trace, 0, trace.epochs.size(), fleet_handles);

  // The plain engine with the fleet's effective per-shard options: the
  // whole budget, synchronous, single-threaded.
  engine::EngineOptions plain = options.engine;
  plain.k = options.total_budget;
  engine::Engine eng(g, plain);
  std::vector<engine::FlowTicket> engine_handles;
  ReplayEngine(eng, trace, 0, trace.epochs.size(), engine_handles);

  ASSERT_EQ(fleet_handles.size(), engine_handles.size());
  const FleetSnapshot fleet_snap = fleet.Snapshot();
  const auto engine_snap = eng.CurrentSnapshot();
  EXPECT_EQ(fleet_snap.epoch, engine_snap->epoch);
  EXPECT_EQ(fleet_snap.feasible, engine_snap->feasible);
  EXPECT_NEAR(fleet_snap.bandwidth, engine_snap->bandwidth, 1e-9);
  EXPECT_EQ(fleet_snap.deployment.ToString(),
            engine_snap->deployment.ToString());
  ASSERT_EQ(fleet_snap.shards.size(), 1u);
  EXPECT_EQ(fleet_snap.shards[0].budget, options.total_budget);
  EXPECT_EQ(fleet_snap.shards[0].active_flows,
            test::LiveHandles(engine_handles, trace.epochs).size());
}

TEST(ShardEngineTest, SkipsShardsWithoutEvents) {
  const graph::Digraph g = TestNetwork(47);
  ShardedEngineOptions options = FleetOptions(2, 6);
  ShardedEngine fleet(g, options);
  const Partition& partition = fleet.partition();

  // Flows wholly inside shard 0's region: shard 1 must receive nothing.
  traffic::FlowSet arrivals;
  Rng rng(5);
  while (arrivals.size() < 6) {
    const auto src = static_cast<VertexId>(
        rng.NextBounded(static_cast<std::uint64_t>(g.num_vertices())));
    const auto dst = static_cast<VertexId>(
        rng.NextBounded(static_cast<std::uint64_t>(g.num_vertices())));
    if (src == dst) continue;
    const auto path = graph::ShortestHopPath(g, src, dst);
    if (!path.has_value() || path->NumEdges() == 0) continue;
    traffic::Flow flow;
    flow.src = src;
    flow.dst = dst;
    flow.rate = 4;
    flow.path = *path;
    if (ShardsTouched(partition, flow) != 1) continue;
    if (partition.shard(src) != 0) continue;
    arrivals.push_back(std::move(flow));
  }

  const std::size_t epochs = 4;
  for (std::size_t e = 0; e < epochs; ++e) {
    fleet.SubmitBatch(arrivals, {});
  }
  fleet.Drain();
  // One skipped shard-epoch per epoch: shard 1 never saw a command.
  EXPECT_EQ(fleet.stats().batches_skipped, epochs);
  EXPECT_EQ(fleet.stats().commands_routed, epochs);
  const FleetSnapshot snapshot = fleet.Snapshot();
  EXPECT_EQ(snapshot.shards[1].epochs, 0u);
  EXPECT_EQ(snapshot.shards[1].active_flows, 0u);
}

TEST(ShardEngineTest, BudgetReallocationShiftsTowardLoad) {
  const graph::Digraph g = TestNetwork(53);
  ShardedEngineOptions options = FleetOptions(2, 6);
  options.realloc_interval_epochs = 2;
  options.realloc_hysteresis = 0.0;
  ShardedEngine fleet(g, options);
  const Partition& partition = fleet.partition();
  EXPECT_EQ(fleet.budgets(), (std::vector<std::size_t>{3, 3}));

  // All traffic lands in shard 0; shard 1's marginal curve is empty, so
  // the greedy merge should concentrate the budget on shard 0.
  traffic::FlowSet arrivals;
  Rng rng(9);
  while (arrivals.size() < 8) {
    const auto src = static_cast<VertexId>(
        rng.NextBounded(static_cast<std::uint64_t>(g.num_vertices())));
    const auto dst = static_cast<VertexId>(
        rng.NextBounded(static_cast<std::uint64_t>(g.num_vertices())));
    if (src == dst) continue;
    const auto path = graph::ShortestHopPath(g, src, dst);
    if (!path.has_value() || path->NumEdges() == 0) continue;
    traffic::Flow flow;
    flow.src = src;
    flow.dst = dst;
    flow.rate = 6;
    flow.path = *path;
    if (ShardsTouched(partition, flow) != 1) continue;
    if (partition.shard(src) != 0) continue;
    arrivals.push_back(std::move(flow));
  }

  for (std::size_t e = 0; e < 6; ++e) {
    fleet.SubmitBatch(arrivals, {});
  }
  fleet.Drain();

  EXPECT_GE(fleet.stats().realloc_rounds, 1u);
  EXPECT_GE(fleet.stats().realloc_adoptions, 1u);
  const std::vector<std::size_t>& budgets = fleet.budgets();
  ASSERT_EQ(budgets.size(), 2u);
  EXPECT_EQ(budgets[0] + budgets[1], options.total_budget);
  EXPECT_GE(budgets[1], 1u);  // every shard keeps at least one box
  EXPECT_GT(budgets[0], budgets[1]);

  // The adopted split is already live: no shard holds more boxes than
  // its (possibly shrunk) budget.
  const FleetSnapshot snapshot = fleet.Snapshot();
  for (std::size_t s = 0; s < snapshot.shards.size(); ++s) {
    EXPECT_LE(snapshot.shards[s].boxes, snapshot.shards[s].budget)
        << "shard " << s;
    EXPECT_EQ(snapshot.shards[s].budget, budgets[s]);
  }
  EXPECT_TRUE(snapshot.feasible);
}

TEST(ShardEngineTest, FleetModeIsWorstShardMode) {
  const graph::Digraph g = TestNetwork(59);
  const engine::ChurnTrace trace = MakeTrace(g, 6, 13);

  ShardedEngineOptions options = FleetOptions(2, 6);
  // Every re-solve throws on every shard: each engine that sees traffic
  // backs off while the synchronous patch keeps coverage feasible.  The
  // fleet's health is its supervisor's state, which is only as good as
  // its sickest shard.
  options.inject_faults = true;
  options.fault_spec.seed = 71;
  options.fault_spec.at(faults::FaultSite::kGreedyRound).throw_probability =
      1.0;
  options.engine.max_resolve_retries = 1;
  options.supervise = true;
  ShardedEngine fleet(g, options);

  std::vector<FlowId64> handles;
  ReplayFleet(fleet, trace, 0, trace.epochs.size(), handles);

  const FleetSnapshot snapshot = fleet.Snapshot();
  bool any_backing_off = false;
  for (const ShardStatus& shard : snapshot.shards) {
    any_backing_off = any_backing_off || shard.backing_off;
  }
  EXPECT_TRUE(any_backing_off);
  EXPECT_EQ(snapshot.state, FleetState::kShardDegraded);
  // Feasibility survives: the patch path does not go through the solver.
  EXPECT_TRUE(snapshot.feasible);
}

TEST(ShardEngineTest, MetricsExposeFleetAndPerShardSeries) {
  const graph::Digraph g = TestNetwork(61);
  const engine::ChurnTrace trace = MakeTrace(g, 5, 17);
  ShardedEngine fleet(g, FleetOptions(2, 6));
  std::vector<FlowId64> handles;
  ReplayFleet(fleet, trace, 0, trace.epochs.size(), handles);

  std::ostringstream prom;
  fleet.DumpMetrics(prom, obs::MetricsFormat::kPrometheus);
  const std::string text = prom.str();
  for (const char* needle :
       {"tdmd_fleet_num_shards 2", "tdmd_fleet_epochs", "tdmd_fleet_bandwidth",
        "tdmd_fleet_cert_bound", "tdmd_fleet_cross_shard_flows",
        "tdmd_shard0_budget", "tdmd_shard0_active_flows",
        "tdmd_shard1_bandwidth", "tdmd_shard1_consecutive_failures"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
}

/// A fleet over the 4-vertex line 0 - 1 - 2 - 3 that admits one flow.
void SubmitOneFlowToLineFleet(std::vector<VertexId> path, VertexId src,
                              VertexId dst) {
  graph::DigraphBuilder builder(4);
  for (VertexId v = 0; v + 1 < 4; ++v) builder.AddBidirectional(v, v + 1);
  ShardedEngine fleet(builder.Build(), FleetOptions(2, 4));
  traffic::Flow flow;
  flow.src = src;
  flow.dst = dst;
  flow.rate = 1;
  flow.path.vertices = std::move(path);
  (void)fleet.SubmitBatch({flow}, {});
  fleet.Drain();
}

// The coordinator looks up each arrival's path in the partition before
// any engine sees it, so it checks the vertex range first, with the
// engine's message; an unchecked lookup read past the shard table.  The
// fleet is built inside each death statement, so its workers exist only
// in the child.
TEST(ShardEngineDeathTest, ArrivalVertexOutsideTheNetworkAborts) {
  EXPECT_DEATH(SubmitOneFlowToLineFleet({0, 1, 1 << 30}, 0, 1 << 30),
               "flow path is not a simple path in the network");
}

// A flat arrival batch carries no src/dst, so the coordinator checks
// them against the path's ends before routing.
TEST(ShardEngineDeathTest, ArrivalEndpointMismatchAborts) {
  EXPECT_DEATH(SubmitOneFlowToLineFleet({0, 1, 2}, 0, 3),
               "flow path endpoints disagree with src/dst");
}

}  // namespace
}  // namespace tdmd::shard
