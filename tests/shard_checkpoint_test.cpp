// Fleet checkpoint round-trips (DESIGN.md Section 13.4): the
// `shardfleet v1` container is byte-stable, a restored fleet resumes
// mid-churn with the same published placements as the uninterrupted run,
// and a single-shard fleet embeds a block byte-identical to the plain
// engine's `engine-checkpoint v1`.
//
// Snapshot() runs a certificate-refresh round that advances the quality
// trackers, so these tests only call Snapshot() at points that are
// symmetric between the runs being compared.
#include "shard/fleet_io.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "engine/churn_trace.hpp"
#include "engine/engine.hpp"
#include "io/text_format.hpp"
#include "checkpoint_compare.hpp"
#include "shard/sharded_engine.hpp"
#include "test_util.hpp"
#include "topology/generators.hpp"

namespace tdmd::shard {
namespace {

graph::Digraph TestNetwork(std::uint64_t seed, VertexId n = 30) {
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

ShardedEngineOptions FleetOptions(std::size_t shards, std::size_t budget) {
  ShardedEngineOptions options;
  options.partition.num_shards = shards;
  options.total_budget = budget;
  options.engine.lambda = 0.5;
  options.engine.move_threshold = 0.0;
  options.realloc_interval_epochs = 0;
  options.pin_threads = false;
  return options;
}

std::string Serialize(const FleetCheckpoint& checkpoint) {
  std::ostringstream os;
  WriteFleetCheckpoint(os, checkpoint);
  return os.str();
}

using test::SerializeDeterministic;

TEST(ShardCheckpointTest, WriteReadWriteIsByteIdentical) {
  const graph::Digraph g = TestNetwork(71);
  const engine::ChurnTrace trace = MakeTrace(g, 8, 3);
  ShardedEngine fleet(g, FleetOptions(3, 9));
  std::vector<FlowId64> handles;
  ReplayFleet(fleet, trace, 0, trace.epochs.size(), handles);

  const FleetCheckpoint cp = fleet.Checkpoint();
  const std::string first = Serialize(cp);

  std::istringstream is(first);
  const io::Parsed<FleetCheckpoint> parsed = ReadFleetCheckpoint(is);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(Serialize(*parsed.value), first);

  EXPECT_EQ(parsed.value->num_shards, 3u);
  EXPECT_EQ(parsed.value->epoch, cp.epoch);
  EXPECT_EQ(parsed.value->next_flow_id, cp.next_flow_id);
  EXPECT_EQ(parsed.value->budgets, cp.budgets);
  ASSERT_EQ(parsed.value->flows.size(), cp.flows.size());
  for (std::size_t i = 0; i < cp.flows.size(); ++i) {
    EXPECT_EQ(parsed.value->flows[i].id, cp.flows[i].id);
    EXPECT_EQ(parsed.value->flows[i].shard, cp.flows[i].shard);
    EXPECT_EQ(parsed.value->flows[i].ticket, cp.flows[i].ticket);
  }
}

TEST(ShardCheckpointTest, ResumesMidChurnWithSamePlacements) {
  const graph::Digraph g = TestNetwork(73);
  const engine::ChurnTrace trace = MakeTrace(g, 12, 5);
  const ShardedEngineOptions options = FleetOptions(2, 6);

  // Uninterrupted run over all 12 epochs.
  ShardedEngine uninterrupted(g, options);
  std::vector<FlowId64> handles_a;
  ReplayFleet(uninterrupted, trace, 0, trace.epochs.size(), handles_a);

  // Checkpoint a second fleet mid-churn...
  ShardedEngine first_half(g, options);
  std::vector<FlowId64> handles_b;
  ReplayFleet(first_half, trace, 0, 6, handles_b);
  const FleetCheckpoint cp = first_half.Checkpoint();

  // ...and resume it in a fresh fleet built with the identical options
  // (the checkpoint carries no partition seeds; the spec must match).
  // Its routing table holds exactly the client's live ids, and the
  // client's handles carry on across the restart.
  ShardedEngine resumed(g, options);
  resumed.Restore(cp);
  std::vector<FlowId64> restored_ids;
  restored_ids.reserve(cp.flows.size());
  for (const FleetCheckpoint::FlowEntry& entry : cp.flows) {
    restored_ids.push_back(entry.id);
  }
  ASSERT_EQ(restored_ids,
            test::LiveHandles(handles_b, std::span(trace.epochs).first(6)));
  ReplayFleet(resumed, trace, 6, trace.epochs.size(), handles_b);
  ASSERT_EQ(handles_b, handles_a);

  // Same published placements and accounting as the uninterrupted run.
  FleetSnapshot snap_a = uninterrupted.Snapshot();
  FleetSnapshot snap_c = resumed.Snapshot();
  EXPECT_EQ(snap_c.epoch, snap_a.epoch);
  EXPECT_EQ(snap_c.feasible, snap_a.feasible);
  EXPECT_NEAR(snap_c.bandwidth, snap_a.bandwidth, 1e-9);
  EXPECT_EQ(snap_c.deployment.ToString(), snap_a.deployment.ToString());
  ASSERT_EQ(snap_c.shards.size(), snap_a.shards.size());
  for (std::size_t s = 0; s < snap_a.shards.size(); ++s) {
    EXPECT_EQ(snap_c.shards[s].boxes, snap_a.shards[s].boxes);
    EXPECT_EQ(snap_c.shards[s].budget, snap_a.shards[s].budget);
    EXPECT_EQ(snap_c.shards[s].active_flows, snap_a.shards[s].active_flows);
    EXPECT_NEAR(snap_c.shards[s].bandwidth, snap_a.shards[s].bandwidth, 1e-9);
  }
  // No departure was routed to a stale ticket on the resumed side.
  const FleetCheckpoint final_c = resumed.Checkpoint();
  for (const engine::EngineCheckpoint& ecp : final_c.engines) {
    EXPECT_EQ(ecp.stats.stale_departures, 0u);
  }
  // Both runs end in the same serialized engine state, byte for byte
  // (modulo the wall-clock latency histograms).
  const FleetCheckpoint final_a = uninterrupted.Checkpoint();
  EXPECT_EQ(SerializeDeterministic(final_c), SerializeDeterministic(final_a));
}

TEST(ShardCheckpointTest, SingleShardEmbedsPlainEngineCheckpoint) {
  const graph::Digraph g = TestNetwork(79, 20);
  const engine::ChurnTrace trace = MakeTrace(g, 6, 7);

  const ShardedEngineOptions options = FleetOptions(1, 5);
  ShardedEngine fleet(g, options);
  std::vector<FlowId64> fleet_handles;
  ReplayFleet(fleet, trace, 0, trace.epochs.size(), fleet_handles);
  const FleetCheckpoint cp = fleet.Checkpoint();
  ASSERT_EQ(cp.engines.size(), 1u);

  // The same trace on a plain engine with the fleet's effective options.
  engine::EngineOptions plain = options.engine;
  plain.k = options.total_budget;
  engine::Engine eng(g, plain);
  std::vector<engine::FlowTicket> engine_handles;
  for (const engine::ChurnEpoch& epoch : trace.epochs) {
    std::vector<engine::FlowTicket> departures;
    for (std::size_t sequence : epoch.departures) {
      departures.push_back(engine_handles[sequence]);
    }
    const engine::Engine::BatchResult result =
        eng.SubmitBatch(epoch.arrivals, departures);
    engine_handles.insert(engine_handles.end(), result.tickets.begin(),
                          result.tickets.end());
  }

  // The embedded block degenerates to the plain `engine-checkpoint v1`
  // (histograms excluded: the two runs' timing samples differ).
  const std::string embedded = SerializeDeterministic(cp.engines[0]);
  EXPECT_EQ(embedded, SerializeDeterministic(eng.Checkpoint()));

  const std::string fleet_text = SerializeDeterministic(cp);
  EXPECT_NE(fleet_text.find("shardfleet v1"), std::string::npos);
  EXPECT_NE(fleet_text.find("engine-checkpoint v1"), std::string::npos);
  EXPECT_NE(fleet_text.find(embedded), std::string::npos);
}

TEST(ShardCheckpointTest, FileRoundTripMatchesStreamForm) {
  const graph::Digraph g = TestNetwork(83, 20);
  const engine::ChurnTrace trace = MakeTrace(g, 4, 9);
  ShardedEngine fleet(g, FleetOptions(2, 6));
  std::vector<FlowId64> handles;
  ReplayFleet(fleet, trace, 0, trace.epochs.size(), handles);
  const FleetCheckpoint cp = fleet.Checkpoint();

  const std::string path =
      ::testing::TempDir() + "/tdmd_fleet_checkpoint_test.txt";
  ASSERT_TRUE(WriteFleetCheckpointFile(path, cp));
  const io::Parsed<FleetCheckpoint> parsed = ReadFleetCheckpointFile(path);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(Serialize(*parsed.value), Serialize(cp));
}

TEST(ShardCheckpointTest, RejectsCorruptInput) {
  const graph::Digraph g = TestNetwork(89, 20);
  const engine::ChurnTrace trace = MakeTrace(g, 3, 11);
  ShardedEngine fleet(g, FleetOptions(2, 6));
  std::vector<FlowId64> handles;
  ReplayFleet(fleet, trace, 0, trace.epochs.size(), handles);
  const std::string good = Serialize(fleet.Checkpoint());

  {
    // Wrong container header.
    std::string bad = good;
    bad.replace(bad.find("shardfleet v1"), 13, "shardfleet v9");
    std::istringstream is(bad);
    EXPECT_FALSE(ReadFleetCheckpoint(is).ok());
  }
  {
    // Truncated: missing terminator (and likely a partial engine block).
    std::istringstream is(good.substr(0, good.size() / 2));
    EXPECT_FALSE(ReadFleetCheckpoint(is).ok());
  }
  {
    // Flow-table count disagrees with the entries that follow.
    std::string bad = good;
    const std::string needle = "flow-table ";
    const std::size_t at = bad.find(needle);
    ASSERT_NE(at, std::string::npos);
    const std::size_t cut = at + needle.size();
    bad = bad.substr(0, cut) + "9" + bad.substr(cut);  // inflate the count
    std::istringstream is(bad);
    EXPECT_FALSE(ReadFleetCheckpoint(is).ok());
  }
}

}  // namespace
}  // namespace tdmd::shard
