// Fleet supervision (DESIGN.md Section 14): a shard crashed mid-churn is
// quarantined, respawned from its recovery checkpoint and redo-replayed
// to the *exact* state of an uninterrupted run (deterministic-replay
// guarantee, checked byte-for-byte); stalls surface as SHARD_DEGRADED
// and clear; the supervisor checkpoint cadence bounds replay work.
//
// Detection timing note: a crash command only materializes when the
// worker dequeues it, which on a saturated (or single-core) host may not
// happen until the coordinator blocks in a Drain — so these tests assert
// convergence at quiesce points, never "detected within N epochs".
#include "shard/sharded_engine.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "checkpoint_compare.hpp"
#include "common/rng.hpp"
#include "engine/churn_trace.hpp"
#include "faults/faults.hpp"
#include "io/text_format.hpp"
#include "shard/fleet_io.hpp"
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

/// One epoch of trace churn; does NOT drain (callers pick their own
/// quiesce points — that is what these tests are about).
void SubmitEpoch(ShardedEngine& fleet, const engine::ChurnTrace& trace,
                 std::size_t e, std::vector<FlowId64>& handles) {
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

ShardedEngineOptions SupervisedOptions(std::size_t shards,
                                       std::size_t budget) {
  ShardedEngineOptions options;
  options.partition.num_shards = shards;
  options.total_budget = budget;
  options.engine.lambda = 0.5;
  options.engine.move_threshold = 0.0;
  // Reallocation off so a crashed run and an uninterrupted run are
  // command-for-command comparable (recovery re-enters the reallocation
  // round only when reallocation is configured).
  options.realloc_interval_epochs = 0;
  options.pin_threads = false;
  options.supervise = true;
  return options;
}

using test::SerializeDeterministic;

/// Runs the whole trace through a supervised fleet, crashing
/// `crash_shard` just before 1-based epoch `crash_epoch` (0 = never),
/// and returns the deterministic serialization of the final state.
std::string RunWithCrash(const graph::Digraph& g,
                         const engine::ChurnTrace& trace,
                         const ShardedEngineOptions& options,
                         std::size_t crash_epoch, std::size_t crash_shard,
                         FleetStats* stats_out = nullptr) {
  ShardedEngine fleet(g, options);
  std::vector<FlowId64> handles;
  for (std::size_t e = 0; e < trace.epochs.size(); ++e) {
    if (crash_epoch != 0 && e + 1 == crash_epoch) {
      fleet.CrashShard(crash_shard);
    }
    SubmitEpoch(fleet, trace, e, handles);
  }
  const FleetCheckpoint cp = fleet.Checkpoint();  // drains + supervises
  EXPECT_EQ(fleet.fleet_state(), FleetState::kNormal);
  EXPECT_EQ(cp.flows.size(),
            test::LiveHandles(handles, trace.epochs).size());
  if (stats_out != nullptr) *stats_out = fleet.stats();
  return SerializeDeterministic(cp);
}

TEST(ShardSupervisorTest, CrashMidChurnRecoversByteIdentical) {
  const graph::Digraph g = TestNetwork(91);
  const engine::ChurnTrace trace = MakeTrace(g, 10, 7);
  const ShardedEngineOptions options = SupervisedOptions(2, 6);

  const std::string uninterrupted =
      RunWithCrash(g, trace, options, 0, 0);

  FleetStats stats;
  const std::string crashed =
      RunWithCrash(g, trace, options, 5, 1, &stats);

  EXPECT_EQ(stats.crashes_detected, 1u);
  EXPECT_EQ(stats.recoveries_completed, 1u);
  EXPECT_GE(stats.redo_replayed, 1u);
  EXPECT_GE(stats.state_transitions, 2u);  // NORMAL->...->NORMAL
  EXPECT_EQ(crashed, uninterrupted);
}

TEST(ShardSupervisorTest, RecoveryConvergesAtEveryCrashEpoch) {
  const graph::Digraph g = TestNetwork(93);
  const engine::ChurnTrace trace = MakeTrace(g, 8, 11);
  const ShardedEngineOptions options = SupervisedOptions(3, 6);

  const std::string uninterrupted =
      RunWithCrash(g, trace, options, 0, 0);
  for (const std::size_t crash_epoch : {1u, 4u, 8u}) {
    FleetStats stats;
    const std::string crashed = RunWithCrash(
        g, trace, options, crash_epoch, crash_epoch % 3, &stats);
    EXPECT_EQ(stats.crashes_detected, 1u) << "epoch " << crash_epoch;
    EXPECT_EQ(stats.recoveries_completed, 1u) << "epoch " << crash_epoch;
    EXPECT_EQ(crashed, uninterrupted) << "crash at epoch " << crash_epoch;
  }
}

TEST(ShardSupervisorTest, RepeatedCrashesOfTheSameShardRecover) {
  const graph::Digraph g = TestNetwork(95);
  const engine::ChurnTrace trace = MakeTrace(g, 9, 13);
  const ShardedEngineOptions options = SupervisedOptions(2, 6);

  const std::string uninterrupted =
      RunWithCrash(g, trace, options, 0, 0);

  ShardedEngine fleet(g, options);
  std::vector<FlowId64> handles;
  for (std::size_t e = 0; e < trace.epochs.size(); ++e) {
    if (e == 2 || e == 6) fleet.CrashShard(1);
    SubmitEpoch(fleet, trace, e, handles);
    // Quiesce between the crashes so they are two distinct episodes
    // rather than one doubled poison command.  (Not Snapshot(): its
    // certificate-refresh round would advance quality trackers the
    // uninterrupted baseline never advances.)
    if (e == 3) {
      fleet.Drain();
      fleet.Supervise();
    }
  }
  const std::string crashed = SerializeDeterministic(fleet.Checkpoint());
  EXPECT_EQ(fleet.stats().crashes_detected, 2u);
  EXPECT_EQ(fleet.stats().recoveries_completed, 2u);
  EXPECT_EQ(crashed, uninterrupted);
}

TEST(ShardSupervisorTest, InjectedWorkerFaultRecoversLikeCrashShard) {
  const graph::Digraph g = TestNetwork(97);
  const engine::ChurnTrace trace = MakeTrace(g, 8, 17);
  const ShardedEngineOptions clean = SupervisedOptions(2, 6);
  const std::string uninterrupted =
      RunWithCrash(g, trace, clean, 0, 0);

  // Same trace under a real injected worker abort (the fault path that
  // CrashShard mimics): deterministic per-shard injector, low enough
  // probability that the run sees a handful of aborts, not a crash loop.
  ShardedEngineOptions faulty = clean;
  faulty.inject_faults = true;
  faulty.fault_spec.seed = 5;
  faulty.fault_spec.at(faults::FaultSite::kShardWorker).throw_probability =
      0.1;
  ShardedEngine fleet(g, faulty);
  std::vector<FlowId64> handles;
  for (std::size_t e = 0; e < trace.epochs.size(); ++e) {
    SubmitEpoch(fleet, trace, e, handles);
  }
  // The redo replay itself visits the worker fault site, so a recovery
  // attempt can re-crash (each attempt counts in crashes_detected and
  // stays quarantined).  Heartbeat until one attempt survives — the ring
  // is not consumed by failed replays, so every retry is complete.
  fleet.Drain();  // materialize any fault still queued
  fleet.Supervise();
  for (int tick = 0;
       tick < 200 && fleet.fleet_state() != FleetState::kNormal; ++tick) {
    fleet.Drain();
    fleet.Supervise();
  }
  const FleetCheckpoint cp = fleet.Checkpoint();
  EXPECT_EQ(fleet.fleet_state(), FleetState::kNormal);
  EXPECT_GE(fleet.stats().crashes_detected, 1u);
  EXPECT_GE(fleet.stats().recoveries_completed, 1u);
  // Injected aborts hit mid-command, and the aborted command is re-run
  // from the checkpoint+ring — the run still converges to the exact
  // uninterrupted state.
  EXPECT_EQ(SerializeDeterministic(cp), uninterrupted);
}

TEST(ShardSupervisorTest, StallSurfacesAsDegradedThenClears) {
  const graph::Digraph g = TestNetwork(99, 20);
  const engine::ChurnTrace trace = MakeTrace(g, 1, 19);
  ShardedEngineOptions options = SupervisedOptions(2, 4);
  options.stall_timeout = std::chrono::milliseconds(10);
  options.inject_faults = true;
  options.fault_spec.seed = 3;
  faults::SiteSpec& drain =
      options.fault_spec.at(faults::FaultSite::kQueueDrain);
  drain.delay_probability = 1.0;
  drain.delay = std::chrono::milliseconds(300);

  ShardedEngine fleet(g, options);
  std::vector<FlowId64> handles;
  SubmitEpoch(fleet, trace, 0, handles);

  // Poll the supervisor while the workers sit in their injected delays.
  // Generous deadline: scheduling on a loaded single-core host can hold
  // a worker off its queue for a while before the delay even starts.
  bool degraded_seen = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    fleet.Supervise();
    if (fleet.stats().stalls_detected >= 1) {
      degraded_seen = fleet.fleet_state() == FleetState::kShardDegraded;
      break;
    }
  }
  EXPECT_TRUE(degraded_seen) << "stall never detected";

  fleet.Drain();
  fleet.Supervise();
  EXPECT_EQ(fleet.fleet_state(), FleetState::kNormal);
  EXPECT_EQ(fleet.stats().crashes_detected, 0u);  // waited out, not killed
  const FleetSnapshot snapshot = fleet.Snapshot();
  // Epoch 0 of a trace drawn from no live flows departs nothing.
  EXPECT_EQ(snapshot.shards[0].active_flows + snapshot.shards[1].active_flows,
            handles.size());
}

TEST(ShardSupervisorTest, CheckpointCadenceBoundsReplay) {
  const graph::Digraph g = TestNetwork(101);
  const engine::ChurnTrace trace = MakeTrace(g, 12, 23);
  ShardedEngineOptions options = SupervisedOptions(2, 6);
  options.supervisor_checkpoint_interval_epochs = 2;

  const std::string uninterrupted =
      RunWithCrash(g, trace, options, 0, 0);
  FleetStats stats;
  const std::string crashed =
      RunWithCrash(g, trace, options, 11, 1, &stats);
  EXPECT_EQ(crashed, uninterrupted);
  // Twelve epochs at a two-epoch cadence: several captures beyond the
  // construction-time one, and a late crash replays only the short tail
  // since the last capture, not the whole run.
  EXPECT_GE(stats.supervisor_checkpoints, 4u);
  EXPECT_LT(stats.redo_replayed, trace.epochs.size());
}

}  // namespace
}  // namespace tdmd::shard
