// Fleet supervision (DESIGN.md Section 14): a shard crashed mid-churn is
// quarantined, respawned from its recovery checkpoint and redo-replayed
// to the *exact* state of an uninterrupted run (deterministic-replay
// guarantee, checked byte-for-byte with budget reallocation on, across
// scrapes too); stalls and re-solve backoff surface as SHARD_DEGRADED
// and clear; a shard that cannot be recovered fails a checkpoint and
// holds the realloc round; the supervisor checkpoint cadence bounds
// replay work.
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
                             std::uint64_t seed,
                             double departure_probability = 0.3) {
  engine::ChurnModel churn;
  churn.arrival_count = 6;
  churn.departure_probability = departure_probability;
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
  options.realloc_interval_epochs = 4;
  options.pin_threads = false;
  options.supervise = true;
  return options;
}

using test::SerializeDeterministic;

/// Runs the whole trace through a supervised fleet, crashing
/// `crash_shard` just before 1-based epoch `crash_epoch` (0 = never) and
/// scraping a Snapshot() just before 1-based epoch `scrape_epoch` (0 =
/// never), and returns the deterministic serialization of the final
/// state.
std::string RunWithCrash(const graph::Digraph& g,
                         const engine::ChurnTrace& trace,
                         const ShardedEngineOptions& options,
                         std::size_t crash_epoch, std::size_t crash_shard,
                         FleetStats* stats_out = nullptr,
                         std::size_t scrape_epoch = 0) {
  ShardedEngine fleet(g, options);
  std::vector<FlowId64> handles;
  for (std::size_t e = 0; e < trace.epochs.size(); ++e) {
    if (scrape_epoch != 0 && e + 1 == scrape_epoch) fleet.Snapshot();
    if (crash_epoch != 0 && e + 1 == crash_epoch) {
      fleet.CrashShard(crash_shard);
    }
    SubmitEpoch(fleet, trace, e, handles);
  }
  const FleetCheckpoint cp = fleet.Checkpoint().value();  // drains + supervises
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

  FleetStats clean;
  const std::string uninterrupted =
      RunWithCrash(g, trace, options, 0, 0, &clean);

  FleetStats stats;
  const std::string crashed =
      RunWithCrash(g, trace, options, 5, 1, &stats);

  EXPECT_EQ(stats.crashes_detected, 1u);
  EXPECT_EQ(stats.recoveries_completed, 1u);
  EXPECT_GE(stats.redo_replayed, 1u);
  // The tick that detects the crash also recovers it, so no reader ever
  // sees the fleet leave NORMAL.
  EXPECT_EQ(stats.state_transitions, 0u);
  EXPECT_GE(clean.realloc_rounds, 1u);
  EXPECT_EQ(stats.realloc_rounds, clean.realloc_rounds);
  EXPECT_EQ(crashed, uninterrupted);
}

TEST(ShardSupervisorTest, RecoveryConvergesAtEveryCrashEpoch) {
  const graph::Digraph g = TestNetwork(93);
  const engine::ChurnTrace trace = MakeTrace(g, 8, 11);
  const ShardedEngineOptions options = SupervisedOptions(3, 6);

  FleetStats clean;
  const std::string uninterrupted =
      RunWithCrash(g, trace, options, 0, 0, &clean);
  for (const std::size_t crash_epoch : {1u, 4u, 8u}) {
    FleetStats stats;
    const std::string crashed = RunWithCrash(
        g, trace, options, crash_epoch, crash_epoch % 3, &stats);
    EXPECT_EQ(stats.crashes_detected, 1u) << "epoch " << crash_epoch;
    EXPECT_EQ(stats.recoveries_completed, 1u) << "epoch " << crash_epoch;
    EXPECT_EQ(stats.realloc_rounds, clean.realloc_rounds)
        << "epoch " << crash_epoch;
    EXPECT_EQ(crashed, uninterrupted) << "crash at epoch " << crash_epoch;
  }
}

TEST(ShardSupervisorTest, RepeatedCrashesOfTheSameShardRecover) {
  const graph::Digraph g = TestNetwork(95);
  const engine::ChurnTrace trace = MakeTrace(g, 9, 13);
  const ShardedEngineOptions options = SupervisedOptions(2, 6);

  FleetStats clean;
  const std::string uninterrupted =
      RunWithCrash(g, trace, options, 0, 0, &clean);

  ShardedEngine fleet(g, options);
  std::vector<FlowId64> handles;
  for (std::size_t e = 0; e < trace.epochs.size(); ++e) {
    if (e == 2 || e == 6) fleet.CrashShard(1);
    SubmitEpoch(fleet, trace, e, handles);
    // Quiesce between the crashes so they are two distinct episodes
    // rather than one doubled poison command.
    if (e == 3) fleet.Snapshot();
  }
  const std::string crashed = SerializeDeterministic(fleet.Checkpoint().value());
  EXPECT_EQ(fleet.stats().crashes_detected, 2u);
  EXPECT_EQ(fleet.stats().recoveries_completed, 2u);
  EXPECT_EQ(fleet.stats().realloc_rounds, clean.realloc_rounds);
  EXPECT_EQ(crashed, uninterrupted);
}

TEST(ShardSupervisorTest, InjectedWorkerFaultRecoversLikeCrashShard) {
  const graph::Digraph g = TestNetwork(97);
  const engine::ChurnTrace trace = MakeTrace(g, 8, 17);
  const ShardedEngineOptions clean = SupervisedOptions(2, 6);
  FleetStats clean_stats;
  const std::string uninterrupted =
      RunWithCrash(g, trace, clean, 0, 0, &clean_stats);

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
  fleet.Drain();  // materialize any fault still queued
  fleet.Supervise();
  EXPECT_EQ(fleet.fleet_state(), FleetState::kNormal);
  const FleetCheckpoint cp = fleet.Checkpoint().value();
  EXPECT_EQ(fleet.fleet_state(), FleetState::kNormal);
  EXPECT_GE(fleet.stats().crashes_detected, 1u);
  EXPECT_EQ(fleet.stats().recoveries_completed,
            fleet.stats().crashes_detected);
  EXPECT_EQ(fleet.stats().realloc_rounds, clean_stats.realloc_rounds);
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

// The supervisor is the fleet's only health state machine: a shard whose
// engine backs off its re-solves counts as SHARD_DEGRADED, and the fleet
// is NORMAL again once that shard's probe re-solve completes.
TEST(ShardSupervisorTest, BackoffDegradesFleetUntilProbeCompletes) {
  const graph::Digraph g = TestNetwork(103, 20);
  const engine::ChurnTrace trace = MakeTrace(g, 40, 29);
  faults::FaultSpec spec;
  spec.seed = 5;
  spec.at(faults::FaultSite::kGreedyRound).throw_probability = 1.0;
  faults::FaultInjector injector(spec);
  ShardedEngineOptions options = SupervisedOptions(2, 4);
  options.engine.fault_injector = &injector;  // shared by both shards

  ShardedEngine fleet(g, options);
  std::vector<FlowId64> handles;
  // One epoch's retries exhaust the streak on every shard it touches.
  SubmitEpoch(fleet, trace, 0, handles);
  fleet.Drain();
  fleet.Supervise();
  EXPECT_EQ(fleet.fleet_state(), FleetState::kShardDegraded);
  const FleetSnapshot degraded = fleet.Snapshot();
  bool any_backing_off = false;
  for (const ShardStatus& shard : degraded.shards) {
    any_backing_off = any_backing_off || shard.backing_off;
  }
  EXPECT_TRUE(any_backing_off);
  EXPECT_TRUE(degraded.feasible);  // serving never waits on the solver

  injector.Disarm();
  for (std::size_t e = 1;
       e < trace.epochs.size() && fleet.fleet_state() != FleetState::kNormal;
       ++e) {
    SubmitEpoch(fleet, trace, e, handles);
    fleet.Drain();
    fleet.Supervise();
  }
  EXPECT_EQ(fleet.fleet_state(), FleetState::kNormal);
  for (const ShardStatus& shard : fleet.Snapshot().shards) {
    EXPECT_FALSE(shard.backing_off);
  }
  EXPECT_EQ(fleet.stats().crashes_detected, 0u);
}

// Every index delta faults, so every batch escapes the engine's delta
// retries: the worker's own run aborts it, and so does every recovery
// replay of it on the coordinator.  A checkpoint cannot cover that shard,
// and Checkpoint() says so instead of stopping the process; a snapshot
// reports the shard's hole as infeasible.
TEST(ShardSupervisorTest, CheckpointFailsWhileRecoveryKeepsCrashing) {
  const graph::Digraph g = TestNetwork(105, 20);
  const engine::ChurnTrace trace = MakeTrace(g, 1, 31);
  ShardedEngineOptions options = SupervisedOptions(2, 4);
  options.inject_faults = true;
  options.fault_spec.seed = 9;
  options.fault_spec.at(faults::FaultSite::kIndexDelta).throw_probability =
      1.0;

  ShardedEngine fleet(g, options);
  std::vector<FlowId64> handles;
  SubmitEpoch(fleet, trace, 0, handles);
  EXPECT_FALSE(fleet.Checkpoint().has_value());
  EXPECT_GE(fleet.stats().crashes_detected, 1u);
  EXPECT_EQ(fleet.stats().recoveries_completed, 0u);
  const FleetSnapshot snapshot = fleet.Snapshot();
  bool any_quarantined = false;
  for (const ShardStatus& shard : snapshot.shards) {
    any_quarantined = any_quarantined || shard.quarantined;
  }
  EXPECT_TRUE(any_quarantined);
  // No engine serves a quarantined shard's flows: the fleet is not
  // feasible, however well the live shards do.
  EXPECT_FALSE(snapshot.feasible);
  EXPECT_FALSE(snapshot.cert_valid);
}

// Seeded random interleavings of crash, scrape, checkpoint and
// supervision tick between the batches of runs with reallocation on (and
// half of them with deferred re-solves) all end in the state of the
// uninterrupted run that never read the fleet.
TEST(ShardSupervisorTest, RandomInterleavingsRecoverByteIdentical) {
  std::uint64_t crashes = 0;
  std::uint64_t adoptions = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    const graph::Digraph g = TestNetwork(seed);
    const engine::ChurnTrace trace =
        MakeTrace(g, 24, seed, seed % 2 == 0 ? 0.03 : 0.3);
    ShardedEngineOptions options =
        SupervisedOptions(2 + seed % 2, 6 + seed % 4);
    options.realloc_interval_epochs = 2 + seed % 3;
    options.engine.resolve_churn_fraction = seed % 4 < 2 ? 0.0 : 0.5;
    options.supervisor_checkpoint_interval_epochs = 3;
    FleetStats clean;
    const std::string uninterrupted =
        RunWithCrash(g, trace, options, 0, 0, &clean);

    ShardedEngine fleet(g, options);
    Rng rng(seed);
    std::vector<FlowId64> handles;
    for (std::size_t e = 0; e < trace.epochs.size(); ++e) {
      if (rng.NextBool(0.15)) {
        fleet.CrashShard(rng.NextBounded(options.partition.num_shards));
      }
      if (rng.NextBool(0.15)) fleet.Snapshot();
      if (rng.NextBool(0.1)) fleet.Metrics();
      if (rng.NextBool(0.1)) {
        EXPECT_TRUE(fleet.Checkpoint().has_value());
      }
      if (rng.NextBool(0.1)) fleet.Supervise();
      SubmitEpoch(fleet, trace, e, handles);
    }
    const std::string crashed =
        SerializeDeterministic(fleet.Checkpoint().value());
    const FleetStats& stats = fleet.stats();
    crashes += stats.crashes_detected;
    adoptions += stats.realloc_adoptions;
    EXPECT_EQ(stats.recoveries_completed, stats.crashes_detected);
    EXPECT_EQ(stats.realloc_rounds, clean.realloc_rounds);
    EXPECT_EQ(stats.realloc_adoptions, clean.realloc_adoptions);
    EXPECT_EQ(crashed, uninterrupted);
  }
  EXPECT_GT(crashes, 0u);
  EXPECT_GT(adoptions, 0u);
}

// While a shard stays quarantined the realloc round waits for a
// recovered fleet: the hole has no curve to probe, and no probe is ever
// routed to a dead worker.
TEST(ShardSupervisorTest, ReallocWaitsWhileAShardStaysQuarantined) {
  const graph::Digraph g = TestNetwork(105, 20);
  const engine::ChurnTrace trace = MakeTrace(g, 8, 31);
  ShardedEngineOptions options = SupervisedOptions(2, 4);
  options.inject_faults = true;
  options.fault_spec.seed = 9;
  options.fault_spec.at(faults::FaultSite::kIndexDelta).throw_probability =
      1.0;

  ShardedEngine fleet(g, options);
  std::vector<FlowId64> handles;
  for (std::size_t e = 0; e < trace.epochs.size(); ++e) {
    SubmitEpoch(fleet, trace, e, handles);
  }
  EXPECT_FALSE(fleet.Checkpoint().has_value());
  EXPECT_EQ(fleet.stats().recoveries_completed, 0u);
  EXPECT_EQ(fleet.stats().realloc_rounds, 0u);
}

// Worker aborts at a steady rate, with reallocation on, over a run long
// enough that a quarantined shard's redo ring grows well past a handful
// of batches.  Replay never revisits the worker-abort fault site, so
// every crash is recovered at its first attempt and the run ends with
// every flow served.
TEST(ShardSupervisorTest, SustainedWorkerFaultsRecoverEveryCrash) {
  const graph::Digraph g = TestNetwork(107, 40);
  const engine::ChurnTrace trace = MakeTrace(g, 120, 37);
  ShardedEngineOptions options = SupervisedOptions(2, 8);
  options.realloc_interval_epochs = 16;
  options.inject_faults = true;
  options.fault_spec.seed = 7;
  options.fault_spec.at(faults::FaultSite::kShardWorker).throw_probability =
      0.05;

  ShardedEngine fleet(g, options);
  std::vector<FlowId64> handles;
  for (std::size_t e = 0; e < trace.epochs.size(); ++e) {
    SubmitEpoch(fleet, trace, e, handles);
  }
  const FleetSnapshot snapshot = fleet.Snapshot();
  EXPECT_EQ(fleet.fleet_state(), FleetState::kNormal);
  for (const ShardStatus& shard : snapshot.shards) {
    EXPECT_FALSE(shard.quarantined);
  }
  EXPECT_TRUE(snapshot.feasible);
  EXPECT_GE(fleet.stats().crashes_detected, 1u);
  EXPECT_EQ(fleet.stats().crashes_detected,
            fleet.stats().recoveries_completed);
}

TEST(ShardSupervisorTest, CheckpointCadenceBoundsReplay) {
  const graph::Digraph g = TestNetwork(101);
  const engine::ChurnTrace trace = MakeTrace(g, 12, 23);
  ShardedEngineOptions options = SupervisedOptions(2, 6);
  options.supervisor_checkpoint_interval_epochs = 2;

  FleetStats clean;
  const std::string uninterrupted =
      RunWithCrash(g, trace, options, 0, 0, &clean);
  FleetStats stats;
  const std::string crashed =
      RunWithCrash(g, trace, options, 11, 1, &stats);
  EXPECT_EQ(stats.realloc_rounds, clean.realloc_rounds);
  EXPECT_EQ(crashed, uninterrupted);
  // Twelve epochs at a two-epoch cadence: several captures beyond the
  // construction-time one, and a late crash replays only the short tail
  // since the last capture, not the whole run.
  EXPECT_GE(stats.supervisor_checkpoints, 4u);
  EXPECT_LT(stats.redo_replayed, trace.epochs.size());
}

// Deferred re-solves (resolve_churn_fraction) leave each shard's quality
// tracker holding a churn-inflated certificate.  A scrape reads fresh
// bounds without writing them back, so a crash after a scrape recovers to
// the uninterrupted run's state: capture plus ring replay covers every
// engine write.
TEST(ShardSupervisorTest, ScrapeThenCrashRecoversByteIdentical) {
  const graph::Digraph g = TestNetwork(91);
  const engine::ChurnTrace trace = MakeTrace(g, 40, 7, 0.03);
  ShardedEngineOptions options = SupervisedOptions(2, 6);
  options.engine.resolve_churn_fraction = 0.5;

  for (const std::size_t scrape_epoch : {10u, 20u}) {
    FleetStats clean;
    const std::string uninterrupted =
        RunWithCrash(g, trace, options, 0, 0, &clean, scrape_epoch);
    for (const std::size_t delay : {1u, 3u}) {
      SCOPED_TRACE(testing::Message() << "scrape at " << scrape_epoch
                                      << ", crash " << delay << " later");
      FleetStats stats;
      const std::string crashed = RunWithCrash(
          g, trace, options, scrape_epoch + delay, 0, &stats, scrape_epoch);
      EXPECT_EQ(stats.recoveries_completed, 1u);
      EXPECT_EQ(stats.realloc_rounds, clean.realloc_rounds);
      EXPECT_EQ(crashed, uninterrupted);
    }
  }
}

// Reads are reads: Snapshot(), Metrics() and MemoryUsage() leave the
// complete fleet checkpoint, latency histograms included, unchanged.
TEST(ShardSupervisorTest, ReadsLeaveTheCheckpointUnchanged) {
  const graph::Digraph g = TestNetwork(91);
  const engine::ChurnTrace trace = MakeTrace(g, 40, 7, 0.03);
  ShardedEngineOptions options = SupervisedOptions(2, 6);
  options.engine.resolve_churn_fraction = 0.5;
  const auto serialize = [](const FleetCheckpoint& checkpoint) {
    std::ostringstream os;
    WriteFleetCheckpoint(os, checkpoint);
    return os.str();
  };

  ShardedEngine fleet(g, options);
  std::vector<FlowId64> handles;
  for (std::size_t e = 0; e < trace.epochs.size(); ++e) {
    SubmitEpoch(fleet, trace, e, handles);
    if ((e + 1) % 10 != 0 || e + 1 == trace.epochs.size()) continue;
    const std::string before = serialize(fleet.Checkpoint().value());
    fleet.Snapshot();
    fleet.Metrics();
    fleet.MemoryUsage();
    EXPECT_EQ(serialize(fleet.Checkpoint().value()), before)
        << "after " << e + 1 << " epochs";
  }
}

}  // namespace
}  // namespace tdmd::shard
