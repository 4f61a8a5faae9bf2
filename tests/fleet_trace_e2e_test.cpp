// End-to-end causal tracing of the sharded fleet (DESIGN.md Section 15):
// a real traced 4-shard run must reconstruct (nearly) every batch into
// one connected submit -> dequeue -> patch -> adopt critical path in
// report's fleet section, the admission-to-adoption latency pipeline must
// surface as mergeable tdmd_fleet_e2e_* histograms, the SLO-burn detector
// must raise under sustained violation and clear once the burn stops,
// recovery/shed instants must land in both the phase table and the fleet
// section, and the shard split of a real metrics dump must match the
// fleet's snapshot.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "engine/churn_trace.hpp"
#include "engine/engine.hpp"
#include "faults/faults.hpp"
#include "obs/fleet_report.hpp"
#include "obs/metrics.hpp"
#include "obs/quality_report.hpp"
#include "obs/trace.hpp"
#include "obs/trace_report.hpp"
#include "shard/sharded_engine.hpp"
#include "topology/generators.hpp"

namespace tdmd::shard {
namespace {

class ScopedInstall {
 public:
  explicit ScopedInstall(obs::Tracer* tracer) { obs::InstallTracer(tracer); }
  ~ScopedInstall() { obs::InstallTracer(nullptr); }
};

graph::Digraph TestNetwork(std::uint64_t seed, VertexId n = 30) {
  Rng rng(seed);
  return topology::Waxman(n, 0.5, 0.4, rng);
}

engine::ChurnTrace MakeTrace(const graph::Digraph& g, std::size_t epochs,
                             std::uint64_t seed) {
  core::ChurnModel churn;
  churn.arrival_count = 6;
  churn.departure_probability = 0.3;
  return engine::BuildChurnTrace(g, churn, epochs, 0, seed);
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

std::string Prometheus(ShardedEngine& fleet) {
  std::ostringstream os;
  fleet.Metrics().Render(os, obs::MetricsFormat::kPrometheus);
  return os.str();
}

void ReplayFleet(ShardedEngine& fleet, const engine::ChurnTrace& trace,
                 std::vector<FlowId64>& active) {
  for (const engine::ChurnEpoch& epoch : trace.epochs) {
    std::vector<FlowId64> departures;
    departures.reserve(epoch.departures.size());
    for (const std::size_t index : epoch.departures) {
      departures.push_back(active[index]);
    }
    for (auto it = epoch.departures.rbegin(); it != epoch.departures.rend();
         ++it) {
      active.erase(active.begin() + static_cast<std::ptrdiff_t>(*it));
    }
    const ShardedEngine::BatchResult result =
        fleet.SubmitBatch(epoch.arrivals, departures);
    active.insert(active.end(), result.flow_ids.begin(),
                  result.flow_ids.end());
  }
}

// The PR's acceptance check: >= 99% of a traced 4-shard run's batches
// reconstruct into a single connected critical path.
TEST(FleetTraceE2eTest, FourShardTracedRunReconstructsConnectedChains) {
  const graph::Digraph g = TestNetwork(3, 40);
  const engine::ChurnTrace trace = MakeTrace(g, 12, 3);

  obs::Tracer tracer;
  ShardedEngine fleet(g, FleetOptions(4, 8));
  std::vector<FlowId64> active;
  {
    ScopedInstall install(&tracer);
    ReplayFleet(fleet, trace, active);
    fleet.Drain();
  }

  std::ostringstream json;
  WriteChromeTrace(json, tracer.Drain());
  std::istringstream in(json.str());
  const obs::ChromeTrace parsed = obs::ReadChromeTrace(in);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  const obs::FleetReport report = obs::BuildFleetReport(parsed);
  ASSERT_TRUE(report.ok) << report.error;
  ASSERT_GE(report.batches, trace.epochs.size());
  const double connected_fraction =
      static_cast<double>(report.connected) /
      static_cast<double>(report.batches);
  EXPECT_GE(connected_fraction, 0.99)
      << report.connected << "/" << report.batches << " connected";
  EXPECT_GT(report.e2e_max_us, 0.0);
  EXPECT_GE(report.e2e_p99_us, report.e2e_p50_us);
  // Every batch's critical path ends on some shard.
  ASSERT_FALSE(report.shards.empty());
  std::uint64_t stragglers = 0;
  for (const obs::FleetShardRow& row : report.shards) {
    stragglers += row.stragglers;
  }
  EXPECT_EQ(stragglers, report.connected);

  std::ostringstream table;
  WriteFleetReport(table, report);
  EXPECT_NE(table.str().find("e2e admission->adoption"), std::string::npos);
}

// Every shard engine publishes its quality samples from its own worker
// thread, so report's quality section keeps one series per trace track: a
// 2-shard run prints one block per shard, each in epoch order (a merged
// series would interleave the shards' epochs).
TEST(FleetTraceE2eTest, QualitySectionPrintsOneSeriesPerShard) {
  const graph::Digraph g = TestNetwork(5);
  const engine::ChurnTrace trace = MakeTrace(g, 16, 5);

  obs::Tracer tracer;
  ShardedEngine fleet(g, FleetOptions(2, 6));
  std::vector<FlowId64> active;
  {
    ScopedInstall install(&tracer);
    ReplayFleet(fleet, trace, active);
    fleet.Drain();
  }

  std::ostringstream json;
  WriteChromeTrace(json, tracer.Drain());
  std::istringstream in(json.str());
  const obs::ChromeTrace parsed = obs::ReadChromeTrace(in);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  const obs::QualityReport report = obs::BuildQualityReport(parsed);
  ASSERT_TRUE(report.ok) << report.error;
  ASSERT_EQ(report.tracks.size(), 2u);
  std::size_t samples = 0;
  for (const obs::QualityReport& track : report.tracks) {
    samples += track.num_samples;
  }
  EXPECT_EQ(samples, report.num_samples);

  std::ostringstream text;
  obs::WriteQualityReport(text, report);
  std::istringstream lines(text.str());
  std::string line;
  std::size_t blocks = 0;
  unsigned long long last_epoch = 0;
  while (std::getline(lines, line)) {
    if (line.rfind("quality: track ", 0) == 0) {
      ++blocks;
      last_epoch = 0;
      continue;
    }
    unsigned long long epoch = 0;
    if (std::sscanf(line.c_str(), "epoch %llu", &epoch) == 1) {
      EXPECT_GE(epoch, last_epoch) << "block " << blocks;
      last_epoch = epoch;
    }
  }
  EXPECT_EQ(blocks, 2u) << text.str();
}

TEST(FleetTraceE2eTest, MetricsExposeE2ePipelineAndDropTotal) {
  const graph::Digraph g = TestNetwork(5);
  const engine::ChurnTrace trace = MakeTrace(g, 8, 5);
  ShardedEngine fleet(g, FleetOptions(2, 6));
  std::vector<FlowId64> active;
  ReplayFleet(fleet, trace, active);
  fleet.Drain();

  const std::string metrics = Prometheus(fleet);
  // Per-stage pipeline histograms plus the end-to-end quantiles.
  for (const char* name :
       {"tdmd_fleet_e2e_submit_dequeue_seconds",
        "tdmd_fleet_e2e_dequeue_patched_seconds",
        "tdmd_fleet_e2e_patched_adopted_seconds",
        "tdmd_fleet_e2e_admission_adoption_seconds"}) {
    EXPECT_NE(metrics.find(std::string(name) + "_count"),
              std::string::npos)
        << name;
    EXPECT_NE(metrics.find(std::string(name) + "{quantile=\"0.99\"}"),
              std::string::npos)
        << name;
  }
  EXPECT_NE(metrics.find("tdmd_fleet_e2e_batches"), std::string::npos);
  EXPECT_NE(metrics.find("tdmd_fleet_e2e_slo_seconds"), std::string::npos);
  EXPECT_NE(metrics.find("tdmd_fleet_e2e_slo_violations"),
            std::string::npos);
  // The drop total is part of the fleet exposition even with no tracer
  // ever installed (satellite: it must survive tracer uninstall too —
  // see ObsTraceTest.DropTotalSurvivesTracerUninstall).
  EXPECT_NE(metrics.find("tdmd_trace_dropped_total"), std::string::npos);
}

TEST(FleetTraceE2eTest, SloBurnAlertRaisesUnderBurnAndClearsAfter) {
  const graph::Digraph g = TestNetwork(7);
  const engine::ChurnTrace trace = MakeTrace(g, 4, 7);
  ShardedEngineOptions options = FleetOptions(2, 6);
  // A 1ns SLO every batch violates: the violation-fraction stream is
  // 1.0, so the CUSUM (slack 0.05, threshold 0.5) raises on the first
  // sample that sees completed batches.
  options.e2e_slo = std::chrono::nanoseconds(1);
  // Generous slack so the clear drill below drains the accumulator in a
  // bounded number of quiet epochs (the default 0.05 would need ~20
  // clean epochs per burning one).
  options.e2e_alert.slack = 0.25;
  ShardedEngine fleet(g, options);
  std::vector<FlowId64> active;
  for (const engine::ChurnEpoch& epoch : trace.epochs) {
    std::vector<FlowId64> departures;
    departures.reserve(epoch.departures.size());
    for (const std::size_t index : epoch.departures) {
      departures.push_back(active[index]);
    }
    for (auto it = epoch.departures.rbegin(); it != epoch.departures.rend();
         ++it) {
      active.erase(active.begin() + static_cast<std::ptrdiff_t>(*it));
    }
    const ShardedEngine::BatchResult result =
        fleet.SubmitBatch(epoch.arrivals, departures);
    active.insert(active.end(), result.flow_ids.begin(),
                  result.flow_ids.end());
    // Quiesce so the next submit's sample sees this epoch's violations.
    fleet.Drain();
  }
  // One more (empty) submit publishes the final epoch's sample.
  (void)fleet.SubmitBatch({}, {});
  EXPECT_TRUE(fleet.e2e_alert().active());
  EXPECT_GE(fleet.e2e_alert().raised_total(), 1u);

  // Burn over: violation-free samples drain the accumulator at `slack`
  // per epoch until the alert clears (edge at exactly zero).
  for (int i = 0; i < 40 && fleet.e2e_alert().active(); ++i) {
    (void)fleet.SubmitBatch({}, {});
  }
  EXPECT_FALSE(fleet.e2e_alert().active());
  EXPECT_GE(fleet.e2e_alert().cleared_total(), 1u);

  const std::string metrics = Prometheus(fleet);
  EXPECT_NE(metrics.find("tdmd_fleet_e2e_alerts_raised"),
            std::string::npos);
  EXPECT_NE(metrics.find("tdmd_fleet_e2e_alerts_cleared"),
            std::string::npos);

  // A generous SLO over the same churn keeps the detector quiet.
  ShardedEngineOptions quiet_options = FleetOptions(2, 6);
  quiet_options.e2e_slo = std::chrono::seconds(10);
  ShardedEngine quiet(g, quiet_options);
  std::vector<FlowId64> quiet_active;
  ReplayFleet(quiet, trace, quiet_active);
  quiet.Drain();
  (void)quiet.SubmitBatch({}, {});
  EXPECT_FALSE(quiet.e2e_alert().active());
  EXPECT_EQ(quiet.e2e_alert().raised_total(), 0u);
}

TEST(FleetTraceE2eTest, RecoveryAndShedInstantsLandInBothReports) {
  const graph::Digraph g = TestNetwork(9, 20);
  core::ChurnModel churn;
  churn.arrival_count = 5;
  churn.departure_probability = 0.25;
  const engine::ChurnTrace trace =
      engine::BuildChurnTrace(g, churn, 10, 0, 9);

  // Overloaded supervised fleet: bounded queues with a slow consumer
  // force sheds, and an injected crash forces a recovery.
  ShardedEngineOptions options = FleetOptions(2, 4);
  options.supervise = true;
  options.queue_depth = 1;
  options.backpressure_deadline = std::chrono::milliseconds(1);
  options.inject_faults = true;
  options.fault_spec.seed = 31;
  faults::SiteSpec& drain =
      options.fault_spec.at(faults::FaultSite::kQueueDrain);
  drain.delay_probability = 1.0;
  drain.delay = std::chrono::milliseconds(4);

  obs::Tracer tracer;
  std::string json_text;
  FleetStats stats;
  std::string metrics;
  {
    ScopedInstall install(&tracer);
    ShardedEngine fleet(g, options);
    std::vector<FlowId64> active;
    for (std::size_t e = 0; e < trace.epochs.size(); ++e) {
      if (e == 4) fleet.CrashShard(1);
      std::vector<FlowId64> departures;
      departures.reserve(trace.epochs[e].departures.size());
      for (const std::size_t index : trace.epochs[e].departures) {
        departures.push_back(active[index]);
      }
      for (auto it = trace.epochs[e].departures.rbegin();
           it != trace.epochs[e].departures.rend(); ++it) {
        active.erase(active.begin() + static_cast<std::ptrdiff_t>(*it));
      }
      const ShardedEngine::BatchResult result =
          fleet.SubmitBatch(trace.epochs[e].arrivals, departures);
      active.insert(active.end(), result.flow_ids.begin(),
                    result.flow_ids.end());
    }
    fleet.Drain();
    fleet.Supervise();
    for (int tick = 0;
         tick < 200 && fleet.fleet_state() != FleetState::kNormal; ++tick) {
      fleet.Drain();
      fleet.Supervise();
    }
    ASSERT_EQ(fleet.fleet_state(), FleetState::kNormal);
    stats = fleet.stats();
    metrics = Prometheus(fleet);
    std::ostringstream json;
    WriteChromeTrace(json, tracer.Drain());
    json_text = json.str();
  }
  ASSERT_GE(stats.recoveries_completed, 1u);
  ASSERT_GE(stats.shed_batches, 1u);

  std::istringstream in(json_text);
  const obs::ChromeTrace parsed = obs::ReadChromeTrace(in);
  ASSERT_TRUE(parsed.ok) << parsed.error;

  // Phase table: both instants appear as named rows.
  const obs::TraceReport trace_report = obs::BuildTraceReport(parsed);
  std::uint64_t recovery_rows = 0;
  std::uint64_t shed_rows = 0;
  for (const obs::TraceReportRow& row : trace_report.rows) {
    if (row.name == "shard-recovery") recovery_rows = row.count;
    if (row.name == "shed-batch") shed_rows = row.count;
  }
  EXPECT_EQ(recovery_rows, stats.recoveries_completed);
  EXPECT_EQ(shed_rows, stats.shed_batches);

  // Fleet section: same counts on the summary line.
  const obs::FleetReport fleet_report = obs::BuildFleetReport(parsed);
  ASSERT_TRUE(fleet_report.ok) << fleet_report.error;
  EXPECT_EQ(fleet_report.recoveries, stats.recoveries_completed);
  EXPECT_EQ(fleet_report.shed_batches, stats.shed_batches);

  // The metrics dump from this run still carries everything the shard
  // split requires (per-shard rows plus the fleet roll-up).
  for (const char* name :
       {"tdmd_fleet_num_shards", "tdmd_shard0_budget", "tdmd_shard1_budget",
        "tdmd_fleet_recoveries_completed", "tdmd_fleet_shed_batches",
        "tdmd_fleet_epochs", "tdmd_fleet_commands_routed"}) {
    EXPECT_NE(metrics.find(name), std::string::npos) << name;
  }
}

// report --metrics: the shard split of a real 2-shard dump matches the
// fleet's own snapshot row for row, and a single-engine dump or a bogus
// shard count is rejected without printing anything.
TEST(FleetTraceE2eTest, ShardSplitMatchesFleetSnapshot) {
  const graph::Digraph g = TestNetwork(7);
  const engine::ChurnTrace trace = MakeTrace(g, 8, 7);
  ShardedEngine fleet(g, FleetOptions(2, 6));
  std::vector<FlowId64> active;
  ReplayFleet(fleet, trace, active);
  const FleetSnapshot snapshot = fleet.Snapshot();
  ASSERT_EQ(snapshot.shards.size(), 2u);
  std::stringstream dump;
  fleet.DumpMetrics(dump, obs::MetricsFormat::kPrometheus);

  std::ostringstream split;
  std::string error;
  ASSERT_TRUE(obs::WriteShardSplit(dump, split, &error)) << error;
  std::istringstream lines(split.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));  // column header
  for (std::size_t s = 0; s < snapshot.shards.size(); ++s) {
    ASSERT_TRUE(std::getline(lines, line));
    std::istringstream row(line);
    std::size_t shard = 0;
    std::size_t budget = 0;
    std::size_t boxes = 0;
    std::size_t flows = 0;
    ASSERT_TRUE(row >> shard >> budget >> boxes >> flows) << line;
    EXPECT_EQ(shard, s);
    EXPECT_EQ(budget, snapshot.shards[s].budget) << line;
    EXPECT_EQ(boxes, snapshot.shards[s].boxes) << line;
    EXPECT_EQ(flows, snapshot.shards[s].active_flows) << line;
  }
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_NE(line.find("k=6 across 2 shards"), std::string::npos) << line;

  // A single-engine dump carries no fleet metrics.
  engine::EngineOptions options;
  options.k = 6;
  engine::Engine eng(g, options);
  eng.SubmitBatch(trace.epochs.front().arrivals, {});
  std::stringstream single_dump;
  eng.DumpMetrics(single_dump, obs::MetricsFormat::kPrometheus);
  std::ostringstream rejected;
  EXPECT_FALSE(obs::WriteShardSplit(single_dump, rejected, &error));
  EXPECT_NE(error.find("tdmd_fleet_num_shards"), std::string::npos) << error;
  EXPECT_TRUE(rejected.str().empty()) << rejected.str();

  // A shard count that is not a count never sizes the loop.
  std::istringstream negative("tdmd_fleet_num_shards -1\n");
  EXPECT_FALSE(obs::WriteShardSplit(negative, rejected, &error));
  EXPECT_NE(error.find("is not a count"), std::string::npos) << error;
  EXPECT_TRUE(rejected.str().empty()) << rejected.str();
}

}  // namespace
}  // namespace tdmd::shard
