// Fleet recovery drill (ISSUE: crash-safe durability and overload
// protection for the sharded fleet).
//
// Replays one seeded regionalized churn workload through a supervised
// shard::ShardedEngine three times per seed, at several seeds:
//
//   A  baseline     — supervised, uninterrupted, budget reallocated
//                     every 4 epochs.
//   B  crash drill  — a shard is killed mid-churn (CrashShard, the same
//                     failure path as an injected worker abort); the
//                     supervisor quarantines it, respawns the engine
//                     from its per-shard recovery checkpoint and replays
//                     the redo ring.  Reported: recovery wall time, redo
//                     commands replayed, and the final-bandwidth delta
//                     vs A — the redo-ring guarantee makes it zero, and
//                     B runs A's realloc rounds and adoptions exactly.
//   C  overload     — the same trace pushed through depth-1 bounded
//                     queues while every batch draws an injected
//                     queue-drain stall, i.e. consumers persistently
//                     slower than the submitter.  Bounded queues shed to
//                     deferred-re-solve admission instead of growing;
//                     reported: shed rate, backpressure waits, and the
//                     bandwidth cost of serving every shed epoch from a
//                     stale placement.  Reallocation stays off here:
//                     which batches are shed depends on timing.
//
// Emits BENCH_fleet.json via the shared JsonWriter in bench/scenario.hpp.
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/args.hpp"
#include "faults/faults.hpp"
#include "shard/sharded_engine.hpp"
#include "scenario.hpp"

namespace tdmd::bench {
namespace {

struct DrillConfig {
  std::size_t shards = 4;
  std::size_t k = 16;
  double lambda = 0.5;
  std::size_t crash_epoch = 0;   // 1-based; 0 = never
  std::size_t crash_shard = 1;
  std::size_t queue_depth = 0;   // 0 = unbounded
  bool stall_faults = false;     // kQueueDrain delay on every batch
  std::uint64_t realloc_interval_epochs = 4;  // 0 = no reallocation
  std::uint64_t seed = 1;
};

struct DrillResult {
  double wall_ms = 0.0;
  double bandwidth = 0.0;
  bool feasible = false;
  std::size_t active_flows = 0;
  std::size_t fleet_flows = 0;  // summed per-shard view, audit vs active
  shard::FleetStats stats;
};

DrillResult RunDrill(const ShardWorkload& workload,
                     const DrillConfig& config) {
  shard::ShardedEngineOptions options;
  options.partition.num_shards = config.shards;
  options.partition.method = shard::PartitionMethod::kBfs;
  options.partition.seed = config.seed;
  options.partition.seeds = workload.hubs;
  options.total_budget = config.k;
  options.engine.lambda = config.lambda;
  options.realloc_interval_epochs = config.realloc_interval_epochs;
  options.supervise = true;
  options.queue_depth = config.queue_depth;
  options.backpressure_deadline = std::chrono::milliseconds(2);
  if (config.stall_faults) {
    options.inject_faults = true;
    faults::FaultSpec spec;
    spec.seed = config.seed;
    faults::SiteSpec& drain = spec.at(faults::FaultSite::kQueueDrain);
    drain.delay_probability = 1.0;
    drain.delay = std::chrono::milliseconds(3);
    options.fault_spec = spec;
  }
  shard::ShardedEngine fleet(workload.network, options);

  std::vector<shard::FlowId64> handles =  // by arrival sequence
      fleet.SubmitBatch(workload.prefill, {}).flow_ids;
  fleet.Drain();

  DrillResult result;
  const std::uint64_t start_ns = obs::MonotonicNanos();
  std::size_t epochs_served = 0;
  std::size_t departed = 0;
  for (const ShardEpoch& epoch : workload.epochs) {
    std::vector<shard::FlowId64> departing;
    departing.reserve(epoch.departures.size());
    for (std::size_t sequence : epoch.departures) {
      departing.push_back(handles[sequence]);
    }
    if (config.crash_epoch != 0 &&
        epochs_served + 1 == config.crash_epoch) {
      fleet.CrashShard(config.crash_shard % config.shards);
    }
    const shard::ShardedEngine::BatchResult batch =
        fleet.SubmitBatch(epoch.arrivals, departing);
    // Overload mode pipelines the submits (no drain barrier): with the
    // consumers fault-stalled this is a sustained producer-faster-than-
    // consumer regime, exactly what the bounded queues exist to absorb.
    // The other drills drain per epoch for honest recovery timing.
    if (!config.stall_faults) fleet.Drain();
    handles.insert(handles.end(), batch.flow_ids.begin(),
                   batch.flow_ids.end());
    departed += departing.size();
    ++epochs_served;
  }
  const shard::FleetSnapshot snapshot = fleet.Snapshot();
  result.wall_ms =
      static_cast<double>(obs::MonotonicNanos() - start_ns) / 1e6;
  result.bandwidth = snapshot.bandwidth;
  result.feasible = snapshot.feasible;
  result.active_flows = handles.size() - departed;
  for (const shard::ShardStatus& status : snapshot.shards) {
    result.fleet_flows += status.active_flows;
  }
  result.stats = fleet.stats();
  return result;
}

void Run(VertexId size, std::size_t flows, std::size_t epochs,
         std::size_t regions, std::size_t shards, std::size_t k,
         double lambda, std::size_t queue_depth,
         const std::vector<std::uint64_t>& seeds,
         const std::string& json_out) {
  std::ofstream out;
  std::unique_ptr<JsonWriter> json;
  if (!json_out.empty()) {
    out.open(json_out);
    if (!out) {
      std::cerr << "fleet_recovery: cannot write " << json_out << "\n";
      return;
    }
    json = std::make_unique<JsonWriter>(out);
    json->Field("bench", "fleet_recovery");
    json->Field("vertices", static_cast<std::size_t>(size));
    json->Field("flows", flows);
    json->Field("epochs", epochs);
    json->Field("shards", shards);
    json->Field("k", k);
    json->Field("queue_depth", queue_depth);
  }

  bool ok = true;
  std::vector<double> recovery_ms_all;
  for (const std::uint64_t seed : seeds) {
    const ShardWorkload workload =
        BuildShardWorkload(size, flows, epochs, regions, seed);
    std::cout << "fleet_recovery seed=" << seed << ": "
              << workload.network.num_vertices() << " vertices, "
              << workload.prefill.size() << " prefill flows, " << epochs
              << " epochs, " << shards << " shards, k=" << k << "\n";

    DrillConfig base;
    base.shards = shards;
    base.k = k;
    base.lambda = lambda;
    base.seed = seed;

    const DrillResult a = RunDrill(workload, base);

    DrillConfig crash = base;
    crash.crash_epoch = epochs / 2;
    crash.crash_shard = 1 + seed % (shards - 1);  // never shard 0, varied
    const DrillResult b = RunDrill(workload, crash);

    DrillConfig overload = base;
    overload.queue_depth = queue_depth;
    overload.stall_faults = true;
    overload.realloc_interval_epochs = 0;
    const DrillResult c = RunDrill(workload, overload);

    const double recovery_ms =
        static_cast<double>(b.stats.last_recovery_ns) / 1e6;
    recovery_ms_all.push_back(recovery_ms);
    const double delta = b.bandwidth - a.bandwidth;
    const std::uint64_t shed_total =
        c.stats.shed_batches + c.stats.backpressure_waits;
    const double shed_rate =
        c.stats.epochs > 0
            ? static_cast<double>(c.stats.shed_batches) /
                  static_cast<double>(c.stats.epochs)
            : 0.0;
    std::cout << "  A baseline : wall=" << a.wall_ms << " ms  bandwidth="
              << a.bandwidth << "  flows=" << a.active_flows << "  realloc "
              << a.stats.realloc_rounds << " rounds, "
              << a.stats.realloc_adoptions << " adopted\n";
    std::cout << "  B crash    : shard " << crash.crash_shard
              << " killed at epoch " << crash.crash_epoch << ", "
              << b.stats.crashes_detected << " detected, "
              << b.stats.recoveries_completed << " recovered in "
              << recovery_ms << " ms, " << b.stats.redo_replayed
              << " redo replayed, bandwidth delta=" << delta << ", realloc "
              << b.stats.realloc_rounds << " rounds, "
              << b.stats.realloc_adoptions << " adopted\n";
    std::cout << "  C overload : " << c.stats.shed_batches
              << " batches shed (" << c.stats.shed_events << " events, "
              << shed_rate << "/epoch), " << c.stats.backpressure_waits
              << " backpressure waits, bandwidth="
              << c.bandwidth << "\n";

    // The drill's own acceptance: the crash was recovered, no flow was
    // lost or double-counted, and the recovered fleet converged to the
    // uninterrupted fleet's bandwidth and budget rounds exactly.
    ok = ok && b.stats.crashes_detected >= 1 &&
         b.stats.recoveries_completed >= 1 &&
         b.active_flows == a.active_flows &&
         b.fleet_flows == b.active_flows && delta == 0.0 &&
         b.stats.realloc_rounds == a.stats.realloc_rounds &&
         b.stats.realloc_adoptions == a.stats.realloc_adoptions &&
         shed_total > 0 && c.active_flows == a.active_flows;

    if (json) {
      const std::string p = "seed" + std::to_string(seed) + "_";
      json->Field(p + "baseline_wall_ms", a.wall_ms);
      json->Field(p + "baseline_bandwidth", a.bandwidth);
      json->Field(p + "crash_shard", crash.crash_shard);
      json->Field(p + "crash_epoch", crash.crash_epoch);
      json->Field(p + "crashes_detected", b.stats.crashes_detected);
      json->Field(p + "recoveries_completed",
                  b.stats.recoveries_completed);
      json->Field(p + "recovery_ms", recovery_ms);
      json->Field(p + "redo_replayed", b.stats.redo_replayed);
      json->Field(p + "crash_bandwidth_delta", delta);
      json->Field(p + "baseline_realloc_rounds", a.stats.realloc_rounds);
      json->Field(p + "crash_realloc_rounds", b.stats.realloc_rounds);
      json->Field(p + "baseline_realloc_adoptions",
                  a.stats.realloc_adoptions);
      json->Field(p + "crash_realloc_adoptions", b.stats.realloc_adoptions);
      json->Field(p + "shed_batches", c.stats.shed_batches);
      json->Field(p + "shed_events", c.stats.shed_events);
      json->Field(p + "shed_rate_per_epoch", shed_rate);
      json->Field(p + "backpressure_waits", c.stats.backpressure_waits);
      json->Field(p + "overload_bandwidth", c.bandwidth);
    }
  }
  if (json) {
    json->Field("recovery_ms", recovery_ms_all);
    json->Field("ok", ok);
  }
  std::cout << (ok ? "fleet_recovery: OK\n"
                   : "fleet_recovery: FAILED (see drill lines above)\n");
  if (!ok) std::exit(1);
}

}  // namespace
}  // namespace tdmd::bench

int main(int argc, char** argv) {
  using namespace tdmd;
  ArgParser parser(
      "fleet_recovery",
      "Supervised-fleet survivability drill: crash a shard mid-churn "
      "(recovery time + bandwidth parity vs uninterrupted) and push 2x "
      "sustained overload through bounded queues (shed accounting).");
  const auto* size = parser.AddInt("size", 120, "general topology size");
  const auto* flows = parser.AddInt("flows", 4000, "prefill flow count");
  const auto* epochs = parser.AddInt("epochs", 16, "churn epochs");
  const auto* regions = parser.AddInt("regions", 4, "churn hub regions");
  const auto* shards = parser.AddInt("shards", 4, "fleet size");
  const auto* k = parser.AddInt("k", 16, "fleet-wide middlebox budget");
  const auto* lambda = parser.AddDouble("lambda", 0.5, "traffic ratio");
  const auto* queue_depth = parser.AddInt(
      "queue-depth", 1,
      "per-shard queue high-water mark for the overload run");
  const auto* seeds_arg = parser.AddString(
      "seeds", "1,2,3", "comma-separated seeds; each runs all 3 drills");
  const auto* json_out = parser.AddString(
      "json-out", "BENCH_fleet.json",
      "path for the JSON summary (empty string disables)");
  parser.Parse(argc, argv);
  std::vector<std::uint64_t> seeds;
  std::string token;
  for (const char c : *seeds_arg + ",") {
    if (c == ',') {
      if (!token.empty()) seeds.push_back(std::stoull(token));
      token.clear();
    } else {
      token.push_back(c);
    }
  }
  bench::Run(static_cast<VertexId>(*size),
             static_cast<std::size_t>(*flows),
             static_cast<std::size_t>(*epochs),
             static_cast<std::size_t>(*regions),
             static_cast<std::size_t>(*shards),
             static_cast<std::size_t>(*k), *lambda,
             static_cast<std::size_t>(*queue_depth), seeds, *json_out);
  return 0;
}
