// Shard scaling bench (ISSUE: sharded multi-engine serving).
//
// Replays one seeded regionalized churn workload through
// shard::ShardedEngine at fleet sizes 1/2/4/8 over the identical Ark
// topology and trace.  The workload is the shape sharding targets: churn
// confined to one of 8 hub regions per epoch, so a partitioned fleet
// routes each epoch's batch to the few owner shards and skips the rest,
// while the 1-shard fleet re-solves the whole flow set every epoch.
//
// Reported per fleet size: churn-ingest wall time (SubmitBatch + Drain
// per epoch; prefill is warm-up), ingest events/s, per-epoch latency
// quantiles, and the quality side — union-evaluated bandwidth, its gap
// vs the 1-shard run, and the fleet certificate (sum of per-shard CELF
// certificates over disjoint ground sets, so it should come out no
// looser than the single-engine bound).  Budget reallocation is disabled
// here: it is a control-plane epoch-boundary operation, and this bench
// isolates the data-path ingest cost (the even k/N split is what the
// acceptance bandwidth band is defined against).
//
// Emits BENCH_shard.json via the shared JsonWriter + EmitShardSummary
// helpers in bench/scenario.hpp.
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/args.hpp"
#include "shard/sharded_engine.hpp"
#include "scenario.hpp"

namespace tdmd::bench {
namespace {

ShardRunSummary RunFleet(const ShardWorkload& workload, std::size_t shards,
                         std::size_t k, double lambda,
                         double resolve_churn_fraction,
                         std::uint64_t seed) {
  shard::ShardedEngineOptions options;
  options.partition.num_shards = shards;
  options.partition.method = shard::PartitionMethod::kBfs;
  options.partition.seed = seed;
  // Seed the partition regions on the workload's traffic hubs, the way
  // an operator who knows the traffic matrix would: with all hubs passed
  // as grouped seeds, every shard is a union of whole hub regions and
  // each epoch's churn lands on exactly one owner shard.  With the
  // partitioner's own blind farthest-point seeds the regions do not line
  // up with the hubs, every epoch touches every shard, and the fleet
  // degenerates to N copies of the single-engine cadence.
  options.partition.seeds = workload.hubs;
  options.total_budget = k;
  options.engine.lambda = lambda;
  options.engine.move_threshold = 0.0;  // track the re-solve exactly
  options.engine.resolve_churn_fraction = resolve_churn_fraction;
  options.realloc_interval_epochs = 0;  // data-path ingest only
  shard::ShardedEngine fleet(workload.network, options);

  ShardRunSummary run;
  run.shards = shards;

  // Prefill is warm-up: every shard solves its initial region load once.
  std::vector<shard::FlowId64> handles =  // by arrival sequence
      fleet.SubmitBatch(workload.prefill, {}).flow_ids;
  fleet.Drain();

  std::uint64_t events = 0;
  for (const ShardEpoch& epoch : workload.epochs) {
    std::vector<shard::FlowId64> departing;
    departing.reserve(epoch.departures.size());
    for (std::size_t sequence : epoch.departures) {
      departing.push_back(handles[sequence]);
    }
    events += epoch.arrivals.size() + departing.size();
    const std::uint64_t start_ns = obs::MonotonicNanos();
    const shard::ShardedEngine::BatchResult batch =
        fleet.SubmitBatch(epoch.arrivals, departing);
    fleet.Drain();  // honest per-epoch latency, not queue-depth pipelining
    const std::uint64_t elapsed_ns = obs::MonotonicNanos() - start_ns;
    run.epoch_latency.Record(elapsed_ns);
    run.wall_ms += static_cast<double>(elapsed_ns) / 1e6;
    handles.insert(handles.end(), batch.flow_ids.begin(),
                   batch.flow_ids.end());
  }

  const shard::FleetSnapshot snapshot = fleet.Snapshot();
  run.bandwidth = snapshot.bandwidth;
  run.feasible = snapshot.feasible;
  run.cert_valid = snapshot.cert_valid;
  run.cert_bound = snapshot.cert_bound;
  run.boxes = snapshot.deployment.size();
  run.events_per_sec = run.wall_ms > 0.0
                           ? static_cast<double>(events) /
                                 (run.wall_ms / 1e3)
                           : 0.0;
  return run;
}

void Run(VertexId size, std::size_t flows, std::size_t epochs,
         std::size_t regions, std::size_t k, double lambda,
         double resolve_churn_fraction, std::uint64_t seed,
         const std::string& json_out) {
  const ShardWorkload workload =
      BuildShardWorkload(size, flows, epochs, regions, seed);
  std::cout << "shard_scaling: " << workload.network.num_vertices()
            << " vertices, " << workload.prefill.size()
            << " prefill flows, " << epochs << " epochs over " << regions
            << " regions, k=" << k << ", lambda=" << lambda
            << ", resolve-churn-fraction=" << resolve_churn_fraction
            << ", seed=" << seed << "\n";

  const std::vector<std::size_t> fleet_sizes{1, 2, 4, 8};
  std::vector<ShardRunSummary> runs;
  for (std::size_t shards : fleet_sizes) {
    ShardRunSummary run = RunFleet(workload, shards, k, lambda,
                                   resolve_churn_fraction, seed);
    if (!runs.empty()) {
      run.speedup = run.wall_ms > 0.0 ? runs.front().wall_ms / run.wall_ms
                                      : 0.0;
      run.bandwidth_gap_pct =
          runs.front().bandwidth > 0.0
              ? 100.0 * (run.bandwidth - runs.front().bandwidth) /
                    runs.front().bandwidth
              : 0.0;
    }
    std::cout << "  shards=" << run.shards << "  wall=" << run.wall_ms
              << " ms  speedup=" << run.speedup << "x  ingest="
              << run.events_per_sec << " events/s  bandwidth="
              << run.bandwidth << " (" << (run.bandwidth_gap_pct >= 0 ? "+"
                                                                      : "")
              << run.bandwidth_gap_pct << "%)  cert="
              << (run.cert_valid ? "valid " : "stale ") << run.cert_bound
              << "  boxes=" << run.boxes << "  feasible="
              << run.feasible << "\n";
    runs.push_back(std::move(run));
  }

  if (!json_out.empty()) {
    std::ofstream out(json_out);
    if (!out) {
      std::cerr << "shard_scaling: cannot write " << json_out << "\n";
      return;
    }
    JsonWriter json(out);
    json.Field("bench", "shard_scaling");
    json.Field("vertices", static_cast<std::size_t>(
                               workload.network.num_vertices()));
    json.Field("flows", workload.prefill.size());
    json.Field("epochs", epochs);
    json.Field("regions", regions);
    json.Field("k", k);
    json.Field("lambda", lambda);
    json.Field("resolve_churn_fraction", resolve_churn_fraction);
    json.Field("seed", seed);
    std::vector<double> sizes;
    for (std::size_t shards : fleet_sizes) {
      sizes.push_back(static_cast<double>(shards));
    }
    json.Field("fleet_sizes", sizes);
    for (const ShardRunSummary& run : runs) {
      EmitShardSummary(json, run);
    }
  }
}

}  // namespace
}  // namespace tdmd::bench

int main(int argc, char** argv) {
  using namespace tdmd;
  ArgParser parser(
      "shard_scaling",
      "Sharded fleet churn-ingest scaling at 1/2/4/8 shards over one "
      "regionalized workload (identical trace for every fleet size).");
  const auto* size = parser.AddInt("size", 200, "general topology size");
  const auto* flows = parser.AddInt("flows", 20000, "prefill flow count");
  const auto* epochs = parser.AddInt("epochs", 32, "churn epochs");
  const auto* regions = parser.AddInt(
      "regions", 8,
      "farthest-point hub regions; each epoch's churn stays inside "
      "region (epoch mod regions)");
  const auto* k = parser.AddInt("k", 32, "fleet-wide middlebox budget");
  const auto* lambda = parser.AddDouble("lambda", 0.5, "traffic ratio");
  const auto* resolve_churn_fraction = parser.AddDouble(
      "resolve-churn-fraction", 0.03,
      "engine re-solve deferral threshold: a single engine crosses it "
      "every epoch, a per-region shard's quiet epochs stay under it");
  const auto* seed = parser.AddInt(
      "seed", 1,
      "base RNG seed; topology, hubs, prefill and churn derive from it "
      "deterministically, so equal seeds replay identical workloads");
  const auto* json_out = parser.AddString(
      "json-out", "BENCH_shard.json",
      "path for the JSON summary (empty string disables)");
  parser.Parse(argc, argv);
  bench::Run(static_cast<VertexId>(*size),
             static_cast<std::size_t>(*flows),
             static_cast<std::size_t>(*epochs),
             static_cast<std::size_t>(*regions),
             static_cast<std::size_t>(*k), *lambda,
             *resolve_churn_fraction, static_cast<std::uint64_t>(*seed),
             *json_out);
  return 0;
}
