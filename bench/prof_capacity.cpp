// Profiler-attribution and memory-capacity bench (DESIGN.md Section 16).
//
// Replays the seeded churn workload through the synchronous engine and
// the regionalized shard workload through a 4-shard fleet, each with the
// sampling CPU profiler installed, and records into BENCH_prof.json:
//
//   * sample counts, drops and the attributed-sample fraction (samples
//     landing inside a named trace phase / all delivered samples) for
//     both serving paths — the ISSUE acceptance bar is >= 0.9 on a
//     traced serve-trace run, checked here with --min-attribution;
//   * the MemoryFootprint() capacity gauges of the live structures
//     (coverage index, published snapshot, shard queues, redo rings)
//     plus the derived bytes-per-flow, straight from
//     Engine::MemoryUsage() / ShardedEngine::MemoryUsage().
//
// Capacity ratios (bytes per flow) are machine-independent, so they are
// the fields bench/baselines/gate.json bounds; wall times are recorded
// for context but only self-relative metrics gate.
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/args.hpp"
#include "engine/churn_trace.hpp"
#include "engine/engine.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "scenario.hpp"
#include "shard/sharded_engine.hpp"

namespace tdmd::bench {
namespace {

/// Fraction of delivered samples whose stack names at least one phase.
double AttributedFraction(const obs::ProfDrainResult& drained) {
  std::uint64_t attributed = 0;
  for (const obs::ProfStack& stack : drained.stacks) {
    if (!stack.phases.empty()) attributed += stack.count;
  }
  const std::uint64_t delivered = drained.samples + drained.orphaned;
  return delivered > 0
             ? static_cast<double>(attributed) /
                   static_cast<double>(delivered)
             : 0.0;
}

struct ProfiledEngineRun {
  double wall_ms = 0.0;
  obs::ProfDrainResult profile;
  engine::EngineMemoryStats memory;
};

/// Replays the workload `repeats` times under one profiler install so a
/// sub-second replay still accumulates a meaningful sample population at
/// ~1 kHz (ITIMER_PROF charges CPU time, so a fast replay yields few
/// samples per pass).  The span-covered prefill solve dominates each
/// pass; memory stats come from the last pass's live engine.
ProfiledEngineRun RunEngine(const ChurnWorkload& w, std::size_t k,
                            double lambda, std::uint32_t sample_hz,
                            std::size_t repeats) {
  engine::EngineOptions options;
  options.k = k;
  options.lambda = lambda;
  options.move_threshold = 0.0;

  // Churn bookkeeping stays outside the sampled window, as in
  // serve-trace: departures are resolved to arrival sequence numbers up
  // front, so the loop maps them to tickets in O(departures).
  const std::vector<std::vector<std::size_t>> departures =
      engine::DepartureSequences(w.trace.epochs, w.prefill.size());
  obs::Profiler::Options prof_options;
  prof_options.sample_hz = sample_hz;
  obs::Profiler profiler(prof_options);
  obs::InstallProfiler(&profiler);

  ProfiledEngineRun run;
  // The handle buffers outlive the repeats, so after the first one they
  // never reallocate: the loop's own work per epoch stays O(churn).
  std::vector<engine::FlowTicket> tickets;  // by arrival sequence
  std::vector<engine::FlowTicket> departing;
  const std::uint64_t start_ns = obs::MonotonicNanos();
  for (std::size_t r = 0; r < repeats; ++r) {
    engine::Engine eng(w.network, options);
    const engine::Engine::BatchResult prefilled =
        eng.SubmitBatch(w.prefill, {});
    tickets.assign(prefilled.tickets.begin(), prefilled.tickets.end());
    for (std::size_t e = 0; e < w.trace.epochs.size(); ++e) {
      departing.clear();
      for (std::size_t sequence : departures[e]) {
        departing.push_back(tickets[sequence]);
      }
      const engine::Engine::BatchResult batch =
          eng.SubmitBatch(w.trace.epochs[e].arrivals, departing);
      tickets.insert(tickets.end(), batch.tickets.begin(),
                     batch.tickets.end());
    }
    run.memory = eng.MemoryUsage();
  }
  run.wall_ms =
      static_cast<double>(obs::MonotonicNanos() - start_ns) / 1e6;
  obs::InstallProfiler(nullptr);
  run.profile = profiler.Drain();
  return run;
}

struct ProfiledFleetRun {
  double wall_ms = 0.0;
  obs::ProfDrainResult profile;
  shard::FleetMemoryStats memory;
};

ProfiledFleetRun RunFleet(const ShardWorkload& w, std::size_t shards,
                          std::size_t k, double lambda,
                          std::uint32_t sample_hz, std::size_t repeats) {
  shard::ShardedEngineOptions options;
  options.partition.num_shards = shards;
  options.partition.method = shard::PartitionMethod::kBfs;
  options.partition.seeds = w.hubs;
  options.total_budget = k;
  options.engine.lambda = lambda;
  options.engine.move_threshold = 0.0;
  options.realloc_interval_epochs = 0;
  options.pin_threads = false;

  const std::vector<std::vector<std::size_t>> departures =
      engine::DepartureSequences(w.epochs, w.prefill.size());
  obs::Profiler::Options prof_options;
  prof_options.sample_hz = sample_hz;
  obs::Profiler profiler(prof_options);
  obs::InstallProfiler(&profiler);

  ProfiledFleetRun run;
  std::vector<shard::FlowId64> ids;  // by arrival sequence
  std::vector<shard::FlowId64> departing;
  const std::uint64_t start_ns = obs::MonotonicNanos();
  for (std::size_t r = 0; r < repeats; ++r) {
    // Scoped so the workers are joined before the profiler uninstalls —
    // the rings must outlive every registered thread's last span.
    shard::ShardedEngine fleet(w.network, options);
    const shard::ShardedEngine::BatchResult prefilled =
        fleet.SubmitBatch(w.prefill, {});
    ids.assign(prefilled.flow_ids.begin(), prefilled.flow_ids.end());
    fleet.Drain();
    for (std::size_t e = 0; e < w.epochs.size(); ++e) {
      departing.clear();
      for (std::size_t sequence : departures[e]) {
        departing.push_back(ids[sequence]);
      }
      const shard::ShardedEngine::BatchResult batch =
          fleet.SubmitBatch(w.epochs[e].arrivals, departing);
      ids.insert(ids.end(), batch.flow_ids.begin(), batch.flow_ids.end());
    }
    fleet.Drain();
    run.memory = fleet.MemoryUsage();
  }
  run.wall_ms =
      static_cast<double>(obs::MonotonicNanos() - start_ns) / 1e6;
  obs::InstallProfiler(nullptr);
  run.profile = profiler.Drain();
  return run;
}

double BytesPerFlow(std::uint64_t bytes, std::uint64_t flows) {
  return flows > 0
             ? static_cast<double>(bytes) / static_cast<double>(flows)
             : 0.0;
}

void Run(VertexId size, std::size_t flows, std::size_t epochs,
         std::size_t k, double lambda, double churn_fraction,
         std::uint64_t seed, std::uint32_t sample_hz, std::size_t repeats,
         double min_attribution, const std::string& json_out) {
  const ChurnWorkload workload =
      BuildChurnWorkload(size, flows, epochs, churn_fraction, seed);
  const ProfiledEngineRun eng =
      RunEngine(workload, k, lambda, sample_hz, repeats);
  const double eng_attr = AttributedFraction(eng.profile);

  constexpr std::size_t kShards = 4;
  const ShardWorkload shard_workload =
      BuildShardWorkload(size, flows, epochs, /*regions=*/8, seed);
  const ProfiledFleetRun fleet =
      RunFleet(shard_workload, kShards, k, lambda, sample_hz, repeats);
  const double fleet_attr = AttributedFraction(fleet.profile);

  const double eng_bpf =
      BytesPerFlow(eng.memory.index_bytes, eng.memory.active_flows);
  const double fleet_bpf =
      BytesPerFlow(fleet.memory.index_bytes, fleet.memory.active_flows);

  std::cout << "prof_capacity: " << flows << " prefill flows, " << epochs
            << " epochs, k=" << k << ", seed=" << seed << ", "
            << sample_hz << " Hz, " << repeats << " repeats\n"
            << "  engine  " << eng.wall_ms << " ms, "
            << eng.profile.samples << " samples ("
            << eng_attr * 100.0 << "% attributed, "
            << eng.profile.dropped << " dropped, "
            << eng.profile.orphaned << " orphaned)\n"
            << "  engine  index " << eng.memory.index_bytes
            << " B, snapshot " << eng.memory.snapshot_bytes << " B, "
            << eng.memory.active_flows << " flows ("
            << eng_bpf << " B/flow)\n"
            << "  fleet   " << fleet.wall_ms << " ms (" << kShards
            << " shards), " << fleet.profile.samples << " samples ("
            << fleet_attr * 100.0 << "% attributed, "
            << fleet.profile.dropped << " dropped, "
            << fleet.profile.orphaned << " orphaned)\n"
            << "  fleet   index " << fleet.memory.index_bytes
            << " B, snapshot " << fleet.memory.snapshot_bytes
            << " B, queues " << fleet.memory.queue_bytes
            << " B, redo " << fleet.memory.redo_ring_bytes << " B, "
            << fleet.memory.active_flows << " flows ("
            << fleet_bpf << " B/flow)\n";

  if (!json_out.empty()) {
    std::ofstream out(json_out);
    if (!out) {
      std::cerr << "prof_capacity: cannot write " << json_out << "\n";
    } else {
      JsonWriter json(out);
      json.Field("bench", "prof_capacity");
      json.Field("flows", flows);
      json.Field("epochs", epochs);
      json.Field("k", k);
      json.Field("lambda", lambda);
      json.Field("seed", seed);
      json.Field("prof_sample_hz", sample_hz);
      json.Field("repeats", repeats);
      json.Field("engine_wall_ms", eng.wall_ms);
      json.Field("engine_prof_samples", eng.profile.samples);
      json.Field("engine_prof_dropped", eng.profile.dropped);
      json.Field("engine_prof_orphaned", eng.profile.orphaned);
      json.Field("engine_prof_attributed_fraction", eng_attr);
      json.Field("engine_mem_index_bytes", eng.memory.index_bytes);
      json.Field("engine_mem_snapshot_bytes", eng.memory.snapshot_bytes);
      json.Field("engine_active_flows", eng.memory.active_flows);
      json.Field("engine_mem_bytes_per_flow", eng_bpf);
      json.Field("fleet_shards", kShards);
      json.Field("fleet_wall_ms", fleet.wall_ms);
      json.Field("fleet_prof_samples", fleet.profile.samples);
      json.Field("fleet_prof_dropped", fleet.profile.dropped);
      json.Field("fleet_prof_orphaned", fleet.profile.orphaned);
      json.Field("fleet_prof_attributed_fraction", fleet_attr);
      json.Field("fleet_mem_index_bytes", fleet.memory.index_bytes);
      json.Field("fleet_mem_snapshot_bytes", fleet.memory.snapshot_bytes);
      json.Field("fleet_mem_queue_bytes", fleet.memory.queue_bytes);
      json.Field("fleet_mem_redo_ring_bytes",
                 fleet.memory.redo_ring_bytes);
      json.Field("fleet_active_flows", fleet.memory.active_flows);
      json.Field("fleet_mem_bytes_per_flow", fleet_bpf);
    }
  }
  if (min_attribution > 0.0 && eng.profile.samples > 0 &&
      eng_attr < min_attribution) {
    std::cerr << "prof_capacity: engine attribution " << eng_attr
              << " below --min-attribution " << min_attribution << "\n";
    std::exit(1);
  }
}

}  // namespace
}  // namespace tdmd::bench

int main(int argc, char** argv) {
  using namespace tdmd;
  ArgParser parser(
      "prof_capacity",
      "Sampling-profiler attribution and memory-capacity accounting on "
      "the engine churn replay and a 4-shard fleet replay; emits "
      "BENCH_prof.json for the perf gate.");
  const auto* size = parser.AddInt("size", 100, "general topology size");
  const auto* flows = parser.AddInt("flows", 8000, "prefill flow count");
  const auto* epochs = parser.AddInt("epochs", 30, "churn epochs");
  const auto* k = parser.AddInt("k", 10, "middlebox budget");
  const auto* lambda = parser.AddDouble("lambda", 0.5, "traffic ratio");
  const auto* churn = parser.AddDouble(
      "churn-fraction", 0.1,
      "per-epoch arrivals (fraction of --flows) and departure probability");
  const auto* seed = parser.AddInt(
      "seed", 1, "workload seed (same generator as bench/obs_overhead)");
  const auto* hz = parser.AddInt(
      "prof-hz", static_cast<int>(obs::Profiler::kDefaultSampleHz),
      "profiler sample rate in Hz");
  const auto* repeats = parser.AddInt(
      "repeats", 40,
      "full replays per leg under one profiler install (samples "
      "accumulate across them)");
  const auto* min_attribution = parser.AddDouble(
      "min-attribution", 0.0,
      "exit 1 when the engine run attributes less than this fraction of "
      "delivered samples to named phases (0 disables the gate)");
  const auto* json_out = parser.AddString(
      "json-out", "BENCH_prof.json",
      "path for the JSON summary (empty string disables)");
  parser.Parse(argc, argv);
  if (*hz <= 0) {
    std::cerr << "prof_capacity: --prof-hz must be positive\n";
    return 2;
  }
  bench::Run(static_cast<VertexId>(*size),
             static_cast<std::size_t>(*flows),
             static_cast<std::size_t>(*epochs),
             static_cast<std::size_t>(*k), *lambda, *churn,
             static_cast<std::uint64_t>(*seed),
             static_cast<std::uint32_t>(*hz),
             static_cast<std::size_t>(*repeats), *min_attribution,
             *json_out);
  return 0;
}
