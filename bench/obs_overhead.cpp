// Tracing-overhead bench (ISSUE: observability layer).
//
// Replays the same seeded churn workload through the synchronous engine
// with and without a Tracer installed.  The untraced side exercises the
// no-op path (each hook collapses to one relaxed atomic load plus the
// always-on latency histograms); the traced side additionally timestamps
// and ring-buffers every span.  Each side runs --repeats times and keeps
// its minimum churn-phase wall time, so one scheduler hiccup cannot fake
// an overhead; the budget is overhead_fraction < 0.05 per epoch
// (DESIGN.md Section 10.4).
//
// A second, sharded leg replays the regionalized shard workload through
// a traced vs untraced 4-shard ShardedEngine (the fleet path adds the
// causal batch-id flow events of DESIGN.md Section 15 on top of the
// engine spans), with the same min-of-repeats discipline and the same
// 5% budget, so BENCH_obs.json records the tracing overhead of both
// serving paths.
//
// A third leg measures the sampling CPU profiler the same way: the same
// single-engine replay with and without a Profiler installed at the
// default sample rate, alternating order, min of --repeats per side.
// Its budget is tighter — profiled_overhead_fraction < 0.03 — because
// the profiler only maintains a thread-local phase stack per span plus
// a SIGPROF handler at ~1 kHz (DESIGN.md Section 16).
//
// Emits BENCH_obs.json (wall times, overhead_fraction, trace volume) for
// the CI artifact.  --max-overhead turns the budget into a hard gate for
// local runs (exit 1 when exceeded); CI uploads the artifact instead of
// gating, because shared runners are too noisy for a 5% latency bound.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/args.hpp"
#include "engine/engine.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "scenario.hpp"
#include "shard/sharded_engine.hpp"

namespace tdmd::bench {
namespace {

/// Churn-phase wall time of one full replay; the prefill batch is
/// warm-up.  Constructs a fresh engine so repeats are independent.
double ReplayMs(const ChurnWorkload& w,
                const engine::EngineOptions& options) {
  engine::Engine eng(w.network, options);
  std::vector<engine::FlowTicket> active =
      eng.SubmitBatch(w.prefill, {}).tickets;
  double wall_ms = 0.0;
  for (const engine::ChurnEpoch& epoch : w.trace.epochs) {
    std::vector<engine::FlowTicket> departing;
    departing.reserve(epoch.departures.size());
    for (std::size_t position : epoch.departures) {
      departing.push_back(active[position]);
    }
    for (auto it = epoch.departures.rbegin();
         it != epoch.departures.rend(); ++it) {
      active.erase(active.begin() + static_cast<std::ptrdiff_t>(*it));
    }
    const std::uint64_t start_ns = obs::MonotonicNanos();
    const engine::Engine::BatchResult batch =
        eng.SubmitBatch(epoch.arrivals, departing);
    wall_ms += static_cast<double>(obs::MonotonicNanos() - start_ns) / 1e6;
    active.insert(active.end(), batch.tickets.begin(),
                  batch.tickets.end());
  }
  return wall_ms;
}

/// Churn-phase wall time of one 4-shard fleet replay over the
/// regionalized workload (prefill is warm-up, Drain per epoch so the
/// measured time is honest ingest latency, not queue pipelining).
double ShardReplayMs(const ShardWorkload& w, std::size_t shards,
                     std::size_t k, double lambda) {
  shard::ShardedEngineOptions options;
  options.partition.num_shards = shards;
  options.partition.method = shard::PartitionMethod::kBfs;
  options.partition.seeds = w.hubs;
  options.total_budget = k;
  options.engine.lambda = lambda;
  options.engine.move_threshold = 0.0;
  options.realloc_interval_epochs = 0;
  options.pin_threads = false;
  shard::ShardedEngine fleet(w.network, options);
  std::vector<shard::FlowId64> active =
      fleet.SubmitBatch(w.prefill, {}).flow_ids;
  fleet.Drain();
  double wall_ms = 0.0;
  for (const ShardEpoch& epoch : w.epochs) {
    std::vector<shard::FlowId64> departing;
    departing.reserve(epoch.departures.size());
    for (std::size_t position : epoch.departures) {
      departing.push_back(active[position]);
    }
    for (auto it = epoch.departures.rbegin();
         it != epoch.departures.rend(); ++it) {
      active.erase(active.begin() + static_cast<std::ptrdiff_t>(*it));
    }
    const std::uint64_t start_ns = obs::MonotonicNanos();
    const shard::ShardedEngine::BatchResult batch =
        fleet.SubmitBatch(epoch.arrivals, departing);
    fleet.Drain();
    wall_ms += static_cast<double>(obs::MonotonicNanos() - start_ns) / 1e6;
    active.insert(active.end(), batch.flow_ids.begin(),
                  batch.flow_ids.end());
  }
  return wall_ms;
}

void Run(VertexId size, std::size_t flows, std::size_t epochs,
         std::size_t k, double lambda, double churn_fraction,
         std::uint64_t seed, std::size_t repeats, double max_overhead,
         const std::string& json_out) {
  const ChurnWorkload workload =
      BuildChurnWorkload(size, flows, epochs, churn_fraction, seed);

  engine::EngineOptions options;
  options.k = k;
  options.lambda = lambda;
  options.move_threshold = 0.0;

  double untraced_ms = 0.0;
  double traced_ms = 0.0;
  std::size_t trace_events = 0;
  std::uint64_t trace_dropped = 0;
  for (std::size_t r = 0; r < repeats; ++r) {
    // Alternate which side runs first so cache/frequency warm-up cannot
    // systematically favour one of them.
    for (int leg = 0; leg < 2; ++leg) {
      const bool traced = (leg == 0) == (r % 2 == 0);
      if (traced) {
        obs::Tracer tracer;
        obs::InstallTracer(&tracer);
        const double ms = ReplayMs(workload, options);
        obs::InstallTracer(nullptr);
        const obs::TraceDrainResult drained = tracer.Drain();
        trace_events = drained.events.size();
        trace_dropped = drained.dropped;
        traced_ms = traced_ms == 0.0 ? ms : std::min(traced_ms, ms);
      } else {
        const double ms = ReplayMs(workload, options);
        untraced_ms =
            untraced_ms == 0.0 ? ms : std::min(untraced_ms, ms);
      }
    }
  }

  // Sharded leg: same alternating min-of-repeats discipline over the
  // regionalized fleet workload (8 hub regions, 4 shards).
  constexpr std::size_t kShards = 4;
  const ShardWorkload shard_workload =
      BuildShardWorkload(size, flows, epochs, /*regions=*/8, seed);
  double sharded_untraced_ms = 0.0;
  double sharded_traced_ms = 0.0;
  std::size_t sharded_trace_events = 0;
  std::uint64_t sharded_trace_dropped = 0;
  for (std::size_t r = 0; r < repeats; ++r) {
    for (int leg = 0; leg < 2; ++leg) {
      const bool traced = (leg == 0) == (r % 2 == 0);
      if (traced) {
        obs::Tracer tracer;
        obs::InstallTracer(&tracer);
        const double ms = ShardReplayMs(shard_workload, kShards, k, lambda);
        obs::InstallTracer(nullptr);
        const obs::TraceDrainResult drained = tracer.Drain();
        sharded_trace_events = drained.events.size();
        sharded_trace_dropped = drained.dropped;
        sharded_traced_ms =
            sharded_traced_ms == 0.0 ? ms : std::min(sharded_traced_ms, ms);
      } else {
        const double ms = ShardReplayMs(shard_workload, kShards, k, lambda);
        sharded_untraced_ms = sharded_untraced_ms == 0.0
                                  ? ms
                                  : std::min(sharded_untraced_ms, ms);
      }
    }
  }

  // Profiler leg: plain vs profiler-only (no tracer), so the measured
  // delta is the SIGPROF sampling cost plus the span-hook phase-stack
  // pushes, not tracing.
  double plain_ms = 0.0;
  double profiled_ms = 0.0;
  std::uint64_t prof_samples = 0;
  std::uint64_t prof_dropped = 0;
  for (std::size_t r = 0; r < repeats; ++r) {
    for (int leg = 0; leg < 2; ++leg) {
      const bool profiled = (leg == 0) == (r % 2 == 0);
      if (profiled) {
        obs::Profiler profiler;
        obs::InstallProfiler(&profiler);
        const double ms = ReplayMs(workload, options);
        obs::InstallProfiler(nullptr);
        const obs::ProfDrainResult drained = profiler.Drain();
        prof_samples = drained.samples;
        prof_dropped = drained.dropped;
        profiled_ms = profiled_ms == 0.0 ? ms : std::min(profiled_ms, ms);
      } else {
        const double ms = ReplayMs(workload, options);
        plain_ms = plain_ms == 0.0 ? ms : std::min(plain_ms, ms);
      }
    }
  }

  const double overhead =
      untraced_ms > 0.0 ? traced_ms / untraced_ms - 1.0 : 0.0;
  const double sharded_overhead =
      sharded_untraced_ms > 0.0
          ? sharded_traced_ms / sharded_untraced_ms - 1.0
          : 0.0;
  const double profiled_overhead =
      plain_ms > 0.0 ? profiled_ms / plain_ms - 1.0 : 0.0;
  std::cout << "obs_overhead: " << flows << " prefill flows, " << epochs
            << " epochs, k=" << k << ", seed=" << seed << ", repeats="
            << repeats << "\n"
            << "  untraced  " << untraced_ms << " ms (min of " << repeats
            << ")\n"
            << "  traced    " << traced_ms << " ms (" << trace_events
            << " events, " << trace_dropped << " dropped)\n"
            << "  overhead  " << overhead * 100.0 << "%\n"
            << "  sharded untraced  " << sharded_untraced_ms << " ms ("
            << kShards << " shards)\n"
            << "  sharded traced    " << sharded_traced_ms << " ms ("
            << sharded_trace_events << " events, " << sharded_trace_dropped
            << " dropped)\n"
            << "  sharded overhead  " << sharded_overhead * 100.0 << "%\n"
            << "  plain     " << plain_ms << " ms\n"
            << "  profiled  " << profiled_ms << " ms (" << prof_samples
            << " samples @" << obs::Profiler::kDefaultSampleHz << " Hz, "
            << prof_dropped << " dropped)\n"
            << "  prof overhead  " << profiled_overhead * 100.0 << "%\n";

  if (!json_out.empty()) {
    std::ofstream out(json_out);
    if (!out) {
      std::cerr << "obs_overhead: cannot write " << json_out << "\n";
    } else {
      JsonWriter json(out);
      json.Field("bench", "obs_overhead");
      json.Field("flows", flows);
      json.Field("epochs", epochs);
      json.Field("k", k);
      json.Field("lambda", lambda);
      json.Field("seed", seed);
      json.Field("repeats", repeats);
      json.Field("untraced_wall_ms", untraced_ms);
      json.Field("traced_wall_ms", traced_ms);
      json.Field("overhead_fraction", overhead);
      json.Field("overhead_budget", 0.05);
      json.Field("trace_events", trace_events);
      json.Field("trace_dropped", trace_dropped);
      json.Field("sharded_shards", kShards);
      json.Field("sharded_untraced_wall_ms", sharded_untraced_ms);
      json.Field("sharded_traced_wall_ms", sharded_traced_ms);
      json.Field("sharded_overhead_fraction", sharded_overhead);
      json.Field("sharded_trace_events", sharded_trace_events);
      json.Field("sharded_trace_dropped", sharded_trace_dropped);
      json.Field("plain_wall_ms", plain_ms);
      json.Field("profiled_wall_ms", profiled_ms);
      json.Field("profiled_overhead_fraction", profiled_overhead);
      json.Field("prof_overhead_budget", 0.03);
      json.Field("prof_sample_hz", obs::Profiler::kDefaultSampleHz);
      json.Field("prof_samples", prof_samples);
      json.Field("prof_dropped", prof_dropped);
    }
  }
  if (max_overhead > 0.0 && overhead > max_overhead) {
    std::cerr << "obs_overhead: overhead " << overhead
              << " exceeds --max-overhead " << max_overhead << "\n";
    std::exit(1);
  }
  if (max_overhead > 0.0 && sharded_overhead > max_overhead) {
    std::cerr << "obs_overhead: sharded overhead " << sharded_overhead
              << " exceeds --max-overhead " << max_overhead << "\n";
    std::exit(1);
  }
  // The profiler's budget is fixed at 3% (ISSUE acceptance criterion),
  // tighter than the tracer's --max-overhead; it only gates when the
  // tracer gate is armed so noisy CI artifact runs stay non-fatal.
  if (max_overhead > 0.0 && profiled_overhead > 0.03) {
    std::cerr << "obs_overhead: profiler overhead " << profiled_overhead
              << " exceeds budget 0.03\n";
    std::exit(1);
  }
}

}  // namespace
}  // namespace tdmd::bench

int main(int argc, char** argv) {
  using namespace tdmd;
  ArgParser parser(
      "obs_overhead",
      "Tracing overhead on the synchronous engine churn replay: the same "
      "workload with and without a Tracer installed, min wall time over "
      "--repeats runs per side.");
  const auto* size = parser.AddInt("size", 30, "general topology size");
  const auto* flows = parser.AddInt("flows", 2000, "prefill flow count");
  const auto* epochs = parser.AddInt("epochs", 10, "churn epochs");
  const auto* k = parser.AddInt("k", 10, "middlebox budget");
  const auto* lambda = parser.AddDouble("lambda", 0.5, "traffic ratio");
  const auto* churn = parser.AddDouble(
      "churn-fraction", 0.05,
      "per-epoch arrivals (fraction of --flows) and departure probability");
  const auto* seed = parser.AddInt(
      "seed", 1, "workload seed (same generator as bench/engine_churn)");
  const auto* repeats = parser.AddInt(
      "repeats", 3, "replays per side; each side keeps its minimum");
  const auto* max_overhead = parser.AddDouble(
      "max-overhead", 0.0,
      "exit 1 when overhead_fraction exceeds this (0 disables the gate)");
  const auto* json_out = parser.AddString(
      "json-out", "BENCH_obs.json",
      "path for the JSON summary (empty string disables)");
  parser.Parse(argc, argv);
  bench::Run(static_cast<VertexId>(*size),
             static_cast<std::size_t>(*flows),
             static_cast<std::size_t>(*epochs),
             static_cast<std::size_t>(*k), *lambda, *churn,
             static_cast<std::uint64_t>(*seed),
             static_cast<std::size_t>(*repeats), *max_overhead, *json_out);
  return 0;
}
