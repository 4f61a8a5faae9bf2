// Engine churn bench (ISSUE: online placement engine).
//
// Replays one seeded churn workload twice over the same Ark-derived
// general topology:
//
//   * engine:   engine::Engine — O(churn) index deltas, feasibility
//     patch, then the incremental CELF re-solve against the live
//     coverage index.
//   * baseline: from-scratch per epoch — rebuild the core::Instance from
//     the full flow set and run budgeted feasibility-aware GTP (the
//     DynamicPlacer reference solver).
//
// Both replays consume the identical pre-drawn ChurnTrace, so the
// comparison is workload-for-workload; the trace derives from --seed via
// engine::BuildChurnTrace, the same path bench/dynamic_churn uses.
//
// Emits a JSON summary (wall_ms, per-epoch latency quantiles, epochs,
// gain_reevals, speedup, plus context) to --json-out for the CI
// artifact.  The workload builder and the JSON emitter live in
// bench/scenario.{hpp,cpp}, shared with fault_recovery and obs_overhead.
#include <fstream>
#include <iostream>
#include <utility>
#include <vector>

#include "common/args.hpp"
#include "core/gtp.hpp"
#include "engine/engine.hpp"
#include "scenario.hpp"

namespace tdmd::bench {
namespace {

struct ReplayResult {
  double wall_ms = 0.0;  // churn epochs only; prefill is warm-up
  Bandwidth final_bandwidth = 0.0;
  bool always_feasible = true;
  /// Per-epoch SubmitBatch (engine) / rebuild-and-solve (baseline) wall
  /// time, for p50/p95/p99 tail reporting alongside the totals.
  obs::LatencyHistogram epoch_ns;
};

ReplayResult ReplayEngine(engine::Engine& eng, const ChurnWorkload& w) {
  ReplayResult r;
  std::vector<engine::FlowTicket> active =
      eng.SubmitBatch(w.prefill, {}).tickets;
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
    const std::uint64_t elapsed_ns = obs::MonotonicNanos() - start_ns;
    r.epoch_ns.Record(elapsed_ns);
    r.wall_ms += static_cast<double>(elapsed_ns) / 1e6;
    active.insert(active.end(), batch.tickets.begin(),
                  batch.tickets.end());
    const auto snapshot = eng.CurrentSnapshot();
    r.final_bandwidth = snapshot->bandwidth;
    r.always_feasible = r.always_feasible && snapshot->feasible;
  }
  return r;
}

ReplayResult ReplayBaseline(const ChurnWorkload& w, std::size_t k,
                            double lambda) {
  ReplayResult r;
  core::GtpOptions options;
  options.max_middleboxes = k;
  options.feasibility_aware = true;
  traffic::FlowSet flows = w.prefill;
  for (const engine::ChurnEpoch& epoch : w.trace.epochs) {
    for (auto it = epoch.departures.rbegin();
         it != epoch.departures.rend(); ++it) {
      flows.erase(flows.begin() + static_cast<std::ptrdiff_t>(*it));
    }
    flows.insert(flows.end(), epoch.arrivals.begin(),
                 epoch.arrivals.end());
    const std::uint64_t start_ns = obs::MonotonicNanos();
    const core::Instance instance(w.network, flows, lambda);
    const core::PlacementResult result = core::Gtp(instance, options);
    const std::uint64_t elapsed_ns = obs::MonotonicNanos() - start_ns;
    r.epoch_ns.Record(elapsed_ns);
    r.wall_ms += static_cast<double>(elapsed_ns) / 1e6;
    r.final_bandwidth = result.bandwidth;
    r.always_feasible = r.always_feasible && result.feasible;
  }
  return r;
}

void WriteJson(const std::string& path, std::size_t flows,
               std::size_t epochs, std::size_t k, double lambda,
               std::uint64_t seed, const ReplayResult& eng_result,
               const ReplayResult& base_result,
               const engine::EngineStats& stats,
               const engine::EngineHistograms& histograms) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "engine_churn: cannot write " << path << "\n";
    return;
  }
  const double speedup = eng_result.wall_ms > 0.0
                             ? base_result.wall_ms / eng_result.wall_ms
                             : 0.0;
  JsonWriter json(out);
  json.Field("bench", "engine_churn");
  json.Field("flows", flows);
  json.Field("epochs", epochs);
  json.Field("k", k);
  json.Field("lambda", lambda);
  json.Field("seed", seed);
  json.Field("wall_ms", eng_result.wall_ms);
  json.Field("baseline_wall_ms", base_result.wall_ms);
  json.Field("speedup", speedup);
  EmitHistogramMs(json, "engine_epoch", eng_result.epoch_ns);
  EmitHistogramMs(json, "baseline_epoch", base_result.epoch_ns);
  EmitHistogramMs(json, "engine_patch", histograms.patch_ns);
  EmitHistogramMs(json, "engine_resolve", histograms.resolve_ns);
  EmitHistogramMs(json, "engine_greedy_round", histograms.greedy_round_ns);
  json.Field("gain_reevals", stats.gain_reevals);
  json.Field("reevals_saved", stats.reevals_saved);
  json.Field("index_delta_ops", stats.index_delta_ops);
  json.Field("adoptions", stats.adoptions);
  json.Field("engine_bandwidth", eng_result.final_bandwidth);
  json.Field("baseline_bandwidth", base_result.final_bandwidth);
  json.Field("engine_always_feasible", eng_result.always_feasible);
  json.Field("baseline_always_feasible", base_result.always_feasible);
}

void Run(VertexId size, std::size_t flows, std::size_t epochs,
         std::size_t k, double lambda, double churn_fraction,
         std::uint64_t seed, const std::string& json_out) {
  const ChurnWorkload workload =
      BuildChurnWorkload(size, flows, epochs, churn_fraction, seed);

  engine::EngineOptions options;
  options.k = k;
  options.lambda = lambda;
  options.move_threshold = 0.0;  // track the re-solve exactly
  engine::Engine eng(workload.network, options);

  const ReplayResult eng_result = ReplayEngine(eng, workload);
  const ReplayResult base_result = ReplayBaseline(workload, k, lambda);
  const engine::EngineStats stats = eng.stats();

  const double speedup = eng_result.wall_ms > 0.0
                             ? base_result.wall_ms / eng_result.wall_ms
                             : 0.0;
  std::cout << "engine_churn: " << flows << " prefill flows, " << epochs
            << " epochs, k=" << k << ", lambda=" << lambda << ", seed="
            << seed << "\n"
            << "  engine    " << eng_result.wall_ms << " ms  (b="
            << eng_result.final_bandwidth << ", feasible="
            << eng_result.always_feasible << ")\n"
            << "  baseline  " << base_result.wall_ms << " ms  (b="
            << base_result.final_bandwidth << ", feasible="
            << base_result.always_feasible << ")\n"
            << "  speedup   " << speedup << "x   gain_reevals="
            << stats.gain_reevals << "  reevals_saved="
            << stats.reevals_saved << "  index_delta_ops="
            << stats.index_delta_ops << "\n";
  if (!json_out.empty()) {
    WriteJson(json_out, flows, epochs, k, lambda, seed, eng_result,
              base_result, stats, eng.histograms());
  }
}

}  // namespace
}  // namespace tdmd::bench

int main(int argc, char** argv) {
  using namespace tdmd;
  ArgParser parser(
      "engine_churn",
      "Online engine vs from-scratch GTP under flow churn.  Both sides "
      "replay the identical pre-drawn churn trace.");
  const auto* size = parser.AddInt("size", 30, "general topology size");
  const auto* flows = parser.AddInt("flows", 10000, "prefill flow count");
  const auto* epochs = parser.AddInt("epochs", 20, "churn epochs");
  const auto* k = parser.AddInt("k", 10, "middlebox budget");
  const auto* lambda = parser.AddDouble("lambda", 0.5, "traffic ratio");
  const auto* churn = parser.AddDouble(
      "churn-fraction", 0.05,
      "per-epoch arrivals (fraction of --flows) and departure probability");
  const auto* seed = parser.AddInt(
      "seed", 1,
      "base RNG seed; topology, prefill and churn trace derive from it "
      "deterministically (engine::BuildChurnTrace, the same generator "
      "bench/dynamic_churn uses), so equal seeds replay identical "
      "workloads across both benches");
  const auto* json_out = parser.AddString(
      "json-out", "BENCH_engine.json",
      "path for the JSON summary (empty string disables)");
  parser.Parse(argc, argv);
  bench::Run(static_cast<VertexId>(*size),
             static_cast<std::size_t>(*flows),
             static_cast<std::size_t>(*epochs),
             static_cast<std::size_t>(*k), *lambda, *churn,
             static_cast<std::uint64_t>(*seed), *json_out);
  return 0;
}
