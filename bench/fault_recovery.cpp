// Fault-recovery bench (ISSUE: fault-tolerant serving).
//
// Replays one seeded churn workload twice over the same Ark-derived
// general topology:
//
//   * clean: engine::Engine with no fault injection — the healthy
//     reference bandwidth per epoch.
//   * faulted: the same engine with a FaultInjector armed for a burst of
//     epochs (injected greedy-round throws make every re-solve fail), then
//     disarmed.  The burst's failure streak drives the engine into its
//     re-solve backoff; the tail measures how many clean epochs the probe
//     cadence needs to end the streak.
//
// Reported (stdout + BENCH_robustness.json for the CI artifact):
//   * degraded_bandwidth_overhead — mean relative bandwidth excess of the
//     faulted run vs the clean run over the epochs that ended on a
//     failure streak (the price of serving on patches alone),
//   * recovery_epochs — epochs from disarm until the streak is 0,
//   * backoff_reached / recovered / always_feasible — the backoff round
//     trip facts the robustness tests pin, re-checked on a bigger
//     workload.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/args.hpp"
#include "engine/engine.hpp"
#include "faults/faults.hpp"
#include "scenario.hpp"

namespace tdmd::bench {
namespace {

struct ReplayResult {
  std::vector<Bandwidth> bandwidth_per_epoch;
  /// Re-solve failure streak after each epoch.
  std::vector<std::uint64_t> streak_per_epoch;
  bool backoff_reached = false;
  bool always_feasible = true;
  engine::EngineStats stats;
  /// Per-epoch SubmitBatch wall time (tail latency under fault bursts).
  obs::LatencyHistogram epoch_ns;
};

/// Replays the whole trace; arms `injector` before epoch `burst_start`
/// and disarms it after `burst_epochs` epochs.  Pass nullptr for the
/// clean reference run.
ReplayResult Replay(const ChurnWorkload& w,
                    const engine::EngineOptions& options,
                    faults::FaultInjector* injector,
                    std::size_t burst_start, std::size_t burst_epochs) {
  engine::Engine eng(w.network, options);
  ReplayResult r;
  std::vector<engine::FlowTicket> handles =  // by arrival sequence
      eng.SubmitBatch(w.prefill, {}).tickets;
  for (std::size_t e = 0; e < w.trace.epochs.size(); ++e) {
    if (injector != nullptr) {
      if (e == burst_start) injector->Arm();
      if (e == burst_start + burst_epochs) injector->Disarm();
    }
    const engine::ChurnEpoch& epoch = w.trace.epochs[e];
    std::vector<engine::FlowTicket> departing;
    departing.reserve(epoch.departures.size());
    for (std::size_t sequence : epoch.departures) {
      departing.push_back(handles[sequence]);
    }
    const std::uint64_t start_ns = obs::MonotonicNanos();
    const engine::Engine::BatchResult batch =
        eng.SubmitBatch(epoch.arrivals, departing);
    r.epoch_ns.Record(obs::MonotonicNanos() - start_ns);
    handles.insert(handles.end(), batch.tickets.begin(),
                   batch.tickets.end());
    const auto snapshot = eng.CurrentSnapshot();
    r.bandwidth_per_epoch.push_back(snapshot->bandwidth);
    r.streak_per_epoch.push_back(eng.stats().consecutive_failures);
    r.backoff_reached = r.backoff_reached || batch.backing_off;
    r.always_feasible = r.always_feasible && snapshot->feasible;
  }
  r.stats = eng.stats();
  return r;
}

void Run(VertexId size, std::size_t flows, std::size_t epochs,
         std::size_t k, double lambda, double churn_fraction,
         std::uint64_t seed, std::uint64_t fault_seed,
         std::size_t burst_start, std::size_t burst_epochs,
         const std::string& json_out) {
  const ChurnWorkload workload =
      BuildChurnWorkload(size, flows, epochs, churn_fraction, seed);
  burst_start = std::min(burst_start, epochs);
  burst_epochs = std::min(burst_epochs, epochs - burst_start);

  engine::EngineOptions options;
  options.k = k;
  options.lambda = lambda;
  options.move_threshold = 0.0;
  options.max_resolve_retries = 1;

  const ReplayResult clean =
      Replay(workload, options, nullptr, 0, 0);

  faults::FaultSpec spec;
  spec.seed = fault_seed;
  spec.at(faults::FaultSite::kGreedyRound).throw_probability = 1.0;
  faults::FaultInjector injector(spec);
  injector.Disarm();  // armed only inside the burst window
  engine::EngineOptions faulted_options = options;
  faulted_options.fault_injector = &injector;
  const ReplayResult faulted =
      Replay(workload, faulted_options, &injector, burst_start,
             burst_epochs);

  // Mean relative bandwidth excess over the epochs that ended on a
  // failure streak.
  double overhead_sum = 0.0;
  std::size_t failing_epochs = 0;
  for (std::size_t e = 0; e < epochs; ++e) {
    if (faulted.streak_per_epoch[e] == 0) continue;
    ++failing_epochs;
    if (clean.bandwidth_per_epoch[e] > 0.0) {
      overhead_sum += faulted.bandwidth_per_epoch[e] /
                          clean.bandwidth_per_epoch[e] -
                      1.0;
    }
  }
  const double overhead =
      failing_epochs > 0 ? overhead_sum / static_cast<double>(failing_epochs)
                         : 0.0;

  // Epochs from disarm until a clean re-solve ends the streak.
  const std::size_t burst_end = burst_start + burst_epochs;
  std::ptrdiff_t recovery_epochs = -1;
  for (std::size_t e = burst_end; e < epochs; ++e) {
    if (faulted.streak_per_epoch[e] == 0) {
      recovery_epochs = static_cast<std::ptrdiff_t>(e - burst_end) + 1;
      break;
    }
  }
  const bool recovered = recovery_epochs >= 0;

  std::cout << "fault_recovery: " << flows << " prefill flows, " << epochs
            << " epochs, burst [" << burst_start << ", " << burst_end
            << "), k=" << k << ", seed=" << seed << ", fault-seed="
            << fault_seed << "\n"
            << "  backoff_reached     " << faulted.backoff_reached << "\n"
            << "  failing_epochs      " << failing_epochs << "\n"
            << "  bandwidth_overhead  " << overhead << "\n"
            << "  recovery_epochs     " << recovery_epochs << "\n"
            << "  always_feasible     " << faulted.always_feasible << "\n"
            << "  resolve_failures    " << faulted.stats.resolve_failures
            << "\n";

  if (!json_out.empty()) {
    std::ofstream out(json_out);
    if (!out) {
      std::cerr << "fault_recovery: cannot write " << json_out << "\n";
      return;
    }
    JsonWriter json(out);
    json.Field("bench", "fault_recovery");
    json.Field("flows", flows);
    json.Field("epochs", epochs);
    json.Field("k", k);
    json.Field("lambda", lambda);
    json.Field("seed", seed);
    json.Field("fault_seed", fault_seed);
    json.Field("burst_start", burst_start);
    json.Field("burst_epochs", burst_epochs);
    json.Field("backoff_reached", faulted.backoff_reached);
    json.Field("failing_epochs", failing_epochs);
    json.Field("degraded_bandwidth_overhead", overhead);
    json.Field("recovery_epochs", recovery_epochs);
    json.Field("recovered", recovered);
    json.Field("always_feasible", faulted.always_feasible);
    json.Field("resolve_failures", faulted.stats.resolve_failures);
    json.Field("resolve_retries", faulted.stats.resolve_retries);
    EmitHistogramMs(json, "clean_epoch", clean.epoch_ns);
    EmitHistogramMs(json, "faulted_epoch", faulted.epoch_ns);
  }
}

}  // namespace
}  // namespace tdmd::bench

int main(int argc, char** argv) {
  using namespace tdmd;
  ArgParser parser(
      "fault_recovery",
      "Backoff round trip under an injected fault burst: bandwidth "
      "overhead of serving on patches alone, and epochs until a clean "
      "re-solve ends the failure streak after the burst.");
  const auto* size = parser.AddInt("size", 24, "general topology size");
  const auto* flows = parser.AddInt("flows", 2000, "prefill flow count");
  const auto* epochs = parser.AddInt("epochs", 24, "churn epochs");
  const auto* k = parser.AddInt("k", 8, "middlebox budget");
  const auto* lambda = parser.AddDouble("lambda", 0.5, "traffic ratio");
  const auto* churn = parser.AddDouble(
      "churn-fraction", 0.05,
      "per-epoch arrivals (fraction of --flows) and departure probability");
  const auto* seed = parser.AddInt(
      "seed", 1, "workload seed (same generator as bench/engine_churn)");
  const auto* fault_seed = parser.AddInt(
      "fault-seed", 1,
      "FaultInjector seed; same seed replays the same fault sequence");
  const auto* burst_start =
      parser.AddInt("burst-start", 6, "first epoch of the fault burst");
  const auto* burst_epochs =
      parser.AddInt("burst-epochs", 8, "length of the fault burst");
  const auto* json_out = parser.AddString(
      "json-out", "BENCH_robustness.json",
      "path for the JSON summary (empty string disables)");
  parser.Parse(argc, argv);
  bench::Run(static_cast<VertexId>(*size),
             static_cast<std::size_t>(*flows),
             static_cast<std::size_t>(*epochs),
             static_cast<std::size_t>(*k), *lambda, *churn,
             static_cast<std::uint64_t>(*seed),
             static_cast<std::uint64_t>(*fault_seed),
             static_cast<std::size_t>(*burst_start),
             static_cast<std::size_t>(*burst_epochs), *json_out);
  return 0;
}
