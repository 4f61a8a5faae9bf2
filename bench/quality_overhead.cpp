// Quality-sampling overhead bench (ISSUE: quality observability).
//
// Replays the same seeded churn workload through the synchronous engine
// with quality sampling on and off (both untraced, so the cost measured
// is the sampler itself: the per-publish O(|P| + |churn|) sample build,
// the ring push and the detector updates).  Each side runs --repeats
// times and keeps its minimum churn-phase wall time; the budget is
// overhead_fraction < 0.05 per epoch (DESIGN.md Section 11).
//
// Emits BENCH_quality.json (wall times, overhead_fraction, sample and
// alert counts) for the CI artifact.  --max-overhead turns the budget
// into a hard gate for local runs (exit 1 when exceeded); CI uploads the
// artifact instead of gating, because shared runners are too noisy for a
// 5% latency bound.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/args.hpp"
#include "engine/engine.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "scenario.hpp"

namespace tdmd::bench {
namespace {

/// Churn-phase wall time of one full replay; the prefill batch is
/// warm-up.  Constructs a fresh engine so repeats are independent.
/// `timeline` (optional) receives the final quality snapshot.
double ReplayMs(const ChurnWorkload& w,
                const engine::EngineOptions& options,
                obs::QualityTimelineSnapshot* timeline) {
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
  if (timeline != nullptr) *timeline = eng.QualityTimeline();
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

  double off_ms = 0.0;
  double on_ms = 0.0;
  obs::QualityTimelineSnapshot timeline;
  for (std::size_t r = 0; r < repeats; ++r) {
    // Alternate which side runs first so cache/frequency warm-up cannot
    // systematically favour one of them.
    for (int leg = 0; leg < 2; ++leg) {
      const bool sampling = (leg == 0) == (r % 2 == 0);
      engine::EngineOptions side = options;
      side.quality_sampling = sampling;
      if (sampling) {
        const double ms = ReplayMs(workload, side, &timeline);
        on_ms = on_ms == 0.0 ? ms : std::min(on_ms, ms);
      } else {
        const double ms = ReplayMs(workload, side, nullptr);
        off_ms = off_ms == 0.0 ? ms : std::min(off_ms, ms);
      }
    }
  }

  const double overhead = off_ms > 0.0 ? on_ms / off_ms - 1.0 : 0.0;
  std::cout << "quality_overhead: " << flows << " prefill flows, "
            << epochs << " epochs, k=" << k << ", seed=" << seed
            << ", repeats=" << repeats << "\n"
            << "  sampling off  " << off_ms << " ms (min of " << repeats
            << ")\n"
            << "  sampling on   " << on_ms << " ms ("
            << timeline.samples_total << " samples, "
            << timeline.alerts_raised_total << " alerts raised)\n"
            << "  overhead      " << overhead * 100.0 << "%\n";

  if (!json_out.empty()) {
    std::ofstream out(json_out);
    if (!out) {
      std::cerr << "quality_overhead: cannot write " << json_out << "\n";
    } else {
      JsonWriter json(out);
      json.Field("bench", "quality_overhead");
      json.Field("flows", flows);
      json.Field("epochs", epochs);
      json.Field("k", k);
      json.Field("lambda", lambda);
      json.Field("seed", seed);
      json.Field("repeats", repeats);
      json.Field("sampling_off_wall_ms", off_ms);
      json.Field("sampling_on_wall_ms", on_ms);
      json.Field("overhead_fraction", overhead);
      json.Field("overhead_budget", 0.05);
      json.Field("quality_samples", timeline.samples_total);
      json.Field("alerts_raised", timeline.alerts_raised_total);
    }
  }
  if (max_overhead > 0.0 && overhead > max_overhead) {
    std::cerr << "quality_overhead: overhead " << overhead
              << " exceeds --max-overhead " << max_overhead << "\n";
    std::exit(1);
  }
}

}  // namespace
}  // namespace tdmd::bench

int main(int argc, char** argv) {
  using namespace tdmd;
  ArgParser parser(
      "quality_overhead",
      "Quality-sampling overhead on the synchronous engine churn replay: "
      "the same workload with quality sampling on and off, min wall time "
      "over --repeats runs per side.");
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
      "json-out", "BENCH_quality.json",
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
