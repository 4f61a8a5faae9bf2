// Dynamic churn bench (extension; see DESIGN.md): the stability /
// optimality trade-off of incremental re-placement.
//
// Flows arrive and depart over `--epochs` epochs on the default general
// topology.  engine::Engine serves the churn, re-solving every batch; for
// each hysteresis threshold (EngineOptions::move_threshold) we report
// mean bandwidth regret against the from-scratch re-solve
// (ReplayFromScratch) and middlebox moves per epoch: threshold 0 tracks
// the re-solve exactly but moves constantly; a large threshold freezes
// the plan and pays growing regret.
#include <array>
#include <iostream>
#include <vector>

#include "engine/churn_trace.hpp"
#include "engine/engine.hpp"
#include "experiment/stats.hpp"
#include "experiment/table.hpp"
#include "scenario.hpp"
#include "topology/ark.hpp"

namespace tdmd::bench {
namespace {

constexpr std::array<double, 5> kThresholds = {0.0, 5.0, 20.0, 80.0, 1e9};

struct ThresholdStats {
  experiment::Stats regret, moves, adoptions;
  std::size_t infeasible = 0;
};

/// Serves `trace` through an engine with `threshold` and adds every
/// epoch's regret against `resolve_bandwidth`, moves and adoption.
void ServeTrace(const graph::Digraph& network,
                const engine::ChurnTrace& trace,
                const std::vector<Bandwidth>& resolve_bandwidth,
                double threshold, ThresholdStats& out) {
  engine::EngineOptions options;
  options.k = 10;
  options.lambda = 0.5;
  options.move_threshold = threshold;
  engine::Engine eng(network, options);
  std::vector<engine::FlowTicket> handles;  // by arrival sequence
  engine::EngineStats before = eng.stats();
  for (std::size_t e = 0; e < trace.epochs.size(); ++e) {
    const engine::ChurnEpoch& epoch = trace.epochs[e];
    std::vector<engine::FlowTicket> departing;
    departing.reserve(epoch.departures.size());
    for (std::size_t sequence : epoch.departures) {
      departing.push_back(handles[sequence]);
    }
    const engine::Engine::BatchResult batch =
        eng.SubmitBatch(epoch.arrivals, departing);
    handles.insert(handles.end(), batch.tickets.begin(),
                   batch.tickets.end());

    const engine::EngineStats after = eng.stats();
    const auto snapshot = eng.CurrentSnapshot();
    if (!snapshot->feasible) ++out.infeasible;
    if (resolve_bandwidth[e] > 0.0) {
      out.regret.Add(100.0 * (snapshot->bandwidth - resolve_bandwidth[e]) /
                     resolve_bandwidth[e]);
    }
    out.moves.Add(static_cast<double>(
        batch.patch_boxes + after.middlebox_moves - before.middlebox_moves));
    out.adoptions.Add(after.adoptions > before.adoptions ? 1.0 : 0.0);
    before = after;
  }
}

void RunChurn(std::size_t trials, std::size_t epochs, std::uint64_t seed,
              bool csv) {
  std::array<ThresholdStats, kThresholds.size()> stats;
  for (std::size_t t = 0; t < trials; ++t) {
    Rng rng(seed * 9176 + t);
    topology::ArkParams ark_params;
    ark_params.num_monitors = 110;
    const topology::ArkTopology ark = topology::GenerateArk(ark_params, rng);
    const graph::Digraph network =
        topology::ExtractGeneralSubgraph(ark, 30, rng);
    engine::ChurnModel churn;
    churn.arrival_count = 8;
    churn.departure_probability = 0.2;
    const engine::ChurnTrace trace =
        engine::BuildChurnTrace(network, churn, epochs, 0, rng);

    // The regret reference does not depend on the threshold: solve it
    // once per trial.
    std::vector<Bandwidth> resolve_bandwidth;
    ReplayFromScratch(network, {}, trace.epochs, 10, 0.5,
                      [&](const core::PlacementResult& result,
                          std::uint64_t) {
                        resolve_bandwidth.push_back(result.bandwidth);
                      });
    for (std::size_t i = 0; i < kThresholds.size(); ++i) {
      ServeTrace(network, trace, resolve_bandwidth, kThresholds[i],
                 stats[i]);
    }
  }

  experiment::Table table(
      "Dynamic churn: hysteresis threshold vs regret and moves");
  table.SetHeader({"threshold", "regret %", "moves/epoch",
                   "adoptions/epoch", "infeasible epochs"});
  for (std::size_t i = 0; i < kThresholds.size(); ++i) {
    table.AddRow({experiment::FormatNumber(kThresholds[i]),
                  stats[i].regret.ToString(), stats[i].moves.ToString(),
                  stats[i].adoptions.ToString(),
                  std::to_string(stats[i].infeasible)});
  }
  table.Print(std::cout);
  if (csv) table.PrintCsv(std::cout);
}

}  // namespace
}  // namespace tdmd::bench

int main(int argc, char** argv) {
  using namespace tdmd;
  ArgParser parser("dynamic_churn",
                   "Incremental re-placement under flow churn "
                   "(stability vs optimality): engine::Engine at each "
                   "hysteresis threshold against a from-scratch GTP "
                   "re-solve every epoch, over churn traces drawn by "
                   "engine::BuildChurnTrace from --seed.");
  const bench::BenchFlags flags = bench::AddBenchFlags(parser);
  const auto* epochs = parser.AddInt("epochs", 20, "churn epochs per trial");
  parser.Parse(argc, argv);
  bench::RunChurn(static_cast<std::size_t>(*flags.trials),
                  static_cast<std::size_t>(*epochs),
                  static_cast<std::uint64_t>(*flags.seed), *flags.csv);
  return 0;
}
