// Shared scenario construction for the figure benches.
//
// Defaults follow Section 6.1: tree size 22 / general size 30, k = 8
// (tree) / 10 (general), lambda = 0.5, flow density 0.5, Ark-like base
// topology, CAIDA-like rates.  Each figure bench overrides exactly the
// knob it sweeps, as the paper does ("each simulation tests one variable
// and keeps other variables constant").
#pragma once

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

#include "common/args.hpp"
#include "common/rng.hpp"
#include "core/tdmd.hpp"
#include "engine/churn_trace.hpp"
#include "experiment/sweep.hpp"
#include "experiment/timer.hpp"
#include "graph/tree.hpp"
#include "obs/histogram.hpp"
#include "traffic/generator.hpp"

namespace tdmd::bench {

struct ScenarioParams {
  VertexId tree_size = 22;
  VertexId general_size = 30;
  std::size_t tree_k = 8;
  std::size_t general_k = 10;
  double lambda = 0.5;
  double flow_density = 0.5;
  /// Per-link capacity in the density denominator.  Tuned so the default
  /// density yields workloads the pseudo-polynomial DP handles quickly
  /// (total integral rate a few hundred).
  double tree_link_capacity = 60.0;
  double general_link_capacity = 40.0;
  Rate max_rate = 12;
};

struct TreeScenario {
  graph::Tree tree;
  core::Instance instance;
};

struct GeneralScenario {
  core::Instance instance;
};

/// Builds the Ark-derived tree scenario (topology + merged workload).
TreeScenario MakeTreeScenario(const ScenarioParams& params, Rng& rng);

/// Builds the Ark-derived general scenario (destination = vertex 0, the
/// extraction seed — the paper's red node).
GeneralScenario MakeGeneralScenario(const ScenarioParams& params, Rng& rng);

/// Runs one algorithm and captures (bandwidth, wall seconds, feasible).
template <typename AlgoFn>
experiment::Measurement Measure(AlgoFn&& algo) {
  experiment::Timer timer;
  const core::PlacementResult result = algo();
  experiment::Measurement m;
  m.seconds = timer.ElapsedSeconds();
  m.bandwidth = result.bandwidth;
  m.feasible = result.feasible;
  return m;
}

/// The five tree-topology algorithms of Figs. 9-12, in the paper's legend
/// order: Random, Best-effort, GTP, HAT, DP.
std::vector<experiment::Measurement> RunTreeAlgorithms(
    const TreeScenario& scenario, std::size_t k, Rng& rng);
extern const std::vector<std::string> kTreeAlgorithmNames;

/// The three general-topology algorithms of Figs. 13-16: Random,
/// Best-effort, GTP.
std::vector<experiment::Measurement> RunGeneralAlgorithms(
    const GeneralScenario& scenario, std::size_t k, Rng& rng);
extern const std::vector<std::string> kGeneralAlgorithmNames;

/// Standard bench flags (--trials, --seed, --threads, --csv); returns the
/// parsed config with x filled in by the caller.
struct BenchFlags {
  const std::int64_t* trials;
  const std::int64_t* seed;
  const std::int64_t* threads;
  const bool* csv;
};
BenchFlags AddBenchFlags(ArgParser& parser);

experiment::SweepConfig MakeSweepConfig(const BenchFlags& flags,
                                        std::string x_name,
                                        std::vector<double> x_values);

/// Prints tables (and CSV when --csv) for a finished sweep.
void Emit(const std::string& figure, const experiment::SweepResult& result,
          bool csv);

/// One seeded engine-bench workload: an Ark-derived general topology, a
/// prefill batch, and a pre-drawn churn trace over it.  Shared by
/// bench/engine_churn, bench/fault_recovery and bench/obs_overhead so
/// equal seeds replay identical workloads across all three.
struct ChurnWorkload {
  graph::Digraph network;
  traffic::FlowSet prefill;
  engine::ChurnTrace trace;
};

/// `churn_fraction` sets both the per-epoch arrival count (as a fraction
/// of `flows`) and the per-flow departure probability.
ChurnWorkload BuildChurnWorkload(VertexId size, std::size_t flows,
                                 std::size_t epochs, double churn_fraction,
                                 std::uint64_t seed);

/// One epoch of the regionalized shard workload: pre-drawn arrivals and
/// departures named by arrival sequence number (the engine::ChurnEpoch
/// convention).
using ShardEpoch = engine::ChurnEpoch;

/// Regionalized churn workload for bench/shard_scaling: `regions`
/// farthest-point hubs carve the topology into Voronoi regions, every
/// flow runs from a region vertex to its own hub, and each epoch's churn
/// is confined to region `epoch % regions`.  That is the workload shape
/// sharding targets — locality keeps per-shard ground sets disjoint, so
/// an N-shard fleet skips the untouched shards each epoch (cross-shard
/// pinning is exercised by the shard tests, not the scaling bench).
struct ShardWorkload {
  graph::Digraph network;
  std::vector<VertexId> hubs;
  traffic::FlowSet prefill;
  std::vector<ShardEpoch> epochs;
};

ShardWorkload BuildShardWorkload(VertexId size, std::size_t flows,
                                 std::size_t epochs, std::size_t regions,
                                 std::uint64_t seed);

/// The churn benches' from-scratch reference.  Replays `epochs` over the
/// `initial` flows and, after each epoch, rebuilds a core::Instance from
/// the live flows in arrival order and runs budgeted feasibility-aware
/// GTP on it.  `on_epoch(result, solve_ns)` receives each epoch's plan
/// and the wall time of that rebuild and solve.
void ReplayFromScratch(
    const graph::Digraph& network, const traffic::FlowSet& initial,
    const std::vector<engine::ChurnEpoch>& epochs, std::size_t k,
    double lambda,
    const std::function<void(const core::PlacementResult&, std::uint64_t)>&
        on_epoch);

/// Flat single-object JSON emitter for the BENCH_*.json CI artifacts.
/// Writes `{` on construction, one `"key": value` pair per Field call,
/// and the closing `}` on destruction.  Keys and string values must not
/// need escaping (bench identifiers only).
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os) : os_(os) { os_ << "{"; }
  ~JsonWriter() { os_ << "\n}\n"; }
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  void Field(const std::string& key, const std::string& value) {
    Key(key);
    os_ << '"' << value << '"';
  }
  void Field(const std::string& key, const char* value) {
    Field(key, std::string(value));
  }
  void Field(const std::string& key, bool value) {
    Key(key);
    os_ << (value ? "true" : "false");
  }
  void Field(const std::string& key, double value) {
    Key(key);
    os_ << value;
  }
  template <typename T,
            std::enable_if_t<std::is_integral_v<T> &&
                                 !std::is_same_v<T, bool>,
                             int> = 0>
  void Field(const std::string& key, T value) {
    Key(key);
    if constexpr (std::is_signed_v<T>) {
      os_ << static_cast<long long>(value);
    } else {
      os_ << static_cast<unsigned long long>(value);
    }
  }
  /// Array field: `"key": [v0, v1, ...]`.
  void Field(const std::string& key, const std::vector<double>& values) {
    Key(key);
    os_ << '[';
    for (std::size_t i = 0; i < values.size(); ++i) {
      os_ << (i == 0 ? "" : ", ") << values[i];
    }
    os_ << ']';
  }

 private:
  void Key(const std::string& key) {
    os_ << (first_ ? "\n  " : ",\n  ") << '"' << key << "\": ";
    first_ = false;
  }

  std::ostream& os_;
  bool first_ = true;
};

/// Emits a latency histogram as `<prefix>_count` plus
/// `<prefix>_{p50,p95,p99,max}_ms` fields.
inline void EmitHistogramMs(JsonWriter& json, const std::string& prefix,
                            const obs::LatencyHistogram& histogram) {
  const obs::HistogramSummary summary = histogram.Summarize();
  json.Field(prefix + "_count", summary.count);
  json.Field(prefix + "_p50_ms", static_cast<double>(summary.p50) / 1e6);
  json.Field(prefix + "_p95_ms", static_cast<double>(summary.p95) / 1e6);
  json.Field(prefix + "_p99_ms", static_cast<double>(summary.p99) / 1e6);
  json.Field(prefix + "_max_ms", static_cast<double>(summary.max) / 1e6);
}

/// One fleet-size row of bench/shard_scaling.
struct ShardRunSummary {
  std::size_t shards = 1;
  double wall_ms = 0.0;
  double events_per_sec = 0.0;
  /// vs the 1-shard run on the identical trace.
  double speedup = 1.0;
  double bandwidth = 0.0;
  /// (bandwidth - single-engine bandwidth) / single-engine bandwidth.
  double bandwidth_gap_pct = 0.0;
  bool feasible = false;
  bool cert_valid = false;
  double cert_bound = 0.0;
  std::size_t boxes = 0;
  /// Median wall time of five Snapshot() calls on the drained fleet.
  double snapshot_ms = 0.0;
  obs::LatencyHistogram epoch_latency;
};

/// Emits one ShardRunSummary as `shards<N>_*` fields (histogram included
/// via EmitHistogramMs), so every fleet size shares one shape instead of
/// each bench hand-rolling the quantile fields.
inline void EmitShardSummary(JsonWriter& json, const ShardRunSummary& run) {
  const std::string prefix = "shards" + std::to_string(run.shards);
  json.Field(prefix + "_wall_ms", run.wall_ms);
  json.Field(prefix + "_events_per_sec", run.events_per_sec);
  json.Field(prefix + "_speedup", run.speedup);
  json.Field(prefix + "_bandwidth", run.bandwidth);
  json.Field(prefix + "_bandwidth_gap_pct", run.bandwidth_gap_pct);
  json.Field(prefix + "_feasible", run.feasible);
  json.Field(prefix + "_cert_valid", run.cert_valid);
  json.Field(prefix + "_cert_bound", run.cert_bound);
  json.Field(prefix + "_boxes", run.boxes);
  json.Field(prefix + "_snapshot_ms", run.snapshot_ms);
  EmitHistogramMs(json, prefix + "_epoch", run.epoch_latency);
}

}  // namespace tdmd::bench
