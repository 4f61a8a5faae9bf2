// The three closed-loop workloads.  Each is driven by one client thread;
// a request starts only after the previous one returned and was checked.
#pragma once

#include <cstddef>

#include "bench.hpp"
#include "common/types.hpp"
#include "spans.hpp"

namespace perfbench {

/// engine-ingest: the single synchronous engine's write path.  Large churn
/// batches hit an Ark subgraph with several sinks; re-solves are deferred
/// by resolve_churn_fraction, so almost every batch is index delta plus
/// feasibility patch and one in `block` also runs a CELF re-solve.
///
/// The sizes are set by steadiness on a shared host, not by time:
///  * Working set.  A pointer chase over 4 MB (past this host's 2 MB L2)
///    swung 2x from one second to the next while 16 KB and 1 MB chases
///    held within about 10%, and at 10 000 flows (3 MB of index and
///    snapshot) this workload's timings spread 0.20-0.44 between runs of
///    the same code.  2 000 flows on 64 vertices keep the engine near
///    600 KB, still with ~8 flows per path class.
///  * Tail.  A run has over a hundred thousand requests, so the tail is
///    p99.9; a re-solve every 500th batch makes the re-solves 0.2% of the
///    requests and puts p99.9 at the median re-solve, not at the edge of
///    the re-solve mode where the host's bursts decide it.
struct EngineIngestConfig {
  tdmd::VertexId vertices = 64;
  std::size_t sinks = 4;
  std::size_t flows = 2000;
  std::size_t k = 16;
  /// Churn events per batch as a fraction of the flows (half departures,
  /// half arrivals, so the population stays constant).
  double churn = 0.08;
  /// 40 with 8% churn per batch re-solves on every 500th batch.
  double resolve_churn_fraction = 40.0;
  /// Batches per block of ops_per_s: one re-solve cycle.
  std::size_t block = 500;
  /// Independent topologies per run, each with its own set-up; many, so
  /// no one topology's costs decide a percentile.
  std::size_t episodes = 24;
  /// Batches per episode, a multiple of `block`.
  std::size_t batches = 20000;
  /// Set-ups timed per episode (engine construction to first snapshot).
  std::size_t setup_repeats = 3;

  static EngineIngestConfig ForSeconds(double seconds);
};

/// fleet-regional: shard::ShardedEngine with 2 shards (3 threads) on the
/// regional workload of bench/shard_scaling: every flow runs from a vertex
/// of one of 8 hub regions to that region's hub, and each batch's churn
/// falls in one region, so one shard re-solves and the other is skipped.
/// Budget reallocation and supervision run at their default intervals.
struct FleetRegionalConfig {
  tdmd::VertexId vertices = 200;
  std::size_t regions = 8;
  std::size_t shards = 2;
  std::size_t flows = 20000;
  std::size_t total_budget = 32;
  /// Per batch: each flow of the batch's region departs with this
  /// probability, and regional_arrivals * flows / regions flows arrive.
  double departure_probability = 0.16;
  double regional_arrivals = 0.16;
  double resolve_churn_fraction = 0.03;
  /// Independent topologies per run: whether the known budget-overrun
  /// defect strikes depends on the topology, so many short fleet
  /// lifetimes keep its rate, and with it ok_frac and bw_ratio, steady.
  std::size_t episodes = 8;
  /// Batches per episode; 32 spans two 16-epoch reallocation rounds and
  /// two checkpoint captures.  An episode is one block of ops_per_s.
  std::size_t batches = 32;
  /// A fleet Snapshot() is checked after every this many requests.
  std::size_t sample_every = 8;

  static FleetRegionalConfig ForSeconds(double seconds);
};

/// plan-tree: the offline planners of Figs. 9-12.  Each request plans one
/// distinct Ark-derived tree instance with GTP, HAT and the DP, so no
/// percentile is pinned to one instance.  The instances come in rounds
/// that hold every size of [min_size, max_size] once; each round is built
/// (the set-up), then planned, and is one block of ops_per_s.  Not in
/// BENCHMARK.json: its timings follow the host's speed most closely.  It
/// runs on request and supplies the core.* metrics of every traced run.
struct PlanTreeConfig {
  std::size_t rounds = 24;
  tdmd::VertexId min_size = 60;
  tdmd::VertexId max_size = 100;
  std::size_t k = 8;
  /// Passes over each round's construction timed for set-up.
  std::size_t setup_repeats = 3;

  static PlanTreeConfig ForSeconds(double seconds);
};

Outcome RunEngineIngest(const EngineIngestConfig& config,
                        const RunOptions& options, SpanLog& spans);
Outcome RunFleetRegional(const FleetRegionalConfig& config,
                         const RunOptions& options, SpanLog& spans);
Outcome RunPlanTree(const PlanTreeConfig& config, const RunOptions& options,
                    SpanLog& spans);

}  // namespace perfbench
