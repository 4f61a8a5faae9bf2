// tdmd_cli — command-line front end for the library.
//
//   tdmd_cli generate --kind=tree --size=22 --density=0.5 --lambda=0.5
//            --out=instance.tdmd [--tree-out=topology.tree]
//       Generates an Ark-derived topology + CAIDA-like workload and
//       writes a self-contained instance file.
//
//   tdmd_cli solve --instance=instance.tdmd --algorithm=dp --k=8
//            [--tree=topology.tree] [--out=plan.tdmd]
//       Runs one of: dp | hat | gtp | gtp-derive | best-effort | random
//       and prints the placement, bandwidth and timing.  dp/hat need the
//       tree file.
//
//   tdmd_cli simulate --instance=instance.tdmd --plan=plan.tdmd
//       Replays the flows link-by-link under a saved deployment and
//       prints per-arc occupancy.
//
//   tdmd_cli serve-trace --instance=instance.tdmd --k=8 --epochs=20
//            [--seed=1]
//            [--fault-seed=7 --fault-throw-p=0.1 --deadline-ms=50]
//            [--checkpoint-every=5 --checkpoint-out=engine.ckpt]
//            [--restore=engine.ckpt]
//            [--metrics-out=metrics.prom] [--trace-out=trace.json]
//            [--quality-out=quality.txt]
//            [--prof-out=profile.collapsed --prof-hz=997]
//       Feeds the instance's flows to the online placement engine, then
//       serves a seeded churn trace through it epoch by epoch, printing
//       each published snapshot and the engine counters.  Optional fault
//       injection, re-solve deadlines, periodic checkpoints and restart
//       from a checkpoint (DESIGN.md Section 9).  --metrics-out writes
//       the counters + latency quantiles as Prometheus text (and the
//       same data as <path>.json); --trace-out records structured spans
//       into a Chrome trace_event JSON; --quality-out writes the engine's
//       quality timeline (realized ratio per epoch + fired regression
//       alerts, DESIGN.md Section 11); --prof-out writes the sampling
//       profiler's collapsed stacks.  `report` summarizes all of them.
//
//   tdmd_cli serve-trace ... --shards=4 [--partition=bfs|spatial]
//       Same churn replay, served by the sharded multi-engine fleet
//       (DESIGN.md Section 13): the topology is partitioned
//       deterministically, every flow is pinned to one owner shard, and
//       the global budget k is reallocated across shards on epoch
//       boundaries.  --checkpoint-out/--restore switch to the
//       `shardfleet v1` container format; --metrics-out dumps the merged
//       fleet exposition; --trace-out records the fleet's causal trace —
//       every batch's spans share a batch id and a flow-event chain.
//
//   tdmd_cli report [--trace=trace.json] [--profile=profile.collapsed]
//            [--metrics=fleet.prom]
//       Summarizes a serve-trace run's artifacts, one section per input
//       (at least one is required).  --trace: the per-phase table (event
//       counts, total/mean/max span time, share of wall time, and a
//       `partial:` line when the tracer's rings dropped events); then the
//       quality timeline (epoch/ratio series + alert edges) when the trace
//       holds quality samples; then, for a sharded trace, every batch's
//       submit -> dequeue -> patch -> adopt critical path (connected
//       fraction, e2e quantiles, dominant stage, per-shard stragglers;
//       DESIGN.md Section 15).  --profile: the per-phase self/total
//       sample table plus the attributed-sample fraction (the raw file is
//       flamegraph.pl input).  --metrics: a sharded dump's per-shard
//       budget split, bandwidth and certificate, plus the fleet roll-up.
//
//   tdmd_cli info --instance=instance.tdmd
//       Prints instance statistics.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/args.hpp"
#include "common/rng.hpp"
#include "core/tdmd.hpp"
#include "engine/checkpoint.hpp"
#include "engine/churn_trace.hpp"
#include "engine/engine.hpp"
#include "faults/faults.hpp"
#include "experiment/timer.hpp"
#include "io/dot_export.hpp"
#include "io/text_format.hpp"
#include "obs/fleet_report.hpp"
#include "obs/metrics.hpp"
#include "obs/prof_report.hpp"
#include "obs/profiler.hpp"
#include "obs/quality.hpp"
#include "obs/quality_report.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "obs/trace_report.hpp"
#include "shard/fleet_io.hpp"
#include "shard/partition.hpp"
#include "shard/sharded_engine.hpp"
#include "sim/link_sim.hpp"
#include "topology/ark.hpp"
#include "traffic/generator.hpp"

namespace tdmd::cli {
namespace {

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "tdmd_cli: %s\n", message.c_str());
  std::exit(1);
}

int Generate(int argc, char** argv) {
  ArgParser parser("tdmd_cli generate", "generate an instance file");
  const auto* kind =
      parser.AddString("kind", "tree", "topology kind: tree | general");
  const auto* size = parser.AddInt("size", 22, "topology size");
  const auto* density = parser.AddDouble("density", 0.5, "flow density");
  const auto* lambda =
      parser.AddDouble("lambda", 0.5, "traffic-changing ratio");
  const auto* capacity =
      parser.AddDouble("capacity", 60.0, "per-link capacity");
  const auto* max_rate = parser.AddInt("max-rate", 12, "rate ceiling");
  const auto* seed = parser.AddInt("seed", 42, "rng seed");
  const auto* out = parser.AddString("out", "instance.tdmd",
                                     "output instance path");
  const auto* tree_out = parser.AddString(
      "tree-out", "", "also write the tree topology here (kind=tree)");
  parser.Parse(argc, argv);

  Rng rng(static_cast<std::uint64_t>(*seed));
  topology::ArkParams ark_params;
  ark_params.num_monitors =
      std::max<VertexId>(static_cast<VertexId>(*size) * 3, 90);
  const topology::ArkTopology ark = topology::GenerateArk(ark_params, rng);

  traffic::WorkloadParams workload;
  workload.flow_density = *density;
  workload.link_capacity = *capacity;
  workload.rates.max_rate = *max_rate;

  if (*kind == "tree") {
    const graph::Tree tree = topology::ExtractTreeSubgraph(
        ark, static_cast<VertexId>(*size), rng);
    const traffic::FlowSet flows = traffic::MergeSameSourceFlows(
        traffic::GenerateTreeWorkload(tree, workload, rng));
    const core::Instance instance =
        core::MakeTreeInstance(tree, flows, *lambda);
    if (!io::WriteFile(*out, [&](std::ostream& os) {
          io::WriteInstance(os, instance);
        })) {
      Die("cannot write " + *out);
    }
    if (!tree_out->empty() &&
        !io::WriteFile(*tree_out, [&](std::ostream& os) {
          io::WriteTree(os, tree);
        })) {
      Die("cannot write " + *tree_out);
    }
    std::printf("wrote %s: tree, %d vertices, %d flows, lambda %.2f\n",
                out->c_str(), instance.num_vertices(),
                instance.num_flows(), instance.lambda());
  } else if (*kind == "general") {
    graph::Digraph g = topology::ExtractGeneralSubgraph(
        ark, static_cast<VertexId>(*size), rng);
    traffic::FlowSet flows =
        traffic::GenerateGeneralWorkload(g, {0}, workload, rng);
    const core::Instance instance(std::move(g), std::move(flows), *lambda);
    if (!io::WriteFile(*out, [&](std::ostream& os) {
          io::WriteInstance(os, instance);
        })) {
      Die("cannot write " + *out);
    }
    std::printf("wrote %s: general, %d vertices, %d flows, lambda %.2f\n",
                out->c_str(), instance.num_vertices(),
                instance.num_flows(), instance.lambda());
  } else {
    Die("unknown --kind '" + *kind + "' (tree | general)");
  }
  return 0;
}

int Solve(int argc, char** argv) {
  ArgParser parser("tdmd_cli solve", "run a placement algorithm");
  const auto* instance_path =
      parser.AddString("instance", "instance.tdmd", "instance file");
  const auto* algorithm = parser.AddString(
      "algorithm", "gtp",
      "dp | hat | gtp | gtp-derive | best-effort | random");
  const auto* k = parser.AddInt("k", 8, "middlebox budget");
  const auto* tree_path = parser.AddString(
      "tree", "", "tree topology file (required for dp/hat)");
  const auto* out =
      parser.AddString("out", "", "write the deployment plan here");
  const auto* seed = parser.AddInt("seed", 1, "rng seed (random)");
  parser.Parse(argc, argv);

  auto instance = io::ReadInstanceFile(*instance_path);
  if (!instance.ok()) Die(instance.error);

  core::PlacementResult result;
  experiment::Timer timer;
  if (*algorithm == "dp" || *algorithm == "hat") {
    if (tree_path->empty()) {
      Die("--tree is required for " + *algorithm);
    }
    auto tree = io::ReadTreeFile(*tree_path);
    if (!tree.ok()) Die(tree.error);
    timer.Restart();
    result = *algorithm == "dp"
                 ? core::DpTree(*instance.value, *tree.value,
                                static_cast<std::size_t>(*k))
                 : core::Hat(*instance.value, *tree.value,
                             static_cast<std::size_t>(*k));
  } else if (*algorithm == "gtp") {
    core::GtpOptions options;
    options.max_middleboxes = static_cast<std::size_t>(*k);
    options.feasibility_aware = true;
    timer.Restart();
    result = core::Gtp(*instance.value, options);
  } else if (*algorithm == "gtp-derive") {
    timer.Restart();
    result = core::Gtp(*instance.value);
  } else if (*algorithm == "best-effort") {
    timer.Restart();
    result = core::BestEffort(*instance.value,
                              static_cast<std::size_t>(*k));
  } else if (*algorithm == "random") {
    Rng rng(static_cast<std::uint64_t>(*seed));
    core::RandomPlacementOptions options;
    options.k = static_cast<std::size_t>(*k);
    timer.Restart();
    result = core::RandomPlacement(*instance.value, options, rng);
  } else {
    Die("unknown --algorithm '" + *algorithm + "'");
  }
  const double elapsed = timer.ElapsedSeconds();

  std::printf("algorithm : %s\n", algorithm->c_str());
  std::printf("placement : %s (%zu middleboxes)\n",
              result.deployment.ToString().c_str(),
              result.deployment.size());
  std::printf("bandwidth : %.3f (no-deployment: %.3f, floor: %.3f)\n",
              result.bandwidth, instance.value->UnprocessedBandwidth(),
              instance.value->MinimumPossibleBandwidth());
  std::printf("feasible  : %s\n", result.feasible ? "yes" : "NO");
  std::printf("time      : %.6f s\n", elapsed);

  if (!out->empty()) {
    if (!io::WriteFile(*out, [&](std::ostream& os) {
          io::WriteDeployment(os, result.deployment);
        })) {
      Die("cannot write " + *out);
    }
    std::printf("plan written to %s\n", out->c_str());
  }
  return result.feasible ? 0 : 3;
}

int Simulate(int argc, char** argv) {
  ArgParser parser("tdmd_cli simulate",
                   "replay flows under a saved deployment");
  const auto* instance_path =
      parser.AddString("instance", "instance.tdmd", "instance file");
  const auto* plan_path =
      parser.AddString("plan", "plan.tdmd", "deployment file");
  const auto* top = parser.AddInt("top", 10, "show the N busiest links");
  parser.Parse(argc, argv);

  auto instance = io::ReadInstanceFile(*instance_path);
  if (!instance.ok()) Die(instance.error);
  std::ifstream plan_stream(*plan_path);
  if (!plan_stream) Die("cannot open '" + *plan_path + "'");
  auto plan = io::ReadDeployment(plan_stream,
                                 instance.value->num_vertices());
  if (!plan.ok()) Die(*plan_path + ": " + plan.error);

  const sim::LinkLoadReport report =
      sim::SimulateLinkLoads(*instance.value, *plan.value);
  std::printf("total occupied bandwidth : %.3f\n", report.total);
  std::printf("peak link load           : %.3f\n", report.peak);
  std::printf("unserved flows           : %d\n", report.unserved_flows);

  // Busiest links.
  std::vector<std::pair<Bandwidth, EdgeId>> loads;
  for (EdgeId e = 0;
       e < static_cast<EdgeId>(report.arc_load.size()); ++e) {
    loads.emplace_back(report.arc_load[static_cast<std::size_t>(e)], e);
  }
  std::sort(loads.rbegin(), loads.rend());
  std::printf("\nbusiest links:\n");
  for (std::size_t i = 0;
       i < std::min<std::size_t>(loads.size(),
                                 static_cast<std::size_t>(*top));
       ++i) {
    const graph::Arc& a = instance.value->network().arc(loads[i].second);
    std::printf("  %d -> %d : %.3f\n", a.tail, a.head, loads[i].first);
  }
  return 0;
}

int Viz(int argc, char** argv) {
  ArgParser parser("tdmd_cli viz",
                   "export topology + deployment as Graphviz DOT");
  const auto* instance_path =
      parser.AddString("instance", "instance.tdmd", "instance file");
  const auto* plan_path =
      parser.AddString("plan", "", "deployment file (optional)");
  const auto* out = parser.AddString("out", "plan.dot", "DOT output path");
  const auto* hide_idle =
      parser.AddBool("hide-idle", false, "drop zero-load edges");
  parser.Parse(argc, argv);

  auto instance = io::ReadInstanceFile(*instance_path);
  if (!instance.ok()) Die(instance.error);
  core::Deployment deployment(instance.value->num_vertices());
  if (!plan_path->empty()) {
    std::ifstream plan_stream(*plan_path);
    if (!plan_stream) Die("cannot open '" + *plan_path + "'");
    auto plan = io::ReadDeployment(plan_stream,
                                   instance.value->num_vertices());
    if (!plan.ok()) Die(*plan_path + ": " + plan.error);
    deployment = std::move(*plan.value);
  }
  io::DotOptions options;
  options.hide_idle_edges = *hide_idle;
  if (!io::WriteFile(*out, [&](std::ostream& os) {
        io::WriteDot(os, *instance.value, deployment, options);
      })) {
    Die("cannot write " + *out);
  }
  std::printf("wrote %s (render with: dot -Tsvg %s -o plan.svg)\n",
              out->c_str(), out->c_str());
  return 0;
}

/// serve-trace's engine flags as engine options, shared by both serve
/// paths (a fleet takes k as its total budget and splits it).
engine::EngineOptions ServeEngineOptions(const core::Instance& inst,
                                         std::size_t k,
                                         double move_threshold,
                                         double resolve_churn_fraction,
                                         int deadline_ms) {
  engine::EngineOptions options;
  options.k = k;
  options.lambda = inst.lambda();
  options.move_threshold = move_threshold;
  options.resolve_churn_fraction = resolve_churn_fraction;
  options.solve_deadline = std::chrono::milliseconds(deadline_ms);
  return options;
}

/// serve-trace's --fault-* flags as the engine-site fault plan (index
/// deltas and greedy rounds), shared by both serve paths; empty when
/// --fault-seed is 0.
std::optional<faults::FaultSpec> EngineFaultSpec(std::uint64_t seed,
                                                 double throw_p,
                                                 double delay_p,
                                                 int delay_ms,
                                                 double cancel_p) {
  if (seed == 0) return std::nullopt;
  faults::FaultSpec spec;
  spec.seed = seed;
  spec.at(faults::FaultSite::kIndexDelta).throw_probability = throw_p;
  faults::SiteSpec& round = spec.at(faults::FaultSite::kGreedyRound);
  round.throw_probability = throw_p;
  round.delay_probability = delay_p;
  round.delay = std::chrono::milliseconds(delay_ms);
  round.cancel_probability = cancel_p;
  return spec;
}

/// Everything serve-trace needs to hand the sharded path, pre-parsed.
struct ShardedServeParams {
  std::size_t shards = 1;
  std::string partition = "bfs";
  bool partition_given = false;  // --partition was on the command line
  /// Every shard's engine template; k is the fleet's total budget.
  engine::EngineOptions engine;
  std::optional<faults::FaultSpec> engine_faults;
  std::size_t epochs = 20;
  std::size_t arrival_count = 5;
  double departure_probability = 0.15;
  std::uint64_t seed = 1;
  std::size_t checkpoint_every = 0;
  std::string checkpoint_out;
  std::string restore;
  std::string metrics_out;
  bool supervise = false;
  std::size_t queue_depth = 0;
  int backpressure_deadline_ms = 20;
  std::size_t kill_shard_at = 0;  // 1-based epoch; 0 = never
  std::size_t kill_shard = 0;
  std::string trace_out;
  std::string prof_out;
  std::uint32_t prof_hz = obs::Profiler::kDefaultSampleHz;
};

/// Uninstalls the profiler, drains its rings and writes the collapsed
/// stacks (shared by the single-engine and sharded serve-trace paths).
void FinishProfile(obs::Profiler& profiler, const std::string& prof_out) {
  obs::InstallProfiler(nullptr);  // sampling stops; hooks no-op from here
  const obs::ProfDrainResult drained = profiler.Drain();
  if (!io::WriteFile(prof_out, [&](std::ostream& os) {
        obs::WriteCollapsedProfile(os, drained);
      })) {
    Die("cannot write " + prof_out);
  }
  std::printf("profile    : %llu samples @%u Hz from %zu threads "
              "(%llu dropped, %llu orphaned) -> %s (analyze with: "
              "tdmd_cli report --profile=%s)\n",
              static_cast<unsigned long long>(drained.samples),
              drained.sample_hz, drained.num_threads,
              static_cast<unsigned long long>(drained.dropped),
              static_cast<unsigned long long>(drained.orphaned),
              prof_out.c_str(), prof_out.c_str());
}

/// Uninstalls the tracer, drains its rings and writes the Chrome trace
/// (shared by the single-engine and sharded serve-trace paths).
void FinishTrace(obs::Tracer& tracer, const std::string& trace_out) {
  obs::InstallTracer(nullptr);  // hooks no-op from here on
  const obs::TraceDrainResult drained = tracer.Drain();
  if (!io::WriteFile(trace_out, [&](std::ostream& os) {
        obs::WriteChromeTrace(os, drained);
      })) {
    Die("cannot write " + trace_out);
  }
  std::printf("trace      : %zu events from %zu threads (%llu dropped) "
              "-> %s (analyze with: tdmd_cli report --trace=%s)\n",
              drained.events.size(), drained.num_threads,
              static_cast<unsigned long long>(drained.dropped),
              trace_out.c_str(), trace_out.c_str());
}

int ServeTraceSharded(const core::Instance& inst,
                      const ShardedServeParams& params) {
  shard::ShardedEngineOptions options;
  if (!shard::ParsePartitionMethod(params.partition,
                                   &options.partition.method)) {
    Die("unknown --partition '" + params.partition +
        "' (expected bfs or spatial)");
  }
  options.partition.num_shards = params.shards;
  options.partition.seed = params.seed;
  options.engine = params.engine;
  options.total_budget = params.engine.k;
  // A restored fleet takes its partition from the checkpoint, so --seed
  // drives only the churn, as it does for a single engine.  Flags that
  // contradict the record are user errors, diagnosed before any fleet
  // exists.
  std::optional<shard::FleetCheckpoint> restored;
  if (!params.restore.empty()) {
    auto checkpoint = shard::ReadFleetCheckpointFile(params.restore);
    if (!checkpoint.ok()) Die(checkpoint.error);
    restored = std::move(checkpoint.value);
    if (restored->num_shards != params.shards) {
      Die("--shards=" + std::to_string(params.shards) +
          " contradicts the checkpoint's " +
          std::to_string(restored->num_shards) + " shards");
    }
    if (params.partition_given &&
        restored->method != options.partition.method) {
      Die("--partition=" + params.partition +
          " contradicts the checkpoint's " +
          shard::PartitionMethodName(restored->method) + " partition");
    }
    std::size_t budget = 0;
    for (const std::size_t b : restored->budgets) budget += b;
    if (budget != params.engine.k) {
      Die("--k=" + std::to_string(params.engine.k) +
          " contradicts the checkpoint's fleet budget " +
          std::to_string(budget));
    }
    for (const engine::EngineCheckpoint& block : restored->engines) {
      if (block.num_vertices != inst.num_vertices()) {
        Die("checkpoint network size " + std::to_string(block.num_vertices) +
            " != instance network size " +
            std::to_string(inst.num_vertices()));
      }
      if (block.lambda != inst.lambda()) {
        Die("checkpoint lambda does not match the instance's lambda");
      }
    }
    options.partition.method = restored->method;
    options.partition.seed = restored->partition_seed;
  }
  // --kill-shard-at is a supervised crash drill; it implies --supervise.
  options.supervise = params.supervise || params.kill_shard_at != 0;
  options.queue_depth = params.queue_depth;
  options.backpressure_deadline =
      std::chrono::milliseconds(params.backpressure_deadline_ms);
  if (params.engine_faults.has_value()) {
    options.inject_faults = true;
    options.fault_spec = *params.engine_faults;  // shard i draws seed + i
    if (options.supervise) {
      // Supervised fleets also draw shard-layer faults at the greedy
      // round's rates: worker aborts (recovered automatically) and
      // queue-drain stalls (flagged as SHARD_DEGRADED, fed to the
      // backpressure path).
      faults::FaultSpec& spec = options.fault_spec;
      const faults::SiteSpec& round = spec.at(faults::FaultSite::kGreedyRound);
      spec.at(faults::FaultSite::kShardWorker).throw_probability =
          round.throw_probability;
      faults::SiteSpec& drain = spec.at(faults::FaultSite::kQueueDrain);
      drain.delay_probability = round.delay_probability;
      drain.delay = round.delay;
    }
  }
  // Declared before the fleet so the workers are joined before the
  // tracer's/profiler's rings go away (the obs lifecycle contract).
  std::optional<obs::Tracer> tracer;
  if (!params.trace_out.empty()) {
    tracer.emplace();
    obs::InstallTracer(&*tracer);
  }
  std::optional<obs::Profiler> profiler;
  if (!params.prof_out.empty()) {
    obs::Profiler::Options prof_options;
    prof_options.sample_hz = params.prof_hz;
    profiler.emplace(prof_options);
  }
  shard::ShardedEngine fleet(inst.network(), options);

  // Every flow's id by arrival sequence (the trace's departure
  // numbering); departed entries stay in place.
  std::vector<shard::FlowId64> handles;
  if (restored.has_value()) {
    fleet.Restore(*restored);
    handles.reserve(restored->flows.size());
    for (const shard::FleetCheckpoint::FlowEntry& entry : restored->flows) {
      handles.push_back(entry.id);
    }
    std::printf("restored %s: fleet epoch %llu, %zu active flows, "
                "%zu shards\n",
                params.restore.c_str(),
                static_cast<unsigned long long>(restored->epoch),
                handles.size(), restored->num_shards);
    restored.reset();  // the fleet holds its own copy now
  } else {
    traffic::FlowSet prefill;
    prefill.reserve(static_cast<std::size_t>(inst.num_flows()));
    for (FlowId f = 0; f < inst.num_flows(); ++f) {
      prefill.push_back(inst.flow(f));
    }
    handles = fleet.SubmitBatch(prefill, {}).flow_ids;
    std::printf("epoch %3llu  +%-4zu -0    active %zu\n",
                static_cast<unsigned long long>(1), prefill.size(),
                handles.size());
  }

  engine::ChurnModel churn;
  churn.arrival_count = params.arrival_count;
  churn.departure_probability = params.departure_probability;
  const engine::ChurnTrace trace =
      engine::BuildChurnTrace(inst.network(), churn, params.epochs,
                              handles.size(), params.seed);

  const auto write_checkpoint = [&]() {
    // Checkpoint() drains the fleet itself.
    const std::optional<shard::FleetCheckpoint> checkpoint =
        fleet.Checkpoint();
    if (!checkpoint.has_value()) {
      std::printf("checkpoint : skipped at fleet epoch %llu, a quarantined "
                  "shard's recovery crashed again; %s keeps the previous "
                  "checkpoint\n",
                  static_cast<unsigned long long>(fleet.stats().epochs),
                  params.checkpoint_out.c_str());
      return;
    }
    if (!shard::WriteFleetCheckpointFile(params.checkpoint_out,
                                         *checkpoint)) {
      Die("cannot write " + params.checkpoint_out);
    }
  };

  // Sampling starts here and stops right after the loop, so the profile
  // covers exactly the served epochs — not instance loading, churn-trace
  // synthesis, or the report writers (their samples would all be
  // unattributed noise in the profile report).
  if (profiler.has_value()) obs::InstallProfiler(&*profiler);
  std::size_t epochs_served = 0;
  std::vector<shard::FlowId64> departing;
  for (const engine::ChurnEpoch& epoch : trace.epochs) {
    departing.clear();
    for (std::size_t sequence : epoch.departures) {
      departing.push_back(handles[sequence]);
    }
    if (params.kill_shard_at != 0 &&
        epochs_served + 1 == params.kill_shard_at) {
      const std::size_t victim = params.kill_shard % params.shards;
      std::printf("epoch %3zu  crash drill: killing shard %zu\n",
                  epochs_served + 1, victim);
      fleet.CrashShard(victim);
    }
    const shard::ShardedEngine::BatchResult batch =
        fleet.SubmitBatch(epoch.arrivals, departing);
    handles.insert(handles.end(), batch.flow_ids.begin(),
                   batch.flow_ids.end());
    ++epochs_served;
    if (params.checkpoint_every > 0 &&
        epochs_served % params.checkpoint_every == 0) {
      write_checkpoint();
    }
  }
  // Stop sampling at the end of the served epochs: the profile should
  // answer "where did the serve loop's CPU go", not measure the report
  // writers below.  FinishProfile's own uninstall is then a no-op.
  if (profiler.has_value()) obs::InstallProfiler(nullptr);

  const shard::FleetSnapshot snapshot = fleet.Snapshot();
  const shard::FleetStats& stats = fleet.stats();
  std::printf("\nshard  budget boxes flows  bandwidth    cert-bound  "
              "feasible backoff\n");
  for (std::size_t s = 0; s < snapshot.shards.size(); ++s) {
    const shard::ShardStatus& st = snapshot.shards[s];
    std::printf("%5zu  %6zu %5zu %5zu %10.3f  %10.3f  %-8s %s\n", s,
                st.budget, st.boxes, st.active_flows, st.bandwidth,
                st.cert_bound, st.feasible ? "yes" : "NO",
                st.backing_off ? "yes" : "no");
  }
  std::printf("fleet      : %zu boxes union, bandwidth %.3f, feasible %s, "
              "cert %s %.3f\n",
              snapshot.deployment.size(), snapshot.bandwidth,
              snapshot.feasible ? "yes" : "NO",
              snapshot.cert_valid ? "valid" : "invalid",
              snapshot.cert_bound);
  std::printf("routing    : %llu epochs, %llu commands, %llu shard-epochs "
              "skipped, %llu cross-shard flows\n",
              static_cast<unsigned long long>(stats.epochs),
              static_cast<unsigned long long>(stats.commands_routed),
              static_cast<unsigned long long>(stats.batches_skipped),
              static_cast<unsigned long long>(stats.cross_shard_flows));
  std::printf("budget     : %llu realloc rounds, %llu adopted, "
              "%llu boxes moved\n",
              static_cast<unsigned long long>(stats.realloc_rounds),
              static_cast<unsigned long long>(stats.realloc_adoptions),
              static_cast<unsigned long long>(stats.budget_moves));
  if (options.supervise || options.queue_depth > 0) {
    std::printf("survive    : state %s, %llu crashes, %llu stalls, "
                "%llu recoveries (last %.1f ms), %llu redo replayed\n",
                shard::FleetStateName(fleet.fleet_state()),
                static_cast<unsigned long long>(stats.crashes_detected),
                static_cast<unsigned long long>(stats.stalls_detected),
                static_cast<unsigned long long>(stats.recoveries_completed),
                static_cast<double>(stats.last_recovery_ns) * 1e-6,
                static_cast<unsigned long long>(stats.redo_replayed));
    std::printf("overload   : %llu batches shed (%llu events), "
                "%llu backpressure waits, shed alert %s (cusum %.3f)\n",
                static_cast<unsigned long long>(stats.shed_batches),
                static_cast<unsigned long long>(stats.shed_events),
                static_cast<unsigned long long>(stats.backpressure_waits),
                fleet.shed_alert().active() ? "ACTIVE" : "clear",
                fleet.shed_alert().value());
  }
  if (params.checkpoint_every > 0) write_checkpoint();

  if (!params.metrics_out.empty()) {
    if (!io::WriteFile(params.metrics_out, [&](std::ostream& os) {
          fleet.DumpMetrics(os, obs::MetricsFormat::kPrometheus);
        })) {
      Die("cannot write " + params.metrics_out);
    }
    const std::string json_path = params.metrics_out + ".json";
    if (!io::WriteFile(json_path, [&](std::ostream& os) {
          fleet.DumpMetrics(os, obs::MetricsFormat::kJson);
        })) {
      Die("cannot write " + json_path);
    }
    std::printf("metrics    : %s (JSON: %s; summarize with: tdmd_cli "
                "report --metrics=%s)\n",
                params.metrics_out.c_str(), json_path.c_str(),
                params.metrics_out.c_str());
  }
  if (tracer.has_value()) FinishTrace(*tracer, params.trace_out);
  if (profiler.has_value()) FinishProfile(*profiler, params.prof_out);
  return snapshot.feasible ? 0 : 3;
}

int ServeTrace(int argc, char** argv) {
  ArgParser parser("tdmd_cli serve-trace",
                   "serve a seeded churn trace through the online engine");
  const auto* instance_path = parser.AddString(
      "instance", "instance.tdmd",
      "instance file: network + the flows live before the first epoch");
  const auto* k = parser.AddInt("k", 8, "middlebox budget");
  const auto* epochs = parser.AddInt("epochs", 20, "churn epochs to serve");
  const auto* arrival_count =
      parser.AddInt("arrivals", 5, "flow arrivals per epoch");
  const auto* departure_probability = parser.AddDouble(
      "departure-probability", 0.15,
      "per-flow departure probability per epoch");
  const auto* move_threshold = parser.AddDouble(
      "move-threshold", 0.0,
      "hysteresis: min bandwidth saving per moved middlebox before a "
      "re-solve is adopted");
  const auto* shards = parser.AddInt(
      "shards", 1,
      "partition the topology across N engine shards behind a "
      "budget-allocating coordinator (1 = classic single engine)");
  const auto* partition_name = parser.AddString(
      "partition", "bfs",
      "shard partitioner with --shards>1: bfs (region growing from "
      "farthest-point seeds) or spatial (median cuts over coordinates)");
  const auto* resolve_churn_fraction = parser.AddDouble(
      "resolve-churn-fraction", 0.0,
      "defer full re-solves until pending churn exceeds this fraction of "
      "active flows (0 = re-solve every epoch)");
  const auto* seed = parser.AddInt(
      "seed", 1,
      "rng seed of the churn trace (engine::BuildChurnTrace): equal seed, "
      "instance and churn flags replay the same arrivals and departures");
  const auto* fault_seed = parser.AddInt(
      "fault-seed", 0,
      "seed for deterministic fault injection (DESIGN.md Section 9.1); "
      "0 disables the injector entirely");
  const auto* fault_throw_p = parser.AddDouble(
      "fault-throw-p", 0.0, "per-visit injected-exception probability");
  const auto* fault_delay_p = parser.AddDouble(
      "fault-delay-p", 0.0, "per-visit injected-stall probability");
  const auto* fault_delay_ms = parser.AddInt(
      "fault-delay-ms", 1, "injected stall length in milliseconds");
  const auto* fault_cancel_p = parser.AddDouble(
      "fault-cancel-p", 0.0, "per-visit injected-cancellation probability");
  const auto* deadline_ms = parser.AddInt(
      "deadline-ms", 0,
      "per-attempt re-solve deadline in milliseconds; an expired attempt "
      "returns its greedy prefix as a degraded answer (0 = none)");
  const auto* checkpoint_every = parser.AddInt(
      "checkpoint-every", 0,
      "write an engine checkpoint every N epochs (0 disables)");
  const auto* checkpoint_out = parser.AddString(
      "checkpoint-out", "engine.ckpt",
      "checkpoint file rewritten by --checkpoint-every (engine-checkpoint "
      "v2; shardfleet v1 with --shards>1)");
  const auto* restore = parser.AddString(
      "restore", "",
      "restore the engine from this checkpoint instead of replaying the "
      "instance's flow set as a prefill batch");
  const auto* supervise = parser.AddBool(
      "supervise", false,
      "with --shards>1: heartbeat the shard workers, quarantine crashed "
      "or stalled shards and auto-recover them from per-shard recovery "
      "checkpoints plus redo-ring replay (DESIGN.md Section 14)");
  const auto* queue_depth = parser.AddInt(
      "queue-depth", 0,
      "with --shards>1: per-shard command-queue high-water mark; past it "
      "SubmitBatch blocks briefly, then sheds the batch to deferred-"
      "re-solve admission (0 = unbounded, never shed)");
  const auto* backpressure_deadline_ms = parser.AddInt(
      "backpressure-deadline-ms", 20,
      "how long a full queue blocks the submitter before shedding");
  const auto* kill_shard_at = parser.AddInt(
      "kill-shard-at", 0,
      "crash drill: inject a shard crash just before serving this epoch "
      "(1-based; 0 = never; implies --supervise)");
  const auto* kill_shard = parser.AddInt(
      "kill-shard", 0, "which shard --kill-shard-at crashes");
  const auto* metrics_out = parser.AddString(
      "metrics-out", "",
      "write final engine metrics (counters + latency quantiles) as "
      "Prometheus text here and as JSON to <path>.json");
  const auto* trace_out = parser.AddString(
      "trace-out", "",
      "record structured spans and write a Chrome trace_event JSON here "
      "(load via chrome://tracing or feed to tdmd_cli report --trace)");
  const auto* quality_out = parser.AddString(
      "quality-out", "",
      "write the engine's quality timeline (per-epoch realized ratio vs "
      "the 1-1/e floor, plus fired regression alerts) here");
  const auto* prof_out = parser.AddString(
      "prof-out", "",
      "sample the run with the in-process CPU profiler and write "
      "collapsed stacks here (feed to tdmd_cli report --profile or "
      "flamegraph.pl)");
  const auto* prof_hz = parser.AddInt(
      "prof-hz", static_cast<int>(obs::Profiler::kDefaultSampleHz),
      "profiler sample rate in Hz (with --prof-out)");
  parser.Parse(argc, argv);
  if (*prof_hz <= 0) Die("--prof-hz must be positive");

  auto instance = io::ReadInstanceFile(*instance_path);
  if (!instance.ok()) Die(instance.error);
  const core::Instance& inst = *instance.value;

  engine::EngineOptions options =
      ServeEngineOptions(inst, static_cast<std::size_t>(*k), *move_threshold,
                         *resolve_churn_fraction, *deadline_ms);
  const std::optional<faults::FaultSpec> engine_faults = EngineFaultSpec(
      static_cast<std::uint64_t>(*fault_seed), *fault_throw_p,
      *fault_delay_p, *fault_delay_ms, *fault_cancel_p);

  if (*shards > 1) {
    if (!quality_out->empty()) {
      Die("--quality-out is single-engine only; sharded runs expose "
          "per-shard state via --metrics-out + report --metrics");
    }
    ShardedServeParams params;
    params.shards = static_cast<std::size_t>(*shards);
    params.partition = *partition_name;
    params.partition_given = parser.Given("partition");
    params.engine = options;
    params.engine_faults = engine_faults;
    params.epochs = static_cast<std::size_t>(*epochs);
    params.arrival_count = static_cast<std::size_t>(*arrival_count);
    params.departure_probability = *departure_probability;
    params.seed = static_cast<std::uint64_t>(*seed);
    params.checkpoint_every = static_cast<std::size_t>(*checkpoint_every);
    params.checkpoint_out = *checkpoint_out;
    params.restore = *restore;
    params.metrics_out = *metrics_out;
    params.supervise = *supervise;
    params.queue_depth = static_cast<std::size_t>(*queue_depth);
    params.backpressure_deadline_ms = *backpressure_deadline_ms;
    params.kill_shard_at = static_cast<std::size_t>(*kill_shard_at);
    params.kill_shard = static_cast<std::size_t>(*kill_shard);
    params.trace_out = *trace_out;
    params.prof_out = *prof_out;
    params.prof_hz = static_cast<std::uint32_t>(*prof_hz);
    return ServeTraceSharded(inst, params);
  }
  // A single engine has no shards: fleet flags would be silently ignored.
  for (const char* flag : {"supervise", "queue-depth",
                           "backpressure-deadline-ms", "kill-shard-at",
                           "kill-shard", "partition"}) {
    if (parser.Given(flag)) {
      Die(std::string("--") + flag +
          " needs --shards>1; a single engine has no shards");
    }
  }

  // The injector must outlive the engine (the engine keeps a raw pointer).
  std::optional<faults::FaultInjector> injector;
  if (engine_faults.has_value()) {
    injector.emplace(*engine_faults);
    options.fault_injector = &*injector;
  }
  // Declared before the engine so the engine is destroyed before the
  // tracer's/profiler's rings go away (the obs lifecycle contract).
  std::optional<obs::Tracer> tracer;
  if (!trace_out->empty()) {
    tracer.emplace();
    obs::InstallTracer(&*tracer);
  }
  std::optional<obs::Profiler> profiler;
  if (!prof_out->empty()) {
    obs::Profiler::Options prof_options;
    prof_options.sample_hz = static_cast<std::uint32_t>(*prof_hz);
    profiler.emplace(prof_options);
  }
  engine::Engine eng(inst.network(), options);

  const auto print_snapshot = [&eng](std::size_t arrived,
                                     std::size_t departed,
                                     std::size_t patch_boxes) {
    const auto snapshot = eng.CurrentSnapshot();
    std::printf("epoch %3llu  +%-3zu -%-3zu  active %-5zu  boxes %-2zu  "
                "patch %-2zu  bandwidth %10.3f  feasible %s  (v%llu)\n",
                static_cast<unsigned long long>(snapshot->epoch), arrived,
                departed, eng.index().active_flows(),
                snapshot->deployment.size(), patch_boxes,
                snapshot->bandwidth, snapshot->feasible ? "yes" : "NO",
                static_cast<unsigned long long>(snapshot->version));
  };

  // Every flow's ticket by arrival sequence (the trace's departure
  // numbering); departed entries stay in place.
  std::vector<engine::FlowTicket> handles;
  if (!restore->empty()) {
    // Resume from a checkpoint instead of replaying the prefill batch.
    auto checkpoint = io::ReadEngineCheckpointFile(*restore);
    if (!checkpoint.ok()) Die(checkpoint.error);
    const engine::EngineCheckpoint& cp = *checkpoint.value;
    if (cp.k != options.k) {
      Die("checkpoint k " + std::to_string(cp.k) + " != --k " +
          std::to_string(options.k));
    }
    if (cp.lambda != options.lambda) {
      Die("checkpoint lambda does not match the instance's lambda");
    }
    if (cp.num_vertices != inst.num_vertices()) {
      Die("checkpoint network size " + std::to_string(cp.num_vertices) +
          " != instance network size " +
          std::to_string(inst.num_vertices()));
    }
    eng.Restore(cp);
    handles.reserve(cp.flows.records.size());
    for (const engine::ClassKeyedFlows::Record& record : cp.flows.records) {
      handles.push_back(record.ticket);
    }
    std::printf("restored %s: epoch %llu, %zu active flows, failure "
                "streak %llu\n",
                restore->c_str(),
                static_cast<unsigned long long>(cp.epoch), handles.size(),
                static_cast<unsigned long long>(
                    cp.stats.consecutive_failures));
  } else {
    // Epoch 1: the instance's own flow set arrives in one batch.
    traffic::FlowSet prefill;
    prefill.reserve(static_cast<std::size_t>(inst.num_flows()));
    for (FlowId f = 0; f < inst.num_flows(); ++f) {
      prefill.push_back(inst.flow(f));
    }
    handles = eng.SubmitBatch(prefill, {}).tickets;
    print_snapshot(prefill.size(), 0, 0);
  }

  engine::ChurnModel churn;
  churn.arrival_count = static_cast<std::size_t>(*arrival_count);
  churn.departure_probability = *departure_probability;
  const engine::ChurnTrace trace = engine::BuildChurnTrace(
      inst.network(), churn, static_cast<std::size_t>(*epochs),
      handles.size(), static_cast<std::uint64_t>(*seed));

  const auto write_checkpoint = [&]() {
    // File-level writer: atomic temp+rename plus a CRC trailer, so a
    // crash mid-write can never leave a torn checkpoint behind.
    std::string error;
    if (!io::WriteEngineCheckpointFile(*checkpoint_out, eng.Checkpoint(),
                                       {}, nullptr, &error)) {
      Die("cannot write " + *checkpoint_out + ": " + error);
    }
  };

  // Sampling starts here and stops right after the loop, so the profile
  // covers exactly the served epochs — not instance loading, churn-trace
  // synthesis, or the report writers (their samples would all be
  // unattributed noise in the profile report).
  if (profiler.has_value()) obs::InstallProfiler(&*profiler);
  std::size_t epochs_served = 0;
  std::vector<engine::FlowTicket> departing;
  for (const engine::ChurnEpoch& epoch : trace.epochs) {
    departing.clear();
    for (std::size_t sequence : epoch.departures) {
      departing.push_back(handles[sequence]);
    }
    const engine::Engine::BatchResult batch =
        eng.SubmitBatch(epoch.arrivals, departing);
    handles.insert(handles.end(), batch.tickets.begin(),
                   batch.tickets.end());
    print_snapshot(epoch.arrivals.size(), departing.size(),
                   batch.patch_boxes);
    ++epochs_served;
    if (*checkpoint_every > 0 &&
        epochs_served % static_cast<std::size_t>(*checkpoint_every) == 0) {
      write_checkpoint();
    }
  }
  // Stop sampling at the end of the served epochs: the profile should
  // answer "where did the serve loop's CPU go", not measure the report
  // writers below.  FinishProfile's own uninstall is then a no-op.
  if (profiler.has_value()) obs::InstallProfiler(nullptr);

  const auto snapshot = eng.CurrentSnapshot();
  const engine::EngineStats stats = eng.stats();
  std::printf("\nfinal      : %s (%zu middleboxes, bandwidth %.3f, "
              "feasible %s)\n",
              snapshot->deployment.ToString().c_str(),
              snapshot->deployment.size(), snapshot->bandwidth,
              snapshot->feasible ? "yes" : "NO");
  std::printf("churn      : %llu epochs, %llu arrivals, %llu departures, "
              "%llu index delta ops\n",
              static_cast<unsigned long long>(stats.epochs),
              static_cast<unsigned long long>(stats.arrivals),
              static_cast<unsigned long long>(stats.departures),
              static_cast<unsigned long long>(stats.index_delta_ops));
  std::printf("patches    : %llu epochs patched, %llu middleboxes added\n",
              static_cast<unsigned long long>(stats.patches),
              static_cast<unsigned long long>(stats.patch_boxes));
  std::printf("re-solves  : %llu started, %llu completed, "
              "%llu adopted (%llu middlebox moves)\n",
              static_cast<unsigned long long>(stats.resolves_started),
              static_cast<unsigned long long>(stats.resolves_completed),
              static_cast<unsigned long long>(stats.adoptions),
              static_cast<unsigned long long>(stats.middlebox_moves));
  std::printf("celf       : %llu gain re-evals, %llu re-evals saved, "
              "%llu snapshots published\n",
              static_cast<unsigned long long>(stats.gain_reevals),
              static_cast<unsigned long long>(stats.reevals_saved),
              static_cast<unsigned long long>(stats.snapshots_published));
  std::printf("resilience : backoff %s, failure streak %llu, "
              "%llu patch-only epochs\n",
              eng.backing_off() ? "yes" : "no",
              static_cast<unsigned long long>(stats.consecutive_failures),
              static_cast<unsigned long long>(stats.patch_only_epochs));
  std::printf("faults     : %llu index retries, %llu resolve failures, "
              "%llu timeouts, %llu retries, %llu expired adopted\n",
              static_cast<unsigned long long>(stats.index_fault_retries),
              static_cast<unsigned long long>(stats.resolve_failures),
              static_cast<unsigned long long>(stats.resolve_timeouts),
              static_cast<unsigned long long>(stats.resolve_retries),
              static_cast<unsigned long long>(
                  stats.resolves_expired_adopted));
  if (*checkpoint_every > 0) write_checkpoint();

  if (!quality_out->empty()) {
    // Render the engine's own timeline (which survives trace-ring drops)
    // through the summary and writer of report's quality section.
    const obs::QualityTimelineSnapshot timeline = eng.QualityTimeline();
    std::vector<obs::QualityReportPoint> points;
    points.reserve(timeline.samples.size());
    for (const obs::QualitySample& sample : timeline.samples) {
      points.push_back({sample.epoch, sample.realized_ratio});
    }
    std::vector<obs::QualityReportAlertRow> alerts;
    alerts.reserve(timeline.alerts.size());
    for (const obs::QualityAlert& alert : timeline.alerts) {
      alerts.push_back({obs::QualityAlertKindName(alert.kind), alert.raised,
                        alert.epoch});
    }
    const obs::QualityReport report =
        obs::SummarizeQuality(std::move(points), std::move(alerts));
    if (!io::WriteFile(*quality_out, [&](std::ostream& os) {
          obs::WriteQualityReport(os, report);
        })) {
      Die("cannot write " + *quality_out);
    }
    std::printf("quality    : %zu samples, %zu alert events -> %s\n",
                report.num_samples, report.num_alert_events,
                quality_out->c_str());
  }
  // Metrics go out while the tracer is still installed so the dump carries
  // tdmd_trace_dropped_total alongside the engine counters.
  if (!metrics_out->empty()) {
    if (!io::WriteFile(*metrics_out, [&](std::ostream& os) {
          eng.DumpMetrics(os, obs::MetricsFormat::kPrometheus);
        })) {
      Die("cannot write " + *metrics_out);
    }
    const std::string json_path = *metrics_out + ".json";
    if (!io::WriteFile(json_path, [&](std::ostream& os) {
          eng.DumpMetrics(os, obs::MetricsFormat::kJson);
        })) {
      Die("cannot write " + json_path);
    }
    std::printf("metrics    : %s (JSON: %s)\n", metrics_out->c_str(),
                json_path.c_str());
  }
  if (tracer.has_value()) FinishTrace(*tracer, *trace_out);
  if (profiler.has_value()) FinishProfile(*profiler, *prof_out);
  return snapshot->feasible ? 0 : 3;
}

int Report(int argc, char** argv) {
  ArgParser parser("tdmd_cli report",
                   "summarize a serve-trace run's artifacts, one section "
                   "per input");
  const auto* trace_path = parser.AddString(
      "trace", "",
      "Chrome trace_event JSON written by serve-trace --trace-out: phase "
      "table, then quality timeline and fleet critical paths when present");
  const auto* profile_path = parser.AddString(
      "profile", "",
      "collapsed-stack profile written by serve-trace --prof-out");
  const auto* metrics_path = parser.AddString(
      "metrics", "",
      "Prometheus text written by serve-trace --shards=N --metrics-out");
  parser.Parse(argc, argv);
  if (trace_path->empty() && profile_path->empty() &&
      metrics_path->empty()) {
    Die("report needs --trace, --profile or --metrics");
  }
  const auto open_input = [](const std::string& path) {
    std::ifstream in(path);
    if (!in) Die("cannot open '" + path + "'");
    return in;
  };

  if (!trace_path->empty()) {
    std::ifstream in = open_input(*trace_path);
    const obs::ChromeTrace trace = obs::ReadChromeTrace(in);
    if (!trace.ok) Die(*trace_path + ": " + trace.error);
    obs::WriteTraceReport(std::cout, obs::BuildTraceReport(trace));
    const auto has = [&trace](const char* name) {
      return std::any_of(trace.events.begin(), trace.events.end(),
                         [name](const obs::ChromeTraceEvent& event) {
                           return event.name == name;
                         });
    };
    if (has("quality-sample")) {
      const obs::QualityReport quality = obs::BuildQualityReport(trace);
      if (!quality.ok) Die(*trace_path + ": " + quality.error);
      obs::WriteQualityReport(std::cout, quality);
    }
    if (has("fleet-submit")) {
      const obs::FleetReport fleet = obs::BuildFleetReport(trace);
      if (!fleet.ok) Die(*trace_path + ": " + fleet.error);
      obs::WriteFleetReport(std::cout, fleet);
    }
  }
  if (!profile_path->empty()) {
    std::ifstream in = open_input(*profile_path);
    const obs::ProfReport profile = obs::BuildProfReport(in);
    if (!profile.ok) Die(*profile_path + ": " + profile.error);
    obs::WriteProfReport(std::cout, profile);
  }
  if (!metrics_path->empty()) {
    std::ifstream in = open_input(*metrics_path);
    std::string error;
    if (!obs::WriteShardSplit(in, std::cout, &error)) {
      Die(*metrics_path + ": " + error);
    }
  }
  return 0;
}

int Info(int argc, char** argv) {
  ArgParser parser("tdmd_cli info", "print instance statistics");
  const auto* instance_path =
      parser.AddString("instance", "instance.tdmd", "instance file");
  parser.Parse(argc, argv);

  auto instance = io::ReadInstanceFile(*instance_path);
  if (!instance.ok()) Die(instance.error);
  const core::Instance& inst = *instance.value;

  std::size_t total_path_edges = 0;
  Rate total_rate = 0;
  std::size_t longest = 0;
  for (FlowId f = 0; f < inst.num_flows(); ++f) {
    total_path_edges += inst.flow(f).PathEdges();
    total_rate += inst.flow(f).rate;
    longest = std::max(longest, inst.flow(f).PathEdges());
  }
  std::printf("vertices   : %d\n", inst.num_vertices());
  std::printf("arcs       : %d\n", inst.network().num_arcs());
  std::printf("flows      : %d (total rate %lld, longest path %zu, "
              "mean path %.2f)\n",
              inst.num_flows(), static_cast<long long>(total_rate),
              longest,
              inst.num_flows() > 0
                  ? static_cast<double>(total_path_edges) /
                        static_cast<double>(inst.num_flows())
                  : 0.0);
  std::printf("lambda     : %.3f\n", inst.lambda());
  std::printf("bandwidth  : %.3f unprocessed, %.3f floor\n",
              inst.UnprocessedBandwidth(),
              inst.MinimumPossibleBandwidth());
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: tdmd_cli "
                 "<generate|solve|simulate|viz|serve-trace|report|info> "
                 "[flags]\n"
                 "       tdmd_cli <command> --help\n");
    return 2;
  }
  const std::string command = argv[1];
  // Shift argv so each subcommand's parser sees its own flags.
  argv[1] = argv[0];
  if (command == "generate") return Generate(argc - 1, argv + 1);
  if (command == "solve") return Solve(argc - 1, argv + 1);
  if (command == "simulate") return Simulate(argc - 1, argv + 1);
  if (command == "viz") return Viz(argc - 1, argv + 1);
  if (command == "serve-trace") return ServeTrace(argc - 1, argv + 1);
  if (command == "report") return Report(argc - 1, argv + 1);
  if (command == "info") return Info(argc - 1, argv + 1);
  std::fprintf(stderr, "tdmd_cli: unknown command '%s'\n", command.c_str());
  return 2;
}

}  // namespace
}  // namespace tdmd::cli

int main(int argc, char** argv) { return tdmd::cli::Main(argc, argv); }
