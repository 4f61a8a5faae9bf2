// Self-tests of the benchmark: its checks go red on corrupted outputs, one
// seed repeats its deterministic metrics exactly, the sampled fleet
// snapshots do not change what the fleet computes, and ops_per_s blocks
// count only their own requests.
//
//   cmake --build .bench_build --target perfbench_selftest
//   .bench_build/perfbench_selftest
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"
#include "checks.hpp"
#include "core/dp_tree.hpp"
#include "core/gtp.hpp"
#include "core/hat.hpp"
#include "core/objective.hpp"
#include "graph/digraph.hpp"
#include "inputs.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool condition, const std::string& what) {
  if (!condition) {
    ++failures;
    std::printf("FAIL %s\n", what.c_str());
  }
}

void ExpectIssue(const CheckResult& result, const std::string& issue,
                 const std::string& what) {
  Expect(!result.ok && result.issue == issue,
         what + ": expected " + issue + ", got " +
             (result.ok ? "ok" : result.issue));
}

/// A 6-vertex bidirectional path 0-1-2-3-4-5 and flows into vertex 5.
struct Line {
  tdmd::graph::Digraph network;
  std::vector<tdmd::graph::Path> paths;
  std::vector<FlowRef> flows;
  LiveLoad load;
};

Line MakeLine() {
  tdmd::graph::DigraphBuilder arcs(6);
  for (tdmd::VertexId v = 0; v + 1 < 6; ++v) {
    arcs.AddArc(v, v + 1);
    arcs.AddArc(v + 1, v);
  }
  Line line{arcs.Build(), {}, {}, {}};
  line.paths = {{{0, 1, 2, 3, 4, 5}}, {{2, 3, 4, 5}}, {{4, 5}}};
  const tdmd::Rate rates[] = {3, 5, 2};
  for (std::size_t i = 0; i < line.paths.size(); ++i) {
    line.flows.push_back(FlowRef{rates[i], &line.paths[i]});
  }
  line.load = LiveLoad(line.flows);
  return line;
}

tdmd::core::Instance LineInstance(const Line& line) {
  tdmd::traffic::FlowSet flows;
  for (const FlowRef& ref : line.flows) {
    tdmd::traffic::Flow flow;
    flow.src = ref.path->vertices.front();
    flow.dst = ref.path->vertices.back();
    flow.rate = ref.rate;
    flow.path = *ref.path;
    flows.push_back(flow);
  }
  return tdmd::core::Instance(line.network, flows, kLambda);
}

void TestEngineChecksGoRed() {
  const Line line = MakeLine();
  const tdmd::core::Instance instance = LineInstance(line);
  // A box at every flow source serves every flow.
  const tdmd::core::Deployment good(6, {0, 2, 4});
  bool served = false;
  const tdmd::Bandwidth b =
      RecomputeBandwidth(line.load, good, kLambda, &served);
  Expect(served, "line deployment serves every flow");
  Expect(b == tdmd::core::EvaluateBandwidth(instance, good),
         "recomputed bandwidth equals the program's");
  Expect(CheckEngineDeployment(line.load, good, b, true, 3).ok,
         "valid engine snapshot passes");
  Expect(AuditFinalSnapshot(instance, good, b, true, 3).ok,
         "valid engine snapshot passes the exit audit");

  // An extra box beyond k.
  const tdmd::core::Deployment extra(6, {0, 2, 4, 5});
  const tdmd::Bandwidth extra_b =
      RecomputeBandwidth(line.load, extra, kLambda, &served);
  ExpectIssue(CheckEngineDeployment(line.load, extra, extra_b, true, 3),
              kBudgetExceeded, "extra box");
  Expect(!AuditFinalSnapshot(instance, extra, extra_b, true, 3).ok,
         "extra box fails the exit audit");

  // b off by one rate unit.
  ExpectIssue(CheckEngineDeployment(line.load, good, b + 1.0, true, 3),
              kBandwidthMismatch, "bandwidth off by one");
  Expect(!AuditFinalSnapshot(instance, good, b + 1.0, true, 3).ok,
         "bandwidth off by one fails the exit audit");

  // An unserved flow (the one sourced at 4) reported as feasible.
  const tdmd::core::Deployment hole(6, {0, 2});
  const tdmd::Bandwidth hole_b =
      RecomputeBandwidth(line.load, hole, kLambda, &served);
  Expect(!served, "the hole leaves a flow unserved");
  ExpectIssue(CheckEngineDeployment(line.load, hole, hole_b, true, 3),
              kUnservedFlow, "unserved flow");
  Expect(!AuditFinalSnapshot(instance, hole, hole_b, true, 3).ok,
         "unserved flow fails the exit audit");

  // The known deferred-re-solve defect: all k boxes in use, a flow
  // unserved, the snapshot honest about it.  Each other variant stays
  // unexplained.
  const CheckResult deferred =
      CheckEngineSnapshot(line.load, hole, hole_b, false, 2);
  ExpectIssue(deferred, kDeferredUnserved, "deferred re-solve unserved");
  Expect(deferred.known_defect, "deferred re-solve is the known defect");
  Expect(AuditFinalSnapshot(instance, hole, hole_b, false, 2, false).ok,
         "the exit audit without feasibility passes the honest hole");
  const auto unexplained = [&](const CheckResult& result,
                               const std::string& what) {
    ExpectIssue(result, kUnservedFlow, what);
    Expect(!result.known_defect, what + " is unexplained");
  };
  unexplained(CheckEngineSnapshot(line.load, hole, hole_b, true, 2),
              "hole reported feasible");
  unexplained(CheckEngineSnapshot(line.load, hole, hole_b, false, 3),
              "hole with spare budget");
  unexplained(CheckEngineSnapshot(line.load, hole, hole_b + 1.0, false, 2),
              "hole at the wrong bandwidth");
}

void TestFleetCheckClassifiesTheKnownDefect() {
  const Line line = MakeLine();
  tdmd::shard::FleetSnapshot snapshot;
  snapshot.deployment = tdmd::core::Deployment(6, {0, 2, 4});
  bool served = false;
  snapshot.bandwidth =
      RecomputeBandwidth(line.load, snapshot.deployment, kLambda, &served);
  snapshot.feasible = true;
  snapshot.shards.resize(2);
  snapshot.shards[0].budget = 2;
  snapshot.shards[0].boxes = 2;
  snapshot.shards[1].budget = 1;
  snapshot.shards[1].boxes = 1;
  Expect(CheckFleetSnapshot(line.load, snapshot, 3).ok,
         "fleet within budget passes");

  // A shard holding more boxes than its shrunk budget: the known defect.
  snapshot.shards[1].boxes = 2;
  const CheckResult overrun = CheckFleetSnapshot(line.load, snapshot, 3);
  ExpectIssue(overrun, kFleetBudgetOverrun, "fleet overrun");
  Expect(overrun.known_defect, "fleet overrun is the known defect");

  // Over K with every shard inside its own budget is not that defect.
  snapshot.shards[1].budget = 2;
  const CheckResult unexplained = CheckFleetSnapshot(line.load, snapshot, 3);
  ExpectIssue(unexplained, kBudgetExceeded, "fleet over K, shards in budget");
  Expect(!unexplained.known_defect, "over K in budget is unexplained");

  // An unserved flow outranks the overrun and is never the known defect.
  snapshot.shards[1].budget = 1;
  snapshot.deployment = tdmd::core::Deployment(6, {0, 2});
  snapshot.bandwidth =
      RecomputeBandwidth(line.load, snapshot.deployment, kLambda, &served);
  const CheckResult hole = CheckFleetSnapshot(line.load, snapshot, 3);
  ExpectIssue(hole, kUnservedFlow, "fleet unserved flow");
  Expect(!hole.known_defect, "unserved flow is unexplained");
}

void TestTreeChecksGoRed() {
  const std::vector<TreeCase> cases = MakeTreeRound(30, 33, 7);
  std::size_t dp_above_gtp = 0;
  for (const TreeCase& tree_case : cases) {
    const tdmd::core::Instance instance =
        tdmd::core::MakeTreeInstance(tree_case.tree, tree_case.flows, kLambda);
    tdmd::core::GtpOptions options;
    options.max_middleboxes = 4;
    options.feasibility_aware = true;
    const auto gtp = tdmd::core::Gtp(instance, options);
    const auto hat = tdmd::core::Hat(instance, tree_case.tree, 4);
    const auto dp = tdmd::core::DpTree(instance, tree_case.tree, 4);
    Expect(CheckTreePlans(instance, tree_case.tree, gtp, hat, dp, 4).ok,
           "real tree plans pass");

    // A coherent but worse "DP" plan: one box at the root.
    tdmd::core::PlacementResult root_only;
    root_only.deployment =
        tdmd::core::Deployment(instance.num_vertices(), {tree_case.tree.root()});
    root_only.allocation =
        tdmd::core::Allocate(instance, root_only.deployment);
    root_only.bandwidth =
        tdmd::core::EvaluateBandwidth(instance, root_only.deployment);
    root_only.feasible = true;
    if (root_only.bandwidth > gtp.bandwidth) {
      ++dp_above_gtp;
      ExpectIssue(
          CheckTreePlans(instance, tree_case.tree, gtp, hat, root_only, 4),
          kDpAboveGtp, "DP above GTP");
    }

    // An extra box beyond k on the GTP plan.
    tdmd::core::PlacementResult extra = gtp;
    for (tdmd::VertexId v = 0; extra.deployment.size() <= 4; ++v) {
      if (!extra.deployment.Contains(v)) extra.deployment.Add(v);
    }
    extra.allocation = tdmd::core::Allocate(instance, extra.deployment);
    extra.bandwidth = tdmd::core::EvaluateBandwidth(instance, extra.deployment);
    Expect(!CheckTreePlans(instance, tree_case.tree, extra, hat, dp, 4).ok,
           "tree plan with an extra box fails");

    // b off by one rate unit on the HAT plan.
    tdmd::core::PlacementResult off = hat;
    off.bandwidth += 1.0;
    Expect(!CheckTreePlans(instance, tree_case.tree, gtp, off, dp, 4).ok,
           "tree plan with b off by one fails");
  }
  Expect(dp_above_gtp > 0, "a root-only plan is worse than GTP somewhere");
}

/// The metrics that must repeat bit for bit for one seed.
struct Deterministic {
  double bw_num, bw_den;
  std::uint64_t checks, checks_failed, ops, attempted;
  std::map<std::string, double> counts;
};

Deterministic Capture(const Outcome& out,
                      const std::vector<std::string>& count_names) {
  Deterministic d{out.bw_num, out.bw_den,   out.checks,
                  out.checks_failed, out.ops, out.attempted, {}};
  for (const std::string& name : count_names) {
    d.counts[name] = out.layer.at(name);
  }
  return d;
}

void ExpectSame(const Deterministic& a, const Deterministic& b,
                const std::string& workload) {
  Expect(a.bw_num == b.bw_num && a.bw_den == b.bw_den,
         workload + ": bw_ratio repeats");
  Expect(a.checks == b.checks && a.checks_failed == b.checks_failed,
         workload + ": ok_frac repeats");
  Expect(a.ops == b.ops && a.attempted == b.attempted,
         workload + ": work repeats");
  for (const auto& [name, value] : a.counts) {
    Expect(b.counts.at(name) == value, workload + ": " + name + " repeats");
  }
}

RunOptions Traced(std::uint64_t seed) {
  RunOptions options;
  options.seed = seed;
  options.trace = true;
  return options;
}

void TestOneSeedRepeats() {
  EngineIngestConfig engine;
  engine.episodes = 2;
  engine.batches = 2 * engine.block;
  engine.setup_repeats = 1;
  const std::vector<std::string> engine_counts = {
      "engine.index_delta_ops", "engine.gain_evals_per_resolve",
      "engine.lazy_skip_ratio", "engine.adopt_ratio",
      "engine.bytes_per_flow",  "engine.flows_per_class"};
  SpanLog s1, s2;
  ExpectSame(Capture(RunEngineIngest(engine, Traced(5), s1), engine_counts),
             Capture(RunEngineIngest(engine, Traced(5), s2), engine_counts),
             "engine-ingest");

  FleetRegionalConfig fleet;
  fleet.vertices = 120;
  fleet.flows = 4000;
  fleet.episodes = 3;
  const std::vector<std::string> fleet_counts = {
      "engine.index_delta_ops", "engine.gain_evals_per_resolve",
      "engine.adopt_ratio",     "shard.skip_ratio",
      "shard.realloc_adopt_ratio", "shard.over_budget"};
  SpanLog s3, s4;
  ExpectSame(Capture(RunFleetRegional(fleet, Traced(5), s3), fleet_counts),
             Capture(RunFleetRegional(fleet, Traced(5), s4), fleet_counts),
             "fleet-regional");

  PlanTreeConfig tree;
  tree.rounds = 1;
  tree.setup_repeats = 1;
  const std::vector<std::string> tree_counts = {
      "core.gtp_oracle_calls", "core.hat_oracle_calls",
      "core.dp_oracle_calls"};
  SpanLog s5, s6;
  ExpectSame(Capture(RunPlanTree(tree, Traced(5), s5), tree_counts),
             Capture(RunPlanTree(tree, Traced(5), s6), tree_counts),
             "plan-tree");
}

void TestSampledSnapshotsChangeNothing() {
  FleetRegionalConfig fleet;
  fleet.vertices = 120;
  fleet.flows = 4000;
  fleet.episodes = 3;
  RunOptions sampled;
  sampled.seed = 9;
  RunOptions unsampled = sampled;
  unsampled.sample_fleet_snapshots = false;
  SpanLog s1, s2;
  const Outcome a = RunFleetRegional(fleet, sampled, s1);
  const Outcome b = RunFleetRegional(fleet, unsampled, s2);
  Expect(a.bw_num == b.bw_num && a.bw_den == b.bw_den,
         "sampled and unsampled fleets end at the same bandwidth");
  Expect(a.ops == b.ops, "sampled and unsampled fleets do the same work");
  Expect(a.checks > b.checks, "the sampled run checks more");
}

void TestBlockRates() {
  Outcome out;
  out.ops = 100;
  out.timed_wall_s = 1.0;
  out.CloseBlock();
  out.ops = 400;
  out.timed_wall_s = 2.0;
  out.CloseBlock();
  out.CloseBlock();  // no time since the last block: nothing recorded
  Expect(out.block_ops_per_s == std::vector<double>{100.0, 300.0},
         "a block's rate counts only its own ops and time");

  EngineIngestConfig engine;
  engine.episodes = 2;
  engine.batches = 2 * engine.block;
  engine.setup_repeats = 1;
  SpanLog spans;
  const Outcome run = RunEngineIngest(engine, RunOptions{}, spans);
  Expect(run.block_ops_per_s.size() == 4,
         "engine-ingest closes one block per re-solve cycle");
}

void TestTailPercentile() {
  Expect(TailPercentile(100) == 90.0, "tail of 100 samples is p90");
  Expect(TailPercentile(1000) == 99.0, "tail of 1000 samples is p99");
  Expect(TailPercentile(9999) == 99.0, "tail of 9999 samples is p99");
  Expect(TailPercentile(10000) == 99.9, "tail of 10000 samples is p99.9");
  Expect(Quantile({1, 2, 3, 4}, 0.5) == 2.0, "nearest-rank median");
}

}  // namespace
}  // namespace perfbench

int main() {
  using namespace perfbench;
  const std::pair<const char*, void (*)()> tests[] = {
      {"engine checks go red", TestEngineChecksGoRed},
      {"fleet check classifies the known defect",
       TestFleetCheckClassifiesTheKnownDefect},
      {"tree checks go red", TestTreeChecksGoRed},
      {"one seed repeats", TestOneSeedRepeats},
      {"sampled snapshots change nothing", TestSampledSnapshotsChangeNothing},
      {"block rates", TestBlockRates},
      {"tail percentile", TestTailPercentile},
  };
  for (const auto& [name, test] : tests) {
    const int before = failures;
    test();
    std::printf("%s %s\n", failures == before ? "ok  " : "FAIL", name);
  }
  std::printf("%s\n", failures == 0 ? "all self-tests passed"
                                    : "self-tests FAILED");
  return failures == 0 ? 0 : 1;
}
