// Micro-benchmarks (google-benchmark) for the substrate layers: LCA
// build/query, tree DP, HAT, GTP marginal oracle, link simulation and the
// thread pool.  These track the constants behind the complexity claims
// (Theorems 3, 5, 6) rather than reproducing a paper figure.
#include <benchmark/benchmark.h>

#include <atomic>

#include "common/rng.hpp"
#include "core/tdmd.hpp"
#include "graph/lca.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/link_sim.hpp"
#include "topology/generators.hpp"
#include "traffic/generator.hpp"

namespace tdmd {
namespace {

struct TreeFixture {
  graph::Tree tree;
  core::Instance instance;

  static TreeFixture Make(VertexId size, std::uint64_t seed) {
    Rng rng(seed);
    graph::Tree tree = topology::RandomBoundedTree(size, 3, rng);
    traffic::WorkloadParams params;
    params.flow_density = 0.5;
    params.link_capacity = 40.0;
    params.rates.max_rate = 10;
    traffic::FlowSet flows = traffic::MergeSameSourceFlows(
        traffic::GenerateTreeWorkload(tree, params, rng));
    core::Instance instance = core::MakeTreeInstance(tree, flows, 0.5);
    return TreeFixture{std::move(tree), std::move(instance)};
  }
};

void BM_LcaBuild(benchmark::State& state) {
  Rng rng(1);
  const graph::Tree tree =
      topology::RandomTree(static_cast<VertexId>(state.range(0)), rng);
  for (auto _ : state) {
    graph::LcaIndex index(tree);
    benchmark::DoNotOptimize(index);
  }
}
BENCHMARK(BM_LcaBuild)->Arg(64)->Arg(256)->Arg(1024);

void BM_LcaQuery(benchmark::State& state) {
  Rng rng(2);
  const auto n = static_cast<VertexId>(state.range(0));
  const graph::Tree tree = topology::RandomTree(n, rng);
  const graph::LcaIndex index(tree);
  VertexId u = 0, v = n / 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.Query(u, v));
    u = (u + 7) % n;
    v = (v + 13) % n;
  }
}
BENCHMARK(BM_LcaQuery)->Arg(256)->Arg(4096);

void BM_TreeDp(benchmark::State& state) {
  const TreeFixture fixture =
      TreeFixture::Make(static_cast<VertexId>(state.range(0)), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::DpTree(fixture.instance, fixture.tree, 8));
  }
}
BENCHMARK(BM_TreeDp)->Arg(16)->Arg(22)->Arg(32)->Unit(
    benchmark::kMillisecond);

void BM_Hat(benchmark::State& state) {
  const TreeFixture fixture =
      TreeFixture::Make(static_cast<VertexId>(state.range(0)), 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::Hat(fixture.instance, fixture.tree, 8));
  }
}
BENCHMARK(BM_Hat)->Arg(16)->Arg(22)->Arg(32)->Unit(
    benchmark::kMillisecond);

struct GeneralFixture {
  core::Instance instance;

  static GeneralFixture Make(VertexId size, std::uint64_t seed) {
    Rng rng(seed);
    graph::Digraph g = topology::Waxman(size, 0.4, 0.4, rng);
    traffic::WorkloadParams params;
    params.flow_density = 0.5;
    params.link_capacity = 30.0;
    traffic::FlowSet flows =
        traffic::GenerateGeneralWorkload(g, {0}, params, rng);
    return GeneralFixture{
        core::Instance(std::move(g), std::move(flows), 0.5)};
  }
};

void BM_GtpPlain(benchmark::State& state) {
  const GeneralFixture fixture =
      GeneralFixture::Make(static_cast<VertexId>(state.range(0)), 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::Gtp(fixture.instance));
  }
}
BENCHMARK(BM_GtpPlain)->Arg(30)->Arg(60)->Unit(benchmark::kMillisecond);

void BM_GtpLazy(benchmark::State& state) {
  const GeneralFixture fixture =
      GeneralFixture::Make(static_cast<VertexId>(state.range(0)), 5);
  core::GtpOptions options;
  options.lazy = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::Gtp(fixture.instance, options));
  }
}
BENCHMARK(BM_GtpLazy)->Arg(30)->Arg(60)->Unit(benchmark::kMillisecond);

void BM_MarginalOracle(benchmark::State& state) {
  const GeneralFixture fixture = GeneralFixture::Make(50, 6);
  core::ServedState served(fixture.instance);
  served.Deploy(1);
  VertexId v = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(served.MarginalDecrement(v));
    v = (v + 1) % fixture.instance.num_vertices();
  }
}
BENCHMARK(BM_MarginalOracle);

void BM_LinkSimulation(benchmark::State& state) {
  const GeneralFixture fixture =
      GeneralFixture::Make(static_cast<VertexId>(state.range(0)), 7);
  const core::PlacementResult gtp = core::Gtp(fixture.instance);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::SimulateLinkLoads(fixture.instance, gtp.deployment));
  }
}
BENCHMARK(BM_LinkSimulation)->Arg(30)->Arg(60);

void BM_ThreadPoolFanout(benchmark::State& state) {
  parallel::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    std::atomic<std::int64_t> sum{0};
    parallel::ParallelFor(pool, 0, 1024, [&](std::size_t i) {
      sum += static_cast<std::int64_t>(i % 13);
    });
    benchmark::DoNotOptimize(sum.load());
  }
}
BENCHMARK(BM_ThreadPoolFanout)->Arg(1)->Arg(4);

}  // namespace
}  // namespace tdmd

BENCHMARK_MAIN();
