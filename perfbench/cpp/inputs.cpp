#include "inputs.hpp"

#include <algorithm>
#include <queue>

#include "topology/ark.hpp"
#include "traffic/generator.hpp"

namespace perfbench {

using tdmd::EdgeId;
using tdmd::VertexId;

namespace {

/// Multi-source BFS hop distances (out-arc direction) from `sources`;
/// region[v] is the index of the source that reached v first.
void BfsFrom(const tdmd::graph::Digraph& g,
             const std::vector<VertexId>& sources, std::vector<int>* dist,
             std::vector<int>* region) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  dist->assign(n, -1);
  region->assign(n, -1);
  std::queue<VertexId> frontier;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const auto s = static_cast<std::size_t>(sources[i]);
    if ((*dist)[s] == 0) continue;
    (*dist)[s] = 0;
    (*region)[s] = static_cast<int>(i);
    frontier.push(sources[i]);
  }
  while (!frontier.empty()) {
    const VertexId u = frontier.front();
    frontier.pop();
    const auto su = static_cast<std::size_t>(u);
    for (EdgeId e : g.OutArcs(u)) {
      const auto w = static_cast<std::size_t>(g.arc(e).head);
      if ((*dist)[w] >= 0) continue;
      (*dist)[w] = (*dist)[su] + 1;
      (*region)[w] = (*region)[su];
      frontier.push(g.arc(e).head);
    }
  }
}

}  // namespace

RegionalNetwork MakeRegionalNetwork(VertexId size, std::size_t hubs,
                                    tdmd::Rng& rng) {
  tdmd::topology::ArkParams params;
  params.num_monitors = std::max<VertexId>(3 * size, 90);
  const tdmd::topology::ArkTopology ark =
      tdmd::topology::GenerateArk(params, rng);
  RegionalNetwork out;
  out.network = tdmd::topology::ExtractGeneralSubgraph(ark, size, rng);

  // Farthest-point centres: start at vertex 0 (the extraction seed), then
  // repeatedly add the vertex farthest from every centre so far.
  std::vector<int> dist;
  out.hubs.push_back(0);
  while (out.hubs.size() < hubs) {
    BfsFrom(out.network, out.hubs, &dist, &out.region);
    const auto farthest = std::max_element(dist.begin(), dist.end());
    out.hubs.push_back(static_cast<VertexId>(farthest - dist.begin()));
  }
  BfsFrom(out.network, out.hubs, &dist, &out.region);
  out.sources.resize(hubs);
  for (VertexId v = 0; v < out.network.num_vertices(); ++v) {
    const int r = out.region[static_cast<std::size_t>(v)];
    if (r >= 0 && out.hubs[static_cast<std::size_t>(r)] != v) {
      out.sources[static_cast<std::size_t>(r)].push_back(v);
    }
  }
  return out;
}

const tdmd::graph::Path* PathStore::Get(VertexId src, VertexId dst) {
  const auto key = std::make_pair(src, dst);
  auto it = paths_.find(key);
  if (it == paths_.end()) {
    std::optional<tdmd::graph::Path> path =
        tdmd::graph::ShortestHopPath(network_, src, dst);
    it = paths_.emplace(key, path.value_or(tdmd::graph::Path{})).first;
  }
  return it->second.NumEdges() == 0 ? nullptr : &it->second;
}

bool DrawFlow(PathStore& paths, VertexId src, VertexId dst, tdmd::Rng& rng,
              DrawnFlow* out) {
  const tdmd::graph::Path* path = paths.Get(src, dst);
  if (path == nullptr) return false;
  out->flow.src = src;
  out->flow.dst = dst;
  out->flow.rate = rng.NextInt(1, kMaxRate);
  out->flow.path = *path;
  out->ref = FlowRef{out->flow.rate, path};
  return true;
}

std::vector<TreeCase> MakeTreeRound(VertexId min_size, VertexId max_size,
                                    std::uint64_t seed) {
  tdmd::Rng rng(seed);
  std::vector<VertexId> sizes;
  for (VertexId size = min_size; size <= max_size; ++size) {
    sizes.push_back(size);
  }
  rng.Shuffle(sizes);

  // The paper's tree workload (Section 6.1 defaults of the figure
  // benches): flow density 0.5 against a per-link capacity of 60.
  tdmd::traffic::WorkloadParams workload;
  workload.flow_density = 0.5;
  workload.link_capacity = 60.0;
  workload.rates.max_rate = kMaxRate;

  std::vector<TreeCase> cases;
  cases.reserve(sizes.size());
  tdmd::topology::ArkTopology ark;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    // One Ark infrastructure serves eight consecutive extractions; each
    // extraction grows its tree around a fresh random seed monitor.
    if (i % 8 == 0) {
      tdmd::topology::ArkParams params;
      params.num_monitors = 3 * max_size;
      ark = tdmd::topology::GenerateArk(params, rng);
    }
    tdmd::graph::Tree tree =
        tdmd::topology::ExtractTreeSubgraph(ark, sizes[i], rng);
    tdmd::traffic::FlowSet flows = tdmd::traffic::MergeSameSourceFlows(
        tdmd::traffic::GenerateTreeWorkload(tree, workload, rng));
    cases.push_back(TreeCase{std::move(tree), std::move(flows)});
  }
  return cases;
}

}  // namespace perfbench
