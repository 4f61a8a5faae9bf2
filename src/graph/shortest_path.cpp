#include "graph/shortest_path.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <unordered_set>

#include "graph/traversal.hpp"

namespace tdmd::graph {

std::optional<Path> ShortestHopPath(const Digraph& g, VertexId source,
                                    VertexId target) {
  TDMD_CHECK(g.IsValidVertex(source) && g.IsValidVertex(target));
  // BFS with deterministic tie-breaking: because BreadthFirst scans
  // out-arcs in CSR (insertion) order and only sets the first parent, the
  // resulting path is a function of the builder's arc insertion order.
  const BfsResult bfs = BreadthFirst(g, source);
  if (bfs.dist[static_cast<std::size_t>(target)] < 0) return std::nullopt;
  Path path;
  for (VertexId v = target; v != kInvalidVertex;
       v = bfs.parent[static_cast<std::size_t>(v)]) {
    path.vertices.push_back(v);
  }
  std::reverse(path.vertices.begin(), path.vertices.end());
  TDMD_DCHECK(path.vertices.front() == source);
  return path;
}

WeightedSsspResult Dijkstra(const Digraph& g, VertexId source,
                            const std::vector<double>& arc_weight) {
  TDMD_CHECK(g.IsValidVertex(source));
  TDMD_CHECK_MSG(arc_weight.size() == static_cast<std::size_t>(g.num_arcs()),
                 "arc_weight size mismatch");
  const auto n = static_cast<std::size_t>(g.num_vertices());
  WeightedSsspResult result;
  result.dist.assign(n, std::numeric_limits<double>::infinity());
  result.parent_arc.assign(n, kInvalidEdge);

  using Entry = std::pair<double, VertexId>;  // (distance, vertex)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  result.dist[static_cast<std::size_t>(source)] = 0.0;
  heap.emplace(0.0, source);
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > result.dist[static_cast<std::size_t>(u)]) continue;  // stale
    for (EdgeId e : g.OutArcs(u)) {
      const double w = arc_weight[static_cast<std::size_t>(e)];
      TDMD_DCHECK(w >= 0.0);
      const VertexId v = g.arc(e).head;
      const double candidate = d + w;
      if (candidate < result.dist[static_cast<std::size_t>(v)]) {
        result.dist[static_cast<std::size_t>(v)] = candidate;
        result.parent_arc[static_cast<std::size_t>(v)] = e;
        heap.emplace(candidate, v);
      }
    }
  }
  return result;
}

std::optional<Path> RecoverPath(const Digraph& g,
                                const WeightedSsspResult& sssp,
                                VertexId source, VertexId target) {
  if (sssp.dist[static_cast<std::size_t>(target)] ==
      std::numeric_limits<double>::infinity()) {
    return std::nullopt;
  }
  Path path;
  VertexId v = target;
  path.vertices.push_back(v);
  while (v != source) {
    const EdgeId e = sssp.parent_arc[static_cast<std::size_t>(v)];
    TDMD_CHECK_MSG(e != kInvalidEdge, "broken parent chain in SSSP result");
    v = g.arc(e).tail;
    path.vertices.push_back(v);
  }
  std::reverse(path.vertices.begin(), path.vertices.end());
  return path;
}

bool IsSimplePath(const Digraph& g, std::span<const VertexId> path) {
  if (path.empty()) return false;
  std::unordered_set<VertexId> seen;
  for (VertexId v : path) {
    if (!g.IsValidVertex(v)) return false;
    if (!seen.insert(v).second) return false;
  }
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    if (g.FindArc(path[i], path[i + 1]) == kInvalidEdge) {
      return false;
    }
  }
  return true;
}

}  // namespace tdmd::graph
