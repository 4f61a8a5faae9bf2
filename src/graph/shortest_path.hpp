// Shortest hop-count paths.
//
// Flow paths in the paper are "predetermined and valid" (Section 3.1); the
// evaluation routes each flow along a shortest path from its source to the
// destination.  Since links are unweighted, BFS suffices, but a Dijkstra
// variant with per-arc weights is provided for weighted topologies
// (e.g. geographic latencies in the Ark-like generator).
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "graph/digraph.hpp"

namespace tdmd::graph {

/// A path as an ordered vertex sequence; path.front() is the source and
/// path.back() the destination.  |p_f| (edge count) = vertices.size() - 1.
struct Path {
  std::vector<VertexId> vertices;

  std::size_t NumEdges() const {
    return vertices.empty() ? 0 : vertices.size() - 1;
  }
  bool empty() const { return vertices.empty(); }
};

/// Shortest (fewest hops) path from `source` to `target`, or nullopt if
/// unreachable.  Deterministic: ties broken toward lower vertex ids.
std::optional<Path> ShortestHopPath(const Digraph& g, VertexId source,
                                    VertexId target);

/// Single-source weighted shortest paths (non-negative arc weights,
/// indexed by EdgeId).  Returns distance vector with +inf for unreachable
/// vertices and a parent-arc vector for path recovery.
struct WeightedSsspResult {
  std::vector<double> dist;
  std::vector<EdgeId> parent_arc;
};
WeightedSsspResult Dijkstra(const Digraph& g, VertexId source,
                            const std::vector<double>& arc_weight);

/// Recovers the path to `target` from a Dijkstra result; nullopt if
/// unreachable.
std::optional<Path> RecoverPath(const Digraph& g,
                                const WeightedSsspResult& sssp,
                                VertexId source, VertexId target);

/// Validates that `path` is a real walk in `g` (every consecutive pair is
/// an arc) with no repeated vertices.
bool IsSimplePath(const Digraph& g, std::span<const VertexId> path);
inline bool IsSimplePath(const Digraph& g, const Path& path) {
  return IsSimplePath(g, std::span<const VertexId>(path.vertices));
}

}  // namespace tdmd::graph
