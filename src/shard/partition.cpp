#include "shard/partition.hpp"

// tdmd-lint: hot-path — see the header note; the construction-time code
// here stays clean too so the whole TU passes the rule.

#include <algorithm>
#include <limits>
#include <queue>

#include "common/check.hpp"

namespace tdmd::shard {
namespace {

/// Undirected adjacency (out-arcs plus reversed out-arcs, deduplicated
/// implicitly by the BFS visit check).  Region growing must not depend
/// on arc orientation: a vertex reachable only against arc direction
/// still belongs to the nearest region.
std::vector<std::vector<VertexId>> UndirectedAdjacency(
    const graph::Digraph& g) {
  const auto num = static_cast<std::size_t>(g.num_vertices());
  std::vector<std::vector<VertexId>> adj(num);
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (EdgeId e : g.OutArcs(u)) {
      const VertexId w = g.arc(e).head;
      adj[static_cast<std::size_t>(u)].push_back(w);
      adj[static_cast<std::size_t>(w)].push_back(u);
    }
  }
  // Sorted neighbor order makes the BFS frontier order (and so every
  // tie-break downstream) independent of arc insertion order.
  for (auto& neighbors : adj) {
    std::sort(neighbors.begin(), neighbors.end());
    neighbors.erase(std::unique(neighbors.begin(), neighbors.end()),
                    neighbors.end());
  }
  return adj;
}

/// Hop distances from `source` over `adj`; unreachable stays -1.
std::vector<std::int32_t> BfsDistances(
    const std::vector<std::vector<VertexId>>& adj, VertexId source) {
  std::vector<std::int32_t> dist(adj.size(), -1);
  std::queue<VertexId> frontier;
  dist[static_cast<std::size_t>(source)] = 0;
  frontier.push(source);
  while (!frontier.empty()) {
    const VertexId u = frontier.front();
    frontier.pop();
    for (VertexId w : adj[static_cast<std::size_t>(u)]) {
      if (dist[static_cast<std::size_t>(w)] < 0) {
        dist[static_cast<std::size_t>(w)] =
            dist[static_cast<std::size_t>(u)] + 1;
        frontier.push(w);
      }
    }
  }
  return dist;
}

/// Iterated farthest-point seeds: start from `first`, then repeatedly add
/// the vertex maximizing the distance to the nearest chosen seed (lowest
/// id on ties).  The classic k-center heuristic; deterministic.
std::vector<VertexId> FarthestPointSeeds(
    const std::vector<std::vector<VertexId>>& adj, VertexId first,
    std::size_t count) {
  std::vector<VertexId> seeds{first};
  std::vector<std::int32_t> nearest = BfsDistances(adj, first);
  while (seeds.size() < count) {
    VertexId best = 0;
    std::int32_t best_dist = std::numeric_limits<std::int32_t>::min();
    for (std::size_t v = 0; v < adj.size(); ++v) {
      // Unreachable vertices (disconnected graphs) sort as infinitely
      // far, so every component receives a seed before any component is
      // split twice.
      const std::int32_t d = nearest[v] < 0
                                 ? std::numeric_limits<std::int32_t>::max()
                                 : nearest[v];
      if (d > best_dist) {
        best_dist = d;
        best = static_cast<VertexId>(v);
      }
    }
    seeds.push_back(best);
    const std::vector<std::int32_t> dist = BfsDistances(adj, best);
    for (std::size_t v = 0; v < adj.size(); ++v) {
      if (dist[v] >= 0 && (nearest[v] < 0 || dist[v] < nearest[v])) {
        nearest[v] = dist[v];
      }
    }
  }
  return seeds;
}

/// Multi-source BFS Voronoi regions: every vertex joins its nearest
/// seed, ties toward the lowest seed index.  Seeds are enqueued in index
/// order and a vertex is claimed exactly once (strict first-claim), which
/// realizes the tie-break without distance comparisons.
std::vector<std::uint32_t> GrowRegions(
    const std::vector<std::vector<VertexId>>& adj,
    const std::vector<VertexId>& seeds) {
  constexpr std::uint32_t kUnassigned =
      std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> region(adj.size(), kUnassigned);
  std::queue<VertexId> frontier;
  for (std::size_t s = 0; s < seeds.size(); ++s) {
    const auto v = static_cast<std::size_t>(seeds[s]);
    if (region[v] == kUnassigned) {
      region[v] = static_cast<std::uint32_t>(s);
      frontier.push(seeds[s]);
    }
  }
  while (!frontier.empty()) {
    const VertexId u = frontier.front();
    frontier.pop();
    for (VertexId w : adj[static_cast<std::size_t>(u)]) {
      if (region[static_cast<std::size_t>(w)] == kUnassigned) {
        region[static_cast<std::size_t>(w)] =
            region[static_cast<std::size_t>(u)];
        frontier.push(w);
      }
    }
  }
  // Vertices in components that hold no seed: deterministic round-robin
  // so every vertex has an owner (a flow can only visit them if some
  // path does, and that path's owner shard serves it).
  std::uint32_t next = 0;
  for (auto& r : region) {
    if (r == kUnassigned) {
      r = next;
      next = (next + 1) % static_cast<std::uint32_t>(seeds.size());
    }
  }
  return region;
}

/// Recursive median cut: splits `vertices` into `num_cells` contiguous
/// coordinate cells, alternating the cut axis toward the wider spread.
/// Cell ids are assigned in recursion order; ties in the sort key break
/// by vertex id, so the cut is deterministic.
void MedianCut(std::vector<VertexId>& vertices, std::size_t begin,
               std::size_t end, std::size_t num_cells,
               std::uint32_t first_cell, const std::vector<double>& x,
               const std::vector<double>& y,
               std::vector<std::uint32_t>& cell_of) {
  if (num_cells == 1) {
    for (std::size_t i = begin; i < end; ++i) {
      cell_of[static_cast<std::size_t>(vertices[i])] = first_cell;
    }
    return;
  }
  double min_x = std::numeric_limits<double>::max(), max_x = -min_x;
  double min_y = min_x, max_y = max_x;
  for (std::size_t i = begin; i < end; ++i) {
    const auto v = static_cast<std::size_t>(vertices[i]);
    min_x = std::min(min_x, x[v]);
    max_x = std::max(max_x, x[v]);
    min_y = std::min(min_y, y[v]);
    max_y = std::max(max_y, y[v]);
  }
  const std::vector<double>& axis = (max_x - min_x >= max_y - min_y) ? x : y;
  std::sort(vertices.begin() + static_cast<std::ptrdiff_t>(begin),
            vertices.begin() + static_cast<std::ptrdiff_t>(end),
            [&axis](VertexId a, VertexId b) {
              const double ca = axis[static_cast<std::size_t>(a)];
              const double cb = axis[static_cast<std::size_t>(b)];
              if (ca != cb) return ca < cb;
              return a < b;
            });
  // Left gets floor(cells/2) cells and the proportional vertex share, so
  // uneven shard counts still produce near-equal cells.
  const std::size_t left_cells = num_cells / 2;
  const std::size_t span = end - begin;
  const std::size_t left_span = span * left_cells / num_cells;
  MedianCut(vertices, begin, begin + left_span, left_cells, first_cell, x,
            y, cell_of);
  MedianCut(vertices, begin + left_span, end, num_cells - left_cells,
            first_cell + static_cast<std::uint32_t>(left_cells), x, y,
            cell_of);
}

}  // namespace

const char* PartitionMethodName(PartitionMethod method) {
  switch (method) {
    case PartitionMethod::kBfs:
      return "bfs";
    case PartitionMethod::kSpatial:
      return "spatial";
  }
  return "unknown";
}

bool ParsePartitionMethod(const std::string& name, PartitionMethod* out) {
  if (name == "bfs") {
    *out = PartitionMethod::kBfs;
    return true;
  }
  if (name == "spatial") {
    *out = PartitionMethod::kSpatial;
    return true;
  }
  return false;
}

std::size_t Partition::ShardSize(std::size_t s) const {
  std::size_t count = 0;
  for (std::uint32_t r : shard_of) {
    if (r == s) ++count;
  }
  return count;
}

Partition PartitionGraph(const graph::Digraph& g,
                         const PartitionSpec& spec) {
  const auto num = static_cast<std::size_t>(g.num_vertices());
  TDMD_CHECK_MSG(spec.num_shards >= 1, "partition needs >= 1 shard");
  TDMD_CHECK_MSG(spec.num_shards <= num,
                 "more shards than vertices to partition");

  Partition partition;
  partition.num_shards = spec.num_shards;
  partition.method = spec.method;
  partition.seed = spec.seed;

  if (spec.num_shards == 1) {
    partition.shard_of.assign(num, 0);
    partition.anchors = {0};
    return partition;
  }

  const std::vector<std::vector<VertexId>> adj = UndirectedAdjacency(g);

  if (spec.method == PartitionMethod::kBfs) {
    std::vector<VertexId> seeds;
    if (!spec.seeds.empty()) {
      TDMD_CHECK_MSG(spec.seeds.size() % spec.num_shards == 0,
                     "explicit seeds must be a multiple of num_shards");
      for (VertexId s : spec.seeds) {
        TDMD_CHECK_MSG(g.IsValidVertex(s), "partition seed out of range");
      }
      seeds = spec.seeds;
    } else {
      // The rng seed only picks the first growth seed; everything after
      // is farthest-point deterministic.
      const auto first = static_cast<VertexId>(
          spec.seed % static_cast<std::uint64_t>(num));
      seeds = FarthestPointSeeds(adj, first, spec.num_shards);
    }
    // With m = seeds.size() / num_shards > 1, consecutive groups of m
    // seeds grow one shard's region (a shard as a union of Voronoi
    // cells).  Lets a caller who knows the workload's traffic hubs keep
    // whole hub regions on one shard at any fleet size.
    partition.shard_of = GrowRegions(adj, seeds);
    if (seeds.size() != spec.num_shards) {
      for (std::uint32_t& s : partition.shard_of) {
        s = static_cast<std::uint32_t>(
            static_cast<std::size_t>(s) * spec.num_shards / seeds.size());
      }
    }
    partition.anchors.reserve(spec.num_shards);
    const std::size_t group = seeds.size() / spec.num_shards;
    for (std::size_t s = 0; s < spec.num_shards; ++s) {
      partition.anchors.push_back(seeds[s * group]);
    }
    return partition;
  }

  // kSpatial: median cuts over supplied or landmark coordinates.
  std::vector<double> x = spec.x;
  std::vector<double> y = spec.y;
  if (x.size() != num || y.size() != num) {
    TDMD_CHECK_MSG(x.empty() && y.empty(),
                   "spatial coordinates must cover every vertex");
    // Landmark fallback: coordinates = hop distances from two far-apart
    // landmarks (seed-picked start, then its farthest vertex), which
    // embeds the hop metric well enough for contiguous cuts.
    const auto first = static_cast<VertexId>(
        spec.seed % static_cast<std::uint64_t>(num));
    const std::vector<VertexId> landmarks =
        FarthestPointSeeds(adj, first, 2);
    const std::vector<std::int32_t> dist_a =
        BfsDistances(adj, landmarks[0]);
    const std::vector<std::int32_t> dist_b =
        BfsDistances(adj, landmarks[1]);
    x.resize(num);
    y.resize(num);
    for (std::size_t v = 0; v < num; ++v) {
      x[v] = dist_a[v] < 0 ? -1.0 : static_cast<double>(dist_a[v]);
      y[v] = dist_b[v] < 0 ? -1.0 : static_cast<double>(dist_b[v]);
    }
  }
  std::vector<VertexId> vertices(num);
  for (std::size_t v = 0; v < num; ++v) {
    vertices[v] = static_cast<VertexId>(v);
  }
  partition.shard_of.assign(num, 0);
  MedianCut(vertices, 0, num, spec.num_shards, 0, x, y,
            partition.shard_of);
  partition.anchors.assign(spec.num_shards, kInvalidVertex);
  for (std::size_t v = 0; v < num; ++v) {
    VertexId& anchor = partition.anchors[partition.shard_of[v]];
    if (anchor == kInvalidVertex) anchor = static_cast<VertexId>(v);
  }
  return partition;
}

namespace {

/// Writes the shards `flow`'s path touches, in first-touch order, to
/// `touched` and returns their count.  Paths are short (graph diameter),
/// so a linear scan beats any set structure.
std::size_t ScanTouched(const Partition& partition, const traffic::Flow& flow,
                        std::uint32_t (&touched)[64]) {
  std::size_t num_touched = 0;
  for (VertexId v : flow.path.vertices) {
    const std::uint32_t s = partition.shard(v);
    if (num_touched < 64 &&
        std::find(touched, touched + num_touched, s) == touched + num_touched) {
      touched[num_touched++] = s;
    }
  }
  return num_touched;
}

}  // namespace

std::size_t OwnerShard(const Partition& partition,
                       const traffic::Flow& flow, std::uint64_t flow_id,
                       std::size_t* touched_out) {
  std::uint32_t touched[64];
  const std::size_t num_touched = ScanTouched(partition, flow, touched);
  TDMD_CHECK_MSG(num_touched > 0, "flow with an empty path has no owner");
  if (touched_out != nullptr) *touched_out = num_touched;
  return touched[flow_id % num_touched];
}

std::size_t ShardsTouched(const Partition& partition,
                          const traffic::Flow& flow) {
  std::uint32_t touched[64];
  return ScanTouched(partition, flow, touched);
}

}  // namespace tdmd::shard
