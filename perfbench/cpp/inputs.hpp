// Input generation.  Everything here is a pure function of the seed and
// belongs to the benchmark, not to the program: topologies, flows and
// churn are drawn outside every timed section, and the program receives
// only the generated flows.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "checks.hpp"
#include "common/rng.hpp"
#include "graph/digraph.hpp"
#include "graph/shortest_path.hpp"
#include "graph/tree.hpp"
#include "traffic/flow.hpp"

namespace perfbench {

/// An Ark-derived general topology carved into hub regions: `hubs` are
/// farthest-point centres and every vertex belongs to its nearest hub.
struct RegionalNetwork {
  tdmd::graph::Digraph network;
  std::vector<tdmd::VertexId> hubs;
  /// region[v] = index of v's nearest hub.
  std::vector<int> region;
  /// Non-hub vertices of each region (flow sources).
  std::vector<std::vector<tdmd::VertexId>> sources;
};

RegionalNetwork MakeRegionalNetwork(tdmd::VertexId size, std::size_t hubs,
                                    tdmd::Rng& rng);

/// Shortest-hop paths, computed once per (source, destination) and kept at
/// stable addresses, so many flows share one path record.
class PathStore {
 public:
  explicit PathStore(const tdmd::graph::Digraph& network)
      : network_(network) {}
  /// nullptr when dst is unreachable from src or src == dst.
  const tdmd::graph::Path* Get(tdmd::VertexId src, tdmd::VertexId dst);

 private:
  const tdmd::graph::Digraph& network_;
  std::map<std::pair<tdmd::VertexId, tdmd::VertexId>, tdmd::graph::Path>
      paths_;
};

/// One drawn flow: the program's input plus the benchmark's own record.
struct DrawnFlow {
  tdmd::traffic::Flow flow;
  FlowRef ref;
};

/// Flow rates are integral in [1, kMaxRate].
inline constexpr tdmd::Rate kMaxRate = 12;

/// A flow from `src` to `dst` along the stored shortest-hop path, with a
/// random rate.  False when no path exists.
bool DrawFlow(PathStore& paths, tdmd::VertexId src, tdmd::VertexId dst,
              tdmd::Rng& rng, DrawnFlow* out);

/// One Ark-derived tree instance of the offline planners (Figs. 9-12):
/// the tree and its leaf-to-root flows, merged per source leaf.
struct TreeCase {
  tdmd::graph::Tree tree;
  tdmd::traffic::FlowSet flows;
};

/// One round of distinct tree cases: one of every size in
/// [min_size, max_size], in a seeded shuffled order.
std::vector<TreeCase> MakeTreeRound(tdmd::VertexId min_size,
                                    tdmd::VertexId max_size,
                                    std::uint64_t seed);

}  // namespace perfbench
