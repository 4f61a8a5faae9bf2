// Deterministic topology partitioner for the sharded serving fleet.
//
// A Partition maps every vertex of the serving network to one of N
// shards.  Two construction methods:
//
//   * kBfs — farthest-point region growing: N seed vertices are chosen
//     by iterated farthest-point BFS (or supplied explicitly, e.g. the
//     destination hubs of a regionalized workload), then every vertex
//     joins its nearest seed's region via multi-source BFS over the
//     undirected view of the graph.  Ties break toward the lowest seed
//     index, then the lowest vertex id, so the assignment is a pure
//     function of (graph, spec) — identical across runs, machines and
//     thread counts.
//   * kSpatial — recursive median cuts over per-vertex coordinates
//     (Ark monitor positions when available).  Without coordinates the
//     partitioner falls back to landmark coordinates: hop distance from
//     two BFS landmarks, which preserves the "nearby vertices land in
//     the same shard" intent on coordinate-free graphs.
//
// Flow ownership.  A flow whose path crosses shard boundaries must be
// charged to exactly one shard (the exactly-once accounting the fleet
// tests pin).  OwnerShard collects the shards the path touches in
// first-touch order and picks touched[flow_id % touched.size()] — a
// deterministic spread that needs no coordination between submitters.
#pragma once

// tdmd-lint: hot-path — OwnerShard/ShardsTouched run on every fleet
// arrival; no iostream formatting, rand, or system_clock::now here
// (tools/tdmd_lint rule hot-path).

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "graph/digraph.hpp"
#include "traffic/flow.hpp"

namespace tdmd::shard {

enum class PartitionMethod : std::uint8_t {
  kBfs = 0,
  kSpatial = 1,
};

const char* PartitionMethodName(PartitionMethod method);

/// Parses "bfs" / "spatial"; false (and *out untouched) on anything else.
bool ParsePartitionMethod(const std::string& name, PartitionMethod* out);

struct PartitionSpec {
  std::size_t num_shards = 1;
  PartitionMethod method = PartitionMethod::kBfs;
  /// Seeds the deterministic choice of the first growth seed (kBfs
  /// without explicit seeds).  Same seed, same graph -> same partition.
  std::uint64_t seed = 1;
  /// Optional explicit region seeds for kBfs (e.g. known traffic hubs).
  /// When non-empty the size must be a positive multiple of num_shards:
  /// with m = seeds.size() / num_shards, consecutive groups of m seeds
  /// grow one shard's region (a shard as a union of Voronoi cells), so a
  /// regionalized workload's hubs stay whole at any fleet size.
  std::vector<VertexId> seeds;
  /// Optional per-vertex coordinates for kSpatial (one entry per vertex).
  /// When either is empty the spatial method derives landmark
  /// coordinates from BFS hop distances instead.
  std::vector<double> x;
  std::vector<double> y;
};

struct Partition {
  std::size_t num_shards = 1;
  PartitionMethod method = PartitionMethod::kBfs;
  std::uint64_t seed = 1;
  /// shard_of[v] in [0, num_shards).
  std::vector<std::uint32_t> shard_of;
  /// Region anchors: the growth seeds (kBfs) or per-cell lowest vertex
  /// ids (kSpatial).  One per shard.
  std::vector<VertexId> anchors;

  std::uint32_t shard(VertexId v) const {
    return shard_of[static_cast<std::size_t>(v)];
  }
  std::size_t ShardSize(std::size_t s) const;
};

/// Deterministically partitions `g` into spec.num_shards regions.
/// num_shards must be >= 1 and <= num_vertices.
Partition PartitionGraph(const graph::Digraph& g, const PartitionSpec& spec);

/// Owner shard of `flow` under `partition`: shards touched by the path in
/// first-touch order, pinned by flow_id.  Deterministic in
/// (partition, path, flow_id); never returns a shard the path misses.
/// When `touched_out` is non-null it receives ShardsTouched(partition,
/// flow) from the same scan.
std::size_t OwnerShard(const Partition& partition, const traffic::Flow& flow,
                       std::uint64_t flow_id,
                       std::size_t* touched_out = nullptr);

/// Number of distinct shards the flow's path visits (>= 2 means the flow
/// is cross-shard and its exactly-once pinning matters).
std::size_t ShardsTouched(const Partition& partition,
                          const traffic::Flow& flow);

}  // namespace tdmd::shard
