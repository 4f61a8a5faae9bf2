// FlowCoverageIndex: the serving layer's delta-maintained coverage state.
//
// core::Instance precomputes the two lookups every solver needs — the
// per-flow prefix-distance table behind l_v(f) and the reverse
// vertex -> flows index — but it is immutable: under churn a from-scratch
// solver rebuilds both every epoch, O(|F| * |V|) work that dwarfs the
// actual delta.  This index maintains the same state
// incrementally, per *path class*.
//
// Flows that share one path are interchangeable for coverage: every
// deployment serves all of them or none, at the same path position, so
// the oracle d_P({v}) = sum of r_f * (1 - lambda) * delta-l over the flows
// through v is exact per class with the class's summed integer rate (the
// paper's trick of treating same-path flows as one flow, cf.
// traffic::MergeSameSourceFlows).  Hence:
//
//   * Each distinct path is stored once, in a CSR arena, and found by an
//     open-addressing hash table over class ids: one hash and one arena
//     compare per arrival, no allocation, no dependence on addresses.
//   * The reverse index holds one Visit per (vertex, live class).  The
//     first arrival on a class appends its |p| visits; the last departure
//     swap-erases them in O(1) each via per-class back-pointers (each
//     class remembers the position of its entry in every vertex list on
//     its path, and the entry moved into the hole has its back-pointer
//     fixed up).
//   * Every other arrival or departure only adjusts the class's flow
//     count and rate sum: O(1) after the lookup, with no heap allocation
//     and no visit-list write.
//
// Flows are addressed by FlowTicket — a (slot, generation) handle that
// stays valid across other flows' arrivals/departures and detects stale
// double-removes.  A slot holds only {class, rate, generation}; slots are
// recycled through a free list, so long-running engines do not grow
// without bound under churn.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "core/instance.hpp"
#include "faults/faults.hpp"
#include "graph/digraph.hpp"
#include "traffic/flow.hpp"

namespace tdmd::engine {

/// Stable handle for an active flow; packs (generation << 32 | slot).
using FlowTicket = std::int64_t;
inline constexpr FlowTicket kInvalidTicket = -1;

struct IndexStats {
  /// Index entries written or erased — the size of the maintained delta,
  /// the engine's substitute for the O(|F| * |V|) rebuild: one slot entry
  /// per arrival or departure, plus |p| visit entries whenever a class
  /// gains its first flow or loses its last.
  std::uint64_t delta_ops = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t departures = 0;
};

class FlowCoverageIndex {
 public:
  /// Class id of no class (a stale ticket, or a path never seen).
  static constexpr std::uint32_t kNoClass = 0xFFFFFFFFu;

  /// `lambda` must lie in [0, 1].
  FlowCoverageIndex(graph::Digraph network, double lambda);

  const graph::Digraph& network() const { return network_; }
  double lambda() const { return lambda_; }
  VertexId num_vertices() const { return network_.num_vertices(); }

  /// Validates the flow (positive rate, simple path in the network,
  /// endpoints matching src/dst) and indexes it.  The simple-path check
  /// runs only for a path no class holds yet; an arrival on a live class
  /// costs one hash and one arena compare and allocates nothing.
  FlowTicket AddFlow(const traffic::Flow& flow);

  /// Removes the flow in O(1), or O(|p_f|) when it is its class's last
  /// flow; returns false on a stale or unknown ticket (idempotent, so
  /// double-removes are safe).
  bool RemoveFlow(FlowTicket ticket);

  std::size_t active_flows() const { return active_count_; }

  /// Sum of r_f * |p_f| over active flows, as an exact integer — the d(P)
  /// reference point of Lemma 1 for the current flow set.
  std::int64_t unprocessed_units() const { return unprocessed_units_; }
  Bandwidth unprocessed_bandwidth() const {
    return static_cast<Bandwidth>(unprocessed_units_);
  }

  /// One entry of the reverse index: a live path class and the 0-based
  /// position of the vertex on that class's path.  Serving the class there
  /// diminishes edges - path_index downstream edges (the paper's l_v(f)).
  /// `edges` (|p|) is denormalized from the class so the CELF gain loops —
  /// the hot path of every re-solve — read the class record only for its
  /// rate sum.
  struct Visit {
    std::uint32_t path_class;
    std::int32_t path_index;
    std::int32_t edges;
  };

  /// Live classes whose path visits v.  Order is arbitrary (swap-erase),
  /// which is safe for the gain oracle because marginal decrements are
  /// integer sums over this list.
  const std::vector<Visit>& ClassesThrough(VertexId v) const {
    TDMD_DCHECK(network_.IsValidVertex(v));
    return classes_through_[static_cast<std::size_t>(v)];
  }

  /// Distinct-path ("class") records.  A class whose flows all departed
  /// keeps its record, id and arena path for reuse; ids are assigned in
  /// first-seen order.
  struct PathClass {
    /// The class path is path_arena_[offset, offset + length).
    std::uint32_t offset = 0;
    std::uint32_t length = 0;
    /// Active flows currently on this path and the sum of their rates.
    std::size_t active_flows = 0;
    Rate rate_sum = 0;

    std::int32_t edges() const {
      return static_cast<std::int32_t>(length) - 1;
    }
  };
  std::size_t num_path_classes() const { return classes_.size(); }
  const PathClass& PathClassAt(std::size_t c) const {
    TDMD_DCHECK(c < classes_.size());
    return classes_[c];
  }
  /// The vertices of class c's path, src to dst.
  std::span<const VertexId> ClassPath(std::size_t c) const {
    const PathClass& cls = PathClassAt(c);
    return {path_arena_.data() + cls.offset, cls.length};
  }

  // --- ticket accessors ---------------------------------------------------

  /// One past the largest slot ever used; slots below this may be free.
  std::size_t num_slots() const { return slots_.size(); }
  /// The class of a live ticket, or kNoClass if it is stale or unknown.
  std::uint32_t ClassOf(FlowTicket ticket) const;
  bool Contains(FlowTicket ticket) const {
    return ClassOf(ticket) != kNoClass;
  }
  /// The rate of a live ticket.
  Rate RateOf(FlowTicket ticket) const;
  /// The flow behind a live ticket, rebuilt from its class path and rate
  /// (src and dst are the path's ends, as AddFlow enforces).
  traffic::Flow FlowAt(FlowTicket ticket) const;
  /// Tickets of all active flows, ascending by slot.
  std::vector<FlowTicket> ActiveTickets() const;

  // --- ticket packing (exposed for checkpoint serialization) ------------

  static FlowTicket ComposeTicket(std::uint32_t slot,
                                  std::uint32_t generation);
  static std::uint32_t TicketSlot(FlowTicket ticket);
  static std::uint32_t TicketGeneration(FlowTicket ticket);

  // --- fault injection ---------------------------------------------------

  /// Installs a fault injector fired (site kIndexDelta) at the top of
  /// AddFlow/RemoveFlow, *before* any mutation, so an injected throw
  /// leaves the index exactly as it was (strong exception safety — the
  /// caller can simply retry).  The injector must outlive the index; pass
  /// nullptr to uninstall.
  void set_fault_injector(faults::FaultInjector* injector) {
    fault_injector_ = injector;
  }

  // --- checkpoint/restore -------------------------------------------------

  /// One active flow pinned to its exact (slot, generation) pair.
  struct SlotRecord {
    FlowTicket ticket = kInvalidTicket;
    traffic::Flow flow;
  };

  /// Rebuilds the slot table of a checkpointed index: `active` re-occupies
  /// the recorded slots (same tickets, so client-held handles survive a
  /// restore) and `free_slots` (bottom-to-top of the recorded free stack,
  /// encoded as tickets carrying each free slot's current generation)
  /// restores the recycling order so post-restore arrivals draw the same
  /// tickets the uninterrupted run would have drawn.  Requires an empty
  /// index; every slot below the implied table size must appear exactly
  /// once across the two lists.  Flows are validated exactly as in
  /// AddFlow.  Class ids are re-assigned in slot order; no decision
  /// depends on them, since every sum over classes is an integer sum.
  void RestoreSlots(const std::vector<SlotRecord>& active,
                    const std::vector<FlowTicket>& free_slots);

  /// The free-slot stack bottom-to-top, as tickets carrying each free
  /// slot's current (post-bump) generation — the exact shape RestoreSlots
  /// consumes.
  std::vector<FlowTicket> FreeSlotTickets() const;

  const IndexStats& stats() const { return stats_; }

  /// Overwrites the delta counters (checkpoint restore only).
  void RestoreStats(const IndexStats& stats) { stats_ = stats; }

  /// Materializes the current flow set as a core::Instance (flows ordered
  /// by ascending slot).  O(|F| * |V|) — this is exactly the rebuild the
  /// index exists to avoid on the serving path; it is meant for audits,
  /// tests and interop with the batch solvers.
  core::Instance BuildInstance() const;

  /// Owned heap bytes: every allocation this index holds (vector
  /// capacities, the path arena and its back-pointers, the class hash
  /// table, the owned network's CSR arrays), excluding sizeof(*this).
  /// Checkpoint-independent — it measures live capacity, not serialized
  /// size — and sanity-checked against allocator deltas in
  /// tests/obs_mem_footprint_test.cpp; Engine::Metrics exposes it as
  /// tdmd_mem_index_bytes plus the derived tdmd_mem_bytes_per_flow gauge.
  std::size_t MemoryFootprint() const;

 private:
  struct Slot {
    Rate rate = 0;
    /// kNoClass <=> the slot is free.
    std::uint32_t path_class = kNoClass;
    std::uint32_t generation = 0;
  };

  /// The live slot behind a ticket, or nullptr if stale or unknown.
  const Slot* LiveSlot(FlowTicket ticket) const;
  /// The class holding exactly `path`, or kNoClass.
  std::uint32_t FindClass(const std::vector<VertexId>& path) const;
  /// Checks `flow` as AddFlow documents (diagnostics name it `what`) and
  /// returns FindClass of its path.
  std::uint32_t CheckedClass(const traffic::Flow& flow,
                             const char* what) const;
  /// Appends a class for a validated path not held yet; returns its id.
  std::uint32_t NewClass(const std::vector<VertexId>& path);
  /// Appends / swap-erases a class's |p| visit entries.
  void LinkClass(std::uint32_t c);
  void UnlinkClass(std::uint32_t c);
  /// Indexes one validated flow into `slot` (shared by AddFlow and
  /// RestoreSlots).
  void IndexFlowIntoSlot(std::uint32_t slot, std::uint32_t path_class,
                         Rate rate);

  graph::Digraph network_;
  double lambda_;
  faults::FaultInjector* fault_injector_ = nullptr;
  std::vector<std::vector<Visit>> classes_through_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<PathClass> classes_;
  /// Every class path, back to back (CSR by PathClass::offset).
  std::vector<VertexId> path_arena_;
  /// Parallel to path_arena_: visit_pos_[offset + i] is the position of
  /// the class's entry in classes_through_[path[i]] while it is live.
  std::vector<std::uint32_t> visit_pos_;
  /// Open addressing with linear probing: class id + 1, 0 = empty.  The
  /// size is a power of two at least twice the class count.
  std::vector<std::uint32_t> class_table_;
  std::size_t active_count_ = 0;
  std::int64_t unprocessed_units_ = 0;
  IndexStats stats_;
};

}  // namespace tdmd::engine
