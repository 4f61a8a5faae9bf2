#pragma once

// The fleet sections of `tdmd_cli report`.
//
// BuildFleetReport does per-batch causal reconstruction of a fleet
// Chrome trace read by ReadChromeTrace (serve-trace --shards=N
// --trace-out, DESIGN.md Section 15).  Every event a fleet batch touches
// carries its batch id in args, so the builder can rebuild each batch's
// submit -> dequeue -> patch -> adopt critical path from the flat event
// list: the straggler shard is the one whose adoption lands last, the
// dominant stage is the longest leg of that shard's chain, and the
// queue-dwell share says how much of the end-to-end latency was spent
// waiting in MPSC queues rather than solving.
//
// WriteShardSplit summarizes the fleet's Prometheus metrics dump
// (serve-trace --shards=N --metrics-out) as the per-shard budget split.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace tdmd::obs {

struct ChromeTrace;

/// Per-shard attribution over the connected batches.
struct FleetShardRow {
  std::uint64_t shard = 0;
  /// Batches whose chain touched this shard (one queue-dwell span each).
  std::uint64_t batches = 0;
  /// Batches whose critical path ended on this shard (last adoption).
  std::uint64_t stragglers = 0;
  /// Summed queue dwell across this shard's chains.
  double dwell_us = 0.0;
};

struct FleetReport {
  bool ok = false;
  std::string error;
  std::size_t num_events = 0;

  /// Distinct batch ids seen on fleet-submit spans.
  std::uint64_t batches = 0;
  /// Batches reconstructing into one connected chain: a fleet-submit
  /// span, at least one shard with queue-dwell + patch + batch-adopted,
  /// and no shard left dangling (a queue-dwell without an adoption).
  std::uint64_t connected = 0;
  /// Batches a partial trace (ChromeTrace::dropped > 0) cannot score: the
  /// rings overwrote their fleet-submit span or every queue-dwell, so the
  /// missing leg says nothing about lost work.  Neither connected nor
  /// disconnected; always zero for a complete trace.
  std::uint64_t unscored = 0;
  /// Sample of disconnected batch ids (capped; see kMaxDisconnectedIds).
  std::vector<std::uint64_t> disconnected_ids;
  /// shed-batch instants (admission shed to deferred re-solve).
  std::uint64_t shed_batches = 0;
  /// shard-recovery instants (crashed shards respawned).
  std::uint64_t recoveries = 0;

  // Critical-path statistics over the connected batches.
  double e2e_p50_us = 0.0;
  double e2e_p99_us = 0.0;
  double e2e_max_us = 0.0;
  /// Straggler-shard queue dwell as a fraction of summed e2e latency.
  double dwell_share = 0.0;
  /// Dominant-stage attribution: batches whose critical path was longest
  /// in submit->dequeue (routing + queue dwell), dequeue->patch, or
  /// patch->adopt respectively.
  std::uint64_t dominant_submit_dequeue = 0;
  std::uint64_t dominant_dequeue_patch = 0;
  std::uint64_t dominant_patch_adopt = 0;

  /// Ascending by shard id.
  std::vector<FleetShardRow> shards;
};

inline constexpr std::size_t kMaxDisconnectedIds = 8;

/// Fails (ok=false, one-line diagnostic) on a trace with no fleet-submit
/// spans: a single-engine trace is rejected rather than reported as
/// "0 batches, all fine".
FleetReport BuildFleetReport(const ChromeTrace& trace);

/// Prints the connected fraction (of the scored batches), e2e quantiles,
/// dominant-stage split, and the per-shard straggler table.
void WriteFleetReport(std::ostream& os, const FleetReport& report);

/// Prints the per-shard budget/boxes/flows/bandwidth/certificate table
/// plus the fleet's union bandwidth, routing and budget counters from a
/// sharded Prometheus dump.  Returns false with a "missing metric '...'"
/// diagnostic in `error`, writing nothing, when the dump lacks a fleet
/// metric (a single-engine dump has no tdmd_fleet_num_shards).
bool WriteShardSplit(std::istream& is, std::ostream& os, std::string* error);

}  // namespace tdmd::obs
