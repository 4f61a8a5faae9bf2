// EngineCheckpoint: the serializable client-visible state of an Engine.
//
// Captured by Engine::Checkpoint() under the state lock and written by
// io::WriteEngineCheckpoint as an `engine-checkpoint v1` text record; a
// crashed serving process restores by constructing a fresh Engine over
// the same network/options and calling Engine::Restore().  The record is
// deliberately exact rather than semantic:
//
//   * Active flows carry their (slot, generation) tickets and the
//     free-slot stack rides along, so client-held tickets survive a
//     restore and post-restore arrivals draw the very tickets the
//     uninterrupted run would have drawn.
//   * The maintained bandwidth is serialized as a hexfloat, so the
//     incrementally-maintained double round-trips bit-exactly instead of
//     being recomputed (which could differ in the last ulp and break the
//     byte-identical-replay guarantee).
//
// In-flight re-solve work is not captured: it is recomputable, and the
// restored engine schedules a fresh re-solve on its next batch.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "engine/engine.hpp"
#include "obs/histogram.hpp"
#include "traffic/flow.hpp"

namespace tdmd::engine {

struct EngineCheckpoint {
  std::uint64_t epoch = 0;
  /// Version of the snapshot current at checkpoint time; Restore seeds
  /// the publish counter from it so the version sequence continues as in
  /// the uninterrupted run.
  std::uint64_t snapshot_version = 0;
  EngineMode mode = EngineMode::kNormal;
  std::uint64_t consecutive_failures = 0;
  std::uint64_t epochs_since_probe = 0;
  /// Churn accumulated toward the resolve_churn_fraction deferral rule;
  /// restored exactly so a resumed engine defers (or re-solves) on the
  /// same future epoch the uninterrupted run would.
  std::uint64_t pending_churn = 0;
  /// Configuration echo; Restore cross-checks these against the fresh
  /// engine's options instead of trusting the record.
  std::uint64_t k = 0;
  double lambda = 0.0;
  VertexId num_vertices = 0;
  Bandwidth maintained_bandwidth = 0.0;
  bool maintained_feasible = true;
  EngineStats stats;
  /// Deployed vertices in insertion order (Deployment::ToString renders
  /// insertion order, so byte-identical replay depends on preserving it).
  std::vector<VertexId> deployment;
  /// Uncovered-flow tickets in maintenance order.
  std::vector<FlowTicket> uncovered;
  struct ActiveFlow {
    FlowTicket ticket = kInvalidTicket;
    traffic::Flow flow;
  };
  /// Active flows ascending by slot.
  std::vector<ActiveFlow> active_flows;
  /// Free-slot stack bottom-to-top, as tickets carrying each free slot's
  /// current (post-bump) generation.
  std::vector<FlowTicket> free_slots;
  /// Latency-histogram state (EngineHistograms) at checkpoint time, so
  /// post-restore metrics keep accumulating instead of restarting from
  /// empty.  Serialized as the *optional* trailing histograms section of
  /// the v1 record — records written before this section existed restore
  /// with empty histograms, and WriteEngineCheckpoint can omit it
  /// (EngineCheckpointWriteOptions) because timing samples are not
  /// deterministic and would break byte-identical-replay comparisons.
  obs::HistogramSnapshot patch_histogram;
  obs::HistogramSnapshot resolve_histogram;
  obs::HistogramSnapshot index_delta_histogram;
  obs::HistogramSnapshot greedy_round_histogram;
  /// Quality-observability state (tracker certificate, attribution ledger,
  /// timeline ring + detectors), serialized as the optional `quality v1`
  /// section after the histograms.  Unlike the histograms this state *is*
  /// deterministic in the churn stream, so restoring it keeps replayed
  /// timelines byte-identical.  False when the engine samples no quality;
  /// the record then has no quality section.
  bool has_quality = false;
  obs::QualityTrackerState quality_tracker;
  std::vector<obs::VertexAttribution> quality_attribution;
  obs::QualityTimelineSnapshot quality;
};

namespace internal {
#define TDMD_COUNT_ONE(name) +1
inline constexpr std::size_t kEngineStatsCounters =
    0 TDMD_ENGINE_STATS_COUNTERS(TDMD_COUNT_ONE);
#undef TDMD_COUNT_ONE
/// EngineStats must stay "N uint64 counters + mode"; the checkpoint
/// serializer iterates TDMD_ENGINE_STATS_COUNTERS, so a counter added to
/// the struct but not the list (or vice versa) must not compile.
static_assert(sizeof(EngineStats) ==
                  (kEngineStatsCounters + 1) * sizeof(std::uint64_t),
              "EngineStats and TDMD_ENGINE_STATS_COUNTERS out of sync");
}  // namespace internal

}  // namespace tdmd::engine
