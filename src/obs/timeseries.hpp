#pragma once

// Epoch time-series of QualitySamples with regression detection.
//
// A fixed-capacity ring holds the most recent samples; every Push runs
// three detectors over the stream and emits edge-triggered alerts:
//
//   * EWMA smoothing of the realized ratio (exposed as a gauge, feeds
//     nothing — it is the human-readable trend line).
//   * A one-sided CUSUM on the quality gap: S = max(0, S + (floor - slack
//     - ratio)).  S accumulates only while the ratio sits below
//     floor - slack, so a transient dip decays back to zero but a
//     sustained regression (e.g. PATCH_ONLY mode serving a stale
//     deployment under churn) crosses the threshold within a bounded
//     number of epochs.  The alert clears when S returns to zero.
//   * Windowed SLO burn rates over the ring: the fraction of the last
//     `burn_window` samples violating the SLO (ratio below the floor;
//     adoption staleness past adoption_slo_epochs), divided by the error
//     budget.  Burn > 1 means the budget is being spent faster than
//     allowed.
//
// Alerts are edge events (raised/cleared) appended to a bounded log; the
// engine forwards them to the tracer (kQualityAlert instants) and exposes
// active-alert / totals gauges via MetricsRegistry.  Everything here is
// deterministic in the sample stream, so the timeline round-trips through
// the engine checkpoint byte-identically.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/quality.hpp"

namespace tdmd::obs {

enum class QualityAlertKind : std::uint8_t {
  kQualityGapCusum = 0,
  kQualityGapBurnRate = 1,
  kAdoptionStalenessBurnRate = 2,
};

inline constexpr std::size_t kNumQualityAlertKinds = 3;

/// Stable dash-separated name used in reports and alert listings.
const char* QualityAlertKindName(QualityAlertKind kind);

/// One edge of an alert: raised when the detector crossed its threshold,
/// cleared when it recovered.
struct QualityAlert {
  QualityAlertKind kind = QualityAlertKind::kQualityGapCusum;
  bool raised = false;
  std::uint64_t epoch = 0;
  double value = 0.0;      // detector statistic at the edge
  double threshold = 0.0;  // threshold it crossed
};

struct QualityDetectorOptions {
  /// Quality-gap reference: Theorem 3's greedy guarantee.
  double ratio_floor = kQualityRatioFloor;
  /// EWMA smoothing factor in (0, 1]; higher reacts faster.
  double ewma_alpha = 0.2;
  /// Tolerated dip below the floor before CUSUM accumulates.
  double cusum_slack = 0.1;
  /// CUSUM alarm threshold; with slack s, a flat-zero ratio fires after
  /// about threshold / (floor - s) epochs.
  double cusum_threshold = 1.0;
  /// Samples per SLO burn-rate window; burn rates need a full window
  /// before they can fire.
  std::size_t burn_window = 32;
  /// Fraction of a window allowed to violate the SLO (the error budget).
  double burn_error_budget = 0.25;
  /// Adoption-staleness SLO: a sample violates when more than this many
  /// epochs passed since the last adoption.
  std::uint64_t adoption_slo_epochs = 8;
};

/// Full serializable state: the ring (oldest first), the alert log, the
/// detector accumulators and the lifetime totals.  What Engine::
/// QualityTimeline returns and the optional checkpoint section carries.
struct QualityTimelineSnapshot {
  std::vector<QualitySample> samples;
  std::vector<QualityAlert> alerts;
  double ewma = 0.0;
  bool ewma_primed = false;
  double cusum = 0.0;
  std::uint32_t active_alerts = 0;  // bitmask indexed by QualityAlertKind
  std::uint64_t samples_total = 0;
  std::uint64_t alerts_raised_total = 0;
  std::uint64_t alerts_cleared_total = 0;
};

class QualityTimeline {
 public:
  explicit QualityTimeline(std::size_t capacity = 512,
                           const QualityDetectorOptions& detectors = {});

  /// Appends a sample and runs the detectors; returns the alert edges
  /// fired by this sample (also appended to the internal log).
  std::vector<QualityAlert> Push(const QualitySample& sample);

  std::size_t capacity() const { return capacity_; }
  const QualityDetectorOptions& detectors() const { return detectors_; }
  std::size_t size() const { return samples_.size(); }
  bool AlertActive(QualityAlertKind kind) const {
    return (active_alerts_ & KindBit(kind)) != 0;
  }
  std::uint32_t active_alerts() const { return active_alerts_; }
  double ewma() const { return ewma_; }
  double cusum() const { return cusum_; }
  std::uint64_t samples_total() const { return samples_total_; }
  std::uint64_t alerts_raised_total() const { return alerts_raised_total_; }
  std::uint64_t alerts_cleared_total() const {
    return alerts_cleared_total_;
  }
  /// Most recent sample; size() must be nonzero.
  const QualitySample& Latest() const { return samples_.back(); }

  /// Copies out the whole state (samples oldest first).
  QualityTimelineSnapshot Snapshot() const;

  /// Replaces the state wholesale.  False (state untouched) when the
  /// snapshot is incoherent: more samples than capacity, an oversized
  /// alert log, an out-of-range active bitmask, or non-finite detector
  /// accumulators.
  bool Restore(const QualityTimelineSnapshot& snapshot);

  /// Alert-log bound; the oldest edges fall off beyond it.
  static constexpr std::size_t kMaxAlertLog = 256;

 private:
  static std::uint32_t KindBit(QualityAlertKind kind) {
    return 1U << static_cast<std::uint32_t>(kind);
  }

  /// Violating samples among the last `burn_window`, per SLO.
  std::size_t CountWindowViolations(QualityAlertKind kind) const;
  void Emit(QualityAlertKind kind, bool raised, std::uint64_t epoch,
            double value, double threshold,
            std::vector<QualityAlert>* fired);
  void RunBurnDetector(QualityAlertKind kind, std::uint64_t epoch,
                       std::vector<QualityAlert>* fired);

  std::size_t capacity_;
  QualityDetectorOptions detectors_;
  /// Ring kept unrolled oldest-first (erase-front on wrap): capacity is a
  /// few hundred samples, and one vector move per epoch is noise next to
  /// the epoch's own index delta.
  std::vector<QualitySample> samples_;
  std::vector<QualityAlert> alerts_;
  double ewma_ = 0.0;
  bool ewma_primed_ = false;
  double cusum_ = 0.0;
  std::uint32_t active_alerts_ = 0;
  std::uint64_t samples_total_ = 0;
  std::uint64_t alerts_raised_total_ = 0;
  std::uint64_t alerts_cleared_total_ = 0;
};

/// One-sided CUSUM over a generic rate stream in [0, 1] — the shed-rate
/// alert of the sharded fleet's load-shedding path (DESIGN.md §14).  The
/// accumulator S = max(0, S + (rate - slack)) grows only while the rate
/// exceeds the slack, so a transient shed burst decays back to zero but
/// sustained overload crosses the threshold within a bounded number of
/// epochs.  Edge-triggered like QualityTimeline's detectors: the alert
/// raises once when S crosses the threshold and clears once when S
/// returns to zero.
struct RateCusumOptions {
  /// Tolerated steady-state rate; below it the accumulator drains.
  double slack = 0.05;
  /// Accumulated excess rate that raises the alert.
  double threshold = 0.5;
};

class RateCusum {
 public:
  explicit RateCusum(const RateCusumOptions& options = {})
      : options_(options) {}

  /// Pushes one epoch's rate; returns true when an alert edge (raise or
  /// clear — check active()) fired on this sample.
  bool Push(double rate) {
    value_ = value_ + (rate - options_.slack);
    if (value_ < 0.0) value_ = 0.0;
    if (!active_ && value_ >= options_.threshold) {
      active_ = true;
      ++raised_total_;
      return true;
    }
    if (active_ && value_ == 0.0) {
      active_ = false;
      ++cleared_total_;
      return true;
    }
    return false;
  }

  bool active() const { return active_; }
  double value() const { return value_; }
  std::uint64_t raised_total() const { return raised_total_; }
  std::uint64_t cleared_total() const { return cleared_total_; }
  const RateCusumOptions& options() const { return options_; }

 private:
  RateCusumOptions options_;
  double value_ = 0.0;
  bool active_ = false;
  std::uint64_t raised_total_ = 0;
  std::uint64_t cleared_total_ = 0;
};

/// Packs a sample into the kQualitySample instant arg so report's quality
/// section can rebuild the timeline from a Chrome trace: epoch in the high 32
/// bits, the realized ratio in parts-per-million (clamped to [0, 4e6]) in
/// the low 32.
std::uint64_t PackQualitySampleArg(std::uint64_t epoch, double ratio);
void UnpackQualitySampleArg(std::uint64_t arg, std::uint64_t* epoch,
                            double* ratio);

/// Packs an alert edge into the kQualityAlert instant arg: epoch in the
/// high 32 bits, kind in bits 1.., raised in bit 0.
std::uint64_t PackQualityAlertArg(const QualityAlert& alert);
bool UnpackQualityAlertArg(std::uint64_t arg, QualityAlert* alert);

}  // namespace tdmd::obs
