#pragma once

// Quality observability: how *good* is the served placement, per epoch.
//
// The engine maintains a deployment P under churn; the quality layer turns
// that into a per-epoch QualitySample — the realized decrement d(P), a
// *certified* upper bound on the best decrement any deployment of at most k
// middleboxes could achieve against the current flow set, the ratio between
// the two (compared against Theorem 3's (1 - 1/e) greedy floor), per-vertex
// marginal-decrement attribution, placement churn, and the feasibility
// margin.  Everything is computed from numbers the engine already maintains
// incrementally, so the sampling path is O(|P| + |churn|) per epoch.
//
// The certificate (DESIGN.md Section 11).  When a CELF re-solve finishes,
// every cached gain left in its lazy queue is an upper bound on that
// vertex's marginal decrement with respect to the final greedy prefix
// (Theorem 2: gains only shrink as the deployment grows).  Hence for any
// deployment S with |S| <= k,
//
//   d(S) <= d(S ∪ P) = d(P) + sum of marginals <= d(P) + top-k residual
//
// so  bound := d_solve(P) + (sum of the k largest cached gains among
// undeployed vertices)  certifies d(OPT_k) <= bound.  Between solves the
// bound is maintained in O(1) per churn op: an arriving flow can add at
// most rate * (1 - lambda) * |p| to any deployment's decrement (serve at
// source), so arrivals inflate the bound by that potential; departures only
// shrink every d(S), so the bound stays valid unchanged.  The trivial bound
// (1 - lambda) * unprocessed_bandwidth is always valid, and the published
// bound is the minimum of the two — so the realized ratio can sag between
// solves (the degradation signal the CUSUM detector watches for) but the
// bound is never below the realized decrement.
//
// This header is engine-free by design: the engine feeds raw numbers in,
// QualityTracker owns only the certificate bookkeeping, and the ring /
// detectors live in obs/timeseries.hpp.

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace tdmd::obs {

/// Theorem 3's greedy guarantee: the budgeted greedy decrement is at least
/// (1 - 1/e) of the optimum.  A healthy engine's realized ratio sits at or
/// above this floor; sustained dips below it are what the detectors flag.
inline constexpr double kQualityRatioFloor = 0.6321205588285577;

/// One deployed vertex's marginal decrement at the time it was deployed
/// (the CELF chosen gain for adopted re-solves, the patch-time marginal
/// for feasibility-patch boxes).  "What is this middlebox buying us."
struct VertexAttribution {
  VertexId vertex = kInvalidVertex;
  double marginal_decrement = 0.0;
};

/// One epoch's quality reading.  `bandwidth`/`unprocessed`/`opt_bound` are
/// the serialized primaries; `decrement`, `realized_ratio` and
/// `feasibility_margin` are derived deterministically from them by
/// DeriveQualityFields (the checkpoint reader re-derives instead of
/// trusting the record, and byte-identical replay follows from the
/// primaries round-tripping bit-exactly).
struct QualitySample {
  std::uint64_t epoch = 0;
  /// Snapshot version this sample was taken against.
  std::uint64_t version = 0;
  bool feasible = true;
  /// True when opt_bound is backed by a CELF solve certificate (possibly
  /// arrival-inflated) rather than only the trivial serve-at-source bound.
  bool certified = false;
  std::uint32_t deployed = 0;      // |P|
  std::uint32_t budget = 0;        // k
  std::uint32_t churn_moves = 0;   // middlebox moves vs the previous sample
  std::uint64_t epochs_since_adoption = 0;
  double bandwidth = 0.0;    // b(P)
  double unprocessed = 0.0;  // sum of r_f * |p_f|
  double opt_bound = 0.0;    // certified upper bound on d(OPT_k)
  double decrement = 0.0;        // d(P) = unprocessed - bandwidth
  double realized_ratio = 1.0;   // decrement / opt_bound (1 when bound 0)
  double feasibility_margin = 0.0;  // spare budget fraction (k - |P|) / k
  std::vector<VertexAttribution> attribution;
};

/// Fills the derived fields from the primaries.  Shared by the sampler and
/// the checkpoint reader so both perform identical arithmetic.
void DeriveQualityFields(QualitySample* sample);

/// Certificate bookkeeping serialized into the optional checkpoint quality
/// section.
struct QualityTrackerState {
  bool cert_valid = false;
  double cert_bound = 0.0;
  std::uint64_t epochs_since_adoption = 0;
};

/// Raw per-epoch inputs the engine hands to QualityTracker::MakeSample.
struct QualitySampleInputs {
  std::uint64_t epoch = 0;
  std::uint64_t version = 0;
  bool feasible = true;
  std::uint32_t deployed = 0;
  std::uint32_t budget = 0;
  std::uint32_t churn_moves = 0;
  double bandwidth = 0.0;
  double unprocessed = 0.0;
  double lambda = 0.0;
  const std::vector<VertexAttribution>* attribution = nullptr;
};

/// Owns the certificate state between solves.  Not thread-safe; the engine
/// calls it under its state lock.
class QualityTracker {
 public:
  /// A re-solve against the current flow set finished: its bound
  /// (realized solve decrement + top-k residual CELF gains) certifies
  /// d(OPT_k) until churn invalidates it.
  void OnCertificate(double opt_decrement_bound);

  /// One flow arrived: any deployment's decrement can grow by at most
  /// rate * (1 - lambda) * |p| (serve at source), so the certificate is
  /// inflated by that potential and stays valid.  Departures need no call
  /// — they only shrink every deployment's decrement.
  void OnArrival(double max_decrement_potential);

  /// A re-solve was adopted: resets the staleness clock.
  void OnAdoption();

  /// One epoch elapsed without adoption (call once per SubmitBatch,
  /// before sampling).
  void OnEpoch();

  /// Builds the epoch's sample: picks the tighter of the certificate and
  /// the trivial (1 - lambda) * unprocessed bound, derives ratio/margin.
  QualitySample MakeSample(const QualitySampleInputs& inputs) const;

  QualityTrackerState state() const { return state_; }
  void RestoreState(const QualityTrackerState& state) { state_ = state; }

 private:
  QualityTrackerState state_;
};

}  // namespace tdmd::obs
