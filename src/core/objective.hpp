// Objective b(P, F), decrement d(P) and the marginal-decrement oracle.
//
// Definitions (Section 3.2 and Definitions 1-2):
//   b(f)   = r_f * (|p_f| - (1 - lambda) * l_v(f))   for serving vertex v
//   b(P)   = sum over flows (unserved flows pay r_f * |p_f|)
//   d(P)   = sum r_f |p_f|  -  b(P)                   (decrement function)
//   d_P(S) = d(P ∪ S) - d(P)                          (marginal decrement)
//
// ServedState is the incremental evaluation structure used by the greedy
// algorithms: it tracks, per flow, the best (earliest) deployed path
// position, so a marginal gain evaluates in O(flows through v) instead of
// re-scoring the whole instance.  Gains and bandwidth are integer sums of
// r_f * l scaled by (1 - lambda) once, so they do not depend on the order
// flows are visited in: engine::SolveIncrementalGtp, which sums the same
// terms per path class, reproduces them bit for bit for every lambda.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "core/deployment.hpp"
#include "core/instance.hpp"

namespace tdmd::core {

/// Bandwidth of a single flow served at path position `index`
/// (0 = source).  Pass kUnservedIndex for an unserved flow.
inline constexpr std::int32_t kUnservedIndex =
    std::numeric_limits<std::int32_t>::max();

Bandwidth FlowBandwidth(const Instance& instance, FlowId f,
                        std::int32_t serving_index);

/// Full-scan objective: total bandwidth consumption under the forced
/// nearest-source allocation.  Unserved flows count at full rate.
Bandwidth EvaluateBandwidth(const Instance& instance,
                            const Deployment& deployment);

/// Decrement d(P) = UnprocessedBandwidth - b(P).
Bandwidth EvaluateDecrement(const Instance& instance,
                            const Deployment& deployment);

/// Incremental per-flow serving state for greedy algorithms.
class ServedState {
 public:
  explicit ServedState(const Instance& instance);

  /// Best (smallest) deployed path position for flow f; kUnservedIndex if
  /// unserved.
  std::int32_t ServingIndex(FlowId f) const {
    return best_index_[static_cast<std::size_t>(f)];
  }

  bool AllServed() const { return unserved_count_ == 0; }
  FlowId unserved_count() const { return unserved_count_; }

  /// Current total bandwidth consumption: U - (1 - lambda) * D for the
  /// integer sums U = sum of r_f * |p_f| and D = sum of r_f * l_v(f).
  Bandwidth bandwidth() const {
    return static_cast<Bandwidth>(unprocessed_units_) -
           one_minus_lambda_ * static_cast<Bandwidth>(decrement_units_);
  }

  /// d_P({v}): bandwidth decrement if a middlebox were added at v.
  /// Does not modify state.  O(|FlowsThrough(v)|).
  Bandwidth MarginalDecrement(VertexId v) const;

  /// Commits a middlebox at v, updating every flow it improves.
  void Deploy(VertexId v);

 private:
  /// r_f * (l_new - l_old) for moving the visit's flow from serving
  /// position `current` to the visit's position.
  std::int64_t DecrementUnits(const Instance::FlowVisit& visit,
                              std::int32_t current) const;

  const Instance* instance_;
  double one_minus_lambda_;
  std::vector<std::int32_t> best_index_;
  std::int64_t unprocessed_units_ = 0;
  std::int64_t decrement_units_ = 0;
  FlowId unserved_count_;
};

}  // namespace tdmd::core
