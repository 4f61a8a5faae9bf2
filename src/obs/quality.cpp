#include "obs/quality.hpp"

#include <algorithm>

namespace tdmd::obs {

void DeriveQualityFields(QualitySample* sample) {
  sample->decrement = sample->unprocessed - sample->bandwidth;
  sample->realized_ratio =
      sample->opt_bound > 0.0 ? sample->decrement / sample->opt_bound : 1.0;
  if (sample->budget > 0) {
    const std::uint32_t used = std::min(sample->deployed, sample->budget);
    sample->feasibility_margin =
        static_cast<double>(sample->budget - used) /
        static_cast<double>(sample->budget);
  } else {
    sample->feasibility_margin = 0.0;
  }
}

void QualityTracker::OnCertificate(double opt_decrement_bound) {
  state_.cert_valid = true;
  state_.cert_bound = opt_decrement_bound;
}

void QualityTracker::OnArrival(double max_decrement_potential) {
  if (state_.cert_valid) {
    state_.cert_bound += max_decrement_potential;
  }
}

void QualityTracker::OnAdoption() { state_.epochs_since_adoption = 0; }

void QualityTracker::OnEpoch() { ++state_.epochs_since_adoption; }

QualitySample QualityTracker::MakeSample(
    const QualitySampleInputs& inputs) const {
  QualitySample sample;
  sample.epoch = inputs.epoch;
  sample.version = inputs.version;
  sample.feasible = inputs.feasible;
  sample.deployed = inputs.deployed;
  sample.budget = inputs.budget;
  sample.churn_moves = inputs.churn_moves;
  sample.epochs_since_adoption = state_.epochs_since_adoption;
  sample.bandwidth = inputs.bandwidth;
  sample.unprocessed = inputs.unprocessed;
  // The trivial bound is always valid: every flow's decrement is at most
  // rate * (1 - lambda) * |p| (served at its source), summing to
  // (1 - lambda) * unprocessed over the flow set.
  const double trivial = (1.0 - inputs.lambda) * inputs.unprocessed;
  if (state_.cert_valid && state_.cert_bound < trivial) {
    sample.opt_bound = state_.cert_bound;
    sample.certified = true;
  } else {
    sample.opt_bound = trivial;
    sample.certified = false;
  }
  if (inputs.attribution != nullptr) {
    sample.attribution = *inputs.attribution;
  }
  DeriveQualityFields(&sample);
  return sample;
}

}  // namespace tdmd::obs
