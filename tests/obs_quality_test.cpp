// Quality-observability unit tests: derived-field arithmetic, the
// certificate tracker's min(cert, trivial) bound selection, the timeline
// ring + EWMA/CUSUM/burn-rate detectors (fire and clear edges), snapshot
// round-trips with incoherent-state rejection, and the packed trace-arg
// encodings report's quality section decodes.
#include "obs/quality.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "obs/timeseries.hpp"

namespace tdmd::obs {
namespace {

QualitySample RatioSample(std::uint64_t epoch, double ratio,
                          std::uint64_t since_adoption = 0) {
  QualitySample s;
  s.epoch = epoch;
  s.unprocessed = 100.0;
  s.bandwidth = 100.0 - ratio * 50.0;  // decrement = ratio * 50
  s.opt_bound = 50.0;
  s.epochs_since_adoption = since_adoption;
  DeriveQualityFields(&s);
  return s;
}

TEST(ObsQualityTest, DeriveQualityFields) {
  QualitySample s;
  s.unprocessed = 10.0;
  s.bandwidth = 4.0;
  s.opt_bound = 8.0;
  s.deployed = 3;
  s.budget = 4;
  DeriveQualityFields(&s);
  EXPECT_DOUBLE_EQ(s.decrement, 6.0);
  EXPECT_DOUBLE_EQ(s.realized_ratio, 0.75);
  EXPECT_DOUBLE_EQ(s.feasibility_margin, 0.25);

  // Zero bound (no decrement is possible at all) reads as a perfect ratio.
  s.opt_bound = 0.0;
  DeriveQualityFields(&s);
  EXPECT_DOUBLE_EQ(s.realized_ratio, 1.0);

  // Deployment at or past the budget has no spare margin; zero budget is
  // defined as zero margin rather than a division by zero.
  s.deployed = 7;
  DeriveQualityFields(&s);
  EXPECT_DOUBLE_EQ(s.feasibility_margin, 0.0);
  s.budget = 0;
  DeriveQualityFields(&s);
  EXPECT_DOUBLE_EQ(s.feasibility_margin, 0.0);
}

TEST(ObsQualityTest, TrackerUsesTrivialBoundWithoutCertificate) {
  QualityTracker tracker;
  QualitySampleInputs in;
  in.bandwidth = 60.0;
  in.unprocessed = 100.0;
  in.lambda = 0.5;
  const QualitySample s = tracker.MakeSample(in);
  EXPECT_FALSE(s.certified);
  EXPECT_DOUBLE_EQ(s.opt_bound, 50.0);  // (1 - lambda) * unprocessed
  EXPECT_DOUBLE_EQ(s.decrement, 40.0);
  EXPECT_DOUBLE_EQ(s.realized_ratio, 0.8);
}

TEST(ObsQualityTest, TrackerPrefersTighterCertificate) {
  QualityTracker tracker;
  QualitySampleInputs in;
  in.bandwidth = 60.0;
  in.unprocessed = 100.0;
  in.lambda = 0.5;

  tracker.OnCertificate(45.0);
  QualitySample s = tracker.MakeSample(in);
  EXPECT_TRUE(s.certified);
  EXPECT_DOUBLE_EQ(s.opt_bound, 45.0);

  // Arrivals inflate the certificate by the flow's serve-at-source
  // potential; once it exceeds the trivial bound the trivial one wins.
  tracker.OnArrival(3.0);
  s = tracker.MakeSample(in);
  EXPECT_TRUE(s.certified);
  EXPECT_DOUBLE_EQ(s.opt_bound, 48.0);
  tracker.OnArrival(10.0);
  s = tracker.MakeSample(in);
  EXPECT_FALSE(s.certified);
  EXPECT_DOUBLE_EQ(s.opt_bound, 50.0);
}

TEST(ObsQualityTest, TrackerAdoptionClockAndStateRoundTrip) {
  QualityTracker tracker;
  tracker.OnEpoch();
  tracker.OnEpoch();
  QualitySampleInputs in;
  in.unprocessed = 10.0;
  EXPECT_EQ(tracker.MakeSample(in).epochs_since_adoption, 2u);
  tracker.OnAdoption();
  EXPECT_EQ(tracker.MakeSample(in).epochs_since_adoption, 0u);

  tracker.OnCertificate(7.0);
  tracker.OnEpoch();
  const QualityTrackerState state = tracker.state();
  QualityTracker restored;
  restored.RestoreState(state);
  EXPECT_EQ(restored.state().cert_valid, state.cert_valid);
  EXPECT_DOUBLE_EQ(restored.state().cert_bound, state.cert_bound);
  EXPECT_EQ(restored.state().epochs_since_adoption,
            state.epochs_since_adoption);
}

TEST(ObsQualityTest, TrackerCopiesAttribution) {
  QualityTracker tracker;
  std::vector<VertexAttribution> attr{{3, 1.5}, {7, 0.5}};
  QualitySampleInputs in;
  in.unprocessed = 10.0;
  in.attribution = &attr;
  const QualitySample s = tracker.MakeSample(in);
  ASSERT_EQ(s.attribution.size(), 2u);
  EXPECT_EQ(s.attribution[0].vertex, 3);
  EXPECT_DOUBLE_EQ(s.attribution[0].marginal_decrement, 1.5);
  EXPECT_EQ(s.attribution[1].vertex, 7);
}

TEST(ObsQualityTest, EwmaPrimesOnFirstSampleThenSmooths) {
  QualityTimeline timeline(8);
  timeline.Push(RatioSample(1, 1.0));
  EXPECT_DOUBLE_EQ(timeline.ewma(), 1.0);
  timeline.Push(RatioSample(2, 0.5));
  EXPECT_DOUBLE_EQ(timeline.ewma(), 0.2 * 0.5 + 0.8 * 1.0);
}

TEST(ObsQualityTest, CusumFiresOnSustainedGapAndClearsOnRecovery) {
  QualityTimeline timeline(16);
  // Flat-zero ratio accumulates floor - slack ~ 0.532 per epoch, so the
  // 1.0 threshold trips on the second sample.
  EXPECT_TRUE(timeline.Push(RatioSample(1, 0.0)).empty());
  const std::vector<QualityAlert> fired = timeline.Push(RatioSample(2, 0.0));
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].kind, QualityAlertKind::kQualityGapCusum);
  EXPECT_TRUE(fired[0].raised);
  EXPECT_EQ(fired[0].epoch, 2u);
  EXPECT_TRUE(timeline.AlertActive(QualityAlertKind::kQualityGapCusum));

  // A healthy ratio drains S back to zero and clears the alert.
  std::vector<QualityAlert> cleared;
  for (std::uint64_t e = 3; cleared.empty() && e < 10; ++e) {
    cleared = timeline.Push(RatioSample(e, 1.0));
  }
  ASSERT_EQ(cleared.size(), 1u);
  EXPECT_EQ(cleared[0].kind, QualityAlertKind::kQualityGapCusum);
  EXPECT_FALSE(cleared[0].raised);
  EXPECT_FALSE(timeline.AlertActive(QualityAlertKind::kQualityGapCusum));
  EXPECT_EQ(timeline.alerts_raised_total(), 1u);
  EXPECT_EQ(timeline.alerts_cleared_total(), 1u);
}

TEST(ObsQualityTest, TransientDipDoesNotFireCusum) {
  QualityTimeline timeline(16);
  EXPECT_TRUE(timeline.Push(RatioSample(1, 0.0)).empty());
  EXPECT_TRUE(timeline.Push(RatioSample(2, 1.0)).empty());  // S drains
  EXPECT_TRUE(timeline.Push(RatioSample(3, 0.0)).empty());
  EXPECT_FALSE(timeline.AlertActive(QualityAlertKind::kQualityGapCusum));
}

TEST(ObsQualityTest, BurnRateSilentUntilFullWindowThenFires) {
  QualityDetectorOptions detectors;
  detectors.burn_window = 4;
  detectors.burn_error_budget = 0.25;  // one violation per window allowed
  // Neutralise the CUSUM so only burn-rate edges appear.
  detectors.cusum_threshold = 1e9;
  QualityTimeline timeline(16, detectors);

  // Three below-floor samples: window not full yet, no burn alert.
  for (std::uint64_t e = 1; e <= 3; ++e) {
    EXPECT_TRUE(timeline.Push(RatioSample(e, 0.0)).empty());
  }
  // Fourth sample completes the window: 4 violations / (4 * 0.25) = 4 > 1.
  const std::vector<QualityAlert> fired = timeline.Push(RatioSample(4, 0.0));
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].kind, QualityAlertKind::kQualityGapBurnRate);
  EXPECT_TRUE(fired[0].raised);

  // Healthy samples push the violations out of the window and clear it.
  std::vector<QualityAlert> cleared;
  for (std::uint64_t e = 5; cleared.empty() && e < 20; ++e) {
    cleared = timeline.Push(RatioSample(e, 1.0));
  }
  ASSERT_EQ(cleared.size(), 1u);
  EXPECT_FALSE(cleared[0].raised);
  EXPECT_FALSE(timeline.AlertActive(QualityAlertKind::kQualityGapBurnRate));
}

TEST(ObsQualityTest, AdoptionStalenessBurnRate) {
  QualityDetectorOptions detectors;
  detectors.burn_window = 4;
  detectors.burn_error_budget = 0.25;
  detectors.adoption_slo_epochs = 8;
  QualityTimeline timeline(16, detectors);

  std::vector<QualityAlert> fired;
  for (std::uint64_t e = 1; e <= 4; ++e) {
    // Healthy ratio, but the deployment is long past the adoption SLO.
    fired = timeline.Push(RatioSample(e, 1.0, /*since_adoption=*/20));
  }
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].kind, QualityAlertKind::kAdoptionStalenessBurnRate);
  EXPECT_TRUE(fired[0].raised);
}

TEST(ObsQualityTest, RingWrapKeepsNewestSamples) {
  QualityTimeline timeline(4);
  for (std::uint64_t e = 1; e <= 6; ++e) {
    timeline.Push(RatioSample(e, 1.0));
  }
  EXPECT_EQ(timeline.size(), 4u);
  EXPECT_EQ(timeline.samples_total(), 6u);
  const QualityTimelineSnapshot snapshot = timeline.Snapshot();
  ASSERT_EQ(snapshot.samples.size(), 4u);
  EXPECT_EQ(snapshot.samples.front().epoch, 3u);  // oldest first
  EXPECT_EQ(snapshot.samples.back().epoch, 6u);
  EXPECT_EQ(timeline.Latest().epoch, 6u);
}

TEST(ObsQualityTest, AlertLogCapped) {
  QualityTimeline timeline(8);
  for (int cycle = 0; cycle < 300; ++cycle) {
    const std::uint64_t base = static_cast<std::uint64_t>(cycle) * 3;
    timeline.Push(RatioSample(base + 1, 0.0));
    timeline.Push(RatioSample(base + 2, 0.0));  // CUSUM fires
    timeline.Push(RatioSample(base + 3, 2.0));  // CUSUM clears
  }
  const QualityTimelineSnapshot snapshot = timeline.Snapshot();
  EXPECT_EQ(snapshot.alerts.size(), QualityTimeline::kMaxAlertLog);
  EXPECT_GE(snapshot.alerts_raised_total, 300u);
}

TEST(ObsQualityTest, SnapshotRestoreRoundTrip) {
  QualityTimeline timeline(8);
  for (std::uint64_t e = 1; e <= 5; ++e) {
    timeline.Push(RatioSample(e, e % 2 == 0 ? 0.0 : 1.0));
  }
  const QualityTimelineSnapshot snapshot = timeline.Snapshot();

  QualityTimeline restored(8);
  ASSERT_TRUE(restored.Restore(snapshot));
  const QualityTimelineSnapshot again = restored.Snapshot();
  ASSERT_EQ(again.samples.size(), snapshot.samples.size());
  for (std::size_t i = 0; i < snapshot.samples.size(); ++i) {
    EXPECT_EQ(again.samples[i].epoch, snapshot.samples[i].epoch);
    EXPECT_DOUBLE_EQ(again.samples[i].realized_ratio,
                     snapshot.samples[i].realized_ratio);
  }
  EXPECT_EQ(again.alerts.size(), snapshot.alerts.size());
  EXPECT_DOUBLE_EQ(again.ewma, snapshot.ewma);
  EXPECT_EQ(again.ewma_primed, snapshot.ewma_primed);
  EXPECT_DOUBLE_EQ(again.cusum, snapshot.cusum);
  EXPECT_EQ(again.active_alerts, snapshot.active_alerts);
  EXPECT_EQ(again.samples_total, snapshot.samples_total);
  EXPECT_EQ(again.alerts_raised_total, snapshot.alerts_raised_total);
  EXPECT_EQ(again.alerts_cleared_total, snapshot.alerts_cleared_total);
}

TEST(ObsQualityTest, RestoreRejectsIncoherentSnapshots) {
  QualityTimeline timeline(4);

  QualityTimelineSnapshot too_many;
  too_many.samples.resize(5);
  too_many.samples_total = 5;
  EXPECT_FALSE(timeline.Restore(too_many));

  QualityTimelineSnapshot bad_bits;
  bad_bits.active_alerts = 1u << kNumQualityAlertKinds;
  EXPECT_FALSE(timeline.Restore(bad_bits));

  QualityTimelineSnapshot bad_ewma;
  bad_ewma.ewma = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(timeline.Restore(bad_ewma));

  QualityTimelineSnapshot bad_cusum;
  bad_cusum.cusum = -1.0;
  EXPECT_FALSE(timeline.Restore(bad_cusum));

  QualityTimelineSnapshot bad_total;
  bad_total.samples.resize(2);
  bad_total.samples_total = 1;  // lifetime total below live count
  EXPECT_FALSE(timeline.Restore(bad_total));

  QualityTimelineSnapshot long_log;
  long_log.alerts.resize(QualityTimeline::kMaxAlertLog + 1);
  EXPECT_FALSE(timeline.Restore(long_log));

  // Rejection leaves the timeline untouched.
  EXPECT_EQ(timeline.size(), 0u);
  EXPECT_EQ(timeline.samples_total(), 0u);
}

TEST(ObsQualityTest, PackedSampleArgRoundTrips) {
  std::uint64_t epoch = 0;
  double ratio = 0.0;
  UnpackQualitySampleArg(PackQualitySampleArg(123456, 0.654321), &epoch,
                         &ratio);
  EXPECT_EQ(epoch, 123456u);
  EXPECT_NEAR(ratio, 0.654321, 1e-6);

  // Ratio clamps into [0, 4] at ppm resolution.
  UnpackQualitySampleArg(PackQualitySampleArg(1, 99.0), &epoch, &ratio);
  EXPECT_DOUBLE_EQ(ratio, 4.0);
  UnpackQualitySampleArg(PackQualitySampleArg(1, -1.0), &epoch, &ratio);
  EXPECT_DOUBLE_EQ(ratio, 0.0);
}

TEST(ObsQualityTest, PackedAlertArgRoundTrips) {
  QualityAlert alert;
  alert.kind = QualityAlertKind::kAdoptionStalenessBurnRate;
  alert.raised = true;
  alert.epoch = 77;
  QualityAlert decoded;
  ASSERT_TRUE(UnpackQualityAlertArg(PackQualityAlertArg(alert), &decoded));
  EXPECT_EQ(decoded.kind, alert.kind);
  EXPECT_TRUE(decoded.raised);
  EXPECT_EQ(decoded.epoch, 77u);

  // Unknown kind bits are rejected rather than mapped to a valid kind.
  const std::uint64_t bogus = (77ull << 32) | (3u << 1) | 1u;
  EXPECT_FALSE(UnpackQualityAlertArg(bogus, &decoded));
}

}  // namespace
}  // namespace tdmd::obs
