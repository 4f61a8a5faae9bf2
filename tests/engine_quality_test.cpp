// Engine-level quality observability (DESIGN.md Section 11): the sampled
// decrement matches a from-scratch recomputation, the certified bound
// never sits below the realized decrement or the true brute-force optimum
// (property-tested over random tree and general instances under churn),
// the PATCH_ONLY CUSUM regression fires deterministically and clears on
// recovery, and the quality gauges surface through Engine::Metrics.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/brute_force.hpp"
#include "core/instance.hpp"
#include "engine/churn_trace.hpp"
#include "engine/engine.hpp"
#include "faults/faults.hpp"
#include "obs/metrics.hpp"
#include "obs/quality.hpp"
#include "obs/timeseries.hpp"
#include "topology/generators.hpp"
#include "traffic/generator.hpp"

namespace tdmd::engine {
namespace {

constexpr double kTol = 1e-7;

graph::Digraph GeneralNetwork(std::uint64_t seed, VertexId n) {
  Rng rng(seed);
  return topology::Waxman(n, 0.5, 0.4, rng);
}

traffic::FlowSet Prefill(const graph::Digraph& network, std::uint64_t seed,
                         std::size_t max_flows) {
  traffic::WorkloadParams params;
  params.flow_density = 0.05;
  params.max_flows = max_flows;
  Rng rng(seed);
  return traffic::GenerateGeneralWorkload(network, {}, params, rng);
}

/// Descending line digraph n-1 -> ... -> 0; the feasibility patch (ties
/// toward the lowest vertex id) covers whole-line flows at vertex 0 where
/// they diminish zero edges, so a PATCH_ONLY engine realizes a decrement
/// of zero against a large certified bound — a clean quality regression.
graph::Digraph DescendingLineNetwork(VertexId n) {
  graph::DigraphBuilder builder(n);
  for (VertexId v = n - 1; v > 0; --v) builder.AddArc(v, v - 1);
  return builder.Build();
}

traffic::Flow DescendingLineFlow(Rate rate, VertexId from) {
  traffic::Flow f;
  f.rate = rate;
  for (VertexId v = from; v >= 0; --v) f.path.vertices.push_back(v);
  f.src = from;
  f.dst = 0;
  return f;
}

/// Serves `prefill` and then 8 epochs of churn drawn from `trace_seed`
/// (the prefill counts as live), and after every epoch cross-validates the
/// freshest quality sample against a from-scratch core::Instance of the
/// live flows: the sampled decrement must match unprocessed - bandwidth,
/// the certified bound must cover the realized decrement, and on these
/// small instances the bound must also cover the exact brute-force
/// optimum (the claim it certifies).
void ReplayAndValidate(const graph::Digraph& network,
                       const traffic::FlowSet& prefill,
                       std::uint64_t trace_seed, std::size_t k,
                       double lambda) {
  EngineOptions options;
  options.k = k;
  options.lambda = lambda;
  Engine engine(network, options);

  ChurnModel churn;
  churn.arrival_count = 3;
  churn.departure_probability = 0.2;
  const ChurnTrace trace =
      BuildChurnTrace(network, churn, 8, prefill.size(), trace_seed);

  // Every flow and its ticket by arrival sequence, and which are live.
  traffic::FlowSet flows = prefill;
  std::vector<FlowTicket> tickets = engine.SubmitBatch(prefill, {}).tickets;
  std::vector<bool> live(flows.size(), true);
  std::size_t certified_samples = 0;
  for (const ChurnEpoch& epoch : trace.epochs) {
    std::vector<FlowTicket> departing;
    for (std::size_t sequence : epoch.departures) {
      ASSERT_LT(sequence, tickets.size());
      departing.push_back(tickets[sequence]);
      live[sequence] = false;
    }
    const Engine::BatchResult result =
        engine.SubmitBatch(epoch.arrivals, departing);
    tickets.insert(tickets.end(), result.tickets.begin(),
                   result.tickets.end());
    flows.insert(flows.end(), epoch.arrivals.begin(), epoch.arrivals.end());
    live.resize(flows.size(), true);
    const obs::QualityTimelineSnapshot timeline = engine.QualityTimeline();
    ASSERT_FALSE(timeline.samples.empty());
    const obs::QualitySample& sample = timeline.samples.back();
    certified_samples += sample.certified ? 1 : 0;

    const auto snapshot = engine.CurrentSnapshot();
    EXPECT_DOUBLE_EQ(sample.bandwidth, snapshot->bandwidth);
    EXPECT_DOUBLE_EQ(sample.decrement,
                     sample.unprocessed - sample.bandwidth);
    EXPECT_LE(sample.decrement, sample.opt_bound + kTol);

    traffic::FlowSet mirror;
    for (std::size_t sequence = 0; sequence < flows.size(); ++sequence) {
      if (live[sequence]) mirror.push_back(flows[sequence]);
    }
    if (mirror.empty()) continue;
    const core::Instance instance(network, mirror, lambda);
    EXPECT_DOUBLE_EQ(sample.unprocessed, instance.UnprocessedBandwidth());
    const Bandwidth optimum = core::BruteForceMaxDecrement(instance, k);
    EXPECT_LE(optimum, sample.opt_bound + kTol)
        << "certificate below the true optimum at epoch " << sample.epoch;
    EXPECT_LE(sample.decrement, optimum + kTol);
  }
  // The sync engine re-solves every epoch, so the certificate (not just
  // the trivial serve-at-source bound) must actually be exercised.
  EXPECT_GT(certified_samples, 0u);
}

TEST(EngineQualityTest, CertificateCoversOptimumOnGeneralInstances) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const graph::Digraph network = GeneralNetwork(seed, 9);
    ReplayAndValidate(network, Prefill(network, seed + 100, 8),
                      /*trace_seed=*/seed + 200, /*k=*/2, /*lambda=*/0.5);
  }
}

TEST(EngineQualityTest, CertificateCoversOptimumOnTreeInstances) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    const graph::Tree tree = topology::RandomTree(10, rng);
    const graph::Digraph network = tree.ToDigraph();
    traffic::WorkloadParams params;
    params.flow_density = 0.05;
    params.max_flows = 8;
    Rng wl_rng(seed + 300);
    const traffic::FlowSet prefill =
        traffic::GenerateTreeWorkload(tree, params, wl_rng);
    ReplayAndValidate(network, prefill, /*trace_seed=*/seed + 400,
                      /*k=*/2, /*lambda=*/0.4);
  }
}

// Deterministic regression drill (ISSUE acceptance): every re-solve
// throws, the engine degrades into PATCH_ONLY serving whole-line flows at
// the path tail (zero realized decrement), and the quality-gap CUSUM must
// fire within a bounded number of epochs.  Disarming the injector lets
// the next probe re-solve adopt a real placement, and the alert clears.
TEST(EngineQualityTest, CusumFiresInPatchOnlyAndClearsOnRecovery) {
  const VertexId n = 10;
  const graph::Digraph network = DescendingLineNetwork(n);

  faults::FaultSpec spec;
  spec.seed = 7;
  spec.at(faults::FaultSite::kGreedyRound).throw_probability = 1.0;
  faults::FaultInjector injector(spec);

  EngineOptions options;
  options.k = 3;
  options.lambda = 0.5;
  options.fault_injector = &injector;
  options.max_resolve_retries = 0;
  options.degrade_after_failures = 1;
  options.patch_only_after_failures = 2;
  options.probe_interval_epochs = 2;
  Engine engine(network, options);

  std::uint64_t raised_epoch = 0;
  for (std::uint64_t e = 1; e <= 10 && raised_epoch == 0; ++e) {
    engine.SubmitBatch({DescendingLineFlow(4, n - 1)}, {});
    const obs::QualityTimelineSnapshot timeline = engine.QualityTimeline();
    if ((timeline.active_alerts &
         (1u << static_cast<std::uint32_t>(
              obs::QualityAlertKind::kQualityGapCusum))) != 0) {
      raised_epoch = e;
    }
  }
  ASSERT_GT(raised_epoch, 0u) << "CUSUM never fired under PATCH_ONLY";
  EXPECT_LE(raised_epoch, 5u);  // ~2 epochs below floor - slack suffice
  EXPECT_EQ(engine.mode(), EngineMode::kPatchOnly);
  const obs::QualitySample degraded =
      engine.QualityTimeline().samples.back();
  EXPECT_LT(degraded.realized_ratio, obs::kQualityRatioFloor);

  injector.Disarm();
  std::uint64_t cleared_epoch = 0;
  for (std::uint64_t e = 1; e <= 20 && cleared_epoch == 0; ++e) {
    engine.SubmitBatch({DescendingLineFlow(4, n - 1)}, {});
    const obs::QualityTimelineSnapshot timeline = engine.QualityTimeline();
    if ((timeline.active_alerts &
         (1u << static_cast<std::uint32_t>(
              obs::QualityAlertKind::kQualityGapCusum))) == 0) {
      cleared_epoch = e;
    }
  }
  ASSERT_GT(cleared_epoch, 0u) << "CUSUM never cleared after recovery";
  EXPECT_EQ(engine.mode(), EngineMode::kNormal);
  const obs::QualityTimelineSnapshot timeline = engine.QualityTimeline();
  EXPECT_GE(timeline.alerts_raised_total, 1u);
  EXPECT_GE(timeline.alerts_cleared_total, 1u);
  EXPECT_GT(timeline.samples.back().realized_ratio,
            obs::kQualityRatioFloor);
}

TEST(EngineQualityTest, AttributionCoversDeployedVertices) {
  const graph::Digraph network = GeneralNetwork(11, 12);
  EngineOptions options;
  options.k = 3;
  Engine engine(network, options);
  const traffic::FlowSet prefill = Prefill(network, 21, 24);
  engine.SubmitBatch(prefill, {});
  engine.SubmitBatch({}, {});

  const obs::QualityTimelineSnapshot timeline = engine.QualityTimeline();
  ASSERT_FALSE(timeline.samples.empty());
  const obs::QualitySample& sample = timeline.samples.back();
  const auto snapshot = engine.CurrentSnapshot();
  EXPECT_EQ(sample.attribution.size(), snapshot->deployment.size());
  for (const obs::VertexAttribution& attr : sample.attribution) {
    EXPECT_TRUE(snapshot->deployment.Contains(attr.vertex));
    EXPECT_GE(attr.marginal_decrement, 0.0);
  }
}

TEST(EngineQualityTest, QualityGaugesExposedThroughMetrics) {
  const graph::Digraph network = GeneralNetwork(5, 10);
  EngineOptions options;
  options.k = 2;
  Engine engine(network, options);
  const traffic::FlowSet prefill = Prefill(network, 31, 12);
  engine.SubmitBatch(prefill, {});

  std::ostringstream os;
  engine.DumpMetrics(os, obs::MetricsFormat::kPrometheus);
  const std::string dump = os.str();
  EXPECT_NE(dump.find("tdmd_quality_samples_total"), std::string::npos);
  EXPECT_NE(dump.find("tdmd_quality_realized_ratio"), std::string::npos);
  EXPECT_NE(dump.find("tdmd_quality_opt_bound"), std::string::npos);
  EXPECT_NE(dump.find("tdmd_quality_alerts_active"), std::string::npos);
}

TEST(EngineQualityTest, SamplingDisabledKeepsTimelineEmpty) {
  const graph::Digraph network = GeneralNetwork(5, 10);
  EngineOptions options;
  options.k = 2;
  options.quality_sampling = false;
  Engine engine(network, options);
  const traffic::FlowSet prefill = Prefill(network, 31, 12);
  engine.SubmitBatch(prefill, {});
  const obs::QualityTimelineSnapshot timeline = engine.QualityTimeline();
  EXPECT_TRUE(timeline.samples.empty());
  EXPECT_EQ(timeline.samples_total, 0u);
}

}  // namespace
}  // namespace tdmd::engine
