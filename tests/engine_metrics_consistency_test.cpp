// Regression coverage for the Metrics() torn-view fix: counters, the
// latency histograms and the quality timeline used to be captured under
// three separate state_mu_ acquisitions (stats(), histograms(),
// QualityTimeline()), so an epoch landing between them produced an
// exposition where tdmd_engine_epochs disagreed with the per-epoch
// histogram counts.  Metrics() now captures all three under one lock
// acquisition, making the cross-metric invariants below hold within
// every single exposition, even one raced against live churn.
#include "engine/engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/churn_trace.hpp"
#include "obs/metrics.hpp"
#include "topology/generators.hpp"

namespace tdmd::engine {
namespace {

// Extracts the value of a `name value` Prometheus sample line.
std::uint64_t PrometheusValue(const std::string& exposition,
                              const std::string& name) {
  std::istringstream is(exposition);
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind(name + " ", 0) == 0) {
      return std::stoull(line.substr(name.size() + 1));
    }
  }
  ADD_FAILURE() << "sample not found: " << name;
  return 0;
}

// One SubmitBatch records exactly one patch sample and one index-delta
// sample, so within a single exposition both histogram counts must equal
// the epoch counter — regardless of how many epochs complete while the
// exposition is being taken.
void ExpectCoherent(const std::string& exposition) {
  const std::uint64_t epochs =
      PrometheusValue(exposition, "tdmd_engine_epochs");
  EXPECT_EQ(PrometheusValue(exposition,
                            "tdmd_engine_patch_latency_seconds_count"),
            epochs)
      << exposition;
  EXPECT_EQ(PrometheusValue(exposition,
                            "tdmd_engine_index_delta_cost_seconds_count"),
            epochs)
      << exposition;
}

TEST(EngineMetricsConsistency, SingleExpositionInvariantsUnderChurn) {
  Rng rng(2024);
  const graph::Digraph network = topology::Waxman(16, 0.5, 0.4, rng);
  ChurnModel churn;
  churn.arrival_count = 8;
  churn.departure_probability = 0.3;

  EngineOptions options;
  options.k = 4;
  Engine eng(network, options);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> expositions{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      std::ostringstream os;
      eng.DumpMetrics(os, obs::MetricsFormat::kPrometheus);
      ExpectCoherent(os.str());
      expositions.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::yield();
    }
  });

  // Churn starts only once the reader is running, so the expositions
  // race SubmitBatch instead of finishing after it.
  while (expositions.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }

  Rng trace_rng(2025);
  const ChurnTrace trace = BuildChurnTrace(network, churn, 24, 0, trace_rng);
  std::vector<FlowTicket> handles;  // by arrival sequence
  for (const ChurnEpoch& epoch : trace.epochs) {
    std::vector<FlowTicket> departing;
    for (std::size_t sequence : epoch.departures) {
      departing.push_back(handles[sequence]);
    }
    const auto result = eng.SubmitBatch(epoch.arrivals, departing);
    handles.insert(handles.end(), result.tickets.begin(),
                   result.tickets.end());
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_GT(expositions.load(std::memory_order_relaxed), 0u);

  // Quiesced: the invariants hold and the epoch counter is exact.
  std::ostringstream os;
  eng.DumpMetrics(os, obs::MetricsFormat::kPrometheus);
  ExpectCoherent(os.str());
  EXPECT_EQ(PrometheusValue(os.str(), "tdmd_engine_epochs"),
            trace.epochs.size());
}

}  // namespace
}  // namespace tdmd::engine
