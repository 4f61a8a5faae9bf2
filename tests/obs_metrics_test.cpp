// Metrics exposition: golden Prometheus and JSON renderings for a small
// registry, plus the engine-level guarantee that Engine::Metrics exposes
// every TDMD_ENGINE_STATS_COUNTERS counter and all four latency
// histograms (iterating the same X-macro the engine does, so a counter
// added to the list can never silently go missing from the exposition).
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "engine/churn_trace.hpp"
#include "engine/engine.hpp"
#include "obs/histogram.hpp"
#include "topology/generators.hpp"
#include "traffic/flow.hpp"

namespace tdmd::obs {
namespace {

MetricsRegistry SmallRegistry() {
  MetricsRegistry registry;
  registry.AddCounter("tdmd_test_total", 5, "test counter");
  LatencyHistogram histogram;
  for (std::uint64_t v = 1; v <= 16; ++v) histogram.Record(v);
  registry.AddHistogramNs("tdmd_test_latency", histogram, "test latency");
  return registry;
}

TEST(ObsMetricsTest, PrometheusGolden) {
  std::ostringstream os;
  SmallRegistry().Render(os, MetricsFormat::kPrometheus);
  const std::string expected =
      "# HELP tdmd_test_total test counter\n"
      "# TYPE tdmd_test_total counter\n"
      "tdmd_test_total 5\n"
      "# HELP tdmd_test_latency_seconds test latency\n"
      "# TYPE tdmd_test_latency_seconds summary\n"
      "tdmd_test_latency_seconds{quantile=\"0.5\"} 0.000000008\n"
      "tdmd_test_latency_seconds{quantile=\"0.95\"} 0.000000016\n"
      "tdmd_test_latency_seconds{quantile=\"0.99\"} 0.000000016\n"
      "tdmd_test_latency_seconds_sum 0.000000136\n"
      "tdmd_test_latency_seconds_count 16\n";
  EXPECT_EQ(os.str(), expected);
}

TEST(ObsMetricsTest, JsonGolden) {
  std::ostringstream os;
  SmallRegistry().Render(os, MetricsFormat::kJson);
  const std::string expected =
      "{\n"
      "  \"counters\": {\n"
      "    \"tdmd_test_total\": 5\n"
      "  },\n"
      "  \"histograms\": {\n"
      "    \"tdmd_test_latency\": {\"count\": 16, \"sum_ns\": 136, "
      "\"min_ns\": 1, \"max_ns\": 16, \"p50_ns\": 8, \"p95_ns\": 16, "
      "\"p99_ns\": 16, \"mean_ns\": 8.500}\n"
      "  }\n"
      "}\n";
  EXPECT_EQ(os.str(), expected);
}

TEST(ObsMetricsTest, EngineMetricsExposeEveryCounterAndHistogram) {
  Rng rng(93);
  const graph::Digraph network = topology::Waxman(16, 0.5, 0.4, rng);
  engine::EngineOptions options;
  options.k = 3;
  engine::Engine eng(network, options);
  engine::ChurnModel churn;
  churn.arrival_count = 8;
  const traffic::FlowSet arrivals =
      engine::DrawArrivals(network, churn, rng);
  (void)eng.SubmitBatch(arrivals, {});

  std::ostringstream prom_os;
  eng.DumpMetrics(prom_os, MetricsFormat::kPrometheus);
  const std::string prom = prom_os.str();
  std::ostringstream json_os;
  eng.DumpMetrics(json_os, MetricsFormat::kJson);
  const std::string json = json_os.str();

  // Iterate the same X-macro Engine::Metrics uses: presence of every
  // counter in both renderings is checked by construction, not by a
  // hand-maintained list.
#define TDMD_EXPECT_COUNTER(name)                                        \
  EXPECT_NE(prom.find("\ntdmd_engine_" #name " "), std::string::npos)    \
      << #name;                                                          \
  EXPECT_NE(json.find("\"tdmd_engine_" #name "\": "), std::string::npos) \
      << #name;
  TDMD_ENGINE_STATS_COUNTERS(TDMD_EXPECT_COUNTER)
#undef TDMD_EXPECT_COUNTER
  EXPECT_NE(json.find("\"tdmd_engine_mode\": "), std::string::npos);

  for (const char* histogram : {"tdmd_engine_patch_latency",
                                "tdmd_engine_resolve_latency",
                                "tdmd_engine_index_delta_cost",
                                "tdmd_engine_greedy_round"}) {
    const std::string quantile =
        std::string(histogram) + "_seconds{quantile=\"0.5\"}";
    EXPECT_NE(prom.find(quantile), std::string::npos) << histogram;
    const std::string json_key = std::string("\"") + histogram + "\": {";
    EXPECT_NE(json.find(json_key), std::string::npos) << histogram;
  }
  // The synchronous SubmitBatch above recorded real samples.
  const engine::EngineHistograms histograms = eng.histograms();
  EXPECT_GE(histograms.patch_ns.count(), 1u);
  EXPECT_GE(histograms.index_delta_ns.count(), 1u);
}

}  // namespace
}  // namespace tdmd::obs
