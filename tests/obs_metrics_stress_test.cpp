// TSan-targeted stress: reader threads hammer Engine::Metrics /
// DumpMetrics / QualityTimeline while the engine churns with a
// tracer installed (Metrics also reads the tracer's per-ring drop
// counters, so the exposition path races against ring writers unless the
// locking is right).  Plus deterministic coverage for
// Tracer::DroppedTotal over rings with differing drop counts and for
// histogram merge/snapshot coherence.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/churn_trace.hpp"
#include "engine/engine.hpp"
#include "obs/histogram.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "topology/generators.hpp"

namespace tdmd::obs {
namespace {

TEST(ObsMetricsStress, ConcurrentMetricsReadsDuringChurn) {
  Rng rng(101);
  const graph::Digraph network = topology::Waxman(18, 0.5, 0.4, rng);
  core::ChurnModel churn;
  churn.arrival_count = 10;
  churn.departure_probability = 0.25;

  for (int iteration = 0; iteration < 2; ++iteration) {
    // Small rings so drop counters actually move while Metrics reads them.
    Tracer tracer(/*ring_capacity=*/256);
    InstallTracer(&tracer);
    {
      engine::EngineOptions options;
      options.k = 4;
      engine::Engine eng(network, options);

      std::atomic<bool> stop{false};
      std::atomic<std::uint64_t> reads{0};
      std::vector<std::thread> readers;
      readers.emplace_back([&] {
        while (!stop.load(std::memory_order_acquire)) {
          std::ostringstream os;
          eng.DumpMetrics(os, MetricsFormat::kPrometheus);
          reads.fetch_add(os.str().empty() ? 0 : 1);
          std::this_thread::yield();
        }
      });
      readers.emplace_back([&] {
        while (!stop.load(std::memory_order_acquire)) {
          const MetricsRegistry registry = eng.Metrics();
          std::ostringstream os;
          registry.Render(os, MetricsFormat::kJson);
          const QualityTimelineSnapshot timeline = eng.QualityTimeline();
          reads.fetch_add(1 + timeline.samples.size() * 0);
          std::this_thread::yield();
        }
      });

      // Churn starts only once a reader is running, so the scrapes race
      // SubmitBatch instead of finishing after it.
      while (reads.load() == 0) std::this_thread::yield();

      Rng trace_rng(102 + static_cast<std::uint64_t>(iteration));
      const engine::ChurnTrace trace =
          engine::BuildChurnTrace(network, churn, 12, 0, trace_rng);
      std::vector<engine::FlowTicket> active;
      for (const engine::ChurnEpoch& epoch : trace.epochs) {
        std::vector<engine::FlowTicket> departing;
        for (std::size_t position : epoch.departures) {
          departing.push_back(active[position]);
        }
        for (auto it = epoch.departures.rbegin();
             it != epoch.departures.rend(); ++it) {
          active.erase(active.begin() + static_cast<std::ptrdiff_t>(*it));
        }
        const auto result = eng.SubmitBatch(epoch.arrivals, departing);
        active.insert(active.end(), result.tickets.begin(),
                      result.tickets.end());
      }

      // The final dump, taken while the tracer is still installed, must
      // carry both the quality gauges and the trace drop counter.
      std::ostringstream os;
      eng.DumpMetrics(os, MetricsFormat::kPrometheus);
      EXPECT_NE(os.str().find("tdmd_quality_samples_total"),
                std::string::npos);
      EXPECT_NE(os.str().find("tdmd_trace_dropped_total"),
                std::string::npos);

      stop.store(true, std::memory_order_release);
      for (std::thread& reader : readers) reader.join();
      EXPECT_GT(reads.load(), 0u);
    }
    InstallTracer(nullptr);
    (void)tracer.Drain();
  }
}

TEST(ObsMetricsStress, DroppedTotalSumsRingsWithDifferingDropCounts) {
  Tracer tracer(/*ring_capacity=*/8);
  InstallTracer(&tracer);
  // This thread's ring wraps 12 times; the helper thread's ring never
  // wraps, so the total must reflect two rings in different states.
  for (int i = 0; i < 20; ++i) {
    TraceInstant(TracePhase::kQualitySample, static_cast<std::uint64_t>(i));
  }
  std::thread helper([] {
    TraceInstant(TracePhase::kQualitySample, 100);
    TraceInstant(TracePhase::kQualitySample, 101);
  });
  helper.join();
  InstallTracer(nullptr);

  EXPECT_EQ(tracer.DroppedTotal(), 12u);
  const TraceDrainResult drained = tracer.Drain();
  EXPECT_EQ(drained.dropped, 12u);
  EXPECT_EQ(drained.events.size(), 10u);  // 8 survivors + 2 helper events
  // Drop counters are cumulative: draining must not reset them.
  EXPECT_EQ(tracer.DroppedTotal(), 12u);
}

TEST(ObsMetricsStress, HistogramMergeAndSnapshotStayCoherent) {
  LatencyHistogram a;
  LatencyHistogram b;
  for (std::uint64_t v = 1; v <= 100; ++v) a.Record(v);
  for (std::uint64_t v = 1000; v <= 1004; ++v) b.Record(v);

  a.Merge(b);
  EXPECT_EQ(a.count(), 105u);
  EXPECT_EQ(a.min(), 1u);
  EXPECT_EQ(a.max(), 1004u);

  LatencyHistogram restored;
  ASSERT_TRUE(restored.Restore(a.Snapshot()));
  EXPECT_EQ(restored.count(), a.count());
  EXPECT_EQ(restored.sum(), a.sum());
  EXPECT_EQ(restored.Quantile(0.5), a.Quantile(0.5));
}

}  // namespace
}  // namespace tdmd::obs
