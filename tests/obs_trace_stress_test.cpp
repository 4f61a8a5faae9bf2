// TSan-targeted stress: the engine's client thread emits trace events
// while a separate thread drains the tracer, across engine churn,
// checkpoint capture, and engine shutdown.  The CI tsan job runs this
// suite (with ObsMetricsStress) to certify the tracer's lock-light
// rings: every drain must be well-formed — timestamps monotone after the
// (start_ns, tid) sort, dense thread ids — with no data-race reports.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "engine/checkpoint.hpp"
#include "engine/churn_trace.hpp"
#include "engine/engine.hpp"
#include "topology/generators.hpp"

namespace tdmd::obs {
namespace {

/// Checks one drain result for well-formedness; returns the number of
/// violations so worker threads can report without gtest ASSERTs.
std::uint64_t CountViolations(const TraceDrainResult& drained) {
  std::uint64_t violations = 0;
  for (std::size_t i = 0; i < drained.events.size(); ++i) {
    const TraceEvent& event = drained.events[i];
    if (event.tid >= drained.num_threads) ++violations;
    if (!event.is_span && event.duration_ns != 0) ++violations;
    if (i > 0 && event.start_ns < drained.events[i - 1].start_ns) {
      ++violations;
    }
  }
  return violations;
}

TEST(ObsTraceStress, ConcurrentEmissionDuringChurnAndShutdown) {
  Rng rng(97);
  const graph::Digraph network = topology::Waxman(18, 0.5, 0.4, rng);
  core::ChurnModel churn;
  churn.arrival_count = 10;
  churn.departure_probability = 0.25;

  for (int iteration = 0; iteration < 3; ++iteration) {
    // Small rings so wrap-around happens under load, exercising the
    // overwrite path concurrently with Drain.
    Tracer tracer(/*ring_capacity=*/256);
    InstallTracer(&tracer);

    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> violations{0};
    std::atomic<std::uint64_t> drained_events{0};
    std::atomic<std::uint64_t> drains{0};
    std::thread drainer([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const TraceDrainResult drained = tracer.Drain();
        violations.fetch_add(CountViolations(drained));
        drained_events.fetch_add(drained.events.size());
        drains.fetch_add(1);
        std::this_thread::yield();
      }
    });
    // Churn starts only once the drainer is running, so the drains race
    // emission instead of finishing after it.
    while (drains.load() == 0) std::this_thread::yield();

    {
      engine::EngineOptions options;
      options.k = 4;
      engine::Engine eng(network, options);

      Rng trace_rng(98 + static_cast<std::uint64_t>(iteration));
      const engine::ChurnTrace trace =
          engine::BuildChurnTrace(network, churn, 12, 0, trace_rng);
      std::vector<engine::FlowTicket> active;
      std::size_t epoch_index = 0;
      for (const engine::ChurnEpoch& epoch : trace.epochs) {
        std::vector<engine::FlowTicket> departing;
        for (std::size_t position : epoch.departures) {
          departing.push_back(active[position]);
        }
        for (auto it = epoch.departures.rbegin();
             it != epoch.departures.rend(); ++it) {
          active.erase(active.begin() +
                       static_cast<std::ptrdiff_t>(*it));
        }
        const auto result = eng.SubmitBatch(epoch.arrivals, departing);
        active.insert(active.end(), result.tickets.begin(),
                      result.tickets.end());
        if (++epoch_index % 4 == 0) {
          (void)eng.Checkpoint();  // kCheckpoint spans under load
        }
      }
      // Engine destruction mid-traffic: the drainer keeps draining
      // while the engine goes away.
    }

    InstallTracer(nullptr);
    stop.store(true, std::memory_order_release);
    drainer.join();

    const TraceDrainResult final_drain = tracer.Drain();
    violations.fetch_add(CountViolations(final_drain));
    drained_events.fetch_add(final_drain.events.size());

    EXPECT_EQ(violations.load(), 0u) << "iteration " << iteration;
    EXPECT_GE(drained_events.load() + final_drain.dropped, 1u);
  }
}

}  // namespace
}  // namespace tdmd::obs
