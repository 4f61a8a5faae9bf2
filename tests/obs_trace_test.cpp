// Tracer behavior: install/uninstall, span and instant emission, ring
// overwrite accounting, drain ordering, and the Chrome-JSON writer
// (validated by reading the JSON back through ReadChromeTrace and the
// phase-table builder).
// Ends with an engine-integration check that a traced synchronous run
// emits the expected phases.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/checkpoint.hpp"
#include "engine/churn_trace.hpp"
#include "engine/engine.hpp"
#include "obs/trace_report.hpp"
#include "topology/generators.hpp"

namespace tdmd::obs {
namespace {

/// Installs `tracer` for the test's scope; uninstalls on exit even if an
/// assertion fails mid-test.
class ScopedInstall {
 public:
  explicit ScopedInstall(Tracer* tracer) { InstallTracer(tracer); }
  ~ScopedInstall() { InstallTracer(nullptr); }
};

std::size_t Count(const std::string& text, const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

TEST(ObsTraceTest, NoTracerInstalledIsInert) {
  ASSERT_EQ(CurrentTracer(), nullptr);
  // Hooks must be callable with no tracer; nothing to observe but the
  // absence of a crash.
  TraceInstant(TracePhase::kAdoption, 3);
  { ScopedSpan span(TracePhase::kEpoch, 1); }
  EXPECT_EQ(CurrentTracer(), nullptr);
}

TEST(ObsTraceTest, EmitAndDrainRoundTrip) {
  Tracer tracer;
  ScopedInstall install(&tracer);
  EXPECT_EQ(CurrentTracer(), &tracer);

  TraceInstant(TracePhase::kAdoption, 7);
  {
    ScopedSpan span(TracePhase::kEpoch, 0);
    span.set_arg(42);
  }
  const TraceDrainResult drained = tracer.Drain();
  ASSERT_EQ(drained.events.size(), 2u);
  EXPECT_EQ(drained.dropped, 0u);
  EXPECT_EQ(drained.num_threads, 1u);

  const TraceEvent& instant = drained.events[0];
  EXPECT_EQ(instant.phase, TracePhase::kAdoption);
  EXPECT_FALSE(instant.is_span);
  EXPECT_EQ(instant.arg, 7u);
  EXPECT_EQ(instant.duration_ns, 0u);

  const TraceEvent& span = drained.events[1];
  EXPECT_EQ(span.phase, TracePhase::kEpoch);
  EXPECT_TRUE(span.is_span);
  EXPECT_EQ(span.arg, 42u);
  EXPECT_GE(span.start_ns, instant.start_ns);

  // A second drain starts empty.
  EXPECT_TRUE(tracer.Drain().events.empty());
}

TEST(ObsTraceTest, FullRingOverwritesOldestAndCountsDrops) {
  Tracer tracer(/*ring_capacity=*/4);
  ScopedInstall install(&tracer);
  for (std::uint64_t i = 0; i < 10; ++i) {
    TraceInstant(TracePhase::kCelfPop, i);
  }
  const TraceDrainResult drained = tracer.Drain();
  ASSERT_EQ(drained.events.size(), 4u);
  EXPECT_EQ(drained.dropped, 6u);
  // The survivors are the newest four, oldest-first.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(drained.events[i].arg, 6 + i);
  }
}

TEST(ObsTraceTest, DrainMergesThreadsSortedByTimestamp) {
  Tracer tracer;
  ScopedInstall install(&tracer);
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 50;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        tracer.Emit(TracePhase::kPoolTaskRun, /*is_span=*/true,
                    tracer.NowNs(), 1, i);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const TraceDrainResult drained = tracer.Drain();
  EXPECT_EQ(drained.events.size(), kThreads * kPerThread);
  EXPECT_EQ(drained.num_threads, static_cast<std::size_t>(kThreads));
  for (std::size_t i = 1; i < drained.events.size(); ++i) {
    EXPECT_GE(drained.events[i].start_ns,
              drained.events[i - 1].start_ns);
  }
}

TEST(ObsTraceTest, ChromeTraceParsesBackThroughTraceReport) {
  Tracer tracer;
  ScopedInstall install(&tracer);
  { ScopedSpan span(TracePhase::kGtpRound, 1); }
  { ScopedSpan span(TracePhase::kGtpRound, 2); }
  TraceInstant(TracePhase::kHatExtract);

  std::ostringstream json;
  WriteChromeTrace(json, tracer.Drain());

  std::istringstream in(json.str());
  const ChromeTrace trace = ReadChromeTrace(in);
  ASSERT_TRUE(trace.ok) << trace.error;
  EXPECT_EQ(trace.dropped, 0u);
  const TraceReport report = BuildTraceReport(trace);
  EXPECT_EQ(report.num_events, 3u);
  EXPECT_EQ(report.num_threads, 1u);
  std::map<std::string, std::uint64_t> counts;
  for (const TraceReportRow& row : report.rows) {
    counts[row.name] = row.count;
  }
  EXPECT_EQ(counts["gtp-round"], 2u);
  EXPECT_EQ(counts["hat-extract"], 1u);

  std::ostringstream table;
  WriteTraceReport(table, report);
  EXPECT_NE(table.str().find("gtp-round"), std::string::npos);
  // A complete trace carries no partial marker.
  EXPECT_EQ(table.str().find("partial:"), std::string::npos);
}

TEST(ObsTraceTest, DroppedEventsMarkTheTraceReportPartial) {
  Tracer tracer(/*ring_capacity=*/2);
  {
    ScopedInstall install(&tracer);
    for (std::uint64_t i = 0; i < 8; ++i) {
      TraceInstant(TracePhase::kCelfPop, i);
    }
  }
  std::ostringstream json;
  WriteChromeTrace(json, tracer.Drain());

  std::istringstream in(json.str());
  const ChromeTrace trace = ReadChromeTrace(in);
  ASSERT_TRUE(trace.ok) << trace.error;
  EXPECT_EQ(trace.events.size(), 2u);
  EXPECT_EQ(trace.dropped, 6u);

  std::ostringstream table;
  WriteTraceReport(table, BuildTraceReport(trace));
  const std::string text = table.str();
  // The marker is the line right under the header.
  const std::string after_header = text.substr(text.find('\n') + 1);
  EXPECT_EQ(after_header.rfind("partial: 6 events dropped", 0), 0u) << text;
}

TEST(ObsTraceTest, TracedEngineRunEmitsExpectedPhases) {
  Rng rng(91);
  const graph::Digraph network = topology::Waxman(20, 0.5, 0.4, rng);
  core::ChurnModel churn;
  churn.arrival_count = 6;
  churn.departure_probability = 0.2;
  Rng trace_rng(92);
  const engine::ChurnTrace trace =
      engine::BuildChurnTrace(network, churn, 6, 0, trace_rng);

  Tracer tracer;
  ScopedInstall install(&tracer);
  engine::EngineOptions options;
  options.k = 4;
  engine::Engine eng(network, options);
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
  (void)eng.Checkpoint();

  const TraceDrainResult drained = tracer.Drain();
  std::map<TracePhase, std::uint64_t> counts;
  for (const TraceEvent& event : drained.events) {
    ++counts[event.phase];
  }
  EXPECT_EQ(counts[TracePhase::kEpoch], trace.epochs.size());
  EXPECT_EQ(counts[TracePhase::kIndexDelta], trace.epochs.size());
  EXPECT_EQ(counts[TracePhase::kPatch], trace.epochs.size());
  EXPECT_GE(counts[TracePhase::kResolveAttempt], 1u);
  EXPECT_GE(counts[TracePhase::kGtpRound], 1u);
  EXPECT_GE(counts[TracePhase::kCelfPop], 1u);
  EXPECT_EQ(counts[TracePhase::kCheckpoint], 1u);
}

TEST(ObsTraceTest, BatchBoundEventsEmitFlowChain) {
  Tracer tracer;
  ScopedInstall install(&tracer);
  // Three spans bound to batch 7 on one thread, one unbound span.
  {
    ScopedSpan span(TracePhase::kFleetSubmit, 2);
    span.set_batch(7);
  }
  {
    ScopedSpan span(TracePhase::kPatch);
    span.set_batch(7);
  }
  TraceInstant(TracePhase::kBatchAdopted, /*arg=*/3, /*batch=*/7);
  { ScopedSpan span(TracePhase::kEpoch, 1); }

  std::ostringstream json;
  WriteChromeTrace(json, tracer.Drain());
  const std::string text = json.str();

  // Every bound event carries its batch id in args; the unbound one
  // must not.
  EXPECT_EQ(Count(text, "\"batch\":7"), 3u);
  // One flow chain per batch id: exactly one start ('s'), one finish
  // ('f'), and the middle event gets a step ('t').
  EXPECT_EQ(Count(text, "\"ph\":\"s\""), 1u);
  EXPECT_EQ(Count(text, "\"ph\":\"t\""), 1u);
  EXPECT_EQ(Count(text, "\"ph\":\"f\""), 1u);
  // Flow records share name/cat "batch" and the batch id as their id.
  EXPECT_NE(text.find("\"cat\":\"batch\""), std::string::npos);
  EXPECT_NE(text.find("\"id\":7"), std::string::npos);
  // The finish record binds at the enclosing slice ("bp":"e").
  EXPECT_NE(text.find("\"bp\":\"e\""), std::string::npos);

  // The reader validates and then drops the flow records: they are
  // viewer decorations, not run events, so the phase table counts the
  // 4 emitted events and lists no "batch" phase.
  std::istringstream in(text);
  const ChromeTrace trace = ReadChromeTrace(in);
  ASSERT_TRUE(trace.ok) << trace.error;
  const TraceReport report = BuildTraceReport(trace);
  EXPECT_EQ(report.num_events, 4u);
  for (const TraceReportRow& row : report.rows) {
    EXPECT_NE(row.name, "batch");
  }
}

TEST(ObsTraceTest, DropTotalSurvivesTracerUninstall) {
  {
    Tracer tracer(/*ring_capacity=*/2);
    ScopedInstall install(&tracer);
    for (std::uint64_t i = 0; i < 8; ++i) {
      TraceInstant(TracePhase::kCelfPop, i);
    }
    // Live tracer answers from its own counter.
    EXPECT_EQ(TraceDropTotal(), 6u);
  }
  // Uninstalled: the latched last-known total keeps answering, so a
  // metrics scrape after serve-trace detaches still sees the drops.
  ASSERT_EQ(CurrentTracer(), nullptr);
  EXPECT_EQ(TraceDropTotal(), 6u);
}

}  // namespace
}  // namespace tdmd::obs
