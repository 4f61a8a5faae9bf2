// Fleet section of `tdmd_cli report` (DESIGN.md Section 15): per-batch
// causal reconstruction from hand-written Chrome traces — connected
// chains, straggler and dominant-stage attribution, shed/recovery
// counting.  Malformed traces are ReadChromeTrace's to reject
// (trace_report_corpus_test.cpp).  The end-to-end check against a real
// 4-shard traced run lives in fleet_trace_e2e_test.cpp.
#include "obs/fleet_report.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "obs/trace.hpp"

namespace tdmd::obs {
namespace {

FleetReport Build(const std::string& text) {
  std::istringstream is(text);
  const ChromeTrace trace = ReadChromeTrace(is);
  EXPECT_TRUE(trace.ok) << trace.error;
  return BuildFleetReport(trace);
}

/// A complete-event line in the writer's no-spaces JSON dialect.
std::string Span(const std::string& name, double tid, double ts, double dur,
                 std::uint64_t arg, std::uint64_t batch = 0) {
  std::ostringstream os;
  os << R"({"name":")" << name << R"(","ph":"X","pid":1,"tid":)" << tid
     << R"(,"ts":)" << ts << R"(,"dur":)" << dur << R"(,"args":{"arg":)"
     << arg;
  if (batch != 0) os << R"(,"batch":)" << batch;
  os << "}}";
  return os.str();
}

std::string Instant(const std::string& name, double tid, double ts,
                    std::uint64_t arg, std::uint64_t batch = 0) {
  std::ostringstream os;
  os << R"({"name":")" << name << R"(","ph":"i","s":"t","pid":1,"tid":)"
     << tid << R"(,"ts":)" << ts << R"(,"args":{"arg":)" << arg;
  if (batch != 0) os << R"(,"batch":)" << batch;
  os << "}}";
  return os.str();
}

std::string Trace(std::initializer_list<std::string> events) {
  std::string text = R"({"traceEvents":[)";
  bool first = true;
  for (const std::string& event : events) {
    if (!first) text += ",\n";
    first = false;
    text += event;
  }
  text += "]}";
  return text;
}

/// One fully connected batch: submit on the coordinator thread (tid 0),
/// dwell + patch + adoption on worker `tid`, shard id in the dwell arg.
/// Timestamps: submit at `t0`, dequeue at t0+10, patch ends t0+30,
/// adoption at t0+40.
std::string ConnectedBatch(std::uint64_t batch, double tid,
                           std::uint64_t shard, double t0) {
  return Span("fleet-submit", 0, t0, 50, 1, batch) + ",\n" +
         Span("queue-dwell", tid, t0, 10, shard, batch) + ",\n" +
         Span("patch", tid, t0 + 10, 20, 0, batch) + ",\n" +
         Instant("batch-adopted", tid, t0 + 40, 1, batch);
}

TEST(FleetReportTest, SingleEngineTraceIsRejectedNotZeroed) {
  // Structurally valid, but no fleet-submit span anywhere: a
  // single-engine trace must be rejected, not summarized as "0 batches".
  const FleetReport report =
      Build(Trace({Span("epoch", 0, 1, 5, 1), Instant("adoption", 0, 9, 2)}));
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("no fleet-submit spans"), std::string::npos);
}

TEST(FleetReportTest, ReconstructsConnectedChainsWithAttribution) {
  // Batch 1 touches shards 0 (tid 1) and 2 (tid 3); shard 2 adopts last
  // so it is the straggler.  Batch 2 touches only shard 0.
  const std::string text = Trace({
      Span("fleet-submit", 0, 100, 60, 2, 1),
      Span("queue-dwell", 1, 100, 10, 0, 1),
      Span("patch", 1, 110, 20, 0, 1),
      Instant("batch-adopted", 1, 140, 1, 1),
      Span("queue-dwell", 3, 100, 30, 2, 1),
      Span("patch", 3, 130, 40, 0, 1),
      Instant("batch-adopted", 3, 180, 1, 1),
      ConnectedBatch(2, 1, 0, 200),
  });
  const FleetReport report = Build(text);
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.batches, 2u);
  EXPECT_EQ(report.connected, 2u);
  EXPECT_TRUE(report.disconnected_ids.empty());

  // Batch 1 critical path runs through shard 2: e2e 80us; batch 2: 40us.
  EXPECT_DOUBLE_EQ(report.e2e_p50_us, 40.0);
  EXPECT_DOUBLE_EQ(report.e2e_p99_us, 80.0);
  EXPECT_DOUBLE_EQ(report.e2e_max_us, 80.0);

  // Shard table: shard 0 carried both batches but stragglered only batch
  // 2; shard 2 stragglered batch 1.
  ASSERT_EQ(report.shards.size(), 2u);
  EXPECT_EQ(report.shards[0].shard, 0u);
  EXPECT_EQ(report.shards[0].batches, 2u);
  EXPECT_EQ(report.shards[0].stragglers, 1u);
  EXPECT_EQ(report.shards[1].shard, 2u);
  EXPECT_EQ(report.shards[1].batches, 1u);
  EXPECT_EQ(report.shards[1].stragglers, 1u);

  // Batch 1 straggler legs: submit->dequeue 30, dequeue->patch 40,
  // patch->adopt 10.  Batch 2: 10 / 20 / 10.
  EXPECT_EQ(report.dominant_dequeue_patch, 2u);
  EXPECT_EQ(report.dominant_submit_dequeue, 0u);
  EXPECT_EQ(report.dominant_patch_adopt, 0u);

  std::ostringstream table;
  WriteFleetReport(table, report);
  const std::string rendered = table.str();
  EXPECT_NE(rendered.find("2 batches (2 connected, 100.0%)"),
            std::string::npos);
  EXPECT_NE(rendered.find("dominant stage: submit->dequeue 0, "
                          "dequeue->patch 2, patch->adopt 0"),
            std::string::npos);
  EXPECT_NE(rendered.find("shard "), std::string::npos);
}

TEST(FleetReportTest, DanglingDwellMarksBatchDisconnected) {
  // Batch 1 is complete; batch 2's worker dequeued but never adopted
  // (lost to a crash or truncated capture).
  const std::string text = Trace({
      ConnectedBatch(1, 1, 0, 100),
      Span("fleet-submit", 0, 200, 50, 1, 2),
      Span("queue-dwell", 1, 200, 10, 0, 2),
  });
  const FleetReport report = Build(text);
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.batches, 2u);
  EXPECT_EQ(report.connected, 1u);
  ASSERT_EQ(report.disconnected_ids.size(), 1u);
  EXPECT_EQ(report.disconnected_ids[0], 2u);

  std::ostringstream table;
  WriteFleetReport(table, report);
  EXPECT_NE(table.str().find("disconnected batch ids: 2"),
            std::string::npos);
}

TEST(FleetReportTest, CoordinatorReplayCompletesLostLegs) {
  // Recovery replays on the coordinator (tid 0, the fleet-submit thread).
  // Batch 2's worker dequeued it and aborted before adopting; batch 3 was
  // discarded unseen while its shard was quarantined.  The replay's patch
  // and adoption complete both.
  const std::string text = Trace({
      ConnectedBatch(1, 1, 0, 100),
      Span("fleet-submit", 0, 200, 50, 1, 2),
      Span("queue-dwell", 1, 200, 10, 0, 2),
      Span("fleet-submit", 0, 260, 20, 1, 3),
      Span("patch", 0, 300, 20, 0, 2),
      Instant("batch-adopted", 0, 330, 1, 2),
      Span("patch", 0, 340, 10, 0, 3),
      Instant("batch-adopted", 0, 355, 1, 3),
  });
  const FleetReport report = Build(text);
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.batches, 3u);
  EXPECT_EQ(report.connected, 3u);
  EXPECT_TRUE(report.disconnected_ids.empty());
  // Batch 2 ends at the replay's adoption (e2e 130 us) and is credited to
  // the shard that dequeued it; batch 3 has no dwell and no shard.
  EXPECT_DOUBLE_EQ(report.e2e_max_us, 130.0);
  ASSERT_EQ(report.shards.size(), 1u);
  EXPECT_EQ(report.shards[0].batches, 2u);
  EXPECT_EQ(report.shards[0].stragglers, 2u);
}

TEST(FleetReportTest, DwellWithNoAdoptionAnywhereStaysDisconnected) {
  // Batch 2's worker dequeued and never adopted, and the coordinator's
  // replay of it faulted after its patch: no adoption anywhere.  Batch 3
  // has only a replay patch.  Both were lost.
  const std::string text = Trace({
      ConnectedBatch(1, 1, 0, 100),
      Span("fleet-submit", 0, 200, 50, 1, 2),
      Span("queue-dwell", 1, 200, 10, 0, 2),
      Span("patch", 0, 300, 20, 0, 2),
      Span("fleet-submit", 0, 400, 50, 1, 3),
      Span("patch", 0, 460, 20, 0, 3),
  });
  const FleetReport report = Build(text);
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.batches, 3u);
  EXPECT_EQ(report.connected, 1u);
  ASSERT_EQ(report.disconnected_ids.size(), 2u);
  EXPECT_EQ(report.disconnected_ids[0], 2u);
  EXPECT_EQ(report.disconnected_ids[1], 3u);
}

TEST(FleetReportTest, SubmitWithoutAnyWorkerIsDisconnected) {
  // A fleet-submit span with no downstream events (all commands shed or
  // the capture cut off) must not count as connected.
  const FleetReport report =
      Build(Trace({Span("fleet-submit", 0, 10, 5, 0, 1)}));
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.batches, 1u);
  EXPECT_EQ(report.connected, 0u);
}

TEST(FleetReportTest, CountsShedAndRecoveryInstants) {
  const std::string text = Trace({
      ConnectedBatch(1, 1, 0, 100),
      Instant("shed-batch", 0, 150, 1, 1),
      Instant("shed-batch", 0, 160, 0, 1),
      Instant("shard-recovery", 0, 170, 1),
  });
  const FleetReport report = Build(text);
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.shed_batches, 2u);
  EXPECT_EQ(report.recoveries, 1u);

  std::ostringstream table;
  WriteFleetReport(table, report);
  EXPECT_NE(table.str().find("2 shed, 1 recoveries"), std::string::npos);
}

TEST(FleetReportTest, FlowRecordsDoNotPolluteChains) {
  // Interleave writer-style flow records ("name":"batch", free of
  // args.batch) with the bound events; they are viewer decorations, not
  // run events, so they must neither count as events nor create or
  // corrupt a chain.
  const std::string flow_start =
      R"({"name":"batch","cat":"batch","ph":"s","id":1,"pid":1,"tid":0,"ts":101})";
  const std::string flow_finish =
      R"({"name":"batch","cat":"batch","ph":"f","id":1,"pid":1,"tid":1,"ts":140,"bp":"e"})";
  const FleetReport report = Build(
      Trace({ConnectedBatch(1, 1, 0, 100), flow_start, flow_finish}));
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.num_events, 4u);  // the 4 bound events only
  EXPECT_EQ(report.batches, 1u);
  EXPECT_EQ(report.connected, 1u);
}

TEST(FleetReportTest, PartialTraceLeavesBatchesMissingALegUnscored) {
  // The rings overwrote batch 1's worker events and batch 2's submit span;
  // batch 3 is complete, and batch 4 was dequeued but never adopted (its
  // adoption would have landed after the dequeue, in the same ring).
  const std::string events = Trace({
      Span("fleet-submit", 0, 100, 50, 1, 1),
      Span("queue-dwell", 1, 200, 10, 0, 2),
      Span("patch", 1, 210, 20, 0, 2),
      Instant("batch-adopted", 1, 240, 1, 2),
      ConnectedBatch(3, 1, 0, 300),
      Span("fleet-submit", 0, 400, 50, 1, 4),
      Span("queue-dwell", 1, 400, 10, 0, 4),
  });
  std::string partial = events;
  partial.insert(partial.size() - 1, R"(,"otherData":{"dropped":"7"})");
  const FleetReport report = Build(partial);
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.batches, 4u);
  EXPECT_EQ(report.unscored, 2u);
  EXPECT_EQ(report.connected, 1u);
  ASSERT_EQ(report.disconnected_ids.size(), 1u);
  EXPECT_EQ(report.disconnected_ids[0], 4u);
  std::ostringstream table;
  WriteFleetReport(table, report);
  EXPECT_NE(table.str().find("4 batches (1 connected, 50.0% of 2 scored; "
                             "2 unscored, legs dropped)"),
            std::string::npos)
      << table.str();

  // A complete trace scores every batch.
  const FleetReport complete = Build(events);
  ASSERT_TRUE(complete.ok) << complete.error;
  EXPECT_EQ(complete.unscored, 0u);
  EXPECT_EQ(complete.connected, 1u);
  EXPECT_EQ(complete.disconnected_ids.size(), 3u);
  std::ostringstream complete_table;
  WriteFleetReport(complete_table, complete);
  EXPECT_NE(complete_table.str().find("4 batches (1 connected, 25.0%)"),
            std::string::npos)
      << complete_table.str();
}

TEST(FleetReportTest, QueueDwellShareReflectsStragglerDwell) {
  // One batch, dwell 10 of e2e 40 -> share 25%.
  const FleetReport report = Build(Trace({ConnectedBatch(1, 1, 0, 0)}));
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_DOUBLE_EQ(report.dwell_share, 0.25);
}

}  // namespace
}  // namespace tdmd::obs
