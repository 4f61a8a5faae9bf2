// Malformed-trace corpus: ReadChromeTrace, the one parser behind every
// trace section of `tdmd_cli report`, must reject truncated, empty and
// garbage inputs with a one-line diagnostic instead of silently reporting
// zeros; the quality section must reject broken quality events; and a
// genuine WriteChromeTrace stream must round-trip through the phase-table
// and quality builders.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "obs/quality_report.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "obs/trace_report.hpp"

namespace tdmd::obs {
namespace {

ChromeTrace Read(const std::string& text) {
  std::istringstream is(text);
  return ReadChromeTrace(is);
}

QualityReport Quality(const std::string& text) {
  const ChromeTrace trace = Read(text);
  EXPECT_TRUE(trace.ok) << trace.error;
  return BuildQualityReport(trace);
}

std::string SampleEvent(std::uint64_t epoch, double ratio) {
  return R"({"name": "quality-sample", "ph": "i", "ts": 1, "tid": 0, )"
         R"("args": {"arg": )" +
         std::to_string(PackQualitySampleArg(epoch, ratio)) + "}}";
}

// Every corpus entry must fail the reader with a diagnostic that
// mentions what went wrong; none may come back ok with zero events.
struct CorpusCase {
  const char* label;
  const char* text;
  const char* diagnostic;  // substring both errors must contain
};

TEST(TraceReportCorpusTest, MalformedInputsAreRejectedWithDiagnostics) {
  const CorpusCase corpus[] = {
      {"empty file", "", "traceEvents"},
      {"garbage", "complete garbage \x01\x02 not json", "traceEvents"},
      {"wrong value type", R"({"traceEvents": {}})", "array"},
      {"truncated event",
       R"({"traceEvents": [{"name": "epoch", "ph": "X", "ts": 1)",
       "malformed"},
      {"missing fields", R"({"traceEvents": [{"ph": "i", "ts": 3}]})",
       "missing name/ph/ts"},
      {"span without dur",
       R"({"traceEvents": [{"name": "epoch", "ph": "X", "ts": 1}]})",
       "dur"},
      {"no events", R"({"traceEvents": []})", "no events"},
  };
  for (const CorpusCase& c : corpus) {
    const ChromeTrace trace = Read(c.text);
    EXPECT_FALSE(trace.ok) << c.label;
    EXPECT_NE(trace.error.find(c.diagnostic), std::string::npos)
        << c.label << ": " << trace.error;
    EXPECT_TRUE(trace.events.empty()) << c.label;
  }
}

TEST(TraceReportCorpusTest, QualityReportRejectsTraceWithoutSamples) {
  const std::string text =
      R"({"traceEvents": [{"name": "epoch", "ph": "i", "ts": 1}]})";
  EXPECT_TRUE(Read(text).ok);  // structurally fine for the phase table
  const QualityReport quality = Quality(text);
  EXPECT_FALSE(quality.ok);
  EXPECT_NE(quality.error.find("no quality-sample events"),
            std::string::npos);
}

TEST(TraceReportCorpusTest, QualityReportRejectsBrokenQualityEvents) {
  const QualityReport no_arg = Quality(
      R"({"traceEvents": [{"name": "quality-sample", "ph": "i", "ts": 1}]})");
  EXPECT_FALSE(no_arg.ok);
  EXPECT_NE(no_arg.error.find("missing args.arg"), std::string::npos);

  // kind 3 does not exist; the packed arg must be rejected, not mapped.
  const std::string bogus_kind =
      R"({"traceEvents": [)" + SampleEvent(1, 1.0) +
      R"(, {"name": "quality-alert", "ph": "i", "ts": 2, "args": )"
      R"({"arg": 7}}]})";
  const QualityReport alert = Quality(bogus_kind);
  EXPECT_FALSE(alert.ok);
  EXPECT_NE(alert.error.find("unknown kind"), std::string::npos);
}

TEST(TraceReportCorpusTest, HandWrittenQualityTraceRoundTrips) {
  QualityAlert raised;
  raised.kind = QualityAlertKind::kQualityGapCusum;
  raised.raised = true;
  raised.epoch = 2;
  QualityAlert cleared = raised;
  cleared.raised = false;
  cleared.epoch = 3;
  const std::string text =
      R"({"traceEvents": [)" + SampleEvent(1, 1.0) + ", " +
      SampleEvent(2, 0.25) + ", " + SampleEvent(3, 0.75) +
      R"(, {"name": "quality-alert", "ph": "i", "ts": 2, "args": {"arg": )" +
      std::to_string(PackQualityAlertArg(raised)) +
      R"(}}, {"name": "quality-alert", "ph": "i", "ts": 3, "args": {"arg": )" +
      std::to_string(PackQualityAlertArg(cleared)) + "}}]}";

  const QualityReport report = Quality(text);
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.num_samples, 3u);
  EXPECT_EQ(report.num_alert_events, 2u);
  EXPECT_EQ(report.below_floor, 1u);
  EXPECT_NEAR(report.min_ratio, 0.25, 1e-6);
  EXPECT_NEAR(report.last_ratio, 0.75, 1e-6);
  ASSERT_EQ(report.alerts.size(), 2u);
  EXPECT_EQ(report.alerts[0].kind, "quality-gap-cusum");
  EXPECT_TRUE(report.alerts[0].raised);
  EXPECT_FALSE(report.alerts[1].raised);

  std::ostringstream os;
  WriteQualityReport(os, report);
  EXPECT_NE(os.str().find("3 samples"), std::string::npos);
  EXPECT_NE(os.str().find("RAISED"), std::string::npos);
  EXPECT_NE(os.str().find("<floor"), std::string::npos);
}

TEST(TraceReportCorpusTest, RealChromeTraceRoundTripsBothBuilders) {
  Tracer tracer;
  InstallTracer(&tracer);
  TraceInstant(TracePhase::kQualitySample, PackQualitySampleArg(5, 0.8));
  QualityAlert alert;
  alert.kind = QualityAlertKind::kAdoptionStalenessBurnRate;
  alert.raised = true;
  alert.epoch = 5;
  TraceInstant(TracePhase::kQualityAlert, PackQualityAlertArg(alert));
  InstallTracer(nullptr);
  const TraceDrainResult drained = tracer.Drain();

  std::ostringstream os;
  WriteChromeTrace(os, drained);

  const ChromeTrace trace = Read(os.str());
  ASSERT_TRUE(trace.ok) << trace.error;
  EXPECT_EQ(BuildTraceReport(trace).num_events, 2u);

  const QualityReport quality = Quality(os.str());
  ASSERT_TRUE(quality.ok) << quality.error;
  ASSERT_EQ(quality.num_samples, 1u);
  EXPECT_EQ(quality.points[0].epoch, 5u);
  EXPECT_NEAR(quality.points[0].ratio, 0.8, 1e-6);
  ASSERT_EQ(quality.alerts.size(), 1u);
  EXPECT_EQ(quality.alerts[0].kind, "adoption-staleness-burn-rate");
}

}  // namespace
}  // namespace tdmd::obs
