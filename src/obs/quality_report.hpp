#pragma once

// Quality timeline reconstruction from a Chrome trace.
//
// The engine emits one kQualitySample instant per epoch and one
// kQualityAlert instant per alert edge, each with a packed arg
// (obs/timeseries.hpp).  BuildQualityReport decodes them from a trace
// read by ReadChromeTrace and rebuilds the epoch/ratio series and the
// fired alerts — the quality section of `tdmd_cli report --trace`.  Each
// engine publishes from its own thread, so a shard fleet's trace holds
// one series per track (tid); those are summarized track by track.
// serve-trace --quality-out renders the engine's own timeline through
// the same SummarizeQuality + WriteQualityReport pair.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace tdmd::obs {

struct ChromeTrace;

struct QualityReportPoint {
  std::uint64_t epoch = 0;
  double ratio = 0.0;  // realized ratio, ppm resolution
};

struct QualityReportAlertRow {
  std::string kind;
  bool raised = false;
  std::uint64_t epoch = 0;
};

struct QualityReport {
  bool ok = false;
  std::string error;
  std::size_t num_samples = 0;
  std::size_t num_alert_events = 0;
  /// Samples whose ratio sits below the (1 - 1/e) floor.
  std::size_t below_floor = 0;
  double min_ratio = 0.0;
  double mean_ratio = 0.0;
  double last_ratio = 0.0;
  std::vector<QualityReportPoint> points;    // trace order
  std::vector<QualityReportAlertRow> alerts;  // trace order
  /// The trace track (tid) the series came from, when it is one of
  /// several.
  double tid = 0.0;
  /// One report per publishing track, in first-seen order, when the trace
  /// holds more than one (a shard fleet: every shard engine publishes
  /// from its worker thread); empty for a single track.  The fields above
  /// then summarize all tracks together.
  std::vector<QualityReport> tracks;
};

/// Builds an ok report from an epoch/ratio series and its alert edges:
/// counts, min/mean/last ratio and the samples below the (1 - 1/e) floor.
QualityReport SummarizeQuality(std::vector<QualityReportPoint> points,
                               std::vector<QualityReportAlertRow> alerts);

/// Fails on a quality event without a usable args.arg, on an alert of
/// unknown kind, and on traces carrying no quality-sample events.
QualityReport BuildQualityReport(const ChromeTrace& trace);

/// Prints the summary, the alert list and the epoch/ratio series — once
/// per track, each summary line reading `quality: track <tid>, ...`, when
/// the report has tracks.
void WriteQualityReport(std::ostream& os, const QualityReport& report);

}  // namespace tdmd::obs
