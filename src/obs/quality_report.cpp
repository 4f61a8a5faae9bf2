#include "obs/quality_report.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <utility>

#include "obs/quality.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"

namespace tdmd::obs {

namespace {

QualityReport Fail(const std::string& error) {
  QualityReport report;
  report.error = error;
  return report;
}

/// One series: the summary (its first line prefixed by `label`), the
/// alert list and the epoch/ratio rows.
void WriteQualitySeries(std::ostream& os, const QualityReport& report,
                        const char* label) {
  char line[160];
  std::snprintf(line, sizeof(line),
                "quality: %s%zu samples, %zu alert events, floor %.4f\n",
                label, report.num_samples, report.num_alert_events,
                kQualityRatioFloor);
  os << line;
  std::snprintf(line, sizeof(line),
                "ratio: min %.4f mean %.4f last %.4f, %zu below floor\n",
                report.min_ratio, report.mean_ratio, report.last_ratio,
                report.below_floor);
  os << line;
  for (const QualityReportAlertRow& row : report.alerts) {
    std::snprintf(line, sizeof(line), "alert %-30s %-7s epoch %llu\n",
                  row.kind.c_str(), row.raised ? "RAISED" : "cleared",
                  static_cast<unsigned long long>(row.epoch));
    os << line;
  }
  for (const QualityReportPoint& point : report.points) {
    std::snprintf(line, sizeof(line), "epoch %6llu ratio %.4f %s\n",
                  static_cast<unsigned long long>(point.epoch),
                  point.ratio,
                  point.ratio < kQualityRatioFloor ? "<floor" : "");
    os << line;
  }
}

}  // namespace

QualityReport SummarizeQuality(std::vector<QualityReportPoint> points,
                               std::vector<QualityReportAlertRow> alerts) {
  QualityReport report;
  report.ok = true;
  double ratio_sum = 0.0;
  for (const QualityReportPoint& point : points) {
    ratio_sum += point.ratio;
    if (point.ratio < kQualityRatioFloor) ++report.below_floor;
    report.min_ratio = &point == &points.front()
                           ? point.ratio
                           : std::min(report.min_ratio, point.ratio);
  }
  report.num_samples = points.size();
  report.num_alert_events = alerts.size();
  if (!points.empty()) {
    report.mean_ratio = ratio_sum / static_cast<double>(points.size());
    report.last_ratio = points.back().ratio;
  }
  report.points = std::move(points);
  report.alerts = std::move(alerts);
  return report;
}

QualityReport BuildQualityReport(const ChromeTrace& trace) {
  // One series per track, in first-seen order.
  struct Track {
    double tid = 0.0;
    std::vector<QualityReportPoint> points;
    std::vector<QualityReportAlertRow> alerts;
  };
  std::vector<Track> tracks;
  std::vector<QualityReportPoint> points;
  std::vector<QualityReportAlertRow> alerts;
  for (const ChromeTraceEvent& event : trace.events) {
    if (event.name != "quality-sample" && event.name != "quality-alert") {
      continue;
    }
    if (!event.has_arg) {
      return Fail("quality event missing args.arg: " + event.name +
                  " at ts " + std::to_string(event.ts_us) + " us");
    }
    auto track = std::find_if(
        tracks.begin(), tracks.end(),
        [&](const Track& t) { return t.tid == event.tid; });
    if (track == tracks.end()) {
      tracks.push_back(Track{event.tid, {}, {}});
      track = tracks.end() - 1;
    }
    if (event.name == "quality-sample") {
      QualityReportPoint point;
      UnpackQualitySampleArg(event.arg, &point.epoch, &point.ratio);
      points.push_back(point);
      track->points.push_back(point);
    } else {
      QualityAlert alert;
      if (!UnpackQualityAlertArg(event.arg, &alert)) {
        return Fail("quality-alert event with unknown kind: arg " +
                    std::to_string(event.arg) + " at ts " +
                    std::to_string(event.ts_us) + " us");
      }
      alerts.push_back(QualityReportAlertRow{
          QualityAlertKindName(alert.kind), alert.raised, alert.epoch});
      track->alerts.push_back(alerts.back());
    }
  }
  if (points.empty()) {
    return Fail(
        "trace contains no quality-sample events — was the serve traced "
        "with quality sampling enabled?");
  }
  QualityReport report =
      SummarizeQuality(std::move(points), std::move(alerts));
  if (tracks.size() > 1) {
    for (Track& track : tracks) {
      report.tracks.push_back(
          SummarizeQuality(std::move(track.points), std::move(track.alerts)));
      report.tracks.back().tid = track.tid;
    }
  }
  return report;
}

void WriteQualityReport(std::ostream& os, const QualityReport& report) {
  if (report.tracks.empty()) {
    WriteQualitySeries(os, report, "");
    return;
  }
  for (const QualityReport& track : report.tracks) {
    char label[48];
    std::snprintf(label, sizeof(label), "track %.0f, ", track.tid);
    WriteQualitySeries(os, track, label);
  }
}

}  // namespace tdmd::obs
