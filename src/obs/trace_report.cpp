#include "obs/trace_report.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <ostream>
#include <set>
#include <utility>

#include "obs/trace.hpp"

namespace tdmd::obs {

TraceReport BuildTraceReport(const ChromeTrace& trace) {
  TraceReport report;
  report.num_events = trace.events.size();
  report.dropped = trace.dropped;
  std::map<std::string, TraceReportRow> phases;
  std::set<double> tids;
  double min_ts = trace.events.empty() ? 0.0 : trace.events.front().ts_us;
  double max_end = 0.0;
  for (const ChromeTraceEvent& event : trace.events) {
    tids.insert(event.tid);
    TraceReportRow& row = phases[event.name];
    row.is_span = row.is_span || event.is_span;
    ++row.count;
    row.total_us += event.dur_us;
    row.max_us = std::max(row.max_us, event.dur_us);
    min_ts = std::min(min_ts, event.ts_us);
    max_end = std::max(max_end, event.ts_us + event.dur_us);
  }
  report.num_threads = tids.size();
  report.wall_us = max_end - min_ts;
  for (auto& [name, row] : phases) {
    row.name = name;
    report.rows.push_back(std::move(row));
  }
  std::sort(report.rows.begin(), report.rows.end(),
            [](const TraceReportRow& a, const TraceReportRow& b) {
              if (a.is_span != b.is_span) {
                return a.is_span;  // spans first
              }
              if (a.is_span) {
                return a.total_us > b.total_us;
              }
              if (a.count != b.count) {
                return a.count > b.count;
              }
              return a.name < b.name;
            });
  return report;
}

void WriteTraceReport(std::ostream& os, const TraceReport& report) {
  char line[160];
  std::snprintf(line, sizeof(line),
                "trace: %zu events, %zu threads, wall %.3f ms\n",
                report.num_events, report.num_threads,
                report.wall_us / 1000.0);
  os << line;
  if (report.dropped > 0) {
    std::snprintf(line, sizeof(line),
                  "partial: %llu events dropped by trace-ring wrap-around; "
                  "the table covers the retained events only\n",
                  static_cast<unsigned long long>(report.dropped));
    os << line;
  }
  std::snprintf(line, sizeof(line), "%-18s %6s %12s %12s %12s %7s\n", "phase",
                "count", "total_ms", "mean_us", "max_us", "share");
  os << line;
  for (const TraceReportRow& row : report.rows) {
    if (row.is_span) {
      const double mean_us =
          row.count == 0 ? 0.0 : row.total_us / static_cast<double>(row.count);
      const double share =
          report.wall_us <= 0.0 ? 0.0 : row.total_us / report.wall_us;
      std::snprintf(line, sizeof(line),
                    "%-18s %6llu %12.3f %12.3f %12.3f %6.1f%%\n",
                    row.name.c_str(),
                    static_cast<unsigned long long>(row.count),
                    row.total_us / 1000.0, mean_us, row.max_us,
                    share * 100.0);
    } else {
      std::snprintf(line, sizeof(line), "%-18s %6llu %12s %12s %12s %7s\n",
                    row.name.c_str(),
                    static_cast<unsigned long long>(row.count), "-", "-", "-",
                    "-");
    }
    os << line;
  }
}

}  // namespace tdmd::obs
