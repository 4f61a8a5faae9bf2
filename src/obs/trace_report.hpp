#pragma once

// Per-phase breakdown of a Chrome trace read by ReadChromeTrace
// (obs/trace.hpp): the phase table `tdmd_cli report --trace` prints first.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace tdmd::obs {

struct ChromeTrace;

struct TraceReportRow {
  std::string name;
  bool is_span = false;
  std::uint64_t count = 0;
  double total_us = 0.0;  // 0 for instants
  double max_us = 0.0;    // 0 for instants
};

struct TraceReport {
  std::size_t num_events = 0;
  std::size_t num_threads = 0;
  double wall_us = 0.0;  // span of timestamps covered by the trace
  /// Events the tracer's rings overwrote; nonzero marks a partial trace.
  std::uint64_t dropped = 0;
  /// Spans first (by total time descending), then instants (by count).
  std::vector<TraceReportRow> rows;
};

TraceReport BuildTraceReport(const ChromeTrace& trace);

/// Prints the per-phase table: count, total, mean, max, and share of wall
/// time for spans; count for instants.  A partial trace gets one
/// `partial:` line under the header.
void WriteTraceReport(std::ostream& os, const TraceReport& report);

}  // namespace tdmd::obs
