// The traced run's span log.  The benchmark records one span around each
// public call it makes into a layer (and one root span per request); spans
// of one request share its id.  Spans stay in memory and are written once,
// at exit, as a Chrome trace.  Disabled logs cost one branch per call.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Opens a span nested in the innermost open one; -1 when disabled.
  std::int32_t Begin(const char* name, std::uint64_t request);
  void End(std::int32_t index);

  /// Durations (ms) of every span called `name`, in record order.
  std::vector<double> DurationsMs(std::string_view name) const;

  /// Total self time (ms) per span name: each span's duration minus the
  /// durations of its direct children.
  std::map<std::string, double> SelfTimeMs() const;

  /// Writes the spans as Chrome trace_event JSON ("X" events, one track,
  /// request id and self time in args).  False when the file cannot be
  /// written.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::uint64_t request;
    /// Index of the enclosing span, or -1 for a root.
    std::int32_t parent;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
  };

  /// Per span, the summed durations of its direct children.
  std::vector<std::uint64_t> ChildNs() const;

  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// RAII span; a no-op on a disabled log.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, std::uint64_t request)
      : log_(log), index_(log.Begin(name, request)) {}
  ~ScopedSpan() { log_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  std::int32_t index_;
};

}  // namespace perfbench
