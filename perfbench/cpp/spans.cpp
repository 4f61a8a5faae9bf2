#include "spans.hpp"

#include <filesystem>
#include <fstream>

#include "obs/histogram.hpp"

namespace perfbench {

std::int32_t SpanLog::Begin(const char* name, std::uint64_t request) {
  if (!enabled_) return -1;
  const std::int32_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(
      Span{name, request, parent, tdmd::obs::MonotonicNanos(), 0});
  const auto index = static_cast<std::int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void SpanLog::End(std::int32_t index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns =
      tdmd::obs::MonotonicNanos();
  open_.pop_back();
}

std::vector<double> SpanLog::DurationsMs(std::string_view name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (name == span.name) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e6);
    }
  }
  return out;
}

std::vector<std::uint64_t> SpanLog::ChildNs() const {
  std::vector<std::uint64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] +=
          span.end_ns - span.start_ns;
    }
  }
  return child_ns;
}

std::map<std::string, double> SpanLog::SelfTimeMs() const {
  const std::vector<std::uint64_t> child_ns = ChildNs();
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::uint64_t total = spans_[i].end_ns - spans_[i].start_ns;
    self[spans_[i].name] +=
        static_cast<double>(total - child_ns[i]) / 1e6;
  }
  return self;
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  const std::filesystem::path file(path);
  if (file.has_parent_path()) {
    std::error_code ignored;
    std::filesystem::create_directories(file.parent_path(), ignored);
  }
  std::ofstream out(path);
  if (!out) return false;
  const std::vector<std::uint64_t> child_ns = ChildNs();
  const std::uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"traceEvents\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const std::uint64_t total = span.end_ns - span.start_ns;
    out << (i == 0 ? "\n" : ",\n") << "{\"name\": \"" << span.name
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
        << static_cast<double>(span.start_ns - origin) / 1e3
        << ", \"dur\": " << static_cast<double>(total) / 1e3
        << ", \"args\": {\"request\": " << span.request
        << ", \"self_us\": "
        << static_cast<double>(total - child_ns[i]) / 1e3 << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
