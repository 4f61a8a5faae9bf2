#include "io/text_format.hpp"

#include <cmath>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <sstream>
#include <vector>

#include "io/atomic_file.hpp"
#include "io/line_reader.hpp"
#include "obs/histogram.hpp"
#include "obs/quality.hpp"
#include "obs/timeseries.hpp"

namespace tdmd::io {

namespace {

using internal::AtLine;
using internal::LineReader;
using internal::ParseInt;
using internal::ParseU64;
using internal::ReadKeyedU64;

bool ParseDouble(const std::string& token, double& out) {
  try {
    std::size_t consumed = 0;
    out = std::stod(token, &consumed);
    return consumed == token.size();
  } catch (const std::exception&) {
    return false;
  }
}

/// Vertex ids parse as int64 but are stored as VertexId (int32); an
/// unchecked cast would silently wrap, so every reader bounds ids here.
bool FitsVertexId(std::int64_t v) {
  return v >= 0 && v <= std::numeric_limits<VertexId>::max();
}

/// Declared counts are untrusted input: reserve at most this many slots
/// up front so an oversized count fails at the first missing record
/// instead of allocating gigabytes.
template <typename Count>
std::size_t CappedCount(Count count) {
  const auto wide = static_cast<std::uint64_t>(count);
  return static_cast<std::size_t>(wide < 65536 ? wide : 65536);
}

}  // namespace

// --- Writers ----------------------------------------------------------

void WriteDigraph(std::ostream& os, const graph::Digraph& g) {
  os << "digraph " << g.num_vertices() << '\n';
  for (EdgeId e = 0; e < g.num_arcs(); ++e) {
    const graph::Arc& a = g.arc(e);
    os << "arc " << a.tail << ' ' << a.head << '\n';
  }
}

void WriteTree(std::ostream& os, const graph::Tree& tree) {
  os << "tree " << tree.num_vertices() << '\n';
  for (VertexId v = 0; v < tree.num_vertices(); ++v) {
    if (tree.Parent(v) != kInvalidVertex) {
      os << "parent " << v << ' ' << tree.Parent(v) << '\n';
    }
  }
}

void WriteFlows(std::ostream& os, const traffic::FlowSet& flows) {
  os << "flows " << flows.size() << '\n';
  for (const traffic::Flow& f : flows) {
    os << "flow " << f.rate;
    for (VertexId v : f.path.vertices) os << ' ' << v;
    os << '\n';
  }
}

void WriteInstance(std::ostream& os, const core::Instance& instance) {
  os << "tdmd-instance v1\n";
  os << "lambda " << instance.lambda() << '\n';
  WriteDigraph(os, instance.network());
  WriteFlows(os, instance.flows());
}

void WriteDeployment(std::ostream& os, const core::Deployment& deployment) {
  os << "deployment\n";
  for (VertexId v : deployment.SortedVertices()) {
    os << "box " << v << '\n';
  }
}

void WriteEngineCheckpoint(std::ostream& os,
                           const engine::EngineCheckpoint& checkpoint) {
  WriteEngineCheckpoint(os, checkpoint, EngineCheckpointWriteOptions{});
}

void WriteEngineCheckpoint(std::ostream& os,
                           const engine::EngineCheckpoint& checkpoint,
                           const EngineCheckpointWriteOptions& options) {
  os << "engine-checkpoint v2\n";
  os << "epoch " << checkpoint.epoch << '\n';
  os << "snapshot-version " << checkpoint.snapshot_version << '\n';
  os << "epochs-since-probe " << checkpoint.epochs_since_probe << '\n';
  os << "pending-churn " << checkpoint.pending_churn << '\n';
  os << "k " << checkpoint.k << '\n';
  // Hexfloat so the incrementally maintained doubles round-trip bit-exactly
  // (decimal shortest-round-trip would need max_digits10 and is easier to
  // get subtly wrong).
  os << "lambda " << std::hexfloat << checkpoint.lambda << std::defaultfloat
     << '\n';
  os << "num-vertices " << checkpoint.num_vertices << '\n';
  os << "bandwidth " << std::hexfloat << checkpoint.maintained_bandwidth
     << std::defaultfloat << '\n';
  os << "feasible " << (checkpoint.maintained_feasible ? 1 : 0) << '\n';
#define TDMD_WRITE_COUNTER(field) \
  os << "counter " #field " " << checkpoint.stats.field << '\n';
  TDMD_ENGINE_STATS_COUNTERS(TDMD_WRITE_COUNTER)
#undef TDMD_WRITE_COUNTER
  os << "deployment " << checkpoint.deployment.size() << '\n';
  for (VertexId v : checkpoint.deployment) os << "box " << v << '\n';
  os << "uncovered " << checkpoint.uncovered.size() << '\n';
  for (engine::FlowTicket t : checkpoint.uncovered) {
    os << "ticket " << t << '\n';
  }
  // One line per flow with its class's path spelled out; readers regroup
  // the lines into classes.
  const engine::ClassKeyedFlows& flows = checkpoint.flows;
  os << "flows " << flows.records.size() << '\n';
  for (const engine::ClassKeyedFlows::Record& record : flows.records) {
    os << "flow " << record.ticket << ' ' << record.rate;
    for (VertexId v : flows.ClassPath(record.path_class)) os << ' ' << v;
    os << '\n';
  }
  os << "free-slots " << checkpoint.free_slots.size() << '\n';
  for (engine::FlowTicket t : checkpoint.free_slots) {
    os << "free " << t << '\n';
  }
  if (options.include_histograms) {
    // Optional section (readers accept records that end right here):
    // sparse nonzero buckets ascending by index, totals up front.
    const auto write_histogram = [&os](const char* name,
                                       const obs::HistogramSnapshot& h) {
      os << "histogram " << name << ' ' << h.count << ' ' << h.sum << ' '
         << h.min << ' ' << h.max << ' ' << h.buckets.size() << '\n';
      for (const auto& [index, bucket_count] : h.buckets) {
        os << "bucket " << index << ' ' << bucket_count << '\n';
      }
    };
    os << "histograms 4\n";
    write_histogram("patch", checkpoint.patch_histogram);
    write_histogram("resolve", checkpoint.resolve_histogram);
    write_histogram("index-delta", checkpoint.index_delta_histogram);
    write_histogram("greedy-round", checkpoint.greedy_round_histogram);
  }
  if (checkpoint.has_quality) {
    // Optional quality-observability section.  Samples serialize only
    // their primaries (hexfloat, bit-exact); the reader re-derives
    // decrement/ratio/margin via obs::DeriveQualityFields so writer and
    // restorer share one arithmetic.
    const auto write_attr = [&os](const obs::VertexAttribution& attr) {
      os << "qv " << attr.vertex << ' ' << std::hexfloat
         << attr.marginal_decrement << std::defaultfloat << '\n';
    };
    os << "quality v2\n";
    os << "qbound " << (checkpoint.quality_tracker.cert_valid ? 1 : 0)
       << ' ' << std::hexfloat << checkpoint.quality_tracker.cert_bound
       << std::defaultfloat << '\n';
    os << "qadoption-age "
       << checkpoint.quality_tracker.epochs_since_adoption << '\n';
    os << "qattr " << checkpoint.quality_attribution.size() << '\n';
    for (const obs::VertexAttribution& attr :
         checkpoint.quality_attribution) {
      write_attr(attr);
    }
    const obs::QualityTimelineSnapshot& q = checkpoint.quality;
    os << "qdetector " << std::hexfloat << q.ewma << std::defaultfloat
       << ' ' << (q.ewma_primed ? 1 : 0) << ' ' << std::hexfloat << q.cusum
       << std::defaultfloat << ' ' << q.active_alerts << ' '
       << q.samples_total << ' ' << q.alerts_raised_total << ' '
       << q.alerts_cleared_total << '\n';
    os << "qsamples " << q.samples.size() << '\n';
    for (const obs::QualitySample& s : q.samples) {
      os << "qsample " << s.epoch << ' ' << s.version << ' '
         << (s.feasible ? 1 : 0) << ' ' << s.deployed << ' '
         << s.budget << ' ' << s.churn_moves << ' '
         << s.epochs_since_adoption << ' ' << (s.certified ? 1 : 0) << ' '
         << std::hexfloat << s.bandwidth << ' ' << s.unprocessed << ' '
         << s.opt_bound << std::defaultfloat << ' ' << s.attribution.size()
         << '\n';
      for (const obs::VertexAttribution& attr : s.attribution) {
        write_attr(attr);
      }
    }
    os << "qalerts " << q.alerts.size() << '\n';
    for (const obs::QualityAlert& a : q.alerts) {
      os << "qalert " << static_cast<std::uint32_t>(a.kind) << ' '
         << (a.raised ? 1 : 0) << ' ' << a.epoch << ' ' << std::hexfloat
         << a.value << ' ' << a.threshold << std::defaultfloat << '\n';
    }
    os << "end quality\n";
  }
  os << "end engine-checkpoint\n";
}

// --- Readers -----------------------------------------------------------

namespace {

/// Shared body for digraph parsing once the header tokens are in hand.
Parsed<graph::Digraph> ReadDigraphBody(LineReader& reader,
                                       const std::vector<std::string>& header,
                                       std::vector<std::string>& tokens,
                                       bool& pending_tokens) {
  Parsed<graph::Digraph> result;
  std::int64_t n = 0;
  if (header.size() != 2 || header[0] != "digraph" ||
      !ParseInt(header[1], n) || n < 0 || !FitsVertexId(n)) {
    result.error = AtLine(reader.line_number(),
                          "expected 'digraph <num_vertices>'");
    return result;
  }
  graph::DigraphBuilder builder(static_cast<VertexId>(n));
  pending_tokens = false;
  while (reader.Next(tokens)) {
    if (tokens[0] != "arc") {
      pending_tokens = true;  // hand the line back to the caller
      break;
    }
    std::int64_t tail = 0, head = 0;
    if (tokens.size() != 3 || !ParseInt(tokens[1], tail) ||
        !ParseInt(tokens[2], head) || tail < 0 || tail >= n || head < 0 ||
        head >= n) {
      result.error =
          AtLine(reader.line_number(), "malformed 'arc <tail> <head>'");
      return result;
    }
    builder.AddArc(static_cast<VertexId>(tail),
                   static_cast<VertexId>(head));
  }
  result.value = builder.Build();
  return result;
}

Parsed<traffic::FlowSet> ReadFlowsBody(LineReader& reader,
                                       const std::vector<std::string>& header,
                                       std::vector<std::string>& tokens) {
  Parsed<traffic::FlowSet> result;
  std::int64_t count = 0;
  if (header.size() != 2 || header[0] != "flows" ||
      !ParseInt(header[1], count) || count < 0) {
    result.error =
        AtLine(reader.line_number(), "expected 'flows <count>'");
    return result;
  }
  traffic::FlowSet flows;
  flows.reserve(CappedCount(count));
  for (std::int64_t i = 0; i < count; ++i) {
    if (!reader.Next(tokens) || tokens[0] != "flow" || tokens.size() < 3) {
      result.error = AtLine(reader.line_number(),
                            "expected 'flow <rate> <v0> ... <vk>'");
      return result;
    }
    traffic::Flow f;
    std::int64_t rate = 0;
    if (!ParseInt(tokens[1], rate) || rate <= 0) {
      result.error = AtLine(reader.line_number(), "flow rate must be a "
                                                  "positive integer");
      return result;
    }
    f.rate = rate;
    for (std::size_t t = 2; t < tokens.size(); ++t) {
      std::int64_t v = 0;
      if (!ParseInt(tokens[t], v) || !FitsVertexId(v)) {
        result.error =
            AtLine(reader.line_number(), "malformed path vertex");
        return result;
      }
      f.path.vertices.push_back(static_cast<VertexId>(v));
    }
    f.src = f.path.vertices.front();
    f.dst = f.path.vertices.back();
    flows.push_back(std::move(f));
  }
  result.value = std::move(flows);
  return result;
}

}  // namespace

Parsed<graph::Digraph> ReadDigraph(std::istream& is) {
  LineReader reader(is);
  std::vector<std::string> tokens;
  if (!reader.Next(tokens)) {
    return {std::nullopt, "empty input, expected 'digraph'"};
  }
  std::vector<std::string> scratch;
  bool pending = false;
  return ReadDigraphBody(reader, tokens, scratch, pending);
}

Parsed<graph::Tree> ReadTree(std::istream& is) {
  Parsed<graph::Tree> result;
  LineReader reader(is);
  std::vector<std::string> tokens;
  if (!reader.Next(tokens) || tokens.size() != 2 || tokens[0] != "tree") {
    result.error = AtLine(reader.line_number(),
                          "expected 'tree <num_vertices>'");
    return result;
  }
  std::int64_t n = 0;
  if (!ParseInt(tokens[1], n) || n <= 0 || !FitsVertexId(n)) {
    result.error = AtLine(reader.line_number(), "bad vertex count");
    return result;
  }
  std::vector<VertexId> parent(static_cast<std::size_t>(n),
                               kInvalidVertex);
  std::vector<char> assigned(static_cast<std::size_t>(n), 0);
  while (reader.Next(tokens)) {
    std::int64_t v = 0, p = 0;
    if (tokens[0] != "parent" || tokens.size() != 3 ||
        !ParseInt(tokens[1], v) || !ParseInt(tokens[2], p) || v < 0 ||
        v >= n || p < 0 || p >= n) {
      result.error =
          AtLine(reader.line_number(), "malformed 'parent <v> <p>'");
      return result;
    }
    if (assigned[static_cast<std::size_t>(v)]) {
      result.error = AtLine(reader.line_number(),
                            "duplicate parent record for vertex");
      return result;
    }
    assigned[static_cast<std::size_t>(v)] = 1;
    parent[static_cast<std::size_t>(v)] = static_cast<VertexId>(p);
  }
  // Tree's constructor validates root count and acyclicity but aborts on
  // violation; pre-check here to return a parse error instead.
  int roots = 0;
  for (std::size_t v = 0; v < parent.size(); ++v) {
    if (parent[v] == kInvalidVertex) ++roots;
  }
  if (roots != 1) {
    result.error = "tree must have exactly one root (vertex with no "
                   "'parent' record)";
    return result;
  }
  // Cycle pre-check via parent-chain walking with a visit budget.
  for (std::size_t v = 0; v < parent.size(); ++v) {
    VertexId cursor = static_cast<VertexId>(v);
    for (std::int64_t steps = 0; cursor != kInvalidVertex; ++steps) {
      if (steps > n) {
        result.error = "parent records contain a cycle";
        return result;
      }
      cursor = parent[static_cast<std::size_t>(cursor)];
    }
  }
  result.value = graph::Tree(std::move(parent));
  return result;
}

Parsed<traffic::FlowSet> ReadFlows(std::istream& is) {
  LineReader reader(is);
  std::vector<std::string> tokens;
  if (!reader.Next(tokens)) {
    return {std::nullopt, "empty input, expected 'flows'"};
  }
  std::vector<std::string> scratch;
  return ReadFlowsBody(reader, tokens, scratch);
}

Parsed<core::Instance> ReadInstance(std::istream& is) {
  Parsed<core::Instance> result;
  LineReader reader(is);
  std::vector<std::string> tokens;

  if (!reader.Next(tokens) || tokens.size() != 2 ||
      tokens[0] != "tdmd-instance" || tokens[1] != "v1") {
    result.error = AtLine(reader.line_number(),
                          "expected header 'tdmd-instance v1'");
    return result;
  }
  double lambda = 0.0;
  // The containment test is written positively so NaN (for which both
  // `lambda < 0.0` and `lambda > 1.0` are false) is rejected here with a
  // line number instead of aborting later in Instance's CHECK.
  if (!reader.Next(tokens) || tokens.size() != 2 || tokens[0] != "lambda" ||
      !ParseDouble(tokens[1], lambda) || !std::isfinite(lambda) ||
      !(lambda >= 0.0 && lambda <= 1.0)) {
    result.error = AtLine(reader.line_number(),
                          "expected 'lambda <value in [0,1]>'");
    return result;
  }
  if (!reader.Next(tokens)) {
    result.error = AtLine(reader.line_number(), "missing 'digraph' section");
    return result;
  }
  std::vector<std::string> pending_line;
  bool pending = false;
  Parsed<graph::Digraph> g =
      ReadDigraphBody(reader, tokens, pending_line, pending);
  if (!g.ok()) {
    result.error = g.error;
    return result;
  }
  if (!pending) {
    result.error = "missing 'flows' section";
    return result;
  }
  Parsed<traffic::FlowSet> flows =
      ReadFlowsBody(reader, pending_line, tokens);
  if (!flows.ok()) {
    result.error = flows.error;
    return result;
  }
  if (reader.Next(tokens)) {
    result.error = AtLine(reader.line_number(),
                          "unexpected record after the flow section (wrong "
                          "'flows' count?)");
    return result;
  }
  // Semantic validation (paths exist in the graph) with a parse-style
  // error rather than Instance's CHECK abort.
  if (!traffic::AllFlowsValid(*g.value, *flows.value)) {
    result.error = "flow set references paths that do not exist in the "
                   "digraph";
    return result;
  }
  result.value =
      core::Instance(std::move(*g.value), std::move(*flows.value), lambda);
  return result;
}

Parsed<core::Deployment> ReadDeployment(std::istream& is,
                                        VertexId num_vertices) {
  Parsed<core::Deployment> result;
  LineReader reader(is);
  std::vector<std::string> tokens;
  if (!reader.Next(tokens) || tokens[0] != "deployment") {
    result.error = AtLine(reader.line_number(), "expected 'deployment'");
    return result;
  }
  core::Deployment deployment(num_vertices);
  while (reader.Next(tokens)) {
    std::int64_t v = 0;
    if (tokens[0] != "box" || tokens.size() != 2 ||
        !ParseInt(tokens[1], v) || v < 0 || v >= num_vertices) {
      result.error = AtLine(reader.line_number(), "malformed 'box <v>'");
      return result;
    }
    if (deployment.Contains(static_cast<VertexId>(v))) {
      result.error = AtLine(reader.line_number(), "duplicate box");
      return result;
    }
    deployment.Add(static_cast<VertexId>(v));
  }
  result.value = std::move(deployment);
  return result;
}

namespace {

/// `counter <name> <u64>` line; the name must match, which pins the file
/// to TDMD_ENGINE_STATS_COUNTERS order.
bool ReadCounterLine(LineReader& reader, std::vector<std::string>& tokens,
                     const char* name, std::uint64_t& out,
                     std::string& error) {
  if (!reader.Next(tokens) || tokens.size() != 3 || tokens[0] != "counter" ||
      tokens[1] != name || !ParseU64(tokens[2], out)) {
    error = AtLine(reader.line_number(),
                   std::string("expected 'counter ") + name + " <u64>'");
    return false;
  }
  return true;
}

/// `<key> <hexfloat>` line; requires a finite value.
bool ReadKeyedDouble(LineReader& reader, std::vector<std::string>& tokens,
                     const char* key, double& out, std::string& error) {
  if (!reader.Next(tokens) || tokens.size() != 2 || tokens[0] != key ||
      !ParseDouble(tokens[1], out) || !std::isfinite(out)) {
    error = AtLine(reader.line_number(),
                   std::string("expected '") + key + " <finite double>'");
    return false;
  }
  return true;
}

/// Counters that v1 records carried and v2 retired, with their 0-based
/// positions in the v1 counter block; the v1 reader checks and drops them.
struct RetiredCounter {
  std::size_t position;
  const char* name;
};
constexpr RetiredCounter kRetiredV1Counters[] = {
    {12, "resolves_cancelled"}, {17, "resolves_coalesced"},
    {18, "watchdog_cancels"},   {19, "mode_transitions"},
    {20, "degraded_epochs"}};

/// Non-negative ticket from `<keyword> <t>` lines.
bool ParseTicket(const std::string& token, engine::FlowTicket& out) {
  std::int64_t value = 0;
  if (!ParseInt(token, value) || value < 0) return false;
  out = value;
  return true;
}

/// One `histogram <name> <count> <sum> <min> <max> <buckets>` block of the
/// optional histograms section, followed by its `bucket <index> <count>`
/// lines.  Coherence (ascending in-range indices, counts summing to
/// `count`, min <= max) is delegated to LatencyHistogram::Restore so the
/// parser and the engine enforce the same invariants.
bool ReadHistogramBlock(LineReader& reader, std::vector<std::string>& tokens,
                        const char* name, obs::HistogramSnapshot& out,
                        std::string& error) {
  std::uint64_t num_buckets = 0;
  if (!reader.Next(tokens) || tokens.size() != 7 ||
      tokens[0] != "histogram" || tokens[1] != name ||
      !ParseU64(tokens[2], out.count) || !ParseU64(tokens[3], out.sum) ||
      !ParseU64(tokens[4], out.min) || !ParseU64(tokens[5], out.max) ||
      !ParseU64(tokens[6], num_buckets)) {
    error = AtLine(reader.line_number(),
                   std::string("expected 'histogram ") + name +
                       " <count> <sum> <min> <max> <buckets>'");
    return false;
  }
  if (num_buckets > obs::kNumBuckets) {
    error = AtLine(reader.line_number(),
                   "histogram bucket count out of range");
    return false;
  }
  out.buckets.reserve(CappedCount(num_buckets));
  for (std::uint64_t i = 0; i < num_buckets; ++i) {
    std::uint64_t index = 0;
    std::uint64_t bucket_count = 0;
    if (!reader.Next(tokens) || tokens.size() != 3 ||
        tokens[0] != "bucket" || !ParseU64(tokens[1], index) ||
        !ParseU64(tokens[2], bucket_count)) {
      error = AtLine(reader.line_number(),
                     "expected 'bucket <index> <count>'");
      return false;
    }
    if (index >= obs::kNumBuckets) {
      error = AtLine(reader.line_number(), "bucket index out of range");
      return false;
    }
    out.buckets.emplace_back(static_cast<std::uint32_t>(index),
                             bucket_count);
  }
  obs::LatencyHistogram probe;
  if (!probe.Restore(out)) {
    error = AtLine(reader.line_number(),
                   std::string("incoherent histogram '") + name + "'");
    return false;
  }
  return true;
}

}  // namespace

Parsed<engine::EngineCheckpoint> ReadEngineCheckpoint(std::istream& is) {
  return ReadEngineCheckpoint(is, /*require_eof=*/true);
}

Parsed<engine::EngineCheckpoint> ReadEngineCheckpoint(std::istream& is,
                                                      bool require_eof) {
  Parsed<engine::EngineCheckpoint> result;
  engine::EngineCheckpoint cp;
  LineReader reader(is);
  std::vector<std::string> tokens;

  if (!reader.Next(tokens) || tokens.size() != 2 ||
      tokens[0] != "engine-checkpoint" ||
      (tokens[1] != "v1" && tokens[1] != "v2")) {
    result.error = AtLine(reader.line_number(),
                          "expected header 'engine-checkpoint v2' (or v1)");
    return result;
  }
  const std::string version = tokens[1];
  const bool v1 = version == "v1";
  if (!ReadKeyedU64(reader, tokens, "epoch", cp.epoch, result.error) ||
      !ReadKeyedU64(reader, tokens, "snapshot-version", cp.snapshot_version,
                    result.error)) {
    return result;
  }
  // v1 only: the retired mode line, then the failure-streak line that
  // restored the streak in v1 (it wins over its counter below).
  std::uint64_t v1_streak = 0;
  if (v1) {
    if (!reader.Next(tokens) || tokens.size() != 2 || tokens[0] != "mode" ||
        (tokens[1] != "normal" && tokens[1] != "degraded" &&
         tokens[1] != "patch-only")) {
      result.error = AtLine(reader.line_number(),
                            "expected 'mode <normal|degraded|patch-only>'");
      return result;
    }
    if (!ReadKeyedU64(reader, tokens, "consecutive-failures", v1_streak,
                      result.error)) {
      return result;
    }
  }
  if (!ReadKeyedU64(reader, tokens, "epochs-since-probe",
                    cp.epochs_since_probe, result.error) ||
      !ReadKeyedU64(reader, tokens, "pending-churn", cp.pending_churn,
                    result.error) ||
      !ReadKeyedU64(reader, tokens, "k", cp.k, result.error)) {
    return result;
  }
  if (!ReadKeyedDouble(reader, tokens, "lambda", cp.lambda, result.error)) {
    return result;
  }
  if (!(cp.lambda >= 0.0 && cp.lambda <= 1.0)) {
    result.error =
        AtLine(reader.line_number(), "lambda outside [0,1]");
    return result;
  }
  std::int64_t num_vertices = 0;
  if (!reader.Next(tokens) || tokens.size() != 2 ||
      tokens[0] != "num-vertices" || !ParseInt(tokens[1], num_vertices) ||
      !FitsVertexId(num_vertices)) {
    result.error =
        AtLine(reader.line_number(), "expected 'num-vertices <v>'");
    return result;
  }
  cp.num_vertices = static_cast<VertexId>(num_vertices);
  if (!ReadKeyedDouble(reader, tokens, "bandwidth", cp.maintained_bandwidth,
                       result.error)) {
    return result;
  }
  std::uint64_t feasible = 0;
  if (!ReadKeyedU64(reader, tokens, "feasible", feasible, result.error)) {
    return result;
  }
  if (feasible > 1) {
    result.error = AtLine(reader.line_number(), "feasible must be 0 or 1");
    return result;
  }
  cp.maintained_feasible = feasible == 1;

  // A v1 block interleaves the retired counters; they are read in place
  // and dropped.
  std::size_t counter_line = 0;
  const RetiredCounter* retired = std::begin(kRetiredV1Counters);
  const auto read_counter = [&](const char* name, std::uint64_t& out) {
    for (; v1 && retired != std::end(kRetiredV1Counters) &&
           retired->position == counter_line;
         ++retired, ++counter_line) {
      std::uint64_t dropped = 0;
      if (!ReadCounterLine(reader, tokens, retired->name, dropped,
                           result.error)) {
        return false;
      }
    }
    ++counter_line;
    return ReadCounterLine(reader, tokens, name, out, result.error);
  };
#define TDMD_READ_COUNTER(field) \
  if (!read_counter(#field, cp.stats.field)) return result;
  TDMD_ENGINE_STATS_COUNTERS(TDMD_READ_COUNTER)
#undef TDMD_READ_COUNTER
  if (v1) cp.stats.consecutive_failures = v1_streak;

  std::uint64_t count = 0;
  if (!ReadKeyedU64(reader, tokens, "deployment", count, result.error)) {
    return result;
  }
  if (count > static_cast<std::uint64_t>(num_vertices)) {
    result.error = AtLine(reader.line_number(),
                          "deployment count exceeds num-vertices");
    return result;
  }
  std::vector<char> deployed(static_cast<std::size_t>(num_vertices), 0);
  cp.deployment.reserve(CappedCount(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    std::int64_t v = 0;
    if (!reader.Next(tokens) || tokens.size() != 2 || tokens[0] != "box" ||
        !ParseInt(tokens[1], v) || v < 0 || v >= num_vertices) {
      result.error = AtLine(reader.line_number(), "malformed 'box <v>'");
      return result;
    }
    if (deployed[static_cast<std::size_t>(v)]) {
      result.error = AtLine(reader.line_number(), "duplicate box");
      return result;
    }
    deployed[static_cast<std::size_t>(v)] = 1;
    cp.deployment.push_back(static_cast<VertexId>(v));
  }

  if (!ReadKeyedU64(reader, tokens, "uncovered", count, result.error)) {
    return result;
  }
  cp.uncovered.reserve(CappedCount(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    engine::FlowTicket t = engine::kInvalidTicket;
    if (!reader.Next(tokens) || tokens.size() != 2 ||
        tokens[0] != "ticket" || !ParseTicket(tokens[1], t)) {
      result.error =
          AtLine(reader.line_number(), "malformed 'ticket <t>'");
      return result;
    }
    cp.uncovered.push_back(t);
  }

  if (!ReadKeyedU64(reader, tokens, "flows", count, result.error)) {
    return result;
  }
  cp.flows.records.reserve(CappedCount(count));
  // Lines with identical paths share one class, numbered in line order.
  std::map<std::vector<VertexId>, std::uint32_t> class_of_path;
  std::vector<VertexId> path;
  for (std::uint64_t i = 0; i < count; ++i) {
    if (!reader.Next(tokens) || tokens.size() < 4 || tokens[0] != "flow") {
      result.error = AtLine(
          reader.line_number(),
          "expected 'flow <ticket> <rate> <v0> ... <vk>'");
      return result;
    }
    engine::ClassKeyedFlows::Record record;
    if (!ParseTicket(tokens[1], record.ticket) ||
        !ParseInt(tokens[2], record.rate) || record.rate <= 0) {
      result.error = AtLine(reader.line_number(),
                            "flow ticket must be non-negative and rate a "
                            "positive integer");
      return result;
    }
    path.clear();
    for (std::size_t t = 3; t < tokens.size(); ++t) {
      std::int64_t v = 0;
      if (!ParseInt(tokens[t], v) || !FitsVertexId(v) ||
          v >= num_vertices) {
        result.error =
            AtLine(reader.line_number(), "malformed path vertex");
        return result;
      }
      path.push_back(static_cast<VertexId>(v));
    }
    const auto [it, inserted] = class_of_path.try_emplace(path, 0);
    if (inserted) it->second = cp.flows.AddClass(path);
    record.path_class = it->second;
    cp.flows.records.push_back(record);
  }

  if (!ReadKeyedU64(reader, tokens, "free-slots", count, result.error)) {
    return result;
  }
  cp.free_slots.reserve(CappedCount(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    engine::FlowTicket t = engine::kInvalidTicket;
    if (!reader.Next(tokens) || tokens.size() != 2 || tokens[0] != "free" ||
        !ParseTicket(tokens[1], t)) {
      result.error = AtLine(reader.line_number(), "malformed 'free <t>'");
      return result;
    }
    cp.free_slots.push_back(t);
  }

  if (!reader.Next(tokens)) {
    result.error = AtLine(reader.line_number(),
                          "expected terminator 'end engine-checkpoint'");
    return result;
  }
  if (!tokens.empty() && tokens[0] == "histograms") {
    // Optional latency-histogram section; records written before it
    // existed (or with include_histograms off) end right at the
    // terminator instead and restore with empty histograms.
    if (tokens.size() != 2 || tokens[1] != "4") {
      result.error = AtLine(reader.line_number(), "expected 'histograms 4'");
      return result;
    }
    if (!ReadHistogramBlock(reader, tokens, "patch", cp.patch_histogram,
                            result.error) ||
        !ReadHistogramBlock(reader, tokens, "resolve", cp.resolve_histogram,
                            result.error) ||
        !ReadHistogramBlock(reader, tokens, "index-delta",
                            cp.index_delta_histogram, result.error) ||
        !ReadHistogramBlock(reader, tokens, "greedy-round",
                            cp.greedy_round_histogram, result.error)) {
      return result;
    }
    if (!reader.Next(tokens)) {
      result.error = AtLine(reader.line_number(),
                            "expected terminator 'end engine-checkpoint'");
      return result;
    }
  }
  if (!tokens.empty() && tokens[0] == "quality") {
    // Optional quality-observability section (absent from records of
    // engines without quality sampling or written before the section
    // existed); its version follows the record's.
    if (tokens.size() != 2 || tokens[1] != version) {
      result.error =
          AtLine(reader.line_number(), "expected 'quality " + version + "'");
      return result;
    }
    cp.has_quality = true;
    const auto read_attr = [&](obs::VertexAttribution& out) {
      std::int64_t v = 0;
      double marginal = 0.0;
      if (!reader.Next(tokens) || tokens.size() != 3 || tokens[0] != "qv" ||
          !ParseInt(tokens[1], v) || v < 0 || v >= num_vertices ||
          !ParseDouble(tokens[2], marginal) || !std::isfinite(marginal)) {
        result.error = AtLine(reader.line_number(),
                              "malformed 'qv <vertex> <marginal>'");
        return false;
      }
      out.vertex = static_cast<VertexId>(v);
      out.marginal_decrement = marginal;
      return true;
    };
    std::uint64_t flag = 0;
    if (!reader.Next(tokens) || tokens.size() != 3 ||
        tokens[0] != "qbound" || !ParseU64(tokens[1], flag) || flag > 1 ||
        !ParseDouble(tokens[2], cp.quality_tracker.cert_bound) ||
        !std::isfinite(cp.quality_tracker.cert_bound)) {
      result.error = AtLine(reader.line_number(),
                            "expected 'qbound <0|1> <bound>'");
      return result;
    }
    cp.quality_tracker.cert_valid = flag == 1;
    if (!ReadKeyedU64(reader, tokens, "qadoption-age",
                      cp.quality_tracker.epochs_since_adoption,
                      result.error)) {
      return result;
    }
    std::uint64_t qcount = 0;
    if (!ReadKeyedU64(reader, tokens, "qattr", qcount, result.error)) {
      return result;
    }
    if (qcount > static_cast<std::uint64_t>(num_vertices)) {
      result.error = AtLine(reader.line_number(),
                            "qattr count exceeds num-vertices");
      return result;
    }
    cp.quality_attribution.reserve(CappedCount(qcount));
    for (std::uint64_t i = 0; i < qcount; ++i) {
      obs::VertexAttribution attr;
      if (!read_attr(attr)) return result;
      cp.quality_attribution.push_back(attr);
    }
    obs::QualityTimelineSnapshot& q = cp.quality;
    std::uint64_t primed = 0;
    std::uint64_t active_bits = 0;
    if (!reader.Next(tokens) || tokens.size() != 8 ||
        tokens[0] != "qdetector" || !ParseDouble(tokens[1], q.ewma) ||
        !std::isfinite(q.ewma) || !ParseU64(tokens[2], primed) ||
        primed > 1 || !ParseDouble(tokens[3], q.cusum) ||
        !std::isfinite(q.cusum) || !ParseU64(tokens[4], active_bits) ||
        active_bits >= (1ULL << obs::kNumQualityAlertKinds) ||
        !ParseU64(tokens[5], q.samples_total) ||
        !ParseU64(tokens[6], q.alerts_raised_total) ||
        !ParseU64(tokens[7], q.alerts_cleared_total)) {
      result.error = AtLine(reader.line_number(),
                            "malformed 'qdetector' record");
      return result;
    }
    q.ewma_primed = primed == 1;
    q.active_alerts = static_cast<std::uint32_t>(active_bits);
    if (!ReadKeyedU64(reader, tokens, "qsamples", qcount, result.error)) {
      return result;
    }
    if (qcount > q.samples_total) {
      result.error = AtLine(reader.line_number(),
                            "qsamples exceeds samples-total");
      return result;
    }
    q.samples.reserve(CappedCount(qcount));
    for (std::uint64_t i = 0; i < qcount; ++i) {
      obs::QualitySample s;
      std::uint64_t s_feasible = 0;
      std::uint64_t s_deployed = 0;
      std::uint64_t s_budget = 0;
      std::uint64_t s_moves = 0;
      std::uint64_t s_certified = 0;
      std::uint64_t s_nattr = 0;
      bool read = reader.Next(tokens);
      if (read && v1) {
        // A v1 sample carries a retired mode token (0..2) after its
        // version.
        std::uint64_t mode = 0;
        read = tokens.size() == 14 && ParseU64(tokens[3], mode) && mode <= 2;
        if (read) tokens.erase(tokens.begin() + 3);
      }
      if (!read || tokens.size() != 13 || tokens[0] != "qsample" ||
          !ParseU64(tokens[1], s.epoch) || !ParseU64(tokens[2], s.version) ||
          !ParseU64(tokens[3], s_feasible) || s_feasible > 1 ||
          !ParseU64(tokens[4], s_deployed) ||
          s_deployed > static_cast<std::uint64_t>(num_vertices) ||
          !ParseU64(tokens[5], s_budget) ||
          s_budget > std::numeric_limits<std::uint32_t>::max() ||
          !ParseU64(tokens[6], s_moves) ||
          s_moves > std::numeric_limits<std::uint32_t>::max() ||
          !ParseU64(tokens[7], s.epochs_since_adoption) ||
          !ParseU64(tokens[8], s_certified) || s_certified > 1 ||
          !ParseDouble(tokens[9], s.bandwidth) ||
          !std::isfinite(s.bandwidth) ||
          !ParseDouble(tokens[10], s.unprocessed) ||
          !std::isfinite(s.unprocessed) ||
          !ParseDouble(tokens[11], s.opt_bound) ||
          !std::isfinite(s.opt_bound) || !ParseU64(tokens[12], s_nattr) ||
          s_nattr > static_cast<std::uint64_t>(num_vertices)) {
        result.error =
            AtLine(reader.line_number(), "malformed 'qsample' record");
        return result;
      }
      s.feasible = s_feasible == 1;
      s.certified = s_certified == 1;
      s.deployed = static_cast<std::uint32_t>(s_deployed);
      s.budget = static_cast<std::uint32_t>(s_budget);
      s.churn_moves = static_cast<std::uint32_t>(s_moves);
      s.attribution.reserve(CappedCount(s_nattr));
      for (std::uint64_t a = 0; a < s_nattr; ++a) {
        obs::VertexAttribution attr;
        if (!read_attr(attr)) return result;
        s.attribution.push_back(attr);
      }
      obs::DeriveQualityFields(&s);  // derived fields are never trusted
      q.samples.push_back(std::move(s));
    }
    if (!ReadKeyedU64(reader, tokens, "qalerts", qcount, result.error)) {
      return result;
    }
    if (qcount > obs::QualityTimeline::kMaxAlertLog) {
      result.error =
          AtLine(reader.line_number(), "qalerts count out of range");
      return result;
    }
    q.alerts.reserve(CappedCount(qcount));
    for (std::uint64_t i = 0; i < qcount; ++i) {
      obs::QualityAlert alert;
      std::uint64_t kind = 0;
      std::uint64_t raised = 0;
      if (!reader.Next(tokens) || tokens.size() != 6 ||
          tokens[0] != "qalert" || !ParseU64(tokens[1], kind) ||
          kind >= obs::kNumQualityAlertKinds ||
          !ParseU64(tokens[2], raised) || raised > 1 ||
          !ParseU64(tokens[3], alert.epoch) ||
          !ParseDouble(tokens[4], alert.value) ||
          !std::isfinite(alert.value) ||
          !ParseDouble(tokens[5], alert.threshold) ||
          !std::isfinite(alert.threshold)) {
        result.error =
            AtLine(reader.line_number(), "malformed 'qalert' record");
        return result;
      }
      alert.kind = static_cast<obs::QualityAlertKind>(kind);
      alert.raised = raised == 1;
      q.alerts.push_back(alert);
    }
    if (!reader.Next(tokens) || tokens.size() != 2 || tokens[0] != "end" ||
        tokens[1] != "quality") {
      result.error =
          AtLine(reader.line_number(), "expected terminator 'end quality'");
      return result;
    }
    if (!reader.Next(tokens)) {
      result.error = AtLine(reader.line_number(),
                            "expected terminator 'end engine-checkpoint'");
      return result;
    }
  }
  if (tokens.size() != 2 || tokens[0] != "end" ||
      tokens[1] != "engine-checkpoint") {
    result.error = AtLine(reader.line_number(),
                          "expected terminator 'end engine-checkpoint'");
    return result;
  }
  if (require_eof && reader.Next(tokens)) {
    result.error = AtLine(reader.line_number(),
                          "unexpected record after 'end engine-checkpoint'");
    return result;
  }
  result.value = std::move(cp);
  return result;
}

// --- File helpers -------------------------------------------------------

bool WriteFile(const std::string& path,
               const std::function<void(std::ostream&)>& content_writer) {
  // Torn-write-safe for every caller: temp file + fsync + atomic rename
  // (a crash mid-write leaves the previous file, never a prefix).
  return WriteFileAtomic(path, content_writer);
}

bool WriteEngineCheckpointFile(const std::string& path,
                               const engine::EngineCheckpoint& checkpoint,
                               const EngineCheckpointWriteOptions& options,
                               faults::FaultInjector* fault_injector,
                               std::string* error) {
  AtomicWriteOptions write_options;
  write_options.crc_trailer = true;
  write_options.fault_injector = fault_injector;
  return WriteFileAtomic(
      path,
      [&](std::ostream& os) { WriteEngineCheckpoint(os, checkpoint, options); },
      write_options, error);
}

Parsed<core::Instance> ReadInstanceFile(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    return {std::nullopt, "cannot open '" + path + "'"};
  }
  Parsed<core::Instance> result = ReadInstance(is);
  if (!result.ok()) {
    result.error = path + ": " + result.error;
  }
  return result;
}

Parsed<graph::Tree> ReadTreeFile(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    return {std::nullopt, "cannot open '" + path + "'"};
  }
  Parsed<graph::Tree> result = ReadTree(is);
  if (!result.ok()) {
    result.error = path + ": " + result.error;
  }
  return result;
}

Parsed<engine::EngineCheckpoint> ReadEngineCheckpointFile(
    const std::string& path) {
  // Checkpoint files are integrity-checked end to end: the CRC trailer
  // written by WriteEngineCheckpointFile must be present and match, so a
  // torn or bit-flipped file is rejected before any parsing happens.
  VerifiedPayload verified = ReadFileVerified(path);
  if (!verified.ok()) {
    return {std::nullopt, verified.error};
  }
  std::istringstream is(verified.payload);
  Parsed<engine::EngineCheckpoint> result = ReadEngineCheckpoint(is);
  if (!result.ok()) {
    result.error = path + ": " + result.error;
  }
  return result;
}

}  // namespace tdmd::io
