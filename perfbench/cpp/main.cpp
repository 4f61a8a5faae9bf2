// perfbench: the repository's end-to-end and per-layer benchmark.
//
//   perfbench --workload <engine-ingest|fleet-regional|plan-tree>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//
// Prints a few human-readable lines, then, as the last line, one JSON
// object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
// the metrics are the end-to-end ones, measured with tracing off; with
// --trace 1 they are the per-layer ones (see perfbench/README.md).
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "bench.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

const MetricDef kEndToEnd[] = {
    {"ops_per_s", "1/s"},     {"latency_p50_ms", "ms"},
    {"latency_tail_ms", "ms"}, {"bw_ratio", "ratio"},
    {"ok_frac", "ratio"},     {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

const MetricDef kPerLayer[] = {
    {"engine.index_delta_ms", "ms"},
    {"engine.patch_ms", "ms"},
    {"engine.index_delta_ops", "count"},
    {"engine.index_share", "ratio"},
    {"engine.resolve_p50_ms", "ms"},
    {"engine.resolve_p99_ms", "ms"},
    {"engine.resolve_share", "ratio"},
    {"engine.gain_evals_per_resolve", "count"},
    {"engine.lazy_skip_ratio", "ratio"},
    {"engine.adopt_ratio", "ratio"},
    {"engine.bytes_per_flow", "B"},
    {"engine.flows_per_class", "count"},
    {"shard.route_ms", "ms"},
    {"shard.drain_p50_ms", "ms"},
    {"shard.drain_p99_ms", "ms"},
    {"shard.queue_wait_p99_ms", "ms"},
    {"shard.skip_ratio", "ratio"},
    {"shard.realloc_adopt_ratio", "ratio"},
    {"shard.boundary_batch_ms", "ms"},
    {"shard.over_budget", "count"},
    {"shard.memory_bytes", "B"},
    {"core.gtp_ms", "ms"},
    {"core.hat_ms", "ms"},
    {"core.dp_ms", "ms"},
    {"core.dp_share", "ratio"},
    {"core.gtp_oracle_calls", "count"},
    {"core.hat_oracle_calls", "count"},
    {"core.dp_oracle_calls", "count"},
    {"core.instance_build_ms", "ms"},
    {"obs.trace_overhead", "ratio"},
};

/// Shortest decimal that round-trips the double: every measured digit.
std::string Number(double value) {
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

[[noreturn]] void Usage(const char* problem) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<engine-ingest|fleet-regional|plan-tree> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>]\n",
               problem);
  std::exit(2);
}

RunOptions ParseArgs(int argc, char** argv) {
  RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      options.trace = value == "1";
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      Usage(("malformed value for " + flag).c_str());
    }
  }
  if (options.workload.empty()) Usage("--workload is required");
  if (!(options.seconds > 0.0)) Usage("--seconds must be positive");
  return options;
}

Outcome Run(const RunOptions& options, SpanLog& spans) {
  if (options.workload == "engine-ingest") {
    return RunEngineIngest(EngineIngestConfig::ForSeconds(options.seconds),
                           options, spans);
  }
  if (options.workload == "fleet-regional") {
    return RunFleetRegional(
        FleetRegionalConfig::ForSeconds(options.seconds), options, spans);
  }
  if (options.workload == "plan-tree") {
    return RunPlanTree(PlanTreeConfig::ForSeconds(options.seconds), options,
                       spans);
  }
  Usage(("unknown workload " + options.workload).c_str());
}

/// Every per-layer metric is a measurement in every traced run: a layer
/// the workload does not run is measured by a short traced run of the
/// workload that does, since a constant 0 would not tell an idle layer
/// from a broken timer.
void MeasureIdleLayers(const RunOptions& options, Outcome& out) {
  const auto missing = [&](std::string_view layer) {
    for (const MetricDef& def : kPerLayer) {
      if (std::string_view(def.name).starts_with(layer) &&
          out.layer.count(def.name) == 0) {
        return true;
      }
    }
    return false;
  };
  const auto merge = [&](const Outcome& probe) {
    for (const auto& [name, value] : probe.layer) out.layer.emplace(name, value);
  };
  SpanLog spans;
  if (missing("engine.")) {
    EngineIngestConfig config;
    config.episodes = 1;
    config.batches = 2 * config.block;
    config.setup_repeats = 1;
    merge(RunEngineIngest(config, options, spans));
  }
  if (missing("shard.")) {
    FleetRegionalConfig config;
    config.episodes = 2;
    merge(RunFleetRegional(config, options, spans));
  }
  if (missing("core.")) {
    PlanTreeConfig config;
    config.rounds = 2;
    config.setup_repeats = 1;
    merge(RunPlanTree(config, options, spans));
  }
}

int Main(int argc, char** argv) {
  const RunOptions options = ParseArgs(argc, argv);
  SpanLog spans;
  Outcome out = Run(options, spans);

  const std::size_t n = out.latency_ms.size();
  const double tail = TailPercentile(n);
  std::vector<double> traced_ms, untraced_ms;
  for (std::size_t i = 0; i < n; ++i) {
    (out.traced[i] ? traced_ms : untraced_ms).push_back(out.latency_ms[i]);
  }

  std::cout << "workload " << options.workload << " seed " << options.seed
            << ": " << n << " requests, " << out.ops << " ops, tail p"
            << tail << " (" << n << " samples, "
            << n - static_cast<std::size_t>(std::ceil(tail / 100.0 * n - 1e-9))
            << " beyond)\n";
  std::cout << "checks " << out.checks << ", failed " << out.checks_failed
            << ", unexplained " << out.unexplained << "\n";
  for (const auto& [issue, count] : out.failures) {
    std::cout << "  failed check " << issue << ": " << count << "\n";
  }

  std::vector<std::pair<MetricDef, double>> metrics;
  if (!options.trace) {
    const double values[] = {
        Median(out.block_ops_per_s),
        Quantile(out.latency_ms, 0.5),
        Quantile(out.latency_ms, tail / 100.0),
        out.bw_den > 0.0 ? out.bw_num / out.bw_den : 1.0,
        out.checks > 0 ? static_cast<double>(out.checks - out.checks_failed) /
                             static_cast<double>(out.checks)
                       : 0.0,
        Median(out.setup_s),
        out.peak_rss_mb,
    };
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
      metrics.emplace_back(kEndToEnd[i], values[i]);
    }
  } else {
    const double untraced_p50 = Median(untraced_ms);
    out.layer["obs.trace_overhead"] =
        untraced_p50 > 0.0 ? Median(traced_ms) / untraced_p50 - 1.0 : 0.0;
    for (const auto& [name, self_ms] : spans.SelfTimeMs()) {
      std::cout << "  span " << name << " self " << self_ms << " ms\n";
    }
    if (!options.trace_out.empty() &&
        !spans.WriteChromeTrace(options.trace_out)) {
      std::cerr << "perfbench: cannot write " << options.trace_out << "\n";
    }
    MeasureIdleLayers(options, out);
    for (const MetricDef& def : kPerLayer) {
      metrics.emplace_back(def, out.layer.at(def.name));
    }
  }

  std::ostringstream line;
  line << "{\"correct\": " << (out.unexplained == 0 ? "true" : "false")
       << ", \"attempted\": " << out.attempted
       << ", \"failed\": " << out.checks_failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    line << (i == 0 ? "" : ", ") << '"' << metrics[i].first.name
         << "\": {\"value\": " << Number(metrics[i].second)
         << ", \"unit\": \"" << metrics[i].first.unit << "\"}";
  }
  line << "}}";
  std::cout << line.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
