// plan-tree: core::Gtp, core::Hat and core::DpTree on distinct Ark-derived
// tree instances.  Neither the engine nor the shard layer runs.
#include <algorithm>
#include <cmath>
#include <optional>

#include "core/dp_tree.hpp"
#include "core/gtp.hpp"
#include "core/hat.hpp"
#include "inputs.hpp"
#include "obs/histogram.hpp"
#include "workloads.hpp"

namespace perfbench {

PlanTreeConfig PlanTreeConfig::ForSeconds(double seconds) {
  PlanTreeConfig config;
  config.rounds = std::max<std::size_t>(
      2, static_cast<std::size_t>(std::lround(seconds * 2.2)));
  return config;
}

Outcome RunPlanTree(const PlanTreeConfig& config, const RunOptions& options,
                    SpanLog& spans) {
  Outcome out;
  tdmd::core::GtpOptions gtp_options;
  gtp_options.max_middleboxes = config.k;
  gtp_options.feasibility_aware = true;
  std::vector<double> build_ms;
  double oracle_calls[3] = {0.0, 0.0, 0.0};
  std::uint64_t request = 0;
  for (std::size_t round = 0; round < config.rounds; ++round) {
    const std::vector<TreeCase> cases = MakeTreeRound(
        config.min_size, config.max_size, SubSeed(options.seed, 2000 + round));

    // Set-up: building the round's instances, one core::MakeTreeInstance
    // per case, timed per pass and per call; the last pass is kept and
    // planned right away, as a planner's caller would.
    std::vector<std::optional<tdmd::core::Instance>> instances;
    for (std::size_t rep = 0; rep < config.setup_repeats; ++rep) {
      instances.clear();
      instances.reserve(cases.size());
      const std::uint64_t start = tdmd::obs::MonotonicNanos();
      for (const TreeCase& tree_case : cases) {
        const std::uint64_t call = tdmd::obs::MonotonicNanos();
        instances.emplace_back(tdmd::core::MakeTreeInstance(
            tree_case.tree, tree_case.flows, kLambda));
        build_ms.push_back(
            static_cast<double>(tdmd::obs::MonotonicNanos() - call) / 1e6);
      }
      out.setup_s.push_back(
          static_cast<double>(tdmd::obs::MonotonicNanos() - start) / 1e9);
    }

    for (std::size_t i = 0; i < cases.size(); ++i, ++request) {
      const tdmd::core::Instance& instance = *instances[i];
      const tdmd::graph::Tree& tree = cases[i].tree;
      const bool traced = TracedRequest(options.trace, request);
      spans.set_enabled(traced);
      const std::uint64_t start = tdmd::obs::MonotonicNanos();
      tdmd::core::PlacementResult gtp, hat, dp;
      {
        ScopedSpan root(spans, "request", request);
        {
          ScopedSpan span(spans, "core.Gtp", request);
          gtp = tdmd::core::Gtp(instance, gtp_options);
        }
        {
          ScopedSpan span(spans, "core.Hat", request);
          hat = tdmd::core::Hat(instance, tree, config.k);
        }
        ScopedSpan span(spans, "core.DpTree", request);
        dp = tdmd::core::DpTree(instance, tree, config.k);
      }
      const std::uint64_t elapsed = tdmd::obs::MonotonicNanos() - start;
      spans.set_enabled(false);
      out.latency_ms.push_back(static_cast<double>(elapsed) / 1e6);
      out.traced.push_back(traced);
      out.timed_wall_s += static_cast<double>(elapsed) / 1e9;
      ++out.ops;
      ++out.attempted;

      const CheckResult check =
          CheckTreePlans(instance, tree, gtp, hat, dp, config.k);
      out.RecordCheck(check.ok, check.issue, check.known_defect);
      const double unprocessed = instance.UnprocessedBandwidth();
      out.bw_num += check.ok ? gtp.bandwidth + hat.bandwidth + dp.bandwidth
                             : 3.0 * unprocessed;
      out.bw_den += 3.0 * unprocessed;
      oracle_calls[0] += static_cast<double>(gtp.oracle_calls);
      oracle_calls[1] += static_cast<double>(hat.oracle_calls);
      oracle_calls[2] += static_cast<double>(dp.oracle_calls);
    }
    out.CloseBlock();
  }
  out.peak_rss_mb = PeakRssMb();

  const std::vector<double> dp_ms = spans.DurationsMs("core.DpTree");
  const std::vector<double> request_ms = spans.DurationsMs("request");
  const auto n = static_cast<double>(request);
  out.layer["core.gtp_ms"] = Median(spans.DurationsMs("core.Gtp"));
  out.layer["core.hat_ms"] = Median(spans.DurationsMs("core.Hat"));
  out.layer["core.dp_ms"] = Median(dp_ms);
  out.layer["core.dp_share"] =
      request_ms.empty() ? 0.0 : Sum(dp_ms) / Sum(request_ms);
  out.layer["core.gtp_oracle_calls"] = oracle_calls[0] / n;
  out.layer["core.hat_oracle_calls"] = oracle_calls[1] / n;
  out.layer["core.dp_oracle_calls"] = oracle_calls[2] / n;
  out.layer["core.instance_build_ms"] = Median(build_ms);
  return out;
}

}  // namespace perfbench
