// fleet-regional: shard::ShardedEngine, one fleet per episode.
#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <unordered_map>

#include "inputs.hpp"
#include "obs/histogram.hpp"
#include "shard/sharded_engine.hpp"
#include "workloads.hpp"

namespace perfbench {

using tdmd::shard::FlowId64;
using tdmd::shard::ShardedEngine;

FleetRegionalConfig FleetRegionalConfig::ForSeconds(double seconds) {
  FleetRegionalConfig config;
  config.episodes = std::max<std::size_t>(
      2, static_cast<std::size_t>(std::lround(seconds * 4.0)));
  return config;
}

namespace {

/// The fleet's exposition in Prometheus text, as name -> value (summary
/// quantiles keyed as name{quantile="q"}).
std::unordered_map<std::string, double> ReadMetrics(ShardedEngine& fleet) {
  std::ostringstream text;
  fleet.DumpMetrics(text, tdmd::obs::MetricsFormat::kPrometheus);
  std::unordered_map<std::string, double> values;
  std::istringstream lines(text.str());
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    values[line.substr(0, space)] = std::strtod(line.c_str() + space + 1,
                                                nullptr);
  }
  return values;
}

double SummaryQuantileMs(
    const std::unordered_map<std::string, double>& metrics,
    const std::string& summary, const char* q) {
  const auto it =
      metrics.find(summary + "_seconds{quantile=\"" + q + "\"}");
  return it == metrics.end() ? 0.0 : it->second * 1e3;
}

double Value(const std::unordered_map<std::string, double>& metrics,
             const std::string& name) {
  const auto it = metrics.find(name);
  return it == metrics.end() ? 0.0 : it->second;
}

struct LiveFlow {
  FlowId64 id;
  int region;
  FlowRef ref;
};

std::vector<FlowRef> Refs(const std::vector<LiveFlow>& live) {
  std::vector<FlowRef> refs;
  refs.reserve(live.size());
  for (const LiveFlow& flow : live) refs.push_back(flow.ref);
  return refs;
}

/// A flow from a random source of region `r` to the region's hub; false
/// when the region is its hub alone.
bool DrawRegionFlow(const RegionalNetwork& net, PathStore& paths,
                    std::size_t r, tdmd::Rng& rng, DrawnFlow* drawn) {
  const std::vector<tdmd::VertexId>& sources = net.sources[r];
  if (sources.empty()) return false;
  for (;;) {
    const tdmd::VertexId src = sources[rng.NextBounded(sources.size())];
    if (DrawFlow(paths, src, net.hubs[r], rng, drawn)) return true;
  }
}

/// Per-layer accumulators across episodes.  The fleet's engines are
/// reachable only through its exposition, whose quantiles resolve a
/// histogram bucket; the per-episode quantiles are averaged over the
/// episodes.
struct FleetLayer {
  std::vector<double> index_delta_ms, patch_ms, resolve_p50_ms,
      resolve_p99_ms, queue_wait_p99_ms;
  double index_delta_s = 0.0;
  double resolve_s = 0.0;
  double index_delta_ops = 0.0;
  double resolves = 0.0;
  double gain_reevals = 0.0;
  double reevals_saved = 0.0;
  double adoptions = 0.0;
  std::uint64_t shard_epochs = 0;
  std::uint64_t skipped = 0;
  std::uint64_t realloc_rounds = 0;
  std::uint64_t realloc_adoptions = 0;
  std::uint64_t over_budget = 0;
  std::vector<double> boundary_ms;
  std::size_t engine_bytes = 0;
  std::size_t fleet_bytes = 0;
  std::size_t flows = 0;
  std::size_t classes = 0;
};

}  // namespace

Outcome RunFleetRegional(const FleetRegionalConfig& config,
                         const RunOptions& options, SpanLog& spans) {
  Outcome out;
  FleetLayer layer;
  std::uint64_t request = 0;

  const auto regional_arrivals = static_cast<std::size_t>(std::lround(
      config.regional_arrivals * static_cast<double>(config.flows) /
      static_cast<double>(config.regions)));

  for (std::size_t episode = 0; episode < config.episodes; ++episode) {
    tdmd::Rng rng(SubSeed(options.seed, 1000 + episode));
    const RegionalNetwork net =
        MakeRegionalNetwork(config.vertices, config.regions, rng);
    PathStore paths(net.network);
    tdmd::traffic::FlowSet prefill;
    std::vector<LiveFlow> live;
    for (std::size_t i = 0; i < config.flows; ++i) {
      const auto r = static_cast<std::size_t>(rng.NextBounded(config.regions));
      DrawnFlow drawn;
      if (!DrawRegionFlow(net, paths, r, rng, &drawn)) continue;
      live.push_back(LiveFlow{0, static_cast<int>(r), drawn.ref});
      prefill.push_back(std::move(drawn.flow));
    }

    tdmd::shard::ShardedEngineOptions fleet_options;
    fleet_options.partition.num_shards = config.shards;
    fleet_options.partition.method = tdmd::shard::PartitionMethod::kBfs;
    fleet_options.partition.seed = options.seed;
    // Grow each shard from whole hub regions (consecutive groups of
    // regions / shards hubs), as an operator who knows the traffic
    // matrix would.
    fleet_options.partition.seeds = net.hubs;
    fleet_options.total_budget = config.total_budget;
    fleet_options.engine.lambda = kLambda;
    fleet_options.engine.resolve_churn_fraction =
        config.resolve_churn_fraction;
    fleet_options.supervise = true;

    // Set-up: fleet construction to the first snapshot after prefill.
    const std::uint64_t setup_start = tdmd::obs::MonotonicNanos();
    auto fleet = std::make_unique<ShardedEngine>(net.network, fleet_options);
    const std::vector<FlowId64> prefill_ids =
        fleet->SubmitBatch(prefill, {}).flow_ids;
    fleet->Drain();
    const tdmd::shard::FleetSnapshot first = fleet->Snapshot();
    out.setup_s.push_back(
        static_cast<double>(tdmd::obs::MonotonicNanos() - setup_start) /
        1e9);
    (void)first;
    prefill.clear();
    for (std::size_t i = 0; i < live.size(); ++i) live[i].id = prefill_ids[i];
    const auto metrics0 = ReadMetrics(*fleet);
    const tdmd::shard::FleetStats stats0 = fleet->stats();

    tdmd::traffic::FlowSet arrivals;
    std::vector<FlowId64> departures;
    std::vector<LiveFlow> arrived;
    for (std::size_t b = 0; b < config.batches; ++b, ++request) {
      // Churn in one region: each of its flows departs with probability
      // departure_probability, and regional_arrivals new flows arrive.
      const std::size_t r = b % config.regions;
      departures.clear();
      arrivals.clear();
      arrived.clear();
      std::size_t kept = 0;
      for (std::size_t i = 0; i < live.size(); ++i) {
        if (live[i].region == static_cast<int>(r) &&
            rng.NextBool(config.departure_probability)) {
          departures.push_back(live[i].id);
        } else {
          live[kept++] = live[i];
        }
      }
      live.resize(kept);
      for (std::size_t i = 0; i < regional_arrivals; ++i) {
        DrawnFlow drawn;
        if (!DrawRegionFlow(net, paths, r, rng, &drawn)) break;
        arrived.push_back(LiveFlow{0, static_cast<int>(r), drawn.ref});
        arrivals.push_back(std::move(drawn.flow));
      }

      const bool traced = TracedRequest(options.trace, request);
      const tdmd::shard::FleetStats before = fleet->stats();
      spans.set_enabled(traced);
      const std::uint64_t start = tdmd::obs::MonotonicNanos();
      ShardedEngine::BatchResult result;
      {
        ScopedSpan root(spans, "request", request);
        {
          ScopedSpan span(spans, "fleet.SubmitBatch", request);
          result = fleet->SubmitBatch(arrivals, departures);
        }
        ScopedSpan span(spans, "fleet.Drain", request);
        fleet->Drain();
      }
      const std::uint64_t elapsed = tdmd::obs::MonotonicNanos() - start;
      spans.set_enabled(false);
      const double latency_ms = static_cast<double>(elapsed) / 1e6;
      out.latency_ms.push_back(latency_ms);
      out.traced.push_back(traced);
      out.timed_wall_s += static_cast<double>(elapsed) / 1e9;
      out.ops += arrivals.size() + departures.size();
      ++out.attempted;
      const tdmd::shard::FleetStats& after = fleet->stats();
      if (after.realloc_rounds != before.realloc_rounds ||
          after.supervisor_checkpoints != before.supervisor_checkpoints) {
        layer.boundary_ms.push_back(latency_ms);
      }

      for (std::size_t i = 0; i < arrived.size(); ++i) {
        arrived[i].id = result.flow_ids[i];
      }
      live.insert(live.end(), arrived.begin(), arrived.end());

      if (options.sample_fleet_snapshots &&
          (b + 1) % config.sample_every == 0) {
        const tdmd::shard::FleetSnapshot snapshot = fleet->Snapshot();
        const CheckResult check = CheckFleetSnapshot(
            LiveLoad(Refs(live)), snapshot, config.total_budget);
        out.RecordCheck(check.ok, check.issue, check.known_defect);
        if (check.known_defect) ++layer.over_budget;
      }
    }

    out.CloseBlock();

    const tdmd::shard::FleetStats& stats = fleet->stats();
    layer.shard_epochs += (stats.epochs - stats0.epochs) * config.shards;
    layer.skipped += stats.batches_skipped - stats0.batches_skipped;
    layer.realloc_rounds += stats.realloc_rounds - stats0.realloc_rounds;
    layer.realloc_adoptions +=
        stats.realloc_adoptions - stats0.realloc_adoptions;
    const tdmd::shard::FleetMemoryStats memory = fleet->MemoryUsage();
    layer.engine_bytes += memory.index_bytes + memory.snapshot_bytes;
    layer.fleet_bytes += memory.index_bytes + memory.snapshot_bytes +
                         memory.queue_bytes + memory.redo_ring_bytes;
    layer.flows += memory.active_flows;
    std::set<const tdmd::graph::Path*> classes;
    for (const LiveFlow& flow : live) classes.insert(flow.ref.path);
    layer.classes += classes.size();
    out.peak_rss_mb = std::max(out.peak_rss_mb, PeakRssMb());

    // Exit: the final union snapshot, checked against the live-flow list
    // and audited against an instance built from it.
    const tdmd::shard::FleetSnapshot final_snapshot = fleet->Snapshot();
    const std::vector<FlowRef> refs = Refs(live);
    const LiveLoad load(refs);
    CheckResult check =
        CheckFleetSnapshot(load, final_snapshot, config.total_budget);
    if (check.known_defect) ++layer.over_budget;
    tdmd::traffic::FlowSet flows;
    flows.reserve(refs.size());
    for (const FlowRef& ref : refs) {
      tdmd::traffic::Flow flow;
      flow.src = ref.path->vertices.front();
      flow.dst = ref.path->vertices.back();
      flow.rate = ref.rate;
      flow.path = *ref.path;
      flows.push_back(std::move(flow));
    }
    const tdmd::core::Instance instance(net.network, std::move(flows),
                                        kLambda);
    // With the known overrun already counted, the audit leaves out the
    // budget (k = 0), so any other failure still shows as unexplained.
    const CheckResult audit = AuditFinalSnapshot(
        instance, final_snapshot.deployment, final_snapshot.bandwidth,
        final_snapshot.feasible, check.known_defect ? 0 : config.total_budget);
    if (!audit.ok) check = audit;
    out.RecordCheck(check.ok, check.issue, check.known_defect);
    ++out.attempted;
    const double unprocessed = UnprocessedBandwidth(load);
    out.bw_num += check.ok ? final_snapshot.bandwidth : unprocessed;
    out.bw_den += unprocessed;

    const auto metrics = ReadMetrics(*fleet);
    const auto delta = [&](const std::string& name) {
      return Value(metrics, name) - Value(metrics0, name);
    };
    layer.index_delta_ms.push_back(
        SummaryQuantileMs(metrics, "tdmd_fleet_index_delta", "0.5"));
    layer.patch_ms.push_back(SummaryQuantileMs(metrics, "tdmd_fleet_patch", "0.5"));
    layer.resolve_p50_ms.push_back(
        SummaryQuantileMs(metrics, "tdmd_fleet_resolve", "0.5"));
    layer.resolve_p99_ms.push_back(
        SummaryQuantileMs(metrics, "tdmd_fleet_resolve", "0.99"));
    layer.queue_wait_p99_ms.push_back(
        SummaryQuantileMs(metrics, "tdmd_fleet_e2e_submit_dequeue", "0.99"));
    layer.index_delta_s += delta("tdmd_fleet_index_delta_seconds_sum");
    layer.resolve_s += delta("tdmd_fleet_resolve_seconds_sum");
    layer.index_delta_ops += delta("tdmd_fleet_index_delta_ops");
    layer.resolves += delta("tdmd_fleet_resolves_completed");
    layer.gain_reevals += delta("tdmd_fleet_gain_reevals");
    layer.reevals_saved += delta("tdmd_fleet_reevals_saved");
    layer.adoptions += delta("tdmd_fleet_adoptions");
  }

  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const std::vector<double> route = spans.DurationsMs("fleet.SubmitBatch");
  const std::vector<double> drain = spans.DurationsMs("fleet.Drain");
  out.layer["engine.index_delta_ms"] = Mean(layer.index_delta_ms);
  out.layer["engine.patch_ms"] = Mean(layer.patch_ms);
  out.layer["engine.index_delta_ops"] = layer.index_delta_ops;
  out.layer["engine.index_share"] =
      ratio(layer.index_delta_s, out.timed_wall_s);
  out.layer["engine.resolve_p50_ms"] = Mean(layer.resolve_p50_ms);
  out.layer["engine.resolve_p99_ms"] = Mean(layer.resolve_p99_ms);
  out.layer["engine.resolve_share"] = ratio(layer.resolve_s, out.timed_wall_s);
  out.layer["engine.gain_evals_per_resolve"] =
      ratio(layer.gain_reevals, layer.resolves);
  out.layer["engine.lazy_skip_ratio"] = ratio(
      layer.reevals_saved, layer.reevals_saved + layer.gain_reevals);
  out.layer["engine.adopt_ratio"] = ratio(layer.adoptions, layer.resolves);
  out.layer["engine.bytes_per_flow"] =
      ratio(static_cast<double>(layer.engine_bytes),
            static_cast<double>(layer.flows));
  out.layer["engine.flows_per_class"] =
      ratio(static_cast<double>(layer.flows),
            static_cast<double>(layer.classes));
  out.layer["shard.route_ms"] = Median(route);
  out.layer["shard.drain_p50_ms"] = Median(drain);
  out.layer["shard.drain_p99_ms"] = Quantile(drain, 0.99);
  out.layer["shard.queue_wait_p99_ms"] = Mean(layer.queue_wait_p99_ms);
  out.layer["shard.skip_ratio"] =
      ratio(static_cast<double>(layer.skipped),
            static_cast<double>(layer.shard_epochs));
  out.layer["shard.realloc_adopt_ratio"] =
      ratio(static_cast<double>(layer.realloc_adoptions),
            static_cast<double>(layer.realloc_rounds));
  out.layer["shard.boundary_batch_ms"] = Median(layer.boundary_ms);
  out.layer["shard.over_budget"] = static_cast<double>(layer.over_budget);
  out.layer["shard.memory_bytes"] =
      static_cast<double>(layer.fleet_bytes) /
      static_cast<double>(config.episodes);
  return out;
}

}  // namespace perfbench
