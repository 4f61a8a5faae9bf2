// engine-ingest: one synchronous engine::Engine per episode.
#include <algorithm>
#include <cmath>
#include <memory>

#include "engine/engine.hpp"
#include "inputs.hpp"
#include "obs/histogram.hpp"
#include "workloads.hpp"

namespace perfbench {

using tdmd::engine::Engine;
using tdmd::engine::FlowTicket;

EngineIngestConfig EngineIngestConfig::ForSeconds(double seconds) {
  EngineIngestConfig config;
  config.batches =
      config.block * std::max<std::size_t>(
                         1, static_cast<std::size_t>(std::lround(
                                seconds * 4.0 / 3.0)));
  return config;
}

namespace {

/// Per-layer accumulators across episodes.  Phase times are exact per
/// batch: the difference of the engine histograms' sums around the batch
/// (their quantiles would only resolve a bucket, 12.5% wide).
struct EngineLayer {
  std::vector<double> index_delta_ms;
  std::vector<double> patch_ms;
  std::vector<double> resolve_ms;
  std::uint64_t index_delta_ops = 0;
  std::uint64_t resolves = 0;
  std::uint64_t gain_reevals = 0;
  std::uint64_t reevals_saved = 0;
  std::uint64_t adoptions = 0;
  std::size_t memory_bytes = 0;
  std::size_t memory_flows = 0;
  std::size_t classes = 0;
};

/// A uniformly random source-to-sink flow.
DrawnFlow DrawSinkFlow(const RegionalNetwork& net, PathStore& paths,
                       tdmd::Rng& rng) {
  DrawnFlow drawn;
  const auto n = static_cast<std::uint64_t>(net.network.num_vertices());
  for (;;) {
    const auto src = static_cast<tdmd::VertexId>(rng.NextBounded(n));
    const tdmd::VertexId sink = net.hubs[rng.NextBounded(net.hubs.size())];
    if (DrawFlow(paths, src, sink, rng, &drawn)) return drawn;
  }
}

}  // namespace

Outcome RunEngineIngest(const EngineIngestConfig& config,
                        const RunOptions& options, SpanLog& spans) {
  Outcome out;
  EngineLayer layer;
  std::uint64_t request = 0;
  bool rss_read = false;

  tdmd::engine::EngineOptions engine_options;
  engine_options.k = config.k;
  engine_options.lambda = kLambda;
  engine_options.synchronous = true;
  engine_options.resolve_churn_fraction = config.resolve_churn_fraction;

  const auto half_batch = static_cast<std::size_t>(std::lround(
      config.churn / 2.0 * static_cast<double>(config.flows)));

  for (std::size_t episode = 0; episode < config.episodes; ++episode) {
    tdmd::Rng rng(SubSeed(options.seed, episode));
    const RegionalNetwork net =
        MakeRegionalNetwork(config.vertices, config.sinks, rng);
    PathStore paths(net.network);
    tdmd::traffic::FlowSet prefill;
    // `live` lists the live flows in ticket order (departures are drawn
    // from it); `load` aggregates them per path for the checks.
    std::vector<FlowRef> live;
    prefill.reserve(config.flows);
    live.reserve(config.flows);
    for (std::size_t i = 0; i < config.flows; ++i) {
      DrawnFlow drawn = DrawSinkFlow(net, paths, rng);
      live.push_back(drawn.ref);
      prefill.push_back(std::move(drawn.flow));
    }
    LiveLoad load(live);

    // Set-up: engine construction to the first snapshot after prefill,
    // repeated; the last engine serves the episode.
    std::unique_ptr<Engine> engine;
    std::vector<FlowTicket> tickets;
    for (std::size_t rep = 0; rep < config.setup_repeats; ++rep) {
      engine.reset();
      const std::uint64_t start = tdmd::obs::MonotonicNanos();
      engine = std::make_unique<Engine>(net.network, engine_options);
      tickets = engine->SubmitBatch(prefill, {}).tickets;
      const auto first = engine->CurrentSnapshot();
      out.setup_s.push_back(
          static_cast<double>(tdmd::obs::MonotonicNanos() - start) / 1e9);
      (void)first;
    }
    prefill.clear();
    prefill.shrink_to_fit();
    const tdmd::engine::EngineStats stats0 = engine->stats();
    tdmd::engine::EngineHistograms before = engine->histograms();

    std::shared_ptr<const tdmd::engine::DeploymentSnapshot> snapshot;
    CheckResult last_check;
    std::vector<FlowTicket> departures;
    tdmd::traffic::FlowSet arrivals;
    std::vector<FlowRef> arrival_refs;
    for (std::size_t b = 0; b < config.batches; ++b, ++request) {
      // Draw the batch: half_batch departures chosen uniformly (moved to
      // the back of the live list), half_batch arrivals.
      departures.clear();
      arrivals.clear();
      arrival_refs.clear();
      for (std::size_t i = 0; i < half_batch; ++i) {
        const std::size_t last = live.size() - 1 - i;
        const auto j = static_cast<std::size_t>(rng.NextBounded(last + 1));
        std::swap(live[j], live[last]);
        std::swap(tickets[j], tickets[last]);
        departures.push_back(tickets[last]);
        load.Remove(live[last]);
      }
      for (std::size_t i = 0; i < half_batch; ++i) {
        DrawnFlow drawn = DrawSinkFlow(net, paths, rng);
        arrival_refs.push_back(drawn.ref);
        arrivals.push_back(std::move(drawn.flow));
      }

      spans.set_enabled(TracedRequest(options.trace, request));
      const std::uint64_t start = tdmd::obs::MonotonicNanos();
      Engine::BatchResult result;
      {
        ScopedSpan root(spans, "request", request);
        {
          ScopedSpan span(spans, "engine.SubmitBatch", request);
          result = engine->SubmitBatch(arrivals, departures);
        }
        ScopedSpan span(spans, "engine.CurrentSnapshot", request);
        snapshot = engine->CurrentSnapshot();
      }
      const std::uint64_t elapsed = tdmd::obs::MonotonicNanos() - start;
      spans.set_enabled(false);
      out.latency_ms.push_back(static_cast<double>(elapsed) / 1e6);
      out.traced.push_back(TracedRequest(options.trace, request));
      out.timed_wall_s += static_cast<double>(elapsed) / 1e9;
      out.ops += arrivals.size() + departures.size();
      ++out.attempted;

      live.resize(live.size() - half_batch);
      tickets.resize(tickets.size() - half_batch);
      live.insert(live.end(), arrival_refs.begin(), arrival_refs.end());
      for (const FlowRef& ref : arrival_refs) load.Add(ref);
      tickets.insert(tickets.end(), result.tickets.begin(),
                     result.tickets.end());
      last_check =
          load.flows() == engine->index().active_flows()
              ? CheckEngineSnapshot(load, snapshot->deployment,
                                    snapshot->bandwidth, snapshot->feasible,
                                    config.k)
              : CheckResult{false, kFlowCountMismatch, false};
      out.RecordCheck(last_check.ok, last_check.issue,
                      last_check.known_defect);

      if ((b + 1) % config.block == 0) out.CloseBlock();

      const tdmd::engine::EngineHistograms after = engine->histograms();
      const auto delta_ms = [](const tdmd::obs::LatencyHistogram& from,
                               const tdmd::obs::LatencyHistogram& to) {
        return static_cast<double>(to.sum() - from.sum()) / 1e6;
      };
      layer.index_delta_ms.push_back(
          delta_ms(before.index_delta_ns, after.index_delta_ns));
      layer.patch_ms.push_back(delta_ms(before.patch_ns, after.patch_ns));
      if (after.resolve_ns.count() != before.resolve_ns.count()) {
        layer.resolve_ms.push_back(
            delta_ms(before.resolve_ns, after.resolve_ns));
      }
      before = after;
    }

    // Layer counters, read before the exit audit builds its instance.
    const tdmd::engine::EngineStats stats = engine->stats();
    layer.index_delta_ops += stats.index_delta_ops - stats0.index_delta_ops;
    layer.resolves += stats.resolves_completed - stats0.resolves_completed;
    layer.gain_reevals += stats.gain_reevals - stats0.gain_reevals;
    layer.reevals_saved += stats.reevals_saved - stats0.reevals_saved;
    layer.adoptions += stats.adoptions - stats0.adoptions;
    const tdmd::engine::EngineMemoryStats memory = engine->MemoryUsage();
    layer.memory_bytes += memory.index_bytes + memory.snapshot_bytes;
    layer.memory_flows += memory.active_flows;
    const tdmd::engine::FlowCoverageIndex& index = engine->index();
    for (std::size_t c = 0; c < index.num_path_classes(); ++c) {
      if (index.PathClassAt(c).active_flows > 0) ++layer.classes;
    }
    if (!rss_read) {
      out.peak_rss_mb = PeakRssMb();
      rss_read = true;
    }

    // Exit audit against the index's own materialized instance.  A final
    // state the known defect left unserved is audited for everything else
    // and counted as that defect again.
    const tdmd::core::Instance instance = index.BuildInstance();
    CheckResult audit = AuditFinalSnapshot(
        instance, snapshot->deployment, snapshot->bandwidth,
        snapshot->feasible, config.k, !last_check.known_defect);
    if (audit.ok && last_check.known_defect) audit = last_check;
    out.RecordCheck(audit.ok, audit.issue, audit.known_defect);
    ++out.attempted;
    const double unprocessed = UnprocessedBandwidth(load);
    out.bw_num +=
        last_check.ok && audit.ok ? snapshot->bandwidth : unprocessed;
    out.bw_den += unprocessed;
  }

  const double wall_ms = out.timed_wall_s * 1e3;
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  out.layer["engine.index_delta_ms"] = Median(layer.index_delta_ms);
  out.layer["engine.patch_ms"] = Median(layer.patch_ms);
  out.layer["engine.index_delta_ops"] =
      static_cast<double>(layer.index_delta_ops);
  out.layer["engine.index_share"] = ratio(Sum(layer.index_delta_ms), wall_ms);
  out.layer["engine.resolve_p50_ms"] = Median(layer.resolve_ms);
  out.layer["engine.resolve_p99_ms"] = Quantile(layer.resolve_ms, 0.99);
  out.layer["engine.resolve_share"] = ratio(Sum(layer.resolve_ms), wall_ms);
  out.layer["engine.gain_evals_per_resolve"] =
      ratio(static_cast<double>(layer.gain_reevals),
            static_cast<double>(layer.resolves));
  out.layer["engine.lazy_skip_ratio"] =
      ratio(static_cast<double>(layer.reevals_saved),
            static_cast<double>(layer.reevals_saved + layer.gain_reevals));
  out.layer["engine.adopt_ratio"] =
      ratio(static_cast<double>(layer.adoptions),
            static_cast<double>(layer.resolves));
  out.layer["engine.bytes_per_flow"] =
      ratio(static_cast<double>(layer.memory_bytes),
            static_cast<double>(layer.memory_flows));
  out.layer["engine.flows_per_class"] =
      ratio(static_cast<double>(layer.memory_flows),
            static_cast<double>(layer.classes));
  return out;
}

}  // namespace perfbench
