// Fault-tolerant serving (DESIGN.md Section 9): deterministic fault
// replay, deadline-expired prefix adoption, retry accounting and
// the NORMAL -> DEGRADED -> PATCH_ONLY -> NORMAL round trip.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/churn_trace.hpp"
#include "engine/engine.hpp"
#include "faults/faults.hpp"
#include "test_util.hpp"
#include "topology/generators.hpp"

namespace tdmd::engine {
namespace {

graph::Digraph TestNetwork(std::uint64_t seed, VertexId n = 20) {
  Rng rng(seed);
  return topology::Waxman(n, 0.5, 0.4, rng);
}

/// Descending line digraph n-1 -> n-2 -> ... -> 0.  With flows routed
/// down the whole line, the feasibility patch (ties toward the lowest
/// vertex id) deploys at vertex 0 while the greedy solver's first pick is
/// the path head n-1 (maximal downstream gain) — so a 1-box solver prefix
/// genuinely differs from the patched plan.
graph::Digraph DescendingLineNetwork(VertexId n) {
  graph::DigraphBuilder builder(n);
  for (VertexId v = n - 1; v > 0; --v) builder.AddArc(v, v - 1);
  return builder.Build();
}

traffic::Flow DescendingLineFlow(Rate rate, VertexId from) {
  traffic::Flow f;
  f.rate = rate;
  for (VertexId v = from; v >= 0; --v) f.path.vertices.push_back(v);
  f.src = from;
  f.dst = 0;
  return f;
}

ChurnTrace MakeTrace(const graph::Digraph& network, std::size_t epochs,
                     std::uint64_t seed) {
  ChurnModel churn;
  churn.arrival_count = 6;
  churn.departure_probability = 0.25;
  Rng rng(seed);
  return BuildChurnTrace(network, churn, epochs, 0, rng);
}

/// Replays `trace`, appending each batch's tickets to `handles` (indexed
/// by arrival sequence).
void Replay(Engine& engine, const ChurnTrace& trace,
            std::vector<FlowTicket>& handles) {
  for (const ChurnEpoch& epoch : trace.epochs) {
    std::vector<FlowTicket> departing;
    for (std::size_t sequence : epoch.departures) {
      ASSERT_LT(sequence, handles.size());
      departing.push_back(handles[sequence]);
    }
    const Engine::BatchResult result =
        engine.SubmitBatch(epoch.arrivals, departing);
    handles.insert(handles.end(), result.tickets.begin(),
                   result.tickets.end());
  }
}

// Same seed => same injected fault sequence => byte-identical final
// deployments and identical counters, run-to-run (ISSUE acceptance:
// deterministic fault replay).
TEST(EngineFaultTest, SameSeedReplaysByteIdentically) {
  faults::FaultSpec spec;
  spec.seed = 2024;
  spec.at(faults::FaultSite::kIndexDelta).throw_probability = 0.1;
  spec.at(faults::FaultSite::kGreedyRound).throw_probability = 0.05;
  spec.at(faults::FaultSite::kGreedyRound).cancel_probability = 0.05;

  const graph::Digraph network = TestNetwork(41);
  const ChurnTrace trace = MakeTrace(network, 10, 51);

  struct RunResult {
    std::string deployment;
    Bandwidth bandwidth = 0.0;
    std::vector<faults::FaultEvent> events;
    std::uint64_t retries = 0;
    std::uint64_t failures = 0;
  };
  const auto run = [&]() {
    faults::FaultInjector injector(spec);
    EngineOptions options;
    options.k = 5;
    options.fault_injector = &injector;
    Engine engine(network, options);
    std::vector<FlowTicket> handles;
    Replay(engine, trace, handles);
    const auto snapshot = engine.CurrentSnapshot();
    return RunResult{snapshot->deployment.ToString(), snapshot->bandwidth,
                     injector.Events(), engine.stats().index_fault_retries,
                     engine.stats().resolve_failures};
  };

  const RunResult first = run();
  const RunResult second = run();
  EXPECT_FALSE(first.events.empty());  // the spec actually fired
  EXPECT_EQ(first.events, second.events);
  EXPECT_EQ(first.deployment, second.deployment);
  EXPECT_EQ(first.bandwidth, second.bandwidth);  // bit-exact, not approx
  EXPECT_EQ(first.retries, second.retries);
  EXPECT_EQ(first.failures, second.failures);
}

// Injected index-delta throws fire before any mutation, so the engine's
// retry loop absorbs them: churn still lands exactly once.
TEST(EngineFaultTest, IndexDeltaFaultsAreRetriedWithoutStateDamage) {
  faults::FaultSpec spec;
  spec.seed = 7;
  spec.at(faults::FaultSite::kIndexDelta).throw_probability = 0.4;
  faults::FaultInjector injector(spec);

  EngineOptions options;
  options.k = 4;
  options.fault_injector = &injector;
  Engine engine(TestNetwork(42), options);

  const ChurnTrace trace = MakeTrace(engine.index().network(), 8, 52);
  std::vector<FlowTicket> handles;
  Replay(engine, trace, handles);

  const EngineStats stats = engine.stats();
  EXPECT_GT(stats.index_fault_retries, 0u);
  // Every arrival landed once despite the injected throws.
  const std::vector<FlowTicket> live =
      test::LiveHandles(handles, trace.epochs);
  EXPECT_EQ(engine.index().active_flows(), live.size());
  EXPECT_TRUE(engine.CurrentSnapshot()->feasible);
  for (FlowTicket t : live) {
    EXPECT_TRUE(engine.index().Contains(t));
  }
}

// A delay-stalled solve that overruns its deadline returns the greedy
// prefix selected so far; by Theorem 2 that prefix is a valid deployment,
// and here (single shared path, k >= 1) it is even feasible, so the
// engine adopts it as a degraded answer.
TEST(EngineFaultTest, DeadlineExpiredPrefixIsAdopted) {
  faults::FaultSpec spec;
  spec.seed = 3;
  spec.at(faults::FaultSite::kGreedyRound).delay_probability = 1.0;
  spec.at(faults::FaultSite::kGreedyRound).delay =
      std::chrono::milliseconds(5);
  faults::FaultInjector injector(spec);

  EngineOptions options;
  options.k = 3;
  options.fault_injector = &injector;
  options.solve_deadline = std::chrono::milliseconds(1);
  options.max_resolve_retries = 1;
  Engine engine(DescendingLineNetwork(6), options);

  traffic::FlowSet arrivals;
  arrivals.push_back(DescendingLineFlow(4, 5));
  arrivals.push_back(DescendingLineFlow(2, 5));
  engine.SubmitBatch(arrivals, {});

  const EngineStats stats = engine.stats();
  EXPECT_GT(stats.resolve_timeouts, 0u);
  EXPECT_GT(stats.resolves_expired_adopted, 0u);
  const auto snapshot = engine.CurrentSnapshot();
  EXPECT_TRUE(snapshot->feasible);
  EXPECT_FALSE(snapshot->deployment.empty());
  EXPECT_LE(snapshot->deployment.size(), options.k);
  // The adopted prefix is the solver's pick (the path head), not the
  // patch's lowest-id tie-break — proof the expired result landed.
  EXPECT_TRUE(snapshot->deployment.Contains(5));
}

// Persistent solver failures build a failure streak that backs the
// engine off its re-solves; the synchronous patch keeps every coverable
// flow served throughout; and once the fault burst ends, a probe re-solve
// ends the backoff within the probe interval (the degradation round
// trip).
TEST(EngineFaultTest, DegradationRoundTrip) {
  faults::FaultSpec spec;
  spec.seed = 11;
  spec.at(faults::FaultSite::kGreedyRound).throw_probability = 1.0;
  faults::FaultInjector injector(spec);

  EngineOptions options;
  options.k = 5;
  options.fault_injector = &injector;
  options.max_resolve_retries = 1;
  Engine engine(TestNetwork(43), options);

  const ChurnTrace trace = MakeTrace(engine.index().network(), 4, 53);
  std::vector<FlowTicket> active;
  for (const ChurnEpoch& epoch : trace.epochs) {
    const Engine::BatchResult result =
        engine.SubmitBatch(epoch.arrivals, {});
    active.insert(active.end(), result.tickets.begin(),
                  result.tickets.end());
    // Degraded or not, the patch keeps the published plan feasible.
    EXPECT_TRUE(engine.CurrentSnapshot()->feasible);
  }
  EXPECT_TRUE(engine.backing_off());
  // Two attempts per epoch until the streak reaches the threshold, then
  // no retries: the backoff stops the retry storm.
  EXPECT_EQ(engine.stats().resolve_failures, kBackoffAfterFailures);
  EXPECT_GT(engine.stats().patch_only_epochs, 0u);

  // Fault burst ends; within kProbeIntervalEpochs clean epochs a probe
  // re-solve completes and the backoff ends.
  injector.Disarm();
  for (std::uint64_t i = 0; i < kProbeIntervalEpochs; ++i) {
    engine.SubmitBatch({}, {});
    EXPECT_TRUE(engine.CurrentSnapshot()->feasible);
  }
  EXPECT_FALSE(engine.backing_off());
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.consecutive_failures, 0u);
  EXPECT_GT(stats.resolves_completed, 0u);
}

// Every started attempt lands in exactly one terminal bucket, faults or
// not: injected throws and cancellations are failures, never silently
// dropped attempts.
TEST(EngineFaultTest, ResolveAccountingBalancesUnderFaults) {
  faults::FaultSpec spec;
  spec.seed = 17;
  spec.at(faults::FaultSite::kGreedyRound).throw_probability = 0.2;
  spec.at(faults::FaultSite::kGreedyRound).cancel_probability = 0.2;
  faults::FaultInjector injector(spec);

  EngineOptions options;
  options.k = 4;
  options.fault_injector = &injector;
  Engine engine(TestNetwork(44), options);

  const ChurnTrace trace = MakeTrace(engine.index().network(), 15, 54);
  std::vector<FlowTicket> handles;
  Replay(engine, trace, handles);

  const EngineStats stats = engine.stats();
  // Backoff epochs skip re-solves, so started can be below the epoch
  // count; what must hold is that every started attempt landed in exactly
  // one terminal bucket.
  EXPECT_GT(stats.resolves_started, 0u);
  EXPECT_GT(stats.resolve_failures, 0u);
  EXPECT_EQ(stats.resolves_started, stats.resolves_completed +
                                        stats.resolve_failures +
                                        stats.resolve_timeouts);
  EXPECT_TRUE(engine.CurrentSnapshot()->feasible);
}

// The no-fault invariant stays intact when a disarmed injector is
// installed (the hooks are pure pass-throughs).
TEST(EngineFaultTest, DisarmedInjectorChangesNothing) {
  faults::FaultSpec spec;
  spec.seed = 23;
  spec.at(faults::FaultSite::kGreedyRound).throw_probability = 1.0;
  faults::FaultInjector injector(spec);
  injector.Disarm();

  EngineOptions options;
  options.k = 4;
  options.fault_injector = &injector;
  Engine engine(TestNetwork(45), options);

  const ChurnTrace trace = MakeTrace(engine.index().network(), 6, 55);
  std::vector<FlowTicket> handles;
  Replay(engine, trace, handles);

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.resolve_failures, 0u);
  EXPECT_EQ(stats.index_fault_retries, 0u);
  EXPECT_EQ(stats.resolves_started, stats.resolves_completed);
  EXPECT_FALSE(engine.backing_off());
  EXPECT_TRUE(injector.Events().empty());
}

}  // namespace
}  // namespace tdmd::engine
