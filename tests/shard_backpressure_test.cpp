// Backpressure and load shedding under sustained overload (DESIGN.md
// Section 14.3), plus a multi-producer MpscQueue stress for the
// sanitizer lanes: bounded queues block then shed to deferred-re-solve
// admission, and shedding never loses or double-applies a command —
// every arrival is admitted exactly once, shed or not.
#include "shard/mpsc_queue.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "engine/churn_trace.hpp"
#include "faults/faults.hpp"
#include "shard/sharded_engine.hpp"
#include "test_util.hpp"
#include "topology/generators.hpp"

namespace tdmd::shard {
namespace {

TEST(MpscQueueStressTest, ManyProducersOneConsumerLosesNothing) {
  // 4 producers x 5000 values against one consumer popping as fast as it
  // can.  Every pushed value must arrive exactly once; per-producer
  // subsequences must arrive in push order (the queue is FIFO per
  // producer).  Run under TSan this pins the push/pop release/acquire
  // edges; under ASan the node recycling.
  constexpr std::uint64_t kProducers = 4;
  constexpr std::uint64_t kPerProducer = 5000;
  MpscQueue<std::uint64_t> queue;
  std::atomic<std::uint64_t> started{0};

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (std::uint64_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, &started, p] {
      started.fetch_add(1, std::memory_order_relaxed);
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        queue.Push(p * kPerProducer + i);
      }
    });
  }

  std::vector<std::uint64_t> next_expected(kProducers, 0);
  std::uint64_t received = 0;
  while (received < kProducers * kPerProducer) {
    std::uint64_t value = 0;
    if (!queue.Pop(value)) {
      std::this_thread::yield();
      continue;
    }
    const std::uint64_t producer = value / kPerProducer;
    const std::uint64_t sequence = value % kPerProducer;
    ASSERT_LT(producer, kProducers);
    ASSERT_EQ(sequence, next_expected[producer])
        << "producer " << producer << " reordered";
    ++next_expected[producer];
    ++received;
  }
  for (std::thread& t : producers) t.join();

  EXPECT_TRUE(queue.Empty());
  EXPECT_TRUE(queue.ConsumerIdle());
  EXPECT_EQ(queue.ApproxSize(), 0u);
  for (std::uint64_t p = 0; p < kProducers; ++p) {
    EXPECT_EQ(next_expected[p], kPerProducer);
  }
}

graph::Digraph TestNetwork(std::uint64_t seed) {
  Rng rng(seed);
  return topology::Waxman(24, 0.5, 0.4, rng);
}

TEST(ShardBackpressureTest, OverloadShedsWithoutLosingFlows) {
  // Depth-1 queues, consumers fault-stalled on every batch, submits
  // pipelined with no drain barrier: a sustained producer-faster-than-
  // consumer regime.  The fleet must block at the high-water mark, shed
  // past the deadline, and still admit every arrival exactly once.
  const graph::Digraph g = TestNetwork(103);
  engine::ChurnModel churn;
  churn.arrival_count = 5;
  churn.departure_probability = 0.25;
  const engine::ChurnTrace trace =
      engine::BuildChurnTrace(g, churn, 10, 0, 29);

  ShardedEngineOptions options;
  options.partition.num_shards = 2;
  options.total_budget = 4;
  options.engine.lambda = 0.5;
  options.realloc_interval_epochs = 0;
  options.pin_threads = false;
  options.supervise = true;
  options.queue_depth = 1;
  options.backpressure_deadline = std::chrono::milliseconds(1);
  options.inject_faults = true;
  options.fault_spec.seed = 31;
  faults::SiteSpec& drain =
      options.fault_spec.at(faults::FaultSite::kQueueDrain);
  drain.delay_probability = 1.0;
  drain.delay = std::chrono::milliseconds(4);
  // Aggressive alert so a few fully-shed epochs must raise it.
  options.shed_alert.slack = 0.0;
  options.shed_alert.threshold = 0.25;
  ShardedEngine fleet(g, options);

  std::vector<FlowId64> handles;
  std::size_t submitted = 0;
  for (const engine::ChurnEpoch& epoch : trace.epochs) {
    std::vector<FlowId64> departures;
    departures.reserve(epoch.departures.size());
    for (std::size_t sequence : epoch.departures) {
      departures.push_back(handles[sequence]);
    }
    const ShardedEngine::BatchResult result =
        fleet.SubmitBatch(epoch.arrivals, departures);
    handles.insert(handles.end(), result.flow_ids.begin(),
                   result.flow_ids.end());
    submitted += epoch.arrivals.size() + departures.size();
  }
  fleet.Drain();

  const FleetStats& stats = fleet.stats();
  EXPECT_GE(stats.backpressure_waits, 1u);
  EXPECT_GE(stats.shed_batches, 1u);
  EXPECT_GE(stats.shed_events, 1u);
  EXPECT_LE(stats.shed_events, submitted);
  EXPECT_GE(fleet.shed_alert().raised_total(), 1u);
  EXPECT_EQ(stats.crashes_detected, 0u);  // stalled is not crashed

  // Exactly-once admission: shed batches defer the re-solve, never the
  // flows.  Every live id must be accounted for by exactly one shard.
  const FleetSnapshot snapshot = fleet.Snapshot();
  std::size_t fleet_flows = 0;
  for (const ShardStatus& status : snapshot.shards) {
    fleet_flows += status.active_flows;
    EXPECT_EQ(status.queue_occupancy, 0u);  // drained
  }
  const std::vector<FlowId64> live = test::LiveHandles(handles, trace.epochs);
  EXPECT_EQ(fleet_flows, live.size());
  EXPECT_GT(snapshot.bandwidth, 0.0);

  // The shed flows really are live: departing every one of them must be
  // routable (a lost ticket would trip the owner-shard CHECK).
  const ShardedEngine::BatchResult none = fleet.SubmitBatch({}, live);
  EXPECT_TRUE(none.flow_ids.empty());
  fleet.Drain();
  const FleetSnapshot empty = fleet.Snapshot();
  std::size_t remaining = 0;
  for (const ShardStatus& status : empty.shards) {
    remaining += status.active_flows;
  }
  EXPECT_EQ(remaining, 0u);
}

TEST(ShardBackpressureTest, UnboundedQueuesNeverShed) {
  // queue_depth = 0 disables the whole overload posture even with the
  // same consumer stalls: nothing blocks, nothing sheds.
  const graph::Digraph g = TestNetwork(107);
  engine::ChurnModel churn;
  churn.arrival_count = 4;
  churn.departure_probability = 0.0;
  const engine::ChurnTrace trace =
      engine::BuildChurnTrace(g, churn, 4, 0, 37);

  ShardedEngineOptions options;
  options.partition.num_shards = 2;
  options.total_budget = 4;
  options.engine.lambda = 0.5;
  options.realloc_interval_epochs = 0;
  options.pin_threads = false;
  options.supervise = true;
  options.inject_faults = true;
  options.fault_spec.seed = 41;
  faults::SiteSpec& drain =
      options.fault_spec.at(faults::FaultSite::kQueueDrain);
  drain.delay_probability = 1.0;
  drain.delay = std::chrono::milliseconds(2);
  ShardedEngine fleet(g, options);

  for (const engine::ChurnEpoch& epoch : trace.epochs) {
    fleet.SubmitBatch(epoch.arrivals, {});
  }
  fleet.Drain();
  EXPECT_EQ(fleet.stats().backpressure_waits, 0u);
  EXPECT_EQ(fleet.stats().shed_batches, 0u);
  EXPECT_EQ(fleet.stats().shed_events, 0u);
  EXPECT_EQ(fleet.shed_alert().raised_total(), 0u);
}

}  // namespace
}  // namespace tdmd::shard
