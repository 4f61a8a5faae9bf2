// Sanity-checks the MemoryFootprint() capacity accounting against the
// allocator itself: a counting global operator new/delete (glibc
// malloc_usable_size) tracks live heap bytes, and the footprint reported
// by FlowCoverageIndex must land within 25% of the measured delta of
// building one.  Also covers the MpscQueue node accounting, the
// tdmd_mem_* / tdmd_build_info / tdmd_profile_* gauges in the engine's
// Prometheus exposition, and the allocation counts of the paths that must
// not allocate per flow: known-path index deltas, checkpoint capture,
// fleet admission and fleet snapshots.  The counters are global, so they
// count every thread.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/contracts.hpp"
#include "engine/checkpoint.hpp"
#include "engine/coverage_index.hpp"
#include "engine/engine.hpp"
#include "obs/metrics.hpp"
#include "shard/mpsc_queue.hpp"
#include "shard/sharded_engine.hpp"
#include "test_util.hpp"
#include "topology/generators.hpp"

#if defined(__GLIBC__)
#include <malloc.h>
#define TDMD_HAVE_USABLE_SIZE 1
#else
#define TDMD_HAVE_USABLE_SIZE 0
#endif

namespace {

// Live heap bytes as the allocator sees them (usable chunk sizes, so
// malloc's bin rounding is included on both sides of a delta), and the
// number of allocations made.
std::atomic<std::size_t> g_live_bytes{0};
std::atomic<std::size_t> g_allocations{0};

std::size_t UsableSize(void* ptr) {
#if TDMD_HAVE_USABLE_SIZE
  return malloc_usable_size(ptr);
#else
  (void)ptr;
  return 0;
#endif
}

void* CountedAlloc(std::size_t size) {
  void* ptr = std::malloc(size);
  if (ptr == nullptr) throw std::bad_alloc();
  g_live_bytes.fetch_add(UsableSize(ptr), std::memory_order_relaxed);
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return ptr;
}

void CountedFree(void* ptr) noexcept {
  if (ptr == nullptr) return;
  g_live_bytes.fetch_sub(UsableSize(ptr), std::memory_order_relaxed);
  std::free(ptr);
}

}  // namespace

// Replaceable global allocation functions.  Alignment note: the repo's
// hot structures carry no over-aligned members, so plain malloc (16-byte
// aligned on glibc) satisfies every request this binary makes; the
// aligned overloads still CHECK the assumption.
void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  if (static_cast<std::size_t>(align) > alignof(std::max_align_t)) {
    std::abort();  // would silently under-align; no caller should hit this
  }
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}
void operator delete(void* ptr) noexcept { CountedFree(ptr); }
void operator delete[](void* ptr) noexcept { CountedFree(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { CountedFree(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { CountedFree(ptr); }
void operator delete(void* ptr, std::align_val_t) noexcept {
  CountedFree(ptr);
}
void operator delete[](void* ptr, std::align_val_t) noexcept {
  CountedFree(ptr);
}
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept {
  CountedFree(ptr);
}
void operator delete[](void* ptr, std::size_t, std::align_val_t) noexcept {
  CountedFree(ptr);
}

namespace tdmd::engine {
namespace {

TEST(ObsMemFootprint, CoverageIndexWithin25PercentOfAllocatorDelta) {
#if !TDMD_HAVE_USABLE_SIZE
  GTEST_SKIP() << "malloc_usable_size unavailable; cannot measure deltas";
#endif
  // Build the inputs before measuring so only the index's own ownership
  // (including its copy of the network) lands inside the delta.
  Rng rng(7);
  const core::Instance instance =
      test::MakeRandomGeneralCase(120, 0.5, 4000, rng);

  const std::size_t before = g_live_bytes.load(std::memory_order_relaxed);
  auto index = std::make_unique<FlowCoverageIndex>(
      graph::Digraph(instance.network()), instance.lambda());
  for (const traffic::Flow& flow : instance.flows()) {
    (void)index->AddFlow(flow);
  }
  const std::size_t after = g_live_bytes.load(std::memory_order_relaxed);
  ASSERT_GT(after, before);
  const std::size_t delta = after - before - sizeof(FlowCoverageIndex);

  const std::size_t footprint = index->MemoryFootprint();
  ASSERT_GT(footprint, 0u);
  // |footprint - delta| <= 25% of delta, per the tdmd_mem_* contract
  // (DESIGN.md 16.2).  The footprint undercounts allocator chunk
  // headers and overcounts nothing, so it normally sits just below.
  EXPECT_GE(footprint * 4, delta * 3)
      << "footprint " << footprint << " vs allocator delta " << delta;
  EXPECT_LE(footprint * 4, delta * 5)
      << "footprint " << footprint << " vs allocator delta " << delta;

  // Removing every flow must not grow the accounted capacity, and the
  // allocator must agree the index still owns everything it reports.
  index.reset();
  const std::size_t freed = g_live_bytes.load(std::memory_order_relaxed);
  EXPECT_LE(freed, before + 1024)  // transient STL scratch tolerance
      << "index destruction leaked " << (freed - before) << " bytes";
}

// An arrival on a path whose class is live, and a departure that leaves
// its class non-empty, touch only the slot and the class record: once the
// slot table and free stack have grown, neither allocates.
TEST(ObsMemFootprint, KnownPathArrivalsAndDeparturesAllocateNothing) {
  Rng rng(13);
  const core::Instance instance =
      test::MakeRandomGeneralCase(40, 0.5, 300, rng);
  const traffic::FlowSet& flows = instance.flows();
  FlowCoverageIndex index(graph::Digraph(instance.network()),
                          instance.lambda());
  // Warm-up: every flow twice, so each class keeps a flow while the first
  // copies churn, then one departure/arrival round to size the free stack.
  std::vector<FlowTicket> first;
  for (const traffic::Flow& flow : flows) first.push_back(index.AddFlow(flow));
  for (const traffic::Flow& flow : flows) (void)index.AddFlow(flow);
  for (FlowTicket ticket : first) ASSERT_TRUE(index.RemoveFlow(ticket));
  for (std::size_t i = 0; i < flows.size(); ++i) {
    first[i] = index.AddFlow(flows[i]);
  }

  const std::size_t classes = index.num_path_classes();
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (FlowTicket ticket : first) (void)index.RemoveFlow(ticket);
  const std::size_t after_departures =
      g_allocations.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    first[i] = index.AddFlow(flows[i]);
  }
  const std::size_t after_arrivals =
      g_allocations.load(std::memory_order_relaxed);

  EXPECT_EQ(after_departures, before)
      << "departures leaving their class non-empty allocated";
  EXPECT_EQ(after_arrivals, after_departures)
      << "arrivals on known paths allocated";
  EXPECT_EQ(index.num_path_classes(), classes);
  EXPECT_EQ(index.active_flows(), 2 * flows.size());
}

// Engine::Checkpoint keys its flows by path class: each live path is
// copied once and each flow is one fixed-size record, so capturing 8x the
// flows over the same paths makes exactly as many allocations.
TEST(ObsMemFootprint, CheckpointAllocationsDoNotGrowWithFlowsPerPath) {
  Rng rng(17);
  const core::Instance instance =
      test::MakeRandomGeneralCase(40, 0.5, 1000, rng);
  const auto checkpoint_allocations = [&](std::size_t copies) {
    traffic::FlowSet flows;
    for (std::size_t c = 0; c < copies; ++c) {
      flows.insert(flows.end(), instance.flows().begin(),
                   instance.flows().end());
    }
    EngineOptions options;
    options.k = 6;
    Engine eng(instance.network(), options);
    (void)eng.SubmitBatch(flows, {});
    const std::size_t before = g_allocations.load(std::memory_order_relaxed);
    const EngineCheckpoint checkpoint = eng.Checkpoint();
    const std::size_t after = g_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(checkpoint.flows.records.size(), flows.size());
    return after - before;
  };
  EXPECT_EQ(checkpoint_allocations(1), checkpoint_allocations(8));
}

// A supervised fleet routes each shard's arrivals as one flat batch, which
// the redo ring shares; the id tables and the engines' indexes allocate
// nothing per known-path event once grown, and a supervisor capture
// copies per class and per table, not per flow.  So under steady churn,
// where each batch departs what the previous one admitted, batches of 16
// copies of a flow set make exactly as many allocations as batches of 2,
// captures included.  Re-solves are deferred and reallocation is off, so
// per-batch work stays per batch.
TEST(ObsMemFootprint, SupervisedFleetBatchAllocationsDoNotGrowWithArrivals) {
#if TDMD_AUDITS_ENABLED
  GTEST_SKIP() << "audit builds rebuild the instance at every publish";
#endif
  Rng rng(19);
  const core::Instance instance =
      test::MakeRandomGeneralCase(40, 0.5, 400, rng);
  const auto churn_allocations = [&](std::size_t copies) {
    // Fleet ids advance by an even count per copy and per batch, so every
    // copy of a two-shard path has the same owner in every batch.
    traffic::FlowSet flows;
    for (std::size_t c = 0; c < copies; ++c) {
      flows.insert(flows.end(), instance.flows().begin(),
                   instance.flows().end());
    }
    shard::ShardedEngineOptions options;
    options.partition.num_shards = 2;
    options.total_budget = 16;
    options.engine.lambda = instance.lambda();
    options.engine.resolve_churn_fraction = 1e9;
    options.realloc_interval_epochs = 0;
    options.supervisor_checkpoint_interval_epochs = 4;
    options.pin_threads = false;
    options.supervise = true;
    shard::ShardedEngine fleet(instance.network(), options);
    std::vector<shard::FlowId64> live;
    const auto churn = [&](std::size_t batches) {
      for (std::size_t b = 0; b < batches; ++b) {
        live = fleet.SubmitBatch(flows, live).flow_ids;
      }
      fleet.Drain();
    };
    // Warm-up: every class goes live on its owner shard, and every table,
    // free stack and visit list grows to its steady size.
    churn(4);
    const std::uint64_t captures = fleet.stats().supervisor_checkpoints;
    const std::size_t before = g_allocations.load(std::memory_order_relaxed);
    churn(8);
    const std::size_t after = g_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(fleet.stats().supervisor_checkpoints, captures + 4);
    return after - before;
  };
  EXPECT_EQ(churn_allocations(2), churn_allocations(16));
}

// ShardedEngine::Snapshot evaluates the union deployment over each shard's
// path classes, and Metrics is a Snapshot plus the exposition, so a fleet
// holding 8x the flows over the same live classes makes exactly as many
// allocations in either.
TEST(ObsMemFootprint, FleetSnapshotAllocationsDoNotGrowWithFlowsPerPath) {
#if TDMD_AUDITS_ENABLED
  GTEST_SKIP() << "audit builds rebuild the instance in every solve";
#endif
  Rng rng(23);
  const core::Instance instance =
      test::MakeRandomGeneralCase(40, 0.5, 400, rng);
  struct Counts {
    std::size_t snapshot = 0;
    std::size_t metrics = 0;
  };
  const auto scrape_allocations = [&](std::size_t copies) {
    // A two-shard path's owner follows the fleet id's parity, so from two
    // copies on every class is live on the same owner shards.
    traffic::FlowSet flows;
    for (std::size_t c = 0; c < copies; ++c) {
      flows.insert(flows.end(), instance.flows().begin(),
                   instance.flows().end());
    }
    shard::ShardedEngineOptions options;
    options.partition.num_shards = 2;
    options.total_budget = 12;
    options.engine.lambda = instance.lambda();
    options.pin_threads = false;
    options.supervise = true;
    shard::ShardedEngine fleet(instance.network(), options);
    (void)fleet.SubmitBatch(flows, {});
    fleet.Drain();

    Counts counts;
    std::size_t before = g_allocations.load(std::memory_order_relaxed);
    const shard::FleetSnapshot snapshot = fleet.Snapshot();
    counts.snapshot = g_allocations.load(std::memory_order_relaxed) - before;
    EXPECT_TRUE(snapshot.feasible);
    before = g_allocations.load(std::memory_order_relaxed);
    (void)fleet.Metrics();
    counts.metrics = g_allocations.load(std::memory_order_relaxed) - before;
    return counts;
  };
  const Counts base = scrape_allocations(2);
  const Counts scaled = scrape_allocations(16);
  EXPECT_EQ(base.snapshot, scaled.snapshot);
  EXPECT_EQ(base.metrics, scaled.metrics);
}

TEST(ObsMemFootprint, MpscQueueFootprintTracksOccupancy) {
  shard::MpscQueue<std::uint64_t> queue;
  EXPECT_EQ(queue.MemoryFootprint(), 0u);
  constexpr std::size_t kPushes = 100;
  for (std::uint64_t i = 0; i < kPushes; ++i) queue.Push(i);
  // One node allocation per queued command.
  EXPECT_GE(queue.MemoryFootprint(),
            kPushes * (sizeof(std::uint64_t) + sizeof(void*)));
  EXPECT_EQ(queue.MemoryFootprint() % kPushes, 0u);
  std::uint64_t out = 0;
  std::size_t popped = 0;
  while (queue.Pop(out)) ++popped;
  EXPECT_EQ(popped, kPushes);
  EXPECT_EQ(queue.MemoryFootprint(), 0u);
}

TEST(ObsMemFootprint, EngineExposesMemoryBuildInfoAndProfilerGauges) {
  Rng rng(11);
  const core::Instance instance =
      test::MakeRandomGeneralCase(40, 0.5, 300, rng);
  EngineOptions options;
  options.k = 6;
  Engine eng(instance.network(), options);
  (void)eng.SubmitBatch(instance.flows(), {});

  const EngineMemoryStats stats = eng.MemoryUsage();
  EXPECT_GT(stats.index_bytes, 0u);
  EXPECT_GT(stats.snapshot_bytes, 0u);
  EXPECT_EQ(stats.active_flows, instance.flows().size());

  std::ostringstream os;
  eng.DumpMetrics(os, obs::MetricsFormat::kPrometheus);
  const std::string exposition = os.str();
  for (const char* needle :
       {"tdmd_mem_index_bytes", "tdmd_mem_snapshot_bytes",
        "tdmd_mem_active_flows", "tdmd_mem_bytes_per_flow",
        "tdmd_build_info{", "tdmd_profile_samples_total",
        "tdmd_profile_dropped_total"}) {
    EXPECT_NE(exposition.find(needle), std::string::npos)
        << "exposition lacks " << needle;
  }
}

}  // namespace
}  // namespace tdmd::engine
