// Checkpoint/restore (DESIGN.md Section 9.4): text round trip of the
// `engine-checkpoint v2` record, byte-identical crash recovery, restore
// of records in the retired v1 format, and strict rejection of
// corrupted records.
#include "engine/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "checkpoint_compare.hpp"
#include "engine/churn_trace.hpp"
#include "engine/engine.hpp"
#include "faults/faults.hpp"
#include "io/text_format.hpp"
#include "test_util.hpp"
#include "topology/generators.hpp"
#include "v1_checkpoint_fixtures.hpp"

namespace tdmd::engine {
namespace {

graph::Digraph TestNetwork(std::uint64_t seed, VertexId n = 20) {
  Rng rng(seed);
  return topology::Waxman(n, 0.5, 0.4, rng);
}

ChurnTrace MakeTrace(const graph::Digraph& network, std::size_t epochs,
                     std::uint64_t seed) {
  ChurnModel churn;
  churn.arrival_count = 6;
  churn.departure_probability = 0.3;
  Rng rng(seed);
  return BuildChurnTrace(network, churn, epochs, 0, rng);
}

/// Replays epochs [from, to) of `trace`, appending each batch's tickets
/// to `handles` (indexed by arrival sequence; it persists across engines
/// — the whole point of ticket-exact restore).
void ReplayRange(Engine& engine, const ChurnTrace& trace, std::size_t from,
                 std::size_t to, std::vector<FlowTicket>& handles) {
  for (std::size_t e = from; e < to; ++e) {
    const ChurnEpoch& epoch = trace.epochs[e];
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

std::string Serialize(const EngineCheckpoint& checkpoint,
                      bool include_histograms = true) {
  std::ostringstream oss;
  io::EngineCheckpointWriteOptions options;
  options.include_histograms = include_histograms;
  io::WriteEngineCheckpoint(oss, checkpoint, options);
  return oss.str();
}

using test::SerializeDeterministic;

EngineOptions SyncOptions() {
  EngineOptions options;
  options.k = 5;
  return options;
}

TEST(EngineCheckpointTest, TextRoundTripIsByteExact) {
  Engine engine(TestNetwork(61), SyncOptions());
  const ChurnTrace trace = MakeTrace(engine.index().network(), 8, 71);
  std::vector<FlowTicket> handles;
  ReplayRange(engine, trace, 0, trace.epochs.size(), handles);

  const EngineCheckpoint checkpoint = engine.Checkpoint();
  const std::string text = Serialize(checkpoint);
  std::istringstream iss(text);
  const io::Parsed<EngineCheckpoint> parsed = io::ReadEngineCheckpoint(iss);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  // Re-serializing the parsed record reproduces the original bytes —
  // in particular the hexfloat bandwidth survives bit-exactly.
  EXPECT_EQ(Serialize(*parsed.value), text);
  EXPECT_EQ(parsed.value->maintained_bandwidth,
            checkpoint.maintained_bandwidth);
  EXPECT_EQ(parsed.value->stats.consecutive_failures,
            checkpoint.stats.consecutive_failures);
}

// The ISSUE acceptance test: run N epochs; separately run N/2 epochs,
// checkpoint through the text format (simulating a crash + cold restart),
// restore into a fresh engine and replay the rest.  Final checkpoints —
// deployment, maintained objective, tickets, free-slot stack, counters,
// snapshot version — must be byte-identical.
TEST(EngineCheckpointTest, CrashRecoveryReplaysByteIdentically) {
  const graph::Digraph network = TestNetwork(62);
  const ChurnTrace trace = MakeTrace(network, 12, 72);
  const std::size_t half = trace.epochs.size() / 2;

  // Uninterrupted reference run.
  Engine reference(network, SyncOptions());
  std::vector<FlowTicket> reference_handles;
  ReplayRange(reference, trace, 0, trace.epochs.size(), reference_handles);

  // Crashed run: first half, checkpoint to text, restore, second half.
  std::string checkpoint_text;
  std::vector<FlowTicket> handles;
  {
    Engine first_half(network, SyncOptions());
    ReplayRange(first_half, trace, 0, half, handles);
    checkpoint_text = Serialize(first_half.Checkpoint());
  }  // first engine is gone — the text record is all that survives

  std::istringstream iss(checkpoint_text);
  const io::Parsed<EngineCheckpoint> parsed = io::ReadEngineCheckpoint(iss);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  Engine restored(network, SyncOptions());
  restored.Restore(*parsed.value);
  ReplayRange(restored, trace, half, trace.epochs.size(), handles);

  // Byte-compare without the histogram section: latency samples are wall
  // times, not replayed state.  Sample *counts* are deterministic, though
  // — the restored run must keep accumulating where the first half left
  // off instead of restarting from empty.
  const EngineCheckpoint restored_cp = restored.Checkpoint();
  const EngineCheckpoint reference_cp = reference.Checkpoint();
  EXPECT_EQ(SerializeDeterministic(restored_cp),
            SerializeDeterministic(reference_cp));
  EXPECT_EQ(restored_cp.patch_histogram.count,
            reference_cp.patch_histogram.count);
  EXPECT_EQ(restored_cp.resolve_histogram.count,
            reference_cp.resolve_histogram.count);
  EXPECT_EQ(restored_cp.index_delta_histogram.count,
            reference_cp.index_delta_histogram.count);
  EXPECT_EQ(restored_cp.greedy_round_histogram.count,
            reference_cp.greedy_round_histogram.count);
  // Client-held tickets drawn after the restore match the uninterrupted
  // run's tickets (the free-slot stack round-tripped).
  EXPECT_EQ(handles, reference_handles);
  const auto restored_snapshot = restored.CurrentSnapshot();
  const auto reference_snapshot = reference.CurrentSnapshot();
  EXPECT_EQ(restored_snapshot->version, reference_snapshot->version);
  EXPECT_EQ(restored_snapshot->deployment.ToString(),
            reference_snapshot->deployment.ToString());
  EXPECT_EQ(restored_snapshot->bandwidth, reference_snapshot->bandwidth);
}

TEST(EngineCheckpointTest, RestoredEngineKeepsServingUnderChurn) {
  const graph::Digraph network = TestNetwork(63);
  const ChurnTrace trace = MakeTrace(network, 10, 73);
  std::vector<FlowTicket> handles;
  Engine engine(network, SyncOptions());
  ReplayRange(engine, trace, 0, 5, handles);
  const EngineCheckpoint checkpoint = engine.Checkpoint();

  Engine restored(network, SyncOptions());
  restored.Restore(checkpoint);
  ReplayRange(restored, trace, 5, trace.epochs.size(), handles);
  EXPECT_TRUE(restored.CurrentSnapshot()->feasible);
  EXPECT_LE(restored.CurrentSnapshot()->deployment.size(),
            SyncOptions().k);
  EXPECT_EQ(restored.index().active_flows(),
            test::LiveHandles(handles, trace.epochs).size());
}

TEST(EngineCheckpointTest, HistogramSectionRoundTrips) {
  Engine engine(TestNetwork(65), SyncOptions());
  const ChurnTrace trace = MakeTrace(engine.index().network(), 6, 75);
  std::vector<FlowTicket> handles;
  ReplayRange(engine, trace, 0, trace.epochs.size(), handles);

  const EngineCheckpoint checkpoint = engine.Checkpoint();
  // A synchronous engine records one patch and one index-delta sample per
  // epoch, so the section is exercised with real data.
  ASSERT_EQ(checkpoint.patch_histogram.count, trace.epochs.size());
  ASSERT_EQ(checkpoint.index_delta_histogram.count, trace.epochs.size());

  std::istringstream iss(Serialize(checkpoint));
  const io::Parsed<EngineCheckpoint> parsed = io::ReadEngineCheckpoint(iss);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(parsed.value->patch_histogram.count,
            checkpoint.patch_histogram.count);
  EXPECT_EQ(parsed.value->patch_histogram.sum,
            checkpoint.patch_histogram.sum);
  EXPECT_EQ(parsed.value->patch_histogram.buckets,
            checkpoint.patch_histogram.buckets);
  EXPECT_EQ(parsed.value->resolve_histogram.buckets,
            checkpoint.resolve_histogram.buckets);
  EXPECT_EQ(parsed.value->index_delta_histogram.buckets,
            checkpoint.index_delta_histogram.buckets);
  EXPECT_EQ(parsed.value->greedy_round_histogram.buckets,
            checkpoint.greedy_round_histogram.buckets);
}

TEST(EngineCheckpointTest, RecordWithoutHistogramSectionStillParses) {
  Engine engine(TestNetwork(66), SyncOptions());
  const ChurnTrace trace = MakeTrace(engine.index().network(), 4, 76);
  std::vector<FlowTicket> handles;
  ReplayRange(engine, trace, 0, trace.epochs.size(), handles);

  // A record written before the section existed (or with the section
  // omitted) restores with empty histograms rather than failing.
  std::istringstream iss(Serialize(engine.Checkpoint(), false));
  const io::Parsed<EngineCheckpoint> parsed = io::ReadEngineCheckpoint(iss);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(parsed.value->patch_histogram.count, 0u);
  EXPECT_EQ(parsed.value->resolve_histogram.count, 0u);
  EXPECT_TRUE(parsed.value->patch_histogram.buckets.empty());

  Engine restored(engine.index().network(), SyncOptions());
  restored.Restore(*parsed.value);
  EXPECT_EQ(restored.histograms().patch_ns.count(), 0u);
}

TEST(EngineCheckpointTest, CorruptHistogramSectionsAreRejected) {
  Engine engine(TestNetwork(67), SyncOptions());
  const ChurnTrace trace = MakeTrace(engine.index().network(), 4, 77);
  std::vector<FlowTicket> handles;
  ReplayRange(engine, trace, 0, trace.epochs.size(), handles);
  const std::string good = Serialize(engine.Checkpoint());
  ASSERT_NE(good.find("histograms 4"), std::string::npos);

  const auto reject = [](const std::string& text, const std::string& what) {
    std::istringstream iss(text);
    const io::Parsed<EngineCheckpoint> parsed =
        io::ReadEngineCheckpoint(iss);
    EXPECT_FALSE(parsed.ok()) << what;
    EXPECT_FALSE(parsed.error.empty()) << what;
    EXPECT_FALSE(parsed.value.has_value()) << what;
  };
  const auto mutate = [&good](const std::string& from,
                              const std::string& to) {
    std::string text = good;
    const std::size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    text.replace(at, from.size(), to);
    return text;
  };

  reject(mutate("histograms 4", "histograms 3"), "wrong section count");
  reject(mutate("histogram patch", "histogram punch"),
         "unknown histogram name");
  reject(mutate("histogram resolve", "histogram patch"),
         "histograms out of order");
  // Claiming one more bucket than is present makes the parser consume the
  // next histogram header as a bucket line.
  const std::string patch_line = "histogram patch ";
  const std::size_t header = good.find(patch_line);
  ASSERT_NE(header, std::string::npos);
  const std::size_t line_end = good.find('\n', header);
  std::string inflated = good;
  inflated.replace(
      header, line_end - header,
      "histogram patch 1 50 50 50 2\nbucket 44 1");
  reject(inflated, "bucket count mismatch");
  // Structural corruption inside a histogram: an out-of-range index and a
  // total that disagrees with the advertised sample count.
  reject(mutate("histogram patch ",
                "histogram patch 1 50 50 50 1\nbucket 9999 1\n"
                "histogram patch "),
         "bucket index out of range");
  reject(mutate("histogram patch ",
                "histogram patch 2 50 50 50 1\nbucket 44 1\n"
                "histogram patch "),
         "bucket totals disagree with count");
}

TEST(EngineCheckpointTest, QualitySectionRoundTrips) {
  Engine engine(TestNetwork(68), SyncOptions());
  const ChurnTrace trace = MakeTrace(engine.index().network(), 6, 78);
  std::vector<FlowTicket> handles;
  ReplayRange(engine, trace, 0, trace.epochs.size(), handles);

  const EngineCheckpoint checkpoint = engine.Checkpoint();
  ASSERT_TRUE(checkpoint.has_quality);
  ASSERT_FALSE(checkpoint.quality.samples.empty());

  std::istringstream iss(Serialize(checkpoint));
  const io::Parsed<EngineCheckpoint> parsed = io::ReadEngineCheckpoint(iss);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  ASSERT_TRUE(parsed.value->has_quality);
  ASSERT_EQ(parsed.value->quality.samples.size(),
            checkpoint.quality.samples.size());
  for (std::size_t i = 0; i < checkpoint.quality.samples.size(); ++i) {
    const obs::QualitySample& want = checkpoint.quality.samples[i];
    const obs::QualitySample& got = parsed.value->quality.samples[i];
    EXPECT_EQ(got.epoch, want.epoch);
    // Primaries are hexfloats, so the derived fields the reader recomputes
    // land on identical bits.
    EXPECT_EQ(got.bandwidth, want.bandwidth);
    EXPECT_EQ(got.opt_bound, want.opt_bound);
    EXPECT_EQ(got.realized_ratio, want.realized_ratio);
    EXPECT_EQ(got.decrement, want.decrement);
  }
  EXPECT_EQ(parsed.value->quality.samples_total,
            checkpoint.quality.samples_total);
  EXPECT_EQ(parsed.value->quality_tracker.cert_valid,
            checkpoint.quality_tracker.cert_valid);
  EXPECT_EQ(parsed.value->quality_tracker.cert_bound,
            checkpoint.quality_tracker.cert_bound);
  EXPECT_EQ(parsed.value->quality_attribution.size(),
            checkpoint.quality_attribution.size());
}

// The crash-recovery drill again, but asserting the quality timeline
// itself: the restored run's final quality section must be byte-identical
// to the uninterrupted run's (ISSUE acceptance).
TEST(EngineCheckpointTest, QualityTimelineRestoresByteIdentically) {
  const graph::Digraph network = TestNetwork(69);
  const ChurnTrace trace = MakeTrace(network, 12, 79);
  const std::size_t half = trace.epochs.size() / 2;

  Engine reference(network, SyncOptions());
  std::vector<FlowTicket> reference_handles;
  ReplayRange(reference, trace, 0, trace.epochs.size(), reference_handles);

  std::string checkpoint_text;
  std::vector<FlowTicket> handles;
  {
    Engine first_half(network, SyncOptions());
    ReplayRange(first_half, trace, 0, half, handles);
    checkpoint_text = Serialize(first_half.Checkpoint());
  }
  std::istringstream iss(checkpoint_text);
  const io::Parsed<EngineCheckpoint> parsed = io::ReadEngineCheckpoint(iss);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  Engine restored(network, SyncOptions());
  restored.Restore(*parsed.value);
  ReplayRange(restored, trace, half, trace.epochs.size(), handles);

  // Histograms carry wall times; everything else — including the quality
  // section with its detector accumulators — must match byte for byte.
  EXPECT_EQ(SerializeDeterministic(restored.Checkpoint()),
            SerializeDeterministic(reference.Checkpoint()));
}

TEST(EngineCheckpointTest, RecordWithoutQualitySectionStaysCompatible) {
  Engine engine(TestNetwork(70), SyncOptions());
  const ChurnTrace trace = MakeTrace(engine.index().network(), 4, 80);
  std::vector<FlowTicket> handles;
  ReplayRange(engine, trace, 0, trace.epochs.size(), handles);
  EngineCheckpoint checkpoint = engine.Checkpoint();

  // A record without the quality section is the pre-quality byte stream.
  checkpoint.has_quality = false;
  const std::string text = Serialize(checkpoint);
  EXPECT_EQ(text.find("quality"), std::string::npos);
  std::istringstream iss(text);
  const io::Parsed<EngineCheckpoint> parsed = io::ReadEngineCheckpoint(iss);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_FALSE(parsed.value->has_quality);
  EXPECT_TRUE(parsed.value->quality.samples.empty());

  // Restoring a quality-free record resets the timeline instead of
  // CHECK-failing.
  Engine restored(engine.index().network(), SyncOptions());
  restored.Restore(*parsed.value);
  EXPECT_EQ(restored.QualityTimeline().samples_total, 0u);

  // An engine with sampling disabled never writes the section either.
  EngineOptions no_quality = SyncOptions();
  no_quality.quality_sampling = false;
  Engine plain(engine.index().network(), no_quality);
  EXPECT_FALSE(plain.Checkpoint().has_quality);
  EXPECT_EQ(Serialize(plain.Checkpoint()).find("quality"),
            std::string::npos);
}

TEST(EngineCheckpointTest, CorruptQualitySectionsAreRejected) {
  Engine engine(TestNetwork(71), SyncOptions());
  const ChurnTrace trace = MakeTrace(engine.index().network(), 5, 81);
  std::vector<FlowTicket> handles;
  ReplayRange(engine, trace, 0, trace.epochs.size(), handles);
  const std::string good = Serialize(engine.Checkpoint());
  ASSERT_NE(good.find("quality v2"), std::string::npos);

  const auto reject = [](const std::string& text, const std::string& what) {
    std::istringstream iss(text);
    const io::Parsed<EngineCheckpoint> parsed =
        io::ReadEngineCheckpoint(iss);
    EXPECT_FALSE(parsed.ok()) << what;
    EXPECT_FALSE(parsed.error.empty()) << what;
    EXPECT_FALSE(parsed.value.has_value()) << what;
  };
  const auto mutate = [&good](const std::string& from,
                              const std::string& to) {
    std::string text = good;
    const std::size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    text.replace(at, from.size(), to);
    return text;
  };

  // Each mutation prepends a corrupt line of the same record type, so the
  // strict reader trips on it regardless of the genuine line's values.
  reject(mutate("quality v2", "quality v3"), "unknown section version");
  reject(mutate("quality v2", "quality v1"), "section older than record");
  reject(mutate("qbound ", "qbound 7 0x0p+0\nqbound "),
         "qbound flag out of range");
  reject(mutate("qbound ", "qbound 1 nan\nqbound "), "non-finite bound");
  reject(mutate("qdetector ", "qdetector nan 0 0x0p+0 0 0 0 0\nqdetector "),
         "non-finite detector accumulator");
  reject(mutate("qsamples ", "qsamples 99999\nqsamples "),
         "sample count beyond lifetime total");
  reject(mutate("qalerts ", "qalerts 1\nqalert 9 1 1 0x0p+0 0x0p+0\nqalerts "),
         "alert kind out of range");
  reject(good.substr(0, good.find("end quality")), "missing terminator");
  // The first qsample's feasible flag (token 3) forced out of range.
  const std::size_t sample_at = good.find("qsample ");
  ASSERT_NE(sample_at, std::string::npos);
  // qsample <epoch> <version> <feasible> ... — patch the third number to
  // 9.  (Spliced with substr: std::string::replace here trips GCC 12's
  // -Wrestrict false positive at -O2.)
  std::size_t field = sample_at + std::string("qsample ").size();
  for (int skip = 0; skip < 2; ++skip) {
    field = good.find(' ', field) + 1;
  }
  const std::size_t field_end = good.find(' ', field);
  const std::string bad_feasible =
      good.substr(0, field) + "9" + good.substr(field_end);
  reject(bad_feasible, "feasible flag out of range");
}

TEST(EngineCheckpointTest, CorruptRecordsAreRejectedWithLineNumbers) {
  Engine engine(TestNetwork(64), SyncOptions());
  const ChurnTrace trace = MakeTrace(engine.index().network(), 4, 74);
  std::vector<FlowTicket> handles;
  ReplayRange(engine, trace, 0, trace.epochs.size(), handles);
  const std::string good = Serialize(engine.Checkpoint());

  const auto reject = [](const std::string& text) {
    std::istringstream iss(text);
    const io::Parsed<EngineCheckpoint> parsed =
        io::ReadEngineCheckpoint(iss);
    EXPECT_FALSE(parsed.ok()) << "accepted corrupt record:\n" << text;
    EXPECT_FALSE(parsed.error.empty());
    EXPECT_FALSE(parsed.value.has_value());  // never a partial object
  };

  // Truncation: drop the terminator (and anything after the flows line).
  reject(good.substr(0, good.find("end engine-checkpoint")));
  // Misspelled key: key/order binding is strict.
  std::string bad_key = good;
  bad_key.replace(bad_key.find("epochs-since-probe"), 18,
                  "epochs-since-prove");
  reject(bad_key);
  // Counter renamed: order/name binding is strict.
  std::string bad_counter = good;
  bad_counter.replace(bad_counter.find("counter epochs"), 14,
                      "counter epoches");
  reject(bad_counter);
  // Trailing garbage after the terminator.
  reject(good + "counter epochs 1\n");
  // Unknown version.
  reject("engine-checkpoint v3\n" +
         good.substr(good.find('\n') + 1));
}

TEST(EngineCheckpointTest, RejectsOutOfRangeValues) {
  const auto reject = [](const std::string& text,
                         const std::string& what) {
    std::istringstream iss(text);
    const io::Parsed<EngineCheckpoint> parsed =
        io::ReadEngineCheckpoint(iss);
    EXPECT_FALSE(parsed.ok()) << what;
    EXPECT_FALSE(parsed.value.has_value());
  };
  // A minimal well-formed prefix helper.
  const auto record = [](const std::string& lambda,
                         const std::string& tail) {
    std::string text = "engine-checkpoint v2\n"
                       "epoch 1\n"
                       "snapshot-version 2\n"
                       "epochs-since-probe 0\n"
                       "pending-churn 0\n"
                       "k 3\n";
    text += "lambda " + lambda + "\n";
    text += tail;
    return text;
  };
  reject(record("nan", ""), "NaN lambda");
  reject(record("1.5", ""), "lambda above 1");
  reject(record("-0.25", ""), "negative lambda");
  reject(record("0.5", "num-vertices 99999999999\n"),
         "num-vertices overflowing VertexId");
  reject(record("0.5", "num-vertices -4\n"), "negative num-vertices");
}

// A record in the retired v1 format, as the v1 writer emitted it,
// restores to the same state as the v2 record of the same run, and
// replaying the rest of the trace from either is byte-identical.  The
// fixture carries everything v2 retired: the mode line, the duplicate
// failure-streak line, five retired counters and qsample mode tokens.
TEST(EngineCheckpointTest, RestoresV1Record) {
  const graph::Digraph network = TestNetwork(91, 12);
  const ChurnTrace trace = MakeTrace(network, 8, 92);
  const std::size_t half = 4;

  // The fixture's run: re-solves fail under injected throws until the
  // engine backs off.
  faults::FaultSpec spec;
  spec.seed = 93;
  spec.at(faults::FaultSite::kGreedyRound).throw_probability = 0.7;
  faults::FaultInjector injector(spec);
  EngineOptions faulted = SyncOptions();
  faulted.fault_injector = &injector;
  Engine live(network, faulted);
  std::vector<FlowTicket> handles;
  ReplayRange(live, trace, 0, half, handles);
  ASSERT_TRUE(live.backing_off());
  const EngineCheckpoint v2 = live.Checkpoint();

  std::istringstream iss(test::kEngineCheckpointV1);
  const io::Parsed<EngineCheckpoint> v1 = io::ReadEngineCheckpoint(iss);
  ASSERT_TRUE(v1.ok()) << v1.error;
  EXPECT_EQ(v1.value->stats.consecutive_failures, kBackoffAfterFailures);
  EXPECT_EQ(SerializeDeterministic(*v1.value), SerializeDeterministic(v2));

  // Both resume without the injector, so the next probe completes.
  Engine from_v1(network, SyncOptions());
  from_v1.Restore(*v1.value);
  Engine from_v2(network, SyncOptions());
  from_v2.Restore(v2);
  EXPECT_TRUE(from_v1.backing_off());
  std::vector<FlowTicket> handles_v1 = handles;
  ReplayRange(from_v1, trace, half, trace.epochs.size(), handles_v1);
  ReplayRange(from_v2, trace, half, trace.epochs.size(), handles);
  EXPECT_FALSE(from_v1.backing_off());
  EXPECT_EQ(SerializeDeterministic(from_v1.Checkpoint()),
            SerializeDeterministic(from_v2.Checkpoint()));
  EXPECT_EQ(handles_v1, handles);
  EXPECT_EQ(from_v1.CurrentSnapshot()->version,
            from_v2.CurrentSnapshot()->version);

  // The v1 reader is as strict as v2's about what v1 carried.
  const std::string good = test::kEngineCheckpointV1;
  const auto reject = [](const std::string& text, const std::string& what) {
    std::istringstream is(text);
    EXPECT_FALSE(io::ReadEngineCheckpoint(is).ok()) << what;
  };
  const auto mutate = [&good](const std::string& from,
                              const std::string& to) {
    std::string text = good;
    const std::size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    text.replace(at, from.size(), to);
    return text;
  };
  reject(mutate("mode patch-only", "mode panicked"), "unknown mode");
  reject(mutate("counter watchdog_cancels", "counter watchdog_cancel"),
         "retired counter misnamed");
  reject(mutate("qsample 2 3 2 ", "qsample 2 3 9 "),
         "qsample mode token out of range");
  reject(mutate("quality v1", "quality v2"), "section newer than record");
  reject(mutate("engine-checkpoint v1", "engine-checkpoint v2"),
         "v1 body under a v2 header");
}

}  // namespace
}  // namespace tdmd::engine
