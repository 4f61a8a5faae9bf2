// Fuzz-style corpus over the two checkpoint file grammars (`shardfleet
// v1` and `engine-checkpoint v2`): truncation at every line boundary,
// bit-flipped CRC trailers, duplicated sections re-wrapped with a valid
// CRC (so the *parser*, not the checksum, must reject), and oversized
// declared counts.  Every corrupt file must be rejected with a
// diagnostic and without crashing — the suite runs under ASan/UBSan in
// CI (label `shard`).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "engine/churn_trace.hpp"
#include "engine/engine.hpp"
#include "io/atomic_file.hpp"
#include "io/text_format.hpp"
#include "shard/fleet_io.hpp"
#include "shard/sharded_engine.hpp"
#include "common/rng.hpp"
#include "topology/generators.hpp"

namespace tdmd {
namespace {

std::string TempPath(const std::string& name) {
  // Unique per test process: gtest_discover_tests runs every TEST_F as
  // its own process, and parallel ctest must not share corpus files.
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "/" + std::to_string(::getpid()) + "_" +
         (info != nullptr ? std::string(info->name()) + "_" : "") + name;
}

void WriteRaw(const std::string& path, const std::string& content) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << content;
}

std::string Slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

/// Splits into lines, each keeping its trailing '\n'.
std::vector<std::string> Lines(const std::string& content) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < content.size()) {
    std::size_t end = content.find('\n', start);
    if (end == std::string::npos) end = content.size() - 1;
    lines.push_back(content.substr(start, end - start + 1));
    start = end + 1;
  }
  return lines;
}

/// Re-wraps a (mutated) payload with a freshly computed CRC trailer, so
/// only the grammar can reject it.
std::string ReWrap(const std::string& payload) {
  return payload + io::CrcTrailerLine(payload);
}

graph::Digraph TestNetwork(std::uint64_t seed) {
  Rng rng(seed);
  return topology::Waxman(14, 0.6, 0.5, rng);
}

std::string BuildFleetFile(const std::string& path) {
  const graph::Digraph g = TestNetwork(11);
  shard::ShardedEngineOptions options;
  options.partition.num_shards = 2;
  options.total_budget = 4;
  options.engine.lambda = 0.5;
  options.realloc_interval_epochs = 0;
  options.pin_threads = false;
  shard::ShardedEngine fleet(g, options);

  engine::ChurnModel churn;
  churn.arrival_count = 4;
  churn.departure_probability = 0.2;
  const engine::ChurnTrace trace =
      engine::BuildChurnTrace(g, churn, 3, 0, 5);
  std::vector<shard::FlowId64> active;
  for (const engine::ChurnEpoch& epoch : trace.epochs) {
    active = fleet.SubmitBatch(epoch.arrivals, {}).flow_ids;
  }
  fleet.Drain();
  EXPECT_TRUE(shard::WriteFleetCheckpointFile(path, fleet.Checkpoint().value()));
  return Slurp(path);
}

std::string BuildEngineFile(const std::string& path) {
  const graph::Digraph g = TestNetwork(13);
  engine::EngineOptions options;
  options.k = 3;
  options.lambda = 0.5;
  engine::Engine eng(g, options);

  engine::ChurnModel churn;
  churn.arrival_count = 6;
  churn.departure_probability = 0.0;
  const engine::ChurnTrace trace =
      engine::BuildChurnTrace(g, churn, 2, 0, 9);
  for (const engine::ChurnEpoch& epoch : trace.epochs) {
    eng.SubmitBatch(epoch.arrivals, {});
  }
  EXPECT_TRUE(io::WriteEngineCheckpointFile(path, eng.Checkpoint()));
  return Slurp(path);
}

bool FleetParses(const std::string& path) {
  const io::Parsed<shard::FleetCheckpoint> parsed =
      shard::ReadFleetCheckpointFile(path);
  if (!parsed.ok()) {
    EXPECT_FALSE(parsed.error.empty()) << "rejection without a diagnostic";
  }
  return parsed.ok();
}

bool EngineParses(const std::string& path) {
  const io::Parsed<engine::EngineCheckpoint> parsed =
      io::ReadEngineCheckpointFile(path);
  if (!parsed.ok()) {
    EXPECT_FALSE(parsed.error.empty()) << "rejection without a diagnostic";
  }
  return parsed.ok();
}

class CheckpointCorpusTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fleet_path_ = TempPath("corpus_fleet.ckpt");
    engine_path_ = TempPath("corpus_engine.ckpt");
    fleet_file_ = BuildFleetFile(fleet_path_);
    engine_file_ = BuildEngineFile(engine_path_);
    ASSERT_TRUE(FleetParses(fleet_path_));
    ASSERT_TRUE(EngineParses(engine_path_));
  }

  void TearDown() override {
    std::remove(fleet_path_.c_str());
    std::remove(engine_path_.c_str());
  }

  std::string fleet_path_, engine_path_;
  std::string fleet_file_, engine_file_;
};

TEST_F(CheckpointCorpusTest, FleetTruncationAtEveryLineBoundary) {
  const std::vector<std::string> lines = Lines(fleet_file_);
  ASSERT_GT(lines.size(), 10u);
  std::string prefix;
  for (std::size_t i = 0; i + 1 < lines.size(); ++i) {
    WriteRaw(fleet_path_, prefix);  // i lines, trailer always missing
    EXPECT_FALSE(FleetParses(fleet_path_))
        << "accepted a " << i << "-line truncation";
    prefix += lines[i];
  }
}

TEST_F(CheckpointCorpusTest, EngineTruncationAtEveryLineBoundary) {
  const std::vector<std::string> lines = Lines(engine_file_);
  ASSERT_GT(lines.size(), 10u);
  std::string prefix;
  for (std::size_t i = 0; i + 1 < lines.size(); ++i) {
    WriteRaw(engine_path_, prefix);
    EXPECT_FALSE(EngineParses(engine_path_))
        << "accepted a " << i << "-line truncation";
    prefix += lines[i];
  }
}

TEST_F(CheckpointCorpusTest, BitFlippedTrailerRejected) {
  // Flip every character of the CRC trailer line in turn (hex digits,
  // byte count, even the tag itself) — none may verify.
  const std::size_t trailer_start = fleet_file_.rfind("# tdmd-crc32");
  ASSERT_NE(trailer_start, std::string::npos);
  for (std::size_t i = trailer_start; i + 1 < fleet_file_.size(); ++i) {
    std::string corrupt = fleet_file_;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x04);
    WriteRaw(fleet_path_, corrupt);
    EXPECT_FALSE(FleetParses(fleet_path_))
        << "accepted trailer flip at byte " << i;
  }
}

TEST_F(CheckpointCorpusTest, DuplicatedSectionsRejected) {
  const std::string payload =
      fleet_file_.substr(0, fleet_file_.rfind("# tdmd-crc32"));
  const std::vector<std::string> lines = Lines(payload);

  // Duplicate whole sections in place, re-wrapped with a valid CRC so
  // the strictly-ordered grammar (not the checksum) must reject: every
  // directive has one expected position, so a repeated section always
  // collides with the next expected line.
  const std::vector<std::pair<std::string, std::string>> sections = {
      {"num-shards", "num-shards"},        // header scalar
      {"budget 0", "budget 1"},            // one budget row
      {"flow-table", "shard 0"},           // whole flow table w/ header
      {"shard 0", "shard 1"},              // whole first engine block
  };
  for (const auto& [from, to] : sections) {
    std::size_t begin = lines.size(), end = lines.size();
    for (std::size_t i = 0; i < lines.size(); ++i) {
      if (begin == lines.size() &&
          lines[i].compare(0, from.size(), from) == 0) {
        begin = i;
      } else if (begin != lines.size() &&
                 lines[i].compare(0, to.size(), to) == 0) {
        end = i;
        break;
      }
    }
    ASSERT_LT(begin, end) << "section '" << from << "' not found";
    std::string mutated;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      mutated += lines[i];
      if (i + 1 == end) {  // re-emit the section right after itself
        for (std::size_t j = begin; j < end; ++j) mutated += lines[j];
      }
    }
    WriteRaw(fleet_path_, ReWrap(mutated));
    EXPECT_FALSE(FleetParses(fleet_path_))
        << "accepted duplicated section '" << from << "'";
  }
}

TEST_F(CheckpointCorpusTest, OversizedDeclaredCountsRejected) {
  // An absurd declared count must fail at the first missing record —
  // quickly and without a giant up-front allocation (reserves are
  // capped), which ASan would surface as an OOM or timeout here.
  const auto inflate = [](const std::string& content,
                          const std::string& key) {
    std::string mutated;
    for (const std::string& line : Lines(content)) {
      if (line.compare(0, key.size(), key) == 0) {
        mutated += key + " 1152921504606846976\n";  // 2^60
      } else {
        mutated += line;
      }
    }
    return mutated;
  };

  const std::string fleet_payload =
      fleet_file_.substr(0, fleet_file_.rfind("# tdmd-crc32"));
  WriteRaw(fleet_path_, ReWrap(inflate(fleet_payload, "flow-table")));
  EXPECT_FALSE(FleetParses(fleet_path_));

  const std::string engine_payload =
      engine_file_.substr(0, engine_file_.rfind("# tdmd-crc32"));
  for (const std::string key : {"flows", "deployment"}) {
    const std::string mutated = inflate(engine_payload, key);
    if (mutated == engine_payload) continue;  // section absent
    WriteRaw(engine_path_, ReWrap(mutated));
    EXPECT_FALSE(EngineParses(engine_path_))
        << "accepted oversized '" << key << "' count";
  }
}

TEST_F(CheckpointCorpusTest, EveryLineDuplicationIsCrashFree) {
  // Blanket sweep: duplicating ANY single payload line (valid CRC) must
  // never crash the parser.  Most duplications are grammar errors; a
  // handful of list rows may legitimately re-parse — this sweep asserts
  // memory safety, the section test above asserts rejection.
  const std::string payload =
      fleet_file_.substr(0, fleet_file_.rfind("# tdmd-crc32"));
  const std::vector<std::string> lines = Lines(payload);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::string mutated;
    for (std::size_t j = 0; j < lines.size(); ++j) {
      mutated += lines[j];
      if (j == i) mutated += lines[j];
    }
    WriteRaw(fleet_path_, ReWrap(mutated));
    (void)FleetParses(fleet_path_);  // must not crash; outcome free
  }
}

}  // namespace
}  // namespace tdmd
