// `shardfleet v1`: the versioned fleet checkpoint container format.
//
// Grammar (one record per line, '#' starts a comment, blank lines
// ignored):
//
//   shardfleet v1
//   num-shards <n>
//   partition-method <bfs|spatial>
//   partition-seed <u64>
//   epoch <u64>
//   next-flow-id <u64>
//   budget <shard> <k>                (one per shard, ascending)
//   flow-table <count>
//   entry <flow-id> <shard> <ticket>  (repeated; ascending by flow id)
//   shard <i>                         (one per shard, ascending, each
//                                      followed by an embedded
//                                      `engine-checkpoint v2` block —
//                                      byte-identical to what
//                                      io::WriteEngineCheckpoint emits
//                                      for that engine standalone)
//   end shardfleet
//
// The embedded blocks are read back with io::ReadEngineCheckpoint's
// embeddable (require_eof = false) overload, so the per-engine grammar
// lives in exactly one place — files whose blocks are still
// `engine-checkpoint v1` restore too — and a single-shard fleet file
// degenerates to the plain engine format plus this thin header.
#pragma once

#include <iosfwd>
#include <string>

#include "io/text_format.hpp"
#include "shard/sharded_engine.hpp"

namespace tdmd::shard {

void WriteFleetCheckpoint(std::ostream& os,
                          const FleetCheckpoint& checkpoint);
/// `options` controls the optional sections of every embedded engine
/// block (histograms off for byte-identical replay comparisons).
void WriteFleetCheckpoint(std::ostream& os, const FleetCheckpoint& checkpoint,
                          const io::EngineCheckpointWriteOptions& options);

io::Parsed<FleetCheckpoint> ReadFleetCheckpoint(std::istream& is);

/// Atomic (temp file + fsync + rename) write with a CRC32 trailer line;
/// ReadFleetCheckpointFile requires and verifies the trailer, so torn or
/// bit-flipped files are rejected with a one-line diagnostic.
/// `fault_injector`, when non-null, arms the checkpoint-write crash point
/// (FaultSite::kCheckpointWrite) mid-payload.
bool WriteFleetCheckpointFile(const std::string& path,
                              const FleetCheckpoint& checkpoint,
                              faults::FaultInjector* fault_injector = nullptr,
                              std::string* error = nullptr);
io::Parsed<FleetCheckpoint> ReadFleetCheckpointFile(const std::string& path);

}  // namespace tdmd::shard
