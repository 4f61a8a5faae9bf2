#include "shard/fleet_io.hpp"

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "io/atomic_file.hpp"
#include "io/line_reader.hpp"

namespace tdmd::shard {

using io::internal::AtLine;
using io::internal::LineReader;
using io::internal::ParseInt;
using io::internal::ParseU64;
using io::internal::ReadKeyedU64;

void WriteFleetCheckpoint(std::ostream& os,
                          const FleetCheckpoint& checkpoint) {
  WriteFleetCheckpoint(os, checkpoint, io::EngineCheckpointWriteOptions{});
}

void WriteFleetCheckpoint(std::ostream& os, const FleetCheckpoint& checkpoint,
                          const io::EngineCheckpointWriteOptions& options) {
  os << "shardfleet v1\n";
  os << "num-shards " << checkpoint.num_shards << '\n';
  os << "partition-method " << PartitionMethodName(checkpoint.method)
     << '\n';
  os << "partition-seed " << checkpoint.partition_seed << '\n';
  os << "epoch " << checkpoint.epoch << '\n';
  os << "next-flow-id " << checkpoint.next_flow_id << '\n';
  for (std::size_t s = 0; s < checkpoint.budgets.size(); ++s) {
    os << "budget " << s << ' ' << checkpoint.budgets[s] << '\n';
  }
  os << "flow-table " << checkpoint.flows.size() << '\n';
  for (const FleetCheckpoint::FlowEntry& entry : checkpoint.flows) {
    os << "entry " << entry.id << ' ' << entry.shard << ' ' << entry.ticket
       << '\n';
  }
  for (std::size_t s = 0; s < checkpoint.engines.size(); ++s) {
    os << "shard " << s << '\n';
    io::WriteEngineCheckpoint(os, checkpoint.engines[s], options);
  }
  os << "end shardfleet\n";
}

io::Parsed<FleetCheckpoint> ReadFleetCheckpoint(std::istream& is) {
  io::Parsed<FleetCheckpoint> result;
  LineReader reader(is);
  std::vector<std::string> tokens;
  FleetCheckpoint cp;

  if (!reader.Next(tokens) || tokens.size() != 2 ||
      tokens[0] != "shardfleet" || tokens[1] != "v1") {
    result.error =
        AtLine(reader.line_number(), "expected 'shardfleet v1' header");
    return result;
  }

  std::uint64_t num_shards = 0;
  if (!ReadKeyedU64(reader, tokens, "num-shards", num_shards,
                    result.error)) {
    return result;
  }
  if (num_shards < 1 || num_shards > 4096) {
    result.error =
        AtLine(reader.line_number(), "num-shards out of range [1, 4096]");
    return result;
  }
  cp.num_shards = static_cast<std::size_t>(num_shards);

  if (!reader.Next(tokens) || tokens.size() != 2 ||
      tokens[0] != "partition-method" ||
      !ParsePartitionMethod(tokens[1], &cp.method)) {
    result.error = AtLine(reader.line_number(),
                          "expected 'partition-method <bfs|spatial>'");
    return result;
  }
  if (!ReadKeyedU64(reader, tokens, "partition-seed", cp.partition_seed,
                    result.error) ||
      !ReadKeyedU64(reader, tokens, "epoch", cp.epoch, result.error) ||
      !ReadKeyedU64(reader, tokens, "next-flow-id", cp.next_flow_id,
                    result.error)) {
    return result;
  }

  cp.budgets.resize(cp.num_shards, 0);
  for (std::size_t s = 0; s < cp.num_shards; ++s) {
    std::uint64_t shard = 0, budget = 0;
    if (!reader.Next(tokens) || tokens.size() != 3 ||
        tokens[0] != "budget" || !ParseU64(tokens[1], shard) ||
        !ParseU64(tokens[2], budget) || shard != s || budget < 1) {
      result.error = AtLine(reader.line_number(),
                            "expected 'budget " + std::to_string(s) +
                                " <k>=1>'");
      return result;
    }
    cp.budgets[s] = static_cast<std::size_t>(budget);
  }

  std::uint64_t flow_count = 0;
  if (!ReadKeyedU64(reader, tokens, "flow-table", flow_count,
                    result.error)) {
    return result;
  }
  // Reserve is capped: the declared count is untrusted input, and an
  // oversized value must fail at the first missing entry, not allocate.
  cp.flows.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(flow_count, 65536)));
  std::uint64_t prev_id = 0;
  for (std::uint64_t i = 0; i < flow_count; ++i) {
    std::uint64_t id = 0, shard = 0;
    std::int64_t ticket = 0;
    if (!reader.Next(tokens) || tokens.size() != 4 ||
        tokens[0] != "entry" || !ParseU64(tokens[1], id) ||
        !ParseU64(tokens[2], shard) || !ParseInt(tokens[3], ticket)) {
      result.error = AtLine(reader.line_number(),
                            "expected 'entry <id> <shard> <ticket>'");
      return result;
    }
    if (shard >= cp.num_shards) {
      result.error =
          AtLine(reader.line_number(), "entry shard out of range");
      return result;
    }
    if (i > 0 && id <= prev_id) {
      result.error = AtLine(reader.line_number(),
                            "flow-table entries must ascend by id");
      return result;
    }
    prev_id = id;
    cp.flows.push_back(FleetCheckpoint::FlowEntry{
        id, static_cast<std::uint32_t>(shard), ticket});
  }

  cp.engines.reserve(cp.num_shards);
  for (std::size_t s = 0; s < cp.num_shards; ++s) {
    std::uint64_t shard = 0;
    if (!reader.Next(tokens) || tokens.size() != 2 || tokens[0] != "shard" ||
        !ParseU64(tokens[1], shard) || shard != s) {
      result.error = AtLine(reader.line_number(),
                            "expected 'shard " + std::to_string(s) + "'");
      return result;
    }
    // Delegate the embedded block to the engine-checkpoint reader; its
    // diagnostics count lines from the start of the block, so prefix the
    // shard for context.
    io::Parsed<engine::EngineCheckpoint> block =
        io::ReadEngineCheckpoint(is, /*require_eof=*/false);
    if (!block.ok()) {
      result.error = "shard " + std::to_string(s) +
                     " engine checkpoint: " + block.error;
      return result;
    }
    cp.engines.push_back(std::move(*block.value));
  }

  if (!reader.Next(tokens) || tokens.size() != 2 || tokens[0] != "end" ||
      tokens[1] != "shardfleet") {
    result.error =
        AtLine(reader.line_number(), "expected 'end shardfleet'");
    return result;
  }
  if (reader.Next(tokens)) {
    result.error = AtLine(reader.line_number(),
                          "trailing content after 'end shardfleet'");
    return result;
  }
  result.value = std::move(cp);
  return result;
}

bool WriteFleetCheckpointFile(const std::string& path,
                              const FleetCheckpoint& checkpoint,
                              faults::FaultInjector* fault_injector,
                              std::string* error) {
  io::AtomicWriteOptions options;
  options.crc_trailer = true;
  options.fault_injector = fault_injector;
  return io::WriteFileAtomic(
      path,
      [&checkpoint](std::ostream& os) { WriteFleetCheckpoint(os, checkpoint); },
      options, error);
}

io::Parsed<FleetCheckpoint> ReadFleetCheckpointFile(const std::string& path) {
  // Require and verify the CRC trailer before parsing: a torn, truncated,
  // or bit-flipped fleet checkpoint is rejected, never half-restored.
  io::VerifiedPayload verified = io::ReadFileVerified(path);
  io::Parsed<FleetCheckpoint> result;
  if (!verified.ok()) {
    result.error = verified.error;
    return result;
  }
  std::istringstream in(verified.payload);
  result = ReadFleetCheckpoint(in);
  if (!result.ok()) {
    result.error = path + ": " + result.error;
  }
  return result;
}

}  // namespace tdmd::shard
