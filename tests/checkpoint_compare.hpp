#pragma once

// The one canonical "byte-identical modulo wall-clock histograms" compare
// for checkpoint tests.  Determinism asserts (replayed run == interrupted
// run) must ignore the latency-histogram section — timing samples differ
// run to run even when every placement decision is identical — and every
// test spelling its own exclusion list invites them to drift.  Route every
// byte-identity assert through SerializeDeterministic and compare the
// returned strings with EXPECT_EQ.

#include <sstream>
#include <string>

#include "engine/checkpoint.hpp"
#include "io/text_format.hpp"

namespace tdmd::test {

/// Write options for deterministic byte-comparisons: histograms excluded
/// (wall-clock), everything else — including the quality section, which is
/// deterministic under replay — kept.
inline io::EngineCheckpointWriteOptions DeterministicWriteOptions() {
  io::EngineCheckpointWriteOptions options;
  options.include_histograms = false;
  return options;
}

inline std::string SerializeDeterministic(
    const engine::EngineCheckpoint& checkpoint) {
  std::ostringstream os;
  io::WriteEngineCheckpoint(os, checkpoint, DeterministicWriteOptions());
  return os.str();
}

/// Fleet-checkpoint variant.  A template (resolved by ADL against
/// shard::WriteFleetCheckpoint) so engine-only test binaries can include
/// this header without linking tdmd_shard; instantiated only in TUs that
/// also include shard/fleet_io.hpp.
template <typename FleetCheckpointT>
std::string SerializeDeterministic(const FleetCheckpointT& checkpoint) {
  std::ostringstream os;
  WriteFleetCheckpoint(os, checkpoint, DeterministicWriteOptions());
  return os.str();
}

}  // namespace tdmd::test
