// Line-oriented text serialization for topologies, flow sets and whole
// TDMD instances — the interchange format of the tdmd_cli tool and the
// regression corpus under tests/.
//
// Grammar (one record per line, '#' starts a comment, blank lines
// ignored):
//
//   tdmd-instance v1
//   lambda <double>
//   digraph <num_vertices>
//   arc <tail> <head>                 (repeated)
//   flows <count>
//   flow <rate> <v0> <v1> ... <vk>    (path as the vertex sequence)
//
// Trees serialize as:
//
//   tree <num_vertices>
//   parent <v> <p>                    (root omitted; ids dense)
//
// Deployments serialize as:
//
//   deployment <num_vertices>
//   box <v>                           (repeated)
//
// Engine checkpoints (DESIGN.md Section 9.4) serialize as:
//
//   engine-checkpoint v2
//   epoch <u64>
//   snapshot-version <u64>
//   epochs-since-probe <u64>
//   pending-churn <u64>
//   k <u64>
//   lambda <hexfloat>
//   num-vertices <v>
//   bandwidth <hexfloat>              (bit-exact round trip)
//   feasible <0|1>
//   counter <name> <u64>              (one per EngineStats counter, in
//                                      TDMD_ENGINE_STATS_COUNTERS order)
//   deployment <count>
//   box <v>                           (repeated; insertion order)
//   uncovered <count>
//   ticket <t>                        (repeated)
//   flows <count>
//   flow <ticket> <rate> <v0> ... <vk>  (ascending by slot)
//   free-slots <count>
//   free <ticket>                     (repeated; stack bottom-to-top)
//   histograms 4                      (optional latency-histogram section)
//   histogram <name> <count> <sum> <min> <max> <buckets>
//   bucket <index> <count>            (repeated per histogram; names are
//                                      patch, resolve, index-delta,
//                                      greedy-round, in that order)
//   quality v2                        (optional quality-observability
//                                      section)
//   qbound <0|1> <hexfloat>           (certificate valid flag + bound)
//   qadoption-age <u64>
//   qattr <count>
//   qv <vertex> <hexfloat>            (repeated; attribution ledger)
//   qdetector <ewma-hexfloat> <primed 0|1> <cusum-hexfloat>
//             <active-bits> <samples-total> <raised-total> <cleared-total>
//   qsamples <count>
//   qsample <epoch> <version> <feasible 0|1> <deployed> <budget>
//           <moves> <since-adoption> <certified 0|1> <bandwidth-hexfloat>
//           <unprocessed-hexfloat> <bound-hexfloat> <num-attr>
//   qv <vertex> <hexfloat>            (repeated num-attr times per sample;
//                                      derived fields are re-derived, not
//                                      serialized)
//   qalerts <count>
//   qalert <kind> <raised 0|1> <epoch> <value-hexfloat>
//          <threshold-hexfloat>
//   end quality
//   end engine-checkpoint
//
// The reader also restores `engine-checkpoint v1` records.  v1 carries,
// and the reader checks and drops, what v2 retired: a `mode` line and a
// `consecutive-failures` line after snapshot-version (the line, which
// restored the failure streak in v1, wins over its counter), five more
// counters (resolves_cancelled, resolves_coalesced, watchdog_cancels,
// mode_transitions, degraded_epochs), and a mode token after each
// qsample's version inside a `quality v1` section.
//
// Parsing is strict: unknown records, wrong counts, or malformed numbers
// produce an error message with the line number instead of a partially
// filled object.
#pragma once

#include <functional>
#include <iosfwd>
#include <optional>
#include <string>

#include "core/deployment.hpp"
#include "core/instance.hpp"
#include "engine/checkpoint.hpp"
#include "faults/faults.hpp"
#include "graph/digraph.hpp"
#include "graph/tree.hpp"
#include "traffic/flow.hpp"

namespace tdmd::io {

/// Parse outcome: either a value or a diagnostic.
template <typename T>
struct Parsed {
  std::optional<T> value;
  std::string error;  // empty on success

  bool ok() const { return value.has_value(); }
};

// --- Writers (always succeed) -----------------------------------------

void WriteDigraph(std::ostream& os, const graph::Digraph& g);
void WriteTree(std::ostream& os, const graph::Tree& tree);
void WriteFlows(std::ostream& os, const traffic::FlowSet& flows);
void WriteInstance(std::ostream& os, const core::Instance& instance);
void WriteDeployment(std::ostream& os, const core::Deployment& deployment);

struct EngineCheckpointWriteOptions {
  /// The latency-histogram section is optional in the record.  Tests that
  /// pin byte-identical deterministic replay compare records written
  /// without it (timing samples differ run to run); everything else keeps
  /// the default.
  bool include_histograms = true;
};

void WriteEngineCheckpoint(std::ostream& os,
                           const engine::EngineCheckpoint& checkpoint);
void WriteEngineCheckpoint(std::ostream& os,
                           const engine::EngineCheckpoint& checkpoint,
                           const EngineCheckpointWriteOptions& options);

// --- Readers ------------------------------------------------------------

Parsed<graph::Digraph> ReadDigraph(std::istream& is);
Parsed<graph::Tree> ReadTree(std::istream& is);
Parsed<traffic::FlowSet> ReadFlows(std::istream& is);
Parsed<core::Instance> ReadInstance(std::istream& is);
Parsed<core::Deployment> ReadDeployment(std::istream& is,
                                        VertexId num_vertices);
Parsed<engine::EngineCheckpoint> ReadEngineCheckpoint(std::istream& is);

/// Embeddable variant: with `require_eof` false the reader stops
/// consuming right after the `end engine-checkpoint` terminator line and
/// leaves `is` positioned on the next line, so a container format (the
/// shard fleet checkpoint) can interleave engine-checkpoint blocks with
/// its own records.  `require_eof` true is the plain-file behavior:
/// trailing content is an error.
Parsed<engine::EngineCheckpoint> ReadEngineCheckpoint(std::istream& is,
                                                      bool require_eof);

// --- File helpers ---------------------------------------------------------

/// Writes `content_writer(os)` to `path` via io::AtomicFileWriter (temp
/// file + fsync + atomic rename); false on filesystem failure.  A crash
/// mid-write never leaves a torn file.
bool WriteFile(const std::string& path,
               const std::function<void(std::ostream&)>& content_writer);

/// Atomically writes an engine checkpoint with a CRC32 trailer line
/// (`# tdmd-crc32 <hex> <bytes>`) that ReadEngineCheckpointFile requires
/// and verifies.  `fault_injector`, when non-null, arms the
/// FaultSite::kCheckpointWrite crash point mid-payload.  On failure
/// returns false and stores a one-line diagnostic in `*error` (if set).
bool WriteEngineCheckpointFile(const std::string& path,
                               const engine::EngineCheckpoint& checkpoint,
                               const EngineCheckpointWriteOptions& options = {},
                               faults::FaultInjector* fault_injector = nullptr,
                               std::string* error = nullptr);

/// Reads a whole instance file; the error mentions the path.
Parsed<core::Instance> ReadInstanceFile(const std::string& path);
Parsed<graph::Tree> ReadTreeFile(const std::string& path);
Parsed<engine::EngineCheckpoint> ReadEngineCheckpointFile(
    const std::string& path);

}  // namespace tdmd::io
