#include "obs/fleet_report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <istream>
#include <map>
#include <optional>
#include <ostream>
#include <sstream>

#include "obs/trace.hpp"

namespace tdmd::obs {

namespace {

FleetReport Fail(const std::string& error) {
  FleetReport report;
  report.error = error;
  return report;
}

// One shard's slice of a batch chain, keyed by emitting thread: the
// queue-dwell span carries the shard id in its arg, and the engine events
// that follow (patch, batch-adopted) land on the same worker thread.  A
// recovery replays on the coordinator, so a replayed batch's patch and
// adoption land on the thread of its fleet-submit span instead.
struct ShardChain {
  bool has_dwell = false;
  std::uint64_t shard = 0;
  double dwell_us = 0.0;
  double dwell_end_us = 0.0;  // dequeue instant
  bool has_patch = false;
  double patch_end_us = 0.0;
  bool has_adopt = false;
  double adopt_us = 0.0;  // last adoption (replay may re-adopt later)
};

struct BatchChain {
  bool has_submit = false;
  double submit_us = 0.0;
  double submit_tid = 0.0;  // the coordinator's thread
  std::map<double, ShardChain> by_tid;
};

/// Exact quantile of an ascending-sorted sample: the ceil(q*n)-th value.
double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[rank == 0 ? 0 : rank - 1];
}

}  // namespace

FleetReport BuildFleetReport(const ChromeTrace& trace) {
  FleetReport report;
  report.num_events = trace.events.size();
  std::map<std::uint64_t, BatchChain> chains;
  for (const ChromeTraceEvent& event : trace.events) {
    if (event.name == "shard-recovery") ++report.recoveries;
    if (event.name == "shed-batch") ++report.shed_batches;
    if (event.batch == 0) continue;

    BatchChain& chain = chains[event.batch];
    if (event.name == "fleet-submit") {
      chain.has_submit = true;
      chain.submit_us = event.ts_us;
      chain.submit_tid = event.tid;
      continue;
    }
    ShardChain& shard_chain = chain.by_tid[event.tid];
    const double end_us = event.ts_us + event.dur_us;
    if (event.name == "queue-dwell") {
      shard_chain.has_dwell = true;
      shard_chain.shard = event.arg;
      shard_chain.dwell_us += event.dur_us;
      shard_chain.dwell_end_us = std::max(shard_chain.dwell_end_us, end_us);
    } else if (event.name == "patch") {
      shard_chain.has_patch = true;
      shard_chain.patch_end_us = std::max(shard_chain.patch_end_us, end_us);
    } else if (event.name == "batch-adopted") {
      shard_chain.has_adopt = true;
      shard_chain.adopt_us = std::max(shard_chain.adopt_us, event.ts_us);
    }
  }
  if (chains.empty()) {
    return Fail("trace contains no fleet-submit spans — not a fleet trace");
  }

  std::map<std::uint64_t, FleetShardRow> shard_rows;
  std::vector<double> e2e_us;
  double dwell_total_us = 0.0;
  double e2e_total_us = 0.0;
  for (const auto& [batch, chain] : chains) {
    ++report.batches;
    // A patch + adoption on the coordinator's thread is a recovery replay
    // completing the legs the crashed worker lost: a dequeue it never
    // adopted, or a command it discarded while quarantined.
    const ShardChain* replay = nullptr;
    if (const auto it = chain.by_tid.find(chain.submit_tid);
        chain.has_submit && it != chain.by_tid.end() &&
        it->second.has_patch && it->second.has_adopt) {
      replay = &it->second;
    }
    // Connected = a complete chain exists and nothing dangles: at least
    // one leg carries dwell + patch + adoption, and every worker that
    // dequeued the batch also adopted it, or a replay did (a dwell with
    // no adoption anywhere means the work was lost to a crash or a
    // truncated capture).
    std::optional<ShardChain> straggler;
    bool dangling = false;
    bool any_dwell = false;
    bool any_patch = replay != nullptr;
    for (const auto& [tid, leg] : chain.by_tid) {
      if (&leg == replay) continue;
      ShardChain sc = leg;
      if (sc.has_dwell) {
        any_dwell = true;
        FleetShardRow& row = shard_rows[sc.shard];
        row.shard = sc.shard;
        ++row.batches;
        row.dwell_us += sc.dwell_us;
        if (!sc.has_adopt && replay != nullptr) {
          sc.has_patch = true;
          sc.patch_end_us = replay->patch_end_us;
          sc.has_adopt = true;
          sc.adopt_us = replay->adopt_us;
        }
      }
      if (sc.has_dwell && !sc.has_adopt) dangling = true;
      if (sc.has_patch) any_patch = true;
      if (sc.has_dwell && sc.has_adopt &&
          (!straggler || sc.adopt_us > straggler->adopt_us)) {
        straggler = sc;
      }
    }
    // Every leg discarded unseen: the replay is the whole chain, with no
    // dwell and no shard to credit.
    if (!straggler && replay != nullptr) {
      straggler = *replay;
      straggler->dwell_end_us = chain.submit_us;
    }
    // Rings overwrite their oldest events, so in a partial trace a batch
    // may have lost its submit span or every dequeue; only the legs that
    // survived can say whether the batch was lost.
    if (trace.dropped > 0 &&
        (!chain.has_submit || (!any_dwell && replay == nullptr))) {
      ++report.unscored;
      continue;
    }
    if (!chain.has_submit || !straggler || dangling || !any_patch) {
      if (report.disconnected_ids.size() < kMaxDisconnectedIds) {
        report.disconnected_ids.push_back(batch);
      }
      continue;
    }
    ++report.connected;
    if (straggler->has_dwell) ++shard_rows[straggler->shard].stragglers;

    // Critical path through the straggler shard.  A chain whose patch
    // span is missing or out of order degrades gracefully: the patch leg
    // absorbs up to the adoption instant and the adopt leg reads 0.
    const double e2e = std::max(0.0, straggler->adopt_us - chain.submit_us);
    const double submit_dequeue =
        std::max(0.0, straggler->dwell_end_us - chain.submit_us);
    const double patch_end =
        straggler->has_patch
            ? std::min(std::max(straggler->patch_end_us,
                                straggler->dwell_end_us),
                       straggler->adopt_us)
            : straggler->adopt_us;
    const double dequeue_patch = patch_end - straggler->dwell_end_us;
    const double patch_adopt = straggler->adopt_us - patch_end;
    if (submit_dequeue >= dequeue_patch && submit_dequeue >= patch_adopt) {
      ++report.dominant_submit_dequeue;
    } else if (dequeue_patch >= patch_adopt) {
      ++report.dominant_dequeue_patch;
    } else {
      ++report.dominant_patch_adopt;
    }
    e2e_us.push_back(e2e);
    e2e_total_us += e2e;
    dwell_total_us += straggler->dwell_us;
  }

  std::sort(e2e_us.begin(), e2e_us.end());
  report.e2e_p50_us = Quantile(e2e_us, 0.50);
  report.e2e_p99_us = Quantile(e2e_us, 0.99);
  report.e2e_max_us = e2e_us.empty() ? 0.0 : e2e_us.back();
  report.dwell_share =
      e2e_total_us <= 0.0 ? 0.0 : dwell_total_us / e2e_total_us;
  report.shards.reserve(shard_rows.size());
  for (const auto& [shard, row] : shard_rows) {
    report.shards.push_back(row);
  }
  report.ok = true;
  return report;
}

void WriteFleetReport(std::ostream& os, const FleetReport& report) {
  char line[240];
  const std::uint64_t scored = report.batches - report.unscored;
  const double connected_pct =
      scored == 0 ? 0.0
                  : 100.0 * static_cast<double>(report.connected) /
                        static_cast<double>(scored);
  char share[120];
  if (report.unscored == 0) {
    std::snprintf(share, sizeof(share), "%.1f%%", connected_pct);
  } else {
    std::snprintf(share, sizeof(share),
                  "%.1f%% of %llu scored; %llu unscored, legs dropped",
                  connected_pct, static_cast<unsigned long long>(scored),
                  static_cast<unsigned long long>(report.unscored));
  }
  std::snprintf(line, sizeof(line),
                "fleet-trace: %zu events, %llu batches (%llu connected, "
                "%s), %llu shed, %llu recoveries\n",
                report.num_events,
                static_cast<unsigned long long>(report.batches),
                static_cast<unsigned long long>(report.connected), share,
                static_cast<unsigned long long>(report.shed_batches),
                static_cast<unsigned long long>(report.recoveries));
  os << line;
  std::snprintf(line, sizeof(line),
                "e2e admission->adoption: p50 %.3f ms  p99 %.3f ms  max "
                "%.3f ms  queue-dwell share %.1f%%\n",
                report.e2e_p50_us / 1000.0, report.e2e_p99_us / 1000.0,
                report.e2e_max_us / 1000.0, report.dwell_share * 100.0);
  os << line;
  std::snprintf(
      line, sizeof(line),
      "dominant stage: submit->dequeue %llu, dequeue->patch %llu, "
      "patch->adopt %llu\n",
      static_cast<unsigned long long>(report.dominant_submit_dequeue),
      static_cast<unsigned long long>(report.dominant_dequeue_patch),
      static_cast<unsigned long long>(report.dominant_patch_adopt));
  os << line;
  std::snprintf(line, sizeof(line), "%-6s %8s %10s %12s\n", "shard",
                "batches", "straggler", "dwell_ms");
  os << line;
  for (const FleetShardRow& row : report.shards) {
    std::snprintf(line, sizeof(line), "%-6llu %8llu %10llu %12.3f\n",
                  static_cast<unsigned long long>(row.shard),
                  static_cast<unsigned long long>(row.batches),
                  static_cast<unsigned long long>(row.stragglers),
                  row.dwell_us / 1000.0);
    os << line;
  }
  if (!report.disconnected_ids.empty()) {
    os << "disconnected batch ids:";
    for (const std::uint64_t id : report.disconnected_ids) {
      std::snprintf(line, sizeof(line), " %llu",
                    static_cast<unsigned long long>(id));
      os << line;
    }
    os << "\n";
  }
}

bool WriteShardSplit(std::istream& is, std::ostream& os,
                     std::string* error) {
  // Plain-gauge/counter lines only: `name value`.  Comment lines start
  // with '#'; histogram quantile series carry '{' labels — both are
  // irrelevant to the per-shard summary, so skip them.
  std::map<std::string, double> metrics;
  std::string text_line;
  while (std::getline(is, text_line)) {
    if (text_line.empty() || text_line[0] == '#') continue;
    if (text_line.find('{') != std::string::npos) continue;
    std::istringstream ss(text_line);
    std::string name;
    double value = 0.0;
    if (ss >> name >> value) metrics[name] = value;
  }
  // The first missing metric (or a count that is not one) ends the
  // summary; nothing reaches `os` unless every metric is usable.
  std::string problem;
  const auto require = [&](const std::string& name) {
    const auto it = metrics.find(name);
    if (it != metrics.end()) return it->second;
    if (problem.empty()) {
      problem = "missing metric '" + name +
                "' (not a sharded serve-trace dump?)";
    }
    return 0.0;
  };
  // Counts are range-checked before they become a size_t or bound a loop.
  const auto require_count = [&](const std::string& name) -> std::size_t {
    const double value = require(name);
    if (value >= 0.0 && value < 4294967296.0) {
      return static_cast<std::size_t>(value);
    }
    if (problem.empty()) problem = "metric '" + name + "' is not a count";
    return 0;
  };
  const auto fail = [&] {
    *error = problem;
    return false;
  };

  const std::size_t num_shards = require_count("tdmd_fleet_num_shards");
  if (!problem.empty()) return fail();
  std::ostringstream out;
  char line[200];
  out << "shard  budget boxes flows  bandwidth    cert-bound  feasible\n";
  std::size_t total_budget = 0;
  double shard_bandwidth_sum = 0.0;
  for (std::size_t s = 0; s < num_shards; ++s) {
    const std::string prefix = "tdmd_shard" + std::to_string(s) + "_";
    const std::size_t budget = require_count(prefix + "budget");
    const std::size_t boxes = require_count(prefix + "boxes");
    const std::size_t flows = require_count(prefix + "active_flows");
    const double bandwidth = require(prefix + "bandwidth");
    const double cert = require(prefix + "cert_bound");
    const bool feasible = require(prefix + "feasible") > 0.5;
    if (!problem.empty()) return fail();
    total_budget += budget;
    shard_bandwidth_sum += bandwidth;
    std::snprintf(line, sizeof(line),
                  "%5zu  %6zu %5zu %5zu %10.3f  %10.3f  %s\n", s, budget,
                  boxes, flows, bandwidth, cert, feasible ? "yes" : "NO");
    out << line;
  }
  std::snprintf(line, sizeof(line),
                "fleet      : k=%zu across %zu shards, union bandwidth %.3f "
                "(shard sum %.3f), cert %s %.3f, feasible %s\n",
                total_budget, num_shards, require("tdmd_fleet_bandwidth"),
                shard_bandwidth_sum,
                require("tdmd_fleet_cert_valid") > 0.5 ? "valid" : "invalid",
                require("tdmd_fleet_cert_bound"),
                require("tdmd_fleet_feasible") > 0.5 ? "yes" : "NO");
  out << line;
  std::snprintf(line, sizeof(line),
                "routing    : %.0f epochs, %.0f commands, %.0f shard-epochs "
                "skipped, %.0f cross-shard flows\n",
                require("tdmd_fleet_epochs"),
                require("tdmd_fleet_commands_routed"),
                require("tdmd_fleet_batches_skipped"),
                require("tdmd_fleet_cross_shard_flows"));
  out << line;
  std::snprintf(line, sizeof(line),
                "budget     : %.0f realloc rounds, %.0f adopted, "
                "%.0f boxes moved\n",
                require("tdmd_fleet_realloc_rounds"),
                require("tdmd_fleet_realloc_adoptions"),
                require("tdmd_fleet_budget_moves"));
  out << line;
  if (!problem.empty()) return fail();
  os << out.str();
  return true;
}

}  // namespace tdmd::obs
