// Shared types of the benchmark: run options, the per-run outcome
// every workload fills in, and small statistics helpers.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// The traffic-changing ratio of every workload.  With lambda = 0.5 every
/// per-flow bandwidth term is a multiple of 0.5, exact in a double, so
/// bandwidths and the metrics derived from them repeat bit for bit.
inline constexpr double kLambda = 0.5;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  /// Sizes the run: each workload's request count is proportional to it
  /// (at 10, a run takes 9-14 s on a 4-vCPU x86 VM, depending on the
  /// workload and on the host's load).  The count, not the clock, ends a
  /// run, so the deterministic metrics repeat exactly for one seed.
  double seconds = 10.0;
  /// Traced run: spans on alternating blocks of requests, per-layer
  /// metrics instead of end-to-end ones.
  bool trace = false;
  /// Where a traced run writes its spans (Chrome trace JSON); empty = none.
  std::string trace_out;
  /// Self-tests only: skip the sampled fleet Snapshot() checks.
  bool sample_fleet_snapshots = true;
};

/// Requests are traced in alternating blocks of this many, so traced and
/// untraced requests see the same mix of batch kinds (16 is a multiple of
/// the engine's 4-batch re-solve cadence and equals the fleet's 16-epoch
/// reallocation interval).
inline constexpr std::uint64_t kTraceBlock = 16;

inline bool TracedRequest(bool trace, std::uint64_t request) {
  return trace && (request / kTraceBlock) % 2 == 1;
}

/// Everything one run measured.  Workloads fill it; main() turns it into
/// the metrics line.
struct Outcome {
  /// Timed requests, in order, with whether each one was traced.
  std::vector<double> latency_ms;
  std::vector<bool> traced;
  /// Work units: churn events applied, or instances planned.
  std::uint64_t ops = 0;
  /// Sum of the timed request latencies.
  double timed_wall_s = 0.0;
  /// Ops per second of timed wall time of each block of requests.  A
  /// block is a stretch of consecutive requests with the same mix of
  /// request kinds (one re-solve cycle, one fleet lifetime, one round of
  /// tree sizes); ops_per_s is the median over the blocks, so a burst of
  /// load from the host's neighbours moves it only if it covers half of
  /// the run.
  std::vector<double> block_ops_per_s;
  /// bw_ratio = bw_num / bw_den over the run's final states.
  double bw_num = 0.0;
  double bw_den = 0.0;
  /// Output checks (per request, sampled, and at exit).
  std::uint64_t checks = 0;
  std::uint64_t checks_failed = 0;
  /// Failed checks no named program defect explains.
  std::uint64_t unexplained = 0;
  /// Failed checks by issue name (known program defects and the rest).
  std::map<std::string, std::uint64_t> failures;
  /// Requests attempted (every timed request plus every exit audit).
  std::uint64_t attempted = 0;
  std::vector<double> setup_s;
  double peak_rss_mb = 0.0;
  /// Per-layer metrics of a traced run, by name.
  std::map<std::string, double> layer;

  /// Ends the current block: records the ops per second of timed wall
  /// time since the previous call.
  void CloseBlock() {
    const double wall = timed_wall_s - block_start_wall_s_;
    if (wall > 0.0) {
      block_ops_per_s.push_back(static_cast<double>(ops - block_start_ops_) /
                                wall);
    }
    block_start_ops_ = ops;
    block_start_wall_s_ = timed_wall_s;
  }

  void RecordCheck(bool ok, const std::string& issue, bool known_defect) {
    ++checks;
    if (ok) return;
    ++checks_failed;
    ++failures[issue];
    if (!known_defect) ++unexplained;
  }

 private:
  std::uint64_t block_start_ops_ = 0;
  double block_start_wall_s_ = 0.0;
};

/// Nearest-rank quantile of `values` (q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> values, double q);

double Median(std::vector<double> values);

double Sum(const std::vector<double>& values);

/// Arithmetic mean; 0 when empty.
double Mean(const std::vector<double>& values);

/// The highest percentile of {50, 90, 95, 99, 99.9} with at least ten of
/// `n` samples beyond it under the nearest-rank rule.  Each workload sizes
/// its run so that this percentile falls inside its slowest request kind,
/// not where two kinds meet (see workloads.hpp).
double TailPercentile(std::size_t n);

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

/// Seed of the i-th independent stream derived from a run seed.
std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t stream);

}  // namespace perfbench
