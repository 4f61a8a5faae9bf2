// Seeded, deterministic fault injection for the serving layer.
//
// A FaultInjector is shared by every hook site the robustness tests care
// about — FlowCoverageIndex delta application, each SolveIncrementalGtp
// greedy round, the shard workers and the checkpoint writer — and decides,
// per visit, whether to inject a fault and which kind:
//
//   * kThrow  — raise FaultInjectedError (an injected task exception),
//   * kDelay  — sleep for the site's configured delay (a solver stall),
//   * kCancel — report a cancellation request (a cancellation storm).
//
// Decisions are a pure function of (seed, site, visit ordinal): the n-th
// visit to a site injects the same fault under the same seed in every run,
// regardless of wall-clock timing.  Ordinals are handed out by per-site
// atomic counters, so under a single-threaded (one-engine) replay the
// whole fault *sequence* is reproducible bit for bit; under concurrency
// the decision sequence per site is still identical, only the task that
// draws a given ordinal may differ.  Every injected fault is appended to an
// event log that tests compare across runs.
//
// The injector is thread-safe and must outlive every component it is
// installed into.  Disarm() stops all injection (used to model the end of
// a fault burst and to keep teardown paths clean).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/mutex.hpp"

namespace tdmd::faults {

/// Hook sites threaded through the serving stack.
enum class FaultSite : int {
  /// FlowCoverageIndex::AddFlow / RemoveFlow, before any mutation.
  kIndexDelta = 0,
  /// Each SolveIncrementalGtp greedy round.
  kGreedyRound = 1,
  /// A shard worker executing a routed command (kThrow models a worker
  /// abort that destroys the shard's engine mid-batch).
  kShardWorker = 2,
  /// A shard worker draining its command queue (kDelay models a stalled
  /// consumer; the coordinator's stall detector watches for it).
  kQueueDrain = 3,
  /// io::AtomicFileWriter mid-payload (kThrow models a process crash
  /// between opening the temp file and the atomic rename — the target
  /// checkpoint must be left intact).
  kCheckpointWrite = 4,
};
inline constexpr std::size_t kNumFaultSites = 5;

const char* FaultSiteName(FaultSite site);

enum class FaultKind : int { kNone = 0, kThrow, kDelay, kCancel };

const char* FaultKindName(FaultKind kind);

/// The exception raised by a kThrow injection.  Catch it where a real
/// fault of the hooked component would surface.
class FaultInjectedError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Per-site injection rates.  Probabilities are evaluated cumulatively
/// (throw, then delay, then cancel) against one uniform draw, so their sum
/// must not exceed 1.
struct SiteSpec {
  double throw_probability = 0.0;
  double delay_probability = 0.0;
  double cancel_probability = 0.0;
  /// Sleep applied by a kDelay injection at this site.
  std::chrono::milliseconds delay{1};
};

/// A full fault plan: one seed, one spec per site.  Value type so tests
/// and benches can build plans declaratively.
struct FaultSpec {
  std::uint64_t seed = 0;
  std::array<SiteSpec, kNumFaultSites> sites{};

  SiteSpec& at(FaultSite site) {
    return sites[static_cast<std::size_t>(site)];
  }
  const SiteSpec& at(FaultSite site) const {
    return sites[static_cast<std::size_t>(site)];
  }

  /// Convenience: the same spec at every site.
  static FaultSpec Uniform(std::uint64_t seed, const SiteSpec& site_spec);
};

/// One injected fault, as recorded in the replay log.
struct FaultEvent {
  FaultSite site = FaultSite::kIndexDelta;
  FaultKind kind = FaultKind::kNone;
  /// 0-based visit ordinal at the site when the fault fired.
  std::uint64_t ordinal = 0;

  friend bool operator==(const FaultEvent& a, const FaultEvent& b) {
    return a.site == b.site && a.kind == b.kind && a.ordinal == b.ordinal;
  }
};

/// Aggregate counters (all sites combined).
struct FaultCounters {
  std::uint64_t visits = 0;
  std::uint64_t throws_injected = 0;
  std::uint64_t delays_injected = 0;
  std::uint64_t cancels_injected = 0;
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultSpec spec);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// The deterministic decision for visit `ordinal` at `site` — a pure
  /// function of the spec, exposed so tests can predict and replay the
  /// injected sequence without an injector instance.
  static FaultKind Decide(const FaultSpec& spec, FaultSite site,
                          std::uint64_t ordinal);

  /// Draws this visit's ordinal, decides, records, and *executes* the
  /// fault: kThrow raises FaultInjectedError, kDelay sleeps, kCancel (and
  /// only kCancel) makes the call return true.  Disarmed injectors return
  /// false without consuming an ordinal.
  bool MaybeInject(FaultSite site) TDMD_EXCLUDES(mu_);

  /// Stops (resp. resumes) injection.  Disarmed visits do not consume
  /// ordinals, so an arm/disarm window replays deterministically as long
  /// as the armed visit sequence is deterministic.
  void Disarm() { armed_.store(false, std::memory_order_relaxed); }
  void Arm() { armed_.store(true, std::memory_order_relaxed); }
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  const FaultSpec& spec() const { return spec_; }

  /// Copy of the ordered injected-fault log (per-site order is exact; the
  /// interleaving across sites follows execution order).
  std::vector<FaultEvent> Events() const TDMD_EXCLUDES(mu_);

  FaultCounters counters() const TDMD_EXCLUDES(mu_);

 private:
  FaultSpec spec_;  // immutable after construction
  std::atomic<bool> armed_{true};
  std::array<std::atomic<std::uint64_t>, kNumFaultSites> next_ordinal_{};

  mutable Mutex mu_;
  std::vector<FaultEvent> events_ TDMD_GUARDED_BY(mu_);
  FaultCounters counters_ TDMD_GUARDED_BY(mu_);
};

}  // namespace tdmd::faults
