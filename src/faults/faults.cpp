#include "faults/faults.hpp"

#include <thread>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace tdmd::faults {

namespace {

/// Distinct odd multipliers decorrelate the per-site hash streams; the
/// constants are the SplitMix64/PCG mixing multipliers.
constexpr std::uint64_t kSiteSalt[kNumFaultSites] = {
    0xBF58476D1CE4E5B9ULL,
    0x94D049BB133111EBULL,
    0xD6E8FEB86659FD93ULL,
    0xA5A5B4C9E1D3F715ULL,
    0xC2B2AE3D27D4EB4FULL,
};

double UniformDraw(std::uint64_t seed, FaultSite site,
                   std::uint64_t ordinal) {
  SplitMix64 mixer(seed ^
                   (kSiteSalt[static_cast<std::size_t>(site)] *
                    (ordinal + 1)));
  // 53 uniform bits -> [0, 1), the standard double construction.
  return static_cast<double>(mixer.Next() >> 11) * 0x1.0p-53;
}

}  // namespace

const char* FaultSiteName(FaultSite site) {
  switch (site) {
    case FaultSite::kIndexDelta:
      return "index-delta";
    case FaultSite::kGreedyRound:
      return "greedy-round";
    case FaultSite::kShardWorker:
      return "shard-worker";
    case FaultSite::kQueueDrain:
      return "queue-drain";
    case FaultSite::kCheckpointWrite:
      return "checkpoint-write";
  }
  return "unknown";
}

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone:
      return "none";
    case FaultKind::kThrow:
      return "throw";
    case FaultKind::kDelay:
      return "delay";
    case FaultKind::kCancel:
      return "cancel";
  }
  return "unknown";
}

FaultSpec FaultSpec::Uniform(std::uint64_t seed, const SiteSpec& site_spec) {
  FaultSpec spec;
  spec.seed = seed;
  spec.sites.fill(site_spec);
  return spec;
}

FaultInjector::FaultInjector(FaultSpec spec) : spec_(spec) {
  for (const SiteSpec& site : spec_.sites) {
    TDMD_CHECK_MSG(site.throw_probability >= 0.0 &&
                       site.delay_probability >= 0.0 &&
                       site.cancel_probability >= 0.0 &&
                       site.throw_probability + site.delay_probability +
                               site.cancel_probability <=
                           1.0,
                   "site fault probabilities must be non-negative and sum "
                   "to at most 1");
  }
}

FaultKind FaultInjector::Decide(const FaultSpec& spec, FaultSite site,
                                std::uint64_t ordinal) {
  const SiteSpec& s = spec.at(site);
  const double u = UniformDraw(spec.seed, site, ordinal);
  if (u < s.throw_probability) return FaultKind::kThrow;
  if (u < s.throw_probability + s.delay_probability) return FaultKind::kDelay;
  if (u < s.throw_probability + s.delay_probability + s.cancel_probability) {
    return FaultKind::kCancel;
  }
  return FaultKind::kNone;
}

bool FaultInjector::MaybeInject(FaultSite site) {
  if (!armed()) return false;
  const std::uint64_t ordinal =
      next_ordinal_[static_cast<std::size_t>(site)].fetch_add(
          1, std::memory_order_relaxed);
  const FaultKind kind = Decide(spec_, site, ordinal);
  {
    MutexLock lock(mu_);
    ++counters_.visits;
    switch (kind) {
      case FaultKind::kNone:
        break;
      case FaultKind::kThrow:
        ++counters_.throws_injected;
        break;
      case FaultKind::kDelay:
        ++counters_.delays_injected;
        break;
      case FaultKind::kCancel:
        ++counters_.cancels_injected;
        break;
    }
    if (kind != FaultKind::kNone) {
      events_.push_back(FaultEvent{site, kind, ordinal});
    }
  }
  switch (kind) {
    case FaultKind::kNone:
      return false;
    case FaultKind::kThrow:
      throw FaultInjectedError(std::string("injected fault at ") +
                               FaultSiteName(site) + " visit " +
                               std::to_string(ordinal));
    case FaultKind::kDelay:
      std::this_thread::sleep_for(spec_.at(site).delay);
      return false;
    case FaultKind::kCancel:
      return true;
  }
  return false;
}

std::vector<FaultEvent> FaultInjector::Events() const {
  MutexLock lock(mu_);
  return events_;
}

FaultCounters FaultInjector::counters() const {
  MutexLock lock(mu_);
  return counters_;
}

}  // namespace tdmd::faults
