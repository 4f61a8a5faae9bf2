#include "faults/faults.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace tdmd::faults {
namespace {

FaultSpec ThrowHeavySpec(std::uint64_t seed) {
  SiteSpec site;
  site.throw_probability = 0.3;
  site.delay_probability = 0.1;
  site.cancel_probability = 0.2;
  return FaultSpec::Uniform(seed, site);
}

TEST(FaultsTest, DecideIsAPureFunctionOfSeedSiteOrdinal) {
  const FaultSpec spec = ThrowHeavySpec(42);
  for (std::uint64_t ordinal = 0; ordinal < 200; ++ordinal) {
    for (FaultSite site : {FaultSite::kIndexDelta, FaultSite::kGreedyRound,
                           FaultSite::kShardWorker}) {
      EXPECT_EQ(FaultInjector::Decide(spec, site, ordinal),
                FaultInjector::Decide(spec, site, ordinal));
    }
  }
}

TEST(FaultsTest, DifferentSeedsProduceDifferentSequences) {
  const FaultSpec a = ThrowHeavySpec(1);
  const FaultSpec b = ThrowHeavySpec(2);
  bool any_difference = false;
  for (std::uint64_t ordinal = 0; ordinal < 200 && !any_difference;
       ++ordinal) {
    any_difference = FaultInjector::Decide(a, FaultSite::kIndexDelta,
                                           ordinal) !=
                     FaultInjector::Decide(b, FaultSite::kIndexDelta,
                                           ordinal);
  }
  EXPECT_TRUE(any_difference);
}

TEST(FaultsTest, ZeroProbabilitiesNeverInject) {
  FaultInjector injector(FaultSpec{});  // all rates zero
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(injector.MaybeInject(FaultSite::kIndexDelta));
  }
  const FaultCounters counters = injector.counters();
  EXPECT_EQ(counters.visits, 100u);
  EXPECT_EQ(counters.throws_injected, 0u);
  EXPECT_EQ(counters.delays_injected, 0u);
  EXPECT_EQ(counters.cancels_injected, 0u);
  EXPECT_TRUE(injector.Events().empty());
}

TEST(FaultsTest, InjectorExecutesTheDecidedFault) {
  const FaultSpec spec = ThrowHeavySpec(7);
  FaultInjector injector(spec);
  for (std::uint64_t ordinal = 0; ordinal < 100; ++ordinal) {
    const FaultKind expected =
        FaultInjector::Decide(spec, FaultSite::kGreedyRound, ordinal);
    if (expected == FaultKind::kThrow) {
      EXPECT_THROW(injector.MaybeInject(FaultSite::kGreedyRound),
                   FaultInjectedError);
    } else {
      EXPECT_EQ(injector.MaybeInject(FaultSite::kGreedyRound),
                expected == FaultKind::kCancel);
    }
  }
}

TEST(FaultsTest, EventLogReplaysIdenticallyAcrossRuns) {
  const auto run = [](std::uint64_t seed) {
    FaultInjector injector(ThrowHeavySpec(seed));
    for (int i = 0; i < 150; ++i) {
      try {
        injector.MaybeInject(FaultSite::kIndexDelta);
      } catch (const FaultInjectedError&) {
      }
    }
    return injector.Events();
  };
  const std::vector<FaultEvent> first = run(99);
  const std::vector<FaultEvent> second = run(99);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(FaultsTest, DisarmedVisitsConsumeNoOrdinals) {
  const FaultSpec spec = ThrowHeavySpec(13);
  // Reference run: 50 armed visits straight through.
  FaultInjector reference(spec);
  for (int i = 0; i < 50; ++i) {
    try {
      reference.MaybeInject(FaultSite::kShardWorker);
    } catch (const FaultInjectedError&) {
    }
  }
  // Same 50 armed visits with a disarmed window in the middle.
  FaultInjector windowed(spec);
  for (int i = 0; i < 25; ++i) {
    try {
      windowed.MaybeInject(FaultSite::kShardWorker);
    } catch (const FaultInjectedError&) {
    }
  }
  windowed.Disarm();
  for (int i = 0; i < 40; ++i) {
    EXPECT_FALSE(windowed.MaybeInject(FaultSite::kShardWorker));
  }
  windowed.Arm();
  for (int i = 0; i < 25; ++i) {
    try {
      windowed.MaybeInject(FaultSite::kShardWorker);
    } catch (const FaultInjectedError&) {
    }
  }
  EXPECT_EQ(reference.Events(), windowed.Events());
  EXPECT_EQ(windowed.counters().visits, 50u);  // armed visits only
}

TEST(FaultsTest, SiteNamesAreStable) {
  EXPECT_STREQ(FaultSiteName(FaultSite::kIndexDelta), "index-delta");
  EXPECT_STREQ(FaultSiteName(FaultSite::kGreedyRound), "greedy-round");
  EXPECT_STREQ(FaultSiteName(FaultSite::kShardWorker), "shard-worker");
  EXPECT_STREQ(FaultKindName(FaultKind::kThrow), "throw");
  EXPECT_STREQ(FaultKindName(FaultKind::kDelay), "delay");
  EXPECT_STREQ(FaultKindName(FaultKind::kCancel), "cancel");
}

}  // namespace
}  // namespace tdmd::faults
