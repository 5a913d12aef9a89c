#include "util/failpoint.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "telemetry/metrics.h"
#include "util/logging.h"
#include "util/stopwatch.h"

/// \file failpoint_test.cc
/// Unit tests for the failpoint registry: spec parsing, action semantics,
/// deterministic probability streams, counters, RAII arming, and the
/// telemetry mirror.

namespace phocus {
namespace failpoint {
namespace {

/// Every test leaves the registry disarmed for the next one.
class FailpointTest : public ::testing::Test {
 protected:
  void TearDown() override { DeactivateAll(); }
};

TEST_F(FailpointTest, DisarmedIsInert) {
  EXPECT_FALSE(AnyActive());
  EXPECT_NO_THROW(Trigger("never.armed"));
  EXPECT_FALSE(Evaluate("never.armed").armed());
  EXPECT_EQ(HitCount("never.armed"), 0u);
}

TEST_F(FailpointTest, ErrorActionThrowsInjectedFault) {
  Configure("test.error", "error");
  EXPECT_TRUE(AnyActive());
  EXPECT_THROW(Trigger("test.error"), InjectedFault);
  // InjectedFault is a CheckFailure, so ordinary recovery paths catch it.
  EXPECT_THROW(Trigger("test.error"), CheckFailure);
}

TEST_F(FailpointTest, CrashActionIsNotAnInjectedFault) {
  Configure("test.crash", "crash");
  EXPECT_THROW(Trigger("test.crash"), InjectedCrash);
  // Production code catching InjectedFault must not swallow a simulated
  // process death.
  try {
    Trigger("test.crash");
    FAIL() << "expected InjectedCrash";
  } catch (const InjectedFault&) {
    FAIL() << "InjectedCrash must not be caught as InjectedFault";
  } catch (const InjectedCrash&) {
  }
}

TEST_F(FailpointTest, ShortWriteDegradesToErrorAtGenericSites) {
  Configure("test.short", "short_write");
  EXPECT_THROW(Trigger("test.short"), InjectedFault);
}

TEST_F(FailpointTest, DelayActionSleepsThenContinues) {
  Configure("test.delay", "delay:20");
  Stopwatch timer;
  EXPECT_NO_THROW(Trigger("test.delay"));
  EXPECT_GE(timer.ElapsedSeconds(), 0.015);
  EXPECT_EQ(TriggerCount("test.delay"), 1u);
}

TEST_F(FailpointTest, MaybeDelayIgnoresThrowingActions) {
  Configure("test.noescape", "error");
  EXPECT_NO_THROW(MaybeDelay("test.noescape"));
  EXPECT_EQ(TriggerCount("test.noescape"), 1u);
}

TEST_F(FailpointTest, DeactivateDisarmsAndReportsPriorState) {
  Configure("test.off", "error");
  EXPECT_TRUE(Deactivate("test.off"));
  EXPECT_FALSE(Deactivate("test.off"));
  EXPECT_FALSE(AnyActive());
  EXPECT_NO_THROW(Trigger("test.off"));
}

TEST_F(FailpointTest, ScopedFailpointDisarmsOnScopeExit) {
  {
    ScopedFailpoint scoped("test.scoped", "error");
    EXPECT_THROW(Trigger("test.scoped"), InjectedFault);
  }
  EXPECT_FALSE(AnyActive());
  EXPECT_NO_THROW(Trigger("test.scoped"));
}

TEST_F(FailpointTest, CountersTrackHitsAndTriggers) {
  Configure("test.counted", "error@0.0");  // armed but never fires
  for (int i = 0; i < 5; ++i) EXPECT_NO_THROW(Trigger("test.counted"));
  EXPECT_EQ(HitCount("test.counted"), 5u);
  EXPECT_EQ(TriggerCount("test.counted"), 0u);

  Configure("test.counted", "error");  // counters survive re-configuration
  EXPECT_THROW(Trigger("test.counted"), InjectedFault);
  EXPECT_EQ(HitCount("test.counted"), 6u);
  EXPECT_EQ(TriggerCount("test.counted"), 1u);
}

TEST_F(FailpointTest, ProbabilityStreamIsDeterministicInTheSeed) {
  auto schedule = [](std::uint64_t seed) {
    SetSeed(seed);
    Configure("test.prob", "error@0.3");
    std::vector<bool> fired;
    for (int i = 0; i < 200; ++i) {
      fired.push_back(Evaluate("test.prob").armed());
    }
    Deactivate("test.prob");
    return fired;
  };
  const std::vector<bool> first = schedule(42);
  const std::vector<bool> second = schedule(42);
  const std::vector<bool> other = schedule(43);
  EXPECT_EQ(first, second) << "same seed must replay the same fault schedule";
  EXPECT_NE(first, other) << "different seeds must differ somewhere";

  int fired_count = 0;
  for (bool f : first) fired_count += f ? 1 : 0;
  EXPECT_GT(fired_count, 200 * 3 / 10 / 2);  // loose: ~60 expected
  EXPECT_LT(fired_count, 200 * 3 / 10 * 2);
}

TEST_F(FailpointTest, DistinctNamesDrawFromDistinctStreams) {
  SetSeed(7);
  Configure("test.stream_a", "error@0.5");
  Configure("test.stream_b", "error@0.5");
  std::vector<bool> a, b;
  for (int i = 0; i < 64; ++i) {
    a.push_back(Evaluate("test.stream_a").armed());
    b.push_back(Evaluate("test.stream_b").armed());
  }
  EXPECT_NE(a, b);
}

TEST_F(FailpointTest, MalformedSpecsAreRejected) {
  EXPECT_THROW(Configure("test.bad", "explode"), CheckFailure);
  EXPECT_THROW(Configure("test.bad", "error@1.5"), CheckFailure);
  EXPECT_THROW(Configure("test.bad", "error@-0.1"), CheckFailure);
  EXPECT_THROW(Configure("test.bad", "error@"), CheckFailure);
  EXPECT_THROW(Configure("test.bad", "delay:-5"), CheckFailure);
  EXPECT_THROW(Configure("test.bad", "delay:"), CheckFailure);
  EXPECT_THROW(Configure("", "error"), CheckFailure);
  EXPECT_FALSE(AnyActive()) << "rejected specs must not arm anything";
}

TEST_F(FailpointTest, ArmedNamesListsActivePointsSorted) {
  Configure("test.list_b", "error");
  Configure("test.list_a", "delay:1");
  const std::vector<std::string> names = ArmedNames();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "test.list_a");
  EXPECT_EQ(names[1], "test.list_b");
  Deactivate("test.list_b");
  EXPECT_EQ(ArmedNames(), std::vector<std::string>{"test.list_a"});
}

TEST_F(FailpointTest, CountersMirrorIntoTheMetricsRegistry) {
  telemetry::MetricsRegistry local;
  telemetry::ScopedMetricsRegistry scope(&local);
  Configure("test.mirror", "error@0.0");
  for (int i = 0; i < 3; ++i) Evaluate("test.mirror");
  EXPECT_EQ(local.GetCounter("failpoint.test.mirror.hits").value(), 3u);
  EXPECT_EQ(local.GetCounter("failpoint.test.mirror.triggers").value(), 0u);
}

}  // namespace
}  // namespace failpoint
}  // namespace phocus
