#include "common/fault_injection.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/stopwatch.h"

namespace sia {
namespace {

// Every test leaves the process-wide registry clean; armed points
// otherwise leak into later tests (and other suites in this binary).
class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultRegistry::Instance().DisarmAll(); }
  void TearDown() override { FaultRegistry::Instance().DisarmAll(); }

  FaultRegistry& reg() { return FaultRegistry::Instance(); }
};

Status GuardedOperation() {
  SIA_FAULT_INJECT("smt.check");
  return Status::OK();
}

Result<int> GuardedResultOperation() {
  SIA_FAULT_INJECT("engine.scan");
  return 42;
}

TEST_F(FaultInjectionTest, DisabledByDefault) {
  EXPECT_FALSE(FaultRegistry::Enabled());
  EXPECT_TRUE(GuardedOperation().ok());
  EXPECT_TRUE(reg().Fire("smt.check").ok());
}

TEST_F(FaultInjectionTest, UnknownPointIsRejected) {
  const Status st = reg().Arm("smt.chekc", FaultSpec{});
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(FaultRegistry::Enabled());
}

TEST_F(FaultInjectionTest, OnceFailsExactlyOnce) {
  ASSERT_TRUE(reg().Arm("smt.check", FaultSpec{}).ok());
  EXPECT_TRUE(FaultRegistry::Enabled());

  const Status first = GuardedOperation();
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.code(), StatusCode::kInternal);
  EXPECT_NE(first.message().find("smt.check"), std::string::npos);

  EXPECT_TRUE(GuardedOperation().ok());
  EXPECT_TRUE(GuardedOperation().ok());
  EXPECT_EQ(reg().hits("smt.check"), 3u);
  EXPECT_EQ(reg().failures_injected("smt.check"), 1u);
}

TEST_F(FaultInjectionTest, AlwaysFailsEveryHit) {
  FaultSpec spec;
  spec.mode = FaultMode::kAlways;
  ASSERT_TRUE(reg().Arm("engine.scan", spec).ok());
  for (int i = 0; i < 3; ++i) {
    const Result<int> r = GuardedResultOperation();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  }
  EXPECT_EQ(reg().failures_injected("engine.scan"), 3u);
}

TEST_F(FaultInjectionTest, NthFailsExactlyTheNthHit) {
  FaultSpec spec;
  spec.mode = FaultMode::kNth;
  spec.nth = 3;
  ASSERT_TRUE(reg().Arm("smt.check", spec).ok());
  EXPECT_TRUE(GuardedOperation().ok());
  EXPECT_TRUE(GuardedOperation().ok());
  EXPECT_FALSE(GuardedOperation().ok());
  EXPECT_TRUE(GuardedOperation().ok());
  EXPECT_EQ(reg().failures_injected("smt.check"), 1u);
}

TEST_F(FaultInjectionTest, ProbabilisticExtremes) {
  FaultSpec never;
  never.mode = FaultMode::kProbabilistic;
  never.probability = 0.0;
  ASSERT_TRUE(reg().Arm("smt.check", never).ok());
  for (int i = 0; i < 20; ++i) EXPECT_TRUE(GuardedOperation().ok());

  FaultSpec certain;
  certain.mode = FaultMode::kProbabilistic;
  certain.probability = 1.0;
  ASSERT_TRUE(reg().Arm("smt.check", certain).ok());
  for (int i = 0; i < 20; ++i) EXPECT_FALSE(GuardedOperation().ok());
}

// A prob: point draws from its own stream: hits on another armed point
// in between do not change which of its own hits fail.
TEST_F(FaultInjectionTest, ProbabilisticDrawsArePerPoint) {
  FaultSpec half;
  half.mode = FaultMode::kProbabilistic;
  half.probability = 0.5;
  const auto fails_of_a = [&](bool interleave_b) {
    reg().DisarmAll();
    EXPECT_TRUE(reg().Arm("smt.check", half).ok());
    EXPECT_TRUE(reg().Arm("engine.scan", half).ok());
    std::vector<bool> fails;
    for (int i = 0; i < 64; ++i) {
      fails.push_back(!GuardedOperation().ok());
      if (interleave_b) (void)GuardedResultOperation();
    }
    return fails;
  };
  const std::vector<bool> alone = fails_of_a(false);
  EXPECT_EQ(fails_of_a(true), alone);
  const auto failures = std::count(alone.begin(), alone.end(), true);
  EXPECT_GT(failures, 0);
  EXPECT_LT(failures, 64);
}

TEST_F(FaultInjectionTest, LatencySleepsButSucceeds) {
  FaultSpec spec;
  spec.mode = FaultMode::kLatency;
  spec.latency_ms = 30;
  ASSERT_TRUE(reg().Arm("smt.check", spec).ok());
  Stopwatch sw;
  EXPECT_TRUE(GuardedOperation().ok());
  EXPECT_GE(sw.ElapsedMillis(), 25.0);
  EXPECT_EQ(reg().failures_injected("smt.check"), 0u);
}

TEST_F(FaultInjectionTest, DisarmHealsThePoint) {
  FaultSpec spec;
  spec.mode = FaultMode::kAlways;
  ASSERT_TRUE(reg().Arm("smt.check", spec).ok());
  EXPECT_FALSE(GuardedOperation().ok());
  reg().Disarm("smt.check");
  EXPECT_FALSE(FaultRegistry::Enabled());
  EXPECT_TRUE(GuardedOperation().ok());
}

TEST_F(FaultInjectionTest, SpecParsing) {
  EXPECT_EQ(FaultSpec::Parse("once")->mode, FaultMode::kOnce);
  EXPECT_EQ(FaultSpec::Parse("")->mode, FaultMode::kOnce);
  EXPECT_EQ(FaultSpec::Parse("always")->mode, FaultMode::kAlways);

  const Result<FaultSpec> nth = FaultSpec::Parse("nth:7");
  ASSERT_TRUE(nth.ok());
  EXPECT_EQ(nth->mode, FaultMode::kNth);
  EXPECT_EQ(nth->nth, 7u);

  const Result<FaultSpec> prob = FaultSpec::Parse("prob:0.25");
  ASSERT_TRUE(prob.ok());
  EXPECT_EQ(prob->mode, FaultMode::kProbabilistic);
  EXPECT_DOUBLE_EQ(prob->probability, 0.25);

  const Result<FaultSpec> lat = FaultSpec::Parse("latency:50");
  ASSERT_TRUE(lat.ok());
  EXPECT_EQ(lat->mode, FaultMode::kLatency);
  EXPECT_EQ(lat->latency_ms, 50u);

  EXPECT_FALSE(FaultSpec::Parse("sometimes").ok());
  EXPECT_FALSE(FaultSpec::Parse("nth:0").ok());
  EXPECT_FALSE(FaultSpec::Parse("nth:x").ok());
  EXPECT_FALSE(FaultSpec::Parse("prob:1.5").ok());
  EXPECT_FALSE(FaultSpec::Parse("prob:").ok());
  EXPECT_FALSE(FaultSpec::Parse("latency:ms").ok());
}

TEST_F(FaultInjectionTest, ArmFromSpecString) {
  ASSERT_TRUE(
      reg().ArmFromSpec("smt.check=once, engine.scan=latency:1").ok());
  EXPECT_FALSE(GuardedOperation().ok());      // once: first hit fails
  EXPECT_TRUE(GuardedResultOperation().ok()); // latency: never fails

  // A bare point name means "once".
  reg().DisarmAll();
  ASSERT_TRUE(reg().ArmFromSpec("learn.train").ok());
  EXPECT_FALSE(reg().Fire("learn.train").ok());
  EXPECT_TRUE(reg().Fire("learn.train").ok());

  EXPECT_FALSE(reg().ArmFromSpec("no.such.point=always").ok());
  EXPECT_FALSE(reg().ArmFromSpec("smt.check=bogus").ok());
}

TEST_F(FaultInjectionTest, KnownPointsCoverThePipeline) {
  const auto& points = FaultRegistry::KnownPoints();
  EXPECT_GE(points.size(), 7u);
  for (const char* expected :
       {"smt.check", "smt.optimize", "synth.sample", "verify.cex",
        "verify.check", "learn.train", "engine.scan"}) {
    EXPECT_NE(std::find(points.begin(), points.end(), expected),
              points.end())
        << expected;
  }
}

}  // namespace
}  // namespace sia
