#include "common/deadline.h"

#include <string>

#include <gtest/gtest.h>

namespace sia {
namespace {

TEST(DeadlineTest, DefaultIsInfinite) {
  const Deadline d;
  EXPECT_TRUE(d.infinite());
  EXPECT_FALSE(d.expired());
  EXPECT_EQ(d.RemainingMillis(), Deadline::kForeverMillis);
}

TEST(DeadlineTest, FromNowMillisCountsDown) {
  const Deadline d = Deadline::FromNowMillis(60000);
  EXPECT_FALSE(d.infinite());
  EXPECT_FALSE(d.expired());
  const int64_t remaining = d.RemainingMillis();
  EXPECT_GT(remaining, 0);
  EXPECT_LE(remaining, 60000);
}

TEST(DeadlineTest, ZeroAndNegativeAreExpired) {
  EXPECT_TRUE(Deadline::FromNowMillis(0).expired());
  EXPECT_TRUE(Deadline::FromNowMillis(-5).expired());
  EXPECT_EQ(Deadline::FromNowMillis(0).RemainingMillis(), 0);
}

TEST(DeadlineTest, CopySharesTheEndInstant) {
  const Deadline a = Deadline::FromNowMillis(60000);
  const Deadline b = a;  // the copy must not restart the clock
  EXPECT_LE(b.RemainingMillis(), a.RemainingMillis() + 1);
}

TEST(SolverBudgetTest, DefaultIsUnboundedWithSharedCap) {
  const SolverBudget b;
  EXPECT_FALSE(b.Exhausted());
  EXPECT_EQ(b.per_call_cap_ms, kDefaultSolverTimeoutMs);
  EXPECT_EQ(b.CallTimeoutMs(), kDefaultSolverTimeoutMs);
  EXPECT_TRUE(b.RequireRemaining("any").ok());
}

TEST(SolverBudgetTest, CallTimeoutIsCappedByRemainingWallClock) {
  // 50ms of wall clock left, 2000ms per-call cap: the call gets <=50ms.
  const SolverBudget b{Deadline::FromNowMillis(50), 2000};
  EXPECT_LE(b.CallTimeoutMs(), 50u);
  EXPECT_GE(b.CallTimeoutMs(), 1u);
}

TEST(SolverBudgetTest, CallTimeoutIsCappedByPerCallCap) {
  const SolverBudget b{Deadline::FromNowMillis(60000), 25};
  EXPECT_EQ(b.CallTimeoutMs(), 25u);
}

TEST(SolverBudgetTest, NeverReturnsZeroTimeout) {
  // Z3 treats timeout=0 as "no timeout", the opposite of what an
  // exhausted budget means; the floor is 1ms.
  const SolverBudget b{Deadline::FromNowMillis(0), 2000};
  EXPECT_EQ(b.CallTimeoutMs(), 1u);
}

TEST(SolverBudgetTest, RequireRemainingNamesTheStage) {
  const SolverBudget b{Deadline::FromNowMillis(0), 2000};
  EXPECT_TRUE(b.Exhausted());
  const Status st = b.RequireRemaining("synth.sample");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kTimeout);
  EXPECT_NE(st.message().find("synth.sample"), std::string::npos);
}

}  // namespace
}  // namespace sia
