#include <gtest/gtest.h>

#include "ir/binder.h"
#include "ir/builder.h"
#include "ir/evaluator.h"
#include "synth/interval_synthesizer.h"
#include "synth/verifier.h"

namespace sia {
namespace {

using namespace dsl;  // NOLINT

Schema Abc() {
  Schema s;
  s.AddColumn({"t", "a", DataType::kInteger, false});
  s.AddColumn({"t", "b", DataType::kInteger, false});
  s.AddColumn({"t", "d", DataType::kDate, false});
  return s;
}

ExprPtr BindOrDie(const ExprPtr& e, const Schema& s) {
  auto r = Bind(e, s);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.value();
}

TEST(IntervalSynthesizerTest, TwoSidedBound) {
  Schema s = Abc();
  // a - b < 20 AND b < 0 AND a > b - 5  =>  over {a}: hull is
  // a <= 18 (a <= b + 19 <= 18) and a >= ... a > b - 5 with b unbounded
  // below? b < 0 only, so b can be very negative -> a can be very
  // negative: lower bound unbounded. Expect a <= 18 only.
  ExprPtr p = BindOrDie(
      (Col("a") - Col("b") < Lit(20)) && (Col("b") < Lit(0)), s);
  auto r = SynthesizeInterval(p, s, 0);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(r->has_predicate());
  EXPECT_EQ(r->predicate->ToString(), "t.a <= 18");
  EXPECT_EQ(r->status, SynthesisStatus::kValid);  // every hull is kValid

  auto valid = VerifyImplies(p, r->predicate, s);
  ASSERT_TRUE(valid.ok());
  EXPECT_EQ(*valid, VerifyResult::kValid);
}

TEST(IntervalSynthesizerTest, BothSidesBounded) {
  Schema s = Abc();
  ExprPtr p = BindOrDie((Col("a") > Col("b")) && (Col("b") >= Lit(10)) &&
                            (Col("a") <= Lit(50)),
                        s);
  auto r = SynthesizeInterval(p, s, 0);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->has_predicate());
  EXPECT_EQ(r->predicate->ToString(), "t.a >= 11 AND t.a <= 50");
  EXPECT_EQ(r->status, SynthesisStatus::kValid);  // every hull is kValid
}

TEST(IntervalSynthesizerTest, HoleMakesHullSuboptimal) {
  Schema s = Abc();
  // a in [0,10] or [20,30] (b selects the branch): hull is [0,30] which
  // accepts the unsatisfiable gap (11..19) -> valid, like every hull.
  ExprPtr p = BindOrDie(((Col("a") >= Lit(0)) && (Col("a") <= Lit(10)) &&
                         (Col("b") == Lit(0))) ||
                            ((Col("a") >= Lit(20)) && (Col("a") <= Lit(30)) &&
                             (Col("b") == Lit(1))),
                        s);
  auto r = SynthesizeInterval(p, s, 0);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->has_predicate());
  EXPECT_EQ(r->predicate->ToString(), "t.a >= 0 AND t.a <= 30");
  EXPECT_EQ(r->status, SynthesisStatus::kValid);
}

TEST(IntervalSynthesizerTest, PointInterval) {
  Schema s = Abc();
  ExprPtr p = BindOrDie((Col("a") >= Lit(7)) && (Col("a") <= Lit(7)) &&
                            (Col("b") > Lit(0)),
                        s);
  auto r = SynthesizeInterval(p, s, 0);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->has_predicate());
  EXPECT_EQ(r->predicate->ToString(), "t.a = 7");
  EXPECT_EQ(r->status, SynthesisStatus::kValid);  // every hull is kValid
}

TEST(IntervalSynthesizerTest, UnboundedColumnYieldsNone) {
  Schema s = Abc();
  ExprPtr p = BindOrDie(Col("a") == Col("b"), s);
  auto r = SynthesizeInterval(p, s, 0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status, SynthesisStatus::kNone);
}

TEST(IntervalSynthesizerTest, UnsatisfiableYieldsFalse) {
  Schema s = Abc();
  ExprPtr p = BindOrDie((Col("a") > Lit(5)) && (Col("a") < Lit(0)), s);
  auto r = SynthesizeInterval(p, s, 0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status, SynthesisStatus::kOptimal);
  EXPECT_TRUE(r->predicate->IsFalseLiteral());
}

TEST(IntervalSynthesizerTest, DateColumnRendersDateLiterals) {
  Schema s = Abc();
  // d < 1993-06-01 (day 8552) AND d - b > 0 AND b > 8000
  ExprPtr p = BindOrDie((Col("d") < DateL(8552)) &&
                            (Col("d") - Col("b") > Lit(0)) &&
                            (Col("b") > Lit(8000)),
                        s);
  auto r = SynthesizeInterval(p, s, 2);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->has_predicate());
  EXPECT_EQ(r->predicate->ToString(),
            "t.d >= DATE '1991-11-29' AND t.d <= DATE '1993-05-31'");
}

TEST(IntervalSynthesizerTest, RejectsUnreferencedColumn) {
  Schema s = Abc();
  ExprPtr p = BindOrDie(Col("a") > Lit(0), s);
  EXPECT_FALSE(SynthesizeInterval(p, s, 1).ok());
}

TEST(IntervalSynthesizerTest, AgreesWithCegisOnSimpleCases) {
  // On one-column problems without holes, where CEGIS converges to
  // optimal, the hull must describe the same set of accepted values.
  Schema s = Abc();
  const std::vector<ExprPtr> predicates = {
      BindOrDie((Col("a") - Col("b") < Lit(20)) && (Col("b") < Lit(0)), s),
      BindOrDie((Col("a") + Col("b") <= Lit(100)) && (Col("b") >= Lit(60)),
                s),
  };
  int compared = 0;
  for (const ExprPtr& p : predicates) {
    auto interval = SynthesizeInterval(p, s, 0);
    ASSERT_TRUE(interval.ok());
    auto cegis = Synthesize(p, s, {0});
    ASSERT_TRUE(cegis.ok());
    if (cegis->status == SynthesisStatus::kOptimal) {
      ++compared;
      auto eq = VerifyEquivalent(interval->predicate, cegis->predicate, s);
      ASSERT_TRUE(eq.ok());
      EXPECT_EQ(*eq, VerifyResult::kValid)
          << "interval: " << interval->predicate->ToString()
          << " vs cegis: " << cegis->predicate->ToString();
    }
  }
  EXPECT_GT(compared, 0);  // the comparison must not be vacuous
}

}  // namespace
}  // namespace sia
