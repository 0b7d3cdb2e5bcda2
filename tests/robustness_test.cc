// Failure injection and robustness: starved solver budgets, hostile
// parser inputs, degenerate expressions, and resource edges. Nothing here
// may crash; everything must degrade to a Status or a conservative
// synthesis outcome.
#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "common/deadline.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "engine/vector_filter.h"
#include "ir/binder.h"
#include "ir/builder.h"
#include "ir/evaluator.h"
#include "parser/lexer.h"
#include "parser/parser.h"
#include "rewrite/sia_rewriter.h"
#include "synth/interval_synthesizer.h"
#include "synth/synthesizer.h"
#include "synth/verifier.h"

namespace sia {
namespace {

using namespace dsl;  // NOLINT

Schema Abc() {
  Schema s;
  s.AddColumn({"t", "a", DataType::kInteger, false});
  s.AddColumn({"t", "b", DataType::kInteger, false});
  return s;
}

ExprPtr BindOrDie(const ExprPtr& e, const Schema& s) {
  auto r = Bind(e, s);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.value();
}

// --- Starved solver budgets ------------------------------------------------

TEST(StarvedSolverTest, SynthesisDegradesGracefully) {
  Schema s = Abc();
  ExprPtr p = BindOrDie((Col("a") - Col("b") < Lit(20)) && (Col("b") < Lit(0)),
                        s);
  SynthesisOptions opts;
  opts.budget = SolverBudget::Unbounded(1);
  auto r = Synthesize(p, s, {0}, opts);
  // With a 1ms budget the solver may still manage trivial queries; the
  // contract is only "no crash, and any predicate returned verifies".
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  if (r->has_predicate() && !r->predicate->IsFalseLiteral()) {
    auto v = VerifyImplies(p, r->predicate, s);
    ASSERT_TRUE(v.ok());
    EXPECT_NE(*v, VerifyResult::kInvalid) << r->predicate->ToString();
  }
}

TEST(StarvedSolverTest, VerifyReportsUnknownNotWrongAnswer) {
  // A formula hard enough that 1ms is insufficient: multiplication of
  // variables (folded into an aux var, so actually easy) — instead use a
  // wide disjunction with large coefficients. Whatever the solver does,
  // the API must return one of the three enum values.
  Schema s = Abc();
  std::vector<ExprPtr> parts;
  for (int i = 1; i < 40; ++i) {
    parts.push_back(BindOrDie(Col("a") * Lit(i) + Col("b") * Lit(41 - i) >
                                  Lit(i * 1000),
                              s));
  }
  ExprPtr big = Expr::Or(parts);
  auto v = VerifyImplies(big, BindOrDie(Col("a") > Lit(-100000), s), s,
                         SolverBudget::Unbounded(1));
  ASSERT_TRUE(v.ok());
  SUCCEED();
}

TEST(StarvedSolverTest, IntervalSynthesizerTimeout) {
  Schema s = Abc();
  ExprPtr p = BindOrDie((Col("a") - Col("b") < Lit(20)) && (Col("b") < Lit(0)),
                        s);
  auto r = SynthesizeInterval(p, s, 0, SolverBudget::Unbounded(1));
  ASSERT_TRUE(r.ok());  // may be kNone/kValid/kOptimal, never a crash
}

TEST(StarvedSolverTest, ExpiredDeadlineSurfacesAsTimeoutNamingTheStage) {
  Schema s = Abc();
  ExprPtr p = BindOrDie((Col("a") - Col("b") < Lit(20)) && (Col("b") < Lit(0)),
                        s);
  const SolverBudget spent{Deadline::FromNowMillis(0)};
  auto v = VerifyImplies(p, BindOrDie(Col("a") < Lit(100), s), s, spent);
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kTimeout);
  EXPECT_NE(v.status().message().find("verify.check"), std::string::npos)
      << v.status().ToString();
}

TEST(StarvedSolverTest, StarvedEndToEndRewriteDeadline) {
  // A 1ms end-to-end deadline on the whole rewrite: every rung must give
  // up deterministically (kTimeout absorbed into "no rewrite"), in
  // bounded time, without crashing.
  Catalog catalog = Catalog::TpchCatalog();
  const std::string sql =
      "SELECT * FROM lineitem, orders WHERE o_orderkey = l_orderkey "
      "AND l_shipdate - o_orderdate < 20 AND o_orderdate < '1993-06-01'";
  RewriteOptions opts;
  opts.target_table = "lineitem";
  opts.synthesis.budget.deadline = Deadline::FromNowMillis(1);

  Stopwatch sw;
  auto outcome = RewriteQuery(sql, catalog, opts);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_FALSE(outcome->changed());
  EXPECT_EQ(outcome->rung, RewriteRung::kOriginal);
  EXPECT_FALSE(outcome->degradation.empty());
  // "Bounded": parse/bind plus a handful of refused solver calls. The
  // margin is generous for sanitizer builds; the point is that a starved
  // deadline cannot cost a full solver timeout per call.
  EXPECT_LT(sw.ElapsedMillis(), 10000.0);

  // Deterministic: a second starved run reaches the same outcome.
  opts.synthesis.budget.deadline = Deadline::FromNowMillis(0);
  auto again = RewriteQuery(sql, catalog, opts);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->changed());
  EXPECT_EQ(again->rung, RewriteRung::kOriginal);
}

TEST(StarvedSolverTest, SynthesisRecordsDeadlineExpiry) {
  Schema s = Abc();
  ExprPtr p = BindOrDie((Col("a") - Col("b") < Lit(20)) && (Col("b") < Lit(0)),
                        s);
  SynthesisOptions opts;
  opts.budget.deadline = Deadline::FromNowMillis(0);
  auto r = Synthesize(p, s, {0}, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();  // graceful, not an error
  EXPECT_EQ(r->status, SynthesisStatus::kNone);
  EXPECT_TRUE(r->deadline_expired);
  EXPECT_TRUE(r->solver_gave_up);
  EXPECT_EQ(r->timeout_stage, "synth.sample");
}

// --- Hostile parser inputs ---------------------------------------------------

TEST(ParserFuzzTest, RandomBytesNeverCrash) {
  Rng rng(4242);
  const char alphabet[] =
      "abcxyz01239 .,'()<>=+-*/_\t\nSELECTFROMWHEREANDORNOTBETWEENIN";
  for (int trial = 0; trial < 3000; ++trial) {
    std::string input;
    const int len = static_cast<int>(rng.Uniform(0, 60));
    for (int i = 0; i < len; ++i) {
      input += alphabet[rng.Uniform(0, sizeof(alphabet) - 2)];
    }
    // Must return either ok or an error status; must not throw or crash.
    auto q = ParseQuery(input);
    auto e = ParseExpression(input);
    (void)q;
    (void)e;
  }
  SUCCEED();
}

TEST(ParserFuzzTest, TokenMutationsOfValidQuery) {
  Rng rng(777);
  const std::string base =
      "SELECT * FROM lineitem, orders WHERE o_orderkey = l_orderkey AND "
      "l_shipdate - o_orderdate < 20 AND o_orderdate < '1993-06-01'";
  for (int trial = 0; trial < 2000; ++trial) {
    std::string mutated = base;
    const int edits = 1 + static_cast<int>(rng.Uniform(0, 3));
    for (int e = 0; e < edits; ++e) {
      const size_t pos = static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(mutated.size() - 1)));
      switch (rng.Uniform(0, 2)) {
        case 0:
          mutated.erase(pos, 1);
          break;
        case 1:
          mutated.insert(pos, 1, "()<>'*"[rng.Uniform(0, 5)]);
          break;
        default:
          mutated[pos] = "abc;"[rng.Uniform(0, 3)];
          break;
      }
    }
    auto q = ParseQuery(mutated);
    (void)q;
  }
  SUCCEED();
}

TEST(LexerEdgeTest, IntegerOverflowLiteral) {
  EXPECT_FALSE(Lex("99999999999999999999999999").ok());
}

TEST(LexerEdgeTest, EmptyAndWhitespaceOnly) {
  auto empty = Lex("");
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->size(), 1u);  // just END
  auto ws = Lex("  \t\n  -- comment only\n");
  ASSERT_TRUE(ws.ok());
  EXPECT_EQ(ws->size(), 1u);
}

// --- Degenerate expressions ---------------------------------------------------

TEST(DeepExpressionTest, VectorizedFilterDepthLimit) {
  Schema s = Abc();
  ExprPtr e = BindOrDie(Col("a"), s);
  for (int i = 0; i < 70; ++i) {
    e = Expr::Arith(ArithOp::kAdd, e,
                    Expr::Arith(ArithOp::kMul, BindOrDie(Col("b"), s),
                                Expr::IntLit(i)));
  }
  // Depth stays ~3 for left-deep chains: should compile fine.
  ExprPtr pred = Expr::Compare(CompareOp::kGt, e, Expr::IntLit(0));
  EXPECT_TRUE(VectorizedFilter::Compile(pred).ok());

  // Right-deep nesting drives the stack depth up; must be rejected, not
  // overflow.
  ExprPtr deep = Expr::IntLit(1);
  for (int i = 0; i < 70; ++i) {
    deep = Expr::Arith(ArithOp::kAdd, Expr::IntLit(1), deep);
  }
  ExprPtr deep_pred = Expr::Compare(CompareOp::kGt, deep, Expr::IntLit(0));
  auto compiled = VectorizedFilter::Compile(deep_pred);
  EXPECT_FALSE(compiled.ok());
  EXPECT_EQ(compiled.status().code(), StatusCode::kUnsupported);
}

TEST(DegenerateSynthesisTest, TrivialTruePredicate) {
  Schema s = Abc();
  // p = a = a is a tautology referencing a; no unsat tuples -> kNone.
  ExprPtr p = BindOrDie(Col("a") == Col("a"), s);
  auto r = Synthesize(p, s, {0});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status, SynthesisStatus::kNone);
}

TEST(DegenerateSynthesisTest, SingleSampleSpace) {
  Schema s = Abc();
  ExprPtr p = BindOrDie((Col("a") == Lit(5)) && (Col("b") > Lit(0)), s);
  auto r = Synthesize(p, s, {0});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status, SynthesisStatus::kOptimal);
  ASSERT_TRUE(r->has_predicate());
  Tuple yes({Value::Integer(5), Value::Integer(0)});
  Tuple no({Value::Integer(6), Value::Integer(0)});
  EXPECT_TRUE(Satisfies(*r->predicate, yes).value());
  EXPECT_FALSE(Satisfies(*r->predicate, no).value());
}

}  // namespace
}  // namespace sia
