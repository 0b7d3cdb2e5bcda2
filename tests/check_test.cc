// Tests for the check/ validation subsystem: one test per
// malformed-input class asserting its distinct diagnostic code, plan
// validation over hand-built and planner-built trees, seeded
// property/fuzz tests running the §6.3 workload generator through
// parse -> bind -> plan -> movement -> (rewrite) -> validate, and
// regression tests pinning down the 3VL / division-by-zero / date-range
// semantics the ExprValidator checks against.
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "check/diagnostic.h"
#include "check/expr_validator.h"
#include "check/plan_validator.h"
#include "common/date.h"
#include "engine/column_table.h"
#include "engine/executor.h"
#include "engine/vector_filter.h"
#include "ir/binder.h"
#include "ir/evaluator.h"
#include "ir/simplify.h"
#include "parser/parser.h"
#include "rewrite/plan.h"
#include "rewrite/planner.h"
#include "rewrite/rules.h"
#include "rewrite/sia_rewriter.h"
#include "workload/querygen.h"

namespace sia {
namespace {

// --- Diagnostic plumbing ------------------------------------------------------

TEST(DiagnosticTest, CodeNamesAreStableAndDistinct) {
  EXPECT_STREQ(DiagCodeName(DiagCode::kExprUnboundColumn),
               "expr.unbound-column");
  EXPECT_STREQ(DiagCodeName(DiagCode::kPlanPredicateOutOfScope),
               "plan.predicate-out-of-scope");
  EXPECT_STRNE(DiagCodeName(DiagCode::kExprColumnOutOfRange),
               DiagCodeName(DiagCode::kPlanColumnOutOfRange));
}

TEST(DiagnosticTest, SeverityAccounting) {
  Diagnostics diags;
  diags.Add(DiagCode::kExprNullComparison, "x = NULL", "always UNKNOWN");
  EXPECT_TRUE(diags.ok());  // warnings do not fail a check
  EXPECT_EQ(diags.warning_count(), 1u);
  diags.Add(DiagCode::kExprUnboundColumn, "y", "unbound");
  EXPECT_FALSE(diags.ok());
  EXPECT_EQ(diags.error_count(), 1u);
  EXPECT_TRUE(diags.Has(DiagCode::kExprUnboundColumn));
  EXPECT_FALSE(diags.Has(DiagCode::kExprNotCnf));
}

TEST(DiagnosticTest, ToStatusCarriesContextAndFirstError) {
  Diagnostics diags;
  EXPECT_TRUE(diags.ToStatus("clean").ok());
  diags.Add(DiagCode::kExprColumnOutOfRange, "c9", "index 9 >= width 2");
  diags.Add(DiagCode::kExprUnboundColumn, "z", "unbound");
  const Status status = diags.ToStatus("test seam");
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("test seam"), std::string::npos);
  EXPECT_NE(status.message().find("expr.column-out-of-range"),
            std::string::npos);
}

TEST(DiagnosticTest, MergePrefixesWhere) {
  Diagnostics inner;
  inner.Add(DiagCode::kExprUnboundColumn, "x", "unbound");
  Diagnostics outer;
  outer.Merge(inner, "Filter predicate/");
  ASSERT_EQ(outer.size(), 1u);
  EXPECT_EQ(outer.items()[0].where.rfind("Filter predicate/", 0), 0u);
}

// --- ExprValidator: malformed expression classes ------------------------------

class ExprValidatorTest : public ::testing::Test {
 protected:
  ExprValidatorTest()
      : schema_(std::vector<ColumnDef>{
            {"t", "a", DataType::kInteger, false},
            {"t", "b", DataType::kInteger, true},
            {"t", "d", DataType::kDate, false},
            {"t", "x", DataType::kDouble, false}}) {}

  Diagnostics Validate(const ExprPtr& expr,
                       const ExprValidatorOptions& options = {}) {
    Diagnostics diags;
    ValidateExpr(expr, schema_, &diags, options);
    return diags;
  }

  ExprPtr ColA() { return Expr::BoundColumn("t", "a", 0, DataType::kInteger); }
  ExprPtr ColD() { return Expr::BoundColumn("t", "d", 2, DataType::kDate); }

  Schema schema_;
};

TEST_F(ExprValidatorTest, CleanPredicateHasNoDiagnostics) {
  const ExprPtr pred = Expr::Logic(
      LogicOp::kAnd, Expr::Compare(CompareOp::kLt, ColA(), Expr::IntLit(10)),
      Expr::Compare(CompareOp::kGe, ColD(),
                    Expr::DateLit(CivilToDay({1995, 1, 1}))));
  ExprValidatorOptions options;
  options.require_boolean = true;
  const Diagnostics diags = Validate(pred, options);
  EXPECT_TRUE(diags.empty()) << diags.ToString();
}

TEST_F(ExprValidatorTest, UnboundColumnRejected) {
  const ExprPtr pred =
      Expr::Compare(CompareOp::kLt, Expr::Column("t", "a"), Expr::IntLit(1));
  const Diagnostics diags = Validate(pred);
  EXPECT_TRUE(diags.Has(DiagCode::kExprUnboundColumn)) << diags.ToString();

  // Pre-bind trees are legal when the caller says so.
  ExprValidatorOptions prebind;
  prebind.require_bound = false;
  EXPECT_TRUE(Validate(pred, prebind).empty());
}

TEST_F(ExprValidatorTest, ColumnIndexOutOfRangeRejected) {
  const ExprPtr pred = Expr::Compare(
      CompareOp::kLt, Expr::BoundColumn("t", "a", 99, DataType::kInteger),
      Expr::IntLit(1));
  EXPECT_TRUE(Validate(pred).Has(DiagCode::kExprColumnOutOfRange));
}

TEST_F(ExprValidatorTest, ColumnTypeMismatchRejected) {
  // Slot 2 is DATE; the ref claims INTEGER.
  const ExprPtr pred = Expr::Compare(
      CompareOp::kLt, Expr::BoundColumn("t", "d", 2, DataType::kInteger),
      Expr::IntLit(1));
  EXPECT_TRUE(Validate(pred).Has(DiagCode::kExprColumnTypeMismatch));
}

TEST_F(ExprValidatorTest, ColumnNameMismatchIsWarningOnly) {
  const ExprPtr pred = Expr::Compare(
      CompareOp::kLt, Expr::BoundColumn("t", "renamed", 0, DataType::kInteger),
      Expr::IntLit(1));
  const Diagnostics diags = Validate(pred);
  EXPECT_TRUE(diags.Has(DiagCode::kExprColumnNameMismatch));
  EXPECT_TRUE(diags.ok());  // a stale name is suspicious, not fatal
}

TEST_F(ExprValidatorTest, BooleanOperandInComparisonRejected) {
  const ExprPtr pred =
      Expr::Compare(CompareOp::kLt, Expr::BoolLit(true), Expr::IntLit(1));
  EXPECT_TRUE(Validate(pred).Has(DiagCode::kExprCompareTypeError));
}

TEST_F(ExprValidatorTest, BooleanOperandInArithmeticRejected) {
  const ExprPtr pred = Expr::Compare(
      CompareOp::kLt, Expr::Arith(ArithOp::kAdd, Expr::BoolLit(true), ColA()),
      Expr::IntLit(1));
  EXPECT_TRUE(Validate(pred).Has(DiagCode::kExprArithTypeError));
}

TEST_F(ExprValidatorTest, NonBooleanLogicOperandRejected) {
  const ExprPtr pred =
      Expr::Logic(LogicOp::kAnd, Expr::IntLit(1), Expr::BoolLit(true));
  EXPECT_TRUE(Validate(pred).Has(DiagCode::kExprLogicTypeError));
}

TEST_F(ExprValidatorTest, NonBooleanRootRejectedWhenPredicateRequired) {
  ExprValidatorOptions options;
  options.require_boolean = true;
  EXPECT_TRUE(Validate(Expr::Arith(ArithOp::kAdd, ColA(), Expr::IntLit(1)),
                       options)
                  .Has(DiagCode::kExprLogicTypeError));
}

TEST_F(ExprValidatorTest, DateLiteralRangeChecked) {
  const int64_t min_day = CivilToDay({1, 1, 1});
  const int64_t max_day = CivilToDay({9999, 12, 31});
  EXPECT_TRUE(Validate(Expr::DateLit(min_day)).empty());
  EXPECT_TRUE(Validate(Expr::DateLit(max_day)).empty());
  EXPECT_TRUE(
      Validate(Expr::DateLit(max_day + 1)).Has(DiagCode::kExprDateOutOfRange));
  EXPECT_TRUE(
      Validate(Expr::DateLit(min_day - 1)).Has(DiagCode::kExprDateOutOfRange));
}

TEST_F(ExprValidatorTest, NonFiniteDoubleLiteralRejected) {
  EXPECT_TRUE(Validate(Expr::DoubleLit(std::nan("")))
                  .Has(DiagCode::kExprNonFiniteLiteral));
  EXPECT_TRUE(Validate(Expr::DoubleLit(HUGE_VAL))
                  .Has(DiagCode::kExprNonFiniteLiteral));
  EXPECT_TRUE(Validate(Expr::DoubleLit(1.5)).empty());
}

TEST_F(ExprValidatorTest, ComparisonAgainstNullLiteralIsWarning) {
  const ExprPtr pred =
      Expr::Compare(CompareOp::kEq, ColA(), Expr::Literal(Value::Null()));
  const Diagnostics diags = Validate(pred);
  EXPECT_TRUE(diags.Has(DiagCode::kExprNullComparison));
  EXPECT_TRUE(diags.ok());
}

TEST_F(ExprValidatorTest, DivisionByConstantZeroIsWarning) {
  const ExprPtr pred = Expr::Compare(
      CompareOp::kGt, Expr::Arith(ArithOp::kDiv, ColA(), Expr::IntLit(0)),
      Expr::IntLit(1));
  const Diagnostics diags = Validate(pred);
  EXPECT_TRUE(diags.Has(DiagCode::kExprDivisionByZero));
  EXPECT_TRUE(diags.ok());
}

// --- CNF structure ------------------------------------------------------------

TEST(CnfTest, ConjunctionOfDisjunctionsAccepted) {
  const ExprPtr a = Expr::Compare(
      CompareOp::kLt, Expr::BoundColumn("t", "a", 0, DataType::kInteger),
      Expr::IntLit(1));
  const ExprPtr b = Expr::Compare(
      CompareOp::kGt, Expr::BoundColumn("t", "b", 1, DataType::kInteger),
      Expr::IntLit(2));
  const ExprPtr cnf =
      Expr::Logic(LogicOp::kAnd, Expr::Logic(LogicOp::kOr, a, Expr::Not(b)),
                  b);
  EXPECT_TRUE(IsCnf(cnf));
  Diagnostics diags;
  ValidateCnf(cnf, &diags);
  EXPECT_TRUE(diags.empty()) << diags.ToString();
}

TEST(CnfTest, ConjunctionUnderDisjunctionRejected) {
  const ExprPtr a = Expr::Compare(
      CompareOp::kLt, Expr::BoundColumn("t", "a", 0, DataType::kInteger),
      Expr::IntLit(1));
  const ExprPtr b = Expr::Compare(
      CompareOp::kGt, Expr::BoundColumn("t", "b", 1, DataType::kInteger),
      Expr::IntLit(2));
  const ExprPtr not_cnf =
      Expr::Logic(LogicOp::kOr, a, Expr::Logic(LogicOp::kAnd, a, b));
  EXPECT_FALSE(IsCnf(not_cnf));
  Diagnostics diags;
  ValidateCnf(not_cnf, &diags);
  EXPECT_TRUE(diags.Has(DiagCode::kExprNotCnf));
}

TEST(CnfTest, NegationOfNonAtomRejected) {
  const ExprPtr a = Expr::Compare(
      CompareOp::kLt, Expr::BoundColumn("t", "a", 0, DataType::kInteger),
      Expr::IntLit(1));
  const ExprPtr neg = Expr::Not(Expr::Logic(LogicOp::kAnd, a, a));
  EXPECT_FALSE(IsCnf(neg));
  Diagnostics diags;
  ValidateCnf(neg, &diags);
  EXPECT_TRUE(diags.Has(DiagCode::kExprNotCnf));
}

// --- Pipeline seam hook (Status path) ----------------------------------------

#ifdef NDEBUG
// In debug builds the hook intentionally asserts instead of returning, so
// the Status path is only testable in release-style builds.
TEST(CheckBoundPredicateTest, MalformedPredicateYieldsStatus) {
  const Schema schema(
      std::vector<ColumnDef>{{"t", "a", DataType::kInteger, false}});
  const ExprPtr bad = Expr::Compare(
      CompareOp::kLt, Expr::BoundColumn("t", "a", 9, DataType::kInteger),
      Expr::IntLit(1));
  const Status status = CheckBoundPredicate(bad, schema, "unit test seam");
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("unit test seam"), std::string::npos);

  const ExprPtr good =
      Expr::Compare(CompareOp::kLt, Expr::BoundColumn("t", "a", 0,
                                                      DataType::kInteger),
                    Expr::IntLit(1));
  EXPECT_TRUE(CheckBoundPredicate(good, schema, "unit test seam").ok());
}
#endif

// --- PlanValidator: malformed plan classes ------------------------------------

class PlanValidatorTest : public ::testing::Test {
 protected:
  PlanValidatorTest() : catalog_(Catalog::TpchCatalog()) {
    lineitem_ = *catalog_.JointSchema({"lineitem"});
    orders_ = *catalog_.JointSchema({"orders"});
  }

  Diagnostics Validate(const PlanPtr& plan, bool with_catalog = true) {
    Diagnostics diags;
    PlanValidatorOptions options;
    if (with_catalog) options.catalog = &catalog_;
    ValidatePlan(plan, &diags, options);
    return diags;
  }

  PlanPtr ScanLineitem() { return PlanNode::Scan("lineitem", lineitem_); }

  ExprPtr QuantityCol() {
    return Expr::BoundColumn("lineitem", "l_quantity",
                             *lineitem_.FindColumn("l_quantity"),
                             DataType::kInteger);
  }

  Catalog catalog_;
  Schema lineitem_;
  Schema orders_;
};

TEST_F(PlanValidatorTest, PlannedQueryValidatesClean) {
  auto parsed = ParseQuery(
      "SELECT * FROM lineitem, orders WHERE o_orderkey = l_orderkey AND "
      "l_shipdate - o_orderdate < 20 AND o_orderdate < '1993-06-01'");
  ASSERT_TRUE(parsed.ok());
  auto plan = PlanQuery(*parsed, catalog_);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(Validate(*plan).empty()) << Validate(*plan).ToString();

  const PlanPtr moved = ApplyPredicateMovement(*plan);
  EXPECT_TRUE(Validate(moved).empty()) << Validate(moved).ToString();
}

TEST_F(PlanValidatorTest, NonBooleanFilterPredicateRejected) {
  const PlanPtr plan = PlanNode::Filter(
      Expr::Arith(ArithOp::kAdd, QuantityCol(), Expr::IntLit(1)),
      ScanLineitem());
  EXPECT_TRUE(Validate(plan).Has(DiagCode::kPlanNonBooleanPredicate));
}

TEST_F(PlanValidatorTest, FilterPredicateOutOfScopeRejected) {
  const PlanPtr plan = PlanNode::Filter(
      Expr::Compare(CompareOp::kGt,
                    Expr::BoundColumn("lineitem", "l_quantity", 99,
                                      DataType::kInteger),
                    Expr::IntLit(0)),
      ScanLineitem());
  EXPECT_TRUE(Validate(plan).Has(DiagCode::kPlanPredicateOutOfScope));
}

TEST_F(PlanValidatorTest, FilterWithoutPredicateRejected) {
  const PlanPtr plan = PlanNode::Filter(nullptr, ScanLineitem());
  EXPECT_TRUE(Validate(plan).Has(DiagCode::kPlanMissingPredicate));
}

TEST_F(PlanValidatorTest, ScanOfUnknownTableRejected) {
  const PlanPtr plan = PlanNode::Scan("no_such_table", lineitem_);
  EXPECT_TRUE(Validate(plan).Has(DiagCode::kPlanUnknownTable));
  // Without a catalog there is nothing to check the table against.
  EXPECT_FALSE(Validate(plan, /*with_catalog=*/false)
                   .Has(DiagCode::kPlanUnknownTable));
}

TEST_F(PlanValidatorTest, ScanSchemaDisagreeingWithCatalogRejected) {
  Schema truncated(std::vector<ColumnDef>(lineitem_.columns().begin(),
                                          lineitem_.columns().begin() + 3));
  const PlanPtr plan = PlanNode::Scan("lineitem", truncated);
  EXPECT_TRUE(Validate(plan).Has(DiagCode::kPlanSchemaMismatch));
}

TEST_F(PlanValidatorTest, ScanFilterReferencingOtherTableRejected) {
  // A pushdown bug: the scan's residual filter references an orders
  // column. The index (0) is in range for lineitem, so only the
  // table-ownership check can catch it.
  const ExprPtr foreign = Expr::Compare(
      CompareOp::kGt,
      Expr::BoundColumn("orders", "o_orderkey", 0, DataType::kInteger),
      Expr::IntLit(0));
  const PlanPtr plan = PlanNode::Scan("lineitem", lineitem_, foreign);
  EXPECT_TRUE(Validate(plan).Has(DiagCode::kPlanScanFilterForeignColumn));
}

TEST_F(PlanValidatorTest, JoinConditionBeyondJointSchemaRejected) {
  const ExprPtr cond = Expr::Compare(
      CompareOp::kEq,
      Expr::BoundColumn("orders", "o_orderkey", 50, DataType::kInteger),
      QuantityCol());
  const PlanPtr plan = PlanNode::Join(cond, ScanLineitem(),
                                      PlanNode::Scan("orders", orders_));
  EXPECT_TRUE(Validate(plan).Has(DiagCode::kPlanPredicateOutOfScope));
}

TEST_F(PlanValidatorTest, CrossJoinIsWarningOnly) {
  const PlanPtr plan = PlanNode::Join(nullptr, ScanLineitem(),
                                      PlanNode::Scan("orders", orders_));
  const Diagnostics diags = Validate(plan);
  EXPECT_TRUE(diags.Has(DiagCode::kPlanCrossJoin));
  EXPECT_TRUE(diags.ok());
}

TEST_F(PlanValidatorTest, AggregateGroupColumnOutOfRangeRejected) {
  const PlanPtr plan = PlanNode::Aggregate({99}, ScanLineitem());
  EXPECT_TRUE(Validate(plan).Has(DiagCode::kPlanColumnOutOfRange));
}

TEST_F(PlanValidatorTest, ProjectColumnOutOfRangeRejected) {
  const PlanPtr plan = PlanNode::Project({99}, ScanLineitem());
  EXPECT_TRUE(Validate(plan).Has(DiagCode::kPlanColumnOutOfRange));
}

#ifdef NDEBUG
TEST_F(PlanValidatorTest, CheckPlanConvertsErrorsToStatus) {
  const PlanPtr bad = PlanNode::Filter(nullptr, ScanLineitem());
  const Status status = CheckPlan(bad, "unit test seam", &catalog_);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("unit test seam"), std::string::npos);
  EXPECT_TRUE(CheckPlan(ScanLineitem(), "unit test seam", &catalog_).ok());
}

TEST_F(PlanValidatorTest, ExecutorRejectsMalformedPlanUpFront) {
  Table table(lineitem_);
  Executor executor;
  executor.RegisterTable("lineitem", &table);
  const PlanPtr bad = PlanNode::Filter(
      Expr::Arith(ArithOp::kAdd, QuantityCol(), Expr::IntLit(1)),
      ScanLineitem());
  auto result = executor.Execute(bad);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("plan handed to executor"),
            std::string::npos);
}
#endif

// --- Seeded property tests over the workload generator ------------------------

TEST(CheckPropertyTest, WorkloadBindsPlansAndValidatesClean) {
  const Catalog catalog = Catalog::TpchCatalog();
  QueryGenOptions gen;
  gen.seed = 2021;
  auto queries = GenerateWorkload(catalog, 200, gen);
  ASSERT_TRUE(queries.ok()) << queries.status().ToString();

  PlanValidatorOptions plan_options;
  plan_options.catalog = &catalog;
  size_t findings = 0;
  for (const GeneratedQuery& q : *queries) {
    auto joint = catalog.JointSchema(q.query.tables);
    ASSERT_TRUE(joint.ok()) << q.sql;
    if (q.query.where != nullptr) {
      auto bound = Bind(q.query.where, *joint);
      ASSERT_TRUE(bound.ok()) << q.sql;
      Diagnostics diags;
      ExprValidatorOptions options;
      options.require_boolean = true;
      ValidateExpr(*bound, *joint, &diags, options);
      findings += diags.size();
      EXPECT_TRUE(diags.empty()) << q.sql << "\n" << diags.ToString();
    }
    auto plan = PlanQuery(q.query, catalog);
    ASSERT_TRUE(plan.ok()) << q.sql;
    Diagnostics plan_diags;
    ValidatePlan(*plan, &plan_diags, plan_options);
    Diagnostics moved_diags;
    ValidatePlan(ApplyPredicateMovement(*plan), &moved_diags, plan_options);
    findings += plan_diags.size() + moved_diags.size();
    EXPECT_TRUE(plan_diags.empty()) << q.sql << "\n" << plan_diags.ToString();
    EXPECT_TRUE(moved_diags.empty())
        << q.sql << "\n" << moved_diags.ToString();
  }
  EXPECT_EQ(findings, 0u);
}

TEST(CheckPropertyTest, RewrittenQueriesProduceValidCnfAndPlans) {
  const Catalog catalog = Catalog::TpchCatalog();
  QueryGenOptions gen;
  gen.seed = 7;
  auto queries = GenerateWorkload(catalog, 8, gen);
  ASSERT_TRUE(queries.ok()) << queries.status().ToString();

  RewriteOptions rewrite_options;
  rewrite_options.target_table = "lineitem";
  rewrite_options.synthesis.max_iterations = 3;
  PlanValidatorOptions plan_options;
  plan_options.catalog = &catalog;

  size_t rewritten = 0;
  for (const GeneratedQuery& q : *queries) {
    auto outcome = RewriteQuery(q.query, catalog, rewrite_options);
    ASSERT_TRUE(outcome.ok()) << q.sql << "\n" << outcome.status().ToString();
    if (!outcome->changed()) continue;
    ++rewritten;

    auto joint = catalog.JointSchema(q.query.tables);
    ASSERT_TRUE(joint.ok());
    Diagnostics diags;
    ExprValidatorOptions options;
    options.require_boolean = true;
    ValidateExpr(outcome->learned, *joint, &diags, options);
    ValidateCnf(outcome->learned, &diags);
    EXPECT_TRUE(diags.ok()) << q.sql << "\n" << diags.ToString();
    EXPECT_TRUE(IsCnf(outcome->learned)) << outcome->learned->ToString();

    auto replan = PlanQuery(outcome->rewritten, catalog);
    ASSERT_TRUE(replan.ok()) << q.sql;
    Diagnostics plan_diags;
    ValidatePlan(ApplyPredicateMovement(*replan), &plan_diags, plan_options);
    EXPECT_TRUE(plan_diags.ok()) << q.sql << "\n" << plan_diags.ToString();
  }
  // The workload is built to be rewritable; if nothing rewrote, the
  // property above was vacuous.
  EXPECT_GT(rewritten, 0u);
}

// --- Regression: the semantics the validator warns about ----------------------

// The engine's verdict on `pred` for the single row `row` of a table
// with `schema`, read through the vectorized filter: TRUE when it keeps
// the row, FALSE when it keeps the row under NOT, else UNKNOWN.
TruthValue EngineTruth(const ExprPtr& pred, const Schema& schema,
                       const Tuple& row) {
  Table table(schema);
  EXPECT_TRUE(table.AppendRow(row).ok());
  const auto keeps = [&](const ExprPtr& p) {
    auto filter = VectorizedFilter::Compile(p);
    EXPECT_TRUE(filter.ok()) << filter.status().ToString();
    std::vector<uint32_t> kept;
    EXPECT_TRUE(filter.ok() && filter->FilterTable(table, &kept).ok());
    return !kept.empty();
  };
  if (keeps(pred)) return TruthValue::kTrue;
  if (keeps(Expr::Not(pred))) return TruthValue::kFalse;
  return TruthValue::kUnknown;
}

Schema NullableInts(size_t columns) {
  Schema s;
  for (size_t c = 0; c < columns; ++c) {
    s.AddColumn({"t", std::string(1, static_cast<char>('a' + c)),
                 DataType::kInteger, true});
  }
  return s;
}

// `NOT (x = NULL)` must stay UNKNOWN under 3VL — Simplify rewrites it to
// `x <> NULL`, which is still UNKNOWN, never TRUE. Checks the tree
// evaluator and the engine's vectorized filter agree, before and after
// simplification.
TEST(CheckRegressionTest, NegatedNullComparisonStaysUnknown) {
  const ExprPtr col = Expr::BoundColumn("t", "a", 0, DataType::kInteger);
  const ExprPtr pred = Expr::Not(
      Expr::Compare(CompareOp::kEq, col, Expr::Literal(Value::Null())));
  const Tuple row({Value::Integer(5)});

  for (const ExprPtr& variant : {pred, Simplify(pred)}) {
    auto tv = EvalPredicate(*variant, row);
    ASSERT_TRUE(tv.ok());
    EXPECT_EQ(*tv, TruthValue::kUnknown) << variant->ToString();
    EXPECT_EQ(EngineTruth(variant, NullableInts(1), row),
              TruthValue::kUnknown)
        << variant->ToString();
  }
}

// Division by zero, and INT64_MIN / -1 (the one int64 quotient that
// overflows), yield NULL (documented deviation from SQL's error) in the
// tree evaluator, the engine's vectorized filter, and constant folding —
// never a crash or a garbage value. `q = 0` is UNKNOWN exactly when the
// quotient q is NULL.
TEST(CheckRegressionTest, DivisionByZeroYieldsNullEverywhere) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  const ExprPtr a = Expr::BoundColumn("t", "a", 0, DataType::kInteger);
  const ExprPtr b = Expr::BoundColumn("t", "b", 1, DataType::kInteger);
  const struct {
    ExprPtr div;
    Tuple row;
  } cases[] = {
      {Expr::Arith(ArithOp::kDiv, a, Expr::IntLit(0)),
       Tuple({Value::Integer(5), Value::Integer(0)})},
      {Expr::Arith(ArithOp::kDiv, a, b),
       Tuple({Value::Integer(5), Value::Integer(0)})},
      {Expr::Arith(ArithOp::kDiv, a, Expr::IntLit(-1)),
       Tuple({Value::Integer(kMin), Value::Integer(0)})},
      {Expr::Arith(ArithOp::kDiv, a, b),
       Tuple({Value::Integer(kMin), Value::Integer(-1)})},
  };
  for (const auto& c : cases) {
    auto value = EvalScalar(*c.div, c.row);
    ASSERT_TRUE(value.ok());
    EXPECT_TRUE(value->is_null()) << c.div->ToString() << " on "
                                  << c.row.ToString();
    const ExprPtr is_zero =
        Expr::Compare(CompareOp::kEq, c.div, Expr::IntLit(0));
    EXPECT_EQ(EngineTruth(is_zero, NullableInts(2), c.row),
              TruthValue::kUnknown)
        << c.div->ToString() << " on " << c.row.ToString();
  }

  // Constant folding must not "evaluate around" the division.
  for (const auto& [num, den] : {std::pair<int64_t, int64_t>{1, 0},
                                 std::pair<int64_t, int64_t>{kMin, -1}}) {
    const ExprPtr folded = Simplify(
        Expr::Arith(ArithOp::kDiv, Expr::IntLit(num), Expr::IntLit(den)));
    ASSERT_EQ(folded->kind(), ExprKind::kLiteral);
    EXPECT_TRUE(folded->literal().is_null());
  }
}

// Constant folding can push a date literal out of the representable
// range (DATE '9999-12-31' + 1); the validator must catch the overflow
// the fold introduced.
TEST(CheckRegressionTest, ValidatorCatchesDateOverflowFromConstantFolding) {
  const int64_t max_day = CivilToDay({9999, 12, 31});
  const ExprPtr folded = Simplify(
      Expr::Arith(ArithOp::kAdd, Expr::DateLit(max_day), Expr::IntLit(1)));
  ASSERT_EQ(folded->kind(), ExprKind::kLiteral);
  ASSERT_EQ(folded->type(), DataType::kDate);

  Diagnostics diags;
  ValidateExpr(folded, Schema(), &diags);
  EXPECT_TRUE(diags.Has(DiagCode::kExprDateOutOfRange)) << diags.ToString();

  // The in-range fold is quietly accepted.
  Diagnostics ok_diags;
  ValidateExpr(Simplify(Expr::Arith(ArithOp::kSub, Expr::DateLit(max_day),
                                    Expr::IntLit(1))),
               Schema(), &ok_diags);
  EXPECT_TRUE(ok_diags.empty()) << ok_diags.ToString();
}

// FALSE AND p -> FALSE is 3VL-sound even when p is UNKNOWN
// (FALSE AND UNKNOWN = FALSE); TRUE OR UNKNOWN = TRUE likewise. The
// simplifier relies on both; pin them down against the evaluator.
TEST(CheckRegressionTest, ShortCircuitIdentitiesAre3vlSound) {
  const ExprPtr col = Expr::BoundColumn("t", "a", 0, DataType::kInteger);
  const ExprPtr unknown =
      Expr::Compare(CompareOp::kEq, col, Expr::Literal(Value::Null()));
  const Tuple row({Value::Integer(5)});

  const ExprPtr false_and =
      Expr::Logic(LogicOp::kAnd, Expr::BoolLit(false), unknown);
  auto tv = EvalPredicate(*false_and, row);
  ASSERT_TRUE(tv.ok());
  EXPECT_EQ(*tv, TruthValue::kFalse);
  EXPECT_TRUE(Simplify(false_and)->IsFalseLiteral());

  const ExprPtr true_or =
      Expr::Logic(LogicOp::kOr, Expr::BoolLit(true), unknown);
  tv = EvalPredicate(*true_or, row);
  ASSERT_TRUE(tv.ok());
  EXPECT_EQ(*tv, TruthValue::kTrue);
  EXPECT_TRUE(Simplify(true_or)->IsTrueLiteral());

  // The unsound variants must NOT be applied: TRUE AND UNKNOWN is
  // UNKNOWN, so `TRUE AND p -> p` is fine, but `UNKNOWN -> FALSE` is not.
  const ExprPtr true_and =
      Expr::Logic(LogicOp::kAnd, Expr::BoolLit(true), unknown);
  tv = EvalPredicate(*Simplify(true_and), row);
  ASSERT_TRUE(tv.ok());
  EXPECT_EQ(*tv, TruthValue::kUnknown);
}

}  // namespace
}  // namespace sia
