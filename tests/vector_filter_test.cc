#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "engine/column_table.h"
#include "engine/relation.h"
#include "engine/vector_filter.h"
#include "ir/binder.h"
#include "ir/builder.h"
#include "ir/evaluator.h"

namespace sia {
namespace {

using namespace dsl;  // NOLINT

Schema ThreeIntCols(bool nullable = false) {
  Schema s;
  s.AddColumn({"t", "a", DataType::kInteger, nullable});
  s.AddColumn({"t", "b", DataType::kInteger, nullable});
  s.AddColumn({"t", "c", DataType::kInteger, nullable});
  return s;
}

// ThreeIntCols plus a DOUBLE column x, all nullable.
Schema MixedCols() {
  Schema s = ThreeIntCols(/*nullable=*/true);
  s.AddColumn({"t", "x", DataType::kDouble, true});
  return s;
}

// Integral cells uniform in [-50, 50], DOUBLE cells in quarter steps over
// the same range; each cell NULL with probability `null_prob` (the
// column must then be nullable).
Table RandomTable(const Schema& schema, size_t rows, uint64_t seed,
                  double null_prob = 0) {
  Table table(schema);
  Rng rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    Tuple row;
    for (const ColumnDef& c : schema.columns()) {
      if (rng.Bernoulli(null_prob)) {
        row.Append(Value::Null(c.type));
      } else if (c.type == DataType::kDouble) {
        row.Append(Value::Double(static_cast<double>(rng.Uniform(-200, 200)) / 4));
      } else {
        row.Append(Value::Integer(rng.Uniform(-50, 50)));
      }
    }
    EXPECT_TRUE(table.AppendRow(row).ok());
  }
  return table;
}

// Reference implementation: ir/evaluator, row at a time.
std::vector<uint32_t> ReferenceFilter(const Table& table,
                                      const ExprPtr& pred) {
  std::vector<uint32_t> out;
  for (size_t i = 0; i < table.row_count(); ++i) {
    if (Satisfies(*pred, table.RowAt(i)).value()) {
      out.push_back(static_cast<uint32_t>(i));
    }
  }
  return out;
}

TEST(VectorFilterTest, SimpleComparison) {
  Schema s = ThreeIntCols();
  Table table = RandomTable(s, 10000, 1);
  ExprPtr p = Bind(Col("a") < Lit(0), s).value();
  auto vf = VectorizedFilter::Compile(p);
  ASSERT_TRUE(vf.ok());
  std::vector<uint32_t> got;
  ASSERT_TRUE(vf->FilterTable(table, &got).ok());
  EXPECT_EQ(got, ReferenceFilter(table, p));
  EXPECT_FALSE(got.empty());
}

TEST(VectorFilterTest, ConstantFoldedResult) {
  Schema s = ThreeIntCols();
  Table table = RandomTable(s, 100, 2);
  // Predicate with no columns: TRUE keeps everything, FALSE nothing.
  ExprPtr t = Bind(Lit(1) < Lit(2), s).value();
  auto vt = VectorizedFilter::Compile(t);
  ASSERT_TRUE(vt.ok());
  std::vector<uint32_t> keep;
  ASSERT_TRUE(vt->FilterTable(table, &keep).ok());
  EXPECT_EQ(keep.size(), 100u);

  ExprPtr f = Bind(Lit(2) < Lit(1), s).value();
  auto vff = VectorizedFilter::Compile(f);
  ASSERT_TRUE(vff.ok());
  std::vector<uint32_t> none;
  ASSERT_TRUE(vff->FilterTable(table, &none).ok());
  EXPECT_TRUE(none.empty());
}

TEST(VectorFilterTest, DoubleColumnAndPromotedInt) {
  const Schema s = MixedCols();
  const Table table = RandomTable(s, 5000, 3, 0.1);
  for (const ExprPtr& p :
       {Bind(Col("x") < Lit(0.5), s).value(),
        Bind(Col("x") * Lit(2) >= Col("a") + Lit(1.25), s).value(),
        Bind(Col("a") - Col("x") == Col("b"), s).value()}) {
    auto vf = VectorizedFilter::Compile(p);
    ASSERT_TRUE(vf.ok()) << p->ToString();
    std::vector<uint32_t> got;
    ASSERT_TRUE(vf->FilterTable(table, &got).ok());
    EXPECT_EQ(got, ReferenceFilter(table, p)) << p->ToString();
  }
}

TEST(VectorFilterTest, DivisionByZeroIsUnknown) {
  const Schema s = ThreeIntCols();
  Table table(s);
  table.AppendIntRow({7, 0, 1});
  table.AppendIntRow({7, 2, 1});
  table.AppendIntRow({-7, 2, 1});
  // 7/0 is NULL: neither p nor NOT p keeps row 0. -7/2 truncates to -3.
  const ExprPtr p = Bind(Col("a") / Col("b") == Lit(3), s).value();
  std::vector<uint32_t> kept;
  ASSERT_TRUE(VectorizedFilter::Compile(p)->FilterTable(table, &kept).ok());
  EXPECT_EQ(kept, (std::vector<uint32_t>{1}));
  kept.clear();
  ASSERT_TRUE(
      VectorizedFilter::Compile(Expr::Not(p))->FilterTable(table, &kept).ok());
  EXPECT_EQ(kept, (std::vector<uint32_t>{2}));
}

TEST(VectorFilterTest, NullColumnIsUnknown) {
  Schema s = ThreeIntCols(/*nullable=*/true);
  Table table(s);
  ASSERT_TRUE(
      table.AppendRow(Tuple({Value::Integer(1), Value::Null(), Value::Integer(2)}))
          .ok());
  ASSERT_TRUE(table
                  .AppendRow(Tuple({Value::Integer(1), Value::Integer(-3),
                                    Value::Integer(2)}))
                  .ok());
  // NULL < 0 is UNKNOWN, so row 0 passes neither the predicate nor its
  // negation; UNKNOWN OR TRUE is TRUE, so it passes the disjunction.
  const ExprPtr p = Bind(Col("b") < Lit(0), s).value();
  const ExprPtr p_or = Bind((Col("b") < Lit(0)) || (Col("a") == Lit(1)), s).value();
  std::vector<uint32_t> out;
  ASSERT_TRUE(VectorizedFilter::Compile(p)->FilterTable(table, &out).ok());
  EXPECT_EQ(out, (std::vector<uint32_t>{1}));
  out.clear();
  ASSERT_TRUE(
      VectorizedFilter::Compile(Expr::Not(p))->FilterTable(table, &out).ok());
  EXPECT_TRUE(out.empty());
  out.clear();
  ASSERT_TRUE(VectorizedFilter::Compile(p_or)->FilterTable(table, &out).ok());
  EXPECT_EQ(out, (std::vector<uint32_t>{0, 1}));
}

// A random predicate over `cols` (table, column): arithmetic with
// division, INTEGER and DOUBLE literals, comparisons, AND/OR/NOT.
ExprPtr RandomPredicate(Rng& rng,
                        const std::vector<std::pair<std::string, std::string>>& cols) {
  auto random_scalar = [&](auto&& self, int depth) -> ExprPtr {
    if (depth <= 0 || rng.Bernoulli(0.4)) {
      if (rng.Bernoulli(0.6)) {
        const auto& [table, column] =
            cols[rng.Uniform(0, static_cast<int64_t>(cols.size()) - 1)];
        return Expr::Column(table, column);
      }
      if (rng.Bernoulli(0.2)) {
        return Expr::DoubleLit(static_cast<double>(rng.Uniform(-60, 60)) / 2);
      }
      return Expr::IntLit(rng.Uniform(-30, 30));
    }
    const ArithOp ops[] = {ArithOp::kAdd, ArithOp::kSub, ArithOp::kMul,
                           ArithOp::kDiv};
    return Expr::Arith(ops[rng.Uniform(0, 3)], self(self, depth - 1),
                       self(self, depth - 1));
  };
  auto random_pred = [&](auto&& self, int depth) -> ExprPtr {
    if (depth <= 0 || rng.Bernoulli(0.35)) {
      const CompareOp op = static_cast<CompareOp>(rng.Uniform(0, 5));
      return Expr::Compare(op, random_scalar(random_scalar, 2),
                           random_scalar(random_scalar, 2));
    }
    if (rng.Bernoulli(0.15)) return Expr::Not(self(self, depth - 1));
    return Expr::Logic(rng.Bernoulli(0.5) ? LogicOp::kAnd : LogicOp::kOr,
                       self(self, depth - 1), self(self, depth - 1));
  };
  return random_pred(random_pred, 3);
}

// Property sweep: random predicates agree with ir/evaluator on random
// tables, across block-boundary row counts: integral NULL-free tables
// (the mask-free kernels) and nullable INTEGER + DOUBLE tables.
class VectorFilterPropertyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(VectorFilterPropertyTest, AgreesWithEvaluator) {
  const size_t rows = GetParam();
  const Schema integral = ThreeIntCols();
  const Schema mixed = MixedCols();
  const Table plain = RandomTable(integral, rows, 40 + rows);
  const Table nullable = RandomTable(mixed, rows, 50 + rows, 0.1);

  Rng rng(1000 + rows);
  for (int trial = 0; trial < 40; ++trial) {
    const bool with_nulls = trial % 2 == 1;
    const Schema& s = with_nulls ? mixed : integral;
    const Table& table = with_nulls ? nullable : plain;
    std::vector<std::pair<std::string, std::string>> cols = {
        {"t", "a"}, {"t", "b"}, {"t", "c"}};
    if (with_nulls) cols.push_back({"t", "x"});
    ExprPtr p = Bind(RandomPredicate(rng, cols), s).value();
    auto vf = VectorizedFilter::Compile(p);
    ASSERT_TRUE(vf.ok()) << p->ToString();
    std::vector<uint32_t> got;
    ASSERT_TRUE(vf->FilterTable(table, &got).ok());
    EXPECT_EQ(got, ReferenceFilter(table, p)) << p->ToString();
  }
}

// The relation source: the same programs over a joined Relation (two
// nullable base tables, one with a DOUBLE column, rows picked with
// repeats and in no particular order, as a join emits them), filtered
// piecewise at split points aligned neither to the 2048-row block nor to
// the engine's 16K-row morsel.
TEST_P(VectorFilterPropertyTest, RelationSourceAgreesWithEvaluator) {
  const size_t rows = GetParam();
  const Schema left_schema = MixedCols();
  Schema right_schema;
  right_schema.AddColumn({"u", "d", DataType::kInteger, true});
  right_schema.AddColumn({"u", "e", DataType::kInteger, true});
  const Table left = RandomTable(left_schema, 300, 7 + rows, 0.1);
  const Table right = RandomTable(right_schema, 200, 9 + rows, 0.1);
  Schema joint = left_schema;
  for (const ColumnDef& c : right_schema.columns()) joint.AddColumn(c);

  Rng rng(2000 + rows);
  Relation rel;
  rel.parts = {&left, &right};
  rel.rows.resize(2);
  for (size_t i = 0; i < rows; ++i) {
    rel.rows[0].push_back(static_cast<RowIndex>(rng.Uniform(0, 299)));
    rel.rows[1].push_back(static_cast<RowIndex>(rng.Uniform(0, 199)));
  }

  for (int trial = 0; trial < 40; ++trial) {
    ExprPtr p = Bind(RandomPredicate(rng, {{"t", "a"}, {"t", "b"}, {"t", "c"},
                                           {"t", "x"}, {"u", "d"}, {"u", "e"}}),
                     joint)
                    .value();
    std::vector<uint32_t> want;
    for (size_t i = 0; i < rows; ++i) {
      Tuple row = left.RowAt(rel.rows[0][i]);
      const Tuple other = right.RowAt(rel.rows[1][i]);
      for (const Value& v : other.values()) row.Append(v);
      if (Satisfies(*p, row).value()) want.push_back(static_cast<uint32_t>(i));
    }

    auto vf = VectorizedFilter::Compile(p);
    ASSERT_TRUE(vf.ok()) << p->ToString();
    std::vector<uint32_t> got;
    for (size_t begin = 0; begin < rows;) {
      const size_t end = std::min(rows, begin + 1 + rng.Uniform(0, 3000));
      ASSERT_TRUE(vf->FilterRange(rel, begin, end, &got).ok());
      begin = end;
    }
    EXPECT_EQ(got, want) << p->ToString();
  }
}

// Row counts straddling the 2048 block size, including 0 and exact
// multiples.
INSTANTIATE_TEST_SUITE_P(BlockBoundaries, VectorFilterPropertyTest,
                         ::testing::Values(0, 1, 7, 2047, 2048, 2049, 4096,
                                           5000));

}  // namespace
}  // namespace sia
