#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "engine/column_table.h"
#include "engine/cursors.h"
#include "engine/exec_expr.h"
#include "engine/relation.h"
#include "engine/vector_filter.h"
#include "ir/binder.h"
#include "ir/builder.h"

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

Table RandomTable(const Schema& schema, size_t rows, uint64_t seed) {
  Table table(schema);
  Rng rng(seed);
  std::vector<int64_t> row(schema.size());
  for (size_t i = 0; i < rows; ++i) {
    for (auto& v : row) v = rng.Uniform(-50, 50);
    table.AppendIntRow(row);
  }
  return table;
}

// Reference implementation: row-at-a-time CompiledExpr.
std::vector<uint32_t> ReferenceFilter(const Table& table,
                                      const ExprPtr& pred) {
  const CompiledExpr compiled = CompiledExpr::Compile(pred).value();
  TableCursor row(table);
  std::vector<uint32_t> out;
  for (size_t i = 0; i < table.row_count(); ++i) {
    row.set_row(i);
    if (compiled.EvalPredicate(row) == 1) {
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

TEST(VectorFilterTest, FallbackOnDouble) {
  Schema s;
  s.AddColumn({"t", "x", DataType::kDouble, false});
  ExprPtr p = Bind(Col("x") < Lit(0.5), s).value();
  EXPECT_FALSE(VectorizedFilter::Compile(p).ok());
}

TEST(VectorFilterTest, FallbackOnDivision) {
  Schema s = ThreeIntCols();
  ExprPtr p = Bind(Col("a") / Lit(3) == Lit(1), s).value();
  EXPECT_FALSE(VectorizedFilter::Compile(p).ok());
}

TEST(VectorFilterTest, FallbackOnNullColumn) {
  Schema s = ThreeIntCols(/*nullable=*/true);
  Table table(s);
  ASSERT_TRUE(
      table.AppendRow(Tuple({Value::Integer(1), Value::Null(), Value::Integer(2)}))
          .ok());
  ExprPtr p = Bind(Col("b") < Lit(0), s).value();
  auto vf = VectorizedFilter::Compile(p);
  ASSERT_TRUE(vf.ok());  // compiles; the NULL is discovered per table
  std::vector<uint32_t> out;
  EXPECT_FALSE(vf->FilterTable(table, &out).ok());
}

// A random NULL-free integral predicate over `cols` (table, column).
ExprPtr RandomPredicate(Rng& rng,
                        const std::vector<std::pair<std::string, std::string>>& cols) {
  auto random_scalar = [&](auto&& self, int depth) -> ExprPtr {
    if (depth <= 0 || rng.Bernoulli(0.4)) {
      if (rng.Bernoulli(0.6)) {
        const auto& [table, column] =
            cols[rng.Uniform(0, static_cast<int64_t>(cols.size()) - 1)];
        return Expr::Column(table, column);
      }
      return Expr::IntLit(rng.Uniform(-30, 30));
    }
    const ArithOp ops[] = {ArithOp::kAdd, ArithOp::kSub, ArithOp::kMul};
    return Expr::Arith(ops[rng.Uniform(0, 2)], self(self, depth - 1),
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

// Row-at-a-time access to a Relation, resolved per cell: the reference
// the relation-source block path is checked against.
class RelationAccessor final : public RowAccessor {
 public:
  explicit RelationAccessor(const Relation& rel) : rel_(rel) {}
  void set_row(size_t row) { row_ = row; }
  int64_t IntAt(size_t col) const override { return Column(col).IntAt(At(col)); }
  double DoubleAt(size_t col) const override {
    return Column(col).DoubleAt(At(col));
  }
  bool IsNull(size_t col) const override { return Column(col).IsNull(At(col)); }

 private:
  const ColumnData& Column(size_t col) const {
    const auto [part, local] = rel_.Resolve(col);
    return rel_.parts[part]->column(local);
  }
  size_t At(size_t col) const { return rel_.rows[rel_.Resolve(col).first][row_]; }

  const Relation& rel_;
  size_t row_ = 0;
};

// Property sweep: random integral predicates agree with CompiledExpr on
// random tables, across block-boundary row counts.
class VectorFilterPropertyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(VectorFilterPropertyTest, AgreesWithRowInterpreter) {
  const size_t rows = GetParam();
  Schema s = ThreeIntCols();
  Table table = RandomTable(s, rows, 40 + rows);

  Rng rng(1000 + rows);
  for (int trial = 0; trial < 40; ++trial) {
    ExprPtr p = Bind(RandomPredicate(rng, {{"t", "a"}, {"t", "b"}, {"t", "c"}}),
                     s)
                    .value();
    auto vf = VectorizedFilter::Compile(p);
    ASSERT_TRUE(vf.ok()) << p->ToString();
    std::vector<uint32_t> got;
    ASSERT_TRUE(vf->FilterTable(table, &got).ok());
    EXPECT_EQ(got, ReferenceFilter(table, p)) << p->ToString();
  }
}

// The relation source: the same programs over a joined Relation (two
// base tables, rows picked with repeats and in no particular order, as a
// join emits them), filtered piecewise at split points aligned neither to
// the 2048-row block nor to the engine's 16K-row morsel.
TEST_P(VectorFilterPropertyTest, RelationSourceAgreesWithRowInterpreter) {
  const size_t rows = GetParam();
  const Schema left_schema = ThreeIntCols();
  Schema right_schema;
  right_schema.AddColumn({"u", "d", DataType::kInteger, false});
  right_schema.AddColumn({"u", "e", DataType::kInteger, false});
  const Table left = RandomTable(left_schema, 300, 7 + rows);
  const Table right = RandomTable(right_schema, 200, 9 + rows);
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
                                           {"u", "d"}, {"u", "e"}}),
                     joint)
                    .value();
    const CompiledExpr compiled = CompiledExpr::Compile(p).value();
    RelationAccessor row(rel);
    std::vector<uint32_t> want;
    for (size_t i = 0; i < rows; ++i) {
      row.set_row(i);
      if (compiled.EvalPredicate(row) == 1) want.push_back(static_cast<uint32_t>(i));
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
