// Extended engine scenarios: three-way joins, aggregation and projection
// execution, predicate-movement rules run end-to-end, and nested-loop
// join fallback.
#include <gtest/gtest.h>

#include <limits>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "engine/executor.h"
#include "engine/runner.h"
#include "ir/binder.h"
#include "ir/builder.h"
#include "parser/parser.h"
#include "rewrite/planner.h"
#include "rewrite/rules.h"

namespace sia {
namespace {

using namespace dsl;  // NOLINT

// A tiny star schema: fact(f_id, f_dim1, f_dim2, f_value),
// dim1(d1_id, d1_attr), dim2(d2_id, d2_attr).
class StarSchemaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema fact;
    fact.AddColumn({"fact", "f_id", DataType::kInteger, false});
    fact.AddColumn({"fact", "f_dim1", DataType::kInteger, false});
    fact.AddColumn({"fact", "f_dim2", DataType::kInteger, false});
    fact.AddColumn({"fact", "f_value", DataType::kInteger, false});
    Schema dim1;
    dim1.AddColumn({"dim1", "d1_id", DataType::kInteger, false});
    dim1.AddColumn({"dim1", "d1_attr", DataType::kInteger, false});
    Schema dim2;
    dim2.AddColumn({"dim2", "d2_id", DataType::kInteger, false});
    dim2.AddColumn({"dim2", "d2_attr", DataType::kInteger, false});
    catalog_.RegisterTable("fact", fact);
    catalog_.RegisterTable("dim1", dim1);
    catalog_.RegisterTable("dim2", dim2);

    fact_ = Table(fact);
    dim1_ = Table(dim1);
    dim2_ = Table(dim2);
    // 4 dim1 rows, 3 dim2 rows, 24 fact rows covering all combos twice.
    for (int64_t i = 0; i < 4; ++i) dim1_.AppendIntRow({i, i * 10});
    for (int64_t i = 0; i < 3; ++i) dim2_.AppendIntRow({i, i * 100});
    int64_t id = 0;
    for (int rep = 0; rep < 2; ++rep) {
      for (int64_t a = 0; a < 4; ++a) {
        for (int64_t b = 0; b < 3; ++b) {
          fact_.AppendIntRow({id++, a, b, a + b});
        }
      }
    }
    executor_.RegisterTable("fact", &fact_);
    executor_.RegisterTable("dim1", &dim1_);
    executor_.RegisterTable("dim2", &dim2_);
  }

  QueryOutput Run(const std::string& sql, bool pushdown = true) {
    PlannerOptions opts;
    opts.push_down_filters = pushdown;
    auto out = RunSql(sql, catalog_, executor_, opts);
    EXPECT_TRUE(out.ok()) << out.status().ToString() << " for " << sql;
    return out.ok() ? out.value() : QueryOutput{};
  }

  Catalog catalog_;
  Table fact_, dim1_, dim2_;
  Executor executor_;
};

TEST_F(StarSchemaTest, ThreeWayJoin) {
  const QueryOutput out = Run(
      "SELECT * FROM fact, dim1, dim2 "
      "WHERE f_dim1 = d1_id AND f_dim2 = d2_id");
  EXPECT_EQ(out.row_count, 24u);  // every fact row matches exactly once
}

TEST_F(StarSchemaTest, ThreeWayJoinWithFilters) {
  const QueryOutput out = Run(
      "SELECT * FROM fact, dim1, dim2 "
      "WHERE f_dim1 = d1_id AND f_dim2 = d2_id AND d1_attr >= 20 "
      "AND d2_attr = 100");
  // d1_attr >= 20 -> dims 2,3; d2_attr = 100 -> dim 1. 2*2 combos * 2 reps.
  EXPECT_EQ(out.row_count, 4u);
}

TEST_F(StarSchemaTest, PushdownEquivalenceThreeTables) {
  const std::string sql =
      "SELECT * FROM fact, dim1, dim2 WHERE f_dim1 = d1_id "
      "AND f_dim2 = d2_id AND d1_attr + d2_attr > 100 AND f_value < 5";
  const QueryOutput a = Run(sql, true);
  const QueryOutput b = Run(sql, false);
  EXPECT_EQ(a.row_count, b.row_count);
  EXPECT_EQ(a.content_hash, b.content_hash);
}

TEST_F(StarSchemaTest, CrossJoinNestedLoopFallback) {
  const QueryOutput out = Run("SELECT * FROM dim1, dim2");
  EXPECT_EQ(out.row_count, 12u);  // 4 x 3 cartesian product
}

TEST_F(StarSchemaTest, NonEquiJoinCondition) {
  // No equi conjunct: nested loop with the residual condition.
  const QueryOutput out =
      Run("SELECT * FROM dim1, dim2 WHERE d1_id < d2_id");
  // pairs with d1_id < d2_id: (0,1),(0,2),(1,2) = 3.
  EXPECT_EQ(out.row_count, 3u);
}

TEST_F(StarSchemaTest, GroupByCounts) {
  const QueryOutput out =
      Run("SELECT * FROM fact WHERE f_value > 0 GROUP BY f_dim1");
  // f_value = a + b > 0 excludes only (a=0,b=0); groups by a: a=0 still
  // has rows with b>0 -> all 4 groups present.
  EXPECT_EQ(out.row_count, 4u);
}

TEST_F(StarSchemaTest, AggregateAfterJoin) {
  const QueryOutput out = Run(
      "SELECT * FROM fact, dim1 WHERE f_dim1 = d1_id GROUP BY d1_attr");
  EXPECT_EQ(out.row_count, 4u);  // one group per dim1 attr
}

// --- NULL and DOUBLE cells through Aggregate and Project ----------------

// A nullable INTEGER key k and a nullable DOUBLE x.
Table NullableKeys(const Schema& schema) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  Table t(schema);
  const Value null_int = Value::Null(DataType::kInteger);
  const Value null_double = Value::Null(DataType::kDouble);
  for (const auto& [k, x] : std::vector<std::pair<Value, Value>>{
           {null_int, Value::Double(1.5)},
           {Value::Integer(kMin), Value::Double(1.5)},
           {Value::Integer(kMin), Value::Double(-0.0)},
           {null_int, Value::Double(0.0)},
           {Value::Integer(3), null_double}}) {
    EXPECT_TRUE(t.AppendRow(Tuple({k, x})).ok());
  }
  return t;
}

TEST(NullableAggregateTest, NullKeysFormOneGroupApartFromEveryValue) {
  Schema s;
  s.AddColumn({"t", "k", DataType::kInteger, true});
  s.AddColumn({"t", "x", DataType::kDouble, true});
  const Table t = NullableKeys(s);
  Executor executor;
  executor.RegisterTable("t", &t);
  // k: NULL, INT64_MIN and 3 are three groups (a NULL key must not
  // collide with a real INT64_MIN). x groups by value: 1.5, 0 (-0.0 and
  // 0.0 are equal) and NULL.
  for (const size_t col : {size_t{0}, size_t{1}}) {
    auto out = executor.Execute(PlanNode::Aggregate({col}, PlanNode::Scan("t", s)));
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(out->row_count, 3u) << "GROUP BY column " << col;
  }
}

TEST(NullableAggregateTest, ProjectKeepsNullAndDoubleCells) {
  Schema s;
  s.AddColumn({"t", "k", DataType::kInteger, true});
  s.AddColumn({"t", "x", DataType::kDouble, true});
  const Table t = NullableKeys(s);
  Executor executor;
  executor.RegisterTable("t", &t);
  // Projecting every column in order must not change a cell.
  auto scan = executor.Execute(PlanNode::Scan("t", s));
  auto project =
      executor.Execute(PlanNode::Project({0, 1}, PlanNode::Scan("t", s)));
  ASSERT_TRUE(scan.ok() && project.ok());
  EXPECT_EQ(project->row_count, scan->row_count);
  EXPECT_EQ(project->content_hash, scan->content_hash);
  EXPECT_EQ(project->order_hash, scan->order_hash);
}

// --- Movement rules executed end-to-end ----------------------------------

TEST_F(StarSchemaTest, MovedPlanProducesIdenticalResults) {
  const Schema fact = catalog_.GetTable("fact").value();
  const Schema dim1 = catalog_.GetTable("dim1").value();
  PlanPtr join = PlanNode::Join(nullptr, PlanNode::Scan("fact", fact),
                                PlanNode::Scan("dim1", dim1));
  ExprPtr join_cond =
      Bind(Col("f_dim1") == Col("d1_id"), join->output_schema()).value();
  PlanPtr joined = PlanNode::Join(join_cond, PlanNode::Scan("fact", fact),
                                  PlanNode::Scan("dim1", dim1));
  ExprPtr pred = Bind((Col("f_value") > Lit(1)) && (Col("d1_attr") < Lit(30)),
                      joined->output_schema())
                     .value();
  PlanPtr unmoved = PlanNode::Filter(pred, joined);
  PlanPtr moved = ApplyPredicateMovement(unmoved);
  ASSERT_NE(moved.get(), unmoved.get());

  auto a = executor_.Execute(unmoved);
  auto b = executor_.Execute(moved);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->row_count, b->row_count);
  EXPECT_EQ(a->content_hash, b->content_hash);
}

TEST_F(StarSchemaTest, ProjectNode) {
  const Schema fact = catalog_.GetTable("fact").value();
  PlanPtr scan = PlanNode::Scan("fact", fact);
  PlanPtr project = PlanNode::Project({0, 3}, scan);
  auto out = executor_.Execute(project);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->row_count, fact_.row_count());
  EXPECT_EQ(project->output_schema().size(), 2u);
}

TEST_F(StarSchemaTest, EmptyInputsFlowThrough) {
  Schema empty_schema;
  empty_schema.AddColumn({"e", "x", DataType::kInteger, false});
  Table empty(empty_schema);
  executor_.RegisterTable("e", &empty);
  Catalog cat = catalog_;
  cat.RegisterTable("e", empty_schema);
  PlannerOptions opts;
  auto out = RunSql("SELECT * FROM e WHERE x > 0", cat, executor_, opts);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->row_count, 0u);
  auto joined = RunSql("SELECT * FROM e, dim1 WHERE x = d1_id", cat,
                       executor_, opts);
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined->row_count, 0u);
}

}  // namespace
}  // namespace sia
