#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "common/date.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "engine/column_table.h"
#include "engine/exec_expr.h"
#include "engine/executor.h"
#include "engine/runner.h"
#include "engine/selectivity.h"
#include "engine/tpch_gen.h"
#include "ir/binder.h"
#include "ir/builder.h"
#include "ir/evaluator.h"
#include "parser/parser.h"
#include "rewrite/planner.h"
#include "workload/querygen.h"

namespace sia {
namespace {

using namespace dsl;  // NOLINT

// --- ColumnData / Table -------------------------------------------------------

TEST(ColumnTableTest, AppendAndRead) {
  Schema s;
  s.AddColumn({"t", "x", DataType::kInteger, false});
  s.AddColumn({"t", "d", DataType::kDouble, false});
  Table table(s);
  ASSERT_TRUE(table.AppendRow(Tuple({Value::Integer(4), Value::Double(2.5)}))
                  .ok());
  EXPECT_EQ(table.row_count(), 1u);
  EXPECT_EQ(table.column(0).IntAt(0), 4);
  EXPECT_DOUBLE_EQ(table.column(1).DoubleAt(0), 2.5);
  EXPECT_EQ(table.RowAt(0).ToString(), "(4, 2.5)");
}

TEST(ColumnTableTest, NullHandling) {
  Schema s;
  s.AddColumn({"t", "x", DataType::kInteger, true});
  Table table(s);
  ASSERT_TRUE(table.AppendRow(Tuple({Value::Integer(1)})).ok());
  ASSERT_TRUE(table.AppendRow(Tuple({Value::Null(DataType::kInteger)})).ok());
  ASSERT_TRUE(table.AppendRow(Tuple({Value::Integer(3)})).ok());
  EXPECT_FALSE(table.column(0).IsNull(0));
  EXPECT_TRUE(table.column(0).IsNull(1));
  EXPECT_FALSE(table.column(0).IsNull(2));
  EXPECT_EQ(table.column(0).IntAt(2), 3);
}

TEST(ColumnTableTest, NullRejectedOnNonNullable) {
  Schema s;
  s.AddColumn({"t", "x", DataType::kInteger, false});
  Table table(s);
  EXPECT_FALSE(table.AppendRow(Tuple({Value::Null()})).ok());
}

// --- TPC-H generator -------------------------------------------------------------

TEST(TpchGenTest, RowCountsScale) {
  const TpchData data = GenerateTpch(0.001);
  EXPECT_EQ(data.orders.row_count(), 1500u);
  // 1..7 lineitems per order, mean 4.
  EXPECT_GT(data.lineitem.row_count(), 4000u);
  EXPECT_LT(data.lineitem.row_count(), 8500u);
}

TEST(TpchGenTest, Deterministic) {
  const TpchData a = GenerateTpch(0.0005, 9);
  const TpchData b = GenerateTpch(0.0005, 9);
  ASSERT_EQ(a.lineitem.row_count(), b.lineitem.row_count());
  for (size_t i = 0; i < a.lineitem.row_count(); i += 97) {
    EXPECT_TRUE(a.lineitem.RowAt(i) == b.lineitem.RowAt(i));
  }
}

TEST(TpchGenTest, DateInvariants) {
  const TpchData data = GenerateTpch(0.001);
  const Schema& s = data.lineitem.schema();
  const size_t ship = *s.FindColumn("l_shipdate");
  const size_t commit = *s.FindColumn("l_commitdate");
  const size_t receipt = *s.FindColumn("l_receiptdate");
  const size_t okey = *s.FindColumn("l_orderkey");
  const size_t o_okey = *data.orders.schema().FindColumn("o_orderkey");
  const size_t o_date = *data.orders.schema().FindColumn("o_orderdate");

  // Index orders by key (keys are 1..N in generation order).
  for (size_t i = 0; i < data.lineitem.row_count(); i += 13) {
    const int64_t key = data.lineitem.column(okey).IntAt(i);
    const size_t orow = static_cast<size_t>(key - 1);
    ASSERT_EQ(data.orders.column(o_okey).IntAt(orow), key);
    const int64_t odate = data.orders.column(o_date).IntAt(orow);
    const int64_t sdate = data.lineitem.column(ship).IntAt(i);
    const int64_t cdate = data.lineitem.column(commit).IntAt(i);
    const int64_t rdate = data.lineitem.column(receipt).IntAt(i);
    EXPECT_GE(sdate - odate, 1);
    EXPECT_LE(sdate - odate, 121);
    EXPECT_GE(cdate - odate, 30);
    EXPECT_LE(cdate - odate, 90);
    EXPECT_GE(rdate - sdate, 1);
    EXPECT_LE(rdate - sdate, 30);
  }
}

// --- CompiledExpr ------------------------------------------------------------------

class VecRow : public RowAccessor {
 public:
  explicit VecRow(std::vector<Value> values) : values_(std::move(values)) {}
  int64_t IntAt(size_t c) const override { return values_[c].AsInt(); }
  double DoubleAt(size_t c) const override { return values_[c].AsDouble(); }
  bool IsNull(size_t c) const override { return values_[c].is_null(); }

 private:
  std::vector<Value> values_;
};

// Property: CompiledExpr agrees with the tree-walking evaluator on random
// predicates over random (nullable) tuples.
TEST(CompiledExprTest, AgreesWithEvaluatorProperty) {
  Schema s;
  s.AddColumn({"t", "a", DataType::kInteger, true});
  s.AddColumn({"t", "b", DataType::kInteger, true});
  s.AddColumn({"t", "c", DataType::kInteger, true});

  Rng rng(77);
  auto random_scalar = [&](auto&& self, int depth) -> ExprPtr {
    if (depth <= 0 || rng.Bernoulli(0.4)) {
      if (rng.Bernoulli(0.5)) {
        return Expr::Column("t", std::string(1, "abc"[rng.Uniform(0, 2)]));
      }
      return Expr::IntLit(rng.Uniform(-20, 20));
    }
    const ArithOp op = static_cast<ArithOp>(rng.Uniform(0, 3));
    return Expr::Arith(op, self(self, depth - 1), self(self, depth - 1));
  };
  auto random_pred = [&](auto&& self, int depth) -> ExprPtr {
    if (depth <= 0 || rng.Bernoulli(0.3)) {
      const CompareOp op = static_cast<CompareOp>(rng.Uniform(0, 5));
      return Expr::Compare(op, random_scalar(random_scalar, 2),
                           random_scalar(random_scalar, 2));
    }
    if (rng.Bernoulli(0.2)) return Expr::Not(self(self, depth - 1));
    const LogicOp op = rng.Bernoulli(0.5) ? LogicOp::kAnd : LogicOp::kOr;
    return Expr::Logic(op, self(self, depth - 1), self(self, depth - 1));
  };

  for (int trial = 0; trial < 300; ++trial) {
    ExprPtr raw = random_pred(random_pred, 3);
    auto bound = Bind(raw, s);
    ASSERT_TRUE(bound.ok());
    auto compiled = CompiledExpr::Compile(*bound);
    ASSERT_TRUE(compiled.ok());
    for (int probe = 0; probe < 10; ++probe) {
      std::vector<Value> vals;
      for (int c = 0; c < 3; ++c) {
        vals.push_back(rng.Bernoulli(0.15)
                           ? Value::Null(DataType::kInteger)
                           : Value::Integer(rng.Uniform(-20, 20)));
      }
      Tuple t(vals);
      const auto expected = EvalPredicate(*(*bound), t);
      ASSERT_TRUE(expected.ok());
      const int want = expected.value() == TruthValue::kTrue    ? 1
                       : expected.value() == TruthValue::kFalse ? 0
                                                                : 2;
      VecRow row(vals);
      EXPECT_EQ(compiled->EvalPredicate(row), want)
          << (*bound)->ToString() << " on " << t.ToString();
    }
  }
}

TEST(CompiledExprTest, RejectsUnbound) {
  EXPECT_FALSE(CompiledExpr::Compile(Col("a") < Lit(1)).ok());
}

// --- Executor -----------------------------------------------------------------------

class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_ = Catalog::TpchCatalog();
    data_ = GenerateTpch(0.002, 7);  // 3000 orders, ~12k lineitem
    executor_.RegisterTable("lineitem", &data_.lineitem);
    executor_.RegisterTable("orders", &data_.orders);
  }

  QueryOutput Run(const std::string& sql, bool pushdown = true) {
    PlannerOptions opts;
    opts.push_down_filters = pushdown;
    auto out = RunSql(sql, catalog_, executor_, opts);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    return out.value();
  }

  Catalog catalog_;
  TpchData data_;
  Executor executor_;
};

TEST_F(ExecutorTest, FullScanCounts) {
  const QueryOutput out = Run("SELECT * FROM lineitem");
  EXPECT_EQ(out.row_count, data_.lineitem.row_count());
}

TEST_F(ExecutorTest, FilterMatchesManualCount) {
  const int64_t cut = ParseDateToDay("1995-01-01").value();
  const QueryOutput out =
      Run("SELECT * FROM lineitem WHERE l_shipdate < '1995-01-01'");
  size_t expected = 0;
  const size_t ship = *data_.lineitem.schema().FindColumn("l_shipdate");
  for (size_t i = 0; i < data_.lineitem.row_count(); ++i) {
    expected += data_.lineitem.column(ship).IntAt(i) < cut;
  }
  EXPECT_EQ(out.row_count, expected);
}

TEST_F(ExecutorTest, JoinRowCountEqualsLineitems) {
  // Every lineitem has exactly one matching order.
  const QueryOutput out =
      Run("SELECT * FROM lineitem, orders WHERE o_orderkey = l_orderkey");
  EXPECT_EQ(out.row_count, data_.lineitem.row_count());
}

TEST_F(ExecutorTest, PushdownDoesNotChangeResults) {
  const std::string sql =
      "SELECT * FROM lineitem, orders WHERE o_orderkey = l_orderkey AND "
      "l_shipdate - o_orderdate < 20 AND o_orderdate < '1993-06-01'";
  const QueryOutput with = Run(sql, true);
  const QueryOutput without = Run(sql, false);
  EXPECT_EQ(with.row_count, without.row_count);
  EXPECT_EQ(with.content_hash, without.content_hash);
}

TEST_F(ExecutorTest, JoinThenFilterSemantics) {
  // Manually verify a small cross-table predicate.
  const std::string sql =
      "SELECT * FROM lineitem, orders WHERE o_orderkey = l_orderkey AND "
      "l_shipdate - o_orderdate < 10";
  const QueryOutput out = Run(sql);
  const size_t ship = *data_.lineitem.schema().FindColumn("l_shipdate");
  const size_t okey = *data_.lineitem.schema().FindColumn("l_orderkey");
  const size_t o_date = *data_.orders.schema().FindColumn("o_orderdate");
  size_t expected = 0;
  for (size_t i = 0; i < data_.lineitem.row_count(); ++i) {
    const int64_t key = data_.lineitem.column(okey).IntAt(i);
    const int64_t odate = data_.orders.column(o_date).IntAt(key - 1);
    expected += (data_.lineitem.column(ship).IntAt(i) - odate) < 10;
  }
  EXPECT_EQ(out.row_count, expected);
}

TEST_F(ExecutorTest, AggregateCounts) {
  const QueryOutput out =
      Run("SELECT * FROM lineitem GROUP BY l_orderkey");
  // One output row per distinct order key present in lineitem = orders
  // that have at least one line = all orders (generator emits >= 1 line).
  EXPECT_EQ(out.row_count, data_.orders.row_count());
}

TEST_F(ExecutorTest, StatsPopulated) {
  const QueryOutput out =
      Run("SELECT * FROM lineitem, orders WHERE o_orderkey = l_orderkey");
  EXPECT_EQ(out.stats.rows_scanned,
            data_.lineitem.row_count() + data_.orders.row_count());
  EXPECT_EQ(out.stats.join_output_rows, data_.lineitem.row_count());
  EXPECT_GT(out.elapsed_ms, 0.0);
}

TEST_F(ExecutorTest, MissingTableErrors) {
  Executor empty;
  auto q = ParseQuery("SELECT * FROM lineitem");
  ASSERT_TRUE(q.ok());
  auto plan = PlanQuery(*q, catalog_);
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(empty.Execute(*plan).ok());
}

TEST_F(ExecutorTest, SelectivityMeasurement) {
  const Schema& s = data_.lineitem.schema();
  ExprPtr p =
      Bind(Col("l_shipdate") < Expr::DateLit(ParseDateToDay("1995-01-01")
                                                 .value()),
           s)
          .value();
  auto sel = EstimateSelectivity(data_.lineitem, p, /*sample_size=*/0);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel->sampled_rows, data_.lineitem.row_count());  // exact scan
  EXPECT_GT(sel->selectivity, 0.3);
  EXPECT_LT(sel->selectivity, 0.7);  // midpoint of the 1992-1998 range
}

// --- Golden engine output ------------------------------------------------------

// (row_count, content_hash, order_hash) for a fixed set of queries, pinned
// from the row-at-a-time engine (node-based multimap join, interpreted
// residual filter) before the join became block-at-a-time. Any change to
// the scan, filter or join implementation must reproduce these exactly,
// at every thread count: order_hash is order-sensitive, so this also pins
// the join's match order.
struct Golden {
  size_t rows;
  uint64_t content_hash;
  uint64_t order_hash;
};

void ExpectGolden(const std::vector<std::string>& sqls,
                  const std::vector<Golden>& golden, const Catalog& catalog,
                  const std::vector<std::pair<std::string, const Table*>>& tables) {
  ASSERT_EQ(sqls.size(), golden.size());
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    ThreadPool pool(threads);
    Executor executor;
    executor.set_thread_pool(&pool);
    for (const auto& [name, table] : tables) executor.RegisterTable(name, table);
    for (size_t q = 0; q < sqls.size(); ++q) {
      auto out = RunSql(sqls[q], catalog, executor);
      ASSERT_TRUE(out.ok()) << sqls[q] << ": " << out.status().ToString();
      const Golden& want = golden[q];
      const bool same = out->row_count == want.rows &&
                        out->content_hash == want.content_hash &&
                        out->order_hash == want.order_hash;
      char got[96];
      std::snprintf(got, sizeof(got), "{%zu, 0x%016" PRIx64 "ULL, 0x%016" PRIx64 "ULL}",
                    out->row_count, out->content_hash, out->order_hash);
      EXPECT_TRUE(same) << "query " << q << " @" << threads
                        << " threads: got " << got << " for " << sqls[q];
    }
  }
}

const TpchData& GoldenTpch() {
  static const TpchData data = GenerateTpch(0.01);
  return data;
}

std::vector<std::pair<std::string, const Table*>> GoldenTpchTables() {
  return {{"lineitem", &GoldenTpch().lineitem},
          {"orders", &GoldenTpch().orders}};
}

// The first 15 seed-2021 workload queries: the serving benchmark's
// templates, every one `lineitem JOIN orders` with cross-table residuals.
TEST(EngineGoldenTest, WorkloadTemplates) {
  const Catalog catalog = Catalog::TpchCatalog();
  QueryGenOptions options;
  options.seed = 2021;
  auto generated = GenerateWorkload(catalog, 15, options);
  ASSERT_TRUE(generated.ok()) << generated.status().ToString();
  std::vector<std::string> sqls;
  for (const GeneratedQuery& q : *generated) sqls.push_back(q.sql);
  const std::vector<Golden> golden = {
      {26258, 0xc0b44a815a9ec2a8ULL, 0x3c4d9dbab1f74767ULL},
      {0, 0x0000000000000000ULL, 0x14650fb0739d0383ULL},
      {0, 0x0000000000000000ULL, 0x14650fb0739d0383ULL},
      {0, 0x0000000000000000ULL, 0x14650fb0739d0383ULL},
      {0, 0x0000000000000000ULL, 0x14650fb0739d0383ULL},
      {0, 0x0000000000000000ULL, 0x14650fb0739d0383ULL},
      {54755, 0x0fb4849870775f59ULL, 0xb9872b1946535b23ULL},
      {0, 0x0000000000000000ULL, 0x14650fb0739d0383ULL},
      {2019, 0x7e2d6176e1efb99cULL, 0x7b8b091a3c2ed3bbULL},
      {0, 0x0000000000000000ULL, 0x14650fb0739d0383ULL},
      {0, 0x0000000000000000ULL, 0x14650fb0739d0383ULL},
      {0, 0x0000000000000000ULL, 0x14650fb0739d0383ULL},
      {0, 0x0000000000000000ULL, 0x14650fb0739d0383ULL},
      {0, 0x0000000000000000ULL, 0x14650fb0739d0383ULL},
      {0, 0x0000000000000000ULL, 0x14650fb0739d0383ULL},
  };
  ExpectGolden(sqls, golden, catalog, GoldenTpchTables());
}

// `orders, lineitem` puts lineitem on the build side, so every probe
// walks a chain of duplicate keys.
TEST(EngineGoldenTest, DuplicateBuildKeys) {
  const std::vector<std::string> sqls = {
      "SELECT * FROM orders, lineitem WHERE o_orderkey = l_orderkey",
      "SELECT * FROM orders, lineitem WHERE o_orderkey = l_orderkey "
      "AND l_shipdate - o_orderdate < 30 "
      "AND l_receiptdate - l_commitdate > o_orderdate - l_shipdate + 40",
  };
  const std::vector<Golden> golden = {
      {59758, 0x1407304029290564ULL, 0x4d8b3c6b7ae9f0e9ULL},
      {135, 0x88dfaa23baa4a69dULL, 0xaed8e851af30988bULL},
  };
  ExpectGolden(sqls, golden, Catalog::TpchCatalog(), GoldenTpchTables());
}

// NULL join keys on both sides never match; duplicates still do. The
// residual reads a nullable column, so it takes the interpreter path.
TEST(EngineGoldenTest, NullJoinKeys) {
  Schema a;
  a.AddColumn({"a", "ak", DataType::kInteger, true});
  a.AddColumn({"a", "av", DataType::kInteger, false});
  Schema b;
  b.AddColumn({"b", "bk", DataType::kInteger, true});
  b.AddColumn({"b", "bv", DataType::kInteger, true});
  Catalog catalog;
  catalog.RegisterTable("a", a);
  catalog.RegisterTable("b", b);
  const Value null = Value::Null(DataType::kInteger);
  auto i = [](int64_t v) { return Value::Integer(v); };
  Table ta(a);
  for (const Tuple& row :
       {Tuple({i(1), i(10)}), Tuple({null, i(11)}), Tuple({i(2), i(12)}),
        Tuple({i(1), i(13)}), Tuple({null, i(14)}), Tuple({i(3), i(15)})}) {
    ASSERT_TRUE(ta.AppendRow(row).ok());
  }
  Table tb(b);
  for (const Tuple& row :
       {Tuple({i(1), i(100)}), Tuple({null, i(101)}), Tuple({i(1), null}),
        Tuple({i(2), i(103)}), Tuple({null, null}), Tuple({i(4), i(105)}),
        Tuple({i(1), i(106)})}) {
    ASSERT_TRUE(tb.AppendRow(row).ok());
  }
  const std::vector<std::string> sqls = {
      "SELECT * FROM a, b WHERE ak = bk",
      "SELECT * FROM a, b WHERE ak = bk AND av + bv > 112",
  };
  const std::vector<Golden> golden = {
      {7, 0xb5b8950793533343ULL, 0x9a0268b7c10e73e0ULL},
      {4, 0xb0fbc2b35121591dULL, 0x218bc87679346d3aULL},
  };
  ExpectGolden(sqls, golden, catalog, {{"a", &ta}, {"b", &tb}});
}

// A non-NULL key whose hash is all ones must still join. The key below is
// chosen so that the join-key hash of its single column is UINT64_MAX,
// which an in-band "NULL key" sentinel would silently drop on both sides.
TEST(EngineJoinTest, KeyHashingToAllOnesStillMatches) {
  constexpr int64_t kKey = 7046029234457704916;
  Schema l;
  l.AddColumn({"l", "lk", DataType::kInteger, false});
  Schema r;
  r.AddColumn({"r", "rk", DataType::kInteger, false});
  Catalog catalog;
  catalog.RegisterTable("l", l);
  catalog.RegisterTable("r", r);
  Table tl(l);
  tl.AppendIntRow({kKey});
  Table tr(r);
  tr.AppendIntRow({kKey});
  Executor executor;
  executor.RegisterTable("l", &tl);
  executor.RegisterTable("r", &tr);
  auto out = RunSql("SELECT * FROM l, r WHERE lk = rk", catalog, executor);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->row_count, 1u);
}

// Join keys are hashed as int64, so an equality between DOUBLE columns
// must not become a hash key; it is evaluated as a residual instead.
TEST(EngineJoinTest, DoubleEqualityJoinsAsResidual) {
  Schema l;
  l.AddColumn({"l", "lx", DataType::kDouble, false});
  Schema r;
  r.AddColumn({"r", "rx", DataType::kDouble, false});
  Catalog catalog;
  catalog.RegisterTable("l", l);
  catalog.RegisterTable("r", r);
  Table tl(l);
  Table tr(r);
  for (const double v : {0.5, 1.5, 2.5, 1.5}) {
    ASSERT_TRUE(tl.AppendRow(Tuple({Value::Double(v)})).ok());
  }
  for (const double v : {1.5, 3.5, 0.5}) {
    ASSERT_TRUE(tr.AppendRow(Tuple({Value::Double(v)})).ok());
  }
  Executor executor;
  executor.RegisterTable("l", &tl);
  executor.RegisterTable("r", &tr);
  auto out = RunSql("SELECT * FROM l, r WHERE lx = rx", catalog, executor);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->row_count, 3u);  // 0.5 once, 1.5 twice
}

}  // namespace
}  // namespace sia
