// End-to-end tests spanning the full Sia pipeline: workload generation ->
// synthesis -> query rewriting -> execution, asserting the paper's core
// guarantee (semantic equivalence of rewritten queries) on real data.
#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "engine/executor.h"
#include "engine/runner.h"
#include "engine/selectivity.h"
#include "engine/tpch_gen.h"
#include "ir/binder.h"
#include "parser/parser.h"
#include "rewrite/sia_rewriter.h"
#include "synth/verifier.h"
#include "workload/querygen.h"

namespace sia {
namespace {

class EndToEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_ = Catalog::TpchCatalog();
    data_ = GenerateTpch(0.002, 11);
    executor_.RegisterTable("lineitem", &data_.lineitem);
    executor_.RegisterTable("orders", &data_.orders);
  }

  Catalog catalog_;
  TpchData data_;
  Executor executor_;
};

TEST_F(EndToEndTest, RewrittenWorkloadQueriesAreSemanticallyEquivalent) {
  auto queries = GenerateWorkload(catalog_, 6);
  ASSERT_TRUE(queries.ok());

  RewriteOptions opts;
  opts.target_table = "lineitem";
  // Keep the loop budget modest: equivalence matters here, not optimality.
  opts.synthesis.max_iterations = 12;

  int rewritten_count = 0;
  for (const GeneratedQuery& g : *queries) {
    auto outcome = RewriteQuery(g.query, catalog_, opts);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString() << "\n" << g.sql;
    auto original = RunQuery(g.query, catalog_, executor_);
    ASSERT_TRUE(original.ok()) << original.status().ToString();
    auto rewritten = RunQuery(outcome->rewritten, catalog_, executor_);
    ASSERT_TRUE(rewritten.ok()) << rewritten.status().ToString();

    // The paper's core guarantee: identical result sets.
    EXPECT_EQ(original->row_count, rewritten->row_count) << g.sql;
    EXPECT_EQ(original->content_hash, rewritten->content_hash) << g.sql;
    rewritten_count += outcome->changed();
  }
  // The workload is built so learned predicates usually exist.
  EXPECT_GT(rewritten_count, 0);
}

TEST_F(EndToEndTest, MotivatingExampleShowsJoinInputReduction) {
  const std::string sql =
      "SELECT * FROM lineitem, orders WHERE o_orderkey = l_orderkey "
      "AND l_shipdate - o_orderdate < 20 AND o_orderdate < '1993-06-01' "
      "AND l_commitdate - l_shipdate < l_shipdate - o_orderdate + 10";
  RewriteOptions opts;
  opts.target_table = "lineitem";
  auto outcome = RewriteQuery(sql, catalog_, opts);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_TRUE(outcome->changed());

  auto original = RunSql(sql, catalog_, executor_);
  ASSERT_TRUE(original.ok());
  auto rewritten = RunQuery(outcome->rewritten, catalog_, executor_);
  ASSERT_TRUE(rewritten.ok());

  EXPECT_EQ(original->content_hash, rewritten->content_hash);
  // The synthesized lineitem filter must shrink the join's probe input.
  EXPECT_LT(rewritten->stats.join_probe_rows,
            original->stats.join_probe_rows)
      << "learned: " << outcome->learned->ToString();
}

TEST_F(EndToEndTest, LearnedPredicateSelectivityMatchesFilteredRows) {
  const std::string sql =
      "SELECT * FROM lineitem, orders WHERE o_orderkey = l_orderkey "
      "AND l_shipdate - o_orderdate < 20 AND o_orderdate < '1993-06-01'";
  RewriteOptions opts;
  opts.target_table = "lineitem";
  auto outcome = RewriteQuery(sql, catalog_, opts);
  ASSERT_TRUE(outcome.ok());
  if (!outcome->changed()) GTEST_SKIP() << "no predicate synthesized";

  // Rebase the learned predicate from the joint schema onto lineitem.
  const Schema joint = catalog_.JointSchema({"lineitem", "orders"}).value();
  // lineitem occupies the first 10 joint columns, so indices line up.
  auto sel = EstimateSelectivity(data_.lineitem, outcome->learned);
  ASSERT_TRUE(sel.ok()) << sel.status().ToString();
  EXPECT_GT(*sel, 0.0);
  EXPECT_LT(*sel, 1.0);
}

}  // namespace
}  // namespace sia
