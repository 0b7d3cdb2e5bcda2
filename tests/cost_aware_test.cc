// Tests for the cost-aware rewriting extension: sampled selectivity
// estimation and rewrite admission, plus the synthesis-result cache.
#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "engine/cost_aware_rewriter.h"
#include "engine/selectivity.h"
#include "engine/tpch_gen.h"
#include "ir/binder.h"
#include "ir/builder.h"
#include "parser/parser.h"
#include "rewrite/rewrite_cache.h"

namespace sia {
namespace {

using namespace dsl;  // NOLINT

// --- EstimateSelectivity -----------------------------------------------------

class SelectivityTest : public ::testing::Test {
 protected:
  void SetUp() override { data_ = GenerateTpch(0.005, 21); }
  TpchData data_;
};

TEST_F(SelectivityTest, ExactScanMatchesMeasure) {
  const Schema& s = data_.lineitem.schema();
  ExprPtr p = Bind(Col("l_quantity") <= Lit(25), s).value();
  auto exact = EstimateSelectivity(data_.lineitem, p, 0);
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(exact->sampled_rows, data_.lineitem.row_count());
  EXPECT_DOUBLE_EQ(exact->error_bound, 0);
  EXPECT_NEAR(exact->selectivity, 0.5, 0.03);  // quantity uniform 1..50
}

TEST_F(SelectivityTest, SampleTracksExactWithinErrorBound) {
  const Schema& s = data_.lineitem.schema();
  const std::vector<ExprPtr> predicates = {
      Bind(Col("l_quantity") <= Lit(10), s).value(),
      Bind(Col("l_shipdate") < Expr::DateLit(9000), s).value(),
      Bind(Col("l_commitdate") - Col("l_shipdate") < Lit(0), s).value(),
  };
  for (const ExprPtr& p : predicates) {
    auto exact = EstimateSelectivity(data_.lineitem, p, 0);
    auto sampled = EstimateSelectivity(data_.lineitem, p, 500);
    ASSERT_TRUE(exact.ok() && sampled.ok());
    EXPECT_EQ(sampled->sampled_rows, 500u);
    EXPECT_GT(sampled->error_bound, 0);
    EXPECT_NEAR(sampled->selectivity, exact->selectivity,
                sampled->error_bound * 2 + 0.02)
        << p->ToString();
  }
}

TEST_F(SelectivityTest, EmptyTable) {
  Table empty(data_.lineitem.schema());
  ExprPtr p =
      Bind(Col("l_quantity") <= Lit(10), empty.schema()).value();
  auto est = EstimateSelectivity(empty, p);
  ASSERT_TRUE(est.ok());
  EXPECT_EQ(est->sampled_rows, 0u);
  EXPECT_DOUBLE_EQ(est->selectivity, 0);
}

TEST_F(SelectivityTest, SampleLargerThanTable) {
  const Schema& s = data_.lineitem.schema();
  ExprPtr p = Bind(Col("l_quantity") <= Lit(50), s).value();
  auto est = EstimateSelectivity(data_.lineitem, p,
                                 data_.lineitem.row_count() * 10);
  ASSERT_TRUE(est.ok());
  EXPECT_DOUBLE_EQ(est->selectivity, 1.0);
}

// --- Cost-aware rewriting -----------------------------------------------------

TEST_F(SelectivityTest, CostAwareAdmitsSelectiveRewrite) {
  const Catalog catalog = Catalog::TpchCatalog();
  // The motivating query: learned predicate selectivity ~0.14.
  auto query = ParseQuery(
      "SELECT * FROM lineitem, orders WHERE o_orderkey = l_orderkey "
      "AND l_shipdate - o_orderdate < 20 AND o_orderdate < '1993-06-01' "
      "AND l_commitdate - l_shipdate < l_shipdate - o_orderdate + 10");
  ASSERT_TRUE(query.ok());
  CostAwareOptions opts;
  opts.rewrite.target_table = "lineitem";
  opts.max_selectivity = 0.9;
  auto outcome =
      RewriteQueryCostAware(*query, catalog, data_.lineitem, opts);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_TRUE(outcome->base.changed());
  EXPECT_FALSE(outcome->rejected_by_cost)
      << "selectivity " << outcome->estimate.selectivity;
  // How far the loop converges varies with solver budgets; the learned
  // predicate is at worst commit-ship < 29 (selectivity ~0.75) and at
  // best also bounds l_shipdate (~0.14).
  EXPECT_LT(outcome->estimate.selectivity, 0.9);
  // FinalQuery picks the rewritten form.
  EXPECT_NE(outcome->FinalQuery(*query).ToString(), query->ToString());
}

TEST_F(SelectivityTest, CostAwareRejectsVacuousRewrite) {
  const Catalog catalog = Catalog::TpchCatalog();
  auto query = ParseQuery(
      "SELECT * FROM lineitem, orders WHERE o_orderkey = l_orderkey "
      "AND l_shipdate - o_orderdate < 20 AND o_orderdate < '1993-06-01' "
      "AND l_commitdate - l_shipdate < l_shipdate - o_orderdate + 10");
  ASSERT_TRUE(query.ok());
  CostAwareOptions opts;
  opts.rewrite.target_table = "lineitem";
  opts.max_selectivity = 0.0;  // reject everything
  auto outcome =
      RewriteQueryCostAware(*query, catalog, data_.lineitem, opts);
  ASSERT_TRUE(outcome.ok());
  ASSERT_TRUE(outcome->base.changed());
  EXPECT_TRUE(outcome->rejected_by_cost);
  EXPECT_EQ(outcome->FinalQuery(*query).ToString(), query->ToString());
}

// --- RewriteCache ---------------------------------------------------------------

// Publishes `entry` for (p, cols) through the synchronous protocol: the
// miss claims the key's marker and the guard publishes it trusted.
void Publish(RewriteCache& cache, const ExprPtr& p,
             const std::vector<size_t>& cols, RewriteCache::Entry entry) {
  ASSERT_FALSE(cache.DecideOrWait(p, cols).has_value());
  RewriteCache::MarkerGuard marker(&cache, p, cols);
  ASSERT_TRUE(marker.Publish(std::move(entry)).ok());
}

TEST(RewriteCacheTest, MissThenHit) {
  Schema s;
  s.AddColumn({"t", "a", DataType::kInteger, false});
  s.AddColumn({"t", "b", DataType::kInteger, false});
  ExprPtr p = Bind((Col("a") - Col("b") < Lit(20)) && (Col("b") < Lit(0)), s)
                  .value();

  RewriteCache cache;
  EXPECT_FALSE(cache.Lookup(p, {0}).has_value());

  int synth_calls = 0;
  auto get = [&]() -> RewriteCache::Entry {
    if (auto hit = cache.DecideOrWait(p, {0})) return *hit;
    RewriteCache::MarkerGuard marker(&cache, p, {0});
    ++synth_calls;
    const SynthesisResult result = Synthesize(p, s, {0}).value();
    RewriteCache::Entry entry;
    entry.status = result.status;
    entry.predicate = result.predicate;
    EXPECT_TRUE(marker.Publish(entry).ok());
    return entry;
  };
  const RewriteCache::Entry first = get();
  EXPECT_EQ(synth_calls, 1);
  const RewriteCache::Entry second = get();
  EXPECT_EQ(synth_calls, 1);  // served from cache
  EXPECT_TRUE(Expr::Equal(first.predicate, second.predicate));
  EXPECT_EQ(second.state, EntryState::kPromoted);  // trusted publish

  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);  // Lookup inspects without counting
  EXPECT_EQ(stats.entries, 1u);
}

TEST(RewriteCacheTest, DistinctColumnSetsAreDistinctKeys) {
  Schema s;
  s.AddColumn({"t", "a", DataType::kInteger, false});
  s.AddColumn({"t", "b", DataType::kInteger, false});
  ExprPtr p = Bind(Col("a") < Col("b"), s).value();
  RewriteCache cache;
  Publish(cache, p, {0}, {SynthesisStatus::kNone, nullptr});
  EXPECT_TRUE(cache.Lookup(p, {0}).has_value());
  EXPECT_FALSE(cache.Lookup(p, {1}).has_value());
}

TEST(RewriteCacheTest, StructurallyEqualPredicatesShareEntries) {
  Schema s;
  s.AddColumn({"t", "a", DataType::kInteger, false});
  s.AddColumn({"t", "b", DataType::kInteger, false});
  ExprPtr p1 = Bind(Col("a") < Col("b"), s).value();
  ExprPtr p2 = Bind(Col("a") < Col("b"), s).value();  // distinct tree
  RewriteCache cache;
  Publish(cache, p1, {0}, {SynthesisStatus::kValid, p1});
  EXPECT_TRUE(cache.Lookup(p2, {0}).has_value());
}

TEST(RewriteCacheTest, ClearResets) {
  Schema s;
  s.AddColumn({"t", "a", DataType::kInteger, false});
  ExprPtr p = Bind(Col("a") < Lit(0), s).value();
  RewriteCache cache;
  Publish(cache, p, {0}, {SynthesisStatus::kNone, nullptr});
  cache.Clear();
  EXPECT_FALSE(cache.Lookup(p, {0}).has_value());
  EXPECT_EQ(cache.stats().entries, 0u);
}

}  // namespace
}  // namespace sia
