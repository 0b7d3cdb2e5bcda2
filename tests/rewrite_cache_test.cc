// The synthesis-result cache (RewriteCache) and exact selectivity
// measurement over a base table.
#include <gtest/gtest.h>

#include "engine/selectivity.h"
#include "engine/tpch_gen.h"
#include "ir/binder.h"
#include "ir/builder.h"
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
  auto exact = EstimateSelectivity(data_.lineitem, p);
  ASSERT_TRUE(exact.ok());
  EXPECT_NEAR(*exact, 0.5, 0.03);  // quantity uniform 1..50
}

TEST_F(SelectivityTest, EmptyTable) {
  Table empty(data_.lineitem.schema());
  ExprPtr p =
      Bind(Col("l_quantity") <= Lit(10), empty.schema()).value();
  auto est = EstimateSelectivity(empty, p);
  ASSERT_TRUE(est.ok());
  EXPECT_DOUBLE_EQ(*est, 0);
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
