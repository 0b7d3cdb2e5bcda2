// The synthesis-result cache (RewriteCache) and exact selectivity
// measurement over a base table.
#include <gtest/gtest.h>

#include "engine/selectivity.h"
#include "engine/tpch_gen.h"
#include "ir/binder.h"
#include "ir/builder.h"
#include "obs/metrics.h"
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

// Publishes `entry` for (p, cols) the one way an entry enters the cache:
// a Decide miss claims the key's marker, CompleteSynthesis publishes.
void Publish(RewriteCache& cache, const ExprPtr& p,
             const std::vector<size_t>& cols, RewriteCache::Entry entry) {
  ASSERT_TRUE(cache.Decide(p, cols, PromotionPolicy{}, false, 0).enqueue);
  ASSERT_TRUE(cache.CompleteSynthesis(p, cols, std::move(entry)).ok());
}

TEST(RewriteCacheTest, MissThenHit) {
  obs::MetricsRegistry::SetEnabled(true);
  obs::MetricsRegistry::Instance().ResetAll();
  Schema s;
  s.AddColumn({"t", "a", DataType::kInteger, false});
  s.AddColumn({"t", "b", DataType::kInteger, false});
  ExprPtr p = Bind((Col("a") - Col("b") < Lit(20)) && (Col("b") < Lit(0)), s)
                  .value();

  RewriteCache cache;
  EXPECT_FALSE(cache.Lookup(p, {0}).has_value());

  // The miss claims the marker; the caller synthesizes and publishes.
  const PromotionPolicy policy;
  ASSERT_TRUE(cache.Decide(p, {0}, policy, false, 0).enqueue);
  const SynthesisResult result = Synthesize(p, s, {0}).value();
  ASSERT_TRUE(result.has_predicate());
  RewriteCache::Entry entry;
  entry.status = result.status;
  entry.predicate = result.predicate;
  ASSERT_TRUE(cache.CompleteSynthesis(p, {0}, entry).ok());

  // The hit finds the published entry and asks for no second synthesis.
  const ServingDecision hit = cache.Decide(p, {0}, policy, true, 0);
  EXPECT_FALSE(hit.enqueue);
  EXPECT_EQ(hit.state, EntryState::kQuarantined);  // learned: untrusted
  EXPECT_TRUE(hit.shadow);
  EXPECT_TRUE(Expr::Equal(hit.predicate, result.predicate));

  EXPECT_EQ(cache.stats().entries, 1u);
  if (obs::MetricsRegistry::Enabled()) {  // compiled out under SIA_OBS_DISABLED
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Instance();
    EXPECT_EQ(reg.GetCounter("rewrite.cache.miss").Value(), 1u);
    EXPECT_EQ(reg.GetCounter("rewrite.cache.hit").Value(), 1u);
  }
  obs::MetricsRegistry::SetEnabled(false);
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

}  // namespace
}  // namespace sia
