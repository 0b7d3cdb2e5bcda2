// Golden observability test: runs the real rewrite + execute pipeline
// with metrics and tracing armed and asserts the span names and bridged
// counters the instrumentation contract in DESIGN.md ("Observability")
// promises. A missing span here means someone removed or renamed an
// instrumentation site.
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "common/fault_injection.h"
#include "engine/executor.h"
#include "engine/runner.h"
#include "engine/tpch_gen.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parser/parser.h"
#include "rewrite/sia_rewriter.h"
#include "obs_json_util.h"

namespace sia {
namespace {

class ObsPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::MetricsRegistry::SetEnabled(true);
    obs::Tracer::SetEnabled(true);
    obs::MetricsRegistry::Instance().ResetAll();
    obs::Tracer::Instance().Clear();
  }
  void TearDown() override {
    obs::MetricsRegistry::SetEnabled(false);
    obs::Tracer::SetEnabled(false);
  }

  uint64_t CounterValue(const char* name) {
    return obs::MetricsRegistry::Instance().GetCounter(name).Value();
  }
};

// The §2 motivating query: joins lineitem/orders and synthesizes a
// lineitem-only predicate, so it exercises every pipeline seam.
constexpr const char* kQuery =
    "SELECT * FROM lineitem, orders WHERE o_orderkey = l_orderkey "
    "AND l_shipdate - o_orderdate < 20 AND o_orderdate < '1993-06-01' "
    "AND l_commitdate - l_shipdate < l_shipdate - o_orderdate + 10";

TEST_F(ObsPipelineTest, RewriteAndExecuteEmitGoldenSpans) {
  const Catalog catalog = Catalog::TpchCatalog();
  RewriteOptions opts;
  opts.target_table = "lineitem";
  auto outcome = RewriteQuery(kQuery, catalog, opts);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_TRUE(outcome->changed());

  const TpchData data = GenerateTpch(0.01);
  Executor executor;
  executor.RegisterTable("lineitem", &data.lineitem);
  executor.RegisterTable("orders", &data.orders);
  auto out = RunQuery(outcome->rewritten, catalog, executor);
  ASSERT_TRUE(out.ok()) << out.status().ToString();

  std::set<std::string> names;
  for (const obs::TraceEvent& e : obs::Tracer::Instance().CollectEvents()) {
    names.insert(e.name);
  }
  // The golden span list for a rewrite followed by an execution. Every
  // name is part of the stage.substage catalog in DESIGN.md.
  for (const char* expected :
       {"parse.query", "bind.expr", "rewrite.query", "rewrite.rung.full",
        "synth.run", "synth.iteration", "synth.sample", "learn.train",
        "learn.svm", "verify.check", "smt.check", "plan.query", "exec.query",
        "exec.scan", "exec.join"}) {
    EXPECT_TRUE(names.count(expected)) << "missing span: " << expected;
  }
}

TEST_F(ObsPipelineTest, StatsBridgesDoubleReportOntoRegistry) {
  const Catalog catalog = Catalog::TpchCatalog();
  RewriteOptions opts;
  opts.target_table = "lineitem";
  auto outcome = RewriteQuery(kQuery, catalog, opts);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_TRUE(outcome->changed());

  // SynthesisStats stays populated (API compat)...
  const SynthesisStats& st = outcome->synthesis.stats;
  EXPECT_GT(st.solver_calls, 0u);
  EXPECT_GT(st.true_samples, 0u);
  // ...and the same numbers land on the registry via the bridge.
  EXPECT_EQ(CounterValue("synth.runs"), 1u);
  EXPECT_EQ(CounterValue("synth.solver_calls"), st.solver_calls);
  EXPECT_EQ(CounterValue("synth.solver_calls"),
            CounterValue("smt.check.calls") +
                CounterValue("smt.optimize.calls"));
  EXPECT_EQ(CounterValue("synth.true_samples"), st.true_samples);
  EXPECT_EQ(CounterValue("synth.false_samples"), st.false_samples);
  EXPECT_EQ(CounterValue("rewrite.queries"), 1u);
  EXPECT_EQ(CounterValue("rewrite.changed"), 1u);
  EXPECT_EQ(CounterValue("rewrite.rung.full"), 1u);

  // Solver-call latency percentiles: one histogram entry per smt.check.
  obs::Histogram& lat = obs::MetricsRegistry::Instance().GetHistogram(
      "smt.check.latency_us");
  EXPECT_EQ(lat.Count(), CounterValue("smt.check.calls"));
  EXPECT_GT(lat.Count(), 0u);
  EXPECT_GT(lat.Percentile(0.99), 0.0);

  EXPECT_EQ(obs::MetricsRegistry::Instance()
                .GetHistogram("rewrite.query_ms")
                .Count(),
            1u);
}

// synth.solver_calls counts every solver call a rewrite makes, whichever
// rung makes it: with sampling failing, the CEGIS rungs give up and the
// interval rung's OMT queries and checks must be counted too. synth.runs
// still counts CEGIS runs only.
TEST_F(ObsPipelineTest, SolverCallsCoverEveryRung) {
  ASSERT_TRUE(FaultRegistry::Instance()
                  .Arm("synth.sample", FaultSpec{FaultMode::kAlways})
                  .ok());
  const Catalog catalog = Catalog::TpchCatalog();
  RewriteOptions opts;
  opts.target_table = "lineitem";
  auto outcome = RewriteQuery(kQuery, catalog, opts);
  FaultRegistry::Instance().DisarmAll();
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->rung, RewriteRung::kInterval);

  EXPECT_GT(CounterValue("smt.optimize.calls"), 0u);
  EXPECT_EQ(CounterValue("synth.solver_calls"),
            CounterValue("smt.check.calls") +
                CounterValue("smt.optimize.calls"));
  EXPECT_EQ(CounterValue("synth.runs"), 2u);  // the full and retry rungs
}

TEST_F(ObsPipelineTest, ExecStatsBridgeOntoRegistry) {
  const Catalog catalog = Catalog::TpchCatalog();
  const TpchData data = GenerateTpch(0.01);
  Executor executor;
  executor.RegisterTable("lineitem", &data.lineitem);
  executor.RegisterTable("orders", &data.orders);
  auto parsed = ParseQuery(kQuery);
  ASSERT_TRUE(parsed.ok());
  auto out = RunQuery(*parsed, catalog, executor);
  ASSERT_TRUE(out.ok()) << out.status().ToString();

  EXPECT_EQ(CounterValue("exec.queries"), 1u);
  EXPECT_EQ(CounterValue("exec.rows_scanned"), out->stats.rows_scanned);
  EXPECT_EQ(CounterValue("exec.output_rows"), out->stats.output_rows);
  EXPECT_EQ(CounterValue("exec.join_probe_rows"),
            out->stats.join_probe_rows);
  EXPECT_EQ(obs::MetricsRegistry::Instance()
                .GetHistogram("exec.query_ms")
                .Count(),
            1u);
}

TEST_F(ObsPipelineTest, FullSnapshotAfterPipelineIsValidJson) {
  const Catalog catalog = Catalog::TpchCatalog();
  RewriteOptions opts;
  opts.target_table = "lineitem";
  auto outcome = RewriteQuery(kQuery, catalog, opts);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(sia::test_json::IsValidJson(
      obs::MetricsRegistry::Instance().SnapshotJson()));
  EXPECT_TRUE(sia::test_json::IsValidJson(
      obs::Tracer::Instance().ExportChromeJson()));
}

}  // namespace
}  // namespace sia
