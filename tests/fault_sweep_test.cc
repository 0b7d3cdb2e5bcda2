// Fault sweep: drives injected failures through the whole pipeline —
// solver checks, sample generation, SVM training, verification,
// counter-example search, table scans — and asserts the robustness
// contract: no crash, every injected failure surfaces as a non-OK
// Status or a lower degradation-ladder rung, and any result that IS
// produced matches the fault-free baseline exactly.
//
// Two modes:
//  * In-binary sweep (always runs): arms each known fault point in turn,
//    in `once` and `always` mode, over a small workload.
//  * Env-armed pass (runs when SIA_FAULTS is set, e.g. by
//    scripts/check.sh --fault-sweep): one pass over a larger workload
//    with the environment's fault spec re-armed; SIA_SWEEP_QUERIES
//    overrides the query count.
#include <chrono>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "common/deadline.h"
#include "common/fault_injection.h"
#include "engine/executor.h"
#include "engine/runner.h"
#include "engine/tpch_gen.h"
#include "parser/parser.h"
#include "rewrite/sia_rewriter.h"
#include "server/protocol.h"
#include "server/service.h"
#include "workload/querygen.h"

namespace sia {
namespace {

struct Baseline {
  size_t row_count = 0;
  uint64_t content_hash = 0;
};

class FaultSweepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultRegistry::Instance().DisarmAll();
    catalog_ = Catalog::TpchCatalog();
    data_ = GenerateTpch(0.002, 11);
    executor_.RegisterTable("lineitem", &data_.lineitem);
    executor_.RegisterTable("orders", &data_.orders);
  }
  void TearDown() override { FaultRegistry::Instance().DisarmAll(); }

  // Rewrite options sized for a sweep: small loop budget, and a per-query
  // wall-clock ceiling so an injected fault can never wedge the suite.
  RewriteOptions SweepOptions() const {
    RewriteOptions opts;
    opts.target_table = "lineitem";
    opts.synthesis.max_iterations = 6;
    opts.synthesis.initial_true_samples = 6;
    opts.synthesis.initial_false_samples = 6;
    opts.synthesis.budget.deadline = Deadline::FromNowMillis(20000);
    return opts;
  }

  // Fault-free reference results; generated with the registry disarmed.
  std::vector<Baseline> ComputeBaselines(
      const std::vector<GeneratedQuery>& queries) {
    FaultRegistry::Instance().DisarmAll();
    std::vector<Baseline> out;
    for (const GeneratedQuery& g : queries) {
      auto run = RunQuery(g.query, catalog_, executor_);
      EXPECT_TRUE(run.ok()) << run.status().ToString();
      out.push_back(run.ok() ? Baseline{run->row_count, run->content_hash}
                             : Baseline{});
    }
    return out;
  }

  // One sweep pass with whatever is currently armed: every query must
  // rewrite without a hard error (the ladder absorbs injected failures)
  // and every successful execution must match the baseline bit-for-bit.
  // Execution-side faults (engine.scan) may fail the run itself — that
  // must be a clean kInternal, never a crash or a wrong answer.
  void SweepPass(const std::vector<GeneratedQuery>& queries,
                 const std::vector<Baseline>& baselines,
                 const std::string& label) {
    for (size_t i = 0; i < queries.size(); ++i) {
      RewriteOptions opts = SweepOptions();
      auto outcome = RewriteQuery(queries[i].query, catalog_, opts);
      ASSERT_TRUE(outcome.ok())
          << label << ": rewrite must degrade, not fail: "
          << outcome.status().ToString() << "\n"
          << queries[i].sql;
      if (!outcome->degradation.empty()) {
        EXPECT_NE(outcome->rung, RewriteRung::kFull) << label;
      }

      auto paranoid = RunRewriteParanoid(queries[i].query,
                                         outcome->rewritten, catalog_,
                                         executor_);
      if (!paranoid.ok()) {
        // Only an execution-side fault can fail the paranoid run (the
        // original query's own scan failed). It must be the injected
        // error, not junk.
        EXPECT_EQ(paranoid.status().code(), StatusCode::kInternal)
            << label << ": " << paranoid.status().ToString();
        continue;
      }
      EXPECT_EQ(paranoid->output.row_count, baselines[i].row_count)
          << label << "\n" << queries[i].sql;
      EXPECT_EQ(paranoid->output.content_hash, baselines[i].content_hash)
          << label << "\n" << queries[i].sql;
    }
  }

  Catalog catalog_;
  TpchData data_;
  Executor executor_;
};

TEST_F(FaultSweepTest, EveryPointInOnceAndAlwaysMode) {
  auto queries = GenerateWorkload(catalog_, 2);
  ASSERT_TRUE(queries.ok()) << queries.status().ToString();
  const std::vector<Baseline> baselines = ComputeBaselines(*queries);

  for (const std::string& point : FaultRegistry::KnownPoints()) {
    for (const char* mode : {"once", "always"}) {
      SCOPED_TRACE(point + "=" + mode);
      FaultRegistry::Instance().DisarmAll();
      ASSERT_TRUE(FaultRegistry::Instance()
                      .ArmFromSpec(point + "=" + mode)
                      .ok());
      SweepPass(*queries, baselines, point + "=" + mode);
    }
  }

  // The process must be fully healthy once disarmed.
  FaultRegistry::Instance().DisarmAll();
  SweepPass(*queries, baselines, "disarmed");
}

TEST_F(FaultSweepTest, MixedNthLatencyProbabilisticModes) {
  auto queries = GenerateWorkload(catalog_, 2);
  ASSERT_TRUE(queries.ok()) << queries.status().ToString();
  const std::vector<Baseline> baselines = ComputeBaselines(*queries);

  ASSERT_TRUE(FaultRegistry::Instance()
                  .ArmFromSpec("smt.check=nth:2,engine.scan=latency:1,"
                               "verify.cex=prob:0.5")
                  .ok());
  SweepPass(*queries, baselines, "mixed");
  EXPECT_GT(FaultRegistry::Instance().hits("smt.check"), 0u);
}

TEST_F(FaultSweepTest, LadderDegradesToIntervalWhenLearnerIsDown) {
  // With SVM training permanently broken, the CEGIS rung cannot produce a
  // predicate; the interval rung must still find the single-column
  // reduction for this motivating-example query.
  const std::string sql =
      "SELECT * FROM lineitem, orders WHERE o_orderkey = l_orderkey "
      "AND l_shipdate - o_orderdate < 20 AND o_orderdate < '1993-06-01'";
  ASSERT_TRUE(
      FaultRegistry::Instance().ArmFromSpec("learn.train=always").ok());

  RewriteOptions opts = SweepOptions();
  auto outcome = RewriteQuery(sql, catalog_, opts);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_FALSE(outcome->degradation.empty());
  if (outcome->changed()) {
    EXPECT_EQ(outcome->rung, RewriteRung::kInterval);
    auto paranoid = RunRewriteParanoid(ParseQuery(sql).value(),
                                       outcome->rewritten, catalog_,
                                       executor_);
    ASSERT_TRUE(paranoid.ok()) << paranoid.status().ToString();
    EXPECT_TRUE(paranoid->rewrite_used) << paranoid->note;
  }
}

TEST_F(FaultSweepTest, ParanoidModeDiscardsAWrongRewrite) {
  // Simulate a learned predicate that slipped past verification wrongly:
  // conjoin a filter that visibly changes the result. Paranoid execution
  // must detect the mismatch and return the original's rows.
  const std::string sql =
      "SELECT * FROM lineitem, orders WHERE o_orderkey = l_orderkey "
      "AND o_orderdate < '1995-06-01'";
  auto original = ParseQuery(sql);
  ASSERT_TRUE(original.ok());
  auto wrong = ParseQuery(
      "SELECT * FROM lineitem, orders WHERE o_orderkey = l_orderkey "
      "AND o_orderdate < '1995-06-01' AND l_orderkey < 0");
  ASSERT_TRUE(wrong.ok());

  auto base = RunQuery(*original, catalog_, executor_);
  ASSERT_TRUE(base.ok());
  ASSERT_GT(base->row_count, 0u);  // the wrong filter must actually bite

  auto paranoid =
      RunRewriteParanoid(*original, *wrong, catalog_, executor_);
  ASSERT_TRUE(paranoid.ok()) << paranoid.status().ToString();
  EXPECT_TRUE(paranoid->mismatch);
  EXPECT_FALSE(paranoid->rewrite_used);
  EXPECT_EQ(paranoid->output.row_count, base->row_count);
  EXPECT_EQ(paranoid->output.content_hash, base->content_hash);
}

TEST_F(FaultSweepTest, BackgroundLearningNeverWedgesUnderFaults) {
  // The background lane's robustness contract, per fault: every request
  // is still answered OK with the same digests on every serve (clients
  // never see a learning-loop failure), and after a drain no key is left
  // wedged in kSynthesizing — a crashed job releases its marker and the
  // key stays re-queueable.
  server::ServiceOptions options;
  options.scale_factor = 0.002;
  options.max_iterations = 6;
  options.shadow_sample_rate = 1.0;
  options.promote_after = 1;
  options.background_budget_ms = 5000;

  auto queries = GenerateWorkload(catalog_, 3);
  ASSERT_TRUE(queries.ok()) << queries.status().ToString();

  for (const char* spec : {"background.synth.crash=always",
                           "background.synth.latency=latency:50",
                           "promote.bad_rewrite=always"}) {
    SCOPED_TRACE(spec);
    FaultRegistry::Instance().DisarmAll();
    ASSERT_TRUE(FaultRegistry::Instance().ArmFromSpec(spec).ok());

    server::QueryService service(options);
    service.StartBackground(nullptr);
    std::vector<server::QueryReply> first(queries->size());
    for (int pass = 0; pass < 3; ++pass) {
      for (size_t i = 0; i < queries->size(); ++i) {
        auto parsed = server::ParseResponse(
            service.Handle("QUERY\n" + (*queries)[i].sql, 0));
        ASSERT_TRUE(parsed.ok());
        ASSERT_EQ(parsed->kind, server::ResponseKind::kOk)
            << parsed->error.ToString();
        ASSERT_TRUE(parsed->query.has_value());
        if (pass == 0) {
          first[i] = *parsed->query;
          ASSERT_TRUE(first[i].executed);
        } else {
          EXPECT_EQ(parsed->query->rows, first[i].rows);
          EXPECT_EQ(parsed->query->content_hash, first[i].content_hash);
        }
      }
      // Let background jobs land between passes so later serves actually
      // meet published (or force-promoted) entries.
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    service.DrainBackground();
    EXPECT_EQ(service.cache().stats().synthesizing, 0u)
        << "a key wedged in kSynthesizing";
  }
  FaultRegistry::Instance().DisarmAll();
}

TEST_F(FaultSweepTest, EnvArmedSweep) {
  const char* env = std::getenv("SIA_FAULTS");
  if (env == nullptr || env[0] == '\0') {
    GTEST_SKIP() << "SIA_FAULTS not set";
  }
  size_t count = 12;
  if (const char* n = std::getenv("SIA_SWEEP_QUERIES")) {
    const long parsed = std::strtol(n, nullptr, 10);
    if (parsed > 0) count = static_cast<size_t>(parsed);
  }

  // Workload generation and baselines run fault-free (SetUp disarmed the
  // env spec); the pass below re-arms it.
  auto queries = GenerateWorkload(catalog_, count);
  ASSERT_TRUE(queries.ok()) << queries.status().ToString();
  const std::vector<Baseline> baselines = ComputeBaselines(*queries);

  ASSERT_TRUE(FaultRegistry::Instance().ArmFromSpec(env).ok())
      << "bad SIA_FAULTS: " << env;
  SweepPass(*queries, baselines, std::string("env:") + env);
}

TEST_F(FaultSweepTest, BackgroundLearningEnvArmedSweep) {
  // The background-learning serving loop under the environment's fault
  // spec (scripts/check.sh --fault-sweep drives every known point
  // through here): requests either succeed with digests identical to
  // their first serve or surface the injected failure as a clean ERROR
  // frame, and a drain leaves no key wedged in kSynthesizing.
  const char* env = std::getenv("SIA_FAULTS");
  if (env == nullptr || env[0] == '\0') {
    GTEST_SKIP() << "SIA_FAULTS not set";
  }

  server::ServiceOptions options;
  options.scale_factor = 0.002;
  options.max_iterations = 6;
  options.shadow_sample_rate = 1.0;
  options.promote_after = 1;
  options.background_budget_ms = 5000;

  auto queries = GenerateWorkload(catalog_, 2);
  ASSERT_TRUE(queries.ok()) << queries.status().ToString();

  // Service construction (data generation) runs fault-free; the serving
  // loop, background jobs, and the drain all run under the spec.
  server::QueryService service(options);
  service.StartBackground(nullptr);
  ASSERT_TRUE(FaultRegistry::Instance().ArmFromSpec(env).ok())
      << "bad SIA_FAULTS: " << env;

  std::vector<std::optional<server::QueryReply>> first(queries->size());
  for (int pass = 0; pass < 3; ++pass) {
    for (size_t i = 0; i < queries->size(); ++i) {
      auto parsed = server::ParseResponse(
          service.Handle("QUERY\n" + (*queries)[i].sql, 0));
      ASSERT_TRUE(parsed.ok());
      if (parsed->kind != server::ResponseKind::kOk) {
        // Execution-side faults may fail the request; it must surface as
        // a clean ERROR frame, never a crash or a wrong answer.
        ASSERT_EQ(parsed->kind, server::ResponseKind::kError);
        continue;
      }
      ASSERT_TRUE(parsed->query.has_value());
      if (!first[i].has_value()) {
        first[i] = *parsed->query;
      } else if (parsed->query->executed && first[i]->executed) {
        EXPECT_EQ(parsed->query->rows, first[i]->rows);
        EXPECT_EQ(parsed->query->content_hash, first[i]->content_hash);
      }
    }
    // OBSERVE runs under the same spec: an armed obs.observe.latency
    // stalls or fails the telemetry read, which must surface as a slow
    // OK or a clean ERROR frame — never a crash, never a wedged loop.
    auto observed = server::ParseResponse(service.Handle("OBSERVE", 0));
    ASSERT_TRUE(observed.ok());
    EXPECT_TRUE(observed->kind == server::ResponseKind::kOk ||
                observed->kind == server::ResponseKind::kError)
        << "OBSERVE under " << env;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  service.DrainBackground();
  EXPECT_EQ(service.cache().stats().synthesizing, 0u)
      << "a key wedged in kSynthesizing under " << env;
}

}  // namespace
}  // namespace sia
