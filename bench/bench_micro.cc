// Google-benchmark micro-suite for the building blocks: parser, binder,
// tree-walking predicate evaluation, SVM training, SMT sample generation,
// verification, and the engine operators. These are the components whose
// costs Table 3 aggregates; the micro numbers let regressions be
// localized.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <vector>

#include "catalog/catalog.h"
#include "common/rng.h"
#include "ir/evaluator.h"
#include "engine/executor.h"
#include "engine/runner.h"
#include "engine/tpch_gen.h"
#include "ir/binder.h"
#include "ir/builder.h"
#include "learn/learner.h"
#include "learn/svm.h"
#include "parser/parser.h"
#include "rewrite/plan.h"
#include "synth/sample_generator.h"
#include "synth/synthesizer.h"
#include "synth/verifier.h"
#include "workload/querygen.h"

namespace sia {
namespace {

using namespace dsl;  // NOLINT

const char* kSql =
    "SELECT * FROM lineitem, orders WHERE o_orderkey = l_orderkey "
    "AND l_shipdate - o_orderdate < 20 AND o_orderdate < '1993-06-01' "
    "AND l_commitdate - l_shipdate < l_shipdate - o_orderdate + 10";

Schema Abc() {
  Schema s;
  s.AddColumn({"t", "a1", DataType::kInteger, false});
  s.AddColumn({"t", "a2", DataType::kInteger, false});
  s.AddColumn({"t", "b1", DataType::kInteger, false});
  return s;
}

ExprPtr MotivatingPredicate(const Schema& s) {
  return Bind((Col("a2") - Col("b1") < Lit(20)) &&
                  (Col("a1") - Col("a2") < Col("a2") - Col("b1") + Lit(10)) &&
                  (Col("b1") < Lit(0)),
              s)
      .value();
}

void BM_ParseQuery(benchmark::State& state) {
  for (auto _ : state) {
    auto q = ParseQuery(kSql);
    benchmark::DoNotOptimize(q);
  }
}
BENCHMARK(BM_ParseQuery);

void BM_BindPredicate(benchmark::State& state) {
  const Catalog catalog = Catalog::TpchCatalog();
  const Schema joint = catalog.JointSchema({"lineitem", "orders"}).value();
  const ParsedQuery q = ParseQuery(kSql).value();
  for (auto _ : state) {
    auto bound = Bind(q.where, joint);
    benchmark::DoNotOptimize(bound);
  }
}
BENCHMARK(BM_BindPredicate);

void BM_TreeWalkingEval(benchmark::State& state) {
  const Schema s = Abc();
  const ExprPtr p = MotivatingPredicate(s);
  Tuple t({Value::Integer(-10), Value::Integer(-20), Value::Integer(-5)});
  for (auto _ : state) {
    auto r = Satisfies(*p, t);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_TreeWalkingEval);

void BM_SvmTrain(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<std::vector<double>> points;
  std::vector<int> labels;
  Rng rng(3);
  for (int i = 0; i < n; ++i) {
    const double a = rng.Uniform(-100, 100);
    const double b = rng.Uniform(-100, 100);
    points.push_back({a, b});
    labels.push_back(a - b - 10 > 0 ? 1 : -1);
  }
  for (auto _ : state) {
    auto m = TrainLinearSvm(points, labels);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_SvmTrain)->Arg(20)->Arg(110)->Arg(440);

void BM_GenerateTrueSamples(benchmark::State& state) {
  const Schema s = Abc();
  const ExprPtr p = MotivatingPredicate(s);
  for (auto _ : state) {
    SmtContext ctx;
    SampleGenerator gen(&ctx, p, s, {0, 1});
    auto samples = gen.GenerateTrue(static_cast<size_t>(state.range(0)));
    benchmark::DoNotOptimize(samples);
  }
}
BENCHMARK(BM_GenerateTrueSamples)->Arg(10)->Arg(50);

void BM_GenerateFalseSamples(benchmark::State& state) {
  const Schema s = Abc();
  const ExprPtr p = MotivatingPredicate(s);
  for (auto _ : state) {
    SmtContext ctx;
    SampleGenerator gen(&ctx, p, s, {0, 1});
    auto samples = gen.GenerateFalse(static_cast<size_t>(state.range(0)));
    benchmark::DoNotOptimize(samples);
  }
}
BENCHMARK(BM_GenerateFalseSamples)->Arg(10)->Arg(50);

void BM_Verify(benchmark::State& state) {
  const Schema s = Abc();
  const ExprPtr p = MotivatingPredicate(s);
  const ExprPtr learned =
      Bind(Col("a1") - Col("a2") < Lit(29), s).value();
  for (auto _ : state) {
    auto v = VerifyImplies(p, learned, s);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_Verify);

// The CEGIS loop's verification pattern: 20 candidate p₁ (invalid below
// the optimal bound a1 - a2 < 29, valid from it on) checked in sequence
// against one p through one run's Verifier.
void BM_VerifySequence(benchmark::State& state) {
  const Schema s = Abc();
  const ExprPtr p = MotivatingPredicate(s);
  std::vector<ExprPtr> candidates;
  for (int64_t i = 0; i < 20; ++i) {
    candidates.push_back(Bind(Col("a1") - Col("a2") < Lit(20 + i), s).value());
  }
  for (auto _ : state) {
    SmtContext ctx;
    Verifier verifier(&ctx, p, s);
    for (const ExprPtr& p1 : candidates) {
      auto v = verifier.Implies(p1);
      benchmark::DoNotOptimize(v);
    }
  }
}
BENCHMARK(BM_VerifySequence)->Unit(benchmark::kMillisecond);

void BM_FullSynthesis(benchmark::State& state) {
  const Schema s = Abc();
  const ExprPtr p = MotivatingPredicate(s);
  for (auto _ : state) {
    auto r = Synthesize(p, s, {0, 1});
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_FullSynthesis)->Unit(benchmark::kMillisecond);

void BM_EngineScanFilter(benchmark::State& state) {
  const Catalog catalog = Catalog::TpchCatalog();
  static const TpchData data = GenerateTpch(0.01);
  Executor executor;
  executor.RegisterTable("lineitem", &data.lineitem);
  executor.RegisterTable("orders", &data.orders);
  for (auto _ : state) {
    auto out = RunSql(
        "SELECT * FROM lineitem WHERE l_shipdate < '1995-01-01'", catalog,
        executor);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(data.lineitem.row_count()));
}
BENCHMARK(BM_EngineScanFilter)->Unit(benchmark::kMillisecond);

// Same scan-filter at 10x the rows (~37 morsels): enough parallel work
// for SIA_THREADS scaling runs to show real speedups (the SF 0.01 table
// above is only ~4 morsels wide).
void BM_EngineScanFilterLarge(benchmark::State& state) {
  const Catalog catalog = Catalog::TpchCatalog();
  static const TpchData data = GenerateTpch(0.1);
  Executor executor;
  executor.RegisterTable("lineitem", &data.lineitem);
  executor.RegisterTable("orders", &data.orders);
  for (auto _ : state) {
    auto out = RunSql(
        "SELECT * FROM lineitem WHERE l_shipdate < '1995-01-01'", catalog,
        executor);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(data.lineitem.row_count()));
}
BENCHMARK(BM_EngineScanFilterLarge)->Unit(benchmark::kMillisecond);

// A scan whose predicate reads a NULL-bearing INTEGER column and has a
// DOUBLE conjunct, over 600K rows with every tenth key NULL: the 3VL mask
// and double-lane kernels on the scan path.
void BM_EngineScanFilterNullable(benchmark::State& state) {
  static const Table table = [] {
    Schema s;
    s.AddColumn({"t", "k", DataType::kInteger, true});
    s.AddColumn({"t", "v", DataType::kDouble, false});
    Table t(s);
    Rng rng(5);
    for (int64_t i = 0; i < 600000; ++i) {
      const Tuple row({i % 10 == 0 ? Value::Null(DataType::kInteger)
                                   : Value::Integer(rng.Uniform(0, 999)),
                       Value::Double(
                           static_cast<double>(rng.Uniform(0, 9999)) / 100)});
      if (!t.AppendRow(row).ok()) std::abort();
    }
    return t;
  }();
  const ExprPtr pred =
      Bind((Col("k") < Lit(500)) && (Col("v") * Lit(2) > Lit(50.5)),
           table.schema())
          .value();
  const PlanPtr plan = PlanNode::Scan("t", table.schema(), pred);
  Executor executor;
  executor.RegisterTable("t", &table);
  for (auto _ : state) {
    auto out = executor.Execute(plan);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(table.row_count()));
}
BENCHMARK(BM_EngineScanFilterNullable)->Unit(benchmark::kMillisecond);

void BM_EngineHashJoin(benchmark::State& state) {
  const Catalog catalog = Catalog::TpchCatalog();
  static const TpchData data = GenerateTpch(0.01);
  Executor executor;
  executor.RegisterTable("lineitem", &data.lineitem);
  executor.RegisterTable("orders", &data.orders);
  for (auto _ : state) {
    auto out = RunSql(
        "SELECT * FROM lineitem, orders WHERE o_orderkey = l_orderkey",
        catalog, executor);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(data.lineitem.row_count()));
}
BENCHMARK(BM_EngineHashJoin)->Unit(benchmark::kMillisecond);

// The serving benchmark's first template (seed-2021 workload query 0):
// `lineitem JOIN orders` with eight cross-table date conjuncts, every one
// of them a residual over the joined rows. At SF 0.05 the residual filter
// is most of the execution time.
void BM_EngineJoinResidual(benchmark::State& state) {
  const Catalog catalog = Catalog::TpchCatalog();
  static const TpchData data = GenerateTpch(0.05);
  static const std::string sql = [&] {
    QueryGenOptions options;
    options.seed = 2021;
    auto generated = GenerateWorkload(catalog, 1, options);
    return generated.ok() ? generated->front().sql : std::string();
  }();
  if (sql.empty()) {
    state.SkipWithError("workload generation failed");
    return;
  }
  Executor executor;
  executor.RegisterTable("lineitem", &data.lineitem);
  executor.RegisterTable("orders", &data.orders);
  for (auto _ : state) {
    auto out = RunSql(sql, catalog, executor);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(data.lineitem.row_count()));
}
BENCHMARK(BM_EngineJoinResidual)->Unit(benchmark::kMillisecond);

void BM_TpchGeneration(benchmark::State& state) {
  for (auto _ : state) {
    auto data = GenerateTpch(0.005);
    benchmark::DoNotOptimize(data);
  }
  state.SetLabel("SF 0.005");
}
BENCHMARK(BM_TpchGeneration)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace sia

BENCHMARK_MAIN();
