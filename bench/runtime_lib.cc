#include "bench/runtime_lib.h"

#include <algorithm>
#include <functional>

#include "bench/experiment_lib.h"
#include "catalog/catalog.h"
#include "engine/executor.h"
#include "engine/runner.h"
#include "engine/selectivity.h"
#include "engine/tpch_gen.h"
#include "rewrite/batch_rewriter.h"
#include "rewrite/rewrite_cache.h"
#include "rewrite/sia_rewriter.h"
#include "workload/querygen.h"

namespace sia::bench {

RuntimeConfig RuntimeConfig::FromEnv(double default_sf) {
  RuntimeConfig c;
  c.scale_factor = default_sf;
  c.query_count = static_cast<size_t>(
      EnvInt("SIA_BENCH_QUERIES", static_cast<int64_t>(c.query_count)));
  const int64_t sf_milli = EnvInt("SIA_BENCH_SF_MILLI", 0);
  if (sf_milli > 0) c.scale_factor = static_cast<double>(sf_milli) / 1000.0;
  c.max_iterations =
      static_cast<int>(EnvInt("SIA_BENCH_ITERATIONS", c.max_iterations));
  return c;
}

namespace {

double BestOf(int reps, const std::function<Result<QueryOutput>()>& run,
              Result<QueryOutput>* last) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    *last = run();
    if (!last->ok()) return -1;
    best = std::min(best, (*last)->elapsed_ms);
  }
  return best;
}

}  // namespace

Result<std::vector<RuntimeRecord>> RunRuntimeExperiment(
    const RuntimeConfig& config) {
  const Catalog catalog = Catalog::TpchCatalog();
  const TpchData data = GenerateTpch(config.scale_factor);
  Executor executor;
  executor.RegisterTable("lineitem", &data.lineitem);
  executor.RegisterTable("orders", &data.orders);

  QueryGenOptions gen_opts;
  gen_opts.seed = config.seed;
  SIA_ASSIGN_OR_RETURN(
      std::vector<GeneratedQuery> queries,
      GenerateWorkload(catalog, config.query_count, gen_opts));

  // Rewrite the whole workload concurrently (the §6.3 batch) before any
  // timing: one shared single-flight cache, queries fanned out over the
  // shared pool. Timed execution below stays in workload order.
  BatchRewriteOptions batch;
  batch.rewrite.target_table = "lineitem";
  if (config.max_iterations > 0) {
    batch.rewrite.synthesis.max_iterations = config.max_iterations;
  }
  RewriteCache cache;
  batch.cache = &cache;
  std::vector<ParsedQuery> parsed;
  parsed.reserve(queries.size());
  for (const GeneratedQuery& q : queries) parsed.push_back(q.query);
  SIA_ASSIGN_OR_RETURN(std::vector<RewriteOutcome> outcomes,
                       RewriteBatch(parsed, catalog, batch));

  std::vector<RuntimeRecord> records;
  records.reserve(queries.size());
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const RewriteOutcome& outcome = outcomes[qi];
    RuntimeRecord rec;
    rec.query_index = qi;
    rec.rewritten = outcome.changed();
    rec.from_cache = outcome.from_cache;

    // The original always executes — its digests feed ResultDigest for
    // every query, keeping the workload hash independent of which
    // queries the rewriter happened to improve.
    Result<QueryOutput> original(Status::OK());
    rec.original_ms = BestOf(
        config.repetitions,
        [&] { return RunQuery(queries[qi].query, catalog, executor); },
        &original);
    if (!original.ok()) return original.status();
    rec.row_count = original->row_count;
    rec.content_hash = original->content_hash;
    rec.order_hash = original->order_hash;
    if (!rec.rewritten) {
      records.push_back(std::move(rec));
      continue;
    }
    rec.learned = outcome.learned->ToString();

    Result<QueryOutput> rewritten(Status::OK());
    rec.rewritten_ms = BestOf(
        config.repetitions,
        [&] { return RunQuery(outcome.rewritten, catalog, executor); },
        &rewritten);
    if (!rewritten.ok()) return rewritten.status();
    rec.results_match = original->content_hash == rewritten->content_hash &&
                        original->row_count == rewritten->row_count;

    // Learned predicate selectivity on lineitem (lineitem occupies the
    // first columns of the joint schema, so indices line up).
    SIA_ASSIGN_OR_RETURN(rec.selectivity,
                         EstimateSelectivity(data.lineitem, outcome.learned));
    records.push_back(std::move(rec));
  }
  return records;
}

uint64_t ResultDigest(const std::vector<RuntimeRecord>& records) {
  uint64_t digest = 1469598103934665603ULL;
  auto mix = [&](uint64_t v) {
    digest ^= v + 0x9E3779B97F4A7C15ULL + (digest << 6) + (digest >> 2);
  };
  for (const RuntimeRecord& r : records) {
    mix(r.row_count);
    mix(r.content_hash);
    mix(r.order_hash);
  }
  return digest;
}

RuntimeSummary Summarize(const std::vector<RuntimeRecord>& records) {
  RuntimeSummary s;
  double sel_f = 0, sel_f2 = 0, sel_s = 0, sel_s2 = 0;
  int n_f2 = 0, n_s2 = 0;
  for (const RuntimeRecord& r : records) {
    if (!r.rewritten) continue;
    ++s.rewritten;
    if (r.rewritten_ms < r.original_ms) {
      ++s.faster;
      sel_f += r.selectivity;
      if (r.rewritten_ms * 2 < r.original_ms) {
        ++s.faster_2x;
        sel_f2 += r.selectivity;
        ++n_f2;
      }
    } else {
      ++s.slower;
      sel_s += r.selectivity;
      if (r.rewritten_ms > 2 * r.original_ms) {
        ++s.slower_2x;
        sel_s2 += r.selectivity;
        ++n_s2;
      }
    }
  }
  if (s.faster > 0) s.avg_sel_faster = sel_f / s.faster;
  if (n_f2 > 0) s.avg_sel_faster_2x = sel_f2 / n_f2;
  if (s.slower > 0) s.avg_sel_slower = sel_s / s.slower;
  if (n_s2 > 0) s.avg_sel_slower_2x = sel_s2 / n_s2;
  return s;
}

}  // namespace sia::bench
