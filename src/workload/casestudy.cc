#include "workload/casestudy.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "ir/analysis.h"
#include "ir/binder.h"
#include "ir/builder.h"
#include "synth/sample_generator.h"

namespace sia {

namespace {

using dsl::Col;
using dsl::Lit;

// Builds a cross-table predicate over the TPC-H joint schema. When
// `bounded` is true, the predicate chains inequalities through
// o_orderdate with interval offsets — such predicates admit
// unsatisfaction tuples for the lineitem columns. When false, it links
// tables with pure equalities/differences that any lineitem value can
// satisfy for a suitable orders value, so no unsatisfaction tuple exists.
ExprPtr MakeCaseStudyPredicate(Rng& rng, bool bounded) {
  ExprPtr ship = Col("lineitem", "l_shipdate");
  ExprPtr commit = Col("lineitem", "l_commitdate");
  ExprPtr order = Col("orders", "o_orderdate");
  if (bounded) {
    const int64_t w1 = rng.Uniform(5, 60);
    const int64_t w2 = rng.Uniform(5, 60);
    const int64_t cut = rng.Uniform(8100, 9500);  // epoch days 1992..1996
    using namespace dsl;
    return (ship - order < Lit(w1)) && (commit - ship < Lit(w2)) &&
           (order < Lit(cut));
  }
  using namespace dsl;
  (void)commit;
  const int64_t off = rng.Uniform(-30, 30);
  // l_shipdate = o_orderdate + off: for every l_shipdate value there is
  // an o_orderdate satisfying the predicate, so no unsatisfaction tuple
  // over the referenced lineitem columns exists — the probe proves the
  // query is NOT symbolically relevant.
  return ship == order + Lit(off);
}

double LogNormal(Rng& rng, double mu, double sigma) {
  return std::exp(mu + sigma * rng.NextGaussian());
}

}  // namespace

Result<CaseStudyReport> SimulateCaseStudy(const Catalog& catalog,
                                          const CaseStudyOptions& options) {
  SIA_ASSIGN_OR_RETURN(Schema joint,
                       catalog.JointSchema({"lineitem", "orders"}));

  Rng rng(options.seed);
  CaseStudyReport report;
  report.records.reserve(options.query_count);

  for (size_t q = 0; q < options.query_count; ++q) {
    CaseStudyRecord rec;
    // The population we simulate is the prospective slice itself (the
    // paper's 204,287): a multi-table predicate where the target table
    // has no single-table conjunct. That property holds by construction
    // for both predicate shapes below.
    rec.prospective = true;

    const bool bounded = rng.Bernoulli(options.relevant_mix);
    ExprPtr raw = MakeCaseStudyPredicate(rng, bounded);
    SIA_ASSIGN_OR_RETURN(ExprPtr bound, Bind(raw, joint));

    // Cols' = the lineitem columns the predicate references.
    std::vector<size_t> cols;
    for (const size_t c : CollectColumnIndices(bound)) {
      if (joint.column(c).table == "lineitem") cols.push_back(c);
    }

    // Sia's §6.2 probe: one unsatisfaction tuple == symbolically relevant.
    SmtContext ctx(SolverBudget::Unbounded(options.probe_timeout_ms));
    SampleGenOptions gen_opts;
    gen_opts.random_seed = static_cast<uint32_t>(q + 1);
    SampleGenerator gen(&ctx, bound, joint, cols, gen_opts);
    auto probe = gen.GenerateFalse(1);
    rec.relevant = probe.ok() && !probe->empty();

    // Resource metrics: log-normal, calibrated so that
    // P(exec > 10 s) ≈ 0.7463 (paper Fig. 6 headline). With sigma = 1.6:
    // mu = ln 10 + 0.664 * 1.6 ≈ 3.365.
    const double sigma = 1.6;
    const double mu = std::log(10.0) + 0.664 * sigma;
    rec.exec_time_s = LogNormal(rng, mu, sigma);
    // Relevant queries skew heavier: they join fully-scanned large tables.
    if (rec.relevant) rec.exec_time_s *= 1.4;
    rec.cpu_s = rec.exec_time_s * (2.0 + 6.0 * rng.NextDouble());
    rec.mem_gb = LogNormal(rng, std::log(4.0), 1.1);

    report.prospective_count += rec.prospective;
    report.relevant_count += rec.relevant;
    report.records.push_back(rec);
  }

  size_t over10 = 0;
  for (const CaseStudyRecord& r : report.records) {
    if (r.exec_time_s > 10.0) ++over10;
  }
  report.frac_over_10s =
      report.records.empty()
          ? 0
          : static_cast<double>(over10) / report.records.size();
  return report;
}

std::vector<double> MetricPercentiles(
    const std::vector<CaseStudyRecord>& records, bool relevant_only,
    double (*metric)(const CaseStudyRecord&),
    const std::vector<double>& percentiles) {
  std::vector<double> values;
  for (const CaseStudyRecord& r : records) {
    if (relevant_only && !r.relevant) continue;
    values.push_back(metric(r));
  }
  std::sort(values.begin(), values.end());
  std::vector<double> out;
  out.reserve(percentiles.size());
  for (const double p : percentiles) {
    if (values.empty()) {
      out.push_back(0);
      continue;
    }
    const double idx = p / 100.0 * (values.size() - 1);
    const size_t lo = static_cast<size_t>(idx);
    const size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = idx - lo;
    out.push_back(values[lo] * (1 - frac) + values[hi] * frac);
  }
  return out;
}

}  // namespace sia
