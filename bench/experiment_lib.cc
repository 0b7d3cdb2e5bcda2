#include "bench/experiment_lib.h"

#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "common/thread_pool.h"
#include "ir/analysis.h"
#include "ir/binder.h"
#include "obs/metrics.h"
#include "rewrite/rules.h"
#include "synth/sample_generator.h"
#include "synth/verifier.h"

namespace sia::bench {

const char* TechniqueName(Technique t) {
  switch (t) {
    case Technique::kSia:
      return "SIA";
    case Technique::kTransitiveClosure:
      return "TransitiveClosure";
    case Technique::kSiaV1:
      return "SIA_v1";
    case Technique::kSiaV2:
      return "SIA_v2";
  }
  return "?";
}

int64_t EnvInt(const char* name, int64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::atoll(v);
}

EfficacyConfig EfficacyConfig::FromEnv() {
  EfficacyConfig c;
  c.query_count = static_cast<size_t>(
      EnvInt("SIA_BENCH_QUERIES", static_cast<int64_t>(c.query_count)));
  c.per_call_cap_ms = static_cast<uint32_t>(
      EnvInt("SIA_BENCH_TIMEOUT_MS", c.per_call_cap_ms));
  return c;
}

void PrintHeader(const std::string& title) {
  std::cout << "\n" << std::string(78, '=') << "\n";
  std::cout << title << "\n";
  std::cout << std::string(78, '=') << "\n";
}

std::string JsonNum(double v) { return obs::internal::JsonNumber(v); }

void EnableBenchObservability() {
  const char* path = std::getenv("SIA_BENCH_JSON");
  if (path == nullptr || *path == '\0') return;
  obs::MetricsRegistry::SetEnabled(true);
}

bool EmitBenchReport(const std::string& name,
                     const std::string& summary_json) {
  const char* path = std::getenv("SIA_BENCH_JSON");
  if (path == nullptr || *path == '\0') return true;
  std::string out = "{\"bench\":\"";
  out += obs::internal::JsonEscape(name);
  // The execution width the run used (SIA_THREADS / hardware), so a
  // report is interpretable without knowing the environment it ran in.
  out += "\",\"threads\":";
  out += std::to_string(ThreadPool::Shared().thread_count());
  out += ",\"summary\":";
  out += summary_json;
  out += ",\"metrics\":";
  out += obs::MetricsRegistry::Instance().SnapshotJson();
  out += "}\n";
  const std::string dest(path);
  if (dest == "-" || dest == "stdout") {
    std::fputs(out.c_str(), stdout);
    return true;
  }
  std::FILE* f = std::fopen(dest.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "SIA_BENCH_JSON: cannot open %s\n", dest.c_str());
    return false;
  }
  const bool wrote = std::fputs(out.c_str(), f) >= 0;
  if (std::fclose(f) != 0 || !wrote) {
    std::fprintf(stderr, "SIA_BENCH_JSON: cannot write %s\n", dest.c_str());
    return false;
  }
  return true;
}

namespace {

SynthesisOptions OptionsFor(Technique t, uint32_t cap_ms) {
  SynthesisOptions o;
  switch (t) {
    case Technique::kSia:
      o = SynthesisOptions::Sia();
      break;
    case Technique::kSiaV1:
      o = SynthesisOptions::SiaV1();
      break;
    case Technique::kSiaV2:
      o = SynthesisOptions::SiaV2();
      break;
    case Technique::kTransitiveClosure:
      break;  // not used
  }
  o.budget.per_call_cap_ms = cap_ms;
  return o;
}

// The transitive-closure baseline: derive syntactic consequences of the
// WHERE conjuncts and keep those using only Cols'. Valid by construction
// (each derived conjunct is implied by the originals); never "optimal"
// in the paper's comparison.
AttemptRecord RunTransitiveClosure(const ExprPtr& bound_where,
                                   const Schema& joint,
                                   const std::vector<size_t>& subset) {
  AttemptRecord rec;
  const auto derived = TransitiveClosure(SplitConjuncts(bound_where));
  std::vector<ExprPtr> usable;
  for (const ExprPtr& d : derived) {
    const auto used = CollectColumnIndices(d);
    if (used.empty()) continue;
    if (UsesOnlyColumns(d, subset)) usable.push_back(d);
  }
  if (!usable.empty()) {
    rec.valid = true;
    ExprPtr pred = CombineConjuncts(usable);
    rec.predicate = pred->ToString();
    // "uses all" when the union of used columns covers the subset.
    const auto used = CollectColumnIndices(pred);
    rec.uses_all_columns = used.size() == subset.size();
  }
  (void)joint;
  return rec;
}

}  // namespace

Result<EfficacyRun> RunEfficacyExperiment(const EfficacyConfig& config) {
  const Catalog catalog = Catalog::TpchCatalog();
  SIA_ASSIGN_OR_RETURN(Schema joint,
                       catalog.JointSchema({"lineitem", "orders"}));

  QueryGenOptions gen_opts;
  gen_opts.seed = config.seed;
  SIA_ASSIGN_OR_RETURN(
      std::vector<GeneratedQuery> queries,
      GenerateWorkload(catalog, config.query_count, gen_opts));

  const size_t ship = *joint.FindColumn("l_shipdate");
  const size_t commit = *joint.FindColumn("l_commitdate");
  const size_t receipt = *joint.FindColumn("l_receiptdate");
  const std::vector<std::vector<size_t>> subsets = {
      {ship},         {commit},         {receipt},        {ship, commit},
      {ship, receipt}, {commit, receipt}, {ship, commit, receipt}};

  EfficacyRun run;
  run.queries = queries;

  for (size_t qi = 0; qi < queries.size(); ++qi) {
    SIA_ASSIGN_OR_RETURN(ExprPtr bound, Bind(queries[qi].query.where, joint));
    for (const auto& subset : subsets) {
      // Probe: does an unsatisfaction tuple exist for this subset?
      SmtContext probe_ctx(SolverBudget::Unbounded(config.per_call_cap_ms));
      SampleGenerator probe(&probe_ctx, bound, joint, subset);
      auto unsat = probe.GenerateFalse(1);
      const bool possible = unsat.ok() && !unsat->empty();

      for (const Technique tech : config.techniques) {
        AttemptRecord rec;
        rec.query_index = qi;
        rec.subset = subset;
        rec.subset_size = subset.size();
        rec.technique = tech;
        rec.possible = possible;

        // When the probe proved no unsatisfaction tuple exists, every
        // synthesis attempt ends in kNone by the same argument — skip
        // re-deriving that (and its quantified-refutation solver cost)
        // once per technique. The transitive-closure baseline is purely
        // syntactic, so it still runs.
        if (!possible && tech != Technique::kTransitiveClosure) {
          run.attempts.push_back(std::move(rec));
          continue;
        }

        if (tech == Technique::kTransitiveClosure) {
          AttemptRecord tc = RunTransitiveClosure(bound, joint, subset);
          tc.query_index = qi;
          tc.subset = subset;
          tc.subset_size = subset.size();
          tc.technique = tech;
          tc.possible = possible;
          run.attempts.push_back(std::move(tc));
          continue;
        }

        auto synth = Synthesize(bound, joint, subset,
                                OptionsFor(tech, config.per_call_cap_ms));
        if (synth.ok()) {
          rec.stats = synth->stats;
          if (synth->has_predicate() &&
              synth->status != SynthesisStatus::kNone) {
            rec.valid = true;
            rec.optimal = synth->status == SynthesisStatus::kOptimal;
            rec.predicate = synth->predicate->ToString();
            rec.uses_all_columns =
                synth->UsedColumns().size() == subset.size();
          }
        }
        run.attempts.push_back(std::move(rec));
      }
    }
  }
  return run;
}

}  // namespace sia::bench
