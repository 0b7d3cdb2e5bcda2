// sia_lint — static analysis driver for SQL queries and generated
// workloads. Runs each query through parse -> bind -> plan -> predicate
// movement (and optionally the full Sia rewrite) and prints every
// diagnostic the check/ validators produce.
//
//   sia_lint [options] [file.sql ...]
//     --workload N      lint N §6.3 workload-generator queries instead of
//                       (or in addition to) SQL files
//     --seed S          workload generator seed (default 2021)
//     --rewrite         run the Sia rewrite and validate the learned
//                       predicate (CNF + binding) and the rewritten plan
//     --max-iterations N  synthesis iteration budget for --rewrite
//                       (default: the paper's 41; lower is faster and
//                       still produces real, validatable predicates)
//     --deadline-ms N   end-to-end wall-clock budget per --rewrite query;
//                       queries that hit it report which stage burned the
//                       budget and which degradation-ladder rung answered
//     --threads N       rewrite --workload queries concurrently on N
//                       worker threads through one shared rewrite
//                       cache, then lint the outcomes in order. Only
//                       affects --rewrite + --workload runs. Incompatible
//                       with --deadline-ms: the deadline is an absolute
//                       instant, so under a batch it would bound the
//                       whole batch rather than each query
//     --target TABLE    rewrite target table (default lineitem)
//     --no-pushdown     plan without filter pushdown
//     --list-fault-points  print the pipeline's SIA_FAULTS points with
//                       per-point firing counts (fired=N injected=M).
//                       With no inputs, prints and exits; with inputs,
//                       the counts reflect the run that just finished
//     --metrics-out D   write a metrics snapshot (JSON) to D after the
//                       run; D is a path or "stderr"
//     --trace-out F     write a Chrome trace-event file (Perfetto-
//                       loadable) of the run to F
//     --digests-out F   write one canonical digest line per --workload
//                       query to F (the same lines sia_client emits), for
//                       byte-comparing a served run against a local batch
//                       run. Requires --rewrite + --workload; incompatible
//                       with --deadline-ms (deadline outcomes are timing-
//                       dependent, digests must be deterministic)
//     --execute-sf SF   with --digests-out: generate TPC-H data at SF
//                       (seed 42, matching sia_serve --data-seed) and
//                       execute every rewritten query so digest lines
//                       carry rows/content_hash/order_hash
//     --werror          exit non-zero on warnings too
//     -q, --quiet       print only the summary line
//
// SQL files may hold multiple statements separated by ';'. With no file
// and no --workload, SQL statements are read from stdin. Queries are
// checked against the built-in TPC-H catalog. Exit status: 0 clean,
// 1 diagnostics found (errors, or warnings under --werror), 2 usage or
// input error.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "check/expr_validator.h"
#include "check/plan_validator.h"
#include "common/deadline.h"
#include "common/fault_injection.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "engine/executor.h"
#include "engine/tpch_gen.h"
#include "ir/binder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parser/parser.h"
#include "rewrite/batch_rewriter.h"
#include "rewrite/planner.h"
#include "rewrite/rewrite_cache.h"
#include "rewrite/rules.h"
#include "rewrite/sia_rewriter.h"
#include "server/protocol.h"
#include "server/service.h"
#include "workload/querygen.h"

namespace {

struct LintOptions {
  size_t workload_count = 0;
  uint64_t seed = 2021;
  bool rewrite = false;
  int max_iterations = 0;   // 0 = synthesizer default
  int64_t deadline_ms = 0;  // 0 = unlimited
  int threads = 1;          // >1 = batch-rewrite the workload first
  std::string target_table = "lineitem";
  bool push_down = true;
  bool werror = false;
  bool quiet = false;
  bool list_fault_points = false;
  std::string metrics_out;  // empty = off; "stderr" or a file path
  std::string trace_out;    // empty = off
  std::string digests_out;  // empty = off
  double execute_sf = 0;    // 0 = rewrite-only digests
  std::vector<std::string> files;
};

struct LintTotals {
  size_t queries = 0;
  size_t errors = 0;
  size_t warnings = 0;
  size_t rewritten = 0;
  size_t degraded = 0;  // rewrites that fell down the ladder
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--workload N] [--seed S] [--rewrite]\n"
               "          [--max-iterations N] [--deadline-ms N]\n"
               "          [--threads N] [--target TABLE]\n"
               "          [--no-pushdown] [--werror]\n"
               "          [--list-fault-points] [--metrics-out DEST]\n"
               "          [--trace-out FILE] [--digests-out FILE]\n"
               "          [--execute-sf SF] [-q|--quiet] [file.sql ...]\n",
               argv0);
  return 2;
}

void Report(const std::string& label, const sia::Diagnostics& diags,
            const LintOptions& options, LintTotals* totals) {
  totals->errors += diags.error_count();
  totals->warnings += diags.warning_count();
  if (options.quiet) return;
  for (const sia::Diagnostic& d : diags.items()) {
    std::printf("%s: %s\n", label.c_str(), d.ToString().c_str());
  }
}

// parse/bind/plan/movement (+ optional rewrite) for one query; every
// stage's findings are labeled with the stage that produced them.
// Sums the duration of every span named `name` recorded at or after
// `since_us`. Used to rebuild the per-stage time split of a single
// rewrite from the tracer instead of from SynthesisStats.
double SpanMillisSince(const std::vector<sia::obs::TraceEvent>& events,
                       std::string_view name, uint64_t since_us) {
  double ms = 0.0;
  for (const sia::obs::TraceEvent& ev : events) {
    if (ev.ts_us >= since_us && ev.name == name) {
      ms += static_cast<double>(ev.dur_us) / 1000.0;
    }
  }
  return ms;
}

// When `precomputed` is non-null (the --threads batch path), the rewrite
// already ran; the outcome is validated here instead of re-rewriting.
void LintQuery(const std::string& label, const sia::ParsedQuery& query,
               const sia::Catalog& catalog, const LintOptions& options,
               LintTotals* totals,
               const sia::RewriteOutcome* precomputed = nullptr) {
  SIA_TRACE_SPAN("lint.query");
  ++totals->queries;

  const auto joint = catalog.JointSchema(query.tables);
  if (!joint.ok()) {
    ++totals->errors;
    if (!options.quiet) {
      std::printf("%s: error [catalog] %s\n", label.c_str(),
                  joint.status().message().c_str());
    }
    return;
  }

  if (query.where != nullptr) {
    auto bound = sia::Bind(query.where, *joint);
    if (!bound.ok()) {
      ++totals->errors;
      if (!options.quiet) {
        std::printf("%s: error [bind] %s\n", label.c_str(),
                    bound.status().message().c_str());
      }
      return;
    }
    sia::Diagnostics diags;
    sia::ExprValidatorOptions expr_opts;
    expr_opts.require_boolean = true;
    sia::ValidateExpr(*bound, *joint, &diags, expr_opts);
    Report(label + " [where]", diags, options, totals);
  }

  sia::PlannerOptions planner_options;
  planner_options.push_down_filters = options.push_down;
  auto plan = sia::PlanQuery(query, catalog, planner_options);
  if (!plan.ok()) {
    ++totals->errors;
    if (!options.quiet) {
      std::printf("%s: error [plan] %s\n", label.c_str(),
                  plan.status().message().c_str());
    }
    return;
  }
  sia::PlanValidatorOptions plan_opts;
  plan_opts.catalog = &catalog;
  {
    sia::Diagnostics diags;
    sia::ValidatePlan(*plan, &diags, plan_opts);
    Report(label + " [plan]", diags, options, totals);
  }
  {
    const sia::PlanPtr moved = sia::ApplyPredicateMovement(*plan);
    sia::Diagnostics diags;
    sia::ValidatePlan(moved, &diags, plan_opts);
    Report(label + " [movement]", diags, options, totals);
  }

  if (!options.rewrite) return;
  sia::RewriteOutcome outcome_value;
  // Tracer spans since trace_mark describe THIS query's rewrite only
  // when the rewrite ran here; in the batch path the spans interleave
  // across workers, so the stage split falls back to SynthesisStats.
  uint64_t trace_mark = 0;
  bool traced_here = false;
  if (precomputed != nullptr) {
    outcome_value = *precomputed;
  } else {
    sia::RewriteOptions rewrite_options;
    rewrite_options.target_table = options.target_table;
    if (options.max_iterations > 0) {
      rewrite_options.synthesis.max_iterations = options.max_iterations;
    }
    if (options.deadline_ms > 0) {
      // The budget starts now and is shared by every solver call the
      // rewrite makes, across all ladder rungs.
      rewrite_options.synthesis.budget.deadline =
          sia::Deadline::FromNowMillis(options.deadline_ms);
    }
    // Marks the start of this query's rewrite in the tracer's timeline
    // so the degraded-query stage split below can be summed from spans.
    traced_here = sia::obs::Tracer::Enabled();
    trace_mark =
        traced_here ? sia::obs::Tracer::Instance().NowMicros() : 0;
    auto outcome = sia::RewriteQuery(query, catalog, rewrite_options);
    if (!outcome.ok()) {
      ++totals->errors;
      if (!options.quiet) {
        std::printf("%s: error [rewrite] %s\n", label.c_str(),
                    outcome.status().message().c_str());
      }
      return;
    }
    outcome_value = std::move(*outcome);
  }
  if (!outcome_value.degradation.empty()) {
    ++totals->degraded;
    if (!options.quiet) {
      std::printf("%s: note [rewrite] degraded to rung '%s'\n", label.c_str(),
                  sia::RewriteRungName(outcome_value.rung));
      for (const std::string& why : outcome_value.degradation) {
        std::printf("%s: note [rewrite]   %s\n", label.c_str(), why.c_str());
      }
      const sia::SynthesisStats& st = outcome_value.synthesis.stats;
      if (traced_here) {
        // Stage split summed from the tracer's spans for this query:
        // generation = initial sampling + counter-example search,
        // matching what SynthesisStats used to hand-time.
        const std::vector<sia::obs::TraceEvent> events =
            sia::obs::Tracer::Instance().CollectEvents();
        std::printf(
            "%s: note [rewrite]   stage time: generation %.1fms, "
            "learning %.1fms, validation %.1fms (%zu solver calls)\n",
            label.c_str(),
            SpanMillisSince(events, "synth.sample", trace_mark) +
                SpanMillisSince(events, "verify.cex", trace_mark),
            SpanMillisSince(events, "learn.train", trace_mark),
            SpanMillisSince(events, "verify.check", trace_mark),
            st.solver_calls);
      } else {
        std::printf("%s: note [rewrite]   stage time: generation %.1fms, "
                    "learning %.1fms, validation %.1fms (%zu solver calls)\n",
                    label.c_str(), st.generation_ms, st.learning_ms,
                    st.validation_ms, st.solver_calls);
      }
      if (outcome_value.synthesis.deadline_expired) {
        std::printf(
            "%s: note [rewrite]   deadline expired in stage '%s'\n",
            label.c_str(), outcome_value.synthesis.timeout_stage.c_str());
      }
    }
  }
  if (!outcome_value.changed()) return;
  ++totals->rewritten;

  {
    sia::Diagnostics diags;
    sia::ExprValidatorOptions expr_opts;
    expr_opts.require_boolean = true;
    sia::ValidateExpr(outcome_value.learned, *joint, &diags, expr_opts);
    sia::ValidateCnf(outcome_value.learned, &diags);
    Report(label + " [learned]", diags, options, totals);
  }
  auto replan =
      sia::PlanQuery(outcome_value.rewritten, catalog, planner_options);
  if (!replan.ok()) {
    ++totals->errors;
    if (!options.quiet) {
      std::printf("%s: error [replan] %s\n", label.c_str(),
                  replan.status().message().c_str());
    }
    return;
  }
  sia::Diagnostics diags;
  sia::ValidatePlan(sia::ApplyPredicateMovement(*replan), &diags, plan_opts);
  Report(label + " [rewritten-plan]", diags, options, totals);
}

// Splits file contents into ';'-separated statements, skipping blanks
// and whole-line "--" comments.
std::vector<std::string> SplitStatements(const std::string& text) {
  std::string cleaned;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    const std::string_view stripped = sia::StripWhitespace(line);
    if (stripped.rfind("--", 0) == 0) continue;
    cleaned += line;
    cleaned += "\n";
  }
  std::vector<std::string> out;
  for (const std::string& piece : sia::Split(cleaned, ';')) {
    if (!sia::StripWhitespace(piece).empty()) {
      out.push_back(std::string(sia::StripWhitespace(piece)));
    }
  }
  return out;
}

// --metrics-out promises solver-call latency percentiles, per-rung
// rewrite counters, and per-point fault firing counts even when the run
// exercised none of them (e.g. lint without --rewrite): preregister
// those metrics so the snapshot always carries them, zero-valued.
void PreregisterCoreMetrics() {
  sia::obs::MetricsRegistry& reg = sia::obs::MetricsRegistry::Instance();
  reg.GetHistogram("smt.check.latency_us");
  reg.GetHistogram("smt.optimize.latency_us");
  reg.GetCounter("rewrite.queries");
  reg.GetCounter("rewrite.changed");
  reg.GetCounter("rewrite.cache.hit");
  reg.GetCounter("rewrite.cache.miss");
  reg.GetCounter("rewrite.batch.queries");
  for (const char* rung : {"full", "interval", "original"}) {
    reg.GetCounter(std::string("rewrite.rung.") + rung);
  }
  for (const std::string& point : sia::FaultRegistry::KnownPoints()) {
    reg.GetCounter("fault.hit." + point);
    reg.GetCounter("fault.injected." + point);
  }
}

// `<point> fired=N injected=M` per known fault point; N counts armed
// points reached, M the subset where the fault actually triggered.
void PrintFaultPoints() {
  sia::obs::MetricsRegistry& reg = sia::obs::MetricsRegistry::Instance();
  for (const std::string& point : sia::FaultRegistry::KnownPoints()) {
    std::printf("%s fired=%llu injected=%llu\n", point.c_str(),
                static_cast<unsigned long long>(
                    reg.GetCounter("fault.hit." + point).Value()),
                static_cast<unsigned long long>(
                    reg.GetCounter("fault.injected." + point).Value()));
  }
}

int LintSqlText(const std::string& origin, const std::string& text,
                const sia::Catalog& catalog, const LintOptions& options,
                LintTotals* totals) {
  const std::vector<std::string> statements = SplitStatements(text);
  size_t index = 0;
  for (const std::string& sql : statements) {
    ++index;
    const std::string label = origin + ":" + std::to_string(index);
    auto parsed = sia::ParseQuery(sql);
    if (!parsed.ok()) {
      ++totals->queries;
      ++totals->errors;
      if (!options.quiet) {
        std::printf("%s: error [parse] %s\n", label.c_str(),
                    parsed.status().message().c_str());
      }
      continue;
    }
    LintQuery(label, *parsed, catalog, options, totals);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  LintOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    if (arg == "--workload") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      options.workload_count = static_cast<size_t>(std::atoll(v));
    } else if (arg == "--seed") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      options.seed = static_cast<uint64_t>(std::atoll(v));
    } else if (arg == "--target") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      options.target_table = v;
    } else if (arg == "--rewrite") {
      options.rewrite = true;
    } else if (arg == "--max-iterations") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      options.max_iterations = std::atoi(v);
    } else if (arg == "--deadline-ms") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      options.deadline_ms = std::atoll(v);
      if (options.deadline_ms <= 0) {
        std::fprintf(stderr, "--deadline-ms wants a positive integer\n");
        return Usage(argv[0]);
      }
    } else if (arg == "--threads") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      options.threads = std::atoi(v);
      if (options.threads < 1 ||
          options.threads >
              static_cast<int>(sia::ThreadPool::kMaxThreads)) {
        std::fprintf(stderr, "--threads wants an integer in [1, %zu]\n",
                     sia::ThreadPool::kMaxThreads);
        return Usage(argv[0]);
      }
    } else if (arg == "--list-fault-points") {
      options.list_fault_points = true;
    } else if (arg == "--metrics-out" ||
               arg.rfind("--metrics-out=", 0) == 0) {
      if (arg.size() > std::strlen("--metrics-out")) {
        options.metrics_out = arg.substr(std::strlen("--metrics-out="));
      } else {
        const char* v = next();
        if (v == nullptr) return Usage(argv[0]);
        options.metrics_out = v;
      }
    } else if (arg == "--trace-out" || arg.rfind("--trace-out=", 0) == 0) {
      if (arg.size() > std::strlen("--trace-out")) {
        options.trace_out = arg.substr(std::strlen("--trace-out="));
      } else {
        const char* v = next();
        if (v == nullptr) return Usage(argv[0]);
        options.trace_out = v;
      }
    } else if (arg == "--digests-out" ||
               arg.rfind("--digests-out=", 0) == 0) {
      if (arg.size() > std::strlen("--digests-out")) {
        options.digests_out = arg.substr(std::strlen("--digests-out="));
      } else {
        const char* v = next();
        if (v == nullptr) return Usage(argv[0]);
        options.digests_out = v;
      }
    } else if (arg == "--execute-sf") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      options.execute_sf = std::atof(v);
    } else if (arg == "--no-pushdown") {
      options.push_down = false;
    } else if (arg == "--werror") {
      options.werror = true;
    } else if (arg == "-q" || arg == "--quiet") {
      options.quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return Usage(argv[0]);
    } else {
      options.files.push_back(arg);
    }
  }

  if (options.threads > 1 && options.deadline_ms > 0) {
    std::fprintf(stderr,
                 "--threads and --deadline-ms are incompatible: the "
                 "deadline is an absolute instant, so a batch would "
                 "share one budget across all queries\n");
    return Usage(argv[0]);
  }
  if (!options.digests_out.empty()) {
    if (!options.rewrite || options.workload_count == 0) {
      std::fprintf(stderr,
                   "--digests-out requires --rewrite and --workload\n");
      return Usage(argv[0]);
    }
    if (options.deadline_ms > 0) {
      std::fprintf(stderr,
                   "--digests-out and --deadline-ms are incompatible: "
                   "digests must be deterministic, deadline outcomes are "
                   "timing-dependent\n");
      return Usage(argv[0]);
    }
  }
  if (options.execute_sf > 0 && options.digests_out.empty()) {
    std::fprintf(stderr, "--execute-sf only makes sense with --digests-out\n");
    return Usage(argv[0]);
  }

  // Firing counts and the snapshot both come from the metrics registry;
  // the tracer additionally backs --trace-out and the --deadline-ms
  // per-stage time split.
  if (!options.metrics_out.empty() || options.list_fault_points) {
    sia::obs::MetricsRegistry::SetEnabled(true);
    PreregisterCoreMetrics();
  }
  if (!options.trace_out.empty() ||
      (options.rewrite && options.deadline_ms > 0)) {
    sia::obs::Tracer::SetEnabled(true);
  }

  const bool have_inputs =
      !options.files.empty() || options.workload_count > 0;
  if (options.list_fault_points && !have_inputs) {
    PrintFaultPoints();  // nothing ran, so every count is zero
    return 0;
  }

  const sia::Catalog catalog = sia::Catalog::TpchCatalog();
  LintTotals totals;

  for (const std::string& path : options.files) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", path.c_str());
      return 2;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    LintSqlText(path, buffer.str(), catalog, options, &totals);
  }

  if (options.workload_count > 0) {
    sia::QueryGenOptions gen;
    gen.seed = options.seed;
    auto queries =
        sia::GenerateWorkload(catalog, options.workload_count, gen);
    if (!queries.ok()) {
      std::fprintf(stderr, "workload generation failed: %s\n",
                   queries.status().ToString().c_str());
      return 2;
    }
    // Batch path: rewrite every workload query up front on a private
    // pool through one shared rewrite cache, then lint the outcomes in
    // workload order (output identical to the serial path).
    // --digests-out also goes through here even at --threads 1 (the
    // pool degenerates to inline execution) so digest lines always come
    // from cache-mediated outcomes, whatever the thread count.
    std::vector<sia::RewriteOutcome> precomputed;
    bool have_precomputed = false;
    if (options.rewrite &&
        (options.threads > 1 || !options.digests_out.empty())) {
      sia::ThreadPool pool(static_cast<size_t>(options.threads));
      sia::RewriteCache cache;
      sia::BatchRewriteOptions batch;
      batch.rewrite.target_table = options.target_table;
      if (options.max_iterations > 0) {
        batch.rewrite.synthesis.max_iterations = options.max_iterations;
      }
      batch.cache = &cache;
      batch.pool = &pool;
      std::vector<sia::ParsedQuery> parsed;
      parsed.reserve(queries->size());
      for (const sia::GeneratedQuery& q : *queries) {
        parsed.push_back(q.query);
      }
      auto outcomes = sia::RewriteBatch(parsed, catalog, batch);
      if (!outcomes.ok()) {
        std::fprintf(stderr, "batch rewrite failed: %s\n",
                     outcomes.status().ToString().c_str());
        return 2;
      }
      precomputed = std::move(*outcomes);
      have_precomputed = true;
    }
    for (size_t qi = 0; qi < queries->size(); ++qi) {
      const sia::GeneratedQuery& q = (*queries)[qi];
      LintQuery("workload:seed" + std::to_string(q.seed), q.query, catalog,
                options, &totals,
                have_precomputed ? &precomputed[qi] : nullptr);
    }

    // Digest lines render through the same code a served run uses
    // (server/service.h ReplyFromOutcome + ExecuteInto, protocol.h
    // FormatDigestLine), so equality with sia_client output is by
    // construction, not by parallel formatting.
    if (!options.digests_out.empty()) {
      std::ofstream out(options.digests_out);
      if (!out) {
        std::fprintf(stderr, "--digests-out: cannot write %s\n",
                     options.digests_out.c_str());
        return 2;
      }
      std::optional<sia::TpchData> data;
      sia::Executor executor;
      if (options.execute_sf > 0) {
        data.emplace(sia::GenerateTpch(options.execute_sf, 42));
        executor.RegisterTable("orders", &data->orders);
        executor.RegisterTable("lineitem", &data->lineitem);
      }
      for (size_t qi = 0; qi < queries->size(); ++qi) {
        sia::server::QueryReply reply =
            sia::server::ReplyFromOutcome(precomputed[qi]);
        if (data.has_value()) {
          const sia::Status executed = sia::server::ExecuteInto(
              precomputed[qi].rewritten, catalog, executor, &reply);
          if (!executed.ok()) {
            std::fprintf(stderr, "--digests-out: execution failed: %s\n",
                         executed.ToString().c_str());
            return 2;
          }
        }
        out << sia::server::FormatDigestLine((*queries)[qi].seed, reply)
            << "\n";
      }
    }
  }

  if (options.files.empty() && options.workload_count == 0) {
    std::stringstream buffer;
    buffer << std::cin.rdbuf();
    LintSqlText("<stdin>", buffer.str(), catalog, options, &totals);
  }

  std::printf("%zu quer%s checked, %zu error%s, %zu warning%s",
              totals.queries, totals.queries == 1 ? "y" : "ies",
              totals.errors, totals.errors == 1 ? "" : "s",
              totals.warnings, totals.warnings == 1 ? "" : "s");
  if (options.rewrite) {
    std::printf(", %zu rewritten, %zu degraded", totals.rewritten,
                totals.degraded);
  }
  std::printf("\n");

  if (options.list_fault_points) PrintFaultPoints();
  if (!options.metrics_out.empty()) {
    std::string error;
    if (!sia::obs::MetricsRegistry::Instance().WriteSnapshot(
            options.metrics_out, &error)) {
      std::fprintf(stderr, "--metrics-out: %s\n", error.c_str());
      return 2;
    }
  }
  if (!options.trace_out.empty()) {
    std::string error;
    if (!sia::obs::Tracer::Instance().WriteChromeTrace(options.trace_out,
                                                       &error)) {
      std::fprintf(stderr, "--trace-out: %s\n", error.c_str());
      return 2;
    }
  }

  if (totals.errors > 0) return 1;
  if (options.werror && totals.warnings > 0) return 1;
  return 0;
}
