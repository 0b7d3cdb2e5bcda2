#include "rewrite/sia_rewriter.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>

#include "check/expr_validator.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "ir/analysis.h"
#include "ir/binder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parser/parser.h"
#include "synth/interval_synthesizer.h"

namespace sia {

namespace {

// Columns that only ever appear in cross-table `col = col` equalities
// (join keys). Learning over them is useless — for any key value the
// other side can match — and the extra dimension degrades the SVM, so
// the default Cols' excludes them.
std::set<size_t> JoinKeyOnlyColumns(const ExprPtr& bound,
                                    const Schema& joint) {
  std::map<size_t, bool> only_in_join_eq;  // col -> true while join-only
  for (const ExprPtr& c : SplitConjuncts(bound)) {
    const bool is_join_eq =
        c->kind() == ExprKind::kCompare &&
        c->compare_op() == CompareOp::kEq &&
        c->left()->kind() == ExprKind::kColumnRef &&
        c->right()->kind() == ExprKind::kColumnRef &&
        c->left()->is_bound() && c->right()->is_bound() &&
        joint.column(c->left()->index()).table !=
            joint.column(c->right()->index()).table;
    for (const size_t col : CollectColumnIndices(c)) {
      auto [it, inserted] = only_in_join_eq.try_emplace(col, is_join_eq);
      if (!is_join_eq) it->second = false;
    }
  }
  std::set<size_t> out;
  for (const auto& [col, join_only] : only_in_join_eq) {
    if (join_only) out.insert(col);
  }
  return out;
}

// Failure categories the degradation ladder absorbs (the next rung runs
// instead of the error propagating). Anything else — kInvalidArgument,
// kParseError, kTypeError, ... — indicates malformed input or a caller
// bug and must surface.
bool IsDegradable(const Status& st) {
  return st.code() == StatusCode::kTimeout ||
         st.code() == StatusCode::kSolverError ||
         st.code() == StatusCode::kInternal;
}

// The synthesized predicate enters the plan as a trusted, provably
// implied conjunct — re-validate it before conjoining: it must be a
// well-formed bound boolean over the joint schema, in the CNF shape
// Alg. 2 claims (a conjunction of halfplane disjunctions). A failure
// here costs the predicate (degradation), never the query.
Status ValidateLearned(const ExprPtr& learned, const Schema& joint) {
  SIA_RETURN_IF_ERROR(
      CheckBoundPredicate(learned, joint, "learned predicate"));
  Diagnostics cnf;
  ValidateCnf(learned, &cnf);
  return cnf.ToStatus("learned predicate CNF");
}

// The ladder itself; the public RewriteQuery wraps this with the
// rewrite.query span, latency histogram, and per-rung counters.
Result<RewriteOutcome> RewriteQueryImpl(const ParsedQuery& query,
                                        const Catalog& catalog,
                                        const RewriteOptions& options) {
  RewriteOutcome outcome;
  outcome.rewritten = query;

  SIA_ASSIGN_OR_RETURN(RewriteKey key, MakeRewriteKey(query, catalog, options));
  if (!key.synthesizable) {
    return outcome;  // nothing to synthesize from; serve the original
  }
  const ExprPtr& bound = key.bound;
  const Schema& joint = key.joint;
  const std::vector<size_t>& cols = key.cols;

  // Conjoins a learned predicate (bound against the joint schema of the
  // key, so a cached one conjoins exactly as where it was synthesized).
  auto conjoin = [&](const ExprPtr& learned) {
    outcome.learned = learned;
    if (learned != nullptr) {
      outcome.rewritten.where =
          Expr::Logic(LogicOp::kAnd, query.where, learned);
    }
  };

  std::optional<RewriteCache::MarkerGuard> marker;
  if (options.cache != nullptr) {
    std::optional<RewriteCache::Entry> cached =
        options.cache->DecideOrWait(bound, cols);
    if (cached.has_value()) {
      // Served from the cache (possibly after waiting out another
      // caller's synthesis of the key).
      outcome.from_cache = true;
      outcome.rung = cached->rung;
      outcome.synthesis.status = cached->status;
      outcome.synthesis.predicate = cached->predicate;
      conjoin(cached->predicate);
      return outcome;
    }
    // This call holds the key's marker; an error or exception out of the
    // ladder below aborts it, handing the key to a waiter.
    marker.emplace(options.cache, bound, cols);
  }

  SIA_ASSIGN_OR_RETURN(LadderRun run,
                       RunSynthesisLadder(bound, joint, cols, options));
  outcome.synthesis = std::move(run.synthesis);
  outcome.rung = run.rung;
  outcome.degradation = std::move(run.degradation);
  conjoin(run.learned);
  if (marker.has_value()) {
    RewriteCache::Entry entry;
    entry.status = outcome.synthesis.status;
    entry.predicate = outcome.learned;
    entry.rung = outcome.rung;
    // A failed publish (the cache was cleared mid-run) only means the
    // result goes uncached; it is still this query's answer.
    (void)marker->Publish(std::move(entry));
  }
  return outcome;
}

}  // namespace

Result<RewriteKey> MakeRewriteKey(const ParsedQuery& query,
                                  const Catalog& catalog,
                                  const RewriteOptions& options) {
  RewriteKey key;

  if (query.where == nullptr) {
    return key;  // nothing to synthesize from
  }
  const bool has_target =
      std::any_of(query.tables.begin(), query.tables.end(),
                  [&](const std::string& t) {
                    return EqualsIgnoreCase(t, options.target_table);
                  });
  if (!has_target) {
    return Status::InvalidArgument("target table '" + options.target_table +
                                   "' is not in the query's FROM list");
  }

  SIA_ASSIGN_OR_RETURN(key.joint, catalog.JointSchema(query.tables));
  SIA_ASSIGN_OR_RETURN(ExprPtr bound, Bind(query.where, key.joint));
  SIA_RETURN_IF_ERROR(
      CheckBoundPredicate(bound, key.joint, "bound WHERE clause"));

  // Determine Cols': explicit list, or every referenced target column.
  std::vector<size_t> cols;
  if (!options.target_columns.empty()) {
    for (const std::string& name : options.target_columns) {
      const auto idx = key.joint.FindColumn(name);
      if (!idx.has_value()) {
        return Status::NotFound("target column not found: '" + name + "'");
      }
      cols.push_back(*idx);
    }
    std::sort(cols.begin(), cols.end());
    cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
  } else {
    const std::set<size_t> join_keys = JoinKeyOnlyColumns(bound, key.joint);
    for (const size_t c : CollectColumnIndices(bound)) {
      if (EqualsIgnoreCase(key.joint.column(c).table, options.target_table) &&
          !join_keys.contains(c)) {
        cols.push_back(c);
      }
    }
  }
  if (cols.empty()) {
    return key;  // predicate does not touch the target table
  }

  // The predicate must actually constrain columns beyond Cols' for the
  // reduction to be interesting; if it already only uses Cols', the
  // pushdown rule applies as-is and Sia has nothing to add.
  const std::vector<size_t> used = CollectColumnIndices(bound);
  if (used.size() == cols.size()) {
    return key;
  }

  key.bound = std::move(bound);
  key.cols = std::move(cols);
  key.synthesizable = true;
  return key;
}

Result<LadderRun> RunSynthesisLadder(const ExprPtr& bound, const Schema& joint,
                                     const std::vector<size_t>& cols,
                                     const RewriteOptions& options) {
  LadderRun run;

  const SolverBudget& budget = options.synthesis.budget;

  // Adopts a validated predicate as the final run.
  auto adopt = [&](SynthesisResult synth, RewriteRung rung) {
    run.synthesis = std::move(synth);
    run.learned = run.synthesis.predicate;
    run.rung = rung;
  };

  // --- Rung 1: one CEGIS synthesis run. A degradable error, a discarded
  // predicate or a give-up falls through to the interval rung. ---
  {
    SIA_TRACE_SPAN("rewrite.rung.full");
    auto synth = Synthesize(bound, joint, cols, options.synthesis);
    if (!synth.ok()) {
      if (!IsDegradable(synth.status())) return synth.status();
      SIA_COUNTER_INC("rewrite.degraded.synthesis_failed");
      run.degradation.push_back("full synthesis failed: " +
                                synth.status().ToString());
    } else if (synth->has_predicate()) {
      const Status valid = ValidateLearned(synth->predicate, joint);
      if (valid.ok()) {
        adopt(std::move(*synth), RewriteRung::kFull);
        return run;
      }
      SIA_COUNTER_INC("rewrite.degraded.predicate_discarded");
      run.degradation.push_back("full predicate discarded: " +
                                valid.ToString());
    } else if (!synth->solver_gave_up && !synth->deadline_expired) {
      // Legitimate kNone: the query is not symbolically relevant. No
      // lower rung can do better, so this is not a degradation — keep
      // the original plan and stop.
      run.synthesis = std::move(*synth);
      return run;
    } else {
      SIA_COUNTER_INC("rewrite.degraded.gave_up");
      run.degradation.push_back(
          std::string("full synthesis gave up") +
          (synth->deadline_expired
               ? " (deadline expired in '" + synth->timeout_stage + "')"
               : ""));
      run.synthesis = std::move(*synth);  // its stats and timeout stage
    }
  }

  // --- Rung 2: exact single-column interval synthesis. Much cheaper
  // than the learning loop (two OMT queries per column) and immune to
  // SVM/learner faults, at the cost of single-column box predicates. ---
  SIA_TRACE_SPAN("rewrite.rung.interval");
  for (const size_t c : cols) {
    if (budget.Exhausted()) {
      SIA_COUNTER_INC("rewrite.degraded.rung_skipped_deadline");
      run.degradation.push_back("interval rung skipped: deadline exhausted");
      break;
    }
    const DataType type = joint.column(c).type;
    if (!IsIntegral(type) || type == DataType::kBoolean) continue;
    auto iv = SynthesizeInterval(bound, joint, c, budget);
    if (!iv.ok()) {
      if (!IsDegradable(iv.status())) return iv.status();
      SIA_COUNTER_INC("rewrite.degraded.interval_failed");
      run.degradation.push_back(
          "interval synthesis on '" + joint.column(c).QualifiedName() +
          "' failed: " + iv.status().ToString());
      continue;
    }
    if (!iv->has_predicate()) continue;
    const Status valid = ValidateLearned(iv->predicate, joint);
    if (!valid.ok()) {
      SIA_COUNTER_INC("rewrite.degraded.interval_discarded");
      run.degradation.push_back(
          "interval predicate on '" + joint.column(c).QualifiedName() +
          "' discarded: " + valid.ToString());
      continue;
    }
    adopt(std::move(*iv), RewriteRung::kInterval);
    return run;
  }

  // --- Rung 3: every rung failed — run the original query unchanged.
  // run.rung stays kOriginal and `degradation` says why. ---
  return run;
}

Result<RewriteOutcome> RewriteQuery(const ParsedQuery& query,
                                    const Catalog& catalog,
                                    const RewriteOptions& options) {
  SIA_TRACE_SPAN("rewrite.query");
  SIA_COUNTER_INC("rewrite.queries");
  Stopwatch timer;
  Result<RewriteOutcome> outcome = RewriteQueryImpl(query, catalog, options);
  SIA_HISTOGRAM_RECORD("rewrite.query_ms", timer.ElapsedMillis());
  if (!outcome.ok()) {
    SIA_COUNTER_INC("rewrite.errors");
    return outcome;
  }
  if (obs::MetricsRegistry::Enabled()) {
    obs::IncrementCounter(std::string("rewrite.rung.") +
                          RewriteRungName(outcome->rung));
    if (outcome->changed()) obs::IncrementCounter("rewrite.changed");
    obs::IncrementCounter("rewrite.degradation_steps",
                          outcome->degradation.size());
  }
  return outcome;
}

Result<RewriteOutcome> RewriteQuery(const std::string& sql,
                                    const Catalog& catalog,
                                    const RewriteOptions& options) {
  SIA_ASSIGN_OR_RETURN(ParsedQuery q, ParseQuery(sql));
  return RewriteQuery(q, catalog, options);
}

}  // namespace sia
