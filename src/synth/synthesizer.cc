#include "synth/synthesizer.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>

#include "common/stopwatch.h"
#include "ir/analysis.h"
#include "ir/simplify.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "smt/smt_context.h"
#include "synth/verifier.h"

namespace sia {

const char* SynthesisStatusName(SynthesisStatus s) {
  switch (s) {
    case SynthesisStatus::kOptimal:
      return "optimal";
    case SynthesisStatus::kValid:
      return "valid";
    case SynthesisStatus::kNone:
      return "none";
  }
  return "?";
}

std::vector<size_t> SynthesisResult::UsedColumns() const {
  std::set<size_t> used;
  for (const LearnedPredicate& lp : conjuncts) {
    for (const LinearForm& f : lp.models) {
      for (size_t i = 0; i < f.coeffs.size(); ++i) {
        if (f.coeffs[i] != 0) used.insert(f.columns[i]);
      }
    }
  }
  if (used.empty() && predicate != nullptr) {
    // Fall back to the predicate's column refs (covers the finite-space
    // equality-disjunction shape).
    for (const size_t c : CollectColumnIndices(predicate)) used.insert(c);
  }
  return {used.begin(), used.end()};
}

namespace {

// Builds OR_i (AND_j col_j = sample_i[j]) — the strongest valid predicate
// when the satisfaction space over Cols' is finite (§5.3).
ExprPtr EqualityDisjunction(const std::vector<Tuple>& samples,
                            const std::vector<size_t>& cols,
                            const Schema& schema) {
  std::vector<ExprPtr> disjuncts;
  disjuncts.reserve(samples.size());
  for (const Tuple& t : samples) {
    std::vector<ExprPtr> eqs;
    eqs.reserve(cols.size());
    for (size_t i = 0; i < cols.size(); ++i) {
      const ColumnDef& col = schema.column(cols[i]);
      eqs.push_back(Expr::Compare(
          CompareOp::kEq,
          Expr::BoundColumn(col.table, col.name, cols[i], col.type),
          Expr::Literal(t.at(i))));
    }
    disjuncts.push_back(Expr::And(eqs));
  }
  return Expr::Or(disjuncts);
}

ExprPtr LearnedToExpr(const LearnedPredicate& lp, const Schema& schema) {
  std::vector<ExprPtr> disjuncts;
  disjuncts.reserve(lp.models.size());
  for (const LinearForm& f : lp.models) disjuncts.push_back(f.ToExpr(schema));
  return Expr::Or(disjuncts);
}

ExprPtr ConjunctionToExpr(const std::vector<LearnedPredicate>& conjuncts,
                          const Schema& schema) {
  std::vector<ExprPtr> parts;
  parts.reserve(conjuncts.size());
  for (const LearnedPredicate& lp : conjuncts) {
    parts.push_back(LearnedToExpr(lp, schema));
  }
  return Expr::And(parts);
}

// Drops every conjunct the remaining ones already imply. The result is
// the same filter (a row passes iff it passed before), with fewer terms
// for the engine to evaluate on every row: the loop keeps adding
// halfplanes while it tightens p₁, and once a tighter bound arrives the
// earlier ones are dead weight. Each check runs in the run's context
// and draws from its budget; pruning is an optimization, so a check
// that fails (budget spent, injected fault) stops it and keeps the rest.
void DropImpliedConjuncts(SmtContext* ctx, const Schema& schema,
                          std::vector<LearnedPredicate>* conjuncts) {
  for (size_t i = 0; i < conjuncts->size() && conjuncts->size() > 1;) {
    std::vector<LearnedPredicate> rest = *conjuncts;
    rest.erase(rest.begin() + i);
    auto verdict = Verifier(ctx, ConjunctionToExpr(rest, schema), schema)
                       .Implies(LearnedToExpr((*conjuncts)[i], schema));
    if (!verdict.ok()) return;
    if (*verdict == VerifyResult::kValid) {
      *conjuncts = std::move(rest);
    } else {
      ++i;
    }
  }
}

// Double-reports the run's SynthesisStats onto the metrics registry,
// once per run and on error paths too (with whatever partial stats
// accrued). The struct remains the API; this bridge is what keeps bench
// JSON and --metrics-out snapshots from ever disagreeing (see DESIGN.md,
// "Observability").
void ReportStats(const SynthesisResult& result) {
  if (!obs::MetricsRegistry::Enabled()) return;
  const SynthesisStats& stats = result.stats;
  obs::IncrementCounter("synth.runs");
  obs::IncrementCounter("synth.iterations",
                        static_cast<uint64_t>(std::max(0, stats.iterations)));
  obs::IncrementCounter("synth.solver_calls",
                        static_cast<uint64_t>(stats.solver_calls));
  obs::IncrementCounter("synth.true_samples",
                        static_cast<uint64_t>(stats.true_samples));
  obs::IncrementCounter("synth.false_samples",
                        static_cast<uint64_t>(stats.false_samples));
  obs::RecordHistogram("synth.generation_ms", stats.generation_ms);
  obs::RecordHistogram("synth.learning_ms", stats.learning_ms);
  obs::RecordHistogram("synth.validation_ms", stats.validation_ms);
  obs::IncrementCounter(std::string("synth.status.") +
                        SynthesisStatusName(result.status));
  if (result.deadline_expired) {
    obs::IncrementCounter("synth.deadline_expired");
  }
  if (result.solver_gave_up) {
    obs::IncrementCounter("synth.solver_gave_up");
  }
}

// The CEGIS loop of one run (Alg. 1), filling `result`. Every solver
// call goes through `ctx`, so the run shares one context and one budget.
// Budget expiry ends the run gracefully with a partial result; any other
// error is returned.
Status RunCegis(const ExprPtr& predicate, const Schema& schema,
                const std::vector<size_t>& cols,
                const SynthesisOptions& options, SmtContext* ctx,
                SynthesisResult* result) {
  SampleGenerator gen(ctx, predicate, schema, cols, options.samples);
  Verifier verifier(ctx, predicate, schema);

  // Converts a deadline-expiry Status from `stage` into a graceful
  // partial result; any other error propagates to the caller.
  auto note_timeout = [result](const Status& st, const char* stage) {
    if (st.code() != StatusCode::kTimeout) return false;
    result->deadline_expired = true;
    result->timeout_stage = stage;
    result->solver_gave_up = true;
    return true;
  };

  // --- Stage 1: initial training samples (§5.3) ---
  Stopwatch sw;
  auto ts_r = gen.GenerateTrue(options.initial_true_samples);
  result->stats.generation_ms += sw.ElapsedMillis();
  if (!ts_r.ok()) {
    if (note_timeout(ts_r.status(), "synth.sample")) return Status::OK();
    return ts_r.status();
  }
  std::vector<Tuple> ts = std::move(*ts_r);
  const bool true_exhausted = gen.exhausted();
  if (gen.deadline_expired()) {
    result->deadline_expired = true;
    result->timeout_stage = "synth.sample";
  }

  if (ts.empty()) {
    if (true_exhausted) {
      // p is unsatisfiable: FALSE is the optimal reduction.
      result->status = SynthesisStatus::kOptimal;
      result->predicate = Expr::BoolLit(false);
      return Status::OK();
    }
    result->status = SynthesisStatus::kNone;  // solver budget exceeded
    result->solver_gave_up = true;
    return Status::OK();
  }
  if (true_exhausted) {
    // Finite satisfaction space: the disjunction of per-sample equality
    // constraints is the strongest valid reduction (§5.3).
    result->status = SynthesisStatus::kOptimal;
    result->predicate = EqualityDisjunction(ts, cols, schema);
    result->stats.true_samples = ts.size();
    return Status::OK();
  }

  sw.Reset();
  auto fs_r = gen.GenerateFalse(options.initial_false_samples);
  result->stats.generation_ms += sw.ElapsedMillis();
  if (!fs_r.ok()) {
    result->stats.true_samples = ts.size();
    if (note_timeout(fs_r.status(), "synth.sample")) return Status::OK();
    return fs_r.status();
  }
  std::vector<Tuple> fs = std::move(*fs_r);
  const bool false_exhausted = gen.exhausted();
  if (gen.deadline_expired()) {
    result->deadline_expired = true;
    result->timeout_stage = "synth.sample";
  }

  if (fs.empty()) {
    // No unsatisfaction tuple exists (TRUE is the only valid & optimal
    // reduction) or the solver gave up: either way there is no useful
    // predicate — the query is not "symbolically relevant" (§6.2). The
    // two cases differ for the degradation ladder, though: only the
    // gave-up one is worth retrying.
    result->solver_gave_up = !false_exhausted;
    result->status = SynthesisStatus::kNone;
    result->stats.true_samples = ts.size();
    return Status::OK();
  }

  // --- Stage 2: counter-example guided learning (Alg. 1) ---
  ExprPtr accumulated;  // p₁: conjunction of verified learned predicates
  bool proved_optimal = false;

  TrainingSet data;
  data.true_samples = std::move(ts);
  data.false_samples = std::move(fs);

  // FALSE samples already rejected by the accumulated conjunction are
  // settled: the next conjunct does not need to reject them again, and
  // keeping them in the SVM problem drags the separator back toward
  // directions p₁ already covers. Learn therefore trains against the
  // *active* FALSE set (all of them while p₁ = TRUE).
  auto active_false = [&]() {
    std::vector<Tuple> active;
    for (const Tuple& f : data.false_samples) {
      bool rejected = false;
      for (const LearnedPredicate& lp : result->conjuncts) {
        if (!lp.Accepts(f)) {
          rejected = true;
          break;
        }
      }
      if (!rejected) active.push_back(f);
    }
    return active;
  };

  int iteration = 0;
  for (; iteration < options.max_iterations; ++iteration) {
    SIA_TRACE_SPAN("synth.iteration");
    // Learn (Alg. 2).
    sw.Reset();
    TrainingSet learn_set;
    learn_set.true_samples = data.true_samples;
    learn_set.false_samples = active_false();
    auto learned = Learn(learn_set, cols, options.learn);
    result->stats.learning_ms += sw.ElapsedMillis();
    if (!learned.ok()) return learned.status();
    ExprPtr p2 = LearnedToExpr(*learned, schema);

    // Verify p ⟹ p₂ (three-valued logic).
    sw.Reset();
    auto verdict = verifier.Implies(p2);
    result->stats.validation_ms += sw.ElapsedMillis();
    if (!verdict.ok()) {
      // Deadline spent mid-loop: keep whatever is already proved valid.
      if (note_timeout(verdict.status(), "verify.check")) break;
      return verdict.status();
    }

    if (*verdict == VerifyResult::kUnknown) {
      // Solver budget exceeded mid-loop; keep whatever is already proved.
      result->solver_gave_up = true;
      break;
    }

    if (*verdict == VerifyResult::kValid) {
      // p₃ ← p₁ ∧ p₂, dropping conjuncts the new one subsumes: when both
      // are single halfplanes with the same direction, the one with the
      // smaller constant is strictly stronger (coeff·x + c > 0 accepts
      // fewer tuples for smaller c). Without this the bisection dynamics
      // of the loop leave a chain of superseded bounds in the output.
      const bool single = learned->models.size() == 1;
      if (single) {
        const LinearForm& fresh = learned->models[0];
        std::erase_if(result->conjuncts, [&](const LearnedPredicate& old) {
          return old.models.size() == 1 &&
                 old.models[0].columns == fresh.columns &&
                 old.models[0].coeffs == fresh.coeffs &&
                 old.models[0].constant >= fresh.constant;
        });
      }
      result->conjuncts.push_back(std::move(*learned));
      accumulated = ConjunctionToExpr(result->conjuncts, schema);

      sw.Reset();
      auto fs1 = gen.CounterFalse(accumulated,
                                  options.samples_per_iteration);
      result->stats.generation_ms += sw.ElapsedMillis();
      if (!fs1.ok()) {
        if (note_timeout(fs1.status(), "verify.cex")) {
          ++iteration;
          break;
        }
        return fs1.status();
      }
      if (fs1->empty()) {
        if (!gen.exhausted()) {
          // Solver budget exceeded: p₃ is valid, optimality unknown.
          result->solver_gave_up = true;
          ++iteration;
          break;
        }
        // The generator's NotOld constraints hide previously seen
        // unsatisfaction tuples, so exhaustion alone certifies only that
        // no NEW counter-example exists. Optimality (Lemma 4) further
        // requires that p₃ rejects every unsatisfaction tuple already
        // seen; if any is still accepted, keep learning — the active-
        // FALSE filter hands the learner exactly those stragglers.
        const bool rejects_all_seen = std::all_of(
            data.false_samples.begin(), data.false_samples.end(),
            [&](const Tuple& f) {
              return std::any_of(result->conjuncts.begin(),
                                 result->conjuncts.end(),
                                 [&](const LearnedPredicate& lp) {
                                   return !lp.Accepts(f);
                                 });
            });
        if (rejects_all_seen) {
          proved_optimal = true;  // Lemma 4
          ++iteration;
          break;
        }
        continue;
      }
      data.false_samples.insert(data.false_samples.end(), fs1->begin(),
                                fs1->end());
    } else {
      // Invalid: find TRUE counter-examples that p₂ wrongly rejects.
      sw.Reset();
      auto ts1 = gen.CounterTrue(p2, options.samples_per_iteration);
      result->stats.generation_ms += sw.ElapsedMillis();
      if (!ts1.ok()) {
        if (note_timeout(ts1.status(), "verify.cex")) break;
        return ts1.status();
      }
      if (ts1->empty()) {
        // Verify's 3VL witness is NULL-only (not reachable with concrete
        // non-NULL samples) or the solver gave up: no progress possible.
        result->solver_gave_up = true;
        break;
      }
      data.true_samples.insert(data.true_samples.end(), ts1->begin(),
                               ts1->end());
    }
  }

  result->stats.iterations = iteration;
  result->stats.true_samples = data.true_samples.size();
  result->stats.false_samples = data.false_samples.size();

  if (accumulated == nullptr) {
    result->status = SynthesisStatus::kNone;
    return Status::OK();
  }
  result->status = proved_optimal ? SynthesisStatus::kOptimal
                                  : SynthesisStatus::kValid;
  sw.Reset();
  DropImpliedConjuncts(ctx, schema, &result->conjuncts);
  result->stats.validation_ms += sw.ElapsedMillis();
  result->predicate = PrettifyDates(
      Simplify(ConjunctionToExpr(result->conjuncts, schema)), schema);
  return Status::OK();
}

}  // namespace

Result<SynthesisResult> Synthesize(const ExprPtr& predicate,
                                   const Schema& schema,
                                   const std::vector<size_t>& cols,
                                   const SynthesisOptions& options) {
  if (cols.empty()) {
    return Status::InvalidArgument("Cols' must be non-empty");
  }
  const std::vector<size_t> pred_cols = CollectColumnIndices(predicate);
  for (const size_t c : cols) {
    if (std::find(pred_cols.begin(), pred_cols.end(), c) == pred_cols.end()) {
      return Status::InvalidArgument(
          "Cols' must be a subset of the predicate's columns (column " +
          schema.column(c).QualifiedName() + " is not referenced)");
    }
  }

  SIA_TRACE_SPAN("synth.run");
  SmtContext ctx(options.budget);
  SynthesisResult result;
  const Status status =
      RunCegis(predicate, schema, cols, options, &ctx, &result);
  result.stats.solver_calls = ctx.check_calls();
  ReportStats(result);
  SIA_RETURN_IF_ERROR(status);
  return result;
}

namespace {

// Linear decomposition of a scalar expression: col index -> coefficient,
// plus a constant term. Fails (nullopt) on non-linear shapes or doubles.
struct LinearTerms {
  std::map<size_t, int64_t> coeffs;
  int64_t constant = 0;
};

std::optional<LinearTerms> Linearize(const ExprPtr& e, int64_t scale) {
  LinearTerms out;
  switch (e->kind()) {
    case ExprKind::kColumnRef:
      if (!e->is_bound()) return std::nullopt;
      out.coeffs[e->index()] += scale;
      return out;
    case ExprKind::kLiteral: {
      const Value& v = e->literal();
      if (v.is_null() || !IsIntegral(v.type()) ||
          v.type() == DataType::kBoolean) {
        return std::nullopt;
      }
      out.constant = scale * v.AsInt();
      return out;
    }
    case ExprKind::kArith: {
      const ArithOp op = e->arith_op();
      if (op == ArithOp::kAdd || op == ArithOp::kSub) {
        auto l = Linearize(e->left(), scale);
        auto r = Linearize(e->right(),
                           op == ArithOp::kAdd ? scale : -scale);
        if (!l || !r) return std::nullopt;
        for (const auto& [c, k] : r->coeffs) l->coeffs[c] += k;
        l->constant += r->constant;
        return l;
      }
      if (op == ArithOp::kMul) {
        // const * expr or expr * const only.
        const ExprPtr* lit = nullptr;
        const ExprPtr* sub = nullptr;
        if (e->left()->kind() == ExprKind::kLiteral) {
          lit = &e->left();
          sub = &e->right();
        } else if (e->right()->kind() == ExprKind::kLiteral) {
          lit = &e->right();
          sub = &e->left();
        } else {
          return std::nullopt;
        }
        const Value& v = (*lit)->literal();
        if (v.is_null() || !IsIntegral(v.type())) return std::nullopt;
        return Linearize(*sub, scale * v.AsInt());
      }
      return std::nullopt;
    }
    default:
      return std::nullopt;
  }
}

ExprPtr DateColumnRef(const Schema& schema, size_t index) {
  const ColumnDef& col = schema.column(index);
  return Expr::BoundColumn(col.table, col.name, index, col.type);
}

// Rewrites one comparison into date-literal form when it matches either
//   ±1 * date_col CP const            ->  date_col CP' DATE '...'
//   date_col - date_col CP const      ->  (a - b) CP' const
// Returns nullptr when the shape does not match.
ExprPtr PrettifyCompare(const ExprPtr& e, const Schema& schema) {
  auto l = Linearize(e->left(), 1);
  auto r = Linearize(e->right(), 1);
  if (!l || !r) return nullptr;
  // Move everything to the left: lhs - rhs CP 0.
  for (const auto& [c, k] : r->coeffs) l->coeffs[c] -= k;
  int64_t constant = l->constant - r->constant;
  std::vector<std::pair<size_t, int64_t>> nz;
  for (const auto& [c, k] : l->coeffs) {
    if (k != 0) nz.emplace_back(c, k);
  }
  const CompareOp op = e->compare_op();

  if (nz.size() == 1 && schema.column(nz[0].first).type == DataType::kDate) {
    const auto [col, k] = nz[0];
    if (k != 1 && k != -1) return nullptr;
    // k*col + constant CP 0  ->  col CP' -constant/k
    const int64_t day = -constant / k;
    const CompareOp op2 = (k == 1) ? op : SwapCompare(op);
    return Expr::Compare(op2, DateColumnRef(schema, col),
                         Expr::DateLit(day));
  }
  if (nz.size() == 2) {
    const auto [c0, k0] = nz[0];
    const auto [c1, k1] = nz[1];
    if (schema.column(c0).type != DataType::kDate ||
        schema.column(c1).type != DataType::kDate) {
      return nullptr;
    }
    if (k0 == 1 && k1 == -1) {
      // c0 - c1 + constant CP 0  ->  c0 - c1 CP -constant
      return Expr::Compare(
          op,
          Expr::Arith(ArithOp::kSub, DateColumnRef(schema, c0),
                      DateColumnRef(schema, c1)),
          Expr::IntLit(-constant));
    }
    if (k0 == -1 && k1 == 1) {
      return Expr::Compare(
          op,
          Expr::Arith(ArithOp::kSub, DateColumnRef(schema, c1),
                      DateColumnRef(schema, c0)),
          Expr::IntLit(-constant));
    }
  }
  return nullptr;
}

}  // namespace

ExprPtr PrettifyDates(const ExprPtr& expr, const Schema& schema) {
  switch (expr->kind()) {
    case ExprKind::kCompare: {
      ExprPtr pretty = PrettifyCompare(expr, schema);
      return pretty != nullptr ? pretty : expr;
    }
    case ExprKind::kLogic: {
      ExprPtr l = PrettifyDates(expr->left(), schema);
      ExprPtr r = PrettifyDates(expr->right(), schema);
      if (l.get() == expr->left().get() && r.get() == expr->right().get()) {
        return expr;
      }
      return Expr::Logic(expr->logic_op(), std::move(l), std::move(r));
    }
    case ExprKind::kNot: {
      ExprPtr v = PrettifyDates(expr->operand(), schema);
      if (v.get() == expr->operand().get()) return expr;
      return Expr::Not(std::move(v));
    }
    default:
      return expr;
  }
}

}  // namespace sia
