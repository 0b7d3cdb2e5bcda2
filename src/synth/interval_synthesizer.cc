#include "synth/interval_synthesizer.h"

#include <algorithm>
#include <optional>

#include <z3++.h>

#include "common/stopwatch.h"
#include "ir/analysis.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "smt/encoder.h"
#include "smt/smt_context.h"

namespace sia {

namespace {

// Runs one objective query; nullopt when the objective is unbounded or
// the solver gave up. An expired deadline propagates as kTimeout.
Result<std::optional<int64_t>> Optimize(SmtContext* ctx,
                                        const z3::expr& formula,
                                        const z3::expr& var, bool maximize) {
  z3::optimize opt(ctx->z3());
  opt.add(formula);
  const z3::optimize::handle handle =
      maximize ? opt.maximize(var) : opt.minimize(var);
  SIA_ASSIGN_OR_RETURN(z3::check_result res,
                       ctx->CheckOptimize(&opt, "synth.interval"));
  if (res != z3::sat) return std::optional<int64_t>();
  const z3::expr bound = maximize ? opt.upper(handle) : opt.lower(handle);
  int64_t value = 0;
  if (!bound.is_numeral_i64(value)) {
    return std::optional<int64_t>();  // +/- infinity
  }
  return std::optional<int64_t>(value);
}

ExprPtr ColumnRef(const Schema& schema, size_t col) {
  const ColumnDef& def = schema.column(col);
  return Expr::BoundColumn(def.table, def.name, col, def.type);
}

ExprPtr BoundLiteral(const Schema& schema, size_t col, int64_t v) {
  if (schema.column(col).type == DataType::kDate) return Expr::DateLit(v);
  return Expr::IntLit(v);
}

// The interval rung's queries in `ctx`, filling `result`.
Status RunInterval(const ExprPtr& predicate, const Schema& schema, size_t col,
                   SmtContext* ctx, SynthesisResult* result) {
  Stopwatch sw;
  Encoder encoder(ctx, schema, NullHandling::kIgnore);
  SIA_ASSIGN_OR_RETURN(z3::expr p_true, encoder.EncodeTrue(predicate));
  z3::expr var = encoder.ColumnVar(col);

  SIA_ASSIGN_OR_RETURN(const std::optional<int64_t> lo,
                       Optimize(ctx, p_true, var, /*maximize=*/false));
  SIA_ASSIGN_OR_RETURN(const std::optional<int64_t> hi,
                       Optimize(ctx, p_true, var, /*maximize=*/true));
  result->stats.generation_ms = sw.ElapsedMillis();

  // Unsatisfiable predicate: both queries return UNSAT; FALSE is optimal.
  {
    z3::solver solver(ctx->z3());
    solver.add(p_true);
    SIA_ASSIGN_OR_RETURN(z3::check_result sat_res,
                         ctx->Check(&solver, nullptr, "synth.interval"));
    if (sat_res == z3::unsat) {
      result->status = SynthesisStatus::kOptimal;
      result->predicate = Expr::BoolLit(false);
      return Status::OK();
    }
  }

  if (!lo.has_value() && !hi.has_value()) {
    result->status = SynthesisStatus::kNone;  // only TRUE is valid
    return Status::OK();
  }

  std::vector<ExprPtr> conjuncts;
  if (lo.has_value() && hi.has_value() && *lo == *hi) {
    conjuncts.push_back(Expr::Compare(CompareOp::kEq, ColumnRef(schema, col),
                                      BoundLiteral(schema, col, *lo)));
  } else {
    if (lo.has_value()) {
      conjuncts.push_back(Expr::Compare(CompareOp::kGe,
                                        ColumnRef(schema, col),
                                        BoundLiteral(schema, col, *lo)));
    }
    if (hi.has_value()) {
      conjuncts.push_back(Expr::Compare(CompareOp::kLe,
                                        ColumnRef(schema, col),
                                        BoundLiteral(schema, col, *hi)));
    }
  }
  result->predicate = Expr::And(conjuncts);
  // The hull is always valid. Whether it is optimal (no hole inside it,
  // Lemma 4) would take an ∃∀ query that often runs to the per-call cap
  // and changes nothing but this label, so it is not asked.
  result->status = SynthesisStatus::kValid;
  return Status::OK();
}

}  // namespace

Result<SynthesisResult> SynthesizeInterval(const ExprPtr& predicate,
                                           const Schema& schema, size_t col,
                                           const SolverBudget& budget) {
  SIA_TRACE_SPAN("synth.interval");
  SIA_COUNTER_INC("synth.interval.runs");
  const std::vector<size_t> used = CollectColumnIndices(predicate);
  if (std::find(used.begin(), used.end(), col) == used.end()) {
    return Status::InvalidArgument("column not referenced by the predicate");
  }
  if (!IsIntegral(schema.column(col).type)) {
    return Status::Unsupported("interval synthesis requires an integral column");
  }

  SIA_RETURN_IF_ERROR(budget.RequireRemaining("synth.interval"));

  SmtContext ctx(budget);
  SynthesisResult result;
  const Status status = RunInterval(predicate, schema, col, &ctx, &result);
  // Every return path counts its checks, so synth.solver_calls covers
  // the interval rung as well as the CEGIS runs.
  result.stats.solver_calls = ctx.check_calls();
  SIA_COUNTER_ADD("synth.solver_calls", result.stats.solver_calls);
  SIA_RETURN_IF_ERROR(status);
  return result;
}

}  // namespace sia
