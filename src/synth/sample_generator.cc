#include "synth/sample_generator.h"

#include <algorithm>
#include <set>
#include <string>

#include "common/fault_injection.h"
#include "ir/analysis.h"
#include "obs/trace.h"

namespace sia {

namespace {

// Scans integer/date constants in a predicate for domain hinting.
void ScanConstants(const ExprPtr& e, int64_t* lo, int64_t* hi, bool* any) {
  if (e->kind() == ExprKind::kLiteral) {
    const Value& v = e->literal();
    if (!v.is_null() && IsIntegral(v.type()) &&
        v.type() != DataType::kBoolean) {
      const int64_t x = v.AsInt();
      if (!*any) {
        *lo = *hi = x;
        *any = true;
      } else {
        *lo = std::min(*lo, x);
        *hi = std::max(*hi, x);
      }
    }
    return;
  }
  for (const auto& c : e->children()) ScanConstants(c, lo, hi, any);
}

// Collects the uninterpreted constants appearing in a Z3 expression.
void CollectConsts(const z3::expr& e, std::set<unsigned>* visited,
                   std::vector<z3::expr>* out) {
  const unsigned id = Z3_get_ast_id(e.ctx(), e);
  if (visited->contains(id)) return;
  visited->insert(id);
  if (e.is_const() && e.decl().decl_kind() == Z3_OP_UNINTERPRETED) {
    out->push_back(e);
    return;
  }
  for (unsigned i = 0; i < e.num_args(); ++i) {
    CollectConsts(e.arg(i), visited, out);
  }
}

}  // namespace

SampleGenerator::SampleGenerator(SmtContext* ctx, const ExprPtr& predicate,
                                 const Schema& schema,
                                 std::vector<size_t> cols,
                                 const SampleGenOptions& options)
    : predicate_(predicate),
      schema_(schema),
      cols_(std::move(cols)),
      options_(options),
      ctx_(ctx),
      encoder_(ctx, schema, NullHandling::kIgnore),
      params_(ctx->z3()) {
  ScanConstants(predicate_, &const_lo_, &const_hi_, &has_consts_);
  params_.set("random_seed", options_.random_seed);
  // Randomized simplex starting points diversify the returned models
  // (paper §5.3 heuristics); without it Z3 tends to return clustered
  // near-identical samples. The per-call timeout is derived from the
  // remaining budget inside SmtContext::Check.
  params_.set("arith.random_initial_value", true);
}

Result<z3::solver*> SampleGenerator::TrueSolver() {
  if (!true_solver_.has_value()) {
    SIA_ASSIGN_OR_RETURN(z3::expr p_true, encoder_.EncodeTrue(predicate_));
    true_solver_.emplace(ctx_->z3());
    true_solver_->add(p_true);
  }
  return &*true_solver_;
}

Result<z3::solver*> SampleGenerator::FalseSolver() {
  if (!false_solver_.has_value()) {
    SIA_ASSIGN_OR_RETURN(z3::expr core, BuildUnsatCore());
    false_solver_.emplace(ctx_->z3());
    false_solver_->add(core);
  }
  return &*false_solver_;
}

std::vector<z3::expr> SampleGenerator::HintLayers() {
  std::vector<z3::expr> layers;
  z3::context& z = ctx_->z3();
  if (has_consts_) {
    // Layer 0: tight box around the predicate's constants.
    const int64_t lo = const_lo_ - options_.domain_pad;
    const int64_t hi = const_hi_ + options_.domain_pad;
    z3::expr box = z.bool_val(true);
    for (const size_t c : cols_) {
      if (schema_.column(c).type == DataType::kDouble) continue;
      z3::expr v = encoder_.ColumnVar(c);
      box = box && (v >= z.int_val(lo)) && (v <= z.int_val(hi));
    }
    layers.push_back(box);
    // Layer 1: a 10x looser box.
    const int64_t span = (hi - lo) * 5 + 1000;
    z3::expr loose = z.bool_val(true);
    for (const size_t c : cols_) {
      if (schema_.column(c).type == DataType::kDouble) continue;
      z3::expr v = encoder_.ColumnVar(c);
      loose = loose && (v >= z.int_val(lo - span)) && (v <= z.int_val(hi + span));
    }
    layers.push_back(loose);
  }
  if (options_.prefer_nonzero) {
    z3::expr nz = z.bool_val(true);
    for (const size_t c : cols_) {
      if (schema_.column(c).type == DataType::kDouble) continue;
      nz = nz && (encoder_.ColumnVar(c) != 0);
    }
    layers.push_back(nz);
  }
  return layers;
}

Result<std::vector<Tuple>> SampleGenerator::Sample(z3::solver* solver,
                                                   const z3::expr* extra,
                                                   size_t count,
                                                   std::string_view stage) {
  z3::expr_vector assumptions(ctx_->z3());
  if (extra == nullptr) return SampleLoop(solver, assumptions, count, stage);
  // `extra` holds for this call only, yet the exclusions the call finds
  // must stay at base: guard it with a fresh literal the call's checks
  // assume, and retire the literal on the way out, whatever the outcome.
  const z3::expr guard = ctx_->z3().bool_const(
      ("sample_guard!" + std::to_string(guards_++)).c_str());
  solver->add(z3::implies(guard, *extra));
  assumptions.push_back(guard);
  Result<std::vector<Tuple>> produced =
      SampleLoop(solver, assumptions, count, stage);
  solver->add(!guard);
  return produced;
}

Result<std::vector<Tuple>> SampleGenerator::SampleLoop(
    z3::solver* solver, const z3::expr_vector& assumptions, size_t count,
    std::string_view stage) {
  // `stage` is "synth.sample" for training samples and "verify.cex" for
  // counter-examples; the span name follows the caller's stage.
  obs::TraceSpan span(stage);
  exhausted_ = false;
  deadline_expired_ = false;
  std::vector<Tuple> produced;

  const std::vector<z3::expr> hints = HintLayers();

  // Hint layers only get harder to satisfy as NotOld grows, so once a
  // layer is exhausted it stays exhausted: resume from the last layer
  // that produced a model instead of re-proving the tight layers UNSAT
  // for every sample.
  size_t start_layer = 0;
  while (produced.size() < count) {
    // Try hint layers from strongest to weakest; fall back to no hints.
    // A timeout on a hinted layer means the hints are not making the
    // query easier — jump straight to the unhinted check, whose verdict
    // is decisive, instead of paying the timeout once per layer.
    bool got_model = false;
    size_t layer = start_layer;
    while (true) {
      solver->push();
      // Apply hint layers `layer..end` (dropping the strongest first).
      for (size_t h = layer; h < hints.size(); ++h) solver->add(hints[h]);
      auto checked = ctx_->Check(solver, &params_, stage, &assumptions);
      if (!checked.ok()) {
        solver->pop();
        if (checked.status().code() == StatusCode::kTimeout) {
          // End-to-end deadline spent: hand back whatever was produced
          // (the caller keeps partial progress); an empty return
          // surfaces the kTimeout so the stage name reaches the caller.
          deadline_expired_ = true;
          if (produced.empty()) return checked.status();
          return produced;
        }
        return checked.status();
      }
      const z3::check_result res = *checked;
      if (res == z3::sat) {
        z3::model model = solver->get_model();
        auto tuple = encoder_.ExtractTuple(model, cols_);
        solver->pop();
        if (!tuple.ok()) return tuple.status();
        // NotOld: the exclusion goes in at base scope, once, and stays
        // in force for the rest of the run.
        SIA_ASSIGN_OR_RETURN(z3::expr eq,
                             encoder_.TupleEquals(cols_, tuple.value()));
        solver->add(!eq);
        produced.push_back(std::move(tuple).value());
        got_model = true;
        start_layer = layer;
        break;
      }
      solver->pop();
      if (layer == hints.size()) {
        // Unhinted verdict is final.
        if (res == z3::unsat) exhausted_ = true;
        return produced;
      }
      layer = (res == z3::unknown) ? hints.size() : layer + 1;
    }
    if (!got_model) break;
  }
  return produced;
}

Result<z3::expr> SampleGenerator::BuildUnsatCore() {
  // ¬p over the full column set; then universally quantify every variable
  // that is not a Cols' value variable (i.e. the "other" columns plus any
  // non-linear auxiliary variables involving them).
  SIA_ASSIGN_OR_RETURN(z3::expr not_p, encoder_.EncodeNotTrue(predicate_));

  std::set<unsigned> visited;
  std::vector<z3::expr> consts;
  CollectConsts(not_p, &visited, &consts);

  std::set<std::string> keep;  // Cols' variable names
  for (const size_t c : cols_) {
    keep.insert(encoder_.ColumnVar(c).decl().name().str());
  }

  z3::expr_vector bound(ctx_->z3());
  for (const z3::expr& c : consts) {
    if (!keep.contains(c.decl().name().str())) bound.push_back(c);
  }
  if (bound.empty()) return not_p;
  return z3::forall(bound, not_p);
}

Result<std::vector<Tuple>> SampleGenerator::GenerateTrue(size_t count) {
  SIA_FAULT_INJECT("synth.sample");
  SIA_ASSIGN_OR_RETURN(z3::solver * solver, TrueSolver());
  return Sample(solver, nullptr, count, "synth.sample");
}

Result<std::vector<Tuple>> SampleGenerator::GenerateFalse(size_t count) {
  SIA_FAULT_INJECT("synth.sample");
  SIA_ASSIGN_OR_RETURN(z3::solver * solver, FalseSolver());
  return Sample(solver, nullptr, count, "synth.sample");
}

Result<std::vector<Tuple>> SampleGenerator::CounterTrue(
    const ExprPtr& learned, size_t count) {
  SIA_FAULT_INJECT("verify.cex");
  if (!UsesOnlyColumns(learned, cols_)) {
    return Status::InvalidArgument(
        "learned predicate uses columns outside Cols'");
  }
  SIA_ASSIGN_OR_RETURN(z3::solver * solver, TrueSolver());
  SIA_ASSIGN_OR_RETURN(z3::expr p1_not, encoder_.EncodeNotTrue(learned));
  return Sample(solver, &p1_not, count, "verify.cex");
}

Result<std::vector<Tuple>> SampleGenerator::CounterFalse(
    const ExprPtr& learned, size_t count) {
  SIA_FAULT_INJECT("verify.cex");
  if (!UsesOnlyColumns(learned, cols_)) {
    return Status::InvalidArgument(
        "learned predicate uses columns outside Cols'");
  }
  SIA_ASSIGN_OR_RETURN(z3::solver * solver, FalseSolver());
  SIA_ASSIGN_OR_RETURN(z3::expr p1_true, encoder_.EncodeTrue(learned));
  return Sample(solver, &p1_true, count, "verify.cex");
}

}  // namespace sia
