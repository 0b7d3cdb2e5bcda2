#include "synth/verifier.h"

#include <utility>

#include "common/fault_injection.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sia {

Verifier::Verifier(SmtContext* ctx, ExprPtr original, const Schema& schema)
    : ctx_(ctx),
      original_(std::move(original)),
      encoder_(ctx, schema, NullHandling::kThreeValued) {}

Result<VerifyResult> Verifier::Implies(const ExprPtr& learned) {
  SIA_TRACE_SPAN("verify.check");
  SIA_COUNTER_INC("verify.checks");
  SIA_FAULT_INJECT("verify.check");

  // Validity (Def. 2) fails iff some tuple satisfies p (evaluates to
  // TRUE) while p₁ does not (evaluates to FALSE or NULL): check
  // p ∧ ¬p₁ for satisfiability.
  if (!solver_.has_value()) {
    SIA_ASSIGN_OR_RETURN(z3::expr p_true, encoder_.EncodeTrue(original_));
    solver_.emplace(ctx_->z3());
    solver_->add(p_true);
  }
  SIA_ASSIGN_OR_RETURN(z3::expr p1_not, encoder_.EncodeNotTrue(learned));

  solver_->push();
  solver_->add(p1_not);
  Result<z3::check_result> checked =
      ctx_->Check(&*solver_, nullptr, "verify.check");
  solver_->pop();
  SIA_ASSIGN_OR_RETURN(z3::check_result res, std::move(checked));
  switch (res) {
    case z3::unsat:
      SIA_COUNTER_INC("verify.valid");
      return VerifyResult::kValid;
    case z3::sat:
      SIA_COUNTER_INC("verify.invalid");
      return VerifyResult::kInvalid;
    case z3::unknown:
      SIA_COUNTER_INC("verify.unknown");
      return VerifyResult::kUnknown;
  }
  return Status::SolverError("unexpected solver result");
}

Result<VerifyResult> VerifyImplies(const ExprPtr& original,
                                   const ExprPtr& learned,
                                   const Schema& schema,
                                   const SolverBudget& budget) {
  SmtContext ctx(budget);
  return Verifier(&ctx, original, schema).Implies(learned);
}

Result<VerifyResult> VerifyEquivalent(const ExprPtr& p, const ExprPtr& q,
                                      const Schema& schema,
                                      const SolverBudget& budget) {
  SmtContext ctx(budget);
  SIA_ASSIGN_OR_RETURN(VerifyResult fwd,
                       Verifier(&ctx, p, schema).Implies(q));
  if (fwd != VerifyResult::kValid) return fwd;
  return Verifier(&ctx, q, schema).Implies(p);
}

}  // namespace sia
