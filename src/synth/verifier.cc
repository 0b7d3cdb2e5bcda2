#include "synth/verifier.h"

#include <z3++.h>

#include "common/fault_injection.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "smt/encoder.h"

namespace sia {

Result<VerifyResult> VerifyImplies(SmtContext* ctx, const ExprPtr& original,
                                   const ExprPtr& learned,
                                   const Schema& schema) {
  SIA_TRACE_SPAN("verify.check");
  SIA_COUNTER_INC("verify.checks");
  SIA_FAULT_INJECT("verify.check");
  Encoder encoder(ctx, schema, NullHandling::kThreeValued);

  // Validity (Def. 2) fails iff some tuple satisfies p (evaluates to
  // TRUE) while p₁ does not (evaluates to FALSE or NULL): check
  // p ∧ ¬p₁ for satisfiability.
  SIA_ASSIGN_OR_RETURN(z3::expr p_true, encoder.EncodeTrue(original));
  SIA_ASSIGN_OR_RETURN(z3::expr p1_not, encoder.EncodeNotTrue(learned));

  z3::solver solver(ctx->z3());
  solver.add(p_true && p1_not);

  SIA_ASSIGN_OR_RETURN(z3::check_result res,
                       ctx->Check(&solver, nullptr, "verify.check"));
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
  return VerifyImplies(&ctx, original, learned, schema);
}

Result<VerifyResult> VerifyEquivalent(const ExprPtr& p, const ExprPtr& q,
                                      const Schema& schema,
                                      const SolverBudget& budget) {
  SmtContext ctx(budget);
  SIA_ASSIGN_OR_RETURN(VerifyResult fwd, VerifyImplies(&ctx, p, q, schema));
  if (fwd != VerifyResult::kValid) return fwd;
  return VerifyImplies(&ctx, q, p, schema);
}

}  // namespace sia
