#ifndef SIA_SYNTH_VERIFIER_H_
#define SIA_SYNTH_VERIFIER_H_

#include "common/deadline.h"
#include "common/status.h"
#include "ir/expr.h"
#include "smt/smt_context.h"
#include "types/schema.h"

namespace sia {

// Outcome of a validity check.
enum class VerifyResult {
  kValid,    // p ⟹ p₁ (the formula p ∧ ¬p₁ is UNSAT)
  kInvalid,  // a witness tuple satisfies p but not p₁
  kUnknown,  // solver timeout / resource limit
};

// The paper's Verify procedure (§5.5): checks that `original` implies
// `learned` under SQL three-valued logic, using the value+is-null pair
// encoding for every nullable column. Both predicates must be bound
// against `schema`. Runs in `ctx` (the synthesis run's context, whose
// budget bounds the check) with a fresh solver per call; an expired
// budget surfaces as StatusCode::kTimeout naming "verify.check".
[[nodiscard]] Result<VerifyResult> VerifyImplies(SmtContext* ctx,
                                                 const ExprPtr& original,
                                                 const ExprPtr& learned,
                                                 const Schema& schema);

// One-shot form for callers outside a synthesis run: a private context
// under `budget`.
[[nodiscard]] Result<VerifyResult> VerifyImplies(const ExprPtr& original,
                                                 const ExprPtr& learned,
                                                 const Schema& schema,
                                                 const SolverBudget& budget = {});

// Checks semantic equivalence: p ⟹ q and q ⟹ p, in one context under
// `budget`. Used by tests and the rewriter's self-check mode.
[[nodiscard]] Result<VerifyResult> VerifyEquivalent(const ExprPtr& p, const ExprPtr& q,
                                      const Schema& schema,
                                      const SolverBudget& budget = {});

}  // namespace sia

#endif  // SIA_SYNTH_VERIFIER_H_
