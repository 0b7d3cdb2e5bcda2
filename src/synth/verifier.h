#ifndef SIA_SYNTH_VERIFIER_H_
#define SIA_SYNTH_VERIFIER_H_

#include <optional>

#include <z3++.h>

#include "common/deadline.h"
#include "common/status.h"
#include "ir/expr.h"
#include "smt/encoder.h"
#include "smt/smt_context.h"
#include "types/schema.h"

namespace sia {

// Outcome of a validity check.
enum class VerifyResult {
  kValid,    // p ⟹ p₁ (the formula p ∧ ¬p₁ is UNSAT)
  kInvalid,  // a witness tuple satisfies p but not p₁
  kUnknown,  // solver timeout / resource limit
};

// The paper's Verify procedure (§5.5) for one fixed `original` p: checks
// that p implies each `learned` p₁ under SQL three-valued logic, using the
// value+is-null pair encoding for every nullable column. Both predicates
// must be bound against `schema`.
//
// One solver serves every check: p's encoding is asserted once, at base
// scope, by the first check, and each check adds ¬p₁ in a push scope
// that it pops on every return path. A CEGIS run holds one Verifier in
// its SmtContext (whose budget bounds each check); an expired budget
// surfaces as StatusCode::kTimeout naming "verify.check". `ctx` is
// borrowed and must outlive the verifier.
class Verifier {
 public:
  Verifier(SmtContext* ctx, ExprPtr original, const Schema& schema);

  [[nodiscard]] Result<VerifyResult> Implies(const ExprPtr& learned);

 private:
  SmtContext* ctx_;
  ExprPtr original_;
  Encoder encoder_;
  std::optional<z3::solver> solver_;  // holds p once the first check ran
};

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
