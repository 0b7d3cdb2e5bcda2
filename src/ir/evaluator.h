#ifndef SIA_IR_EVALUATOR_H_
#define SIA_IR_EVALUATOR_H_

#include "common/status.h"
#include "ir/expr.h"
#include "types/tuple.h"

namespace sia {

// SQL three-valued truth value. A predicate evaluates to TRUE, FALSE, or
// UNKNOWN (the paper calls the latter NULL); a WHERE clause keeps a row
// only when the predicate is TRUE.
enum class TruthValue { kFalse = 0, kTrue = 1, kUnknown = 2 };

// 3VL connectives (Kleene logic).
TruthValue And3(TruthValue a, TruthValue b);
TruthValue Or3(TruthValue a, TruthValue b);
TruthValue Not3(TruthValue a);

// Evaluates a bound scalar expression against `tuple`. Column references
// must be bound (index() valid for `tuple`). NULL propagates through
// arithmetic; division by zero, and INT64_MIN / -1, yield NULL
// (documented deviation: SQL raises an error, but synthesis never needs to
// observe it).
[[nodiscard]] Result<Value> EvalScalar(const Expr& expr, const Tuple& tuple);

// Evaluates a bound predicate against `tuple` under three-valued logic.
[[nodiscard]] Result<TruthValue> EvalPredicate(const Expr& expr, const Tuple& tuple);

// Convenience: true iff the predicate evaluates to TRUE (not UNKNOWN).
// Returns an error for unbound columns or type errors.
[[nodiscard]] Result<bool> Satisfies(const Expr& expr, const Tuple& tuple);

}  // namespace sia

#endif  // SIA_IR_EVALUATOR_H_
