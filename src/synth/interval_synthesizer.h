#ifndef SIA_SYNTH_INTERVAL_SYNTHESIZER_H_
#define SIA_SYNTH_INTERVAL_SYNTHESIZER_H_

#include "common/deadline.h"
#include "common/status.h"
#include "ir/expr.h"
#include "synth/synthesizer.h"
#include "types/schema.h"

namespace sia {

// Exact single-column synthesis via optimization modulo theories.
//
// For |Cols'| = 1 the feasible restrictions of a linear-arithmetic
// predicate form a finite union of intervals on that column; the convex
// hull [lo, hi] is computable exactly with Z3's optimization engine
// (two objective queries), with no learning loop at all. The returned
// predicate  lo <= col AND col <= hi  is always a valid reduction. It is
// reported kValid, not kOptimal: deciding whether the feasible set is
// exactly the hull takes an ∃∀ query whose cost (often seconds of MBQI)
// would buy only the label.
//
// This module is an extension beyond the paper — the specialized,
// solver-exact rung of the degradation ladder (RunSynthesisLadder,
// rewrite/sia_rewriter.h) below the CEGIS loop. It deliberately only
// handles one column; multi-column reductions are general polytopes and
// remain the learning loop's domain.
//
// `col` must be referenced by `predicate` (bound against `schema`) and
// have an integral type. Returns kNone when the feasible set is
// unbounded on both sides (only TRUE is valid), kOptimal with FALSE when
// the predicate is unsatisfiable, and a kValid equality/interval
// predicate otherwise. The OMT queries and the satisfiability check
// share one context under `budget`; an expired budget surfaces as
// StatusCode::kTimeout naming stage "synth.interval". The checks count
// toward `synth.solver_calls`, like a CEGIS run's, but not toward
// `synth.runs`.
[[nodiscard]] Result<SynthesisResult> SynthesizeInterval(const ExprPtr& predicate,
                                           const Schema& schema, size_t col,
                                           const SolverBudget& budget = {});

}  // namespace sia

#endif  // SIA_SYNTH_INTERVAL_SYNTHESIZER_H_
