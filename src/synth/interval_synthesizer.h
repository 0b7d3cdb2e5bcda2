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
// predicate  lo <= col AND col <= hi  is always a valid reduction, and
// one additional ∃∀ check decides whether the feasible set is exactly
// the hull (then the result is optimal in the paper's Def. 3 sense).
//
// This module is an extension beyond the paper — the specialized,
// solver-exact counterpart that the CEGIS loop is compared against in
// bench_ablation_interval. It deliberately only handles one column;
// multi-column optimal reductions are general polytopes and remain the
// learning loop's domain.
//
// `col` must be referenced by `predicate` (bound against `schema`) and
// have an integral type. Returns kNone when the feasible set is
// unbounded on both sides (only TRUE is valid), an equality/interval
// predicate otherwise. The OMT queries and the hole check share one
// context under `budget`; an expired budget surfaces as
// StatusCode::kTimeout naming stage "synth.interval". The checks count
// toward `synth.solver_calls`, like a CEGIS run's, but not toward
// `synth.runs`.
[[nodiscard]] Result<SynthesisResult> SynthesizeInterval(const ExprPtr& predicate,
                                           const Schema& schema, size_t col,
                                           const SolverBudget& budget = {});

}  // namespace sia

#endif  // SIA_SYNTH_INTERVAL_SYNTHESIZER_H_
