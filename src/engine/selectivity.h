#ifndef SIA_ENGINE_SELECTIVITY_H_
#define SIA_ENGINE_SELECTIVITY_H_

#include "common/status.h"
#include "engine/column_table.h"
#include "ir/expr.h"

namespace sia {

// Exact selectivity of a predicate over a base table: the share of its
// rows on which the predicate is TRUE, counted by one full pass of the
// vectorized filter. The paper's Table 4 classifies rewrites by the
// learned predicate's selectivity; the benches and tests report it.
// `predicate` must be bound against `table`'s schema; an empty table has
// selectivity 0.
[[nodiscard]] Result<double> EstimateSelectivity(const Table& table,
                                                 const ExprPtr& predicate);

}  // namespace sia

#endif  // SIA_ENGINE_SELECTIVITY_H_
