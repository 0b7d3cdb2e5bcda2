#include "engine/selectivity.h"

#include <vector>

#include "engine/vector_filter.h"

namespace sia {

Result<double> EstimateSelectivity(const Table& table,
                                   const ExprPtr& predicate) {
  if (table.row_count() == 0) return 0.0;
  SIA_ASSIGN_OR_RETURN(const VectorizedFilter filter,
                       VectorizedFilter::Compile(predicate));
  std::vector<uint32_t> rows;
  SIA_RETURN_IF_ERROR(filter.FilterTable(table, &rows));
  return static_cast<double>(rows.size()) /
         static_cast<double>(table.row_count());
}

}  // namespace sia
