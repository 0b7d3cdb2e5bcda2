#ifndef SIA_ENGINE_RELATION_H_
#define SIA_ENGINE_RELATION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "engine/column_table.h"

namespace sia {

// Row positions inside a Relation are 32-bit: four bytes per (part, row)
// cell is what keeps join intermediates cheap. Any input or intermediate
// larger than kMaxRowIndex rows must be rejected up front — a silent
// static_cast<RowIndex> of a wider offset would alias back into the
// table (row 2^32 becomes row 0) and return wrong results.
using RowIndex = uint32_t;
inline constexpr size_t kMaxRowIndex = UINT32_MAX;

// Returns InvalidArgument naming `what` when `row_count` exceeds the
// 32-bit row-index domain; every executor stage that narrows a size_t
// row number into a RowIndex guards with this first.
[[nodiscard]] Status CheckRowIndexLimit(size_t row_count, const std::string& what);

// Rows per block for the column-at-a-time loops over a table or a
// relation (the vectorized filter, output digests, aggregation): one
// block's cells of a column stay cache-resident while every op reads them.
inline constexpr size_t kBlockRows = 2048;

// One column of a relation: its base column and the row-index vector
// that maps relation rows onto it, so reading cell i is two loads.
struct RelationColumn {
  const ColumnData* data;
  const RowIndex* rows;
};

// A (possibly multi-part) row view over base tables: the result of a scan
// or a chain of joins is represented as aligned row-index vectors into
// the participating base tables rather than a materialized copy. The
// logical schema is the concatenation of the parts' schemas.
struct Relation {
  std::vector<const Table*> parts;
  // rows[p][i] = row of parts[p] contributing to output row i.
  std::vector<std::vector<RowIndex>> rows;
  // Materialized intermediates (aggregate/project outputs) that `parts`
  // may point into; shared so Relation copies stay valid.
  std::vector<std::shared_ptr<Table>> owned;

  size_t row_count() const { return rows.empty() ? 0 : rows[0].size(); }
  size_t column_count() const;
  // Resolves a concatenated column index to (part, local column).
  std::pair<size_t, size_t> Resolve(size_t col) const;
  // Resolves a concatenated column index to its base column and rows.
  RelationColumn Column(size_t col) const;
};

}  // namespace sia

#endif  // SIA_ENGINE_RELATION_H_
