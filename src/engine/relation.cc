#include "engine/relation.h"

namespace sia {

Status CheckRowIndexLimit(size_t row_count, const std::string& what) {
  if (row_count > kMaxRowIndex) {
    return Status::InvalidArgument(
        what + " has " + std::to_string(row_count) +
        " rows, which exceeds the 32-bit row-index limit (" +
        std::to_string(kMaxRowIndex) + ")");
  }
  return Status::OK();
}

size_t Relation::column_count() const {
  size_t n = 0;
  for (const Table* t : parts) n += t->schema().size();
  return n;
}

std::pair<size_t, size_t> Relation::Resolve(size_t col) const {
  size_t offset = 0;
  for (size_t p = 0; p < parts.size(); ++p) {
    const size_t width = parts[p]->schema().size();
    if (col < offset + width) return {p, col - offset};
    offset += width;
  }
  return {parts.size(), 0};  // out of range; caller validates
}

RelationColumn Relation::Column(size_t col) const {
  const auto [part, local] = Resolve(col);
  return {&parts[part]->column(local), rows[part].data()};
}

}  // namespace sia
