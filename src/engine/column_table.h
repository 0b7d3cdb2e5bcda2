#ifndef SIA_ENGINE_COLUMN_TABLE_H_
#define SIA_ENGINE_COLUMN_TABLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "types/schema.h"
#include "types/tuple.h"

namespace sia {

// Columnar storage for one table. Integral columns (INTEGER, DATE,
// TIMESTAMP, BOOLEAN) are stored as int64; DOUBLE columns as double.
// NULLs are tracked in an optional per-column validity vector (empty
// vector == no NULLs, the common TPC-H case).
class ColumnData {
 public:
  explicit ColumnData(DataType type) : type_(type) {}

  DataType type() const { return type_; }
  size_t size() const {
    return type_ == DataType::kDouble ? doubles_.size() : ints_.size();
  }

  void AppendInt(int64_t v) {
    ints_.push_back(v);
    if (!nulls_.empty()) nulls_.push_back(0);
  }
  void AppendDouble(double v) {
    doubles_.push_back(v);
    if (!nulls_.empty()) nulls_.push_back(0);
  }
  void AppendNull();

  int64_t IntAt(size_t row) const { return ints_[row]; }
  double DoubleAt(size_t row) const { return doubles_[row]; }
  bool IsNull(size_t row) const {
    return !nulls_.empty() && nulls_[row] != 0;
  }
  bool has_nulls() const { return !nulls_.empty(); }

  const std::vector<int64_t>& ints() const { return ints_; }
  const std::vector<double>& doubles() const { return doubles_; }
  // Per-row NULL flags (1 = NULL); empty when has_nulls() is false.
  const std::vector<uint8_t>& nulls() const { return nulls_; }

  // Appends cells rows[0..n) of `src`, a column of the same type, NULLs
  // included.
  void AppendGathered(const ColumnData& src, const uint32_t* rows, size_t n);

  Value ValueAt(size_t row) const;

 private:
  DataType type_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<uint8_t> nulls_;  // lazily created on first NULL

  void EnsureNulls(size_t upto);
};

// A named table: schema + column data of equal length.
class Table {
 public:
  Table() = default;
  explicit Table(Schema schema);
  // A table over finished columns, one per schema column, all of equal
  // length (operator outputs built column by column).
  Table(Schema schema, std::vector<ColumnData> columns);

  const Schema& schema() const { return schema_; }
  size_t row_count() const { return row_count_; }
  const ColumnData& column(size_t i) const { return columns_[i]; }
  ColumnData& column(size_t i) { return columns_[i]; }

  // Appends a row; values must match the schema's types (NULLs allowed
  // for nullable columns).
  [[nodiscard]] Status AppendRow(const Tuple& row);

  // Fast paths used by the data generator.
  void AppendIntRow(const std::vector<int64_t>& ints);

  // Materializes row `row` as a Tuple (tests / debugging).
  Tuple RowAt(size_t row) const;

  // Approximate resident bytes (benchmark reporting).
  size_t MemoryBytes() const;

 private:
  Schema schema_;
  std::vector<ColumnData> columns_;
  size_t row_count_ = 0;
};

}  // namespace sia

#endif  // SIA_ENGINE_COLUMN_TABLE_H_
