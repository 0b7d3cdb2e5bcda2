#include "engine/column_table.h"

namespace sia {

void ColumnData::EnsureNulls(size_t upto) {
  if (nulls_.size() < upto) nulls_.resize(upto, 0);
}

void ColumnData::AppendNull() {
  EnsureNulls(size());
  if (type_ == DataType::kDouble) {
    doubles_.push_back(0.0);
  } else {
    ints_.push_back(0);
  }
  nulls_.push_back(1);
}

void ColumnData::AppendGathered(const ColumnData& src, const uint32_t* rows,
                                size_t n) {
  const size_t before = size();
  if (type_ == DataType::kDouble) {
    doubles_.reserve(before + n);
    for (size_t i = 0; i < n; ++i) doubles_.push_back(src.doubles_[rows[i]]);
  } else {
    ints_.reserve(before + n);
    for (size_t i = 0; i < n; ++i) ints_.push_back(src.ints_[rows[i]]);
  }
  if (src.has_nulls()) {
    EnsureNulls(before);
    for (size_t i = 0; i < n; ++i) nulls_.push_back(src.nulls_[rows[i]]);
  } else if (!nulls_.empty()) {
    nulls_.resize(before + n, 0);
  }
}

Value ColumnData::ValueAt(size_t row) const {
  if (IsNull(row)) return Value::Null(type_);
  switch (type_) {
    case DataType::kDouble:
      return Value::Double(doubles_[row]);
    case DataType::kDate:
      return Value::Date(ints_[row]);
    case DataType::kTimestamp:
      return Value::Timestamp(ints_[row]);
    case DataType::kBoolean:
      return Value::Boolean(ints_[row] != 0);
    case DataType::kInteger:
      return Value::Integer(ints_[row]);
  }
  return Value::Null(type_);
}

Table::Table(Schema schema) : schema_(std::move(schema)) {
  columns_.reserve(schema_.size());
  for (const ColumnDef& c : schema_.columns()) {
    columns_.emplace_back(c.type);
  }
}

Table::Table(Schema schema, std::vector<ColumnData> columns)
    : schema_(std::move(schema)),
      columns_(std::move(columns)),
      row_count_(columns_.empty() ? 0 : columns_.front().size()) {}

Status Table::AppendRow(const Tuple& row) {
  if (row.size() != columns_.size()) {
    return Status::InvalidArgument("row arity mismatch");
  }
  for (size_t i = 0; i < columns_.size(); ++i) {
    const Value& v = row.at(i);
    if (v.is_null()) {
      if (!schema_.column(i).nullable) {
        return Status::InvalidArgument("NULL in non-nullable column " +
                                       schema_.column(i).QualifiedName());
      }
      columns_[i].AppendNull();
      continue;
    }
    if (columns_[i].type() == DataType::kDouble) {
      columns_[i].AppendDouble(v.AsDouble());
    } else {
      columns_[i].AppendInt(v.AsInt());
    }
  }
  ++row_count_;
  return Status::OK();
}

void Table::AppendIntRow(const std::vector<int64_t>& ints) {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].type() == DataType::kDouble) {
      columns_[i].AppendDouble(static_cast<double>(ints[i]));
    } else {
      columns_[i].AppendInt(ints[i]);
    }
  }
  ++row_count_;
}

Tuple Table::RowAt(size_t row) const {
  Tuple out;
  for (const ColumnData& c : columns_) out.Append(c.ValueAt(row));
  return out;
}

size_t Table::MemoryBytes() const {
  size_t bytes = 0;
  for (const ColumnData& c : columns_) {
    bytes += c.ints().capacity() * sizeof(int64_t);
    bytes += c.doubles().capacity() * sizeof(double);
  }
  return bytes;
}

}  // namespace sia
