#include "engine/vector_filter.h"

#include <algorithm>

#include "engine/exec_expr.h"

namespace sia {

namespace {

constexpr size_t kBlock = 2048;

using OpCode = CompiledExpr::OpCode;

// A block-evaluation slot: either a scalar constant, a borrowed pointer
// into a base column, or an owned scratch buffer.
struct VSlot {
  enum Kind { kConst, kView, kOwned } kind = kConst;
  int64_t cval = 0;
  const int64_t* view = nullptr;
  std::vector<int64_t>* buf = nullptr;  // scratch, kBlock capacity

  int64_t At(size_t i) const {
    switch (kind) {
      case kConst:
        return cval;
      case kView:
        return view[i];
      case kOwned:
        return (*buf)[i];
    }
    return 0;
  }
};

// Applies `f` elementwise over l and r, writing into l (which becomes an
// owned slot backed by `scratch`). Specialized loops keep the hot cases
// (vector-vector, vector-const) free of per-element branches.
template <typename F>
void BinaryKernel(VSlot& l, const VSlot& r, size_t n,
                  std::vector<int64_t>* scratch, F f) {
  int64_t* out = scratch->data();
  if (l.kind == VSlot::kConst && r.kind == VSlot::kConst) {
    l.cval = f(l.cval, r.cval);
    return;
  }
  if (l.kind != VSlot::kConst && r.kind == VSlot::kConst) {
    const int64_t* a = l.kind == VSlot::kView ? l.view : l.buf->data();
    const int64_t b = r.cval;
    for (size_t i = 0; i < n; ++i) out[i] = f(a[i], b);
  } else if (l.kind == VSlot::kConst) {
    const int64_t a = l.cval;
    const int64_t* b = r.kind == VSlot::kView ? r.view : r.buf->data();
    for (size_t i = 0; i < n; ++i) out[i] = f(a, b[i]);
  } else {
    const int64_t* a = l.kind == VSlot::kView ? l.view : l.buf->data();
    const int64_t* b = r.kind == VSlot::kView ? r.view : r.buf->data();
    for (size_t i = 0; i < n; ++i) out[i] = f(a[i], b[i]);
  }
  l.kind = VSlot::kOwned;
  l.buf = scratch;
}

}  // namespace

Result<VectorizedFilter> VectorizedFilter::Compile(const ExprPtr& expr) {
  SIA_ASSIGN_OR_RETURN(CompiledExpr compiled, CompiledExpr::Compile(expr));
  VectorizedFilter out;
  size_t depth = 0;
  for (const CompiledExpr::Op& op : compiled.ops()) {
    switch (op.code) {
      case OpCode::kLoadDouble:
      case OpCode::kConstDouble:
      case OpCode::kConstNull:
      case OpCode::kDiv:
        // DOUBLE data and NULL-producing division fall back to the
        // row-at-a-time interpreter.
        return Status::Unsupported(
            "vectorized filter supports NULL-free integral programs only");
      case OpCode::kLoadInt:
      case OpCode::kConstInt:
      case OpCode::kConstBool:
        ++depth;
        break;
      case OpCode::kNot:
        break;
      default:
        --depth;
        break;
    }
    out.max_stack_ = std::max(out.max_stack_, depth);
    VOp vop{static_cast<uint8_t>(op.code), 0, op.ival};
    if (op.code == OpCode::kLoadInt) {
      auto& cols = out.loaded_cols_;
      vop.col = static_cast<uint32_t>(
          std::find(cols.begin(), cols.end(), op.col) - cols.begin());
      if (vop.col == cols.size()) cols.push_back(op.col);
    }
    out.ops_.push_back(vop);
  }
  return out;
}

template <typename Loader>
Status VectorizedFilter::FilterBlocks(size_t begin_row, size_t end_row,
                                      Loader&& load,
                                      std::vector<uint32_t>* out) const {
  // One scratch buffer per stack level, reused across blocks.
  std::vector<std::vector<int64_t>> scratch(max_stack_ + 1);
  for (auto& s : scratch) s.resize(kBlock);
  std::vector<VSlot> stack(max_stack_ + 1);

  std::vector<const int64_t*> columns(loaded_cols_.size());
  for (size_t base = begin_row; base < end_row; base += kBlock) {
    const size_t n = std::min(kBlock, end_row - base);
    for (size_t k = 0; k < columns.size(); ++k) columns[k] = load(k, base, n);
    size_t sp = 0;
    for (const VOp& vop : ops_) {
      const OpCode code = static_cast<OpCode>(vop.code);
      switch (code) {
        case OpCode::kLoadInt: {
          VSlot& s = stack[sp];
          s.kind = VSlot::kView;
          s.view = columns[vop.col];
          s.buf = &scratch[sp];
          ++sp;
          break;
        }
        case OpCode::kConstInt:
        case OpCode::kConstBool: {
          VSlot& s = stack[sp];
          s.kind = VSlot::kConst;
          s.cval = vop.ival;
          s.buf = &scratch[sp];
          ++sp;
          break;
        }
        case OpCode::kAdd:
          --sp;
          BinaryKernel(stack[sp - 1], stack[sp], n, &scratch[sp - 1],
                       [](int64_t a, int64_t b) { return a + b; });
          break;
        case OpCode::kSub:
          --sp;
          BinaryKernel(stack[sp - 1], stack[sp], n, &scratch[sp - 1],
                       [](int64_t a, int64_t b) { return a - b; });
          break;
        case OpCode::kMul:
          --sp;
          BinaryKernel(stack[sp - 1], stack[sp], n, &scratch[sp - 1],
                       [](int64_t a, int64_t b) { return a * b; });
          break;
        case OpCode::kCmpLt:
          --sp;
          BinaryKernel(stack[sp - 1], stack[sp], n, &scratch[sp - 1],
                       [](int64_t a, int64_t b) -> int64_t { return a < b; });
          break;
        case OpCode::kCmpLe:
          --sp;
          BinaryKernel(stack[sp - 1], stack[sp], n, &scratch[sp - 1],
                       [](int64_t a, int64_t b) -> int64_t { return a <= b; });
          break;
        case OpCode::kCmpGt:
          --sp;
          BinaryKernel(stack[sp - 1], stack[sp], n, &scratch[sp - 1],
                       [](int64_t a, int64_t b) -> int64_t { return a > b; });
          break;
        case OpCode::kCmpGe:
          --sp;
          BinaryKernel(stack[sp - 1], stack[sp], n, &scratch[sp - 1],
                       [](int64_t a, int64_t b) -> int64_t { return a >= b; });
          break;
        case OpCode::kCmpEq:
          --sp;
          BinaryKernel(stack[sp - 1], stack[sp], n, &scratch[sp - 1],
                       [](int64_t a, int64_t b) -> int64_t { return a == b; });
          break;
        case OpCode::kCmpNe:
          --sp;
          BinaryKernel(stack[sp - 1], stack[sp], n, &scratch[sp - 1],
                       [](int64_t a, int64_t b) -> int64_t { return a != b; });
          break;
        case OpCode::kAnd:
          // NULL-free blocks: plain boolean algebra on 0/1.
          --sp;
          BinaryKernel(stack[sp - 1], stack[sp], n, &scratch[sp - 1],
                       [](int64_t a, int64_t b) -> int64_t { return a & b; });
          break;
        case OpCode::kOr:
          --sp;
          BinaryKernel(stack[sp - 1], stack[sp], n, &scratch[sp - 1],
                       [](int64_t a, int64_t b) -> int64_t { return a | b; });
          break;
        case OpCode::kNot: {
          VSlot& s = stack[sp - 1];
          if (s.kind == VSlot::kConst) {
            s.cval = 1 - s.cval;
          } else {
            const int64_t* a = s.kind == VSlot::kView ? s.view : s.buf->data();
            int64_t* o = scratch[sp - 1].data();
            for (size_t i = 0; i < n; ++i) o[i] = 1 - a[i];
            s.kind = VSlot::kOwned;
            s.buf = &scratch[sp - 1];
          }
          break;
        }
        default:
          return Status::Internal("unexpected opcode in vectorized filter");
      }
    }
    // Collect passing rows.
    const VSlot& result = stack[0];
    if (result.kind == VSlot::kConst) {
      if (result.cval == 1) {
        for (size_t i = 0; i < n; ++i) {
          out->push_back(static_cast<uint32_t>(base + i));
        }
      }
      continue;
    }
    const int64_t* v =
        result.kind == VSlot::kView ? result.view : result.buf->data();
    for (size_t i = 0; i < n; ++i) {
      if (v[i] == 1) out->push_back(static_cast<uint32_t>(base + i));
    }
  }
  return Status::OK();
}

Status VectorizedFilter::FilterTable(const Table& table,
                                     std::vector<uint32_t>* out) const {
  return FilterRange(table, 0, table.row_count(), out);
}

Status VectorizedFilter::FilterRange(const Table& table, size_t begin_row,
                                     size_t end_row,
                                     std::vector<uint32_t>* out) const {
  // NULL-bearing columns fall back (checked once, not per row).
  for (const uint32_t col : loaded_cols_) {
    if (table.column(col).has_nulls()) {
      return Status::Unsupported("column has NULLs; use CompiledExpr");
    }
  }
  // Zero-copy: a base column is already a contiguous int64 array.
  return FilterBlocks(
      begin_row, std::min(end_row, table.row_count()),
      [&](size_t k, size_t base, size_t) {
        return table.column(loaded_cols_[k]).ints().data() + base;
      },
      out);
}

Status VectorizedFilter::FilterRange(const Relation& rel, size_t begin_row,
                                     size_t end_row,
                                     std::vector<uint32_t>* out) const {
  // Resolve each loaded column to its base column and row-index vector.
  std::vector<const int64_t*> values(loaded_cols_.size());
  std::vector<const RowIndex*> rows(loaded_cols_.size());
  for (size_t k = 0; k < loaded_cols_.size(); ++k) {
    const auto [part, local] = rel.Resolve(loaded_cols_[k]);
    const ColumnData& column = rel.parts[part]->column(local);
    if (column.has_nulls()) {
      return Status::Unsupported("column has NULLs; use CompiledExpr");
    }
    values[k] = column.ints().data();
    rows[k] = rel.rows[part].data();
  }
  // Gather each loaded column once per block into its own buffer.
  std::vector<std::vector<int64_t>> gathered(loaded_cols_.size(),
                                             std::vector<int64_t>(kBlock));
  return FilterBlocks(
      begin_row, std::min(end_row, rel.row_count()),
      [&](size_t k, size_t base, size_t n) -> const int64_t* {
        const int64_t* src = values[k];
        const RowIndex* at = rows[k] + base;
        int64_t* dst = gathered[k].data();
        for (size_t i = 0; i < n; ++i) dst[i] = src[at[i]];
        return dst;
      },
      out);
}

}  // namespace sia
