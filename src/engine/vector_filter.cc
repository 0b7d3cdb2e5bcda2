#include "engine/vector_filter.h"

#include <algorithm>
#include <cstring>
#include <limits>

namespace sia {

struct VectorizedFilter::ColumnCells {
  const int64_t* ints = nullptr;
  const double* doubles = nullptr;
  const uint8_t* nulls = nullptr;  // nullptr: no NULL in this block
};

namespace {

// The deepest evaluation stack a program may use.
constexpr size_t kMaxStack = 64;

// Truth values in Kleene order: AND is min, OR is max, NOT is 2 - x.
constexpr int64_t kFalse = 0;
constexpr int64_t kUnknown = 1;
constexpr int64_t kTrue = 2;

// A block-evaluation slot: a constant (possibly NULL), or n cells in one
// lane — borrowed from a loaded column or owned by its stack level's
// scratch — with per-row NULL flags when a NULL can occur.
struct VSlot {
  bool is_const = true;
  bool const_null = false;
  int64_t ival = 0;
  double dval = 0;
  const int64_t* ints = nullptr;
  const double* doubles = nullptr;
  const uint8_t* nulls = nullptr;
};

// One stack level's buffers, reused across blocks.
struct Scratch {
  std::vector<int64_t> ints;
  std::vector<double> doubles;
  std::vector<uint8_t> nulls;
};

template <typename T>
T ConstOf(const VSlot& s);
template <>
int64_t ConstOf<int64_t>(const VSlot& s) {
  return s.ival;
}
template <>
double ConstOf<double>(const VSlot& s) {
  return s.dval;
}

template <typename T>
const T* CellsOf(const VSlot& s);
template <>
const int64_t* CellsOf<int64_t>(const VSlot& s) {
  return s.ints;
}
template <>
const double* CellsOf<double>(const VSlot& s) {
  return s.doubles;
}

template <typename T>
T At(const VSlot& s, size_t i) {
  return s.is_const ? ConstOf<T>(s) : CellsOf<T>(s)[i];
}

// out[i] = f(l[i], r[i]) over n cells; at most one side is a constant.
// Specialized loops keep the hot cases (vector-vector, vector-const) free
// of per-element branches. `out` may be l's own cells.
template <typename T, typename R, typename F>
void Apply(const VSlot& l, const VSlot& r, size_t n, R* out, F f) {
  if (r.is_const) {
    const T* a = CellsOf<T>(l);
    const T b = ConstOf<T>(r);
    for (size_t i = 0; i < n; ++i) out[i] = f(a[i], b);
  } else if (l.is_const) {
    const T a = ConstOf<T>(l);
    const T* b = CellsOf<T>(r);
    for (size_t i = 0; i < n; ++i) out[i] = f(a, b[i]);
  } else {
    const T* a = CellsOf<T>(l);
    const T* b = CellsOf<T>(r);
    for (size_t i = 0; i < n; ++i) out[i] = f(a[i], b[i]);
  }
}

// The NULL flags of a value combined from l and r: the union of theirs.
// The result is l's flags (a column's, or l's level scratch) or `own`,
// never r's scratch, which the next push at r's level overwrites.
const uint8_t* UnionNulls(const VSlot& l, const VSlot& r, size_t n,
                          uint8_t* own) {
  if (r.nulls == nullptr) return l.nulls;
  if (l.nulls == nullptr) {
    std::memcpy(own, r.nulls, n);
    return own;
  }
  for (size_t i = 0; i < n; ++i) own[i] = l.nulls[i] | r.nulls[i];
  return own;
}

// Division yields NULL on a zero divisor, and on the one int64 quotient
// that overflows.
bool DivIsNull(int64_t a, int64_t b) {
  return b == 0 || (b == -1 && a == std::numeric_limits<int64_t>::min());
}
bool DivIsNull(double, double b) { return b == 0; }

// out[i] = l[i] / r[i] (C++ integer division truncates toward zero, as
// SQL does), flagging NULL quotients in `nulls`. Only division pays the
// per-element branch.
template <typename T>
void DivideCells(const VSlot& l, const VSlot& r, size_t n, T* out,
                 uint8_t* nulls) {
  for (size_t i = 0; i < n; ++i) {
    const T a = At<T>(l, i);
    const T b = At<T>(r, i);
    if (DivIsNull(a, b)) {
      nulls[i] = 1;
      out[i] = 0;
    } else {
      out[i] = a / b;
    }
  }
}

}  // namespace

Result<VectorizedFilter> VectorizedFilter::Compile(const ExprPtr& expr) {
  VectorizedFilter out;
  SIA_RETURN_IF_ERROR(out.EmitTruth(expr));
  if (out.max_stack_ > kMaxStack) {
    return Status::Unsupported("expression too deep for the vectorized filter");
  }
  return out;
}

void VectorizedFilter::Push(VOp op) {
  switch (op.code) {
    case Code::kLoad:
    case Code::kConst:
      ++depth_;
      break;
    case Code::kToDouble:
    case Code::kToTruth:
    case Code::kNot:
      break;  // 1 in, 1 out
    default:
      --depth_;  // 2 in, 1 out
      break;
  }
  max_stack_ = std::max(max_stack_, depth_);
  has_doubles_ |= op.lane == Lane::kDouble;
  has_division_ |= op.code == Code::kArith && op.arith == ArithOp::kDiv;
  ops_.push_back(op);
}

Status VectorizedFilter::EmitValue(const ExprPtr& expr, Lane lane) {
  Lane produced = lane;
  switch (expr->kind()) {
    case ExprKind::kColumnRef: {
      if (!expr->is_bound()) {
        return Status::Internal("unbound column in VectorizedFilter: " +
                                expr->ToString());
      }
      produced =
          expr->type() == DataType::kDouble ? Lane::kDouble : Lane::kInt;
      const auto col = static_cast<uint32_t>(expr->index());
      const auto at = static_cast<uint32_t>(
          std::find(loaded_cols_.begin(), loaded_cols_.end(), col) -
          loaded_cols_.begin());
      if (at == loaded_cols_.size()) {
        loaded_cols_.push_back(col);
        loaded_lanes_.push_back(produced);
      }
      Push({Code::kLoad, produced, false, at});
      break;
    }
    case ExprKind::kLiteral: {
      const Value& v = expr->literal();
      VOp op{Code::kConst, lane};
      if (v.is_null()) {
        op.null = true;
      } else if (v.type() == DataType::kDouble) {
        produced = op.lane = Lane::kDouble;
        op.dval = v.AsDouble();
      } else if (lane == Lane::kDouble) {
        op.dval = static_cast<double>(v.AsInt());  // promoted here
      } else {
        op.ival = v.AsInt();
      }
      Push(op);
      break;
    }
    case ExprKind::kArith: {
      produced = (expr->left()->type() == DataType::kDouble ||
                  expr->right()->type() == DataType::kDouble)
                     ? Lane::kDouble
                     : Lane::kInt;
      SIA_RETURN_IF_ERROR(EmitValue(expr->left(), produced));
      SIA_RETURN_IF_ERROR(EmitValue(expr->right(), produced));
      VOp op{Code::kArith, produced};
      op.arith = expr->arith_op();
      Push(op);
      break;
    }
    default:
      return Status::TypeError("predicate used as a value: " +
                               expr->ToString());
  }
  if (produced == lane) return Status::OK();
  if (produced == Lane::kInt && lane == Lane::kDouble) {
    Push({Code::kToDouble, Lane::kDouble});
    return Status::OK();
  }
  return Status::TypeError("DOUBLE operand in an integer operation: " +
                           expr->ToString());
}

Status VectorizedFilter::EmitTruth(const ExprPtr& expr) {
  switch (expr->kind()) {
    case ExprKind::kCompare: {
      const Lane lane = (expr->left()->type() == DataType::kDouble ||
                         expr->right()->type() == DataType::kDouble)
                            ? Lane::kDouble
                            : Lane::kInt;
      SIA_RETURN_IF_ERROR(EmitValue(expr->left(), lane));
      SIA_RETURN_IF_ERROR(EmitValue(expr->right(), lane));
      VOp op{Code::kCompare, lane};
      op.compare = expr->compare_op();
      Push(op);
      return Status::OK();
    }
    case ExprKind::kLogic:
      SIA_RETURN_IF_ERROR(EmitTruth(expr->left()));
      SIA_RETURN_IF_ERROR(EmitTruth(expr->right()));
      Push({expr->logic_op() == LogicOp::kAnd ? Code::kAnd : Code::kOr,
            Lane::kTruth});
      return Status::OK();
    case ExprKind::kNot:
      SIA_RETURN_IF_ERROR(EmitTruth(expr->operand()));
      Push({Code::kNot, Lane::kTruth});
      return Status::OK();
    case ExprKind::kLiteral: {
      const Value& v = expr->literal();
      VOp op{Code::kConst, Lane::kTruth};
      if (v.is_null()) {
        op.ival = kUnknown;
      } else if (v.type() == DataType::kBoolean) {
        op.ival = v.AsBool() ? kTrue : kFalse;
      } else {
        return Status::TypeError("literal '" + v.ToString() +
                                 "' is not a predicate");
      }
      Push(op);
      return Status::OK();
    }
    case ExprKind::kColumnRef:
      if (expr->type() != DataType::kBoolean) {
        return Status::TypeError("column '" + expr->name() +
                                 "' is not boolean");
      }
      SIA_RETURN_IF_ERROR(EmitValue(expr, Lane::kInt));
      Push({Code::kToTruth, Lane::kTruth});
      return Status::OK();
    case ExprKind::kArith:
      break;
  }
  return Status::TypeError("expression is not a predicate: " +
                           expr->ToString());
}

template <typename Loader>
Status VectorizedFilter::FilterBlocks(size_t begin_row, size_t end_row,
                                      bool masks, Loader&& load,
                                      std::vector<uint32_t>* out) const {
  // One scratch level per stack slot; NULL flags and double cells only
  // when the program or the source can need them.
  std::vector<Scratch> scratch(max_stack_);
  for (Scratch& s : scratch) {
    s.ints.resize(kBlockRows);
    if (has_doubles_) s.doubles.resize(kBlockRows);
    if (masks || has_division_) s.nulls.resize(kBlockRows);
  }
  std::vector<VSlot> stack(max_stack_);
  std::vector<ColumnCells> columns(loaded_cols_.size());
  size_t sp = 0;
  size_t n = 0;

  // Each binary op pops r and leaves its result in l, the new top, whose
  // level's scratch receives any cells it computes.
  const auto arith = [&](Lane lane, auto f) {
    --sp;
    VSlot& l = stack[sp - 1];
    const VSlot& r = stack[sp];
    Scratch& own = scratch[sp - 1];
    if (l.const_null || r.const_null) {
      l = VSlot{};
      l.const_null = true;
    } else if (l.is_const && r.is_const) {
      if (lane == Lane::kDouble) {
        l.dval = f(l.dval, r.dval);
      } else {
        l.ival = f(l.ival, r.ival);
      }
    } else {
      const uint8_t* nulls = UnionNulls(l, r, n, own.nulls.data());
      if (lane == Lane::kDouble) {
        Apply<double>(l, r, n, own.doubles.data(), f);
        l.doubles = own.doubles.data();
      } else {
        Apply<int64_t>(l, r, n, own.ints.data(), f);
        l.ints = own.ints.data();
      }
      l.is_const = false;
      l.nulls = nulls;
    }
  };
  const auto divide = [&](Lane lane) {
    --sp;
    VSlot& l = stack[sp - 1];
    const VSlot& r = stack[sp];
    Scratch& own = scratch[sp - 1];
    if (l.const_null || r.const_null ||
        (l.is_const && r.is_const &&
         (lane == Lane::kDouble ? DivIsNull(l.dval, r.dval)
                                : DivIsNull(l.ival, r.ival)))) {
      l = VSlot{};
      l.const_null = true;
    } else if (l.is_const && r.is_const) {
      if (lane == Lane::kDouble) {
        l.dval /= r.dval;
      } else {
        l.ival /= r.ival;
      }
    } else {
      uint8_t* flags = own.nulls.data();
      const uint8_t* nulls = UnionNulls(l, r, n, flags);
      if (nulls == nullptr) {
        std::memset(flags, 0, n);
      } else if (nulls != flags) {
        std::memcpy(flags, nulls, n);
      }
      if (lane == Lane::kDouble) {
        DivideCells<double>(l, r, n, own.doubles.data(), flags);
        l.doubles = own.doubles.data();
      } else {
        DivideCells<int64_t>(l, r, n, own.ints.data(), flags);
        l.ints = own.ints.data();
      }
      l.is_const = false;
      l.nulls = flags;
    }
  };
  const auto compare = [&](Lane lane, auto f) {
    --sp;
    VSlot& l = stack[sp - 1];
    const VSlot& r = stack[sp];
    const auto truth = [f](auto a, auto b) -> int64_t {
      return f(a, b) ? kTrue : kFalse;
    };
    if (l.const_null || r.const_null) {
      l = VSlot{};
      l.ival = kUnknown;
    } else if (l.is_const && r.is_const) {
      l.ival = lane == Lane::kDouble ? truth(l.dval, r.dval)
                                     : truth(l.ival, r.ival);
    } else {
      int64_t* o = scratch[sp - 1].ints.data();
      if (lane == Lane::kDouble) {
        Apply<double>(l, r, n, o, truth);
      } else {
        Apply<int64_t>(l, r, n, o, truth);
      }
      // A NULL operand makes the comparison UNKNOWN.
      for (const uint8_t* nulls : {l.nulls, r.nulls}) {
        if (nulls == nullptr) continue;
        for (size_t i = 0; i < n; ++i) {
          if (nulls[i] != 0) o[i] = kUnknown;
        }
      }
      l = VSlot{};
      l.is_const = false;
      l.ints = o;
    }
  };
  const auto logic = [&](auto f) {
    --sp;
    VSlot& l = stack[sp - 1];
    const VSlot& r = stack[sp];
    if (l.is_const && r.is_const) {
      l.ival = f(l.ival, r.ival);
    } else {
      int64_t* o = scratch[sp - 1].ints.data();
      Apply<int64_t>(l, r, n, o, f);
      l.is_const = false;
      l.ints = o;
    }
  };
  const auto min = [](int64_t a, int64_t b) { return std::min(a, b); };
  const auto max = [](int64_t a, int64_t b) { return std::max(a, b); };

  for (size_t base = begin_row; base < end_row; base += kBlockRows) {
    n = std::min(kBlockRows, end_row - base);
    for (size_t k = 0; k < columns.size(); ++k) load(k, base, n, &columns[k]);
    sp = 0;
    for (const VOp& op : ops_) {
      switch (op.code) {
        case Code::kLoad: {
          const ColumnCells& cells = columns[op.col];
          VSlot& s = stack[sp++];
          s = VSlot{};
          s.is_const = false;
          s.ints = cells.ints;
          s.doubles = cells.doubles;
          s.nulls = cells.nulls;
          break;
        }
        case Code::kConst: {
          VSlot& s = stack[sp++];
          s = VSlot{};
          s.const_null = op.null;
          s.ival = op.ival;
          s.dval = op.dval;
          break;
        }
        case Code::kToDouble: {
          VSlot& s = stack[sp - 1];
          if (s.is_const) {
            s.dval = static_cast<double>(s.ival);
          } else {
            double* o = scratch[sp - 1].doubles.data();
            for (size_t i = 0; i < n; ++i) o[i] = static_cast<double>(s.ints[i]);
            s.doubles = o;
          }
          break;
        }
        case Code::kToTruth: {
          VSlot& s = stack[sp - 1];
          if (s.is_const) {
            s.ival = s.const_null ? kUnknown : (s.ival != 0 ? kTrue : kFalse);
            s.const_null = false;
          } else {
            int64_t* o = scratch[sp - 1].ints.data();
            for (size_t i = 0; i < n; ++i) o[i] = s.ints[i] != 0 ? kTrue : kFalse;
            if (s.nulls != nullptr) {
              for (size_t i = 0; i < n; ++i) {
                if (s.nulls[i] != 0) o[i] = kUnknown;
              }
            }
            s.ints = o;
            s.nulls = nullptr;
          }
          break;
        }
        case Code::kArith:
          switch (op.arith) {
            case ArithOp::kAdd:
              arith(op.lane, [](auto a, auto b) { return a + b; });
              break;
            case ArithOp::kSub:
              arith(op.lane, [](auto a, auto b) { return a - b; });
              break;
            case ArithOp::kMul:
              arith(op.lane, [](auto a, auto b) { return a * b; });
              break;
            case ArithOp::kDiv:
              divide(op.lane);
              break;
          }
          break;
        case Code::kCompare:
          // Spelled through < and > only, so a NaN compares the way
          // ir/evaluator's three-way comparison does; on int64 these
          // compile to the plain operators.
          switch (op.compare) {
            case CompareOp::kLt:
              compare(op.lane, [](auto a, auto b) { return a < b; });
              break;
            case CompareOp::kLe:
              compare(op.lane, [](auto a, auto b) { return !(a > b); });
              break;
            case CompareOp::kGt:
              compare(op.lane, [](auto a, auto b) { return a > b; });
              break;
            case CompareOp::kGe:
              compare(op.lane, [](auto a, auto b) { return !(a < b); });
              break;
            case CompareOp::kEq:
              compare(op.lane,
                      [](auto a, auto b) { return !(a < b) && !(a > b); });
              break;
            case CompareOp::kNe:
              compare(op.lane, [](auto a, auto b) { return a < b || a > b; });
              break;
          }
          break;
        case Code::kAnd:
          logic(min);
          break;
        case Code::kOr:
          logic(max);
          break;
        case Code::kNot: {
          VSlot& s = stack[sp - 1];
          if (s.is_const) {
            s.ival = kTrue - s.ival;
          } else {
            int64_t* o = scratch[sp - 1].ints.data();
            for (size_t i = 0; i < n; ++i) o[i] = kTrue - s.ints[i];
            s.ints = o;
          }
          break;
        }
      }
    }
    // Keep the rows whose predicate is TRUE.
    const VSlot& result = stack[0];
    if (result.is_const) {
      if (result.ival == kTrue) {
        for (size_t i = 0; i < n; ++i) {
          out->push_back(static_cast<uint32_t>(base + i));
        }
      }
      continue;
    }
    for (size_t i = 0; i < n; ++i) {
      if (result.ints[i] == kTrue) out->push_back(static_cast<uint32_t>(base + i));
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
  bool masks = false;
  for (size_t k = 0; k < loaded_cols_.size(); ++k) {
    const ColumnData& column = table.column(loaded_cols_[k]);
    if ((column.type() == DataType::kDouble) !=
        (loaded_lanes_[k] == Lane::kDouble)) {
      return Status::Internal("column storage does not match the predicate");
    }
    masks |= column.has_nulls();
  }
  // Zero-copy: a base column is already a contiguous array.
  return FilterBlocks(
      begin_row, std::min(end_row, table.row_count()), masks,
      [&](size_t k, size_t base, size_t, ColumnCells* cells) {
        const ColumnData& column = table.column(loaded_cols_[k]);
        if (loaded_lanes_[k] == Lane::kDouble) {
          cells->doubles = column.doubles().data() + base;
        } else {
          cells->ints = column.ints().data() + base;
        }
        cells->nulls =
            column.has_nulls() ? column.nulls().data() + base : nullptr;
      },
      out);
}

Status VectorizedFilter::FilterRange(const Relation& rel, size_t begin_row,
                                     size_t end_row,
                                     std::vector<uint32_t>* out) const {
  // Resolve each loaded column once, then gather it once per block
  // through its row-index vector into its own buffers.
  bool masks = false;
  std::vector<RelationColumn> sources;
  for (size_t k = 0; k < loaded_cols_.size(); ++k) {
    sources.push_back(rel.Column(loaded_cols_[k]));
    const ColumnData& column = *sources.back().data;
    if ((column.type() == DataType::kDouble) !=
        (loaded_lanes_[k] == Lane::kDouble)) {
      return Status::Internal("column storage does not match the predicate");
    }
    masks |= column.has_nulls();
  }
  struct Gathered {
    std::vector<int64_t> ints;
    std::vector<double> doubles;
    std::vector<uint8_t> nulls;
  };
  std::vector<Gathered> gathered(sources.size());
  for (size_t k = 0; k < sources.size(); ++k) {
    if (loaded_lanes_[k] == Lane::kDouble) {
      gathered[k].doubles.resize(kBlockRows);
    } else {
      gathered[k].ints.resize(kBlockRows);
    }
    if (sources[k].data->has_nulls()) gathered[k].nulls.resize(kBlockRows);
  }
  return FilterBlocks(
      begin_row, std::min(end_row, rel.row_count()), masks,
      [&](size_t k, size_t base, size_t n, ColumnCells* cells) {
        const ColumnData& column = *sources[k].data;
        const RowIndex* at = sources[k].rows + base;
        Gathered& g = gathered[k];
        if (loaded_lanes_[k] == Lane::kDouble) {
          const double* src = column.doubles().data();
          for (size_t i = 0; i < n; ++i) g.doubles[i] = src[at[i]];
          cells->doubles = g.doubles.data();
        } else {
          const int64_t* src = column.ints().data();
          for (size_t i = 0; i < n; ++i) g.ints[i] = src[at[i]];
          cells->ints = g.ints.data();
        }
        if (column.has_nulls()) {
          const uint8_t* src = column.nulls().data();
          for (size_t i = 0; i < n; ++i) g.nulls[i] = src[at[i]];
          cells->nulls = g.nulls.data();
        }
      },
      out);
}

}  // namespace sia
