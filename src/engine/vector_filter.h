#ifndef SIA_ENGINE_VECTOR_FILTER_H_
#define SIA_ENGINE_VECTOR_FILTER_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "engine/column_table.h"
#include "engine/relation.h"
#include "ir/expr.h"

namespace sia {

// Block-at-a-time (vectorized) predicate evaluation: the engine's one
// predicate evaluator, behind scan, filter and join residual alike. A
// bound predicate compiles to a flat postfix program that is interpreted
// one op per 2048-row block rather than one op per row, so opcode
// dispatch, stack bookkeeping and column resolution are paid once per op
// per block; the per-row work is a tight arithmetic or comparison loop
// over a block buffer. That is all a block buys: the kernels stay scalar.
// Built RelWithDebInfo (-O2) with GCC 12, -fopt-info-vec-optimized
// reports no vectorized loop in vector_filter.cc.
//
// Columns come from one of two sources. A base table is read in place,
// zero-copy. A Relation (a join intermediate) has each column the program
// loads gathered once per block through its row-index vector into a
// block buffer; the same opcode loop then runs over the buffers.
//
// Scope: the whole bound §4.1 grammar under the §5.2 semantics of
// ir/evaluator, which a property test asserts. Every slot is typed at
// compile time: an int64 lane (INTEGER/DATE/TIMESTAMP/BOOLEAN), a double
// lane (int operands of a DOUBLE operation are promoted by a compiled
// op), or a truth lane in Kleene order FALSE=0 < UNKNOWN=1 < TRUE=2, so
// AND is min, OR is max and NOT is 2-x. A value slot carries a NULL mask
// only where a NULL can occur — a loaded column that has_nulls(), or a
// division (x/0 and INT64_MIN/-1 are NULL; integer division truncates
// toward zero). A NULL literal is a constant. A comparison writes UNKNOWN
// wherever an operand is NULL, and a block keeps only TRUE rows, so
// NULL-free programs over NULL-free columns run without any mask work.
class VectorizedFilter {
 public:
  // Compiles a bound predicate. Fails on unbound columns, on expressions
  // the binder would reject (arithmetic or comparison over predicates,
  // logic over scalars), and with Unsupported on programs that need an
  // evaluation stack deeper than 64 slots (right-deep nesting).
  [[nodiscard]] static Result<VectorizedFilter> Compile(const ExprPtr& expr);

  // Appends to `out` the indices of all rows of `table` on which the
  // predicate evaluates to TRUE.
  [[nodiscard]] Status FilterTable(const Table& table, std::vector<uint32_t>* out) const;

  // FilterTable restricted to rows [begin_row, end_row): the morsel-
  // parallel scan runs one FilterRange per morsel into a morsel-local
  // vector. Appended indices are absolute row numbers, so concatenating
  // per-morsel outputs in morsel order reproduces FilterTable exactly.
  // Blocks are aligned to the range start, not to row 0; results do not
  // depend on the split points, only on the predicate.
  [[nodiscard]] Status FilterRange(const Table& table, size_t begin_row, size_t end_row,
                     std::vector<uint32_t>* out) const;

  // FilterRange over rows [begin_row, end_row) of a relation: appended
  // indices are relation row positions.
  [[nodiscard]] Status FilterRange(const Relation& rel, size_t begin_row, size_t end_row,
                     std::vector<uint32_t>* out) const;

 private:
  // The lane a slot is computed in: int64, double, or a Kleene truth
  // value.
  enum class Lane : uint8_t { kInt, kDouble, kTruth };

  // The postfix instruction set.
  enum class Code : uint8_t {
    kLoad,      // push loaded column `col`
    kConst,     // push `ival` / `dval`, or NULL when `null`
    kToDouble,  // promote the top int slot to the double lane
    kToTruth,   // the BOOLEAN value on top becomes a truth value
    kArith,     // `arith` over the top two slots
    kCompare,   // `compare` over the top two slots
    kAnd,
    kOr,
    kNot,
  };

  struct VOp {
    Code code;
    Lane lane;          // the lane the op computes in
    bool null = false;  // kConst: a NULL literal
    uint32_t col = 0;   // kLoad: index into loaded_cols_
    int64_t ival = 0;
    double dval = 0;
    ArithOp arith = ArithOp::kAdd;
    CompareOp compare = CompareOp::kEq;
  };

  // A loaded column's cells for one block; defined in vector_filter.cc.
  struct ColumnCells;

  VectorizedFilter() = default;

  // Emit the postfix program for a predicate, or for a value computed in
  // `lane` (promoting an int value to the double lane when asked).
  [[nodiscard]] Status EmitTruth(const ExprPtr& expr);
  [[nodiscard]] Status EmitValue(const ExprPtr& expr, Lane lane);
  void Push(VOp op);

  // The one block interpreter behind both sources. `load(k, base, n,
  // &cells)` fills n cells of column loaded_cols_[k] starting at source
  // row `base`, valid until the next call with the same k. `masks` says
  // whether any loaded column of this source has NULLs.
  template <typename Loader>
  [[nodiscard]] Status FilterBlocks(size_t begin_row, size_t end_row, bool masks,
                                    Loader&& load,
                                    std::vector<uint32_t>* out) const;

  std::vector<VOp> ops_;
  // Distinct columns the program loads, in first-use order, and the lane
  // each is read in; each is fetched once per block however many ops
  // read it.
  std::vector<uint32_t> loaded_cols_;
  std::vector<Lane> loaded_lanes_;
  size_t depth_ = 0;
  size_t max_stack_ = 0;
  bool has_doubles_ = false;
  bool has_division_ = false;
};

}  // namespace sia

#endif  // SIA_ENGINE_VECTOR_FILTER_H_
