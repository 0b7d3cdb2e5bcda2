#ifndef SIA_ENGINE_VECTOR_FILTER_H_
#define SIA_ENGINE_VECTOR_FILTER_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "engine/column_table.h"
#include "engine/relation.h"
#include "ir/expr.h"

namespace sia {

// Block-at-a-time (vectorized) predicate evaluation: the engine's scan,
// filter and join-residual predicates all run here first. The postfix
// program of CompiledExpr is interpreted one op per 2048-row block rather
// than one op per row, so opcode dispatch, stack bookkeeping and column
// resolution are paid once per op per block; the per-row work is a
// tight arithmetic or comparison loop over a block buffer. That is all a
// block buys: the kernels stay scalar. Built RelWithDebInfo (-O2) with
// GCC 12, -fopt-info-vec-optimized reports no vectorized loop in
// vector_filter.cc.
//
// Columns come from one of two sources. A base table is read in place,
// zero-copy. A Relation (a join intermediate) has each column the program
// loads gathered once per block through its row-index vector into a
// block buffer; the same opcode loop then runs over the buffers.
//
// Scope: integral columns only (INTEGER/DATE/TIMESTAMP/BOOLEAN) and
// NULL-free loaded columns take the block kernels; DOUBLE programs,
// division and NULL-bearing columns return Unsupported and the caller
// falls back to CompiledExpr. The semantics on the supported domain are
// identical to CompiledExpr, which a property test asserts.
class VectorizedFilter {
 public:
  // Compiles a bound predicate. Returns Unsupported for programs that
  // touch DOUBLE columns/literals, NULL literals or division (caller
  // should fall back).
  [[nodiscard]] static Result<VectorizedFilter> Compile(const ExprPtr& expr);

  // Appends to `out` the indices of all rows of `table` on which the
  // predicate evaluates to TRUE. Columns containing NULLs make this
  // return Unsupported (fall back).
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
  // indices are relation row positions. Unsupported when any column the
  // program loads has NULLs in its base table.
  [[nodiscard]] Status FilterRange(const Relation& rel, size_t begin_row, size_t end_row,
                     std::vector<uint32_t>* out) const;

 private:
  struct VOp {
    uint8_t code;      // mirrors CompiledExpr::OpCode numeric values
    uint32_t col = 0;  // kLoadInt: index into loaded_cols_
    int64_t ival = 0;
  };

  VectorizedFilter() = default;

  // The one block interpreter behind both sources. `load(k, base, n)`
  // returns n values of column loaded_cols_[k] starting at source row
  // `base`, valid until the next call with the same k.
  template <typename Loader>
  [[nodiscard]] Status FilterBlocks(size_t begin_row, size_t end_row, Loader&& load,
                                    std::vector<uint32_t>* out) const;

  std::vector<VOp> ops_;
  // Distinct columns the program loads, in first-use order; each is
  // fetched once per block however many ops read it.
  std::vector<uint32_t> loaded_cols_;
  size_t max_stack_ = 0;
};

}  // namespace sia

#endif  // SIA_ENGINE_VECTOR_FILTER_H_
