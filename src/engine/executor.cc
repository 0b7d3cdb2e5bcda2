#include "engine/executor.h"

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <type_traits>
#include <utility>

#include "check/plan_validator.h"
#include "common/fault_injection.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "engine/cursors.h"
#include "engine/exec_expr.h"
#include "engine/vector_filter.h"
#include "ir/analysis.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sia {

namespace {

// RowAccessor over a Relation with a movable cursor.
class RelationRow final : public RowAccessor {
 public:
  explicit RelationRow(const Relation& rel) : rel_(rel) {
    const size_t n = rel.column_count();
    col_data_.reserve(n);
    col_part_.reserve(n);
    for (size_t c = 0; c < n; ++c) {
      const auto [part, local] = rel.Resolve(c);
      col_data_.push_back(&rel.parts[part]->column(local));
      col_part_.push_back(part);
    }
  }

  void set_row(size_t out_row) { row_ = out_row; }

  int64_t IntAt(size_t col) const override {
    return col_data_[col]->IntAt(rel_.rows[col_part_[col]][row_]);
  }
  double DoubleAt(size_t col) const override {
    return col_data_[col]->DoubleAt(rel_.rows[col_part_[col]][row_]);
  }
  bool IsNull(size_t col) const override {
    return col_data_[col]->IsNull(rel_.rows[col_part_[col]][row_]);
  }

 private:
  const Relation& rel_;
  std::vector<const ColumnData*> col_data_;
  std::vector<size_t> col_part_;
  size_t row_ = 0;
};

// Rows per morsel for every parallel loop in the executor. A fixed row
// count (multiple of the vectorized filter's 2048-row block, and never a
// function of the thread count) is what makes morsel boundaries — and
// therefore ordered-concatenation output and order_hash — identical at
// every SIA_THREADS setting. 16K rows is ~128KB of key columns: small
// enough to balance across workers, large enough that the per-chunk
// claim (one atomic fetch_add) is noise.
constexpr size_t kMorselRows = 16384;

constexpr size_t MorselCount(size_t rows) {
  return rows == 0 ? 0 : (rows + kMorselRows - 1) / kMorselRows;
}

uint64_t MixHash(uint64_t h, uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  return h;
}

uint64_t HashRow(const RelationRow& row, size_t columns,
                 const std::vector<DataType>& types) {
  uint64_t h = 1469598103934665603ULL;
  for (size_t c = 0; c < columns; ++c) {
    if (row.IsNull(c)) {
      h = MixHash(h, 0xDEADBEEFULL);
      continue;
    }
    uint64_t bits;
    if (types[c] == DataType::kDouble) {
      const double d = row.DoubleAt(c);
      static_assert(sizeof(double) == sizeof(uint64_t));
      __builtin_memcpy(&bits, &d, sizeof(bits));
    } else {
      bits = static_cast<uint64_t>(row.IntAt(c));
    }
    h = MixHash(h, bits);
  }
  return h;
}

std::vector<DataType> ConcatTypes(const Relation& rel) {
  std::vector<DataType> types;
  for (const Table* t : rel.parts) {
    for (const ColumnDef& c : t->schema().columns()) types.push_back(c.type);
  }
  return types;
}

// Per-morsel output sizes -> start offset of each morsel in the
// concatenated result. Returns the total; offsets gets morsels+1 entries.
template <typename Sized>
size_t PrefixOffsets(const std::vector<Sized>& per_morsel,
                     std::vector<size_t>* offsets) {
  offsets->assign(per_morsel.size() + 1, 0);
  for (size_t m = 0; m < per_morsel.size(); ++m) {
    (*offsets)[m + 1] = (*offsets)[m] + per_morsel[m].size();
  }
  return offsets->back();
}

// The one morsel filter behind scan, filter and join residual. Each
// morsel tries the vectorized block kernels first and falls back to the
// row interpreter when they refuse it: a DOUBLE or division program
// (refused for every morsel) or a NULL-bearing loaded column. A fallback
// is never invisible: it bumps exec.scan.vectorized_fallback. The
// interpreter is compiled up front — a morsel must never hit a compile
// error mid-flight — but its compile status only matters if some morsel
// actually falls back. Both programs are const and share no state, so
// one MorselFilter serves every worker.
class MorselFilter {
 public:
  explicit MorselFilter(const ExprPtr& pred)
      : vectorized_(VectorizedFilter::Compile(pred)),
        interpreted_(CompiledExpr::Compile(pred)) {}

  // Appends to `out` (empty on entry) the positions in [begin, end) of
  // `source` — a base Table or a Relation — whose predicate is TRUE.
  template <typename Source>
  Status Run(const Source& source, size_t begin, size_t end,
             std::vector<RowIndex>* out) const {
    if (vectorized_.ok()) {
      if (vectorized_->FilterRange(source, begin, end, out).ok()) {
        return Status::OK();
      }
      out->clear();
      SIA_COUNTER_INC("exec.scan.vectorized_fallback");
    }
    if (!interpreted_.ok()) return interpreted_.status();
    using Cursor = std::conditional_t<std::is_same_v<Source, Table>,
                                      TableCursor, RelationRow>;
    Cursor row(source);
    for (size_t i = begin; i < end; ++i) {
      row.set_row(i);
      if (interpreted_->EvalPredicate(row) == 1) {
        out->push_back(static_cast<RowIndex>(i));
      }
    }
    return Status::OK();
  }

 private:
  Result<VectorizedFilter> vectorized_;
  Result<CompiledExpr> interpreted_;
};

// Filters a relation in place. Morsel-parallel: each morsel collects its
// passing positions into a local vector, then the gather into the new
// row-index vectors writes disjoint presized slots. Output order matches
// the serial loop. Status-returning because a join can legitimately
// produce more than 2^32 intermediate positions, which must refuse to
// narrow.
Status FilterRelation(Relation* rel, const ExprPtr& pred, ThreadPool& pool) {
  const size_t n = rel->row_count();
  SIA_RETURN_IF_ERROR(CheckRowIndexLimit(n, "filter input"));
  const MorselFilter filter(pred);
  std::vector<std::vector<RowIndex>> keep(MorselCount(n));
  SIA_RETURN_IF_ERROR(
      pool.ParallelFor(n, kMorselRows, [&](size_t begin, size_t end) {
        return filter.Run(*rel, begin, end, &keep[begin / kMorselRows]);
      }));
  std::vector<size_t> offsets;
  const size_t total = PrefixOffsets(keep, &offsets);
  std::vector<std::vector<RowIndex>> new_rows(rel->rows.size());
  for (auto& part : new_rows) part.resize(total);
  SIA_RETURN_IF_ERROR(
      pool.ParallelFor(n, kMorselRows, [&](size_t begin, size_t) {
        const size_t m = begin / kMorselRows;
        const std::vector<RowIndex>& local = keep[m];
        for (size_t p = 0; p < rel->rows.size(); ++p) {
          const std::vector<RowIndex>& src = rel->rows[p];
          RowIndex* dst = new_rows[p].data() + offsets[m];
          for (size_t k = 0; k < local.size(); ++k) dst[k] = src[local[k]];
        }
        return Status::OK();
      }));
  rel->rows = std::move(new_rows);
  return Status::OK();
}

// One side's equi-join key columns, each resolved once to its base
// column and row-index vector, so hashing a row is two loads per key
// column and no virtual call.
class JoinKeys {
 public:
  JoinKeys(const Relation& rel, const std::vector<size_t>& cols) {
    for (const size_t col : cols) {
      const auto [part, local] = rel.Resolve(col);
      cols_.push_back({&rel.parts[part]->column(local), rel.rows[part].data()});
    }
  }

  // The key hash of relation row `row`; false when any key is NULL. The
  // NULL flag is out of band, so every 64-bit hash is a real key's.
  bool Hash(size_t row, uint64_t* hash) const {
    uint64_t h = 0x12345678ULL;
    for (const KeyColumn& k : cols_) {
      const RowIndex r = k.rows[row];
      if (k.data->IsNull(r)) return false;
      h = MixHash(h, static_cast<uint64_t>(k.data->IntAt(r)));
    }
    *hash = h;
    return true;
  }

  // Whether row `row` here and row `other_row` of `other` hold equal keys.
  bool Equal(size_t row, const JoinKeys& other, size_t other_row) const {
    for (size_t k = 0; k < cols_.size(); ++k) {
      const KeyColumn& a = cols_[k];
      const KeyColumn& b = other.cols_[k];
      if (a.data->IntAt(a.rows[row]) != b.data->IntAt(b.rows[other_row])) {
        return false;
      }
    }
    return true;
  }

 private:
  struct KeyColumn {
    const ColumnData* data;
    const RowIndex* rows;
  };
  std::vector<KeyColumn> cols_;
};

// Flat chained hash table over the build side: a power-of-two head[] of
// at least twice the build rows, and per build row the next row in its
// chain plus its stored 64-bit key hash. Rows are inserted in ascending
// order at the chain head, so a walk meets equal keys in descending row
// order. That order is part of the join's output contract: it is the
// order a std::unordered_multimap (libstdc++) gave, and the order_hash
// values EngineGoldenTest pins depend on it. Read-only once built, so
// probe workers share it freely.
class JoinTable {
 public:
  static constexpr RowIndex kEnd = UINT32_MAX;  // never a build row

  explicit JoinTable(const JoinKeys& build, size_t rows) : hashes_(rows) {
    size_t buckets = 2;
    while (buckets < 2 * rows) buckets *= 2;
    shift_ = 64 - static_cast<unsigned>(__builtin_ctzll(buckets));
    head_.assign(buckets, kEnd);
    next_.assign(rows, kEnd);
    for (size_t i = 0; i < rows; ++i) {
      if (!build.Hash(i, &hashes_[i])) continue;  // NULL never matches
      RowIndex& head = head_[Bucket(hashes_[i])];
      next_[i] = head;
      head = static_cast<RowIndex>(i);
    }
  }

  // First build row whose bucket `hash` selects; walk with Next().
  RowIndex First(uint64_t hash) const { return head_[Bucket(hash)]; }
  RowIndex Next(RowIndex row) const { return next_[row]; }
  uint64_t HashOf(RowIndex row) const { return hashes_[row]; }

 private:
  // Fibonacci hashing: the bucket is the top bits of hash * 2^64/phi, so
  // key hashes that share their low bits (keys in a stride) still spread
  // over every bucket.
  size_t Bucket(uint64_t hash) const {
    return static_cast<size_t>((hash * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  std::vector<RowIndex> head_;
  std::vector<RowIndex> next_;
  std::vector<uint64_t> hashes_;
  unsigned shift_;
};

}  // namespace

ThreadPool& Executor::pool() const {
  return pool_ != nullptr ? *pool_ : ThreadPool::Shared();
}

void Executor::RegisterTable(const std::string& name, const Table* table) {
  tables_[name] = table;
}

Result<Relation> Executor::ExecuteScan(const PlanPtr& plan,
                                       ExecStats* stats) {
  SIA_TRACE_SPAN("exec.scan");  // per plan node, never per row
  SIA_FAULT_INJECT("engine.scan");
  const auto it = tables_.find(plan->table());
  if (it == tables_.end()) {
    return Status::NotFound("no storage registered for table '" +
                            plan->table() + "'");
  }
  const Table* table = it->second;
  // The storage attached under this name must shape-match the scan's
  // logical schema, or every column access below reads the wrong data.
  if (table->schema().size() != plan->output_schema().size()) {
    return Status::InvalidArgument(
        "storage for table '" + plan->table() + "' has " +
        std::to_string(table->schema().size()) + " columns but the scan " +
        "expects " + std::to_string(plan->output_schema().size()));
  }
  for (size_t i = 0; i < table->schema().size(); ++i) {
    if (table->schema().column(i).type != plan->output_schema().column(i).type) {
      return Status::InvalidArgument(
          "storage for table '" + plan->table() + "' column " +
          std::to_string(i) + " is " +
          DataTypeName(table->schema().column(i).type) + " but the scan " +
          "expects " + DataTypeName(plan->output_schema().column(i).type));
    }
  }
  SIA_RETURN_IF_ERROR(CheckRowIndexLimit(
      table->row_count(), "storage for table '" + plan->table() + "'"));
  Relation rel;
  rel.parts = {table};
  rel.rows.resize(1);
  const size_t n = table->row_count();
  stats->rows_scanned += n;

  if (plan->predicate() == nullptr) {
    rel.rows[0].resize(n);
    std::vector<RowIndex>& out = rel.rows[0];
    SIA_RETURN_IF_ERROR(
        pool().ParallelFor(n, kMorselRows, [&](size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) {
            out[i] = static_cast<RowIndex>(i);
          }
          return Status::OK();
        }));
  } else {
    const MorselFilter filter(plan->predicate());
    std::vector<std::vector<RowIndex>> found(MorselCount(n));
    SIA_RETURN_IF_ERROR(
        pool().ParallelFor(n, kMorselRows, [&](size_t begin, size_t end) {
          return filter.Run(*table, begin, end, &found[begin / kMorselRows]);
        }));
    // Ordered concatenation: morsel boundaries are fixed, so this is
    // byte-identical to the single-threaded scan.
    std::vector<size_t> offsets;
    rel.rows[0].reserve(PrefixOffsets(found, &offsets));
    for (const std::vector<RowIndex>& local : found) {
      rel.rows[0].insert(rel.rows[0].end(), local.begin(), local.end());
    }
  }
  stats->rows_after_scan_filter += rel.row_count();
  return rel;
}

Result<Relation> Executor::ExecuteFilter(const PlanPtr& plan,
                                         ExecStats* stats) {
  SIA_ASSIGN_OR_RETURN(Relation rel, ExecuteNode(plan->child(), stats));
  SIA_TRACE_SPAN("exec.filter");  // opened after the child so spans nest
  SIA_RETURN_IF_ERROR(FilterRelation(&rel, plan->predicate(), pool()));
  return rel;
}

Result<Relation> Executor::ExecuteJoin(const PlanPtr& plan,
                                       ExecStats* stats) {
  SIA_ASSIGN_OR_RETURN(Relation left, ExecuteNode(plan->child(0), stats));
  SIA_ASSIGN_OR_RETURN(Relation right, ExecuteNode(plan->child(1), stats));
  SIA_TRACE_SPAN("exec.join");

  const size_t left_width = plan->child(0)->output_schema().size();

  // Split the join predicate into equi-key column pairs and residual
  // conjuncts. Keys are hashed and compared as int64, so an equality over
  // a DOUBLE column stays a residual.
  const Schema& schema = plan->output_schema();
  std::vector<size_t> left_keys;
  std::vector<size_t> right_keys;  // relative to the right input
  std::vector<ExprPtr> residual;
  if (plan->predicate() != nullptr) {
    for (const ExprPtr& c : SplitConjuncts(plan->predicate())) {
      bool is_key = false;
      if (c->kind() == ExprKind::kCompare &&
          c->compare_op() == CompareOp::kEq &&
          c->left()->kind() == ExprKind::kColumnRef &&
          c->right()->kind() == ExprKind::kColumnRef) {
        size_t a = c->left()->index();
        size_t b = c->right()->index();
        if (b < left_width && a >= left_width) std::swap(a, b);
        if (a < left_width && b >= left_width &&
            schema.column(a).type != DataType::kDouble &&
            schema.column(b).type != DataType::kDouble) {
          left_keys.push_back(a);
          right_keys.push_back(b - left_width);
          is_key = true;
        }
      }
      if (!is_key) residual.push_back(c);
    }
  }

  stats->join_build_rows += right.row_count();
  stats->join_probe_rows += left.row_count();
  SIA_RETURN_IF_ERROR(CheckRowIndexLimit(left.row_count(), "join probe input"));
  SIA_RETURN_IF_ERROR(
      CheckRowIndexLimit(right.row_count(), "join build input"));

  Relation out;
  out.parts = left.parts;
  out.parts.insert(out.parts.end(), right.parts.begin(), right.parts.end());
  out.owned = left.owned;
  out.owned.insert(out.owned.end(), right.owned.begin(), right.owned.end());
  out.rows.resize(out.parts.size());

  const size_t lparts = left.parts.size();

  if (!left_keys.empty()) {
    // Hash join: serial build on the right input, morsel-parallel probe
    // over the left.
    const JoinKeys build_keys(right, right_keys);
    const JoinKeys probe_keys(left, left_keys);
    const JoinTable table(build_keys, right.row_count());
    // Each probe morsel collects (left row, right row) matches locally;
    // within a morsel the order is the serial probe order (left rows
    // ascending, chain order per row), so the ordered concatenation
    // below reproduces the serial join byte for byte.
    const size_t ln = left.row_count();
    std::vector<std::vector<std::pair<RowIndex, RowIndex>>> matches(
        MorselCount(ln));
    SIA_RETURN_IF_ERROR(
        pool().ParallelFor(ln, kMorselRows, [&](size_t begin, size_t end) {
          auto& local = matches[begin / kMorselRows];
          for (size_t i = begin; i < end; ++i) {
            uint64_t h;
            if (!probe_keys.Hash(i, &h)) continue;  // NULL never matches
            for (RowIndex r = table.First(h); r != JoinTable::kEnd;
                 r = table.Next(r)) {
              if (table.HashOf(r) == h && probe_keys.Equal(i, build_keys, r)) {
                local.emplace_back(static_cast<RowIndex>(i), r);
              }
            }
          }
          return Status::OK();
        }));
    std::vector<size_t> offsets;
    const size_t total = PrefixOffsets(matches, &offsets);
    for (auto& part : out.rows) part.resize(total);
    SIA_RETURN_IF_ERROR(
        pool().ParallelFor(ln, kMorselRows, [&](size_t begin, size_t) {
          const size_t m = begin / kMorselRows;
          const auto& local = matches[m];
          for (size_t p = 0; p < lparts; ++p) {
            RowIndex* dst = out.rows[p].data() + offsets[m];
            const std::vector<RowIndex>& src = left.rows[p];
            for (size_t k = 0; k < local.size(); ++k) {
              dst[k] = src[local[k].first];
            }
          }
          for (size_t p = 0; p < right.parts.size(); ++p) {
            RowIndex* dst = out.rows[lparts + p].data() + offsets[m];
            const std::vector<RowIndex>& src = right.rows[p];
            for (size_t k = 0; k < local.size(); ++k) {
              dst[k] = src[local[k].second];
            }
          }
          return Status::OK();
        }));
  } else {
    // Nested-loop fallback (no equi conjunct); rare enough to stay
    // serial.
    for (size_t i = 0; i < left.row_count(); ++i) {
      for (size_t j = 0; j < right.row_count(); ++j) {
        for (size_t p = 0; p < lparts; ++p) {
          out.rows[p].push_back(left.rows[p][i]);
        }
        for (size_t p = 0; p < right.parts.size(); ++p) {
          out.rows[lparts + p].push_back(right.rows[p][j]);
        }
      }
    }
  }

  if (!residual.empty()) {
    SIA_RETURN_IF_ERROR(
        FilterRelation(&out, CombineConjuncts(residual), pool()));
  }
  stats->join_output_rows += out.row_count();
  return out;
}

Result<Relation> Executor::ExecuteNode(const PlanPtr& plan,
                                       ExecStats* stats) {
  switch (plan->kind()) {
    case PlanKind::kScan:
      return ExecuteScan(plan, stats);
    case PlanKind::kFilter:
      return ExecuteFilter(plan, stats);
    case PlanKind::kJoin:
      return ExecuteJoin(plan, stats);
    case PlanKind::kAggregate: {
      SIA_ASSIGN_OR_RETURN(Relation rel, ExecuteNode(plan->child(), stats));
      SIA_TRACE_SPAN("exec.aggregate");
      RelationRow row(rel);
      std::map<std::vector<int64_t>, int64_t> groups;
      std::vector<int64_t> key(plan->columns().size());
      for (size_t i = 0; i < rel.row_count(); ++i) {
        row.set_row(i);
        for (size_t k = 0; k < plan->columns().size(); ++k) {
          const size_t c = plan->columns()[k];
          key[k] = row.IsNull(c) ? INT64_MIN : row.IntAt(c);
        }
        ++groups[key];
      }
      // Materialize the group table; the relation keeps it alive.
      auto out_table = std::make_shared<Table>(plan->output_schema());
      std::vector<int64_t> out_row(plan->output_schema().size());
      for (const auto& [k, count] : groups) {
        for (size_t i = 0; i < k.size(); ++i) out_row[i] = k[i];
        out_row[k.size()] = count;
        out_table->AppendIntRow(out_row);
      }
      SIA_RETURN_IF_ERROR(
          CheckRowIndexLimit(out_table->row_count(), "aggregate output"));
      Relation out;
      out.owned.push_back(out_table);
      out.parts = {out_table.get()};
      out.rows.resize(1);
      out.rows[0].resize(out_table->row_count());
      for (size_t i = 0; i < out_table->row_count(); ++i) {
        out.rows[0][i] = static_cast<RowIndex>(i);
      }
      return out;
    }
    case PlanKind::kProject: {
      SIA_ASSIGN_OR_RETURN(Relation rel, ExecuteNode(plan->child(), stats));
      SIA_TRACE_SPAN("exec.project");
      RelationRow row(rel);
      auto out_table = std::make_shared<Table>(plan->output_schema());
      const auto& cols = plan->columns();
      std::vector<int64_t> out_row(cols.size());
      for (size_t i = 0; i < rel.row_count(); ++i) {
        row.set_row(i);
        for (size_t c = 0; c < cols.size(); ++c) {
          out_row[c] = row.IntAt(cols[c]);
        }
        out_table->AppendIntRow(out_row);
      }
      SIA_RETURN_IF_ERROR(
          CheckRowIndexLimit(out_table->row_count(), "project output"));
      Relation out;
      out.owned.push_back(out_table);
      out.parts = {out_table.get()};
      out.rows.resize(1);
      out.rows[0].resize(out_table->row_count());
      for (size_t i = 0; i < out_table->row_count(); ++i) {
        out.rows[0][i] = static_cast<RowIndex>(i);
      }
      return out;
    }
  }
  return Status::Internal("unreachable plan kind");
}

Result<QueryOutput> Executor::Execute(const PlanPtr& plan) {
  SIA_TRACE_SPAN("exec.query");
  SIA_COUNTER_INC("exec.queries");
  // Last line of defense: never run a structurally invalid plan, however
  // it was produced (planner, movement rules, or hand assembly).
  SIA_RETURN_IF_ERROR(CheckPlan(plan, "plan handed to executor"));
  QueryOutput out;
  Stopwatch sw;
  SIA_ASSIGN_OR_RETURN(Relation rel, ExecuteNode(plan, &out.stats));
  out.row_count = rel.row_count();
  out.stats.output_rows = out.row_count;

  // Output digests, morsel-parallel. content_hash is a wrap-around sum
  // of row hashes — commutative, so summing per-morsel partials equals
  // the serial sum bit for bit. order_hash folds the per-morsel
  // order-sensitive digests in morsel order; morsel boundaries are
  // fixed, so it too is thread-count invariant.
  const std::vector<DataType> types = ConcatTypes(rel);
  const size_t out_rows = rel.row_count();
  std::vector<uint64_t> sum_parts(MorselCount(out_rows), 0);
  std::vector<uint64_t> ord_parts(MorselCount(out_rows), 0);
  SIA_RETURN_IF_ERROR(
      pool().ParallelFor(out_rows, kMorselRows, [&](size_t begin, size_t end) {
        RelationRow row(rel);
        uint64_t sum = 0;
        uint64_t ord = 1469598103934665603ULL;
        for (size_t i = begin; i < end; ++i) {
          row.set_row(i);
          const uint64_t h = HashRow(row, types.size(), types);
          sum += h;
          ord = MixHash(ord, h);
        }
        sum_parts[begin / kMorselRows] = sum;
        ord_parts[begin / kMorselRows] = ord;
        return Status::OK();
      }));
  uint64_t hash = 0;
  uint64_t order = 1469598103934665603ULL;
  for (size_t m = 0; m < sum_parts.size(); ++m) {
    hash += sum_parts[m];
    order = MixHash(order, ord_parts[m]);
  }
  out.content_hash = hash;
  out.order_hash = order;
  out.elapsed_ms = sw.ElapsedMillis();
  // Bridge the per-query ExecStats onto the registry (the struct remains
  // the per-call API; these are the process-wide running totals).
  if (obs::MetricsRegistry::Enabled()) {
    obs::IncrementCounter("exec.rows_scanned", out.stats.rows_scanned);
    obs::IncrementCounter("exec.rows_after_scan_filter",
                          out.stats.rows_after_scan_filter);
    obs::IncrementCounter("exec.join_build_rows", out.stats.join_build_rows);
    obs::IncrementCounter("exec.join_probe_rows", out.stats.join_probe_rows);
    obs::IncrementCounter("exec.join_output_rows", out.stats.join_output_rows);
    obs::IncrementCounter("exec.output_rows", out.stats.output_rows);
    obs::RecordHistogram("exec.query_ms", out.elapsed_ms);
  }
  return out;
}

}  // namespace sia
