#ifndef SIA_ENGINE_EXECUTOR_H_
#define SIA_ENGINE_EXECUTOR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/column_table.h"
#include "engine/relation.h"
#include "rewrite/plan.h"

namespace sia {

class ThreadPool;

// Per-query execution counters, used by the benchmark harnesses.
struct ExecStats {
  size_t rows_scanned = 0;
  size_t rows_after_scan_filter = 0;
  size_t join_build_rows = 0;
  size_t join_probe_rows = 0;
  size_t join_output_rows = 0;
  size_t output_rows = 0;
};

struct QueryOutput {
  size_t row_count = 0;
  // Order-insensitive content hash over all output columns; two
  // semantically equivalent queries over the same data produce equal
  // hashes (used to validate rewrites end-to-end).
  uint64_t content_hash = 0;
  // Order-SENSITIVE digest of the output rows. Morsel boundaries are a
  // fixed row count (never derived from the thread count), so this is
  // identical at every SIA_THREADS setting — it is how the parallel
  // tests assert byte-identical output, not just multiset equality.
  uint64_t order_hash = 0;
  double elapsed_ms = 0;
  ExecStats stats;
};

// Executes logical plans against registered in-memory tables.
// Supported nodes: Scan (with filter), Filter, inner hash Join (at least
// one equi-conjunct required), Aggregate (COUNT(*) per group), Project.
//
// Scan/filter predicates and the join probe run morsel-parallel on a
// ThreadPool (the process-wide ThreadPool::Shared() unless overridden),
// with per-morsel results concatenated in morsel order — output is
// byte-identical to the single-threaded engine at every thread count.
class Executor {
 public:
  // Tables are borrowed; they must outlive the executor.
  void RegisterTable(const std::string& name, const Table* table);

  // Overrides the pool queries execute on (nullptr = back to Shared()).
  // Borrowed; used by tests to pin exact thread counts.
  void set_thread_pool(ThreadPool* pool) { pool_ = pool; }

  [[nodiscard]] Result<QueryOutput> Execute(const PlanPtr& plan);

 private:
  [[nodiscard]] Result<Relation> ExecuteNode(const PlanPtr& plan, ExecStats* stats);
  [[nodiscard]] Result<Relation> ExecuteScan(const PlanPtr& plan, ExecStats* stats);
  [[nodiscard]] Result<Relation> ExecuteFilter(const PlanPtr& plan, ExecStats* stats);
  [[nodiscard]] Result<Relation> ExecuteJoin(const PlanPtr& plan, ExecStats* stats);

  ThreadPool& pool() const;

  std::map<std::string, const Table*> tables_;
  ThreadPool* pool_ = nullptr;
};

}  // namespace sia

#endif  // SIA_ENGINE_EXECUTOR_H_
