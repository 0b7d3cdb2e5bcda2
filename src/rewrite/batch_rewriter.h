#ifndef SIA_REWRITE_BATCH_REWRITER_H_
#define SIA_REWRITE_BATCH_REWRITER_H_

#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "parser/ast.h"
#include "rewrite/rewrite_cache.h"
#include "rewrite/sia_rewriter.h"

namespace sia {

class ThreadPool;

// Concurrent driver for rewriting a whole workload (the paper's §6.3
// 200-query batch): queries are distributed over the pool, one
// RewriteQuery per worker at a time. Thread safety rests on two rules
// this driver maintains:
//   - every Z3 context stays private to one synthesis run (Synthesize
//     and the interval fallback each construct one SmtContext and lend
//     it to their sampler and verifier calls — Z3 contexts are not
//     thread-safe and are never shared across workers or runs), and
//   - the single shared mutable structure, the RewriteCache, is
//     single-flight through its kSynthesizing marker: the first worker
//     to miss on a key claims it (RewriteCache::DecideOrWait) and runs
//     the ladder; the others wait for its publish instead of
//     duplicating the CEGIS run.
struct BatchRewriteOptions {
  // Per-query rewrite options. Its `cache` field is overridden with the
  // `cache` below. Note the deadline of synthesis.budget is one absolute
  // instant — under a batch it bounds the whole batch, not each query.
  RewriteOptions rewrite;
  // Optional cache shared by all workers (and with any later callers).
  RewriteCache* cache = nullptr;
  // Pool to run on; nullptr = the process-wide ThreadPool::Shared().
  ThreadPool* pool = nullptr;
};

// Rewrites every query, returning outcomes in input order regardless of
// completion order. With synthesis itself deterministic (fixed seeds, no
// solver-budget expiry), the result is identical at every thread count;
// the first failing query's error aborts the batch. Queries rewritten on
// a worker get full stats; queries served by the shared cache come back
// with `from_cache` set.
[[nodiscard]] Result<std::vector<RewriteOutcome>> RewriteBatch(
    const std::vector<ParsedQuery>& queries, const Catalog& catalog,
    const BatchRewriteOptions& options);

}  // namespace sia

#endif  // SIA_REWRITE_BATCH_REWRITER_H_
