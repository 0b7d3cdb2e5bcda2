#ifndef SIA_REWRITE_BATCH_REWRITER_H_
#define SIA_REWRITE_BATCH_REWRITER_H_

#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "parser/ast.h"
#include "rewrite/sia_rewriter.h"

namespace sia {

class ThreadPool;

// Concurrent driver for rewriting a whole workload (the paper's §6.3
// 200-query batch): a ParallelFor over RewriteQuery, one query per
// worker at a time. The workers share nothing mutable: every Z3 context
// stays private to one synthesis run (Synthesize and the interval
// fallback each construct one SmtContext and lend it to their sampler
// and verifier calls — Z3 contexts are not thread-safe and are never
// shared across workers or runs), and no rewrite cache is consulted.
struct BatchRewriteOptions {
  // Per-query rewrite options. Note the deadline of synthesis.budget is
  // one absolute instant — under a batch it bounds the whole batch, not
  // each query.
  RewriteOptions rewrite;
  // Pool to run on; nullptr = the process-wide ThreadPool::Shared().
  ThreadPool* pool = nullptr;
};

// Rewrites every query, returning outcomes in input order regardless of
// completion order. With synthesis itself deterministic (fixed seeds, no
// solver-budget expiry), the result is identical at every thread count;
// the first failing query's error aborts the batch.
[[nodiscard]] Result<std::vector<RewriteOutcome>> RewriteBatch(
    const std::vector<ParsedQuery>& queries, const Catalog& catalog,
    const BatchRewriteOptions& options);

}  // namespace sia

#endif  // SIA_REWRITE_BATCH_REWRITER_H_
