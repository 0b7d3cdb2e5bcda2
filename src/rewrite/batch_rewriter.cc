#include "rewrite/batch_rewriter.h"

#include <utility>

#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sia {

Result<std::vector<RewriteOutcome>> RewriteBatch(
    const std::vector<ParsedQuery>& queries, const Catalog& catalog,
    const BatchRewriteOptions& options) {
  SIA_TRACE_SPAN("rewrite.batch");
  SIA_COUNTER_ADD("rewrite.batch.queries", queries.size());
  ThreadPool& pool =
      options.pool != nullptr ? *options.pool : ThreadPool::Shared();

  // Grain 1: synthesis latency varies by orders of magnitude across
  // queries, so each one is its own unit of work. Outcomes land at their
  // input index — completion order never shows in the result.
  std::vector<RewriteOutcome> outcomes(queries.size());
  SIA_RETURN_IF_ERROR(pool.ParallelFor(
      queries.size(), 1, [&](size_t begin, size_t end) -> Status {
        for (size_t i = begin; i < end; ++i) {
          auto outcome = RewriteQuery(queries[i], catalog, options.rewrite);
          if (!outcome.ok()) return outcome.status();
          outcomes[i] = std::move(*outcome);
        }
        return Status::OK();
      }));
  return outcomes;
}

}  // namespace sia
