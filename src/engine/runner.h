#ifndef SIA_ENGINE_RUNNER_H_
#define SIA_ENGINE_RUNNER_H_

#include <string>

#include "catalog/catalog.h"
#include "common/status.h"
#include "engine/executor.h"
#include "parser/ast.h"
#include "rewrite/planner.h"

namespace sia {

// Plans and executes a parsed query in one call — the "psql" of this
// engine. Planner options control whether single-table conjuncts are
// pushed below the join (the optimization Sia's rewrites unlock).
[[nodiscard]] Result<QueryOutput> RunQuery(const ParsedQuery& query, const Catalog& catalog,
                             Executor& executor,
                             const PlannerOptions& planner_options = {});

// Parses, plans and executes a SQL string.
[[nodiscard]] Result<QueryOutput> RunSql(const std::string& sql, const Catalog& catalog,
                           Executor& executor,
                           const PlannerOptions& planner_options = {});

// Outcome of a paranoid (cross-checked) execution of a rewritten query.
struct ParanoidReport {
  // The result handed to the caller — the rewritten plan's when the
  // cross-check passed, the original's otherwise.
  QueryOutput output;
  bool rewrite_used = false;      // rewritten result passed and was kept
  bool rewritten_failed = false;  // rewritten execution returned an error
  bool mismatch = false;          // rewritten result disagreed
  std::string note;               // why the rewrite was discarded, if so
  // Per-side wall-clock times, for promotion evidence (a rewrite must
  // win on measured runtime, not just match digests). rewritten_ms is 0
  // when the rewritten side failed before producing an output.
  double original_ms = 0.0;
  double rewritten_ms = 0.0;
  // The original plan's result, always populated — callers that shadow a
  // quarantined rewrite serve this one regardless of the cross-check.
  QueryOutput original_output;
};

// Paranoid mode: executes BOTH the original and the rewritten query and
// cross-checks row count and (order-insensitive) content hash. On any
// disagreement — a wrong learned predicate that slipped past
// verification — or on a rewritten-side failure, the learned predicate
// is discarded and the original's result returned, so a broken rewrite
// can cost time but never correctness. Only an original-side failure
// surfaces as an error.
[[nodiscard]] Result<ParanoidReport> RunRewriteParanoid(
    const ParsedQuery& original, const ParsedQuery& rewritten,
    const Catalog& catalog, Executor& executor,
    const PlannerOptions& planner_options = {});

}  // namespace sia

#endif  // SIA_ENGINE_RUNNER_H_
