#include "engine/runner.h"

#include "obs/metrics.h"
#include "obs/trace.h"
#include "parser/parser.h"

namespace sia {

Result<QueryOutput> RunQuery(const ParsedQuery& query, const Catalog& catalog,
                             Executor& executor,
                             const PlannerOptions& planner_options) {
  SIA_ASSIGN_OR_RETURN(PlanPtr plan,
                       PlanQuery(query, catalog, planner_options));
  return executor.Execute(plan);
}

Result<QueryOutput> RunSql(const std::string& sql, const Catalog& catalog,
                           Executor& executor,
                           const PlannerOptions& planner_options) {
  SIA_ASSIGN_OR_RETURN(ParsedQuery q, ParseQuery(sql));
  return RunQuery(q, catalog, executor, planner_options);
}

Result<ParanoidReport> RunRewriteParanoid(
    const ParsedQuery& original, const ParsedQuery& rewritten,
    const Catalog& catalog, Executor& executor,
    const PlannerOptions& planner_options) {
  SIA_TRACE_SPAN("exec.paranoid");
  SIA_COUNTER_INC("exec.paranoid.runs");
  ParanoidReport report;
  SIA_ASSIGN_OR_RETURN(
      QueryOutput base, RunQuery(original, catalog, executor, planner_options));
  report.original_ms = base.elapsed_ms;
  report.original_output = base;

  auto cross = RunQuery(rewritten, catalog, executor, planner_options);
  if (!cross.ok()) {
    SIA_COUNTER_INC("exec.paranoid.rewrite_failed");
    report.rewritten_failed = true;
    report.note =
        "rewritten query failed: " + cross.status().ToString();
    report.output = std::move(base);
    return report;
  }
  report.rewritten_ms = cross->elapsed_ms;
  if (cross->row_count != base.row_count ||
      cross->content_hash != base.content_hash) {
    SIA_COUNTER_INC("exec.paranoid.mismatch");
    report.mismatch = true;
    report.note = "rewritten result disagrees with original (rows " +
                  std::to_string(cross->row_count) + " vs " +
                  std::to_string(base.row_count) + ")";
    report.output = std::move(base);
    return report;
  }
  report.rewrite_used = true;
  report.output = std::move(*cross);
  return report;
}

}  // namespace sia
