#ifndef SIA_REWRITE_SIA_REWRITER_H_
#define SIA_REWRITE_SIA_REWRITER_H_

#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "parser/ast.h"
#include "rewrite/rewrite_cache.h"
#include "synth/synthesizer.h"

namespace sia {

// End-to-end query rewriting with learned predicates (the full Sia
// pipeline of Fig. 5): parse -> bind -> synthesize a valid reduction of
// the WHERE predicate onto one table's columns -> conjoin it back.
struct RewriteOptions {
  // The table whose columns the synthesized predicate may use (the
  // pushdown target, e.g. "lineitem").
  std::string target_table;
  // Optional explicit Cols' (qualified or bare column names). When empty,
  // every `target_table` column referenced by the WHERE clause is used.
  std::vector<std::string> target_columns;
  // Synthesis configuration. Its `budget` is the rewrite's only time
  // budget, shared by every rung of the degradation ladder.
  SynthesisOptions synthesis;
};

struct RewriteOutcome {
  // The rewritten query: original WHERE ∧ learned predicate. Equals the
  // input query when synthesis produced nothing.
  ParsedQuery rewritten;
  // Synthesis record (status, stats, learned conjuncts) of the rung that
  // produced the outcome.
  SynthesisResult synthesis;
  // The learned predicate bound against the query's joint schema; null
  // when synthesis produced nothing.
  ExprPtr learned;
  // The ladder rung that produced this outcome. kOriginal both for
  // "nothing to learn" (no degradation notes) and for "every rung
  // failed" (notes say why).
  RewriteRung rung = RewriteRung::kOriginal;
  // One human-readable note per abandoned rung, in ladder order. Empty
  // when the first attempt succeeded or there was nothing to synthesize.
  std::vector<std::string> degradation;

  bool changed() const { return learned != nullptr; }
};

// The cache coordinates of one query: the WHERE clause bound against the
// joint FROM schema plus the derived target-column set Cols'. This is
// everything the serving path needs to consult the RewriteCache (and
// everything a background job needs to synthesize for the key) without
// running any synthesis itself.
struct RewriteKey {
  ExprPtr bound;             // bound WHERE clause; null when !synthesizable
  std::vector<size_t> cols;  // Cols' (column indices into `joint`)
  Schema joint;
  // False when there is nothing to synthesize for this query (no WHERE,
  // no target-table columns in it, or the predicate already only uses
  // Cols'). `bound`/`cols` are meaningless then; serve the original.
  bool synthesizable = false;
};

// Computes the rewrite-cache key for `query` without synthesizing.
// Errors mirror RewriteQuery's input validation (missing target table,
// unbound columns, unknown explicit target columns).
[[nodiscard]] Result<RewriteKey> MakeRewriteKey(const ParsedQuery& query,
                                                const Catalog& catalog,
                                                const RewriteOptions& options);

// One full run of the degradation ladder for an already-computed key.
struct LadderRun {
  SynthesisResult synthesis;  // record of the rung that produced the run
  ExprPtr learned;            // null when nothing was learned
  RewriteRung rung = RewriteRung::kOriginal;
  std::vector<std::string> degradation;
};

// Runs the degradation ladder for one key, honoring
// options.synthesis.budget — the background synthesizer's entry point,
// also the core of RewriteQuery. The ladder never fails a query for
// synthesis trouble: one CEGIS run (RewriteRung::kFull); if it errors,
// gives up or yields a predicate that fails validation, exact
// single-column interval synthesis (kInterval); failing that, the
// original query (kOriginal). A legitimate kNone from CEGIS stops the
// ladder at kOriginal with no degradation note. Non-degradable errors
// (malformed input) still surface.
[[nodiscard]] Result<LadderRun> RunSynthesisLadder(
    const ExprPtr& bound, const Schema& joint,
    const std::vector<size_t>& cols, const RewriteOptions& options);

// Rewrites `query` (which must reference `options.target_table` in FROM):
// MakeRewriteKey, then RunSynthesisLadder, then the learned predicate
// conjoined onto the WHERE clause. Every call runs the ladder; no cache
// is consulted (the serving path reaches the RewriteCache through
// RewriteCache::Decide). Returns the outcome even when no predicate
// could be learned (status kNone, rewritten == query); errors indicate
// malformed input.
[[nodiscard]] Result<RewriteOutcome> RewriteQuery(const ParsedQuery& query,
                                    const Catalog& catalog,
                                    const RewriteOptions& options);

// Convenience overload: parses `sql` first.
[[nodiscard]] Result<RewriteOutcome> RewriteQuery(const std::string& sql,
                                    const Catalog& catalog,
                                    const RewriteOptions& options);

}  // namespace sia

#endif  // SIA_REWRITE_SIA_REWRITER_H_
