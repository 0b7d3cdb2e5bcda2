#ifndef SIA_SYNTH_SAMPLE_GENERATOR_H_
#define SIA_SYNTH_SAMPLE_GENERATOR_H_

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include <z3++.h>

#include "common/status.h"
#include "ir/expr.h"
#include "smt/encoder.h"
#include "smt/smt_context.h"
#include "types/schema.h"
#include "types/tuple.h"

namespace sia {

// Sampling heuristics (paper §5.3). The time budget is not here: every
// check draws from the budget of the SmtContext the generator borrows.
struct SampleGenOptions {
  uint32_t random_seed = 7;
  // Domain box padding applied around the constants found in the
  // predicate (paper §5.3 "additional heuristics"): samples are first
  // sought inside [min_const - pad, max_const + pad]; the box is dropped
  // if it makes the query UNSAT.
  int64_t domain_pad = 200;
  bool prefer_nonzero = true;  // the paper's "values != 0" heuristic
};

// Generates satisfaction tuples (TRUE samples), unsatisfaction tuples
// (FALSE samples), and the two kinds of counter-examples for one
// (predicate, Cols') pair. It borrows the synthesis run's SmtContext, so
// its checks share one Z3 context (and one budget) with the run's
// verifier calls.
//
// The iterative learning loop is incremental. The generator keeps one
// long-lived solver per sampling role, built on the role's first use:
//   - TRUE role (GenerateTrue, CounterTrue): p asserted once;
//   - FALSE role (GenerateFalse, CounterFalse): the ∀-core asserted once.
// Scopes on a role's solver:
//   - base: the role's formula and, for every sample the role ever
//     produced, its NotOld exclusion ¬(Cols' = t), asserted once when the
//     sample is found (§5.3);
//   - per Counter* call: ¬p₁ (TRUE) or p₁ (FALSE), asserted behind a fresh
//     guard literal that the call's checks assume and that is retired
//     (asserted false) when the call returns, so exclusions found during
//     the call land at base and outlive it;
//   - per check: the domain-hint layers, in a push/pop scope.
// Every return path, errors included, leaves the solver at base scope
// with no guard live.
//
// All methods return at most `count` samples; fewer (possibly zero) when
// the space is exhausted or the solver times out. No sample is ever
// returned twice by one generator, counter-examples included.
class SampleGenerator {
 public:
  // `predicate` must be bound against `schema`. `cols` is Cols' — the
  // target column subset, given as schema indices (sorted). `ctx` is
  // borrowed and must outlive the generator.
  SampleGenerator(SmtContext* ctx, const ExprPtr& predicate,
                  const Schema& schema, std::vector<size_t> cols,
                  const SampleGenOptions& options = SampleGenOptions());

  // TRUE samples: models of  p ∧ NotOld  projected onto Cols'.
  [[nodiscard]] Result<std::vector<Tuple>> GenerateTrue(size_t count);

  // FALSE samples: models of  ∃ Cols'. NotOld ∧ (∀ other. ¬p).
  [[nodiscard]] Result<std::vector<Tuple>> GenerateFalse(size_t count);

  // TRUE counter-examples: satisfy p, rejected by `learned` (p ∧ ¬p₁ ∧
  // NotOld). `learned` must use only Cols'.
  [[nodiscard]] Result<std::vector<Tuple>> CounterTrue(const ExprPtr& learned,
                                         size_t count);

  // FALSE counter-examples: unsatisfaction tuples accepted by `learned`
  // (∃ Cols'. p₁ ∧ NotOld ∧ ∀ other. ¬p).
  [[nodiscard]] Result<std::vector<Tuple>> CounterFalse(const ExprPtr& learned,
                                          size_t count);

  // True when the most recent Generate*/Counter* call stopped because the
  // sample space was exhausted (solver returned UNSAT), as opposed to
  // reaching `count` or timing out. CounterFalse exhaustion is the
  // paper's optimality certificate (Lemma 4).
  bool exhausted() const { return exhausted_; }

  // True when the most recent Generate*/Counter* call was cut short by
  // the end-to-end deadline (as opposed to a per-call solver timeout,
  // which shows up as a plain short return). Counterpart of exhausted().
  bool deadline_expired() const { return deadline_expired_; }

  const std::vector<size_t>& cols() const { return cols_; }

 private:
  // Builds  ∀ other. ¬p  (or just ¬p when every column of p is in Cols').
  [[nodiscard]] Result<z3::expr> BuildUnsatCore();

  // The role solvers, each built with its base formula on first use.
  [[nodiscard]] Result<z3::solver*> TrueSolver();
  [[nodiscard]] Result<z3::solver*> FalseSolver();

  // Samples from `solver`, with `extra` (¬p₁ / p₁; nullptr for none) in
  // force for this call only. `stage` names the pipeline stage for
  // deadline/fault reporting.
  [[nodiscard]] Result<std::vector<Tuple>> Sample(z3::solver* solver,
                                                  const z3::expr* extra,
                                                  size_t count,
                                                  std::string_view stage);

  // The sampling loop: repeatedly check the solver (under `assumptions`,
  // with hints), extract a Cols' tuple and exclude it at base scope.
  [[nodiscard]] Result<std::vector<Tuple>> SampleLoop(
      z3::solver* solver, const z3::expr_vector& assumptions, size_t count,
      std::string_view stage);

  // Optional domain-box / non-zero hint constraints, by strength layer.
  std::vector<z3::expr> HintLayers();

  ExprPtr predicate_;
  const Schema& schema_;
  std::vector<size_t> cols_;
  SampleGenOptions options_;

  SmtContext* ctx_;
  Encoder encoder_;
  // Sampling parameters (seed, randomized simplex start) for every check.
  z3::params params_;

  std::optional<z3::solver> true_solver_;
  std::optional<z3::solver> false_solver_;
  size_t guards_ = 0;  // Counter* guard literals created so far
  bool exhausted_ = false;
  bool deadline_expired_ = false;

  // Cached constant range scanned from the predicate.
  int64_t const_lo_ = 0;
  int64_t const_hi_ = 0;
  bool has_consts_ = false;
};

}  // namespace sia

#endif  // SIA_SYNTH_SAMPLE_GENERATOR_H_
