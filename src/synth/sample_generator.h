#ifndef SIA_SYNTH_SAMPLE_GENERATOR_H_
#define SIA_SYNTH_SAMPLE_GENERATOR_H_

#include <cstdint>
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
// verifier calls, and the iterative learning loop is incremental.
//
// All methods return at most `count` samples; fewer (possibly zero) when
// the space is exhausted or the solver times out. Duplicates are excluded
// via accumulated NotOld constraints exactly as in §5.3: every sample
// ever produced by this generator (including those fed back as counter-
// examples) is excluded from future models.
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

  // Shared sampling loop: repeatedly check `base ∧ NotOld (∧ hints)`,
  // extract Cols' tuples, and extend NotOld. `stage` names the pipeline
  // stage for deadline/fault reporting.
  [[nodiscard]] Result<std::vector<Tuple>> Sample(const z3::expr& base, size_t count,
                                    std::vector<Tuple>* seen,
                                    std::string_view stage);

  // The conjunction of not-equal-to-previous-sample constraints for the
  // given history.
  [[nodiscard]] Result<z3::expr> NotOld(const std::vector<Tuple>& seen);

  // Optional domain-box / non-zero hint constraints, by strength layer.
  std::vector<z3::expr> HintLayers();

  ExprPtr predicate_;
  const Schema& schema_;
  std::vector<size_t> cols_;
  SampleGenOptions options_;

  SmtContext* ctx_;
  Encoder encoder_;

  std::vector<Tuple> seen_true_;
  std::vector<Tuple> seen_false_;
  bool exhausted_ = false;
  bool deadline_expired_ = false;

  // Cached constant range scanned from the predicate.
  int64_t const_lo_ = 0;
  int64_t const_hi_ = 0;
  bool has_consts_ = false;
};

}  // namespace sia

#endif  // SIA_SYNTH_SAMPLE_GENERATOR_H_
