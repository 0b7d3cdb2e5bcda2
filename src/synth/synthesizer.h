#ifndef SIA_SYNTH_SYNTHESIZER_H_
#define SIA_SYNTH_SYNTHESIZER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "ir/expr.h"
#include "learn/learner.h"
#include "synth/sample_generator.h"
#include "types/schema.h"

namespace sia {

// Configuration for one Synthesize run. Defaults match the paper's SIA
// configuration (§6.3 Table 1: 41 iterations, 10+10 initial samples, 5
// new samples per iteration). SIA_v1 / SIA_v2 are the non-iterative
// baselines.
struct SynthesisOptions {
  int max_iterations = 41;
  size_t initial_true_samples = 10;
  size_t initial_false_samples = 10;
  size_t samples_per_iteration = 5;
  SampleGenOptions samples;
  LearnOptions learn;
  // The run's only time budget: a wall-clock deadline (infinite by
  // default) plus a per-solver-call cap. The run's SmtContext holds it,
  // so every sampler and verifier call draws from the same clock.
  SolverBudget budget;

  // Paper baselines (Table 1).
  static SynthesisOptions Sia() { return SynthesisOptions(); }
  static SynthesisOptions SiaV1() {
    SynthesisOptions o;
    o.max_iterations = 1;
    o.initial_true_samples = 110;
    o.initial_false_samples = 110;
    return o;
  }
  static SynthesisOptions SiaV2() {
    SynthesisOptions o;
    o.max_iterations = 1;
    o.initial_true_samples = 220;
    o.initial_false_samples = 220;
    return o;
  }
};

// How a synthesis run ended.
enum class SynthesisStatus {
  kOptimal,  // valid and proved optimal (CounterF exhausted, Lemma 4)
  kValid,    // valid but optimality not established (budget / timeout)
  kNone,     // no non-trivial valid predicate synthesized
};

const char* SynthesisStatusName(SynthesisStatus s);

// Timing and volume statistics for one run, matching the paper's Table 3
// breakdown and the Fig. 7 / Fig. 8 distributions.
struct SynthesisStats {
  double generation_ms = 0;  // initial samples + counter-examples
  double learning_ms = 0;    // SVM training
  double validation_ms = 0;  // Verify calls
  int iterations = 0;
  size_t true_samples = 0;   // at the final iteration
  size_t false_samples = 0;
  // Check/CheckOptimize calls on the run's SmtContext: samples,
  // counter-examples and verification alike.
  size_t solver_calls = 0;
};

struct SynthesisResult {
  SynthesisStatus status = SynthesisStatus::kNone;
  // The synthesized predicate over Cols' (bound against the input
  // schema); null when status == kNone. Dates are rendered back to DATE
  // literals where the predicate shape allows.
  ExprPtr predicate;
  // The conjunction structure: each element is one valid learned
  // disjunction-of-halfplanes that was conjoined into `predicate`.
  std::vector<LearnedPredicate> conjuncts;
  SynthesisStats stats;
  // True when the run was cut short by the end-to-end deadline; anything
  // already proved valid is still returned. `timeout_stage` names the
  // pipeline stage that hit the wall (e.g. "synth.sample").
  bool deadline_expired = false;
  std::string timeout_stage;
  // True when the run ended early because a solver gave up (timeout /
  // unknown / no progress) rather than because the result is complete.
  // Distinguishes a retryable kNone from a legitimate "not symbolically
  // relevant" kNone.
  bool solver_gave_up = false;

  bool has_predicate() const { return predicate != nullptr; }
  // Schema indices of the columns actually used (non-zero coefficients).
  std::vector<size_t> UsedColumns() const;
};

// The paper's Synthesize procedure (Alg. 1): counter-example guided
// learning of a valid, optimal dimensionality reduction of `predicate`
// to `cols` (schema indices, a subset of the predicate's columns).
//
// `predicate` must be bound against `schema`; NULL-able columns are
// handled in Verify via the three-valued encoding.
[[nodiscard]] Result<SynthesisResult> Synthesize(const ExprPtr& predicate,
                                   const Schema& schema,
                                   const std::vector<size_t>& cols,
                                   const SynthesisOptions& options =
                                       SynthesisOptions::Sia());

// Renders a synthesized predicate with DATE literals where possible:
// single-date-column halfplanes like `l_shipdate - 8571 > 0` become
// `l_shipdate > DATE '1993-06-20'`. Other shapes are returned unchanged.
ExprPtr PrettifyDates(const ExprPtr& expr, const Schema& schema);

}  // namespace sia

#endif  // SIA_SYNTH_SYNTHESIZER_H_
