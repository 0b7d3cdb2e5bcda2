#ifndef SIA_SMT_SMT_CONTEXT_H_
#define SIA_SMT_SMT_CONTEXT_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>

#include <z3++.h>

#include "common/deadline.h"
#include "common/status.h"
#include "types/data_type.h"

namespace sia {

// Owns a z3::context, the variable caches and the solver budget of one
// synthesis run: Synthesize builds one and lends it to its sampler and
// verifier calls, SynthesizeInterval one for its OMT queries and
// satisfiability check, so every solver call of a run shares one
// context and draws from one budget. Z3 contexts are not thread-safe,
// and a context's history steers the models it returns, so a context
// belongs to exactly one run — never to a thread or a process, or
// answers would depend on scheduling.
//
// Naming scheme: column i gets value variable "c<i>" (Int sort for
// INTEGER/DATE/TIMESTAMP, Real for DOUBLE) and null-flag "n<i>" (Bool).
// Auxiliary variables for non-linear subexpressions (paper §5.2) are
// keyed by the subexpression's printed form.
class SmtContext {
 public:
  // Every Check/CheckOptimize call draws from `budget`; the default is
  // unbounded with the shared per-call cap.
  SmtContext() = default;
  explicit SmtContext(const SolverBudget& budget) : budget_(budget) {}

  SmtContext(const SmtContext&) = delete;
  SmtContext& operator=(const SmtContext&) = delete;

  z3::context& z3() { return ctx_; }

  // Check/CheckOptimize calls entered so far, including ones refused by
  // the budget or a fault (SynthesisStats::solver_calls).
  size_t check_calls() const { return check_calls_; }

  // Runs `solver->check()` under the remaining budget: fires the
  // `smt.check` fault point, refuses with kTimeout (naming `stage`) when
  // the deadline is already spent, derives this call's solver timeout
  // from min(per-call cap, remaining wall clock), and maps Z3 exceptions
  // to kSolverError. `params` carries caller settings (seeds, tactics)
  // that must survive the per-call timeout update; pass nullptr when
  // there are none. `assumptions`, when given, are literals that hold for
  // this check only (z3::solver::check(assumptions)).
  [[nodiscard]] Result<z3::check_result> Check(
      z3::solver* solver, z3::params* params, std::string_view stage,
      const z3::expr_vector* assumptions = nullptr);

  // Same contract for optimization queries (`smt.optimize` fault point).
  [[nodiscard]] Result<z3::check_result> CheckOptimize(z3::optimize* opt,
                                         std::string_view stage);

  // Value variable for column `index`.
  z3::expr ColumnVar(size_t index, DataType type);

  // Null flag for column `index`.
  z3::expr NullVar(size_t index);

  // Auxiliary variable standing in for a non-linear subexpression.
  z3::expr AuxVar(const std::string& key, bool is_real);

  // Null flag paired with an auxiliary variable.
  z3::expr AuxNullVar(const std::string& key);

  // Number of distinct auxiliary variables created (stats/tests).
  size_t aux_count() const { return aux_.size(); }

 private:
  z3::context ctx_;
  SolverBudget budget_;
  size_t check_calls_ = 0;
  std::map<std::string, std::unique_ptr<z3::expr>> cache_;
  std::map<std::string, std::unique_ptr<z3::expr>> aux_;

  z3::expr Intern(std::map<std::string, std::unique_ptr<z3::expr>>* pool,
                  const std::string& name, bool is_real, bool is_bool);
};

}  // namespace sia

#endif  // SIA_SMT_SMT_CONTEXT_H_
