#include "smt/smt_context.h"

#include "common/fault_injection.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sia {

namespace {

// Z3 reports its own timeouts as `unknown`, so the unknown counter doubles
// as the solver-timeout counter (deadline exhaustion before the call is
// counted separately).
void CountCheckResult(z3::check_result result, std::string_view metric_stem) {
  if (!obs::MetricsRegistry::Enabled()) return;
  const char* suffix = result == z3::sat     ? ".sat"
                       : result == z3::unsat ? ".unsat"
                                             : ".unknown";
  obs::IncrementCounter(std::string(metric_stem) + suffix);
}

}  // namespace

Result<z3::check_result> SmtContext::Check(z3::solver* solver,
                                           z3::params* params,
                                           std::string_view stage,
                                           const z3::expr_vector* assumptions) {
  SIA_TRACE_SPAN("smt.check");
  SIA_COUNTER_INC("smt.check.calls");
  ++check_calls_;
  SIA_FAULT_INJECT("smt.check");
  {
    const Status remaining = budget_.RequireRemaining(stage);
    if (!remaining.ok()) {
      SIA_COUNTER_INC("smt.check.deadline_exhausted");
      return remaining;
    }
  }
  Stopwatch timer;
  try {
    z3::params p = params != nullptr ? *params : z3::params(ctx_);
    p.set("timeout", budget_.CallTimeoutMs());
    solver->set(p);
    const z3::check_result result = assumptions != nullptr
                                        ? solver->check(*assumptions)
                                        : solver->check();
    SIA_HISTOGRAM_RECORD("smt.check.latency_us", timer.ElapsedMicros());
    CountCheckResult(result, "smt.check");
    return result;
  } catch (const z3::exception& e) {
    SIA_HISTOGRAM_RECORD("smt.check.latency_us", timer.ElapsedMicros());
    SIA_COUNTER_INC("smt.check.errors");
    return Status::SolverError("Z3 failed in stage '" + std::string(stage) +
                               "': " + e.msg());
  }
}

Result<z3::check_result> SmtContext::CheckOptimize(z3::optimize* opt,
                                                   std::string_view stage) {
  SIA_TRACE_SPAN("smt.optimize");
  SIA_COUNTER_INC("smt.optimize.calls");
  ++check_calls_;
  SIA_FAULT_INJECT("smt.optimize");
  {
    const Status remaining = budget_.RequireRemaining(stage);
    if (!remaining.ok()) {
      SIA_COUNTER_INC("smt.optimize.deadline_exhausted");
      return remaining;
    }
  }
  Stopwatch timer;
  try {
    z3::params p(ctx_);
    p.set("timeout", budget_.CallTimeoutMs());
    opt->set(p);
    const z3::check_result result = opt->check();
    SIA_HISTOGRAM_RECORD("smt.optimize.latency_us", timer.ElapsedMicros());
    CountCheckResult(result, "smt.optimize");
    return result;
  } catch (const z3::exception& e) {
    SIA_HISTOGRAM_RECORD("smt.optimize.latency_us", timer.ElapsedMicros());
    SIA_COUNTER_INC("smt.optimize.errors");
    return Status::SolverError("Z3 optimize failed in stage '" +
                               std::string(stage) + "': " + e.msg());
  }
}

z3::expr SmtContext::Intern(
    std::map<std::string, std::unique_ptr<z3::expr>>* pool,
    const std::string& name, bool is_real, bool is_bool) {
  const auto it = pool->find(name);
  if (it != pool->end()) return *it->second;
  z3::expr var = is_bool   ? ctx_.bool_const(name.c_str())
                 : is_real ? ctx_.real_const(name.c_str())
                           : ctx_.int_const(name.c_str());
  auto inserted =
      pool->emplace(name, std::make_unique<z3::expr>(var));
  return *inserted.first->second;
}

z3::expr SmtContext::ColumnVar(size_t index, DataType type) {
  const bool is_real = (type == DataType::kDouble);
  return Intern(&cache_, "c" + std::to_string(index), is_real, false);
}

z3::expr SmtContext::NullVar(size_t index) {
  return Intern(&cache_, "n" + std::to_string(index), false, true);
}

z3::expr SmtContext::AuxVar(const std::string& key, bool is_real) {
  return Intern(&aux_, "aux_v!" + key, is_real, false);
}

z3::expr SmtContext::AuxNullVar(const std::string& key) {
  return Intern(&aux_, "aux_n!" + key, false, true);
}

}  // namespace sia
