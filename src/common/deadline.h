#ifndef SIA_COMMON_DEADLINE_H_
#define SIA_COMMON_DEADLINE_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "obs/metrics.h"

namespace sia {

// A point in wall-clock (steady) time by which a pipeline stage must
// finish. Default-constructed deadlines are infinite, so plumbing one
// through an options struct costs nothing for callers that never set it.
//
// Deadlines are plain values: copying one shares the same end instant,
// so a copy never restarts the clock. A synthesis run carries exactly
// one (inside its SolverBudget), and every solver call of the run derives
// its timeout from whatever wall-clock budget is *left*, not from a fresh
// per-component allowance.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  Deadline() = default;  // infinite

  static Deadline Infinite() { return Deadline(); }

  // Expires `ms` milliseconds from now (clamped to >= 0).
  static Deadline FromNowMillis(int64_t ms) {
    Deadline d;
    d.finite_ = true;
    d.end_ = Clock::now() + std::chrono::milliseconds(std::max<int64_t>(0, ms));
    return d;
  }

  static Deadline At(Clock::time_point end) {
    Deadline d;
    d.finite_ = true;
    d.end_ = end;
    return d;
  }

  bool infinite() const { return !finite_; }
  bool expired() const { return finite_ && Clock::now() >= end_; }

  // Milliseconds of budget left, clamped to >= 0. Infinite deadlines
  // report a large sentinel so min() arithmetic stays simple.
  int64_t RemainingMillis() const {
    if (!finite_) return kForeverMillis;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        end_ - Clock::now());
    return std::max<int64_t>(0, left.count());
  }

  static constexpr int64_t kForeverMillis = INT64_MAX / 2;

 private:
  Clock::time_point end_{};
  bool finite_ = false;
};

// Default cap on one solver call, shared by every solver user.
inline constexpr uint32_t kDefaultSolverTimeoutMs = 2000;

// A solver time budget: an end-to-end wall-clock deadline plus a cap on
// any single solver call. It is the only budget a synthesis run carries
// (SynthesisOptions::budget); the run's SmtContext holds it, so the
// sampler, the verifier and the interval synthesizer all draw from it.
// Per-call timeouts are derived from the *remaining* budget, so a stage
// that already burned most of the wall clock cannot stall for a full
// per-call allowance on top of it.
struct SolverBudget {
  Deadline deadline;  // infinite unless a caller set one
  uint32_t per_call_cap_ms = kDefaultSolverTimeoutMs;

  static SolverBudget Unbounded(uint32_t cap_ms = kDefaultSolverTimeoutMs) {
    return SolverBudget{Deadline::Infinite(), cap_ms};
  }

  bool Exhausted() const { return deadline.expired(); }

  // Timeout for the next solver call: min(cap, remaining wall clock),
  // never below 1ms (Z3 treats 0 as "no timeout").
  uint32_t CallTimeoutMs() const {
    const int64_t remaining = deadline.RemainingMillis();
    const int64_t cap = static_cast<int64_t>(per_call_cap_ms);
    return static_cast<uint32_t>(std::max<int64_t>(1, std::min(cap, remaining)));
  }

  // kTimeout naming the stage when the deadline is already spent.
  [[nodiscard]] Status RequireRemaining(std::string_view stage) const {
    if (!Exhausted()) return Status::OK();
    if (obs::MetricsRegistry::Enabled()) {
      obs::IncrementCounter("deadline.exhausted");
      obs::IncrementCounter("deadline.exhausted." + std::string(stage));
    }
    return Status::Timeout("deadline exhausted in stage '" +
                           std::string(stage) + "'");
  }

  // The retry rung's budget: same deadline, half the per-call cap.
  SolverBudget WithCapHalved() const {
    return SolverBudget{deadline, std::max<uint32_t>(1, per_call_cap_ms / 2)};
  }
};

}  // namespace sia

#endif  // SIA_COMMON_DEADLINE_H_
