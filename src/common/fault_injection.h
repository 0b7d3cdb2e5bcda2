#ifndef SIA_COMMON_FAULT_INJECTION_H_
#define SIA_COMMON_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/sync.h"

namespace sia {

// Fault injection for the rewrite pipeline. Each seam that can fail in
// production (a solver call, sample generation, SVM training, a table
// scan, ...) declares a named fault point via SIA_FAULT_INJECT; tests and
// the fault-sweep gate arm points programmatically or through the
// SIA_FAULTS environment variable and assert that every injected failure
// degrades to a Status / a lower rewrite-ladder rung, never a crash or a
// wrong answer.
//
// SIA_FAULTS syntax (comma-separated `point=mode` entries):
//   SIA_FAULTS=smt.check=once                 fail the first hit, then heal
//   SIA_FAULTS=synth.sample=always            fail every hit
//   SIA_FAULTS=learn.train=nth:3              fail exactly the 3rd hit
//   SIA_FAULTS=verify.cex=prob:0.25           fail each hit with p=0.25
//   SIA_FAULTS=engine.scan=latency:50         sleep 50ms per hit, succeed
//   SIA_FAULTS=smt.check=once,engine.scan=always        (combined)
// A bare point name ("SIA_FAULTS=smt.check") means `once`.
//
// When nothing is armed the per-hit cost is one relaxed atomic load (the
// SIA_FAULT_INJECT macro does not even take the registry lock).

enum class FaultMode {
  kOnce,           // fail the first hit, succeed afterwards
  kAlways,         // fail every hit
  kNth,            // fail exactly the nth hit (1-based)
  kProbabilistic,  // fail each hit with probability `probability`
  kLatency,        // never fail; sleep `latency_ms` per hit
};

const char* FaultModeName(FaultMode mode);

struct FaultSpec {
  FaultMode mode = FaultMode::kOnce;
  uint64_t nth = 1;          // kNth only
  double probability = 1.0;  // kProbabilistic only
  uint32_t latency_ms = 0;   // kLatency only

  // Parses the part after `point=` in SIA_FAULTS ("once", "always",
  // "nth:3", "prob:0.25", "latency:50").
  [[nodiscard]] static Result<FaultSpec> Parse(std::string_view text);
};

class FaultRegistry {
 public:
  // Process-wide registry. The first call loads SIA_FAULTS from the
  // environment.
  static FaultRegistry& Instance();

  // Hot-path guard: true iff at least one point is armed anywhere.
  static bool Enabled() {
    return armed_points_.load(std::memory_order_relaxed) > 0;
  }

  // Arms `point` with `spec`. The point must be one of KnownPoints()
  // (typos in a fault sweep otherwise silently test nothing).
  [[nodiscard]] Status Arm(const std::string& point, const FaultSpec& spec)
      SIA_EXCLUDES(mu_);

  // Parses and arms a full SIA_FAULTS-style spec string.
  [[nodiscard]] Status ArmFromSpec(const std::string& spec) SIA_EXCLUDES(mu_);

  void Disarm(const std::string& point) SIA_EXCLUDES(mu_);
  void DisarmAll() SIA_EXCLUDES(mu_);

  // Fires the fault point: returns a non-OK Status when the armed spec
  // says this hit fails (kInternal, message naming the point), sleeps
  // for latency specs, and returns OK otherwise. Hits on unarmed points
  // return OK.
  [[nodiscard]] Status Fire(std::string_view point) SIA_EXCLUDES(mu_);

  // Observability for tests: total hits / injected failures per point
  // since arming (reset by Arm/Disarm).
  uint64_t hits(const std::string& point) const SIA_EXCLUDES(mu_);
  uint64_t failures_injected(const std::string& point) const
      SIA_EXCLUDES(mu_);

  // Every fault point compiled into the pipeline. Kept in one place so
  // the fault-sweep driver can iterate them without firing anything.
  static const std::vector<std::string>& KnownPoints();

 private:
  FaultRegistry();

  struct Armed {
    FaultSpec spec;
    // kProbabilistic draws: one stream per point, seeded from its name
    // when armed, so hits on other points never shift this point's draws.
    Rng rng;
    uint64_t hits = 0;
    uint64_t failures = 0;
    bool spent = false;  // kOnce fired already
  };

  // Leaf lock: Fire deliberately reports metrics and sleeps *outside*
  // the critical section, so the obs registry lock is never taken under
  // mu_ and latency faults never serialize other threads' checks.
  mutable Mutex mu_;
  std::map<std::string, Armed, std::less<>> armed_ SIA_GUARDED_BY(mu_);

  static std::atomic<int> armed_points_;
};

// Declares a fault point inside a function returning Status or
// Result<T>: when the point is armed and the spec says "fail", the
// enclosing function returns the injected error.
#define SIA_FAULT_INJECT(point)                                      \
  do {                                                               \
    if (::sia::FaultRegistry::Enabled()) {                           \
      ::sia::Status _sia_fault_st =                                  \
          ::sia::FaultRegistry::Instance().Fire(point);              \
      if (!_sia_fault_st.ok()) return _sia_fault_st;                 \
    }                                                                \
  } while (0)

}  // namespace sia

#endif  // SIA_COMMON_FAULT_INJECTION_H_
