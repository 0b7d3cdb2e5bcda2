#include "common/fault_injection.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "common/strings.h"
#include "obs/metrics.h"

namespace sia {

std::atomic<int> FaultRegistry::armed_points_{0};

const char* FaultModeName(FaultMode mode) {
  switch (mode) {
    case FaultMode::kOnce:
      return "once";
    case FaultMode::kAlways:
      return "always";
    case FaultMode::kNth:
      return "nth";
    case FaultMode::kProbabilistic:
      return "prob";
    case FaultMode::kLatency:
      return "latency";
  }
  return "?";
}

Result<FaultSpec> FaultSpec::Parse(std::string_view text) {
  FaultSpec spec;
  const size_t colon = text.find(':');
  const std::string_view mode =
      colon == std::string_view::npos ? text : text.substr(0, colon);
  const std::string_view arg =
      colon == std::string_view::npos ? std::string_view()
                                      : text.substr(colon + 1);
  if (mode == "once" || mode.empty()) {
    spec.mode = FaultMode::kOnce;
    return spec;
  }
  if (mode == "always") {
    spec.mode = FaultMode::kAlways;
    return spec;
  }
  if (mode == "nth") {
    spec.mode = FaultMode::kNth;
    uint64_t n = 0;
    const auto [ptr, ec] =
        std::from_chars(arg.data(), arg.data() + arg.size(), n);
    if (ec != std::errc() || ptr != arg.data() + arg.size() || n == 0) {
      return Status::InvalidArgument("fault spec: nth wants a positive "
                                     "integer, got '" + std::string(arg) + "'");
    }
    spec.nth = n;
    return spec;
  }
  if (mode == "prob") {
    spec.mode = FaultMode::kProbabilistic;
    char* end = nullptr;
    const std::string copy(arg);  // strtod needs a terminator
    const double p = std::strtod(copy.c_str(), &end);
    if (end != copy.c_str() + copy.size() || copy.empty() || p < 0.0 ||
        p > 1.0) {
      return Status::InvalidArgument("fault spec: prob wants a probability "
                                     "in [0,1], got '" + copy + "'");
    }
    spec.probability = p;
    return spec;
  }
  if (mode == "latency") {
    spec.mode = FaultMode::kLatency;
    uint32_t ms = 0;
    const auto [ptr, ec] =
        std::from_chars(arg.data(), arg.data() + arg.size(), ms);
    if (ec != std::errc() || ptr != arg.data() + arg.size()) {
      return Status::InvalidArgument("fault spec: latency wants milliseconds, "
                                     "got '" + std::string(arg) + "'");
    }
    spec.latency_ms = ms;
    return spec;
  }
  return Status::InvalidArgument("fault spec: unknown mode '" +
                                 std::string(mode) + "'");
}

const std::vector<std::string>& FaultRegistry::KnownPoints() {
  static const std::vector<std::string>* const points =
      new std::vector<std::string>{
          "smt.check",     // any solver (un)sat check through SmtContext
          "smt.optimize",  // OMT objective queries (interval synthesizer)
          "synth.sample",  // TRUE/FALSE training-sample generation
          "verify.cex",    // counter-example generation
          "verify.check",  // the Verify implication check
          "learn.train",   // SVM training (Alg. 2)
          "engine.scan",   // executor table scans
          "background.synth.crash",    // background synthesis job fails
          "background.synth.latency",  // background synthesis job stalls
          "promote.bad_rewrite",       // force-promote a wrong predicate
          "obs.observe.latency",       // OBSERVE handler stalls/fails
      };
  return *points;
}

FaultRegistry& FaultRegistry::Instance() {
  static FaultRegistry* const registry = new FaultRegistry();
  return *registry;
}

namespace {

// Forces SIA_FAULTS to load at process start: the SIA_FAULT_INJECT
// hot-path gate checks armed_points_ before ever constructing the
// registry, so env arming must not wait for the first Instance() call.
const bool kFaultEnvAnchor = (FaultRegistry::Instance(), true);

}  // namespace

FaultRegistry::FaultRegistry() {
  const char* env = std::getenv("SIA_FAULTS");
  if (env == nullptr || env[0] == '\0') return;
  const Status st = ArmFromSpec(env);
  if (!st.ok()) {
    std::fprintf(stderr, "SIA_FAULTS ignored: %s\n", st.ToString().c_str());
  }
}

Status FaultRegistry::Arm(const std::string& point, const FaultSpec& spec) {
  const auto& known = KnownPoints();
  if (std::find(known.begin(), known.end(), point) == known.end()) {
    return Status::InvalidArgument("unknown fault point '" + point + "'");
  }
  MutexLock lock(&mu_);
  const bool fresh = armed_.find(point) == armed_.end();
  armed_[point] = Armed{spec, Rng(Fnv1a64(point)), 0, 0, false};
  if (fresh) armed_points_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status FaultRegistry::ArmFromSpec(const std::string& spec) {
  for (const std::string& entry : Split(spec, ',')) {
    const std::string_view stripped = StripWhitespace(entry);
    if (stripped.empty()) continue;
    const size_t eq = stripped.find('=');
    const std::string point(stripped.substr(0, eq));
    FaultSpec parsed;
    if (eq != std::string_view::npos) {
      SIA_ASSIGN_OR_RETURN(parsed, FaultSpec::Parse(stripped.substr(eq + 1)));
    }
    SIA_RETURN_IF_ERROR(Arm(point, parsed));
  }
  return Status::OK();
}

void FaultRegistry::Disarm(const std::string& point) {
  MutexLock lock(&mu_);
  if (armed_.erase(point) > 0) {
    armed_points_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void FaultRegistry::DisarmAll() {
  MutexLock lock(&mu_);
  armed_points_.fetch_sub(static_cast<int>(armed_.size()),
                          std::memory_order_relaxed);
  armed_.clear();
}

Status FaultRegistry::Fire(std::string_view point) {
  uint32_t sleep_ms = 0;
  Status injected = Status::OK();
  bool armed_hit = false;
  {
    MutexLock lock(&mu_);
    const auto it = armed_.find(point);
    if (it == armed_.end()) return Status::OK();
    armed_hit = true;
    Armed& armed = it->second;
    ++armed.hits;
    bool fail = false;
    switch (armed.spec.mode) {
      case FaultMode::kOnce:
        fail = !armed.spent;
        armed.spent = true;
        break;
      case FaultMode::kAlways:
        fail = true;
        break;
      case FaultMode::kNth:
        fail = armed.hits == armed.spec.nth;
        break;
      case FaultMode::kProbabilistic:
        fail = armed.rng.Bernoulli(armed.spec.probability);
        break;
      case FaultMode::kLatency:
        sleep_ms = armed.spec.latency_ms;
        break;
    }
    if (fail) {
      ++armed.failures;
      injected = Status::Internal("injected fault at '" + std::string(point) +
                                  "' (" + FaultModeName(armed.spec.mode) +
                                  ", hit " + std::to_string(armed.hits) + ")");
    }
  }
  // Metrics outside the lock: the obs registry has its own mutex and the
  // dynamic-name lookup should not extend the fault critical section.
  if (armed_hit && obs::MetricsRegistry::Enabled()) {
    obs::IncrementCounter("fault.hit." + std::string(point));
    if (!injected.ok()) {
      obs::IncrementCounter("fault.injected." + std::string(point));
    }
  }
  // Sleep outside the lock so latency faults do not serialize other
  // threads' fault checks.
  if (sleep_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
  }
  return injected;
}

uint64_t FaultRegistry::hits(const std::string& point) const {
  MutexLock lock(&mu_);
  const auto it = armed_.find(point);
  return it == armed_.end() ? 0 : it->second.hits;
}

uint64_t FaultRegistry::failures_injected(const std::string& point) const {
  MutexLock lock(&mu_);
  const auto it = armed_.find(point);
  return it == armed_.end() ? 0 : it->second.failures;
}

}  // namespace sia
