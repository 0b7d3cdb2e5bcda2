#ifndef SIA_OBS_TRACE_H_
#define SIA_OBS_TRACE_H_

// RAII span tracing with per-thread ring buffers and Chrome trace-event
// JSON export (loadable in Perfetto / chrome://tracing).
//
//   void Synthesize(...) {
//     SIA_TRACE_SPAN("synth.run");
//     ...
//   }
//
// Span names follow the `stage.substage` convention documented in
// DESIGN.md ("Observability"). When tracing is disabled (the default) a
// span site costs one relaxed atomic load; -DSIA_OBS_DISABLED compiles
// the macro out entirely. Each thread writes completed spans into its own
// fixed-capacity ring (oldest events are overwritten and counted as
// dropped), so recording never blocks another thread.
//
// Standard-library-only, like the rest of src/obs (see metrics.h).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/sync.h"
#include "obs/metrics.h"  // for SIA_OBS_CONCAT_

namespace sia::obs {

// A completed span. Timestamps are microseconds since the tracer's epoch
// (first use in the process); `depth` is the span-nesting depth on its
// thread at the time the span opened (0 = top level). `trace_id` is the
// request-scoped ID installed by a TraceContext (0 = no request context),
// which is how one query's admission, background synthesis, and
// promotion decision link up across threads in the Chrome export.
struct TraceEvent {
  std::string name;
  uint64_t ts_us = 0;
  uint64_t dur_us = 0;
  int tid = 0;
  int depth = 0;
  uint64_t trace_id = 0;
};

namespace internal {

// One ring per thread, owned jointly by the thread (thread_local
// shared_ptr) and the tracer's registry, so events survive thread exit.
class ThreadRing {
 public:
  static constexpr size_t kCapacity = 8192;

  void Push(TraceEvent event) SIA_EXCLUDES(mu_);

 private:
  friend class TracerAccess;
  // Per-ring leaf lock: normally touched only by the owning thread; the
  // exporter (TracerAccess) takes it ring by ring, never holding two.
  Mutex mu_;
  // ring; valid range depends on wrapped_
  std::vector<TraceEvent> events_ SIA_GUARDED_BY(mu_);
  size_t next_ SIA_GUARDED_BY(mu_) = 0;
  bool wrapped_ SIA_GUARDED_BY(mu_) = false;
  uint64_t dropped_ SIA_GUARDED_BY(mu_) = 0;
  int tid_ SIA_GUARDED_BY(mu_) = 0;
};

}  // namespace internal

class Tracer {
 public:
  static Tracer& Instance();

  // One relaxed load; the gate every span site checks first.
  static bool Enabled() {
#ifdef SIA_OBS_DISABLED
    return false;
#else
    return enabled_.load(std::memory_order_relaxed);
#endif
  }
  static void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  // Microseconds since the tracer epoch (steady clock).
  uint64_t NowMicros() const;

  // The calling thread's ring, created and registered on first use.
  internal::ThreadRing& ThisThreadRing() SIA_EXCLUDES(mu_);

  // Snapshot of every recorded span across all threads, sorted by start
  // time (ties broken by depth so parents precede children).
  std::vector<TraceEvent> CollectEvents() const;

  // Total events overwritten across all rings.
  uint64_t DroppedCount() const;

  // {"traceEvents":[...],"displayTimeUnit":"ms"} — complete events
  // (ph "X") with pid 1 and the per-thread tid.
  std::string ExportChromeJson() const;
  bool WriteChromeTrace(std::string_view path,
                        std::string* error = nullptr) const;

  // Drops all recorded events (rings stay registered).
  void Clear();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

 private:
  Tracer();

  std::chrono::steady_clock::time_point epoch_;
  // Registry lock, ordered before any ring's mu_ (ThisThreadRing holds
  // it while stamping the new ring's tid under that ring's lock);
  // the collectors copy rings_ out under mu_ and drain each ring after
  // releasing it.
  mutable Mutex mu_;
  std::vector<std::shared_ptr<internal::ThreadRing>> rings_
      SIA_GUARDED_BY(mu_);
  int next_tid_ SIA_GUARDED_BY(mu_) = 1;

  static std::atomic<bool> enabled_;
};

// --- Request-scoped trace context ------------------------------------
//
// A trace ID is minted once per admitted request (MintTraceId, never 0)
// and installed on whichever thread is currently doing that request's
// work via a TraceContext — the worker serving the connection, then the
// learner thread running its synthesis job, then the thread recording
// its promotion evidence. Every TraceSpan opened while a context is
// installed stamps the ID into its event, so the whole journey is one
// linked trace. Installation is two thread-local stores, no atomics —
// cheap enough to run unconditionally, traced or not.

// Process-unique, monotonically increasing, never 0.
uint64_t MintTraceId();

// The calling thread's installed trace ID (0 = none).
uint64_t CurrentTraceId();

// RAII: installs `trace_id` for the scope, restoring the previous ID on
// exit (contexts nest; the innermost wins).
class TraceContext {
 public:
  explicit TraceContext(uint64_t trace_id);
  ~TraceContext();

  TraceContext(const TraceContext&) = delete;
  TraceContext& operator=(const TraceContext&) = delete;

 private:
  uint64_t saved_ = 0;
};

// RAII span: captures the start time at construction and records a
// completed TraceEvent at destruction. Inert (one relaxed load) when
// tracing is disabled at construction time. `name` must outlive the span
// — in practice a string literal or a caller-owned stage string.
class TraceSpan {
 public:
  explicit TraceSpan(std::string_view name);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  std::string_view name_;
  uint64_t start_us_ = 0;
  uint64_t trace_id_ = 0;  // CurrentTraceId() at construction
  int depth_ = 0;
  bool active_ = false;
};

}  // namespace sia::obs

#ifdef SIA_OBS_DISABLED
#define SIA_TRACE_SPAN(name) static_cast<void>(0)
#else
// Opens a span covering the rest of the enclosing scope. __COUNTER__ keys
// the variable name so two spans may share a line (same idiom as
// SIA_ASSIGN_OR_RETURN in src/common/status.h).
#define SIA_TRACE_SPAN(name) \
  ::sia::obs::TraceSpan SIA_OBS_CONCAT_(sia_obs_trace_span_, __COUNTER__)(name)
#endif  // SIA_OBS_DISABLED

#endif  // SIA_OBS_TRACE_H_
