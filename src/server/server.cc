#include "server/server.h"

#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <vector>

#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sia::server {
namespace {

uint64_t SteadyMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Accept-loop polling heartbeat: how often the acceptor re-checks the
// stopping flag while idle.
constexpr int64_t kAcceptPollMillis = 50;

// A shed/error frame is tens of bytes; if the peer cannot take that in
// this long it has stopped reading and is not worth an acceptor stall.
constexpr int64_t kBestEffortWriteMillis = 1000;

// Lingering close for shed connections. Closing right after the SHED
// write races the client's in-flight request bytes: data arriving at a
// closed socket makes the kernel answer with RST, and an RST discards
// the client's unread receive buffer — the SHED frame evaporates. So a
// shed connection is half-closed (FIN) and parked; the acceptor keeps
// discarding its inbound bytes until EOF or this deadline, then closes.
constexpr int64_t kLingerMillis = 2000;
// Park at most this many shed sockets; beyond it the oldest is closed
// hard (an RST to a client we are already refusing beats unbounded fds).
constexpr size_t kMaxLingering = 1024;

// A shed connection waiting out its lingering close.
struct LingeringConn {
  net::Socket conn;
  uint64_t close_us = 0;  // SteadyMicros() deadline
};

}  // namespace

int64_t AdaptiveRetryHint(int64_t base_ms, size_t queue_len,
                          size_t queue_depth, double recent_sheds) {
  base_ms = std::max<int64_t>(1, base_ms);
  const double fullness =
      queue_depth == 0
          ? 1.0
          : static_cast<double>(queue_len) / static_cast<double>(queue_depth);
  const double scaled =
      static_cast<double>(base_ms) * (1.0 + fullness + recent_sheds);
  const double cap = static_cast<double>(base_ms) * 32.0;
  return static_cast<int64_t>(std::min(scaled, cap));
}

SiaServer::SiaServer(const ServerOptions& options)
    : options_(options),
      service_(options.service),
      queue_(std::max<size_t>(1, options.queue_depth)) {}

Result<std::unique_ptr<SiaServer>> SiaServer::Start(
    const ServerOptions& options) {
  ServerOptions opts = options;
  opts.workers = std::max<size_t>(1, opts.workers);
  // A resident server always collects metrics: STATS is part of the
  // protocol, and the counters cost one relaxed RMW per event.
  obs::MetricsRegistry::SetEnabled(true);
  std::unique_ptr<SiaServer> server(new SiaServer(opts));
  SIA_ASSIGN_OR_RETURN(server->listener_,
                       net::Listener::Bind(opts.host, opts.port));
  obs::SetGauge("server.queue.depth", 0);
  obs::SetGauge("server.inflight", 0);
  {
    MutexLock lock(&server->drain_mu_);
    server->live_workers_ = opts.workers;
  }
  server->workers_.reserve(opts.workers);
  for (size_t i = 0; i < opts.workers; ++i) {
    server->workers_.emplace_back([raw = server.get()] { raw->WorkerLoop(); });
  }
  server->acceptor_ = Thread([raw = server.get()] { raw->AcceptLoop(); });
  return server;
}

SiaServer::~SiaServer() {
  // A drain timeout is already recorded in drain_result_ for callers who
  // asked; the destructor has nobody to report it to.
  (void)DrainAndStop();
}

void SiaServer::AcceptLoop() {
  std::vector<LingeringConn> lingering;
  // Decaying shed pressure: +1 per shed, halved per successful
  // admission. Acceptor-thread-only state, so no lock.
  double recent_sheds = 0.0;
  // Sweeps the parked shed connections: discard whatever the refused
  // client sent, close on EOF or deadline. Runs at the accept loop's
  // heartbeat and never blocks (the sockets are non-blocking).
  const auto reap = [&lingering] {
    char scratch[256];
    const uint64_t now = SteadyMicros();
    for (size_t i = 0; i < lingering.size();) {
      bool drop = now >= lingering[i].close_us;
      while (!drop) {
        const ssize_t n = ::recv(lingering[i].conn.fd(), scratch,
                                 sizeof(scratch), MSG_DONTWAIT);
        if (n > 0) continue;  // request bytes from a refused client
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        drop = true;  // EOF (clean) or a hard error: done lingering
      }
      if (drop) {
        std::swap(lingering[i], lingering.back());
        lingering.pop_back();
      } else {
        ++i;
      }
    }
  };

  while (!stopping_.load(std::memory_order_acquire)) {
    auto conn = listener_.Accept(kAcceptPollMillis);
    reap();
    if (!conn.ok()) {
      if (conn.status().code() == StatusCode::kTimeout) continue;
      // A transient accept failure (EMFILE under load, say) must not
      // spin the acceptor; anything persistent ends with drain anyway.
      if (stopping_.load(std::memory_order_acquire)) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(kAcceptPollMillis));
      continue;
    }
    // The request's trace is born here: every span and event on this
    // connection's journey — admission, queue, rewrite, background
    // synthesis, promotion — carries this ID.
    const uint64_t trace_id = obs::MintTraceId();
    obs::TraceContext trace_ctx(trace_id);
    SIA_TRACE_SPAN("server.accept");
    accepted_.fetch_add(1, std::memory_order_relaxed);
    SIA_COUNTER_INC("server.requests.accepted");
    AdmittedConn admitted;
    admitted.conn = std::move(*conn);
    admitted.admit_us = SteadyMicros();
    admitted.trace_id = trace_id;
    if (!queue_.TryPush(std::move(admitted))) {
      // Load shed: refuse explicitly and immediately, before reading a
      // single request byte, with a Retry-After hint that scales with
      // how overloaded we actually are — a fixed hint resynchronizes
      // every refused client into the next burst. The connection then
      // lingers half-closed so the refused client's own request write
      // cannot RST the SHED frame out of its receive buffer.
      shed_.fetch_add(1, std::memory_order_relaxed);
      SIA_COUNTER_INC("server.requests.shed");
      recent_sheds += 1.0;
      const int64_t hint =
          AdaptiveRetryHint(options_.retry_after_ms, queue_.size(),
                            options_.queue_depth, recent_sheds);
      obs::SetGauge("server.shed.retry_hint_ms", static_cast<double>(hint));
      SIA_EVENT("server.shed",
                "retry_after_ms=" + std::to_string(hint) +
                    " queue=" + std::to_string(queue_.size()));
      if (admitted.conn
              .SendFrame(FormatShed(hint), kBestEffortWriteMillis)
              .ok()) {
        admitted.conn.ShutdownWrite();
        if (lingering.size() >= kMaxLingering) {
          std::swap(lingering.front(), lingering.back());
          lingering.pop_back();
        }
        lingering.push_back(
            {std::move(admitted.conn), SteadyMicros() + kLingerMillis * 1000});
      }
    } else {
      recent_sheds *= 0.5;
    }
  }
  // Remaining parked connections close when `lingering` goes out of
  // scope; by now every one has had a full accept-poll tick to be read.
}

void SiaServer::WorkerLoop() {
  for (;;) {
    std::optional<AdmittedConn> item;
    {
      // The wait-for-work span; the per-request queue delay is the
      // server.queue.wait_us histogram recorded in ServeConn.
      SIA_TRACE_SPAN("server.queue");
      item = queue_.Pop();
    }
    if (!item.has_value()) break;  // closed and drained
    ServeConn(std::move(*item));
  }
  {
    MutexLock lock(&drain_mu_);
    --live_workers_;
  }
  drain_cv_.NotifyAll();
}

void SiaServer::ServeConn(AdmittedConn admitted) {
  // Rejoin the trace minted at admission: spans and events recorded on
  // this worker (and the background job the request may enqueue) link to
  // the acceptor's server.accept span.
  obs::TraceContext trace_ctx(admitted.trace_id);
  obs::AddGauge("server.inflight", 1);
  const int64_t queue_us =
      static_cast<int64_t>(SteadyMicros() - admitted.admit_us);
  SIA_HISTOGRAM_RECORD("server.queue.wait_us", queue_us);

  auto payload = admitted.conn.RecvFrame(options_.io_timeout_ms);
  if (!payload.ok()) {
    // Unreadable request: oversized/zero length prefix, truncated
    // payload, peer gone. Answer when the transport still works (a
    // malformed frame deserves an ERROR, not a silent close).
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    SIA_COUNTER_INC("server.requests.protocol_errors");
    if (payload.status().code() != StatusCode::kUnavailable) {
      // Best effort: the connection is already broken from the client's
      // point of view; a failed ERROR write changes nothing.
      (void)admitted.conn.SendFrame(FormatError(payload.status()),
                                    kBestEffortWriteMillis);
    }
    obs::AddGauge("server.inflight", -1);
    return;
  }

  const std::string response = service_.Handle(*payload, queue_us);
  if (response.rfind("ERROR", 0) == 0) {
    SIA_COUNTER_INC("server.requests.errors");
  }
  {
    SIA_TRACE_SPAN("server.respond");
    const Status sent =
        admitted.conn.SendFrame(response, options_.io_timeout_ms);
    if (sent.ok()) {
      completed_.fetch_add(1, std::memory_order_relaxed);
      SIA_COUNTER_INC("server.requests.completed");
    } else {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      SIA_COUNTER_INC("server.requests.protocol_errors");
    }
  }
  const uint64_t latency_us = SteadyMicros() - admitted.admit_us;
  SIA_HISTOGRAM_RECORD("server.request.latency_us", latency_us);
  if (options_.slow_request_us > 0 &&
      latency_us > static_cast<uint64_t>(options_.slow_request_us)) {
    SIA_EVENT("server.slow_query",
              "latency_us=" + std::to_string(latency_us) +
                  " queue_us=" + std::to_string(queue_us));
  }
  obs::AddGauge("server.inflight", -1);
}

Status SiaServer::DrainAndStop() {
  // Serialized, idempotent: the first caller drains, later callers (and
  // the destructor) get the stored result.
  MutexLock stop_lock(&stop_mu_);
  if (stopped_) return drain_result_;
  stopped_ = true;

  stopping_.store(true, std::memory_order_release);
  if (acceptor_.Joinable()) acceptor_.Join();
  listener_.Close();
  queue_.Close();

  Status result = Status::OK();
  {
    MutexLock lock(&drain_mu_);
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(options_.drain_deadline_ms);
    while (live_workers_ != 0) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) {
        result = Status::Timeout(
            "drain deadline (" + std::to_string(options_.drain_deadline_ms) +
            "ms) passed with " + std::to_string(live_workers_) +
            " workers still busy");
        break;
      }
      const int64_t remaining_ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
              .count() +
          1;
      drain_cv_.WaitForMillis(&drain_mu_, remaining_ms);
    }
    // The deadline bounds the graceful exit, not thread lifetime: the
    // workers are joined regardless (every blocking step they can be in
    // carries its own timeout, so this terminates).
    while (live_workers_ != 0) drain_cv_.Wait(&drain_mu_);
  }
  for (Thread& worker : workers_) worker.Join();
  // Background learning drains after the workers, so no new job can
  // arrive: queued jobs are aborted back to re-queueable, the in-flight
  // one is waited out.
  service_.DrainBackground();
  drain_result_ = result;
  return result;
}

ServerCounters SiaServer::counters() const {
  ServerCounters out;
  out.accepted = accepted_.load(std::memory_order_relaxed);
  out.shed = shed_.load(std::memory_order_relaxed);
  out.completed = completed_.load(std::memory_order_relaxed);
  out.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace sia::server
