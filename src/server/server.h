#ifndef SIA_SERVER_SERVER_H_
#define SIA_SERVER_SERVER_H_

// The concurrent query-serving subsystem (sia_serve): a resident process
// boundary around the rewrite pipeline, shaped as
//
//   acceptor thread -> bounded AdmissionQueue -> worker pool -> responses
//
// The acceptor owns all accept(2) work and the load-shed decision: a
// connection that cannot be admitted is answered with a SHED frame
// (Retry-After hint) and closed, so overload degrades to fast, explicit
// refusals instead of unbounded queueing. Workers (long-running tasks on
// a private common/thread_pool) read the request frame, run it through
// QueryService — cache decision, background-learning enqueue, optional
// execution — and write the response. Per-request spans are
// server.accept / server.queue / server.rewrite / server.execute /
// server.respond.
//
// Shutdown is a graceful drain: DrainAndStop() stops accepting, lets the
// workers finish everything already admitted, and reports kTimeout when
// that takes longer than drain_deadline_ms (workers are still joined —
// the deadline bounds the *graceful* exit, not thread lifetime).

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "common/net.h"
#include "common/status.h"
#include "common/sync.h"
#include "common/thread_pool.h"
#include "server/admission_queue.h"
#include "server/service.h"

namespace sia::server {

struct ServerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  // 0 = ephemeral; read back via SiaServer::port()
  size_t workers = 2;
  size_t queue_depth = 64;
  // How long a worker waits for a client's request frame / response
  // write before giving up on the connection.
  int64_t io_timeout_ms = 5000;
  // Graceful-drain budget for DrainAndStop().
  int64_t drain_deadline_ms = 10000;
  // Base Retry-After hint carried in SHED responses. The hint actually
  // sent scales with current pressure (see AdaptiveRetryHint); this is
  // its floor.
  int64_t retry_after_ms = 100;
  // Requests slower than this (accept-to-response, queue wait included)
  // land in the OBSERVE event log as server.slow_query. 0 disables.
  int64_t slow_request_us = 100000;
  ServiceOptions service;
};

// The Retry-After hint for one SHED response: the configured base scaled
// by how full the admission queue is and by the acceptor's recent shed
// pressure (a decaying count of sheds since the last successful
// admission). Clamped to [base, 32*base] so a client backoff can trust
// the hint's order of magnitude. Pure; the acceptor owns the pressure
// accounting.
int64_t AdaptiveRetryHint(int64_t base_ms, size_t queue_len,
                          size_t queue_depth, double recent_sheds);

// Monotonic request accounting, valid while the server runs and after it
// stops. accepted == shed + completed + protocol_errors once drained.
struct ServerCounters {
  uint64_t accepted = 0;
  uint64_t shed = 0;
  uint64_t completed = 0;        // a response frame was written
  uint64_t protocol_errors = 0;  // unreadable/over-long/abandoned requests
};

class SiaServer {
 public:
  // Binds, spawns the acceptor and `workers` worker loops, and returns a
  // serving instance.
  [[nodiscard]] static Result<std::unique_ptr<SiaServer>> Start(
      const ServerOptions& options);

  // Drains (if the caller did not) and joins everything.
  ~SiaServer();

  uint16_t port() const { return listener_.port(); }

  // The serving brains; valid for the server's lifetime. Exposed so
  // tests and tools can read cache/background state after a drain.
  QueryService& service() { return service_; }

  // Stop accepting, refuse new admissions, finish all admitted requests.
  // Idempotent. Returns kTimeout when the backlog outlived
  // drain_deadline_ms; OK otherwise.
  [[nodiscard]] Status DrainAndStop() SIA_EXCLUDES(stop_mu_, drain_mu_);

  ServerCounters counters() const;

 private:
  explicit SiaServer(const ServerOptions& options);

  void AcceptLoop();
  void WorkerLoop() SIA_EXCLUDES(drain_mu_);
  // One admitted connection end to end: read frame, serve, respond.
  void ServeConn(AdmittedConn admitted);

  ServerOptions options_;
  QueryService service_;
  net::Listener listener_;
  AdmissionQueue queue_;
  // workers + 2 (caller-counting pool): one pool thread per serving
  // loop plus one left free for the low-priority background lane.
  std::unique_ptr<ThreadPool> pool_;
  Thread acceptor_;

  std::atomic<bool> stopping_{false};

  // Lock hierarchy: stop_mu_ -> drain_mu_ (DrainAndStop holds the stop
  // lock for its whole run, taking the drain lock inside it). Both are
  // ordered before the AdmissionQueue's internal lock, which Close()
  // takes while stop_mu_ is held.
  // DrainAndStop serialization + stored result for idempotent calls.
  Mutex stop_mu_ SIA_ACQUIRED_BEFORE(drain_mu_);
  bool stopped_ SIA_GUARDED_BY(stop_mu_) = false;
  Status drain_result_ SIA_GUARDED_BY(stop_mu_);

  Mutex drain_mu_;
  CondVar drain_cv_;
  size_t live_workers_ SIA_GUARDED_BY(drain_mu_) = 0;

  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> protocol_errors_{0};
};

}  // namespace sia::server

#endif  // SIA_SERVER_SERVER_H_
