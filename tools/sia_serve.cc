// sia_serve — the resident query-rewriting daemon. Binds a TCP port,
// serves the length-prefixed line protocol (see src/server/protocol.h:
// PING / STATS / QUERY), and drains gracefully on SIGTERM or SIGINT:
// stop accepting, finish everything admitted, exit 0 — exit 1 when the
// drain outlives --drain-ms.
//
// Serving never synthesizes: a cache miss is answered with the original
// query at once and the predicate is learned on the one learner thread,
// then promoted on measured shadow evidence (DESIGN.md "Online learning
// loop").
//
//   sia_serve [options]
//     --port N            TCP port (default 0 = kernel-chosen; the
//                         chosen port is printed on the LISTENING line)
//     --port-file F       also write the chosen port to F (for scripts)
//     --workers N         worker threads (default 2)
//     --queue-depth N     admission-queue depth; beyond it requests are
//                         shed with a Retry-After hint (default 64)
//     --drain-ms N        graceful-drain budget on SIGTERM (default 10000)
//     --retry-after-ms N  hint carried in SHED responses (default 100)
//     --io-timeout-ms N   per-connection read/write budget (default 5000)
//     --scale SF          generate TPC-H data at SF and execute every
//                         rewritten query, reporting result digests
//                         (default 0 = rewrite-only)
//     --data-seed S       TPC-H generator seed (default 42, matching
//                         sia_lint --execute-sf)
//     --target TABLE      rewrite target table (default lineitem)
//     --max-iterations N  synthesis iteration budget (default:
//                         synthesizer default)
//     --promote-after N   shadow wins required to promote (default 3)
//     --demote-after N    shadow losses that demote (default 3)
//     --shadow-sample-rate R  fraction of eligible requests that
//                         paranoid-cross-check the rewrite (default 0.1)
//     --background-budget-ms N  per-job synthesis budget on the
//                         learner thread (default 2000)
//
// Prints exactly one line to stdout once serving:
//   LISTENING port=<p> workers=<n> queue_depth=<n> exec=<0|1>
// and a final line after drain:
//   DRAINED accepted=<n> completed=<n> shed=<n> protocol_errors=<n>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "server/server.h"

namespace {

volatile std::sig_atomic_t g_shutdown = 0;

void HandleSignal(int) { g_shutdown = 1; }

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--port N] [--port-file F] [--workers N]\n"
               "          [--queue-depth N] [--drain-ms N]\n"
               "          [--retry-after-ms N] [--io-timeout-ms N]\n"
               "          [--scale SF] [--data-seed S] [--target TABLE]\n"
               "          [--max-iterations N]\n"
               "          [--promote-after N] [--demote-after N]\n"
               "          [--shadow-sample-rate R] [--background-budget-ms N]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  sia::server::ServerOptions options;
  std::string port_file;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--port" && (v = next()) != nullptr) {
      options.port = static_cast<uint16_t>(std::atoi(v));
    } else if (arg == "--port-file" && (v = next()) != nullptr) {
      port_file = v;
    } else if (arg == "--workers" && (v = next()) != nullptr) {
      options.workers = static_cast<size_t>(std::atoll(v));
    } else if (arg == "--queue-depth" && (v = next()) != nullptr) {
      options.queue_depth = static_cast<size_t>(std::atoll(v));
    } else if (arg == "--drain-ms" && (v = next()) != nullptr) {
      options.drain_deadline_ms = std::atoll(v);
    } else if (arg == "--retry-after-ms" && (v = next()) != nullptr) {
      options.retry_after_ms = std::atoll(v);
    } else if (arg == "--io-timeout-ms" && (v = next()) != nullptr) {
      options.io_timeout_ms = std::atoll(v);
    } else if (arg == "--scale" && (v = next()) != nullptr) {
      options.service.scale_factor = std::atof(v);
    } else if (arg == "--data-seed" && (v = next()) != nullptr) {
      options.service.data_seed = static_cast<uint64_t>(std::atoll(v));
    } else if (arg == "--target" && (v = next()) != nullptr) {
      options.service.target_table = v;
    } else if (arg == "--max-iterations" && (v = next()) != nullptr) {
      options.service.max_iterations = std::atoi(v);
    } else if (arg == "--promote-after" && (v = next()) != nullptr) {
      options.service.promote_after = std::atoi(v);
    } else if (arg == "--demote-after" && (v = next()) != nullptr) {
      options.service.demote_after = std::atoi(v);
    } else if (arg == "--shadow-sample-rate" && (v = next()) != nullptr) {
      options.service.shadow_sample_rate = std::atof(v);
    } else if (arg == "--background-budget-ms" && (v = next()) != nullptr) {
      options.service.background_budget_ms = std::atoll(v);
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown or incomplete flag: %s\n", arg.c_str());
      return Usage(argv[0]);
    }
  }

  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = HandleSignal;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);

  auto server = sia::server::SiaServer::Start(options);
  if (!server.ok()) {
    std::fprintf(stderr, "sia_serve: %s\n",
                 server.status().ToString().c_str());
    return 2;
  }

  if (!port_file.empty()) {
    std::ofstream out(port_file);
    out << (*server)->port() << "\n";
    if (!out) {
      std::fprintf(stderr, "sia_serve: cannot write %s\n", port_file.c_str());
      return 2;
    }
  }
  std::printf("LISTENING port=%u workers=%zu queue_depth=%zu exec=%d\n",
              (*server)->port(), options.workers, options.queue_depth,
              options.service.scale_factor > 0 ? 1 : 0);
  std::fflush(stdout);

  while (g_shutdown == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  const sia::Status drained = (*server)->DrainAndStop();
  const sia::server::ServerCounters counters = (*server)->counters();
  std::printf(
      "DRAINED accepted=%llu completed=%llu shed=%llu protocol_errors=%llu\n",
      static_cast<unsigned long long>(counters.accepted),
      static_cast<unsigned long long>(counters.completed),
      static_cast<unsigned long long>(counters.shed),
      static_cast<unsigned long long>(counters.protocol_errors));
  if (!drained.ok()) {
    std::fprintf(stderr, "sia_serve: %s\n", drained.ToString().c_str());
    return 1;
  }
  return 0;
}
