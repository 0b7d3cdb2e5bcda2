// src/server tests: wire-protocol round trips, admission-queue
// semantics, and whole-server concurrency behavior — malformed frames
// never crash the process, overload sheds explicitly, and SIGTERM-style
// drain completes everything admitted with answers identical to a
// serial run. The whole file is meant to run under ThreadSanitizer
// (scripts/check.sh builds it into the TSan tree) as well as the
// ASan/UBSan check tree.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/types.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/net.h"
#include "common/sync.h"
#include "common/strings.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs_json_util.h"
#include "server/admission_queue.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/service.h"
#include "workload/querygen.h"

namespace sia::server {
namespace {

constexpr int64_t kIoMillis = 5000;

// --- protocol: request parsing ---------------------------------------------

TEST(ProtocolTest, ParseRequestVerbs) {
  auto ping = ParseRequest("PING");
  ASSERT_TRUE(ping.ok());
  EXPECT_EQ(ping->verb, kVerbPing);

  // Verbs are case-insensitive and tolerate surrounding whitespace.
  auto stats = ParseRequest("  stats  ");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->verb, kVerbStats);

  auto query = ParseRequest("QUERY\nSELECT l_orderkey FROM lineitem");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->verb, kVerbQuery);
  EXPECT_EQ(query->body, "SELECT l_orderkey FROM lineitem");
}

TEST(ProtocolTest, ParseRequestRejectsJunk) {
  EXPECT_FALSE(ParseRequest("").ok());
  EXPECT_FALSE(ParseRequest("EXPLODE").ok());
  EXPECT_FALSE(ParseRequest("QUERY").ok());        // no body
  EXPECT_FALSE(ParseRequest("QUERY\n   ").ok());   // blank body
  EXPECT_FALSE(ParseRequest(std::string("PI\0NG", 5)).ok());  // NUL bytes
  EXPECT_FALSE(ParseRequest("\xff\xfe garbage").ok());
}

// --- protocol: response round trips -----------------------------------------

TEST(ProtocolTest, QueryReplyRoundTrip) {
  QueryReply reply;
  reply.rewritten = true;
  reply.rung = "interval";
  reply.from_cache = true;
  reply.rewritten_sql =
      "SELECT * FROM lineitem WHERE l_quantity >= 1 AND l_tax = 0";
  reply.sql_hash = Fnv1a64(reply.rewritten_sql);
  reply.queue_us = 123;
  reply.rewrite_us = 4567;
  reply.exec_us = 89;
  reply.executed = true;
  reply.rows = 42;
  reply.content_hash = 0xdeadbeefcafef00dull;
  reply.order_hash = 0x0123456789abcdefull;

  auto parsed = ParseResponse(FormatOkQuery(reply));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->kind, ResponseKind::kOk);
  ASSERT_TRUE(parsed->query.has_value());
  const QueryReply& got = *parsed->query;
  EXPECT_EQ(got.rewritten, reply.rewritten);
  EXPECT_EQ(got.rung, reply.rung);
  EXPECT_EQ(got.from_cache, reply.from_cache);
  EXPECT_EQ(got.sql_hash, reply.sql_hash);
  // The SQL survives verbatim even though it contains '=' characters.
  EXPECT_EQ(got.rewritten_sql, reply.rewritten_sql);
  EXPECT_EQ(got.queue_us, reply.queue_us);
  EXPECT_EQ(got.rewrite_us, reply.rewrite_us);
  EXPECT_EQ(got.exec_us, reply.exec_us);
  EXPECT_TRUE(got.executed);
  EXPECT_EQ(got.rows, reply.rows);
  EXPECT_EQ(got.content_hash, reply.content_hash);
  EXPECT_EQ(got.order_hash, reply.order_hash);
  // And the digest rendering of both sides agrees.
  EXPECT_EQ(FormatDigestLine(7, got), FormatDigestLine(7, reply));
}

TEST(ProtocolTest, PingAndShedAndErrorRoundTrip) {
  auto pong = ParseResponse(FormatOkPing());
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(pong->kind, ResponseKind::kOk);
  EXPECT_EQ(pong->body, "pong");
  EXPECT_FALSE(pong->query.has_value());

  auto shed = ParseResponse(FormatShed(250));
  ASSERT_TRUE(shed.ok());
  EXPECT_EQ(shed->kind, ResponseKind::kShed);
  EXPECT_EQ(shed->retry_after_ms, 250);

  auto error = ParseResponse(
      FormatError(Status::ParseError("bad\nmultiline\rthing")));
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->kind, ResponseKind::kError);
  EXPECT_EQ(error->error.code(), StatusCode::kParseError);
  // Newlines were flattened so the status line stayed one line.
  EXPECT_EQ(error->error.message(), "bad multiline thing");

  EXPECT_FALSE(ParseResponse("").ok());
  EXPECT_FALSE(ParseResponse("WAT 17").ok());
  EXPECT_FALSE(ParseResponse("SHED").ok());
}

TEST(ProtocolTest, DigestLineFormat) {
  QueryReply reply;
  reply.rewritten = true;
  reply.rung = "full";
  reply.sql_hash = 0x1ull;
  EXPECT_EQ(FormatDigestLine(2021, reply),
            "workload:seed2021 rewritten=1 rung=full "
            "sql_hash=0000000000000001");
  reply.executed = true;
  reply.rows = 9;
  reply.content_hash = 0x2ull;
  reply.order_hash = 0x3ull;
  EXPECT_EQ(FormatDigestLine(2021, reply),
            "workload:seed2021 rewritten=1 rung=full "
            "sql_hash=0000000000000001 rows=9 "
            "content_hash=0000000000000002 order_hash=0000000000000003");
}

// --- admission queue ---------------------------------------------------------

AdmittedConn MakeConn(uint64_t stamp) {
  AdmittedConn item;
  item.conn = net::Socket(::socket(AF_INET, SOCK_STREAM, 0));
  item.admit_us = stamp;
  return item;
}

TEST(AdmissionQueueTest, FifoUpToDepthThenRefuses) {
  AdmissionQueue queue(2);
  EXPECT_TRUE(queue.TryPush(MakeConn(1)));
  EXPECT_TRUE(queue.TryPush(MakeConn(2)));

  // The refused item is NOT moved from: the acceptor still owns the
  // connection and can answer it with a SHED frame.
  AdmittedConn overflow = MakeConn(3);
  EXPECT_FALSE(queue.TryPush(std::move(overflow)));
  EXPECT_TRUE(overflow.conn.valid());

  auto first = queue.Pop();
  auto second = queue.Pop();
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(first->admit_us, 1u);
  EXPECT_EQ(second->admit_us, 2u);
}

TEST(AdmissionQueueTest, CloseDrainsBacklogThenReturnsNullopt) {
  AdmissionQueue queue(4);
  EXPECT_TRUE(queue.TryPush(MakeConn(1)));
  EXPECT_TRUE(queue.TryPush(MakeConn(2)));
  queue.Close();
  EXPECT_FALSE(queue.TryPush(MakeConn(3)));  // closed: refuse new work
  EXPECT_TRUE(queue.Pop().has_value());      // ... but drain the backlog
  EXPECT_TRUE(queue.Pop().has_value());
  EXPECT_FALSE(queue.Pop().has_value());     // drained: workers exit
}

TEST(AdmissionQueueTest, CloseWakesBlockedPop) {
  AdmissionQueue queue(1);
  Thread popper([&] { EXPECT_FALSE(queue.Pop().has_value()); });
  // Give the popper a moment to block, then close underneath it.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.Close();
  popper.Join();
}

// --- whole-server tests ------------------------------------------------------

ServerOptions FastServerOptions() {
  ServerOptions options;
  options.workers = 2;
  options.queue_depth = 16;
  options.io_timeout_ms = kIoMillis;
  options.drain_deadline_ms = 60000;
  // Small synthesis budget: these tests exercise the serving layer, not
  // synthesis quality.
  options.service.max_iterations = 2;
  return options;
}

Result<Response> RoundTrip(uint16_t port, std::string_view payload) {
  SIA_ASSIGN_OR_RETURN(net::Socket conn,
                       net::Connect("127.0.0.1", port, kIoMillis));
  SIA_RETURN_IF_ERROR(conn.SendFrame(payload, kIoMillis));
  SIA_ASSIGN_OR_RETURN(std::string frame, conn.RecvFrame(kIoMillis));
  return ParseResponse(frame);
}

TEST(ServerTest, PingStatsAndQuery) {
  auto server = SiaServer::Start(FastServerOptions());
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const uint16_t port = (*server)->port();

  auto pong = RoundTrip(port, "PING");
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_EQ(pong->kind, ResponseKind::kOk);
  EXPECT_EQ(pong->body, "pong");

  auto stats = RoundTrip(port, "STATS");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->kind, ResponseKind::kOk);
  // The snapshot is the src/obs JSON and carries the server catalog.
  EXPECT_NE(stats->body.find("server.requests.accepted"), std::string::npos);

  auto reply = RoundTrip(
      port,
      "QUERY\nSELECT l_orderkey FROM lineitem, orders "
      "WHERE o_orderkey = l_orderkey AND l_shipdate >= '1994-01-01'");
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->kind, ResponseKind::kOk);
  ASSERT_TRUE(reply->query.has_value());
  EXPECT_FALSE(reply->query->rewritten_sql.empty());
  EXPECT_EQ(reply->query->sql_hash, Fnv1a64(reply->query->rewritten_sql));

  // Bad SQL is an ERROR response, not a dropped connection.
  auto bad = RoundTrip(port, "QUERY\nSELEC nonsense");
  ASSERT_TRUE(bad.ok()) << bad.status().ToString();
  EXPECT_EQ(bad->kind, ResponseKind::kError);

  EXPECT_TRUE((*server)->DrainAndStop().ok());
  const ServerCounters counters = (*server)->counters();
  EXPECT_EQ(counters.accepted,
            counters.shed + counters.completed + counters.protocol_errors);
}

// Malformed and hostile frames: the server answers what it can, drops
// what it must, and keeps serving afterwards. Each attack runs against
// the same live server; the PING at the end proves none of them took it
// down.
TEST(ServerTest, MalformedFramesNeverKillTheServer) {
  ServerOptions options = FastServerOptions();
  options.io_timeout_ms = 2000;  // abandoned uploads give up quickly
  auto server = SiaServer::Start(options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const uint16_t port = (*server)->port();

  // Oversized length prefix: rejected before any payload allocation.
  {
    auto conn = net::Connect("127.0.0.1", port, kIoMillis);
    ASSERT_TRUE(conn.ok());
    const unsigned char huge[4] = {0x7f, 0xff, 0xff, 0xff};
    ASSERT_TRUE(conn->WriteAll(huge, sizeof(huge), kIoMillis).ok());
    auto answer = conn->RecvFrame(kIoMillis);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    auto parsed = ParseResponse(*answer);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->kind, ResponseKind::kError);
    EXPECT_EQ(parsed->error.code(), StatusCode::kParseError);
  }

  // Zero-length frame: same treatment.
  {
    auto conn = net::Connect("127.0.0.1", port, kIoMillis);
    ASSERT_TRUE(conn.ok());
    const unsigned char zero[4] = {0, 0, 0, 0};
    ASSERT_TRUE(conn->WriteAll(zero, sizeof(zero), kIoMillis).ok());
    auto answer = conn->RecvFrame(kIoMillis);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    auto parsed = ParseResponse(*answer);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->kind, ResponseKind::kError);
  }

  // Truncated payload: header promises 64 bytes, peer sends 5 and
  // vanishes. No response is owed; the server must just move on.
  {
    auto conn = net::Connect("127.0.0.1", port, kIoMillis);
    ASSERT_TRUE(conn.ok());
    const unsigned char header[4] = {0, 0, 0, 64};
    ASSERT_TRUE(conn->WriteAll(header, sizeof(header), kIoMillis).ok());
    ASSERT_TRUE(conn->WriteAll("PING!", 5, kIoMillis).ok());
    conn->Close();
  }

  // Premature close: connect and hang up without a byte.
  {
    auto conn = net::Connect("127.0.0.1", port, kIoMillis);
    ASSERT_TRUE(conn.ok());
    conn->Close();
  }

  // NUL and invalid-UTF-8 junk inside a well-formed frame: a protocol
  // ERROR, not a crash.
  {
    const std::string junk("QU\0ERY\n\xff\xfe\x01 SELECT", 17);
    auto parsed = RoundTrip(port, junk);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed->kind, ResponseKind::kError);
  }

  // Unknown verb.
  {
    auto parsed = RoundTrip(port, "EXPLODE\nnow");
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed->kind, ResponseKind::kError);
  }

  // The server is still alive and serving.
  auto pong = RoundTrip(port, "PING");
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_EQ(pong->kind, ResponseKind::kOk);

  EXPECT_TRUE((*server)->DrainAndStop().ok());
  const ServerCounters counters = (*server)->counters();
  EXPECT_EQ(counters.accepted,
            counters.shed + counters.completed + counters.protocol_errors);
  // The truncated upload and the premature close were both counted.
  EXPECT_GE(counters.protocol_errors, 2u);
}

// Queries that used to end the daemon in execution: a GROUP BY over a
// DOUBLE column (the aggregate read its empty int storage: SIGSEGV) and
// an INT64_MIN / -1 division in a predicate (SIGFPE). Each is answered,
// OK or a typed ERROR, and a PING still answers afterwards.
TEST(ServerTest, HostileQueriesNeverKillTheServer) {
  ServerOptions options = FastServerOptions();
  options.service.scale_factor = 0.002;  // execute every query
  auto server = SiaServer::Start(options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const uint16_t port = (*server)->port();

  const char* const kHostile[] = {
      "QUERY\nSELECT * FROM lineitem, orders WHERE o_orderkey = l_orderkey "
      "AND l_shipdate - o_orderdate < 20 GROUP BY l_extendedprice",
      "QUERY\nSELECT * FROM lineitem, orders WHERE o_orderkey = l_orderkey "
      "AND l_shipdate - o_orderdate < 20 AND (o_custkey - "
      "9223372036854775807 - o_custkey - 1) / (o_custkey - o_custkey - 1) "
      "> o_custkey",
  };
  for (const char* query : kHostile) {
    auto reply = RoundTrip(port, query);
    ASSERT_TRUE(reply.ok()) << query << ": " << reply.status().ToString();
    EXPECT_TRUE(reply->kind == ResponseKind::kOk ||
                reply->kind == ResponseKind::kError)
        << query;
  }

  auto pong = RoundTrip(port, "PING");
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_EQ(pong->kind, ResponseKind::kOk);
  EXPECT_TRUE((*server)->DrainAndStop().ok());
}

// Overload: one worker, a depth-4 queue, executions slowed by an
// injected per-scan latency, and a 64-connection burst. The queue fills,
// the overflow is shed with Retry-After hints, and every connection gets
// an answer — nothing hangs, nothing crashes.
TEST(ServerTest, BurstBeyondQueueDepthShedsExplicitly) {
  ServerOptions options = FastServerOptions();
  options.workers = 1;
  options.queue_depth = 4;
  options.retry_after_ms = 77;
  // Executing every query against a small data set, with each table scan
  // stalled, keeps the single worker busy for the whole burst (misses
  // never wait on synthesis, so synthesis cannot be what slows it).
  options.service.scale_factor = 0.001;
  auto server = SiaServer::Start(options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const uint16_t port = (*server)->port();
  ASSERT_TRUE(FaultRegistry::Instance()
                  .ArmFromSpec("engine.scan=latency:10")
                  .ok());

  const uint64_t shed_before =
      obs::MetricsRegistry::Instance().GetCounter("server.requests.shed")
          .Value();

  const Catalog catalog = Catalog::TpchCatalog();
  auto queries = GenerateWorkload(catalog, 64, {});
  ASSERT_TRUE(queries.ok());

  // Connect all 64 sockets first (the kernel completes the handshakes
  // against the listen backlog), then fire the requests together so the
  // burst hits the admission queue as one wave.
  std::vector<net::Socket> conns;
  for (size_t i = 0; i < queries->size(); ++i) {
    auto conn = net::Connect("127.0.0.1", port, kIoMillis);
    ASSERT_TRUE(conn.ok()) << conn.status().ToString();
    conns.push_back(std::move(*conn));
  }

  std::atomic<size_t> ok{0}, shed{0}, other{0};
  std::vector<Thread> threads;
  threads.reserve(conns.size());
  for (size_t i = 0; i < conns.size(); ++i) {
    threads.emplace_back([&, i] {
      const std::string payload = "QUERY\n" + (*queries)[i].sql;
      if (!conns[i].SendFrame(payload, kIoMillis).ok()) {
        other.fetch_add(1);
        return;
      }
      auto frame = conns[i].RecvFrame(60000);
      if (!frame.ok()) {
        other.fetch_add(1);
        return;
      }
      auto parsed = ParseResponse(*frame);
      if (!parsed.ok()) {
        other.fetch_add(1);
      } else if (parsed->kind == ResponseKind::kShed) {
        // The adaptive hint scales up from the configured base with
        // queue fullness and shed pressure, clamped at 32x.
        EXPECT_GE(parsed->retry_after_ms, 77);
        EXPECT_LE(parsed->retry_after_ms, 77 * 32);
        shed.fetch_add(1);
      } else if (parsed->kind == ResponseKind::kOk) {
        ok.fetch_add(1);
      } else {
        other.fetch_add(1);
      }
    });
  }
  for (Thread& t : threads) t.Join();
  FaultRegistry::Instance().DisarmAll();

  // Every connection was answered (zero hung/failed), some were served,
  // and the overflow was genuinely shed.
  EXPECT_EQ(other.load(), 0u);
  EXPECT_EQ(ok.load() + shed.load(), conns.size());
  EXPECT_GT(ok.load(), 0u);
  EXPECT_GT(shed.load(), 0u);

  EXPECT_TRUE((*server)->DrainAndStop().ok());
  const ServerCounters counters = (*server)->counters();
  EXPECT_EQ(counters.shed, shed.load());
  EXPECT_EQ(counters.accepted,
            counters.shed + counters.completed + counters.protocol_errors);
  const uint64_t shed_after =
      obs::MetricsRegistry::Instance().GetCounter("server.requests.shed")
          .Value();
  EXPECT_EQ(shed_after - shed_before, shed.load());
}

// Graceful drain: DrainAndStop() mid-burst completes every admitted
// request, every completed answer is byte-identical to a serial run of
// the same query, and the counter invariant holds. Late connections are
// either shed (accepted before the stop) or closed (after), never left
// hanging.
TEST(ServerTest, DrainMidBurstCompletesAdmittedRequests) {
  ServerOptions options = FastServerOptions();
  options.workers = 2;
  options.queue_depth = 32;
  auto server = SiaServer::Start(options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const uint16_t port = (*server)->port();

  const Catalog catalog = Catalog::TpchCatalog();
  auto queries = GenerateWorkload(catalog, 16, {});
  ASSERT_TRUE(queries.ok());

  std::atomic<size_t> responded{0};
  std::vector<std::optional<QueryReply>> replies(queries->size());
  std::vector<Thread> threads;
  threads.reserve(queries->size());
  for (size_t i = 0; i < queries->size(); ++i) {
    threads.emplace_back([&, i] {
      auto conn = net::Connect("127.0.0.1", port, kIoMillis);
      if (!conn.ok()) return;
      if (!conn->SendFrame("QUERY\n" + (*queries)[i].sql, kIoMillis).ok()) {
        return;
      }
      auto frame = conn->RecvFrame(60000);
      if (!frame.ok()) return;  // closed during drain: acceptable
      auto parsed = ParseResponse(*frame);
      if (parsed.ok() && parsed->kind == ResponseKind::kOk &&
          parsed->query.has_value()) {
        replies[i] = *parsed->query;
      }
      responded.fetch_add(1);
    });
  }

  // Let part of the burst land, then pull the plug.
  while (responded.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const Status drained = (*server)->DrainAndStop();
  EXPECT_TRUE(drained.ok()) << drained.ToString();
  for (Thread& t : threads) t.Join();

  const ServerCounters counters = (*server)->counters();
  EXPECT_EQ(counters.accepted,
            counters.shed + counters.completed + counters.protocol_errors);
  EXPECT_GT(counters.completed, 0u);

  // Serial reference: the same queries through a fresh QueryService must
  // produce identical digests. Without data no learned predicate can
  // earn promotion, so the server answers every query with the original
  // — exactly what a QueryService with no background lane answers.
  QueryService serial(options.service);
  size_t compared = 0;
  for (size_t i = 0; i < queries->size(); ++i) {
    if (!replies[i].has_value()) continue;
    auto reference =
        ParseResponse(serial.Handle("QUERY\n" + (*queries)[i].sql, 0));
    ASSERT_TRUE(reference.ok());
    ASSERT_TRUE(reference->query.has_value());
    EXPECT_EQ(FormatDigestLine((*queries)[i].seed, *replies[i]),
              FormatDigestLine((*queries)[i].seed, *reference->query))
        << "query " << i;
    ++compared;
  }
  EXPECT_GT(compared, 0u);

  // Idempotent: a second drain reports the same stored result.
  EXPECT_TRUE((*server)->DrainAndStop().ok());
}

// The tentpole guarantee: with background learning on, a cache miss is
// never blocked on synthesis. Every solver call is slowed by an injected
// 200ms latency, a 64-connection burst of 100% cache-miss queries is
// fired, and the p99 miss latency must stay within 2x the (cache-hit)
// repeat pass — both orders of magnitude below what one synchronous
// ladder run would cost under the fault.
TEST(ServerTest, MissesNeverBlockOnSynthesis) {
  ASSERT_TRUE(FaultRegistry::Instance()
                  .ArmFromSpec("smt.check=latency:200")
                  .ok());

  ServerOptions options = FastServerOptions();
  options.workers = 2;
  options.queue_depth = 128;  // nothing sheds; every request is measured
  options.service.background_budget_ms = 500;  // keep drain quick
  auto server = SiaServer::Start(options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const uint16_t port = (*server)->port();

  const Catalog catalog = Catalog::TpchCatalog();
  auto queries = GenerateWorkload(catalog, 64, {});
  ASSERT_TRUE(queries.ok());

  // One concurrent pass over all 64 queries, returning each request's
  // wall-clock latency in milliseconds (-1 on any failure).
  const auto burst = [&](std::vector<double>* latencies) {
    latencies->assign(queries->size(), -1.0);
    std::vector<Thread> threads;
    threads.reserve(queries->size());
    for (size_t i = 0; i < queries->size(); ++i) {
      threads.emplace_back([&, i] {
        const auto start = std::chrono::steady_clock::now();
        auto parsed = RoundTrip(port, "QUERY\n" + (*queries)[i].sql);
        if (parsed.ok() && parsed->kind == ResponseKind::kOk) {
          (*latencies)[i] =
              std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::steady_clock::now() - start)
                  .count() /
              1000.0;
        }
      });
    }
    for (Thread& t : threads) t.Join();
  };
  const auto percentile = [](std::vector<double> v, double p) {
    std::sort(v.begin(), v.end());
    return v[static_cast<size_t>(p * (v.size() - 1))];
  };

  std::vector<double> miss_ms, hit_ms;
  burst(&miss_ms);  // every key is new: 100% cache misses
  burst(&hit_ms);   // every key is resident (synthesizing or beyond)
  FaultRegistry::Instance().DisarmAll();

  for (size_t i = 0; i < queries->size(); ++i) {
    EXPECT_GE(miss_ms[i], 0.0) << "miss request " << i << " failed";
    EXPECT_GE(hit_ms[i], 0.0) << "hit request " << i << " failed";
  }
  const double p99_miss = percentile(miss_ms, 0.99);
  // The generous floor absorbs scheduler noise under TSan; the bound
  // still sits far below the 200ms single-solver-call injection (a
  // synchronous ladder run fires many).
  const double hit_bound = std::max(percentile(hit_ms, 0.99), 50.0);
  EXPECT_LE(p99_miss, 2.0 * hit_bound)
      << "a cache miss waited on synthesis (p99 " << p99_miss << "ms)";
  EXPECT_LT(p99_miss, 200.0);

  EXPECT_TRUE((*server)->DrainAndStop().ok());
  const ServerCounters counters = (*server)->counters();
  EXPECT_EQ(counters.accepted,
            counters.shed + counters.completed + counters.protocol_errors);
  // Drain left nothing wedged mid-synthesis.
  EXPECT_EQ((*server)->service().cache().stats().synthesizing, 0u);
}

// Auto-demotion: an injected always-wrong rewrite (promote.bad_rewrite
// force-promotes a contradiction) is caught by the shadow digest
// cross-check on its first sampled serve — every client still gets the
// original's digests — and is evicted before a third request could ever
// meet it.
TEST(ServiceTest, BadRewriteDemotedBeforeThirdServe) {
  obs::MetricsRegistry::SetEnabled(true);
  ASSERT_TRUE(FaultRegistry::Instance()
                  .ArmFromSpec("promote.bad_rewrite=always")
                  .ok());
  const uint64_t mismatches_before =
      obs::MetricsRegistry::Instance()
          .GetCounter("rewrite.promote.digest_mismatch")
          .Value();

  ServiceOptions options;
  options.scale_factor = 0.002;
  options.max_iterations = 2;
  options.shadow_sample_rate = 1.0;  // every eligible serve cross-checks
  options.promote_after = 2;
  QueryService service(options);
  service.StartBackground(nullptr);  // dedicated drainer thread

  const std::string payload =
      "QUERY\nSELECT l_orderkey FROM lineitem, orders "
      "WHERE o_orderkey = l_orderkey AND l_shipdate >= '1994-01-01'";
  const auto serve = [&]() -> QueryReply {
    auto parsed = ParseResponse(service.Handle(payload, 0));
    EXPECT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->kind, ResponseKind::kOk) << parsed->error.ToString();
    EXPECT_TRUE(parsed->query.has_value());
    return parsed->query.value_or(QueryReply{});
  };

  // Request 1 misses, enqueues, and serves the original — its digests
  // are the ground truth for every later serve.
  const QueryReply reference = serve();
  ASSERT_TRUE(reference.executed);

  // Wait for the background job: the fault force-promotes the planted
  // contradiction.
  for (int i = 0; i < 1000 && service.cache().stats().promoted == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(service.cache().stats().promoted, 1u) << "background job stuck";

  // Request 2 serves the promoted rewrite, sampled: the paranoid
  // cross-check sees the digest mismatch, serves the original's result,
  // and poisons the entry.
  const QueryReply second = serve();
  EXPECT_EQ(second.rows, reference.rows);
  EXPECT_EQ(second.content_hash, reference.content_hash);
  EXPECT_GE(obs::MetricsRegistry::Instance()
                .GetCounter("rewrite.promote.digest_mismatch")
                .Value(),
            mismatches_before + 1);
  EXPECT_EQ(service.cache().stats().poisoned, 1u);

  // Request 3 never meets the bad rewrite: the predicate was evicted.
  const QueryReply third = serve();
  EXPECT_EQ(third.rows, reference.rows);
  EXPECT_EQ(third.content_hash, reference.content_hash);
  EXPECT_FALSE(third.rewritten);

  FaultRegistry::Instance().DisarmAll();
  service.DrainBackground();
  EXPECT_EQ(service.cache().stats().synthesizing, 0u);
}

// --- live telemetry -----------------------------------------------------

// The tentpole acceptance test: one trace ID, minted at admission, links
// the miss request's accept span, the background synthesis job it
// enqueued, and the promotion decision that job's predicate eventually
// earned — three spans, three threads, one trace.
TEST(ServerTest, TraceChainLinksAdmissionSynthesisAndPromotion) {
  obs::MetricsRegistry::SetEnabled(true);
  obs::Tracer::SetEnabled(true);
  obs::Tracer::Instance().Clear();

  ServerOptions options = FastServerOptions();
  options.queue_depth = 128;
  options.service.scale_factor = 0.002;
  // Deep enough to actually learn predicates: a null-predicate entry
  // promotes straight from CompleteSynthesis and never meets
  // RecordShadow, which is the span under test.
  options.service.max_iterations = 6;
  options.service.shadow_sample_rate = 1.0;  // every serve gathers evidence
  options.service.promote_after = 1;
  options.service.background_budget_ms = 5000;
  auto server = SiaServer::Start(options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const uint16_t port = (*server)->port();

  const Catalog catalog = Catalog::TpchCatalog();
  auto queries = GenerateWorkload(catalog, 8, {});
  ASSERT_TRUE(queries.ok());

  // Pass 1 misses and enqueues; later passes shadow-run the quarantined
  // candidates until at least one earns promotion *through evidence*
  // (the rewrite.promote.promoted counter only moves inside
  // RecordShadow — null-predicate entries that promote straight from
  // CompleteSynthesis don't count).
  obs::Counter& promoted =
      obs::MetricsRegistry::Instance().GetCounter("rewrite.promote.promoted");
  const uint64_t promoted_before = promoted.Value();
  for (int pass = 0; pass < 30; ++pass) {
    for (const GeneratedQuery& q : *queries) {
      auto parsed = RoundTrip(port, "QUERY\n" + q.sql);
      ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
      ASSERT_EQ(parsed->kind, ResponseKind::kOk)
          << parsed->error.ToString();
    }
    if (promoted.Value() > promoted_before) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  ASSERT_GT(promoted.Value(), promoted_before)
      << "no entry earned an evidence-based promotion";
  EXPECT_TRUE((*server)->DrainAndStop().ok());

  // Every promotion decision must link back to a trace that also holds
  // the originating request's admission span and its synthesis job.
  std::set<uint64_t> accept_traces, synth_traces, decision_traces;
  for (const obs::TraceEvent& e : obs::Tracer::Instance().CollectEvents()) {
    if (e.trace_id == 0) continue;
    if (e.name == "server.accept") accept_traces.insert(e.trace_id);
    if (e.name == "rewrite.background.synthesize") {
      synth_traces.insert(e.trace_id);
    }
    if (e.name == "rewrite.promote.decision") {
      decision_traces.insert(e.trace_id);
    }
  }
  ASSERT_FALSE(synth_traces.empty()) << "no traced synthesis job";
  ASSERT_FALSE(decision_traces.empty()) << "no traced promotion decision";
  bool chained = false;
  for (const uint64_t id : decision_traces) {
    if (accept_traces.contains(id) && synth_traces.contains(id)) {
      chained = true;
      break;
    }
  }
  EXPECT_TRUE(chained)
      << "no single trace ID links admission -> synthesis -> decision";
  // Background jobs only ever run with a requester's context: a
  // synthesis span without an admission span would mean the ID was
  // minted somewhere other than accept.
  for (const uint64_t id : synth_traces) {
    EXPECT_TRUE(accept_traces.contains(id))
        << "synthesis trace " << id << " has no admission span";
  }
  obs::Tracer::SetEnabled(false);
}

// OBSERVE is a read-only probe: polling it at 10 Hz through a concurrent
// burst must not change a single answer digest, and every reply must be
// well-formed JSON. (The p99-latency overhead guard lives in
// scripts/check.sh --serve-smoke, where timing is not sanitizer-skewed.)
TEST(ServerTest, ObservePollingDoesNotPerturbAnswers) {
  obs::MetricsRegistry::SetEnabled(true);

  const Catalog catalog = Catalog::TpchCatalog();
  auto queries = GenerateWorkload(catalog, 32, {});
  ASSERT_TRUE(queries.ok());

  struct Digest {
    uint64_t rows = 0;
    uint64_t content_hash = 0;
    uint64_t order_hash = 0;
  };
  // One concurrent pass over the workload against a fresh server;
  // when `poll` is set, a 10 Hz OBSERVE poller runs throughout.
  const auto run = [&](bool poll, std::vector<Digest>* digests) {
    ServerOptions options = FastServerOptions();
    options.queue_depth = 128;
    options.service.scale_factor = 0.002;
    auto server = SiaServer::Start(options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    const uint16_t port = (*server)->port();

    std::atomic<bool> stop{false};
    std::atomic<int> polls{0};
    std::atomic<int> poll_failures{0};
    Thread poller([&]() {
      while (!poll || !stop.load(std::memory_order_relaxed)) {
        if (!poll) return;
        auto parsed = RoundTrip(port, "OBSERVE");
        if (!parsed.ok() || parsed->kind != ResponseKind::kOk ||
            !sia::test_json::IsValidJson(parsed->body)) {
          poll_failures.fetch_add(1);
        }
        polls.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
    });

    digests->assign(queries->size(), Digest{});
    std::vector<Thread> threads;
    threads.reserve(queries->size());
    for (size_t i = 0; i < queries->size(); ++i) {
      threads.emplace_back([&, i] {
        auto parsed = RoundTrip(port, "QUERY\n" + (*queries)[i].sql);
        ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
        ASSERT_EQ(parsed->kind, ResponseKind::kOk)
            << parsed->error.ToString();
        ASSERT_TRUE(parsed->query.has_value());
        ASSERT_TRUE(parsed->query->executed);
        (*digests)[i] = Digest{parsed->query->rows,
                               parsed->query->content_hash,
                               parsed->query->order_hash};
      });
    }
    for (Thread& t : threads) t.Join();
    stop.store(true, std::memory_order_relaxed);
    poller.Join();
    if (poll) {
      EXPECT_GT(polls.load(), 0);
      EXPECT_EQ(poll_failures.load(), 0);
    }
    EXPECT_TRUE((*server)->DrainAndStop().ok());
  };

  std::vector<Digest> quiet, polled;
  run(false, &quiet);
  run(true, &polled);
  for (size_t i = 0; i < queries->size(); ++i) {
    EXPECT_EQ(polled[i].rows, quiet[i].rows) << i;
    EXPECT_EQ(polled[i].content_hash, quiet[i].content_hash) << i;
    EXPECT_EQ(polled[i].order_hash, quiet[i].order_hash) << i;
  }
}

// A stalled OBSERVE (obs.observe.latency) occupies one worker slot and
// nothing else: admission keeps admitting, other workers keep serving,
// and the drain completes. The telemetry path may be slow; the serving
// path must not notice.
TEST(ServerTest, SlowObserveNeverStallsServing) {
  obs::MetricsRegistry::SetEnabled(true);
  ASSERT_TRUE(FaultRegistry::Instance()
                  .ArmFromSpec("obs.observe.latency=latency:1000")
                  .ok());

  ServerOptions options = FastServerOptions();
  options.workers = 2;
  auto server = SiaServer::Start(options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const uint16_t port = (*server)->port();

  // The observer sleeps 1s inside the handler on one worker...
  Thread observer([&]() {
    auto parsed = RoundTrip(port, "OBSERVE");
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed->kind, ResponseKind::kOk);
  });
  // ...while the other worker answers pings the entire time.
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 5; ++i) {
    auto pong = RoundTrip(port, "PING");
    ASSERT_TRUE(pong.ok()) << pong.status().ToString();
    EXPECT_EQ(pong->kind, ResponseKind::kOk);
  }
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  // Five pings through the free worker finish well inside the 1000ms
  // the observer spends asleep (generous bound for sanitizer noise).
  EXPECT_LT(elapsed_ms, 900) << "serving stalled behind a slow OBSERVE";
  observer.Join();
  FaultRegistry::Instance().DisarmAll();
  EXPECT_TRUE((*server)->DrainAndStop().ok());
}

}  // namespace
}  // namespace sia::server
