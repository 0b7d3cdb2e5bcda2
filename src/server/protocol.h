#ifndef SIA_SERVER_PROTOCOL_H_
#define SIA_SERVER_PROTOCOL_H_

// The sia_serve wire protocol, one layer above common/net.h framing.
//
// Every frame payload is UTF-8 text. Requests are a verb line, optionally
// followed by a body:
//
//   PING                     liveness probe
//   STATS                    src/obs metrics snapshot (JSON), lifetime
//                            totals plus rolling 1s/10s/60s windows
//   OBSERVE                  live-telemetry snapshot (JSON): windowed
//                            metrics, recent events, per-entry cache
//                            states — what sia_top polls
//   QUERY\n<sql>             rewrite (and, when the server holds data,
//                            execute) one SELECT statement
//
// Responses start with a status line:
//
//   OK                       request served; body follows
//   SHED retry_after_ms=<N>  load-shed: the admission queue was full.
//                            <N> is the server's Retry-After hint
//   ERROR <Code>: <message>  the request failed; <Code> is a
//                            StatusCodeName (ParseError, Timeout, ...)
//
// An OK QUERY response body is `key=value` lines (one per line, keys in
// a fixed order) with `rewritten_sql=` last, since SQL text is the one
// value that may contain '='. Numeric hashes are 16 lowercase hex
// digits (common/strings.h HexDigest64 of an Fnv1a64).
//
// The same module formats sia_lint / sia_client *digest lines* — the
// canonical one-line-per-query records scripts/check.sh diffs between a
// served run and a batch sia_lint run. Keeping both renderings here is
// what makes "byte-identical" a compile-time property rather than two
// tools' printf calls staying in sync by luck.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/status.h"

namespace sia::server {

// Request verbs.
inline constexpr std::string_view kVerbPing = "PING";
inline constexpr std::string_view kVerbStats = "STATS";
inline constexpr std::string_view kVerbObserve = "OBSERVE";
inline constexpr std::string_view kVerbQuery = "QUERY";

struct Request {
  std::string verb;  // uppercased
  std::string body;  // SQL for QUERY; empty otherwise
};

// Splits a request payload into verb + body. kParseError on an empty
// payload, an unknown verb, embedded NUL bytes, or a missing QUERY body.
[[nodiscard]] Result<Request> ParseRequest(std::string_view payload);

// Per-request outcome fields carried in an OK QUERY response.
struct QueryReply {
  bool rewritten = false;    // a predicate was learned and conjoined
  std::string rung;          // degradation-ladder rung name
  bool from_cache = false;   // a promoted cached rewrite was served
  uint64_t sql_hash = 0;     // Fnv1a64 of the rewritten SQL text
  std::string rewritten_sql;
  int64_t queue_us = 0;      // admission-queue wait
  int64_t rewrite_us = 0;
  int64_t exec_us = 0;
  // Execution digests; present only when the server executes queries
  // (scale_factor > 0).
  bool executed = false;
  uint64_t rows = 0;
  uint64_t content_hash = 0;
  uint64_t order_hash = 0;
};

// --- Response rendering (server side) ---
std::string FormatOkPing();
std::string FormatOkStats(std::string_view metrics_json);
std::string FormatOkQuery(const QueryReply& reply);
std::string FormatShed(int64_t retry_after_ms);
std::string FormatError(const Status& status);

// --- Response parsing (client side) ---
enum class ResponseKind { kOk, kShed, kError };

struct Response {
  ResponseKind kind = ResponseKind::kError;
  std::string body;               // lines after the status line
  int64_t retry_after_ms = 0;     // kShed
  Status error;                   // kError: reconstructed Status
  // kOk QUERY responses parsed into fields; nullopt when the body is not
  // a QUERY reply (PING/STATS).
  std::optional<QueryReply> query;
};

[[nodiscard]] Result<Response> ParseResponse(std::string_view payload);

// --- Digest lines (shared by sia_lint --digests-out and sia_client) ---
//
//   workload:seed<seed> rewritten=<0|1> rung=<rung> sql_hash=<hex>
//   [rows=<n> content_hash=<hex> order_hash=<hex>]
//
// Deliberately excludes from_cache and timings: those are legitimately
// different between a serial lint, a batch lint, and a served run over
// the same workload, while everything above must be identical.
std::string FormatDigestLine(uint64_t seed, const QueryReply& reply);

}  // namespace sia::server

#endif  // SIA_SERVER_PROTOCOL_H_
