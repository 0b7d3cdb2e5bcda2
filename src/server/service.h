#ifndef SIA_SERVER_SERVICE_H_
#define SIA_SERVER_SERVICE_H_

// The per-request brains of sia_serve, separated from the threading in
// server.h: given one request payload, produce one response payload.
// QueryService owns everything a request needs — the TPC-H catalog, the
// process-lifetime RewriteCache (the §6.2 "optimize once, serve many"
// deployment mode), and optionally generated TPC-H data plus an Executor
// so QUERY responses carry result digests.
//
// Handle() is called concurrently from every worker; all shared state is
// either immutable after construction (catalog, tables) or internally
// synchronized (RewriteCache, BackgroundSynthesizer, Executor's shared
// pool).

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "catalog/catalog.h"
#include "engine/executor.h"
#include "engine/runner.h"
#include "engine/tpch_gen.h"
#include "obs/window.h"
#include "rewrite/background_synthesizer.h"
#include "rewrite/rewrite_cache.h"
#include "rewrite/sia_rewriter.h"
#include "server/protocol.h"

namespace sia::server {

struct ServiceOptions {
  // Rewrite configuration, mirroring sia_lint's flags so a served run
  // and a batch lint run can be configured identically.
  std::string target_table = "lineitem";
  int max_iterations = 0;        // 0 = synthesizer default
  // When > 0, generate TPC-H data at this scale factor and execute every
  // rewritten query, reporting result digests in the response.
  double scale_factor = 0;
  uint64_t data_seed = 42;

  // --- background learning loop ("never synthesize on the serving
  // path"): a cache miss is answered immediately with the original query
  // and the key is queued for background synthesis; entries then earn
  // promotion on measured shadow evidence.
  int promote_after = 3;           // shadow wins required to promote
  int demote_after = 3;            // shadow losses that demote
  double shadow_sample_rate = 0.1; // fraction of eligible serves shadowed
  int64_t demote_ttl_ms = 60000;   // demoted -> re-queue after this long
  int64_t background_budget_ms = 2000;  // per-job synthesis budget
  size_t background_queue_depth = 64;   // queued jobs beyond this drop
};

// Renders the protocol reply fields for a rewrite outcome. Shared with
// sia_lint --digests-out so both sides compute sql_hash/rung/rewritten
// from the same code.
QueryReply ReplyFromOutcome(const RewriteOutcome& outcome);

// Executes `query` and folds row_count/content_hash/order_hash into
// `reply`. Shared with sia_lint --execute-sf.
[[nodiscard]] Status ExecuteInto(const ParsedQuery& query, const Catalog& catalog,
                   Executor& executor, QueryReply* reply);

class QueryService {
 public:
  // Loads the data (when scale_factor > 0) and starts the background
  // learning loop's learner thread.
  explicit QueryService(const ServiceOptions& options);

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  // Stops background learning: queued jobs are aborted (their keys
  // become re-queueable), the in-flight one finishes. Idempotent; the
  // server's drain path calls it once its workers have exited, and
  // destruction does it too.
  void DrainBackground();

  // Serves one request; never throws and always returns a well-formed
  // response payload (failures become ERROR frames). `queue_us` is the
  // admission-queue wait the server measured for this request.
  std::string Handle(std::string_view payload, int64_t queue_us);

  bool executes() const { return data_.has_value(); }
  const Catalog& catalog() const { return catalog_; }
  RewriteCache& cache() { return cache_; }

 private:
  // The OBSERVE verb: windowed metrics + recent events + per-entry cache
  // states as one JSON document. Pull-side only — it samples and
  // renders, never touching serving state beyond read-only snapshots.
  std::string HandleObserve();
  // The serving path: consult the cache state machine, maybe enqueue,
  // never synthesize; then execute (or shadow) when data is loaded.
  std::string HandleQuery(const std::string& sql, int64_t queue_us);
  // Paranoid-executes `rewritten` against `original`, folds the evidence
  // into the cache entry for (bound, cols), and fills `reply` with the
  // servable digests (the rewrite's only when `serve_rewrite` and the
  // cross-check passed; the original's otherwise).
  [[nodiscard]] Status ShadowExecute(const ParsedQuery& original,
                                     const ParsedQuery& rewritten,
                                     bool serve_rewrite, const ExprPtr& bound,
                                     const std::vector<size_t>& cols,
                                     QueryReply* reply);
  // Folds one paranoid run into the promotion state of the entry for
  // (bound, cols); the one place shadow evidence enters the cache.
  [[nodiscard]] Result<EntryState> RecordEvidence(
      const ExprPtr& bound, const std::vector<size_t>& cols,
      const ParanoidReport& report);
  // Deterministic Bernoulli(shadow_sample_rate) over the request ticket
  // sequence — no RNG state on the hot path.
  bool SampleShadow();
  // The learner's configuration, evidence loop included.
  BackgroundSynthesizer::Options LearnerOptions();

  ServiceOptions options_;
  PromotionPolicy policy_;
  Catalog catalog_;
  RewriteCache cache_;
  std::optional<TpchData> data_;
  Executor executor_;  // used only when data_ is populated
  std::atomic<uint64_t> shadow_ticket_{0};
  // Rolling 1s/10s/60s windows over the registry, sampled by the STATS
  // and OBSERVE readers (never by the serving path).
  obs::WindowedStats windows_;
  // Declared last, so it is destroyed (drained, its thread joined)
  // before the cache, data and executor its jobs use.
  BackgroundSynthesizer synthesizer_;
};

}  // namespace sia::server

#endif  // SIA_SERVER_SERVICE_H_
