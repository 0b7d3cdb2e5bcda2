#ifndef SIA_REWRITE_BACKGROUND_SYNTHESIZER_H_
#define SIA_REWRITE_BACKGROUND_SYNTHESIZER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "common/sync.h"
#include "parser/ast.h"
#include "rewrite/rewrite_cache.h"
#include "rewrite/sia_rewriter.h"
#include "types/schema.h"

namespace sia {

// One unit of background learning work: everything RunSynthesisLadder
// needs for a key (the serving path computed it via MakeRewriteKey and
// inserted the kSynthesizing marker before enqueueing), plus the parsed
// query so the evidence callback can paranoid-run candidate rewrites.
struct BackgroundJob {
  ExprPtr bound;             // bound WHERE clause (the cache key)
  std::vector<size_t> cols;  // Cols' (the cache key)
  Schema joint;
  ParsedQuery query;
  // The admitting request's trace ID (obs::CurrentTraceId() at enqueue):
  // RunJob reinstalls it so the synthesis and evidence spans link into
  // the trace of the miss that queued them. 0 = untraced.
  uint64_t trace_id = 0;
};

// Runs the synthesis ladder off the serving path: a bounded, droppable
// job queue drained one job at a time by the learner thread this class
// owns. Serving threads only enqueue, so no request ever waits on
// synthesis.
//
// Every job this class accepts owns its key's kSynthesizing marker in
// the RewriteCache. The invariant enforced here is that the marker is
// ALWAYS released — CompleteSynthesis on success, AbortSynthesis on
// every failure path (drop at enqueue, injected crash, ladder error,
// drain) — so a key can never wedge in kSynthesizing.
//
// Layering: src/rewrite cannot link the engine, so the evidence loop
// (paranoid shadow executions feeding RecordShadow) is injected by the
// owner (src/server QueryService) as a callback run after a successful
// publish.
class BackgroundSynthesizer {
 public:
  // Gathers promotion evidence for a freshly quarantined entry:
  // `predicate` is the learned predicate just published for `job`'s key.
  // Runs on the learner thread; implementations shadow-execute and call
  // RewriteCache::RecordShadow.
  using EvidenceFn =
      std::function<void(const BackgroundJob& job, const ExprPtr& predicate)>;

  struct Options {
    // Ladder configuration (target table, synthesis options). The
    // deadline of its synthesis.budget is replaced per job by a fresh
    // one of budget_ms; the per-call cap is kept.
    RewriteOptions rewrite;
    // Per-job wall-clock budget. Background jobs deliberately do NOT
    // inherit the admitting request's deadline — that deadline is
    // scoped to a reply that has long been sent (and is typically
    // nearly exhausted), and a learned predicate benefits every future
    // request, so it gets its own clock.
    int64_t budget_ms = 2000;
    // Jobs queued beyond this are dropped (markers aborted) — learning
    // is best-effort and must shed before it backs up the server.
    size_t queue_depth = 64;
    // Thresholds used by the force-promote fault path (the real
    // evidence loop carries its own copy inside `evidence`).
    PromotionPolicy policy;
    EvidenceFn evidence;  // optional; null skips evidence gathering
  };

  // `cache` is borrowed and must outlive this object. Starts the
  // learner thread.
  BackgroundSynthesizer(RewriteCache* cache, Options options);

  // Drains on destruction (idempotent with an earlier DrainAndStop).
  ~BackgroundSynthesizer();

  BackgroundSynthesizer(const BackgroundSynthesizer&) = delete;
  BackgroundSynthesizer& operator=(const BackgroundSynthesizer&) = delete;

  // Hands a job to the learner thread. Returns false — after releasing
  // the job's kSynthesizing marker so the key stays re-queueable — when
  // the queue is full or draining has begun. Never blocks on synthesis.
  bool Enqueue(BackgroundJob job) SIA_EXCLUDES(mu_);

  // Stops accepting jobs, aborts everything still queued (their keys
  // become re-queueable) and joins the learner thread, which finishes
  // the in-flight job, if any, first. Idempotent; called by QueryService
  // teardown and by the server's drain path. The rewrite.background.*
  // counters account for every job.
  void DrainAndStop() SIA_EXCLUDES(mu_);

 private:
  // The learner thread's body: runs queued jobs one at a time until
  // draining begins.
  void ThreadLoop() SIA_EXCLUDES(mu_);
  // Synthesizes one job and publishes or aborts its marker.
  void RunJob(const BackgroundJob& job);

  RewriteCache* const cache_;
  const Options options_;

  Mutex mu_;
  CondVar cv_;
  std::deque<BackgroundJob> queue_ SIA_GUARDED_BY(mu_);
  bool draining_ SIA_GUARDED_BY(mu_) = false;
  // Declared last: it runs ThreadLoop over everything above.
  Thread thread_;
};

}  // namespace sia

#endif  // SIA_REWRITE_BACKGROUND_SYNTHESIZER_H_
