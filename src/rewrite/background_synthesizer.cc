#include "rewrite/background_synthesizer.h"

#include <utility>

#include "common/deadline.h"
#include "common/fault_injection.h"
#include "common/stopwatch.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sia {

BackgroundSynthesizer::BackgroundSynthesizer(RewriteCache* cache,
                                             Options options)
    : cache_(cache),
      options_(std::move(options)),
      thread_([this] { ThreadLoop(); }) {}

BackgroundSynthesizer::~BackgroundSynthesizer() { DrainAndStop(); }

bool BackgroundSynthesizer::Enqueue(BackgroundJob job) {
  {
    MutexLock lock(&mu_);
    if (draining_ || queue_.size() >= options_.queue_depth) {
      lock.Unlock();
      // Shedding a job must release its kSynthesizing marker, or the key
      // would wedge until process exit.
      SIA_COUNTER_INC("rewrite.background.dropped");
      SIA_EVENT("rewrite.background.dropped", "queue full or draining");
      cache_->AbortSynthesis(job.bound, job.cols);
      return false;
    }
    queue_.push_back(std::move(job));
    if (obs::MetricsRegistry::Enabled()) {
      obs::SetGauge("rewrite.background.queue_depth",
                    static_cast<double>(queue_.size()));
    }
  }
  SIA_COUNTER_INC("rewrite.background.enqueued");
  cv_.NotifyOne();
  return true;
}

void BackgroundSynthesizer::ThreadLoop() {
  for (;;) {
    BackgroundJob job;
    {
      MutexLock lock(&mu_);
      while (!draining_ && queue_.empty()) cv_.Wait(&mu_);
      if (draining_) return;  // DrainAndStop owns whatever was queued
      job = std::move(queue_.front());
      queue_.pop_front();
      if (obs::MetricsRegistry::Enabled()) {
        obs::SetGauge("rewrite.background.queue_depth",
                      static_cast<double>(queue_.size()));
      }
    }
    RunJob(job);
  }
}

void BackgroundSynthesizer::DrainAndStop() {
  std::deque<BackgroundJob> orphans;
  {
    MutexLock lock(&mu_);
    draining_ = true;
    orphans.swap(queue_);
    if (obs::MetricsRegistry::Enabled() && !orphans.empty()) {
      obs::SetGauge("rewrite.background.queue_depth", 0.0);
    }
  }
  cv_.NotifyAll();
  for (const BackgroundJob& orphan : orphans) {
    SIA_COUNTER_INC("rewrite.background.dropped");
    cache_->AbortSynthesis(orphan.bound, orphan.cols);
  }
  // The in-flight job, if any, publishes or aborts its own marker before
  // the thread sees draining_ and exits.
  if (thread_.Joinable()) thread_.Join();
}

void BackgroundSynthesizer::RunJob(const BackgroundJob& job) {
  // Continue the admitting request's trace on the learner thread.
  obs::TraceContext trace_ctx(job.trace_id);
  obs::TraceSpan span("rewrite.background.synthesize");
  Stopwatch timer;

  Status injected;
  if (FaultRegistry::Enabled()) {
    FaultRegistry& faults = FaultRegistry::Instance();
    injected = faults.Fire("background.synth.latency");
    if (injected.ok()) injected = faults.Fire("background.synth.crash");
  }

  Result<LadderRun> run = [&]() -> Result<LadderRun> {
    if (!injected.ok()) return injected;
    RewriteOptions opts = options_.rewrite;
    // A background job gets its own budget, not the admitting request's
    // (long-replied, likely exhausted) deadline.
    opts.synthesis.budget.deadline =
        Deadline::FromNowMillis(options_.budget_ms);
    return RunSynthesisLadder(job.bound, job.joint, job.cols, opts);
  }();
  if (!run.ok()) {
    // A crashed job releases its marker: the key stays re-queueable and
    // the next miss simply tries again.
    cache_->AbortSynthesis(job.bound, job.cols);
    SIA_COUNTER_INC("rewrite.background.failed");
    return;
  }

  bool force_promote = false;
  if (FaultRegistry::Enabled() && !job.cols.empty() &&
      !FaultRegistry::Instance().Fire("promote.bad_rewrite").ok()) {
    // Adversarial fault: publish a contradiction (col < -4e9 underflows
    // every integral TPC-H column) and push it straight to kPromoted, so
    // the shadow cross-check — not synthesis-time verification — must be
    // what catches it.
    for (const size_t c : job.cols) {
      const ColumnDef& col = job.joint.column(c);
      if (!IsIntegral(col.type) || col.type == DataType::kBoolean) continue;
      run->learned = Expr::Compare(
          CompareOp::kLt, Expr::BoundColumn(col.table, col.name, c, col.type),
          Expr::IntLit(-4000000000LL));
      run->synthesis.status = SynthesisStatus::kValid;
      run->synthesis.predicate = run->learned;
      run->rung = RewriteRung::kFull;
      force_promote = true;
      break;
    }
  }

  RewriteCache::Entry entry;
  entry.status = run->synthesis.status;
  entry.predicate = run->learned;
  entry.rung = run->rung;
  const ExprPtr predicate = entry.predicate;
  const Status published =
      cache_->CompleteSynthesis(job.bound, job.cols, std::move(entry));
  if (!published.ok()) {
    // The marker vanished (aborted by a drop/drain race, or the cache
    // was cleared). Nothing to publish against; the work is discarded.
    SIA_COUNTER_INC("rewrite.background.failed");
    return;
  }
  SIA_COUNTER_INC("rewrite.background.completed");
  SIA_HISTOGRAM_RECORD("rewrite.background.synth_ms", timer.ElapsedMillis());
  if (predicate == nullptr) return;  // "nothing to learn" self-promotes

  if (force_promote) {
    ShadowOutcome win;
    win.original_ms = 10.0;
    win.rewritten_ms = 0.0;
    for (int i = 0; i < options_.policy.promote_after; ++i) {
      auto state = cache_->RecordShadow(job.bound, job.cols, win,
                                        options_.policy, /*now_ms=*/0);
      if (!state.ok() || *state == EntryState::kPromoted) break;
    }
    return;
  }
  if (options_.evidence) {
    obs::TraceSpan shadow_span("rewrite.background.shadow");
    options_.evidence(job, predicate);
  }
}

}  // namespace sia
