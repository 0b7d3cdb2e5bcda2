#include "rewrite/rewrite_cache.h"

#include <utility>

#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sia {
namespace {

// A fresh kSynthesizing marker, linked to the trace of the request whose
// miss created it.
RewriteCache::Entry NewMarker() {
  RewriteCache::Entry marker;
  marker.state = EntryState::kSynthesizing;
  marker.origin_trace_id = obs::CurrentTraceId();
  return marker;
}

}  // namespace

const char* EntryStateName(EntryState state) {
  switch (state) {
    case EntryState::kSynthesizing:
      return "synthesizing";
    case EntryState::kQuarantined:
      return "quarantined";
    case EntryState::kPromoted:
      return "promoted";
    case EntryState::kDemoted:
      return "demoted";
  }
  return "?";
}

const char* RewriteRungName(RewriteRung rung) {
  switch (rung) {
    case RewriteRung::kFull:
      return "full";
    case RewriteRung::kInterval:
      return "interval";
    case RewriteRung::kOriginal:
      return "original";
  }
  return "?";
}

std::string RewriteCache::MakeKey(const ExprPtr& bound_predicate,
                                  const std::vector<size_t>& cols) {
  std::string key = bound_predicate->ToString();
  key += " @ ";
  for (const size_t c : cols) {
    key += std::to_string(c);
    key += ',';
  }
  return key;
}

std::optional<RewriteCache::Entry> RewriteCache::Lookup(
    const ExprPtr& bound_predicate, const std::vector<size_t>& cols) {
  const std::string key = MakeKey(bound_predicate, cols);
  MutexLock lock(&mutex_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

void RewriteCache::CountLocked(bool hit) {
  if (hit) {
    ++hits_;
    SIA_COUNTER_INC("rewrite.cache.hit");
  } else {
    ++misses_;
    SIA_COUNTER_INC("rewrite.cache.miss");
  }
}

ServingDecision RewriteCache::Decide(const ExprPtr& bound_predicate,
                                     const std::vector<size_t>& cols,
                                     const PromotionPolicy& policy,
                                     bool shadow_sampled, int64_t now_ms) {
  const std::string key = MakeKey(bound_predicate, cols);
  ServingDecision decision;
  MutexLock lock(&mutex_);
  auto it = entries_.find(key);
  CountLocked(it != entries_.end());
  if (it == entries_.end()) {
    entries_[key] = NewMarker();
    decision.state = EntryState::kSynthesizing;
    decision.enqueue = true;
    return decision;
  }
  Entry& entry = it->second;
  decision.state = entry.state;
  switch (entry.state) {
    case EntryState::kSynthesizing:
      break;  // another caller owns the key; serve the original
    case EntryState::kQuarantined:
      // Gather evidence: a sampled request paranoid-runs the candidate
      // rewrite but still serves the original's digests.
      if (shadow_sampled && entry.predicate != nullptr && !entry.poisoned) {
        decision.shadow = true;
        decision.predicate = entry.predicate;
        decision.rung = entry.rung;
      }
      break;
    case EntryState::kPromoted:
      if (entry.predicate != nullptr) {
        decision.serve_rewrite = true;
        decision.predicate = entry.predicate;
        decision.rung = entry.rung;
        // Regression watch: sampled promoted serves stay cross-checked.
        decision.shadow = shadow_sampled;
      }
      // Null predicate: a verified "nothing to learn"; the original is
      // the promoted answer.
      break;
    case EntryState::kDemoted:
      if (!entry.poisoned &&
          now_ms - entry.demoted_at_ms >= policy.demote_ttl_ms) {
        // TTL expired: forget the failed attempt and re-learn.
        entry = NewMarker();
        decision.state = EntryState::kSynthesizing;
        decision.enqueue = true;
        SIA_COUNTER_INC("rewrite.promote.requeued");
      }
      break;
  }
  return decision;
}

std::optional<RewriteCache::Entry> RewriteCache::DecideOrWait(
    const ExprPtr& bound_predicate, const std::vector<size_t>& cols) {
  const std::string key = MakeKey(bound_predicate, cols);
  MutexLock lock(&mutex_);
  for (;;) {
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      CountLocked(/*hit=*/false);
      entries_[key] = NewMarker();
      return std::nullopt;  // the caller holds the marker now
    }
    if (it->second.state != EntryState::kSynthesizing) {
      CountLocked(/*hit=*/true);
      return it->second;
    }
    // Another caller holds the marker: wait until it goes away, then
    // decide again (published: a hit; aborted or cleared: claim it).
    ++coalesced_;
    while (it != entries_.end() &&
           it->second.state == EntryState::kSynthesizing) {
      marker_cv_.Wait(&mutex_);
      it = entries_.find(key);
    }
  }
}

RewriteCache::MarkerGuard::MarkerGuard(RewriteCache* cache,
                                       ExprPtr bound_predicate,
                                       std::vector<size_t> cols)
    : cache_(cache),
      bound_predicate_(std::move(bound_predicate)),
      cols_(std::move(cols)) {}

RewriteCache::MarkerGuard::~MarkerGuard() {
  if (cache_ != nullptr) cache_->AbortSynthesis(bound_predicate_, cols_);
}

Status RewriteCache::MarkerGuard::Publish(Entry entry) {
  RewriteCache* cache = std::exchange(cache_, nullptr);
  return cache->CompleteSynthesis(bound_predicate_, cols_, std::move(entry),
                                  /*trusted=*/true);
}

Status RewriteCache::CompleteSynthesis(const ExprPtr& bound_predicate,
                                       const std::vector<size_t>& cols,
                                       Entry entry, bool trusted) {
  const std::string key = MakeKey(bound_predicate, cols);
  MutexLock lock(&mutex_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    return Status::NotFound("synthesis marker vanished for key '" + key +
                            "' (aborted or cleared)");
  }
  if (it->second.state != EntryState::kSynthesizing) {
    return Status::InvalidArgument(
        std::string("illegal transition: CompleteSynthesis on a ") +
        EntryStateName(it->second.state) + " entry");
  }
  entry.state = entry.predicate != nullptr && !trusted
                    ? EntryState::kQuarantined
                    : EntryState::kPromoted;
  entry.wins = 0;
  entry.losses = 0;
  entry.shadow_runs = 0;
  entry.poisoned = false;
  // The marker remembers which request's miss started this lifecycle;
  // the published entry keeps that link for the promotion decision.
  entry.origin_trace_id = it->second.origin_trace_id;
  it->second = std::move(entry);
  marker_cv_.NotifyAll();
  return Status::OK();
}

void RewriteCache::AbortSynthesis(const ExprPtr& bound_predicate,
                                  const std::vector<size_t>& cols) {
  const std::string key = MakeKey(bound_predicate, cols);
  MutexLock lock(&mutex_);
  const auto it = entries_.find(key);
  if (it != entries_.end() && it->second.state == EntryState::kSynthesizing) {
    entries_.erase(it);
    marker_cv_.NotifyAll();
  }
}

Result<EntryState> RewriteCache::RecordShadow(const ExprPtr& bound_predicate,
                                              const std::vector<size_t>& cols,
                                              const ShadowOutcome& outcome,
                                              const PromotionPolicy& policy,
                                              int64_t now_ms) {
  const std::string key = MakeKey(bound_predicate, cols);
  MutexLock lock(&mutex_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    return Status::NotFound("no entry to record shadow evidence against");
  }
  Entry& entry = it->second;
  // The promotion decision links back to the request whose miss created
  // this entry: reinstalling its trace ID puts the decision span (and
  // any promotion/demotion events below) in the same exported trace as
  // that request's admission span and the background synthesis job.
  // Entries whose miss was untraced keep the caller's trace.
  obs::TraceContext origin_ctx(entry.origin_trace_id != 0
                                   ? entry.origin_trace_id
                                   : obs::CurrentTraceId());
  SIA_TRACE_SPAN("rewrite.promote.decision");
  if (entry.state == EntryState::kSynthesizing) {
    return Status::InvalidArgument(
        "illegal transition: RecordShadow on a synthesizing entry");
  }
  ++entry.shadow_runs;
  SIA_COUNTER_INC("rewrite.promote.shadow_runs");

  if (outcome.mismatch) {
    // A wrong rewrite slipped through verification: evict it and
    // quarantine the entry permanently. The paranoid runner already
    // served the original's result, so no client saw the wrong answer.
    SIA_COUNTER_INC("rewrite.promote.digest_mismatch");
    SIA_EVENT("rewrite.digest_mismatch", key);
    if (entry.state == EntryState::kPromoted) {
      SIA_COUNTER_INC("rewrite.promote.demoted");
    }
    entry.predicate = nullptr;
    entry.poisoned = true;
    entry.state = EntryState::kQuarantined;
    return entry.state;
  }

  const bool win = !outcome.rewrite_failed &&
                   outcome.rewritten_ms <=
                       outcome.original_ms * policy.win_factor +
                           policy.win_slack_ms;
  if (win) {
    ++entry.wins;
    SIA_COUNTER_INC("rewrite.promote.wins");
    if (entry.state == EntryState::kQuarantined && !entry.poisoned &&
        entry.wins >= policy.promote_after) {
      entry.state = EntryState::kPromoted;
      SIA_COUNTER_INC("rewrite.promote.promoted");
      SIA_EVENT("rewrite.promoted",
                key + " wins=" + std::to_string(entry.wins));
    }
  } else {
    ++entry.losses;
    SIA_COUNTER_INC("rewrite.promote.losses");
    if ((entry.state == EntryState::kPromoted ||
         entry.state == EntryState::kQuarantined) &&
        entry.losses >= policy.demote_after) {
      if (entry.state == EntryState::kPromoted) {
        SIA_COUNTER_INC("rewrite.promote.demoted");
      }
      entry.state = EntryState::kDemoted;
      entry.demoted_at_ms = now_ms;
      SIA_EVENT("rewrite.demoted",
                key + " losses=" + std::to_string(entry.losses));
    }
  }
  return entry.state;
}

RewriteCache::Stats RewriteCache::stats() const {
  MutexLock lock(&mutex_);
  Stats out{hits_, misses_, entries_.size(), coalesced_};
  for (const auto& [key, entry] : entries_) {
    switch (entry.state) {
      case EntryState::kSynthesizing:
        ++out.synthesizing;
        break;
      case EntryState::kQuarantined:
        ++out.quarantined;
        break;
      case EntryState::kPromoted:
        ++out.promoted;
        break;
      case EntryState::kDemoted:
        ++out.demoted;
        break;
    }
    if (entry.poisoned) ++out.poisoned;
  }
  return out;
}

std::vector<RewriteCache::EntryInfo> RewriteCache::EntryInfos() const {
  MutexLock lock(&mutex_);
  std::vector<EntryInfo> out;
  out.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) {
    EntryInfo info;
    info.key = key;
    info.state = entry.state;
    info.rung = entry.rung;
    info.wins = entry.wins;
    info.losses = entry.losses;
    info.shadow_runs = entry.shadow_runs;
    info.poisoned = entry.poisoned;
    out.push_back(std::move(info));
  }
  return out;
}

void RewriteCache::Clear() {
  MutexLock lock(&mutex_);
  entries_.clear();
  hits_ = 0;
  misses_ = 0;
  coalesced_ = 0;
  marker_cv_.NotifyAll();
}

}  // namespace sia
