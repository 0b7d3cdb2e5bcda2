#ifndef SIA_REWRITE_REWRITE_CACHE_H_
#define SIA_REWRITE_REWRITE_CACHE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/sync.h"
#include "ir/expr.h"
#include "synth/synthesizer.h"

namespace sia {

// Lifecycle of a cache entry (see DESIGN.md "Online learning loop" for
// the transition table):
//
//   (absent) --Decide miss--> kSynthesizing --CompleteSynthesis-->
//   kQuarantined --RecordShadow wins>=K--> kPromoted
//
// kSynthesizing   one background job owns the key; serve the original.
//                 AbortSynthesis (crash / error / drop / drain) erases
//                 the marker so the key is re-claimable, never wedged.
// kQuarantined    synthesized and paranoid-checkable, but not yet
//                 evidence-backed; serve the original, shadow-sample
//                 the rewrite to gather win/loss evidence.
// kPromoted       earned trust: serve the rewrite (still shadow-sampled
//                 for regression detection). Entries with a null
//                 predicate ("nothing to learn") promote immediately —
//                 the original IS the right answer.
// kDemoted        lost trust on measured regressions; serve the
//                 original until demote_ttl_ms passes, then the key is
//                 re-queued for a fresh synthesis.
//
// A shadow digest mismatch poisons the entry: the predicate is evicted
// and the entry is quarantined permanently (no TTL resurrection, never
// promoted again) — a wrong rewrite gets exactly zero more chances.
enum class EntryState {
  kSynthesizing = 0,
  kQuarantined,
  kPromoted,
  kDemoted,
};

const char* EntryStateName(EntryState state);

// Which rung of the degradation ladder (RunSynthesisLadder,
// rewrite/sia_rewriter.h) produced a rewrite: one CEGIS run, then exact
// single-column interval synthesis, then the original query. The
// ordinals are pinned, with 1 unused: OBSERVE's JSON `rung` field and
// perfbench's per-rung counts read these numbers, so renumbering would
// silently relabel them.
enum class RewriteRung {
  kFull = 0,      // full CEGIS synthesis
  kInterval = 2,  // interval-only fallback succeeded
  kOriginal = 3,  // no rewrite: the query is returned unchanged
};

const char* RewriteRungName(RewriteRung rung);

// Evidence thresholds for the promote/demote state machine. Carried by
// the caller (service/server flags --promote-after, --demote-after,
// --shadow-sample-rate) and passed into Decide/RecordShadow.
struct PromotionPolicy {
  // Shadow wins required to promote a quarantined entry.
  int promote_after = 3;
  // Shadow losses that demote (quarantined or promoted) an entry.
  int demote_after = 3;
  // Fraction of requests on shadow-eligible entries that run the
  // paranoid cross-check; sampling itself is the caller's job.
  double shadow_sample_rate = 0.1;
  // How long a demoted entry serves the original before the key is
  // re-queued for synthesis.
  int64_t demote_ttl_ms = 60000;
  // A shadow run is a win when
  //   rewritten_ms <= original_ms * win_factor + win_slack_ms.
  // The slack keeps sub-millisecond runtimes at small scale factors
  // from turning timer noise into losses.
  double win_factor = 1.25;
  double win_slack_ms = 2.0;
};

// What the serving path should do for one request, per Decide().
struct ServingDecision {
  bool serve_rewrite = false;  // conjoin `predicate` (kPromoted only)
  bool enqueue = false;        // caller should enqueue background synthesis
  bool shadow = false;         // caller should paranoid-run + RecordShadow
  EntryState state = EntryState::kSynthesizing;
  ExprPtr predicate;           // non-null when serve_rewrite or shadow
  RewriteRung rung = RewriteRung::kOriginal;
};

// One shadow (paranoid cross-checked) execution's evidence.
struct ShadowOutcome {
  bool mismatch = false;        // digests disagreed: poison the entry
  bool rewrite_failed = false;  // rewritten side errored: counts as a loss
  double original_ms = 0;
  double rewritten_ms = 0;
};

// Cache of synthesis results keyed by (predicate, Cols') — the paper's
// §6.2 deployment mode: production queries are dominated by stored
// procedures that are "optimized only once and their query execution
// plans are stored in a plan cache", so the seconds-scale synthesis cost
// is paid once per distinct predicate shape.
//
// Keys canonicalize through the bound predicate's printed form, which is
// deterministic for structurally identical predicates. Thread-safe.
//
// Decide is the one consultation, and it never blocks. The first miss
// on a key inserts the kSynthesizing marker and tells its caller to
// enqueue a background job; the job must release the marker —
// CompleteSynthesis to publish, AbortSynthesis to give the key back.
// Until then every request on the key serves the original, and a
// published entry climbs the EntryState machine on measured shadow
// evidence (RecordShadow). Synchronous rewriting (RewriteQuery,
// RewriteBatch) runs the ladder itself and never consults a cache.
class RewriteCache {
 public:
  struct Entry {
    SynthesisStatus status = SynthesisStatus::kNone;
    ExprPtr predicate;  // null for kNone
    RewriteRung rung = RewriteRung::kOriginal;  // rung that produced it
    // --- lifecycle state (set by Decide / CompleteSynthesis) ---
    EntryState state = EntryState::kPromoted;
    int wins = 0;
    int losses = 0;
    int shadow_runs = 0;
    // A shadow digest mismatch happened: the predicate was evicted and
    // this entry can never be promoted or re-queued again.
    bool poisoned = false;
    int64_t demoted_at_ms = 0;  // stamp for the kDemoted TTL
    // Trace ID of the request whose miss created this entry (0 when
    // untraced). RecordShadow reinstalls it so the promotion decision
    // lands in the same exported trace as the admission span and
    // background synthesis job that led to it.
    uint64_t origin_trace_id = 0;
  };

  // Per-state entry counts. Hits and misses are the
  // rewrite.cache.{hit,miss} registry counters Decide increments.
  struct Stats {
    size_t entries = 0;
    size_t synthesizing = 0;
    size_t quarantined = 0;
    size_t promoted = 0;
    size_t demoted = 0;
    size_t poisoned = 0;
  };

  // Read-only inspector (tests, tools): the entry for the key, marker
  // included, or nullopt. Counts neither hit nor miss.
  std::optional<Entry> Lookup(const ExprPtr& bound_predicate,
                              const std::vector<size_t>& cols)
      SIA_EXCLUDES(mutex_);

  // One serving-path consultation; never blocks on synthesis. On a miss
  // (or an expired kDemoted TTL) it inserts a kSynthesizing marker and
  // asks the caller to enqueue a background job — the marker is what
  // dedups concurrent misses: exactly one caller sees enqueue == true
  // per key. A held marker reads as kSynthesizing with enqueue == false.
  // Counts rewrite.cache.hit when it finds an entry (marker included)
  // and rewrite.cache.miss when it inserts one.
  // `shadow_sampled` is the caller's coin flip; Decide turns it into
  // shadow == true only for entries that can use evidence. `now_ms` is
  // any monotonic millisecond clock (injected for TTL testability).
  ServingDecision Decide(const ExprPtr& bound_predicate,
                         const std::vector<size_t>& cols,
                         const PromotionPolicy& policy, bool shadow_sampled,
                         int64_t now_ms) SIA_EXCLUDES(mutex_);

  // Publishes a finished synthesis: kSynthesizing → kQuarantined
  // (entries with a learned predicate) or kPromoted (nothing to learn —
  // serving the original is the verified answer). Any other current
  // state is an illegal transition and returns kInvalidArgument; a
  // vanished marker returns kNotFound (the job was aborted meanwhile).
  [[nodiscard]] Status CompleteSynthesis(const ExprPtr& bound_predicate,
                                         const std::vector<size_t>& cols,
                                         Entry entry) SIA_EXCLUDES(mutex_);

  // Releases a kSynthesizing marker without publishing — the crashed /
  // failed / dropped / drained path. The key becomes re-claimable (the
  // next miss enqueues again); entries in any other state are left
  // untouched.
  void AbortSynthesis(const ExprPtr& bound_predicate,
                      const std::vector<size_t>& cols) SIA_EXCLUDES(mutex_);

  // Folds one shadow execution's evidence into the entry and returns the
  // resulting state. Promotion: a quarantined, unpoisoned entry reaching
  // policy.promote_after wins. Demotion: policy.demote_after losses
  // (stamped with now_ms for the TTL). A digest mismatch poisons the
  // entry permanently and evicts its predicate. Recording against a
  // missing entry returns kNotFound; against a kSynthesizing marker,
  // kInvalidArgument (there is no predicate to have shadowed).
  [[nodiscard]] Result<EntryState> RecordShadow(
      const ExprPtr& bound_predicate, const std::vector<size_t>& cols,
      const ShadowOutcome& outcome, const PromotionPolicy& policy,
      int64_t now_ms) SIA_EXCLUDES(mutex_);

  Stats stats() const SIA_EXCLUDES(mutex_);

  // One entry's observable lifecycle state, for OBSERVE / sia_top.
  struct EntryInfo {
    std::string key;  // MakeKey's canonical form
    EntryState state = EntryState::kSynthesizing;
    RewriteRung rung = RewriteRung::kOriginal;
    int wins = 0;
    int losses = 0;
    int shadow_runs = 0;
    bool poisoned = false;
  };

  // Snapshot of every entry's state, sorted by key (map order). Intended
  // for polling introspection, not the serving path.
  std::vector<EntryInfo> EntryInfos() const SIA_EXCLUDES(mutex_);

 private:
  static std::string MakeKey(const ExprPtr& bound_predicate,
                             const std::vector<size_t>& cols);

  // Leaf lock; never held across synthesis (a marker holder runs the
  // ladder unlocked), so a slow solver cannot serialize unrelated
  // lookups. The obs registry lock may be taken under it (hit/miss and
  // promotion counters).
  mutable Mutex mutex_;
  std::map<std::string, Entry> entries_ SIA_GUARDED_BY(mutex_);
};

}  // namespace sia

#endif  // SIA_REWRITE_REWRITE_CACHE_H_
