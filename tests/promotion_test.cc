// The online-learning state machine (rewrite/rewrite_cache.h) and the
// background synthesis lane (rewrite/background_synthesizer.h): every
// legal transition of kSynthesizing → kQuarantined → kPromoted /
// kDemoted is exercised, every illegal one is rejected, and the
// "marker always released" invariant holds across drops, crashes, and
// drains — a key can never wedge in kSynthesizing.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/status.h"
#include "common/sync.h"
#include "common/thread_pool.h"
#include "ir/binder.h"
#include "ir/builder.h"
#include "rewrite/background_synthesizer.h"
#include "rewrite/rewrite_cache.h"
#include "rewrite/sia_rewriter.h"
#include "types/schema.h"

namespace sia {
namespace {

using namespace dsl;  // NOLINT

Schema OneColSchema() {
  Schema s;
  s.AddColumn({"t", "x", DataType::kInteger, false});
  return s;
}

ExprPtr MakeKey(const Schema& s) { return Bind(Col("x") < Lit(7), s).value(); }

RewriteCache::Entry LearnedEntry(const Schema& s) {
  RewriteCache::Entry entry;
  entry.status = SynthesisStatus::kValid;
  entry.predicate = Bind(Col("x") < Lit(5), s).value();
  entry.rung = RewriteRung::kFull;
  return entry;
}

ShadowOutcome Win() {
  ShadowOutcome outcome;
  outcome.original_ms = 10.0;
  outcome.rewritten_ms = 1.0;
  return outcome;
}

ShadowOutcome Loss() {
  ShadowOutcome outcome;
  outcome.original_ms = 1.0;
  outcome.rewritten_ms = 50.0;
  return outcome;
}

// --- Decide: miss, dedup, and the marker ------------------------------------

TEST(PromotionStateMachineTest, MissInsertsMarkerAndDedupsConcurrentMisses) {
  RewriteCache cache;
  const Schema s = OneColSchema();
  const ExprPtr key = MakeKey(s);
  const PromotionPolicy policy;

  // First miss: exactly one caller is told to enqueue.
  ServingDecision first = cache.Decide(key, {0}, policy, false, 0);
  EXPECT_TRUE(first.enqueue);
  EXPECT_FALSE(first.serve_rewrite);
  EXPECT_FALSE(first.shadow);
  EXPECT_EQ(first.state, EntryState::kSynthesizing);

  // Every later consult sees the marker and serves the original; the
  // marker IS the dedup — no second enqueue for the same key.
  for (int i = 0; i < 3; ++i) {
    ServingDecision again = cache.Decide(key, {0}, policy, true, 0);
    EXPECT_FALSE(again.enqueue);
    EXPECT_FALSE(again.serve_rewrite);
    EXPECT_FALSE(again.shadow);
    EXPECT_EQ(again.state, EntryState::kSynthesizing);
  }
  EXPECT_EQ(cache.stats().synthesizing, 1u);
}

TEST(PromotionStateMachineTest, AbortSynthesisLeavesKeyRequeueable) {
  RewriteCache cache;
  const Schema s = OneColSchema();
  const ExprPtr key = MakeKey(s);
  const PromotionPolicy policy;

  EXPECT_TRUE(cache.Decide(key, {0}, policy, false, 0).enqueue);
  cache.AbortSynthesis(key, {0});
  EXPECT_EQ(cache.stats().synthesizing, 0u);
  // The next miss starts over: never wedged.
  EXPECT_TRUE(cache.Decide(key, {0}, policy, false, 0).enqueue);
}

TEST(PromotionStateMachineTest, AbortSynthesisDoesNotTouchOtherStates) {
  RewriteCache cache;
  const Schema s = OneColSchema();
  const ExprPtr key = MakeKey(s);
  const PromotionPolicy policy;

  EXPECT_TRUE(cache.Decide(key, {0}, policy, false, 0).enqueue);
  ASSERT_TRUE(cache.CompleteSynthesis(key, {0}, LearnedEntry(s)).ok());
  cache.AbortSynthesis(key, {0});  // no-op: the entry is quarantined
  const auto entry = cache.Lookup(key, {0});
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->state, EntryState::kQuarantined);
}

// --- CompleteSynthesis: the only way out of kSynthesizing -------------------

TEST(PromotionStateMachineTest, LearnedPredicateQuarantinesNullPromotes) {
  RewriteCache cache;
  const Schema s = OneColSchema();
  const ExprPtr key = MakeKey(s);
  const PromotionPolicy policy;

  // A learned predicate starts untrusted: quarantined, shadow-only.
  EXPECT_TRUE(cache.Decide(key, {0}, policy, false, 0).enqueue);
  ASSERT_TRUE(cache.CompleteSynthesis(key, {0}, LearnedEntry(s)).ok());
  ServingDecision sampled = cache.Decide(key, {0}, policy, true, 0);
  EXPECT_EQ(sampled.state, EntryState::kQuarantined);
  EXPECT_FALSE(sampled.serve_rewrite);  // clients still get the original
  EXPECT_TRUE(sampled.shadow);
  EXPECT_NE(sampled.predicate, nullptr);
  // An unsampled consult does not shadow.
  EXPECT_FALSE(cache.Decide(key, {0}, policy, false, 0).shadow);

  // "Nothing to learn" is a verified answer: straight to kPromoted, and
  // the original keeps being served (no predicate to conjoin or shadow).
  const ExprPtr other = Bind(Col("x") < Lit(9), s).value();
  EXPECT_TRUE(cache.Decide(other, {0}, policy, false, 0).enqueue);
  RewriteCache::Entry nothing;
  nothing.status = SynthesisStatus::kNone;
  nothing.predicate = nullptr;
  ASSERT_TRUE(cache.CompleteSynthesis(other, {0}, std::move(nothing)).ok());
  ServingDecision promoted = cache.Decide(other, {0}, policy, true, 0);
  EXPECT_EQ(promoted.state, EntryState::kPromoted);
  EXPECT_FALSE(promoted.serve_rewrite);
  EXPECT_FALSE(promoted.shadow);
}

TEST(PromotionStateMachineTest, IllegalTransitionsAreRejected) {
  RewriteCache cache;
  const Schema s = OneColSchema();
  const ExprPtr key = MakeKey(s);
  const PromotionPolicy policy;

  // Publishing against a key with no marker: the job was aborted.
  EXPECT_EQ(cache.CompleteSynthesis(key, {0}, LearnedEntry(s)).code(),
            StatusCode::kNotFound);
  // Shadow evidence against a missing entry.
  EXPECT_EQ(cache.RecordShadow(key, {0}, Win(), policy, 0).status().code(),
            StatusCode::kNotFound);

  // Shadow evidence against a bare marker: nothing was shadowed.
  EXPECT_TRUE(cache.Decide(key, {0}, policy, false, 0).enqueue);
  EXPECT_EQ(cache.RecordShadow(key, {0}, Win(), policy, 0).status().code(),
            StatusCode::kInvalidArgument);

  // Double publish: the second CompleteSynthesis finds a quarantined
  // entry, not a marker.
  ASSERT_TRUE(cache.CompleteSynthesis(key, {0}, LearnedEntry(s)).ok());
  EXPECT_EQ(cache.CompleteSynthesis(key, {0}, LearnedEntry(s)).code(),
            StatusCode::kInvalidArgument);
}

// --- RecordShadow: promotion, demotion, TTL, poison -------------------------

TEST(PromotionStateMachineTest, PromotesAfterKMeasuredWins) {
  RewriteCache cache;
  const Schema s = OneColSchema();
  const ExprPtr key = MakeKey(s);
  PromotionPolicy policy;
  policy.promote_after = 3;

  EXPECT_TRUE(cache.Decide(key, {0}, policy, false, 0).enqueue);
  ASSERT_TRUE(cache.CompleteSynthesis(key, {0}, LearnedEntry(s)).ok());
  for (int i = 0; i < policy.promote_after - 1; ++i) {
    auto state = cache.RecordShadow(key, {0}, Win(), policy, 0);
    ASSERT_TRUE(state.ok());
    EXPECT_EQ(*state, EntryState::kQuarantined);  // not yet enough evidence
  }
  auto state = cache.RecordShadow(key, {0}, Win(), policy, 0);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(*state, EntryState::kPromoted);

  // A promoted entry actually serves the rewrite — and sampled serves
  // stay cross-checked for regressions.
  ServingDecision decision = cache.Decide(key, {0}, policy, true, 0);
  EXPECT_TRUE(decision.serve_rewrite);
  EXPECT_TRUE(decision.shadow);
  EXPECT_NE(decision.predicate, nullptr);
  EXPECT_EQ(decision.rung, RewriteRung::kFull);
}

TEST(PromotionStateMachineTest, WinThresholdHonorsFactorAndSlack) {
  RewriteCache cache;
  const Schema s = OneColSchema();
  const ExprPtr key = MakeKey(s);
  PromotionPolicy policy;
  policy.promote_after = 1;
  policy.win_factor = 1.25;
  policy.win_slack_ms = 2.0;

  EXPECT_TRUE(cache.Decide(key, {0}, policy, false, 0).enqueue);
  ASSERT_TRUE(cache.CompleteSynthesis(key, {0}, LearnedEntry(s)).ok());

  // Right at the boundary: 10 * 1.25 + 2.0 = 14.5 still counts as a win.
  ShadowOutcome boundary;
  boundary.original_ms = 10.0;
  boundary.rewritten_ms = 14.5;
  auto state = cache.RecordShadow(key, {0}, boundary, policy, 0);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(*state, EntryState::kPromoted);

  // A failed rewritten run is always a loss, whatever the timings say.
  ShadowOutcome failed;
  failed.rewrite_failed = true;
  failed.original_ms = 100.0;
  failed.rewritten_ms = 0.0;
  policy.demote_after = 1;
  state = cache.RecordShadow(key, {0}, failed, policy, 0);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(*state, EntryState::kDemoted);
}

TEST(PromotionStateMachineTest, DemotedEntryResurrectsAfterTtl) {
  RewriteCache cache;
  const Schema s = OneColSchema();
  const ExprPtr key = MakeKey(s);
  PromotionPolicy policy;
  policy.demote_after = 2;
  policy.demote_ttl_ms = 1000;

  EXPECT_TRUE(cache.Decide(key, {0}, policy, false, 0).enqueue);
  ASSERT_TRUE(cache.CompleteSynthesis(key, {0}, LearnedEntry(s)).ok());
  ASSERT_TRUE(cache.RecordShadow(key, {0}, Loss(), policy, 500).ok());
  auto state = cache.RecordShadow(key, {0}, Loss(), policy, 500);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(*state, EntryState::kDemoted);

  // Inside the TTL: serve the original, do not re-learn.
  ServingDecision early = cache.Decide(key, {0}, policy, true, 1400);
  EXPECT_EQ(early.state, EntryState::kDemoted);
  EXPECT_FALSE(early.enqueue);
  EXPECT_FALSE(early.serve_rewrite);
  EXPECT_FALSE(early.shadow);

  // TTL expired: the failed attempt is forgotten and the key re-queues.
  ServingDecision late = cache.Decide(key, {0}, policy, true, 1500);
  EXPECT_EQ(late.state, EntryState::kSynthesizing);
  EXPECT_TRUE(late.enqueue);
}

TEST(PromotionStateMachineTest, DigestMismatchPoisonsPermanently) {
  RewriteCache cache;
  const Schema s = OneColSchema();
  const ExprPtr key = MakeKey(s);
  PromotionPolicy policy;
  policy.promote_after = 1;

  EXPECT_TRUE(cache.Decide(key, {0}, policy, false, 0).enqueue);
  ASSERT_TRUE(cache.CompleteSynthesis(key, {0}, LearnedEntry(s)).ok());
  ASSERT_TRUE(cache.RecordShadow(key, {0}, Win(), policy, 0).ok());
  ASSERT_EQ(cache.stats().promoted, 1u);

  ShadowOutcome mismatch;
  mismatch.mismatch = true;
  auto state = cache.RecordShadow(key, {0}, mismatch, policy, 0);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(*state, EntryState::kQuarantined);
  EXPECT_EQ(cache.stats().poisoned, 1u);

  // The predicate is gone and the entry never shadows, serves, or
  // re-queues again — not even after any amount of time.
  const auto entry = cache.Lookup(key, {0});
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->predicate, nullptr);
  EXPECT_TRUE(entry->poisoned);
  ServingDecision decision =
      cache.Decide(key, {0}, policy, true, /*now_ms=*/1'000'000'000);
  EXPECT_FALSE(decision.enqueue);
  EXPECT_FALSE(decision.serve_rewrite);
  EXPECT_FALSE(decision.shadow);
}

TEST(PromotionStateMachineTest, PromotedEntryDemotesOnMeasuredRegressions) {
  RewriteCache cache;
  const Schema s = OneColSchema();
  const ExprPtr key = MakeKey(s);
  PromotionPolicy policy;
  policy.promote_after = 1;
  policy.demote_after = 3;

  EXPECT_TRUE(cache.Decide(key, {0}, policy, false, 0).enqueue);
  ASSERT_TRUE(cache.CompleteSynthesis(key, {0}, LearnedEntry(s)).ok());
  ASSERT_TRUE(cache.RecordShadow(key, {0}, Win(), policy, 0).ok());

  for (int i = 0; i < policy.demote_after - 1; ++i) {
    auto state = cache.RecordShadow(key, {0}, Loss(), policy, 7);
    ASSERT_TRUE(state.ok());
    EXPECT_EQ(*state, EntryState::kPromoted);  // benefit of the doubt
  }
  auto state = cache.RecordShadow(key, {0}, Loss(), policy, 7);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(*state, EntryState::kDemoted);
  const auto entry = cache.Lookup(key, {0});
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->demoted_at_ms, 7);
  EXPECT_FALSE(entry->poisoned);  // slow is recoverable; wrong is not
}

// --- BackgroundSynthesizer: the lane around the state machine ---------------

// With the pool's only worker pinned, queued jobs sit in the bounded
// queue: the overflow drop must release its marker, and DrainAndStop
// must abort (not run) what is still queued.
TEST(BackgroundSynthesizerTest, DropAtCapacityAndDrainReleaseMarkers) {
  RewriteCache cache;
  const Schema s = OneColSchema();
  const PromotionPolicy policy;
  // Caller-counting pool: 2 => exactly one real worker thread.
  auto pool = std::make_unique<ThreadPool>(2);

  // Pin the worker with a normal-lane task so the background lane (which
  // yields to serving work by design) cannot drain yet.
  struct Pin {
    Mutex mu;
    CondVar cv;
    bool release SIA_GUARDED_BY(mu) = false;
  } pin;
  pool->Submit([&] {
    MutexLock lock(&pin.mu);
    while (!pin.release) pin.cv.Wait(&pin.mu);
  });

  BackgroundSynthesizer::Options options;
  options.rewrite.target_table = "t";
  options.queue_depth = 1;
  BackgroundSynthesizer synthesizer(&cache, pool.get(), options);

  const ExprPtr key_a = MakeKey(s);
  const ExprPtr key_b = Bind(Col("x") < Lit(9), s).value();
  BackgroundJob job_a;
  job_a.bound = key_a;
  job_a.cols = {0};
  job_a.joint = s;
  BackgroundJob job_b = job_a;
  job_b.bound = key_b;

  ASSERT_TRUE(cache.Decide(key_a, {0}, policy, false, 0).enqueue);
  ASSERT_TRUE(cache.Decide(key_b, {0}, policy, false, 0).enqueue);
  EXPECT_TRUE(synthesizer.Enqueue(std::move(job_a)));
  // Queue full: the job is shed and its key immediately re-queueable.
  EXPECT_FALSE(synthesizer.Enqueue(std::move(job_b)));
  EXPECT_TRUE(cache.Decide(key_b, {0}, policy, false, 0).enqueue);

  // Drain before the worker frees up: the queued job is aborted, never
  // run, and its marker released.
  synthesizer.DrainAndStop();
  EXPECT_TRUE(cache.Decide(key_a, {0}, policy, false, 0).enqueue);
  EXPECT_EQ(synthesizer.stats().enqueued, 1u);
  EXPECT_EQ(synthesizer.stats().dropped, 2u);
  EXPECT_EQ(synthesizer.stats().completed, 0u);

  // A drained synthesizer sheds everything (and still releases markers).
  BackgroundJob late;
  late.bound = key_a;
  late.cols = {0};
  late.joint = s;
  EXPECT_FALSE(synthesizer.Enqueue(std::move(late)));

  {
    MutexLock lock(&pin.mu);
    pin.release = true;
  }
  pin.cv.NotifyAll();
  // Join the pool while the synthesizer is still alive: a drainer task
  // it scheduled captures `this` and must not outlive it.
  pool.reset();
}

// An injected crash mid-job releases the marker: the key is immediately
// re-queueable, never wedged in kSynthesizing.
TEST(BackgroundSynthesizerTest, CrashedJobLeavesKeyRequeueable) {
  ASSERT_TRUE(FaultRegistry::Instance()
                  .ArmFromSpec("background.synth.crash=always")
                  .ok());
  RewriteCache cache;
  const Schema s = OneColSchema();
  const ExprPtr key = MakeKey(s);
  const PromotionPolicy policy;

  BackgroundSynthesizer::Options options;
  options.rewrite.target_table = "t";
  // Null pool: the dedicated drainer thread runs the job.
  BackgroundSynthesizer synthesizer(&cache, nullptr, options);

  ASSERT_TRUE(cache.Decide(key, {0}, policy, false, 0).enqueue);
  BackgroundJob job;
  job.bound = key;
  job.cols = {0};
  job.joint = s;
  ASSERT_TRUE(synthesizer.Enqueue(std::move(job)));

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (synthesizer.stats().failed == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  FaultRegistry::Instance().DisarmAll();
  EXPECT_EQ(synthesizer.stats().failed, 1u);
  EXPECT_EQ(cache.stats().synthesizing, 0u);
  EXPECT_TRUE(cache.Decide(key, {0}, policy, false, 0).enqueue);
  synthesizer.DrainAndStop();  // idempotent with the destructor's drain
}

// End to end on the dedicated thread: a real ladder run publishes the
// entry out of kSynthesizing (quarantined when a predicate was learned,
// promoted when there was nothing to learn) — and the marker is gone.
TEST(BackgroundSynthesizerTest, CompletedJobPublishesOutOfSynthesizing) {
  RewriteCache cache;
  const Schema s = OneColSchema();
  const ExprPtr key = MakeKey(s);
  const PromotionPolicy policy;

  BackgroundSynthesizer::Options options;
  options.rewrite.target_table = "t";
  options.budget_ms = 30000;
  BackgroundSynthesizer synthesizer(&cache, nullptr, options);

  ASSERT_TRUE(cache.Decide(key, {0}, policy, false, 0).enqueue);
  BackgroundJob job;
  job.bound = key;
  job.cols = {0};
  job.joint = s;
  ASSERT_TRUE(synthesizer.Enqueue(std::move(job)));

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (synthesizer.stats().completed + synthesizer.stats().failed == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(synthesizer.stats().completed, 1u);
  EXPECT_EQ(cache.stats().synthesizing, 0u);
  const auto entry = cache.Lookup(key, {0});
  ASSERT_TRUE(entry.has_value());
  EXPECT_TRUE(entry->state == EntryState::kQuarantined ||
              entry->state == EntryState::kPromoted);
  if (entry->state == EntryState::kQuarantined) {
    EXPECT_NE(entry->predicate, nullptr);
  }
}

}  // namespace
}  // namespace sia
