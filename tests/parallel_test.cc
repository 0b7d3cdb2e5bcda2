// Threading substrate and morsel-parallel engine tests. Everything here
// is meant to run under ThreadSanitizer (scripts/check.sh builds this
// target into the TSan tree): the assertions are about determinism —
// byte-identical query output at every thread count — and about the
// rewrite cache's kSynthesizing marker running exactly one synthesis per
// key no matter how many workers race on it.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "catalog/catalog.h"
#include "common/thread_pool.h"
#include "common/sync.h"
#include "engine/column_table.h"
#include "engine/executor.h"
#include "engine/runner.h"
#include "engine/tpch_gen.h"
#include "engine/vector_filter.h"
#include "ir/binder.h"
#include "ir/builder.h"
#include "parser/parser.h"
#include "rewrite/batch_rewriter.h"
#include "rewrite/rewrite_cache.h"
#include "rewrite/sia_rewriter.h"
#include "workload/querygen.h"

namespace sia {
namespace {

using namespace dsl;  // NOLINT

// --- ThreadPool::ParallelFor ------------------------------------------------

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(8);
  // Deliberately not a multiple of the grain, so the last chunk is short.
  constexpr size_t kTotal = 100003;
  std::vector<std::atomic<int>> hits(kTotal);
  for (auto& h : hits) h.store(0);
  Status s = pool.ParallelFor(kTotal, 1024, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
    return Status::OK();
  });
  ASSERT_TRUE(s.ok()) << s.ToString();
  for (size_t i = 0; i < kTotal; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForEmptyRangeIsOk) {
  ThreadPool pool(4);
  bool ran = false;
  Status s = pool.ParallelFor(0, 16, [&](size_t, size_t) {
    ran = true;
    return Status::OK();
  });
  EXPECT_TRUE(s.ok());
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, ParallelForPropagatesStatus) {
  for (const size_t threads : {size_t{1}, size_t{8}}) {
    ThreadPool pool(threads);
    Status s = pool.ParallelFor(1000, 10, [&](size_t begin, size_t) {
      if (begin >= 500) return Status::InvalidArgument("chunk rejected");
      return Status::OK();
    });
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(s.message().find("chunk rejected"), std::string::npos);
  }
}

TEST(ThreadPoolTest, ParallelForMapsExceptionsToInternal) {
  for (const size_t threads : {size_t{1}, size_t{8}}) {
    ThreadPool pool(threads);
    Status s = pool.ParallelFor(64, 4, [&](size_t begin, size_t) -> Status {
      if (begin == 32) throw std::runtime_error("boom");
      return Status::OK();
    });
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kInternal);
    EXPECT_NE(s.message().find("boom"), std::string::npos);
  }
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1u);
  const auto me = std::this_thread::get_id();
  Status s = pool.ParallelFor(100, 7, [&](size_t, size_t) {
    EXPECT_EQ(std::this_thread::get_id(), me);
    return Status::OK();
  });
  EXPECT_TRUE(s.ok());
}

// A ParallelFor body that itself calls ParallelFor on the same pool must
// not deadlock: completion waits only on claimed chunks, never on a
// worker becoming free.
TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  Status s = pool.ParallelFor(4, 1, [&](size_t, size_t) {
    return pool.ParallelFor(100, 10, [&](size_t begin, size_t end) {
      total.fetch_add(static_cast<int>(end - begin));
      return Status::OK();
    });
  });
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(total.load(), 400);
}

TEST(ThreadPoolTest, DefaultThreadCountIsPositive) {
  EXPECT_GE(ThreadPool::DefaultThreadCount(), 1u);
  EXPECT_LE(ThreadPool::DefaultThreadCount(), ThreadPool::kMaxThreads);
}

// --- Row-index overflow guard (the scan truncation fix) ---------------------

TEST(RowIndexLimitTest, GuardsThe32BitBoundary) {
  EXPECT_TRUE(CheckRowIndexLimit(0, "t").ok());
  EXPECT_TRUE(CheckRowIndexLimit(kMaxRowIndex, "t").ok());
  Status s = CheckRowIndexLimit(static_cast<size_t>(kMaxRowIndex) + 1,
                                "table 'lineitem'");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("lineitem"), std::string::npos);
  EXPECT_NE(s.message().find("row-index"), std::string::npos);
}

// --- FilterRange vs FilterTable ---------------------------------------------

TEST(VectorFilterRangeTest, ConcatenatedRangesMatchFullTable) {
  Schema s;
  s.AddColumn({"t", "x", DataType::kInteger, false});
  Table table(s);
  for (int64_t i = 0; i < 5000; ++i) {
    ASSERT_TRUE(table.AppendRow(Tuple({Value::Integer(i % 37)})).ok());
  }
  const ExprPtr pred = Bind(Col("x") < Lit(11), s).value();
  const VectorizedFilter vf = VectorizedFilter::Compile(pred).value();

  std::vector<uint32_t> full;
  ASSERT_TRUE(vf.FilterTable(table, &full).ok());

  // Odd split points, deliberately unaligned to the 2048-row block size.
  std::vector<uint32_t> pieced;
  const size_t cuts[] = {0, 1000, 4097, 4999, 5000};
  for (size_t c = 0; c + 1 < 5; ++c) {
    ASSERT_TRUE(vf.FilterRange(table, cuts[c], cuts[c + 1], &pieced).ok());
  }
  EXPECT_EQ(pieced, full);
}

// --- Morsel-parallel execution determinism ----------------------------------

const TpchData& SharedTpch() {
  static const TpchData data = GenerateTpch(0.02);
  return data;
}

// Runs `sql` on executors pinned to 1, 2, and 8 threads and asserts the
// outputs are identical — row count, order-insensitive content hash, and
// the order-SENSITIVE order_hash (byte-identical output, not just equal
// multisets).
void ExpectSameAtAllThreadCounts(const std::string& sql) {
  const Catalog catalog = Catalog::TpchCatalog();
  const TpchData& data = SharedTpch();

  QueryOutput reference;
  bool have_reference = false;
  for (const size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    ThreadPool pool(threads);
    Executor executor;
    executor.set_thread_pool(&pool);
    executor.RegisterTable("lineitem", &data.lineitem);
    executor.RegisterTable("orders", &data.orders);
    auto out = RunSql(sql, catalog, executor);
    ASSERT_TRUE(out.ok()) << sql << ": " << out.status().ToString();
    if (!have_reference) {
      reference = *out;
      have_reference = true;
      continue;
    }
    EXPECT_EQ(out->row_count, reference.row_count) << sql << " @" << threads;
    EXPECT_EQ(out->content_hash, reference.content_hash)
        << sql << " @" << threads;
    EXPECT_EQ(out->order_hash, reference.order_hash) << sql << " @" << threads;
  }
}

TEST(MorselParallelTest, ScanFilterIsThreadCountInvariant) {
  ExpectSameAtAllThreadCounts(
      "SELECT * FROM lineitem WHERE l_shipdate < '1995-01-01'");
}

TEST(MorselParallelTest, UnfilteredScanIsThreadCountInvariant) {
  ExpectSameAtAllThreadCounts("SELECT * FROM lineitem");
}

TEST(MorselParallelTest, HashJoinProbeIsThreadCountInvariant) {
  ExpectSameAtAllThreadCounts(
      "SELECT * FROM lineitem, orders WHERE o_orderkey = l_orderkey");
}

TEST(MorselParallelTest, JoinWithResidualFilterIsThreadCountInvariant) {
  ExpectSameAtAllThreadCounts(
      "SELECT * FROM lineitem, orders WHERE o_orderkey = l_orderkey "
      "AND l_shipdate - o_orderdate < 20 AND o_orderdate < '1993-06-01' "
      "AND l_commitdate - l_shipdate < l_shipdate - o_orderdate + 10");
}

TEST(MorselParallelTest, DuplicateKeyBuildWithResidualIsThreadCountInvariant) {
  // `orders, lineitem` builds on lineitem: every probe walks a chain of
  // duplicate keys, and the residual filters the joined rows.
  ExpectSameAtAllThreadCounts(
      "SELECT * FROM orders, lineitem WHERE o_orderkey = l_orderkey "
      "AND l_shipdate - o_orderdate < 60 "
      "AND l_receiptdate - l_commitdate > o_orderdate - l_shipdate + 40");
}

// --- NULL-bearing columns through the block kernels -------------------------

TEST(NullableColumnTest, ScanKeepsOnlyTrueRows) {
  Schema s;
  s.AddColumn({"t", "x", DataType::kInteger, true});
  Table table(s);
  for (int64_t i = 0; i < 100; ++i) {
    const Tuple row({i % 10 == 0 ? Value::Null(DataType::kInteger)
                                 : Value::Integer(i)});
    ASSERT_TRUE(table.AppendRow(row).ok());
  }
  const ExprPtr pred = Bind(Col("x") < Lit(50), s).value();

  Executor executor;
  executor.RegisterTable("t", &table);
  auto out = executor.Execute(PlanNode::Scan("t", s, pred));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  // NULL < 50 is NULL, i.e. not TRUE: rows 1..49 pass except the four
  // nulled multiples of ten (10, 20, 30, 40) — and row 0 is null too.
  EXPECT_EQ(out->row_count, 45u);
}

TEST(NullableColumnTest, JoinResidualKeepsOnlyTrueRows) {
  Schema p;
  p.AddColumn({"p", "pk", DataType::kInteger, false});
  p.AddColumn({"p", "pv", DataType::kInteger, true});
  Schema q;
  q.AddColumn({"q", "qk", DataType::kInteger, false});
  q.AddColumn({"q", "qv", DataType::kInteger, false});
  Catalog catalog;
  catalog.RegisterTable("p", p);
  catalog.RegisterTable("q", q);
  Table tp(p);
  Table tq(q);
  for (int64_t i = 0; i < 100; ++i) {
    const Tuple row({Value::Integer(i), i % 10 == 0
                                            ? Value::Null(DataType::kInteger)
                                            : Value::Integer(i)});
    ASSERT_TRUE(tp.AppendRow(row).ok());
    tq.AppendIntRow({i, 50});
  }

  Executor executor;
  executor.RegisterTable("p", &tp);
  executor.RegisterTable("q", &tq);
  // The residual pv < qv spans both tables, so it runs on the joined
  // rows, with pv's NULL flags gathered alongside its values.
  auto out = RunSql("SELECT * FROM p, q WHERE pk = qk AND pv < qv", catalog,
                    executor);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  // pv < 50 holds for 1..49 except the nulled multiples of ten.
  EXPECT_EQ(out->row_count, 45u);
}

// --- RewriteCache single-flight ---------------------------------------------

RewriteCache::Entry MakeEntry(SynthesisStatus status) {
  RewriteCache::Entry e;
  e.status = status;
  e.rung = RewriteRung::kOriginal;
  return e;
}

ExprPtr CacheKey() {
  Schema s;
  s.AddColumn({"t", "x", DataType::kInteger, false});
  return Bind(Col("x") < Lit(7), s).value();
}

// The synchronous protocol RewriteQuery runs against a cache: a hit is
// returned; a miss claims the key's marker, runs `synthesize`, and
// publishes its entry — an error (or exception) releases the marker.
template <typename F>
Result<RewriteCache::Entry> DecideAndRun(RewriteCache& cache,
                                         const ExprPtr& key, F&& synthesize) {
  if (auto hit = cache.DecideOrWait(key, {0})) return *hit;
  RewriteCache::MarkerGuard marker(&cache, key, {0});
  SIA_ASSIGN_OR_RETURN(RewriteCache::Entry entry, synthesize());
  SIA_RETURN_IF_ERROR(marker.Publish(entry));
  return entry;
}

// Spins until `cache` has seen `n` waits on a marker (bounded at 30 s so a
// broken protocol fails the test instead of hanging it).
void AwaitCoalesced(const RewriteCache& cache, size_t n) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (cache.stats().coalesced < n &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(SingleFlightCacheTest, ExactlyOneSynthesisUnderEightRacingWorkers) {
  RewriteCache cache;
  const ExprPtr key = CacheKey();

  std::atomic<int> calls{0};
  constexpr int kWorkers = 8;
  auto synthesize = [&]() -> Result<RewriteCache::Entry> {
    calls.fetch_add(1);
    // Hold the marker until every other worker has parked on it, so
    // "they were all really racing" is guaranteed, not timing-dependent.
    // stats() only takes the cache mutex, which the marker holder does
    // NOT hold while synthesizing.
    AwaitCoalesced(cache, kWorkers - 1);
    return MakeEntry(SynthesisStatus::kOptimal);
  };

  std::vector<Thread> workers;
  std::atomic<int> ok_results{0};
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&] {
      auto r = DecideAndRun(cache, key, synthesize);
      if (r.ok() && r->status == SynthesisStatus::kOptimal) {
        ok_results.fetch_add(1);
      }
    });
  }
  for (Thread& t : workers) t.Join();

  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(ok_results.load(), kWorkers);
  const RewriteCache::Stats st = cache.stats();
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.hits, static_cast<size_t>(kWorkers - 1));
  EXPECT_EQ(st.coalesced, static_cast<size_t>(kWorkers - 1));
  EXPECT_EQ(st.entries, 1u);
  EXPECT_EQ(st.promoted, 1u);  // a synchronous publish is trusted
}

TEST(SingleFlightCacheTest, FailedLeaderDoesNotPoisonTheKey) {
  RewriteCache cache;
  const ExprPtr key = CacheKey();

  std::atomic<int> calls{0};
  auto failing = [&]() -> Result<RewriteCache::Entry> {
    calls.fetch_add(1);
    return Status::Internal("solver fell over");
  };
  auto r1 = DecideAndRun(cache, key, failing);
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(cache.stats().entries, 0u);  // errors are not cached

  auto r2 = DecideAndRun(cache, key, [&]() -> Result<RewriteCache::Entry> {
    calls.fetch_add(1);
    return MakeEntry(SynthesisStatus::kValid);
  });
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->status, SynthesisStatus::kValid);
  EXPECT_EQ(calls.load(), 2);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(SingleFlightCacheTest, WaiterTakesOverWhenLeaderFails) {
  RewriteCache cache;
  const ExprPtr key = CacheKey();

  std::atomic<int> calls{0};
  auto synthesize = [&]() -> Result<RewriteCache::Entry> {
    const int call = calls.fetch_add(1);
    if (call == 0) {
      // First leader: wait until the other worker is parked on the
      // marker, then fail — forcing the handoff.
      AwaitCoalesced(cache, 1);
      return Status::Internal("first attempt failed");
    }
    return MakeEntry(SynthesisStatus::kValid);
  };

  std::atomic<int> successes{0};
  Thread a([&] {
    if (DecideAndRun(cache, key, synthesize).ok()) successes.fetch_add(1);
  });
  Thread b([&] {
    if (DecideAndRun(cache, key, synthesize).ok()) successes.fetch_add(1);
  });
  a.Join();
  b.Join();

  // One worker got the error, the other took over, synthesized, and
  // succeeded; both synthesize attempts ran.
  EXPECT_EQ(calls.load(), 2);
  EXPECT_EQ(successes.load(), 1);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(SingleFlightCacheTest, ExceptionInGuardScopeReleasesTheMarker) {
  RewriteCache cache;
  const ExprPtr key = CacheKey();

  // A leader whose ladder throws, with a second caller parked on its
  // marker: unwinding the guard must wake the waiter, which claims the
  // key and publishes.
  std::atomic<bool> leader_threw{false};
  std::atomic<bool> waiter_led{false};
  ASSERT_FALSE(cache.DecideOrWait(key, {0}).has_value());
  Thread waiter([&] {
    auto r = DecideAndRun(cache, key, [&]() -> Result<RewriteCache::Entry> {
      waiter_led.store(true);
      return MakeEntry(SynthesisStatus::kNone);
    });
    EXPECT_TRUE(r.ok());
  });
  try {
    RewriteCache::MarkerGuard marker(&cache, key, {0});
    AwaitCoalesced(cache, 1);
    throw std::runtime_error("boom");
  } catch (const std::runtime_error&) {
    leader_threw.store(true);
  }
  waiter.Join();
  EXPECT_TRUE(leader_threw.load());
  EXPECT_TRUE(waiter_led.load());
  EXPECT_EQ(cache.stats().entries, 1u);

  // Without a waiter the released key is simply claimable again.
  cache.Clear();
  ASSERT_FALSE(cache.DecideOrWait(key, {0}).has_value());
  try {
    RewriteCache::MarkerGuard marker(&cache, key, {0});
    throw std::runtime_error("boom");
  } catch (const std::runtime_error&) {
  }
  EXPECT_FALSE(cache.Lookup(key, {0}).has_value());  // nothing cached
  auto r = DecideAndRun(cache, key, [] {
    return Result<RewriteCache::Entry>(MakeEntry(SynthesisStatus::kNone));
  });
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(SingleFlightCacheTest, ServingDecideNeverWaitsOnASynchronousLeader) {
  RewriteCache cache;
  const ExprPtr key = CacheKey();
  const PromotionPolicy policy;

  ASSERT_FALSE(cache.DecideOrWait(key, {0}).has_value());
  RewriteCache::MarkerGuard marker(&cache, key, {0});
  // Same thread, marker held: a Decide that waited would deadlock here.
  const ServingDecision during =
      cache.Decide(key, {0}, policy, /*shadow_sampled=*/false, /*now_ms=*/0);
  EXPECT_EQ(during.state, EntryState::kSynthesizing);
  EXPECT_FALSE(during.enqueue);  // the synchronous leader owns the key
  EXPECT_FALSE(during.serve_rewrite);

  RewriteCache::Entry entry = MakeEntry(SynthesisStatus::kValid);
  entry.predicate = key;
  entry.rung = RewriteRung::kFull;
  ASSERT_TRUE(marker.Publish(entry).ok());
  const ServingDecision after =
      cache.Decide(key, {0}, policy, /*shadow_sampled=*/false, /*now_ms=*/0);
  EXPECT_EQ(after.state, EntryState::kPromoted);
  EXPECT_TRUE(after.serve_rewrite);
}

TEST(SingleFlightCacheTest, ClearWakesAWaiterWhichBecomesLeader) {
  RewriteCache cache;
  const ExprPtr key = CacheKey();

  ASSERT_FALSE(cache.DecideOrWait(key, {0}).has_value());
  RewriteCache::MarkerGuard stale(&cache, key, {0});
  std::atomic<bool> waiter_led{false};
  Thread waiter([&] {
    auto r = DecideAndRun(cache, key, [&]() -> Result<RewriteCache::Entry> {
      waiter_led.store(true);
      return MakeEntry(SynthesisStatus::kOptimal);
    });
    EXPECT_TRUE(r.ok());
  });
  AwaitCoalesced(cache, 1);
  cache.Clear();  // drops the held marker and wakes the waiter
  waiter.Join();
  EXPECT_TRUE(waiter_led.load());

  // The cleared leader's publish cannot clobber the new leader's entry.
  EXPECT_FALSE(stale.Publish(MakeEntry(SynthesisStatus::kNone)).ok());
  const auto entry = cache.Lookup(key, {0});
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->status, SynthesisStatus::kOptimal);

  // With nobody re-claiming the key, a cleared marker's publish is
  // kNotFound and nothing is cached.
  cache.Clear();
  ASSERT_FALSE(cache.DecideOrWait(key, {0}).has_value());
  RewriteCache::MarkerGuard cleared(&cache, key, {0});
  cache.Clear();
  EXPECT_EQ(cleared.Publish(MakeEntry(SynthesisStatus::kNone)).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(cache.stats().entries, 0u);
}

// --- Batch rewriter ---------------------------------------------------------

std::vector<std::string> BatchRewriteSql(size_t threads, size_t queries,
                                         RewriteCache* cache) {
  const Catalog catalog = Catalog::TpchCatalog();
  QueryGenOptions gen;
  gen.seed = 2021;
  auto workload = GenerateWorkload(catalog, queries, gen);
  EXPECT_TRUE(workload.ok()) << workload.status().ToString();

  std::vector<ParsedQuery> parsed;
  for (const GeneratedQuery& q : *workload) parsed.push_back(q.query);

  ThreadPool pool(threads);
  BatchRewriteOptions options;
  options.rewrite.target_table = "lineitem";
  options.rewrite.synthesis.max_iterations = 1;  // fast and deterministic
  options.cache = cache;
  options.pool = &pool;
  auto outcomes = RewriteBatch(parsed, catalog, options);
  EXPECT_TRUE(outcomes.ok()) << outcomes.status().ToString();

  std::vector<std::string> sql;
  for (const RewriteOutcome& o : *outcomes) {
    sql.push_back(o.changed() ? o.rewritten.where->ToString() : "<unchanged>");
  }
  return sql;
}

TEST(BatchRewriterTest, SameSeedSameThreadsIsDeterministic) {
  RewriteCache cache_a, cache_b;
  const auto a = BatchRewriteSql(4, 4, &cache_a);
  const auto b = BatchRewriteSql(4, 4, &cache_b);
  EXPECT_EQ(a, b);
}

TEST(BatchRewriterTest, ThreadCountDoesNotChangeOutcomes) {
  RewriteCache cache_serial, cache_parallel;
  const auto serial = BatchRewriteSql(1, 4, &cache_serial);
  const auto parallel = BatchRewriteSql(4, 4, &cache_parallel);
  EXPECT_EQ(serial, parallel);
}

TEST(BatchRewriterTest, IdenticalQueriesCoalesceOntoOneSynthesis) {
  const Catalog catalog = Catalog::TpchCatalog();
  QueryGenOptions gen;
  gen.seed = 2021;
  auto workload = GenerateWorkload(catalog, 1, gen);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();

  // Six copies of the same query: one synthesis, five cache hits (any
  // of which may additionally have coalesced onto the in-flight run).
  std::vector<ParsedQuery> parsed(6, (*workload)[0].query);

  ThreadPool pool(4);
  RewriteCache cache;
  BatchRewriteOptions options;
  options.rewrite.target_table = "lineitem";
  options.rewrite.synthesis.max_iterations = 1;
  options.cache = &cache;
  options.pool = &pool;
  auto outcomes = RewriteBatch(parsed, catalog, options);
  ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
  ASSERT_EQ(outcomes->size(), 6u);

  const RewriteCache::Stats st = cache.stats();
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.hits, 5u);
  EXPECT_EQ(st.entries, 1u);

  // All six outcomes agree, and the five served by the cache say so.
  size_t from_cache = 0;
  for (const RewriteOutcome& o : *outcomes) {
    EXPECT_EQ(o.changed(), (*outcomes)[0].changed());
    if (o.changed()) {
      EXPECT_EQ(o.rewritten.where->ToString(),
                (*outcomes)[0].rewritten.where->ToString());
    }
    if (o.from_cache) ++from_cache;
  }
  EXPECT_EQ(from_cache, 5u);
}

}  // namespace
}  // namespace sia
