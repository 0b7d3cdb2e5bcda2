// Threading substrate and morsel-parallel engine tests. Everything here
// is meant to run under ThreadSanitizer (scripts/check.sh builds this
// target into the TSan tree): the assertions are about determinism —
// byte-identical query output at every thread count — and the batch
// rewriter's outcomes, which must not depend on how many workers share
// the batch.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "catalog/catalog.h"
#include "common/thread_pool.h"
#include "engine/column_table.h"
#include "engine/executor.h"
#include "engine/runner.h"
#include "engine/tpch_gen.h"
#include "engine/vector_filter.h"
#include "ir/binder.h"
#include "ir/builder.h"
#include "parser/parser.h"
#include "rewrite/batch_rewriter.h"
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

// --- Batch rewriter ---------------------------------------------------------

Result<std::vector<RewriteOutcome>> RunBatch(
    size_t threads, const std::vector<ParsedQuery>& queries) {
  ThreadPool pool(threads);
  BatchRewriteOptions options;
  options.rewrite.target_table = "lineitem";
  options.rewrite.synthesis.max_iterations = 1;  // fast and deterministic
  options.pool = &pool;
  return RewriteBatch(queries, Catalog::TpchCatalog(), options);
}

std::vector<ParsedQuery> Workload(size_t queries) {
  QueryGenOptions gen;
  gen.seed = 2021;
  auto workload = GenerateWorkload(Catalog::TpchCatalog(), queries, gen);
  EXPECT_TRUE(workload.ok()) << workload.status().ToString();
  std::vector<ParsedQuery> parsed;
  for (const GeneratedQuery& q : *workload) parsed.push_back(q.query);
  return parsed;
}

std::vector<std::string> BatchRewriteSql(size_t threads,
                                         const std::vector<ParsedQuery>& in) {
  auto outcomes = RunBatch(threads, in);
  EXPECT_TRUE(outcomes.ok()) << outcomes.status().ToString();
  std::vector<std::string> sql;
  for (const RewriteOutcome& o : *outcomes) {
    sql.push_back(o.changed() ? o.rewritten.ToString() : "<unchanged>");
  }
  return sql;
}

TEST(BatchRewriterTest, SameSeedSameThreadsIsDeterministic) {
  EXPECT_EQ(BatchRewriteSql(4, Workload(4)), BatchRewriteSql(4, Workload(4)));
}

TEST(BatchRewriterTest, ThreadCountDoesNotChangeOutcomes) {
  EXPECT_EQ(BatchRewriteSql(1, Workload(4)), BatchRewriteSql(4, Workload(4)));
}

TEST(BatchRewriterTest, IdenticalQueriesGetIdenticalRewrites) {
  // Six copies of one query (the third of the stream, which one
  // iteration rewrites), four workers: each copy runs its own ladder,
  // and all six come back with the same rewritten SQL.
  const std::vector<ParsedQuery> parsed(6, Workload(3)[2]);
  const std::vector<std::string> sql = BatchRewriteSql(4, parsed);
  ASSERT_EQ(sql.size(), 6u);
  EXPECT_NE(sql[0], "<unchanged>");
  for (const std::string& s : sql) EXPECT_EQ(s, sql[0]);
}

TEST(BatchRewriterTest, MalformedQueryFailsTheBatch) {
  // The middle query's FROM lacks the target table: its error is the
  // batch's, whatever the thread count.
  std::vector<ParsedQuery> parsed = Workload(2);
  auto bad = ParseQuery("SELECT * FROM orders WHERE o_totalprice > 10");
  ASSERT_TRUE(bad.ok()) << bad.status().ToString();
  parsed.insert(parsed.begin() + 1, *bad);
  for (const size_t threads : {1u, 4u}) {
    auto outcomes = RunBatch(threads, parsed);
    ASSERT_FALSE(outcomes.ok()) << "threads=" << threads;
    EXPECT_EQ(outcomes.status().code(), StatusCode::kInvalidArgument)
        << outcomes.status().ToString();
  }
}

}  // namespace
}  // namespace sia
