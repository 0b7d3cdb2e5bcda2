// Cross-cutting property tests: soundness invariants that must hold for
// ALL inputs, checked over randomized sweeps (seeded, so deterministic).
#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "engine/executor.h"
#include "engine/runner.h"
#include "engine/tpch_gen.h"
#include "ir/analysis.h"
#include "ir/binder.h"
#include "ir/evaluator.h"
#include "ir/simplify.h"
#include "rewrite/rules.h"
#include "synth/sample_generator.h"
#include "synth/synthesizer.h"
#include "synth/verifier.h"
#include "workload/querygen.h"

namespace sia {
namespace {

Schema ThreeCols() {
  Schema s;
  s.AddColumn({"t", "a", DataType::kInteger, true});
  s.AddColumn({"t", "b", DataType::kInteger, true});
  s.AddColumn({"t", "c", DataType::kInteger, true});
  return s;
}

// Random expression builders shared by the sweeps.
ExprPtr RandomScalar(Rng& rng, int depth) {
  if (depth <= 0 || rng.Bernoulli(0.4)) {
    if (rng.Bernoulli(0.55)) {
      return Expr::Column("t", std::string(1, "abc"[rng.Uniform(0, 2)]));
    }
    return Expr::IntLit(rng.Uniform(-25, 25));
  }
  const ArithOp ops[] = {ArithOp::kAdd, ArithOp::kSub, ArithOp::kMul,
                         ArithOp::kDiv};
  return Expr::Arith(ops[rng.Uniform(0, 3)], RandomScalar(rng, depth - 1),
                     RandomScalar(rng, depth - 1));
}

ExprPtr RandomPredicate(Rng& rng, int depth) {
  if (depth <= 0 || rng.Bernoulli(0.3)) {
    return Expr::Compare(static_cast<CompareOp>(rng.Uniform(0, 5)),
                         RandomScalar(rng, 2), RandomScalar(rng, 2));
  }
  if (rng.Bernoulli(0.2)) return Expr::Not(RandomPredicate(rng, depth - 1));
  return Expr::Logic(rng.Bernoulli(0.5) ? LogicOp::kAnd : LogicOp::kOr,
                     RandomPredicate(rng, depth - 1),
                     RandomPredicate(rng, depth - 1));
}

Tuple RandomTuple(Rng& rng, double null_prob = 0.15) {
  std::vector<Value> vals;
  for (int i = 0; i < 3; ++i) {
    vals.push_back(rng.Bernoulli(null_prob)
                       ? Value::Null(DataType::kInteger)
                       : Value::Integer(rng.Uniform(-25, 25)));
  }
  return Tuple(vals);
}

// --- Simplify soundness: same 3VL result on every tuple -----------------

class SimplifySoundness : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SimplifySoundness, PreservesEvaluation) {
  Rng rng(GetParam());
  const Schema s = ThreeCols();
  for (int trial = 0; trial < 60; ++trial) {
    auto bound = Bind(RandomPredicate(rng, 3), s);
    ASSERT_TRUE(bound.ok());
    ExprPtr simplified = Simplify(*bound);
    for (int probe = 0; probe < 12; ++probe) {
      Tuple t = RandomTuple(rng);
      const auto before = EvalPredicate(**bound, t);
      const auto after = EvalPredicate(*simplified, t);
      ASSERT_TRUE(before.ok() && after.ok());
      EXPECT_EQ(before.value(), after.value())
          << (*bound)->ToString() << "  ~~>  " << simplified->ToString()
          << "  on " << t.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplifySoundness,
                         ::testing::Values(11, 22, 33, 44));

// --- Transitive closure soundness: derived conjuncts are implied --------

class TransitiveClosureSoundness : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(TransitiveClosureSoundness, DerivedConjunctsAreImplied) {
  Rng rng(GetParam());
  Schema s;
  s.AddColumn({"t", "a", DataType::kInteger, false});
  s.AddColumn({"t", "b", DataType::kInteger, false});
  s.AddColumn({"t", "c", DataType::kInteger, false});
  SmtContext shared;  // one context for every run verifier below
  for (int trial = 0; trial < 8; ++trial) {
    // Comparison chains over columns and constants.
    std::vector<ExprPtr> conjuncts;
    const int n = 2 + static_cast<int>(rng.Uniform(0, 2));
    for (int i = 0; i < n; ++i) {
      ExprPtr raw = Expr::Compare(
          static_cast<CompareOp>(rng.Uniform(0, 4)),  // no <>
          RandomScalar(rng, 1), RandomScalar(rng, 1));
      auto bound = Bind(raw, s);
      ASSERT_TRUE(bound.ok());
      conjuncts.push_back(*bound);
    }
    const auto derived = TransitiveClosure(conjuncts);
    if (derived.empty()) continue;
    const ExprPtr original = CombineConjuncts(conjuncts);
    // A synthesis run checks p₁ after p₁ against one p in one solver;
    // no verdict may depend on the checks before it. The run verifier
    // sees the derived conjuncts in sequence, each followed by its
    // negation (invalid whenever the chain is satisfiable).
    Verifier run(&shared, original, s);
    for (const ExprPtr& d : derived) {
      auto v = VerifyImplies(original, d, s);
      ASSERT_TRUE(v.ok());
      EXPECT_EQ(*v, VerifyResult::kValid)
          << original->ToString() << "  |=/=  " << d->ToString();
      auto in_run = run.Implies(d);
      ASSERT_TRUE(in_run.ok());
      EXPECT_EQ(*in_run, *v)
          << original->ToString() << "  |=  " << d->ToString();

      const ExprPtr negated = Expr::Not(d);
      auto one_shot = VerifyImplies(original, negated, s);
      auto neg_in_run = run.Implies(negated);
      ASSERT_TRUE(one_shot.ok() && neg_in_run.ok());
      EXPECT_EQ(*neg_in_run, *one_shot)
          << original->ToString() << "  |=  " << negated->ToString();
    }
  }
}

// The run verifier against the one-shot form where only a NULL tells the
// verdict: with b nullable, `a > k AND (b > r OR b <= r)` holds for every
// non-NULL b, so p = (a > k) implies it only if no tuple has b NULL. The
// sequence alternates such NULL-only witnesses with valid candidates.
TEST_P(TransitiveClosureSoundness, RunVerifierAgreesOnNullOnlyWitness) {
  Rng rng(GetParam());
  const Schema s = ThreeCols();  // every column nullable
  const int64_t k = rng.Uniform(-25, 25);
  const ExprPtr a = Expr::BoundColumn("t", "a", 0, DataType::kInteger);
  const ExprPtr b = Expr::BoundColumn("t", "b", 1, DataType::kInteger);
  const ExprPtr p = Expr::Compare(CompareOp::kGt, a, Expr::IntLit(k));
  SmtContext ctx;
  Verifier run(&ctx, p, s);
  for (int i = 0; i < 6; ++i) {
    const int64_t r = rng.Uniform(-25, 25);
    const ExprPtr null_only = Expr::And(
        {p, Expr::Or({Expr::Compare(CompareOp::kGt, b, Expr::IntLit(r)),
                      Expr::Compare(CompareOp::kLe, b, Expr::IntLit(r))})});
    const ExprPtr valid =
        Expr::Compare(CompareOp::kGe, a, Expr::IntLit(k - rng.Uniform(0, 5)));
    for (const auto& [p1, expected] :
         {std::pair{null_only, VerifyResult::kInvalid},
          std::pair{valid, VerifyResult::kValid}}) {
      auto one_shot = VerifyImplies(p, p1, s);
      auto in_run = run.Implies(p1);
      ASSERT_TRUE(one_shot.ok() && in_run.ok());
      EXPECT_EQ(*one_shot, expected) << p1->ToString();
      EXPECT_EQ(*in_run, *one_shot) << p1->ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransitiveClosureSoundness,
                         ::testing::Values(5, 6, 7));

// --- Synthesis validity on the paper workload ---------------------------

TEST(SynthesisSoundness, WorkloadPredicatesAlwaysVerify) {
  const Catalog catalog = Catalog::TpchCatalog();
  const Schema joint = catalog.JointSchema({"lineitem", "orders"}).value();
  QueryGenOptions gen;
  gen.seed = 777;
  auto queries = GenerateWorkload(catalog, 4, gen);
  ASSERT_TRUE(queries.ok());
  // The third query of the paper-default stream: its loop piles up
  // halfplanes that later, tighter bounds imply.
  gen.seed = 2021;
  auto paper_stream = GenerateWorkload(catalog, 3, gen);
  ASSERT_TRUE(paper_stream.ok());
  queries->push_back(paper_stream->back());

  const size_t ship = *joint.FindColumn("l_shipdate");
  const size_t commit = *joint.FindColumn("l_commitdate");
  SynthesisOptions opts;
  opts.max_iterations = 10;  // soundness is iteration-independent

  for (const GeneratedQuery& g : *queries) {
    auto bound = Bind(g.query.where, joint);
    ASSERT_TRUE(bound.ok());
    for (const std::vector<size_t>& cols :
         {std::vector<size_t>{ship}, std::vector<size_t>{ship, commit}}) {
      auto r = Synthesize(*bound, joint, cols, opts);
      ASSERT_TRUE(r.ok()) << g.sql;
      if (!r->has_predicate()) continue;
      EXPECT_TRUE(UsesOnlyColumns(r->predicate, cols))
          << r->predicate->ToString();
      auto v = VerifyImplies(*bound, r->predicate, joint);
      ASSERT_TRUE(v.ok());
      EXPECT_EQ(*v, VerifyResult::kValid)
          << g.sql << "\n learned: " << r->predicate->ToString();
      // No conjunct is implied by the others: each one the engine
      // evaluates actually narrows the filter.
      const auto to_expr = [&](const LearnedPredicate& lp) {
        std::vector<ExprPtr> disjuncts;
        for (const LinearForm& f : lp.models) {
          disjuncts.push_back(f.ToExpr(joint));
        }
        return Expr::Or(disjuncts);
      };
      for (size_t i = 0; r->conjuncts.size() > 1 && i < r->conjuncts.size();
           ++i) {
        std::vector<ExprPtr> rest;
        for (size_t j = 0; j < r->conjuncts.size(); ++j) {
          if (j != i) rest.push_back(to_expr(r->conjuncts[j]));
        }
        auto implied =
            VerifyImplies(Expr::And(rest), to_expr(r->conjuncts[i]), joint);
        ASSERT_TRUE(implied.ok());
        EXPECT_NE(*implied, VerifyResult::kValid)
            << "redundant conjunct " << i << " in "
            << r->predicate->ToString();
      }
    }
  }
}

// --- Planner equivalence: pushdown must never change results ------------

TEST(PlannerSoundness, PushdownPreservesResultsOnWorkload) {
  const Catalog catalog = Catalog::TpchCatalog();
  const TpchData data = GenerateTpch(0.001, 3);
  Executor executor;
  executor.RegisterTable("lineitem", &data.lineitem);
  executor.RegisterTable("orders", &data.orders);

  QueryGenOptions gen;
  gen.seed = 888;
  auto queries = GenerateWorkload(catalog, 8, gen);
  ASSERT_TRUE(queries.ok());
  for (const GeneratedQuery& g : *queries) {
    PlannerOptions push;
    push.push_down_filters = true;
    PlannerOptions nopush;
    nopush.push_down_filters = false;
    auto a = RunQuery(g.query, catalog, executor, push);
    auto b = RunQuery(g.query, catalog, executor, nopush);
    ASSERT_TRUE(a.ok() && b.ok()) << g.sql;
    EXPECT_EQ(a->row_count, b->row_count) << g.sql;
    EXPECT_EQ(a->content_hash, b->content_hash) << g.sql;
  }
}

// --- End-to-end differential oracle -------------------------------------
//
// Seeded two-table instances with nullable INTEGER, DATE and DOUBLE
// columns, duplicate and NULL join keys, and §4.1-grammar predicates
// (division included) run through the Executor at 1, 2 and 8 threads,
// with and without pushdown, as SELECT * and grouped by random columns,
// against a naive nested loop over ir/evaluator — the §5.2 three-valued
// semantics. Row count and content_hash must match the reference;
// order_hash must not depend on the thread count.

// The engine's output digest, restated: a row hash folds each column's
// 64 bits (NULL as a fixed constant) and content_hash sums row hashes.
uint64_t OracleMix(uint64_t h, uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  return h;
}

uint64_t OracleRowHash(const Tuple& row) {
  uint64_t h = 1469598103934665603ULL;
  for (const Value& v : row.values()) {
    uint64_t bits;
    if (v.is_null()) {
      bits = 0xDEADBEEFULL;
    } else if (v.type() == DataType::kDouble) {
      const double d = v.AsDouble();
      __builtin_memcpy(&bits, &d, sizeof(bits));
    } else {
      bits = static_cast<uint64_t>(v.AsInt());
    }
    h = OracleMix(h, bits);
  }
  return h;
}

Schema OracleSchema(const std::string& t) {
  Schema s;
  s.AddColumn({t, t + "k", DataType::kInteger, true});  // the join key
  s.AddColumn({t, t + "i", DataType::kInteger, true});
  s.AddColumn({t, t + "d", DataType::kDate, true});
  s.AddColumn({t, t + "x", DataType::kDouble, true});
  return s;
}

Table OracleTable(Rng& rng, const Schema& schema, size_t rows,
                  int64_t key_range) {
  Table table(schema);
  for (size_t i = 0; i < rows; ++i) {
    const auto null = [&] { return rng.Bernoulli(0.15); };
    Tuple row;
    row.Append(rng.Bernoulli(0.1) ? Value::Null(DataType::kInteger)
                                  : Value::Integer(rng.Uniform(0, key_range)));
    row.Append(null() ? Value::Null(DataType::kInteger)
                      : Value::Integer(rng.Uniform(-12, 12)));
    row.Append(null() ? Value::Null(DataType::kDate)
                      : Value::Date(9000 + rng.Uniform(0, 40)));
    row.Append(null() ? Value::Null(DataType::kDouble)
                      : Value::Double(static_cast<double>(
                                          rng.Uniform(-40, 40)) /
                                      4.0));
    EXPECT_TRUE(table.AppendRow(row).ok());
  }
  return table;
}

ExprPtr OracleScalar(Rng& rng, int depth) {
  static const char* const kCols[] = {"rk", "ri", "rd", "rx",
                                      "sk", "si", "sd", "sx"};
  if (depth <= 0 || rng.Bernoulli(0.4)) {
    if (rng.Bernoulli(0.6)) {
      const std::string name = kCols[rng.Uniform(0, 7)];
      return Expr::Column(name.substr(0, 1), name);
    }
    switch (rng.Uniform(0, 3)) {
      case 0:
        return Expr::DoubleLit(static_cast<double>(rng.Uniform(-8, 8)) / 2.0);
      case 1:
        return Expr::DateLit(9000 + rng.Uniform(0, 40));
      default:
        return Expr::IntLit(rng.Uniform(-6, 6));
    }
  }
  const ArithOp op = static_cast<ArithOp>(rng.Uniform(0, 3));
  return Expr::Arith(op, OracleScalar(rng, depth - 1),
                     OracleScalar(rng, depth - 1));
}

ExprPtr OraclePredicate(Rng& rng, int depth) {
  if (depth <= 0 || rng.Bernoulli(0.4)) {
    return Expr::Compare(static_cast<CompareOp>(rng.Uniform(0, 5)),
                         OracleScalar(rng, 2), OracleScalar(rng, 2));
  }
  if (rng.Bernoulli(0.2)) return Expr::Not(OraclePredicate(rng, depth - 1));
  return Expr::Logic(rng.Bernoulli(0.5) ? LogicOp::kAnd : LogicOp::kOr,
                     OraclePredicate(rng, depth - 1),
                     OraclePredicate(rng, depth - 1));
}

ExprPtr OracleWhere(Rng& rng) {
  std::vector<ExprPtr> conjuncts;
  if (rng.Bernoulli(0.8)) {
    conjuncts.push_back(Expr::Compare(CompareOp::kEq, Expr::Column("r", "rk"),
                                      Expr::Column("s", "sk")));
  }
  if (rng.Bernoulli(0.2)) {
    conjuncts.push_back(Expr::Compare(CompareOp::kEq, Expr::Column("r", "ri"),
                                      Expr::Column("s", "si")));
  }
  if (rng.Bernoulli(0.2)) {  // a DOUBLE equality stays a residual
    conjuncts.push_back(Expr::Compare(CompareOp::kEq, Expr::Column("r", "rx"),
                                      Expr::Column("s", "sx")));
  }
  const int64_t extra = rng.Uniform(0, 3);
  for (int64_t i = 0; i < extra; ++i) {
    conjuncts.push_back(OraclePredicate(rng, 2));
  }
  return conjuncts.empty() ? nullptr : Expr::And(conjuncts);
}

struct OracleAnswer {
  size_t rows = 0;
  uint64_t content_hash = 0;
};

OracleAnswer Digest(const std::vector<Tuple>& rows) {
  OracleAnswer out;
  out.rows = rows.size();
  for (const Tuple& row : rows) out.content_hash += OracleRowHash(row);
  return out;
}

// GROUP BY `cols` over `rows`, naively: a group per distinct key (NULLs
// form one group, values compare numerically), each output row its key
// cells and then COUNT(*).
std::vector<Tuple> GroupCount(const std::vector<Tuple>& rows,
                              const std::vector<size_t>& cols) {
  const auto same = [](const Value& a, const Value& b) {
    if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
    return a.type() == DataType::kDouble ? a.AsDouble() == b.AsDouble()
                                         : a.AsInt() == b.AsInt();
  };
  std::vector<Tuple> groups;
  for (const Tuple& row : rows) {
    Tuple key;
    for (const size_t c : cols) key.Append(row.at(c));
    bool found = false;
    for (Tuple& g : groups) {
      bool match = true;
      for (size_t k = 0; k < cols.size(); ++k) {
        match = match && same(g.at(k), key.at(k));
      }
      if (match) {
        g.at(cols.size()) = Value::Integer(g.at(cols.size()).AsInt() + 1);
        found = true;
        break;
      }
    }
    if (!found) {
      key.Append(Value::Integer(1));
      groups.push_back(key);
    }
  }
  return groups;
}

// The joined rows of r x s that satisfy `where`, by a nested loop over
// ir/evaluator.
std::vector<Tuple> NestedLoopReference(const Table& r, const Table& s,
                                       const ExprPtr& where,
                                       const Schema& joint) {
  ExprPtr bound;
  if (where != nullptr) {
    auto b = Bind(where, joint);
    EXPECT_TRUE(b.ok()) << b.status().ToString();
    bound = *b;
  }
  std::vector<Tuple> out;
  std::vector<Tuple> right;
  for (size_t j = 0; j < s.row_count(); ++j) right.push_back(s.RowAt(j));
  for (size_t i = 0; i < r.row_count(); ++i) {
    const Tuple left = r.RowAt(i);
    for (const Tuple& other : right) {
      Tuple row = left;
      for (const Value& v : other.values()) row.Append(v);
      if (bound != nullptr) {
        auto keep = Satisfies(*bound, row);
        EXPECT_TRUE(keep.ok()) << keep.status().ToString();
        if (!keep.ok() || !*keep) continue;
      }
      out.push_back(std::move(row));
    }
  }
  return out;
}

// One query through the engine at every thread count, checked against
// the reference answer.
void CheckOracleQuery(const ParsedQuery& query, const Catalog& catalog,
                      Executor& executor, bool pushdown,
                      const OracleAnswer& want, ThreadPool* const* pools,
                      size_t pool_count) {
  const std::string sql = query.ToString();
  PlannerOptions options;
  options.push_down_filters = pushdown;
  uint64_t order_hash = 0;
  for (size_t p = 0; p < pool_count; ++p) {
    executor.set_thread_pool(pools[p]);
    auto got = RunQuery(query, catalog, executor, options);
    ASSERT_TRUE(got.ok()) << sql << ": " << got.status().ToString();
    EXPECT_EQ(got->row_count, want.rows) << sql;
    EXPECT_EQ(got->content_hash, want.content_hash) << sql;
    if (p == 0) order_hash = got->order_hash;
    EXPECT_EQ(got->order_hash, order_hash)
        << sql << " at " << pools[p]->thread_count() << " threads";
  }
}

// One instance, as SELECT * and grouped by one or two random columns
// (DOUBLE and NULL group keys included), through the engine at every
// thread count and both pushdown settings.
void CheckOracleInstance(Rng& rng, size_t r_rows, size_t s_rows,
                         int64_t key_range, ThreadPool* const* pools,
                         size_t pool_count) {
  Catalog catalog;
  catalog.RegisterTable("r", OracleSchema("r"));
  catalog.RegisterTable("s", OracleSchema("s"));
  const Table r = OracleTable(rng, OracleSchema("r"), r_rows, key_range);
  const Table s = OracleTable(rng, OracleSchema("s"), s_rows, key_range);
  ParsedQuery query;
  query.tables = {"r", "s"};
  SelectItem star;
  star.is_star = true;
  query.select_list = {star};
  query.where = OracleWhere(rng);
  const Schema joint = catalog.JointSchema(query.tables).value();
  const std::vector<Tuple> matches =
      NestedLoopReference(r, s, query.where, joint);

  ParsedQuery grouped = query;
  std::vector<size_t> group_cols;
  for (int64_t k = rng.Uniform(1, 2); k > 0; --k) {
    const size_t c = static_cast<size_t>(rng.Uniform(0, 7));
    group_cols.push_back(c);
    grouped.group_by.push_back(
        Expr::Column(joint.column(c).table, joint.column(c).name));
  }

  Executor executor;
  executor.RegisterTable("r", &r);
  executor.RegisterTable("s", &s);
  for (const bool pushdown : {true, false}) {
    CheckOracleQuery(query, catalog, executor, pushdown, Digest(matches),
                     pools, pool_count);
    CheckOracleQuery(grouped, catalog, executor, pushdown,
                     Digest(GroupCount(matches, group_cols)), pools,
                     pool_count);
  }
}

TEST(EngineOracle, MatchesNestedLoopEvaluator) {
  ThreadPool one(1);
  ThreadPool two(2);
  ThreadPool eight(8);
  ThreadPool* const pools[] = {&one, &two, &eight};
  Rng rng(4141);
  const size_t kRowCounts[] = {0, 1, 6, 40, 150};
  for (int instance = 0; instance < 150; ++instance) {
    const size_t r_rows = kRowCounts[rng.Uniform(0, 4)];
    const size_t s_rows = kRowCounts[rng.Uniform(0, 4)];
    CheckOracleInstance(rng, r_rows, s_rows, rng.Uniform(0, 6), pools, 3);
  }
  // Scans, the joined relation and the digest all cross the 2048-row
  // block and the 16K-row morsel here.
  for (int instance = 0; instance < 3; ++instance) {
    CheckOracleInstance(rng, 17000, 9, 3, pools, 3);
  }
}

// --- Sample definitions (Lemmas 3 & 4) on random predicates -------------

TEST(SampleSoundness, TrueSamplesAreFeasibleRestrictions) {
  Rng rng(99);
  Schema s;
  s.AddColumn({"t", "a", DataType::kInteger, false});
  s.AddColumn({"t", "b", DataType::kInteger, false});
  s.AddColumn({"t", "c", DataType::kInteger, false});
  int checked = 0;
  for (int trial = 0; trial < 12 && checked < 6; ++trial) {
    auto bound = Bind(RandomPredicate(rng, 2), s);
    ASSERT_TRUE(bound.ok());
    SmtContext ctx;
    SampleGenerator gen(&ctx, *bound, s, {0, 1});
    auto ts = gen.GenerateTrue(4);
    if (!ts.ok() || ts->empty()) continue;
    ++checked;
    for (const Tuple& t : *ts) {
      // A brute-force witness search over c must succeed.
      bool witness = false;
      for (int64_t c = -2000; c <= 2000 && !witness; ++c) {
        Tuple full({t.at(0), t.at(1), Value::Integer(c)});
        auto sat = Satisfies(**bound, full);
        witness = sat.ok() && *sat;
      }
      EXPECT_TRUE(witness) << (*bound)->ToString() << " sample "
                           << t.ToString();
    }
  }
  EXPECT_GT(checked, 0);
}

TEST(SampleSoundness, FalseSamplesRejectAllExtensions) {
  Rng rng(123);
  Schema s;
  s.AddColumn({"t", "a", DataType::kInteger, false});
  s.AddColumn({"t", "b", DataType::kInteger, false});
  s.AddColumn({"t", "c", DataType::kInteger, false});
  int checked = 0;
  for (int trial = 0; trial < 12 && checked < 6; ++trial) {
    auto bound = Bind(RandomPredicate(rng, 2), s);
    ASSERT_TRUE(bound.ok());
    SmtContext ctx;
    SampleGenerator gen(&ctx, *bound, s, {0, 1});
    auto fs = gen.GenerateFalse(3);
    if (!fs.ok() || fs->empty()) continue;
    ++checked;
    for (const Tuple& t : *fs) {
      for (int64_t c = -500; c <= 500; c += 3) {
        Tuple full({t.at(0), t.at(1), Value::Integer(c)});
        auto sat = Satisfies(**bound, full);
        ASSERT_TRUE(sat.ok());
        EXPECT_FALSE(*sat) << (*bound)->ToString() << " unsat tuple "
                           << t.ToString() << " satisfied at c=" << c;
      }
    }
  }
  EXPECT_GT(checked, 0);
}

}  // namespace
}  // namespace sia
