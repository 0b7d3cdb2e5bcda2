// perfbench_tool — the in-process half of the benchmark; run.py drives it
// and does all of the arithmetic on what it prints.
//
//   perfbench_tool gen --seed S --count N --out FILE
//       Writes N §6.3 workload queries (GenerateWorkload with seed S, the
//       same stream sia_lint and sia_client draw), one SQL statement per
//       line. Prints one JSON line: generation seconds plus the
//       parser-layer cost of those queries (ParseQuery and MakeRewriteKey,
//       median of 9 repetitions per query).
//
//   perfbench_tool reference --sf SF --data-seed D --in FILE
//       Runs every query of FILE unrewritten through RunQuery on TPC-H
//       data (SF, D) and prints one line per query: `<rows> <content_hash>`
//       in the hex form sia_serve replies use.
//
//   perfbench_tool synth --in FILE --seconds T [--warmup WFILE] [--trace]
//                        [--check-sf SF]
//       The synth_batch workload. Initialises (catalog, a first Z3 check),
//       prints READY and waits for a GO line on stdin (EOF exits 0). Then
//       it rewrites every query of WFILE once, untimed: the first ladder a
//       process runs is 10-30% slower than later runs of the same query.
//       Then, one query at a time, runs ParseQuery -> MakeRewriteKey ->
//       RunSynthesisLadder with no cache, in whole passes over FILE for
//       about T seconds (at least one pass). From the warm-up to the end
//       of the window the working thread is moved to the next CPU every
//       100 ms (see CpuRotation).
//       After the timed window it executes every learned rewrite and its
//       original on TPC-H data at the check scale factor and compares
//       rows and content hashes. --trace turns the metrics registry on
//       for the window so smt.check latency can be read back. Prints one
//       JSON object on its last line.
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "catalog/catalog.h"
#include "common/strings.h"
#include "engine/executor.h"
#include "engine/runner.h"
#include "engine/tpch_gen.h"
#include "obs/metrics.h"
#include "parser/parser.h"
#include "rewrite/sia_rewriter.h"
#include "smt/smt_context.h"
#include "workload/querygen.h"

namespace {

using Clock = std::chrono::steady_clock;

// Monotonic nanoseconds; steady_clock is CLOCK_MONOTONIC on Linux, the
// clock run.py's time.monotonic() reads, so spans line up in one trace.
int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double MicrosBetween(int64_t from_ns, int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e3;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Moves one thread round-robin over every CPU it may run on, a slice at a
// time, until destroyed, then restores its affinity. The virtual CPUs of a
// shared host are not equally fast, and which one is slow changes from
// minute to minute: four copies of one ladder, run at once and each pinned
// to its own CPU of a 4-CPU virtual machine, took 3.05 s on one CPU and
// 2.2-2.6 s on the others. A lone busy thread is rarely migrated, so
// unrotated, a run's speed is mostly that of the CPU it lands on.
// A 100 ms slice keeps the cost of refilling caches after a move small.
class CpuRotation {
 public:
  CpuRotation(pthread_t target, std::chrono::milliseconds slice)
      : target_(target), slice_(slice) {
    CPU_ZERO(&allowed_);
    if (pthread_getaffinity_np(target_, sizeof(allowed_), &allowed_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
    }
    if (cpus_.size() > 1) thread_ = std::thread([this] { Run(); });
  }

  ~CpuRotation() {
    if (!thread_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    wake_.notify_one();
    thread_.join();
    pthread_setaffinity_np(target_, sizeof(allowed_), &allowed_);
  }

 private:
  void Run() {
    std::unique_lock<std::mutex> lock(mu_);
    for (size_t i = 0; !stopping_; ++i) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus_[i % cpus_.size()], &one);
      pthread_setaffinity_np(target_, sizeof(one), &one);
      wake_.wait_for(lock, slice_, [this] { return stopping_; });
    }
  }

  const pthread_t target_;
  const std::chrono::milliseconds slice_;
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  std::mutex mu_;
  std::condition_variable wake_;
  bool stopping_ = false;
  std::thread thread_;
};

int Fail(const std::string& message) {
  std::fprintf(stderr, "perfbench_tool: %s\n", message.c_str());
  return 1;
}

// Flag lookup over argv: the value after `name`, or `fallback`.
std::string Flag(int argc, char** argv, const std::string& name,
                 const std::string& fallback = "") {
  for (int i = 2; i + 1 < argc; ++i) {
    if (argv[i] == name) return argv[i + 1];
  }
  return fallback;
}

bool HasFlag(int argc, char** argv, const std::string& name) {
  for (int i = 2; i < argc; ++i) {
    if (argv[i] == name) return true;
  }
  return false;
}

bool ReadLines(const std::string& path, std::vector<std::string>* lines) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines->push_back(line);
  }
  return true;
}

sia::RewriteOptions LineitemRewrite() {
  sia::RewriteOptions options;
  options.target_table = "lineitem";
  return options;
}

// Reads VmHWM (peak resident set) of this process, in KiB.
long PeakRssKb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atol(line.c_str() + 6);
  }
  return 0;
}

int Gen(int argc, char** argv) {
  const uint64_t seed = std::strtoull(Flag(argc, argv, "--seed", "1").c_str(),
                                      nullptr, 10);
  const size_t count = std::strtoull(Flag(argc, argv, "--count", "0").c_str(),
                                     nullptr, 10);
  const std::string out_path = Flag(argc, argv, "--out");
  if (count == 0 || out_path.empty()) return Fail("gen needs --count and --out");
  const sia::Catalog catalog = sia::Catalog::TpchCatalog();

  const int64_t start_ns = NowNs();
  sia::QueryGenOptions options;
  options.seed = seed;
  auto generated = sia::GenerateWorkload(catalog, count, options);
  if (!generated.ok()) {
    return Fail("GenerateWorkload: " + generated.status().ToString());
  }
  std::vector<std::string> sqls;
  for (const sia::GeneratedQuery& q : *generated) sqls.push_back(q.sql);
  const double gen_s = static_cast<double>(NowNs() - start_ns) / 1e9;

  std::ofstream out(out_path);
  for (const std::string& sql : sqls) out << sql << "\n";
  out.close();
  if (!out) return Fail("cannot write " + out_path);

  // Parser-layer cost of exactly these queries.
  constexpr int kReps = 9;
  const sia::RewriteOptions rewrite = LineitemRewrite();
  std::vector<double> parse_us, key_us;
  for (const std::string& sql : sqls) {
    std::vector<double> p, k;
    for (int r = 0; r < kReps; ++r) {
      const int64_t t0 = NowNs();
      auto parsed = sia::ParseQuery(sql);
      const int64_t t1 = NowNs();
      if (!parsed.ok()) return Fail("ParseQuery: " + parsed.status().ToString());
      auto key = sia::MakeRewriteKey(*parsed, catalog, rewrite);
      const int64_t t2 = NowNs();
      if (!key.ok()) return Fail("MakeRewriteKey: " + key.status().ToString());
      p.push_back(MicrosBetween(t0, t1));
      k.push_back(MicrosBetween(t1, t2));
    }
    parse_us.push_back(Median(p));
    key_us.push_back(Median(k));
  }
  std::printf("{\"queries\":%zu,\"gen_s\":%.6f,\"parse_us_p50\":%.4f,"
              "\"key_us_p50\":%.4f}\n",
              sqls.size(), gen_s, Median(parse_us), Median(key_us));
  return 0;
}

int Reference(int argc, char** argv) {
  const double sf = std::atof(Flag(argc, argv, "--sf", "0").c_str());
  const uint64_t data_seed = std::strtoull(
      Flag(argc, argv, "--data-seed", "42").c_str(), nullptr, 10);
  std::vector<std::string> sqls;
  if (sf <= 0 || !ReadLines(Flag(argc, argv, "--in"), &sqls)) {
    return Fail("reference needs --sf > 0 and a readable --in");
  }
  const sia::Catalog catalog = sia::Catalog::TpchCatalog();
  const sia::TpchData data = sia::GenerateTpch(sf, data_seed);
  sia::Executor executor;
  executor.RegisterTable("orders", &data.orders);
  executor.RegisterTable("lineitem", &data.lineitem);
  for (const std::string& sql : sqls) {
    auto output = sia::RunSql(sql, catalog, executor);
    if (!output.ok()) return Fail("RunSql: " + output.status().ToString());
    std::printf("%zu %s\n", output->row_count,
                sia::HexDigest64(output->content_hash).c_str());
  }
  return 0;
}

struct SynthRecord {
  int64_t t0_ns = 0;  // before ParseQuery
  int64_t t1_ns = 0;  // after ParseQuery
  int64_t t2_ns = 0;  // after MakeRewriteKey
  int64_t t3_ns = 0;  // after RunSynthesisLadder
  std::string rung = "original";
  bool learned = false;
  sia::SynthesisStats stats;
  sia::ParsedQuery original;
  sia::ParsedQuery rewritten;
};

// One synth_batch operation: ParseQuery -> MakeRewriteKey ->
// RunSynthesisLadder, timestamped between the calls.
sia::Status RewriteOne(const std::string& sql, const sia::Catalog& catalog,
                       const sia::RewriteOptions& rewrite, SynthRecord* rec) {
  rec->t0_ns = NowNs();
  auto parsed = sia::ParseQuery(sql);
  rec->t1_ns = NowNs();
  SIA_RETURN_IF_ERROR(parsed.status());
  auto key = sia::MakeRewriteKey(*parsed, catalog, rewrite);
  rec->t2_ns = NowNs();
  SIA_RETURN_IF_ERROR(key.status());
  rec->original = *parsed;
  rec->rewritten = *parsed;
  if (key->synthesizable) {
    SIA_ASSIGN_OR_RETURN(
        sia::LadderRun run,
        sia::RunSynthesisLadder(key->bound, key->joint, key->cols, rewrite));
    rec->rung = sia::RewriteRungName(run.rung);
    rec->stats = run.synthesis.stats;
    if (run.learned != nullptr) {
      rec->learned = true;
      rec->rewritten.where =
          sia::Expr::Logic(sia::LogicOp::kAnd, parsed->where, run.learned);
    }
  }
  rec->t3_ns = NowNs();
  return sia::Status::OK();
}

int Synth(int argc, char** argv) {
  const double seconds = std::atof(Flag(argc, argv, "--seconds", "0").c_str());
  const double check_sf = std::atof(Flag(argc, argv, "--check-sf", "0.01").c_str());
  const bool trace = HasFlag(argc, argv, "--trace");
  const std::string warmup_path = Flag(argc, argv, "--warmup");
  std::vector<std::string> sqls, warmup;
  if (seconds <= 0 || check_sf <= 0 ||
      !ReadLines(Flag(argc, argv, "--in"), &sqls) || sqls.empty()) {
    return Fail("synth needs --seconds > 0, --check-sf > 0 and a non-empty --in");
  }
  if (!warmup_path.empty() && !ReadLines(warmup_path, &warmup)) {
    return Fail("cannot read --warmup " + warmup_path);
  }

  // Initialisation: everything a process pays once before its first
  // rewrite, including the lazy first Z3 solver.
  const sia::Catalog catalog = sia::Catalog::TpchCatalog();
  const sia::RewriteOptions rewrite = LineitemRewrite();
  {
    sia::SmtContext ctx;
    z3::solver solver(ctx.z3());
    solver.add(ctx.z3().int_const("x") > 0);
    if (solver.check() != z3::sat) return Fail("Z3 warm-up check failed");
  }
  std::printf("READY\n");
  std::fflush(stdout);
  std::string go;
  if (!std::getline(std::cin, go) || go != "GO") return 0;

  auto rotation = std::make_unique<CpuRotation>(pthread_self(),
                                                std::chrono::milliseconds(100));
  for (const std::string& sql : warmup) {
    SynthRecord rec;
    const sia::Status status = RewriteOne(sql, catalog, rewrite, &rec);
    if (!status.ok()) return Fail("warm-up: " + status.ToString());
  }
  if (trace) sia::obs::MetricsRegistry::SetEnabled(true);
  std::vector<SynthRecord> records;
  const int64_t window_start = NowNs();
  const int64_t window_ns = static_cast<int64_t>(seconds * 1e9);
  // Whole passes over the batch, so every query weighs the same however
  // fast the ladder is: a further pass starts only when one more pass of
  // the last pass's length still fits in the window.
  int passes = 0;
  int64_t pass_ns = 0;
  while (passes == 0 || NowNs() - window_start + pass_ns <= window_ns) {
    const int64_t pass_start = NowNs();
    ++passes;
    for (const std::string& sql : sqls) {
      SynthRecord rec;
      const sia::Status status = RewriteOne(sql, catalog, rewrite, &rec);
      if (!status.ok()) return Fail(status.ToString());
      records.push_back(std::move(rec));
    }
    pass_ns = NowNs() - pass_start;
  }
  const int64_t window_end = NowNs();
  rotation.reset();
  const long rss_kb = PeakRssKb();
  sia::obs::HistogramSnapshot smt_check;
  if (trace) {
    const sia::obs::MetricsSnapshot snapshot =
        sia::obs::MetricsRegistry::Instance().Snapshot();
    const auto it = snapshot.histograms.find("smt.check.latency_us");
    if (it != snapshot.histograms.end()) smt_check = it->second;
    sia::obs::MetricsRegistry::SetEnabled(false);
  }

  // Answer check, outside the timed window: a learned predicate must not
  // change the query's rows or content.
  const sia::TpchData data = sia::GenerateTpch(check_sf, 42);
  sia::Executor executor;
  executor.RegisterTable("orders", &data.orders);
  executor.RegisterTable("lineitem", &data.lineitem);
  size_t checked = 0, mismatches = 0;
  for (const SynthRecord& rec : records) {
    if (!rec.learned) continue;
    ++checked;
    auto original = sia::RunQuery(rec.original, catalog, executor);
    auto rewritten = sia::RunQuery(rec.rewritten, catalog, executor);
    if (!original.ok() || !rewritten.ok() ||
        original->row_count != rewritten->row_count ||
        original->content_hash != rewritten->content_hash) {
      ++mismatches;
      std::fprintf(stderr, "perfbench_tool: rewrite changed the answer of %s\n",
                   rec.original.ToString().c_str());
    }
  }

  std::string out = "{\"window_start_ns\":" + std::to_string(window_start) +
                    ",\"window_end_ns\":" + std::to_string(window_end) +
                    ",\"passes\":" + std::to_string(passes) +
                    ",\"rss_kb\":" + std::to_string(rss_kb) +
                    ",\"checked\":" + std::to_string(checked) +
                    ",\"mismatches\":" + std::to_string(mismatches);
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                ",\"smt_check_us\":{\"count\":%" PRIu64
                ",\"p50\":%.3f,\"p99\":%.3f}",
                smt_check.count, smt_check.Percentile(0.50),
                smt_check.Percentile(0.99));
  out += buf;
  out += ",\"records\":[";
  for (size_t i = 0; i < records.size(); ++i) {
    const SynthRecord& r = records[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"t0_ns\":%" PRId64 ",\"t1_ns\":%" PRId64
                  ",\"t2_ns\":%" PRId64 ",\"t3_ns\":%" PRId64
                  ",\"rung\":\"%s\",\"learned\":%d,\"generation_ms\":%.3f,"
                  "\"learning_ms\":%.3f,\"validation_ms\":%.3f,"
                  "\"iterations\":%d,\"solver_calls\":%zu}",
                  i == 0 ? "" : ",", r.t0_ns, r.t1_ns, r.t2_ns, r.t3_ns,
                  r.rung.c_str(), r.learned ? 1 : 0, r.stats.generation_ms,
                  r.stats.learning_ms, r.stats.validation_ms,
                  r.stats.iterations, r.stats.solver_calls);
    out += buf;
  }
  out += "]}";
  std::printf("%s\n", out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string command = argc > 1 ? argv[1] : "";
  if (command == "gen") return Gen(argc, argv);
  if (command == "reference") return Reference(argc, argv);
  if (command == "synth") return Synth(argc, argv);
  std::fprintf(stderr,
               "usage: %s gen|reference|synth [flags]  (see the file header)\n",
               argv[0]);
  return 2;
}
