#ifndef SIA_BENCH_EXPERIMENT_LIB_H_
#define SIA_BENCH_EXPERIMENT_LIB_H_

#include <cstdint>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "synth/synthesizer.h"
#include "workload/querygen.h"

namespace sia::bench {

// Techniques compared in the paper's §6.4/§6.5 (Table 1).
enum class Technique { kSia, kTransitiveClosure, kSiaV1, kSiaV2 };
const char* TechniqueName(Technique t);

// One synthesis attempt: a (query, column-subset, technique) triple.
struct AttemptRecord {
  size_t query_index = 0;
  std::vector<size_t> subset;     // joint-schema column indices (Cols')
  size_t subset_size = 0;         // 1..3
  Technique technique = Technique::kSia;
  bool possible = false;          // unsatisfaction tuple exists (probe)
  bool valid = false;             // synthesized predicate verified valid
  bool optimal = false;           // proved optimal (Lemma 4)
  bool uses_all_columns = false;  // non-zero coefficient on every Cols' col
  SynthesisStats stats;
  std::string predicate;          // rendered SQL ("" when !valid)
};

struct EfficacyConfig {
  size_t query_count = 12;  // paper: 200 (env SIA_BENCH_QUERIES overrides)
  uint64_t seed = 2021;
  std::vector<Technique> techniques = {
      Technique::kSia, Technique::kTransitiveClosure, Technique::kSiaV1,
      Technique::kSiaV2};
  uint32_t per_call_cap_ms = kDefaultSolverTimeoutMs;

  // Applies SIA_BENCH_QUERIES / SIA_BENCH_TIMEOUT_MS when set.
  static EfficacyConfig FromEnv();
};

struct EfficacyRun {
  std::vector<GeneratedQuery> queries;
  std::vector<AttemptRecord> attempts;
};

// Runs the shared §6.4 experiment: every query x every non-empty subset
// of {l_shipdate, l_commitdate, l_receiptdate} x every technique.
// The "possible" probe runs once per (query, subset).
[[nodiscard]] Result<EfficacyRun> RunEfficacyExperiment(const EfficacyConfig& config);

// Reads a positive integer env var, or `fallback`.
int64_t EnvInt(const char* name, int64_t fallback);

// Prints a horizontal rule + centered title, matching the other benches.
void PrintHeader(const std::string& title);

// Turns the src/obs metrics registry on when SIA_BENCH_JSON is set, so
// the pipeline's counters and latency histograms accumulate during the
// run and EmitBenchReport can embed them. Call first thing in main().
void EnableBenchObservability();

// When SIA_BENCH_JSON is set, writes
//   {"bench":"<name>","threads":N,"summary":<summary_json>,
//    "metrics":<snapshot>}
// to that path ("-" or "stdout" for stdout); `threads` is the shared
// pool's execution width (SIA_THREADS). `summary_json` must be a
// complete JSON value. No-op (returning true) when the env var is
// unset; returns false after printing to stderr when the write fails.
bool EmitBenchReport(const std::string& name,
                     const std::string& summary_json);

// Formats a double as a JSON number (non-finite values become 0), for
// hand-built bench summary objects.
std::string JsonNum(double v);

}  // namespace sia::bench

#endif  // SIA_BENCH_EXPERIMENT_LIB_H_
