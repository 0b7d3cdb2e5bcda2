#ifndef SIA_BENCH_RUNTIME_LIB_H_
#define SIA_BENCH_RUNTIME_LIB_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace sia::bench {

// Shared runner for the paper's §6.6 runtime-impact experiments (Fig. 9
// and Table 4): generate the §6.3 workload, rewrite each query with SIA,
// execute original and rewritten forms on the in-memory engine, record
// times and the synthesized predicate's selectivity on `lineitem`.
struct RuntimeRecord {
  size_t query_index = 0;
  bool rewritten = false;        // SIA produced a predicate
  double original_ms = 0;        // timed for every query
  double rewritten_ms = 0;       // timed only when rewritten
  double selectivity = 0;        // learned predicate on lineitem; 0 if none
  bool results_match = false;    // content-hash equality check
  std::string learned;           // rendered predicate
  // Digests of the ORIGINAL query's output, thread-count invariant by
  // the executor's determinism guarantee; ResultDigest folds these into
  // the workload hash the SIA_THREADS sweep compares.
  size_t row_count = 0;
  uint64_t content_hash = 0;
  uint64_t order_hash = 0;
};

struct RuntimeConfig {
  size_t query_count = 20;       // paper: 200 (SIA_BENCH_QUERIES overrides)
  double scale_factor = 0.05;    // stand-in for the paper's SF 1 / 10
  uint64_t seed = 2021;
  int repetitions = 3;           // take the best of N timed runs
  int max_iterations = 0;        // synthesis budget; 0 = synthesizer default

  static RuntimeConfig FromEnv(double default_sf);
};

// Rewrites the workload concurrently on the shared thread pool
// (RewriteBatch), then times original vs rewritten execution per query.
[[nodiscard]] Result<std::vector<RuntimeRecord>> RunRuntimeExperiment(
    const RuntimeConfig& config);

// Order-sensitive fold of every record's original-output digests
// (row_count, content_hash, order_hash). Two runs over the same data
// and workload must produce equal digests at any SIA_THREADS setting —
// the byte-identical-results gate scripts/check.sh enforces. Built only
// from original executions, so it is immune to rewrite-side variance
// (e.g. a solver budget expiring under load on one run but not another).
uint64_t ResultDigest(const std::vector<RuntimeRecord>& records);

// Summary counters matching the paper's Fig. 9 / Table 4 classification.
struct RuntimeSummary {
  int rewritten = 0;
  int faster = 0;            // rewritten_ms < original_ms
  int faster_2x = 0;
  int slower = 0;
  int slower_2x = 0;
  double avg_sel_faster = 0;  // average selectivity per class (Table 4)
  double avg_sel_faster_2x = 0;
  double avg_sel_slower = 0;
  double avg_sel_slower_2x = 0;
};
RuntimeSummary Summarize(const std::vector<RuntimeRecord>& records);

}  // namespace sia::bench

#endif  // SIA_BENCH_RUNTIME_LIB_H_
