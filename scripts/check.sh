#!/usr/bin/env bash
# Static-analysis and sanitizer gate for the Sia tree.
#
# Builds everything in a dedicated build dir with ASan+UBSan and
# -Werror, runs the full test suite under the sanitizers, verifies the
# SIA_ASSIGN_OR_RETURN misuse guard (un-braced `if` body must fail to
# compile), then runs sia_lint over the example SQL workload and a
# seeded generated workload (with the full Sia rewrite enabled) and
# requires zero diagnostics.
#
# Concurrency gates run as part of the standard pass:
#   - the src/obs concurrency tests, the threading-substrate tests
#     (tests/parallel_test.cc: ParallelFor, morsel-parallel execution,
#     the batch rewriter's thread-count-invariant outcomes), the
#     serving-subsystem tests (tests/server_test.cc: protocol abuse,
#     load shedding, graceful drain) AND the online-learning state
#     machine tests (tests/promotion_test.cc) are rebuilt and re-run
#     under ThreadSanitizer in a dedicated build dir;
#   - an overhead guard builds bench_micro twice — observability
#     compiled in but disabled (the shipping configuration) vs compiled
#     out via -DSIA_DISABLE_OBS=ON — and asserts the instrumented hot
#     paths stay within OBS_OVERHEAD_PCT of the obs-free baseline
#     (pinned to SIA_THREADS=1 so pool scheduling noise stays out of
#     the nanosecond-scale comparison);
#   - a threads sweep runs bench_fig9_runtime at SIA_THREADS=1 and 4
#     and asserts the per-scale result_hash (an order-sensitive digest
#     of every original query's output) is identical — the engine's
#     byte-identical-output-at-any-thread-count contract, end to end.
#
# `check.sh --fault-sweep` additionally runs the robustness fault sweep:
# for every fault point the pipeline declares, the fault_sweep_test
# binary is re-run (still under the sanitizers) with SIA_FAULTS forcing
# that point to fail, asserting no crash, graceful degradation, and
# results identical to the fault-free baseline.
#
# `check.sh --serve-smoke` additionally runs the serving end-to-end
# gates:
#   - promotion lifecycle: start sia_serve (executing queries against
#     generated TPC-H data) with --promote-after 3 --shadow-sample-rate
#     1, repeat the same PROMO_QUERIES-query template workload until
#     STATS reports rewrite.promote.promoted >= 1, and require every
#     pass's rows/content_hash to equal the batch sia_lint reference —
#     the learning loop may never change an answer. The reference is
#     computed with sia_lint --digests-out at --threads 1 AND 4, and the
#     two files must be byte-identical (each query's ladder runs on its
#     own Z3 context, so batch rewriting does not depend on the thread
#     count). SIGTERM must then drain the daemon cleanly (exit 0,
#     DRAINED line). A 10 Hz sia_top poller runs throughout, the
#     OBSERVE verb is fetched raw mid-burst and
#     must parse as the documented JSON schema, and the SIA_TRACE
#     Chrome export written at drain must contain at least one trace ID
#     whose spans link admission -> background synthesis -> promotion
#     decision;
#   - OBSERVE overhead: a fresh server with a deterministic injected
#     per-scan latency floor serves the same warm workload in two quiet
#     and two 10 Hz sia_top-polled passes (interleaved); every pass's
#     digests must be byte-identical while the best-of-two polled p99
#     request latency (lifetime-histogram bucket deltas between STATS
#     snapshots) stays within OBSERVE_OVERHEAD_PCT of the best-of-two
#     quiet p99.
#
# `check.sh --static` additionally runs the compile-time concurrency and
# conventions gates:
#   - sia_conventions (tools/conventions_lib.cc) must report zero
#     findings across src/ tools/ tests/ bench/ — the lock-annotation,
#     raw-primitive, [[nodiscard]], obs-catalog, span-scope, and
#     SIA_NO_THREAD_SAFETY_ANALYSIS invariants;
#   - when clang++ >= ${CLANG_MIN_MAJOR} is installed, the whole tree is
#     rebuilt with clang in ${BUILD_DIR}-static so -Wthread-safety (see
#     CMakeLists.txt) verifies every SIA_GUARDED_BY / SIA_REQUIRES /
#     SIA_EXCLUDES annotation under -Werror, and clang-tidy (the
#     repo-root .clang-tidy profile, WarningsAsErrors on the bugprone
#     and performance families — a gate here, not just an editor
#     profile) runs over the tree's compile_commands.json. Without
#     clang the stage degrades to sia_conventions alone, with a loud
#     warning: the annotations still compile (they expand to nothing
#     under GCC) but are unverified.
#
# Environment overrides:
#   BUILD_DIR        build directory (default build-check)
#   SANITIZE         SIA_SANITIZE value (default address,undefined)
#   LINT_WORKLOAD    number of generated queries to lint (default 1000)
#   LINT_ITERATIONS  synthesis iteration budget for the rewrite pass
#                    (default 3; the paper's default of 41 is much
#                    slower and adds no validation coverage)
#   SWEEP_QUERIES    queries per fault-sweep pass (default 8)
#   SMOKE_SCALE      TPC-H scale factor for --serve-smoke (default 0.01)
#   PROMO_QUERIES    template-workload size for the promotion-lifecycle
#                    smoke (default 12)
#   PROMO_PASSES     max repeats of the template workload while waiting
#                    for a promotion (default 12)
#   OBS_OVERHEAD_PCT max tolerated bench_micro slowdown, percent, of the
#                    obs-disabled build over the obs-free build
#                    (default 10 — the gate is one relaxed atomic load
#                    per site, so real regressions blow well past this)
#   OBSERVE_OVERHEAD_PCT max tolerated p99 latency delta, percent, of a
#                    10 Hz OBSERVE-polled serving pass over a quiet one
#                    (default 5; the injected latency floor makes the
#                    comparison deterministic enough for that bound)
#   OBS_GUARD_QUERIES workload size per OBSERVE-overhead pass
#                    (default 96)
#   JOBS             parallel build/test jobs (default nproc)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build-check}
SANITIZE=${SANITIZE:-address,undefined}
LINT_WORKLOAD=${LINT_WORKLOAD:-1000}
LINT_ITERATIONS=${LINT_ITERATIONS:-3}
SWEEP_QUERIES=${SWEEP_QUERIES:-8}
SMOKE_SCALE=${SMOKE_SCALE:-0.01}
PROMO_QUERIES=${PROMO_QUERIES:-12}
PROMO_PASSES=${PROMO_PASSES:-12}
OBS_OVERHEAD_PCT=${OBS_OVERHEAD_PCT:-10}
OBSERVE_OVERHEAD_PCT=${OBSERVE_OVERHEAD_PCT:-5}
OBS_GUARD_QUERIES=${OBS_GUARD_QUERIES:-96}
JOBS=${JOBS:-$(nproc)}

FAULT_SWEEP=0
SERVE_SMOKE=0
STATIC=0
for arg in "$@"; do
  case "$arg" in
    --fault-sweep) FAULT_SWEEP=1 ;;
    --serve-smoke) SERVE_SMOKE=1 ;;
    --static) STATIC=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

# Oldest clang whose thread-safety analysis understands every annotation
# sync.h emits (scoped_lockable with split Unlock/Lock re-acquire).
CLANG_MIN_MAJOR=14

# A build dir configured with one compiler silently keeps it forever:
# `cmake -B dir` on an existing cache ignores a changed CC/CXX, so a
# stale dir would make the clang stages below "pass" under GCC (where
# every thread-safety annotation expands to nothing). Refuse to reuse a
# cache whose compiler differs from the one this run needs.
require_compiler() { # <build-dir> <compiler>
  local cache="$1/CMakeCache.txt" cached want
  [[ -f "${cache}" ]] || return 0
  cached=$(sed -n 's/^CMAKE_CXX_COMPILER:[^=]*=//p' "${cache}" | head -n1)
  want=$(command -v "$2" || true)
  [[ -n "${cached}" && -n "${want}" ]] || return 0
  if [[ "$(readlink -f "${cached}")" != "$(readlink -f "${want}")" ]]; then
    echo "ERROR: $1 was configured with ${cached}, but this run needs $2;" \
         "remove it (rm -rf $1) and re-run" >&2
    exit 1
  fi
}

echo "== configure (${BUILD_DIR}: SIA_SANITIZE=${SANITIZE}, SIA_WERROR=ON)"
require_compiler "${BUILD_DIR}" "${CXX:-c++}"
cmake -B "${BUILD_DIR}" -S . \
  -DSIA_SANITIZE="${SANITIZE}" -DSIA_WERROR=ON >/dev/null

echo "== build"
cmake --build "${BUILD_DIR}" -j "${JOBS}"

echo "== ctest (under ${SANITIZE})"
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "${JOBS}"

echo "== SIA_ASSIGN_OR_RETURN misuse must fail to compile"
# The macro expands to several statements; as the un-braced body of an
# `if` it must be a compile error (see src/common/status.h), or a
# conditional assignment would silently become unconditional.
COMPILE_OK_SRC=$(mktemp --suffix=.cc)
COMPILE_FAIL_SRC=$(mktemp --suffix=.cc)
trap 'rm -f "${COMPILE_OK_SRC}" "${COMPILE_FAIL_SRC}"' EXIT
# Positive control first: the same macro in a braced body must compile,
# so a rejection below means the guard fired, not a broken include path.
cat > "${COMPILE_OK_SRC}" <<'EOF'
#include "common/status.h"
sia::Result<int> Source() { return 1; }
sia::Result<int> Ok(bool flag) {
  if (flag) {
    SIA_ASSIGN_OR_RETURN(int v, Source());
    return v;
  }
  return 0;
}
EOF
c++ -std=c++20 -Isrc -fsyntax-only "${COMPILE_OK_SRC}"
cat > "${COMPILE_FAIL_SRC}" <<'EOF'
#include "common/status.h"
sia::Result<int> Source() { return 1; }
sia::Result<int> Misuse(bool flag) {
  if (flag)
    SIA_ASSIGN_OR_RETURN(int v, Source());  // un-braced if body: must not compile
  return 0;
}
EOF
if c++ -std=c++20 -Isrc -fsyntax-only "${COMPILE_FAIL_SRC}" 2>/dev/null; then
  echo "ERROR: un-braced SIA_ASSIGN_OR_RETURN misuse compiled" >&2
  exit 1
fi
echo "   (rejected, as required)"

# --- Static concurrency/conventions gates (--static) ---------------------
if [[ "${STATIC}" -eq 1 ]]; then
  echo "== sia_conventions (repo-invariant linter, zero findings required)"
  "${BUILD_DIR}/tools/sia_conventions" --root=.

  CLANG_BIN=$(command -v clang++ || true)
  CLANG_MAJOR=0
  if [[ -n "${CLANG_BIN}" ]]; then
    CLANG_MAJOR=$("${CLANG_BIN}" -dumpversion 2>/dev/null | cut -d. -f1)
    CLANG_MAJOR=${CLANG_MAJOR:-0}
  fi
  if [[ -z "${CLANG_BIN}" || "${CLANG_MAJOR}" -lt "${CLANG_MIN_MAJOR}" ]]; then
    echo "!!" >&2
    echo "!! WARNING: clang++ >= ${CLANG_MIN_MAJOR} not found" \
         "(found: ${CLANG_BIN:-none}, major ${CLANG_MAJOR})." >&2
    echo "!! The -Wthread-safety and clang-tidy gates were SKIPPED: the" >&2
    echo "!! sync.h lock annotations compile (they are no-ops under GCC)" >&2
    echo "!! but are UNVERIFIED on this machine. Install clang to run" >&2
    echo "!! the full static gate." >&2
    echo "!!" >&2
  else
    STATIC_DIR="${BUILD_DIR}-static"
    echo "== clang -Wthread-safety -Werror (${STATIC_DIR}," \
         "clang ${CLANG_MAJOR})"
    require_compiler "${STATIC_DIR}" clang++
    cmake -B "${STATIC_DIR}" -S . -DCMAKE_CXX_COMPILER="${CLANG_BIN}" \
      -DSIA_WERROR=ON >/dev/null
    cmake --build "${STATIC_DIR}" -j "${JOBS}"

    TIDY_BIN=$(command -v clang-tidy || true)
    if [[ -z "${TIDY_BIN}" ]]; then
      echo "!! WARNING: clang-tidy not found; the .clang-tidy gate was" \
           "SKIPPED." >&2
    else
      echo "== clang-tidy (WarningsAsErrors: bugprone-*, performance-*)"
      # Sources only: headers are pulled in through HeaderFilterRegex.
      find src tools bench -name '*.cc' -print0 |
        xargs -0 -P "${JOBS}" -n 8 "${TIDY_BIN}" -p "${STATIC_DIR}" --quiet
    fi
  fi
fi

LINT="${BUILD_DIR}/tools/sia_lint"

echo "== sia_lint examples/*.sql"
"${LINT}" --werror examples/*.sql

echo "== sia_lint --workload ${LINT_WORKLOAD} (bind/plan/movement)"
"${LINT}" --werror -q --workload "${LINT_WORKLOAD}"

echo "== sia_lint --workload ${LINT_WORKLOAD} --rewrite" \
     "(learned-predicate + rewritten-plan validation)"
"${LINT}" --werror -q --workload "${LINT_WORKLOAD}" --rewrite \
  --max-iterations "${LINT_ITERATIONS}"

# --- Serve smoke: the learning loop never changes an answer, clean drain --
if [[ "${SERVE_SMOKE}" -eq 1 ]]; then
  SERVE="${BUILD_DIR}/tools/sia_serve"
  CLIENT="${BUILD_DIR}/tools/sia_client"
  SMOKE_DIR=$(mktemp -d)
  SERVE_PID=""
  TOP_PID=""
  # Stops one smoke process and reaps it, so a failed smoke never leaves
  # a draining sia_serve or a polling sia_top behind: SIGTERM, up to 15 s
  # for a clean exit (a drain waits on busy workers with no bound of its
  # own), then SIGKILL, then wait.
  stop_smoke_process() {
    local pid="$1"
    [[ -n "${pid}" ]] || return 0
    kill -TERM "${pid}" 2>/dev/null || true
    for _ in $(seq 1 150); do
      # A child that has exited but is not yet reaped still answers
      # kill -0; ps reports it as a zombie (state Z).
      local state
      state=$(ps -o stat= -p "${pid}" 2>/dev/null) || break
      [[ "${state}" == Z* ]] && break
      sleep 0.1
    done
    kill -KILL "${pid}" 2>/dev/null || true
    wait "${pid}" 2>/dev/null || true
  }
  trap 'rm -f "${COMPILE_OK_SRC}" "${COMPILE_FAIL_SRC}";
        stop_smoke_process "${TOP_PID}";
        stop_smoke_process "${SERVE_PID}";
        rm -rf "${SMOKE_DIR}"' EXIT

  # --- Promotion lifecycle: background learning end to end --------------
  # Default-mode sia_serve (never synthesize on the serving path), every
  # eligible serve shadow-checked, repeated passes of the same template
  # workload. Required: at least one entry earns kPromoted on measured
  # evidence, and every pass's rows/content_hash match the batch lint
  # reference throughout — the learning loop may change rung/sql_hash
  # lines, never an answer.
  echo "== promotion lifecycle smoke (${PROMO_QUERIES} queries x up to" \
       "${PROMO_PASSES} passes, --promote-after 3, shadow rate 1," \
       "10 Hz sia_top poller throughout)"
  # SIA_TRACE: the drain flushes a Chrome trace export; the chain check
  # below requires one trace ID to link admission -> synthesis ->
  # promotion decision across it.
  SIA_METRICS=stderr SIA_TRACE="${SMOKE_DIR}/promo_trace.json" \
    "${SERVE}" --port-file "${SMOKE_DIR}/promo_port" \
    --workers 4 --scale "${SMOKE_SCALE}" \
    --max-iterations "${LINT_ITERATIONS}" \
    --promote-after 3 --shadow-sample-rate 1 \
    > "${SMOKE_DIR}/promo.log" 2>&1 &
  SERVE_PID=$!
  for _ in $(seq 1 300); do
    [[ -s "${SMOKE_DIR}/promo_port" ]] && break
    if ! kill -0 "${SERVE_PID}" 2>/dev/null; then break; fi
    sleep 0.1
  done
  if [[ ! -s "${SMOKE_DIR}/promo_port" ]]; then
    echo "ERROR: sia_serve (promotion smoke) did not come up" >&2
    cat "${SMOKE_DIR}/promo.log" >&2
    exit 1
  fi
  PROMO_PORT=$(cat "${SMOKE_DIR}/promo_port")

  # The live console view polls OBSERVE at 10 Hz for the whole smoke:
  # every reply must render (sia_top exits 1 on any malformed frame).
  TOP="${BUILD_DIR}/tools/sia_top"
  "${TOP}" --port "${PROMO_PORT}" --interval-ms 100 \
    > "${SMOKE_DIR}/promo_top.out" 2>&1 &
  TOP_PID=$!

  # Batch determinism: the reference digests must be byte-identical
  # serially and through the 4-thread batch rewriter.
  for t in 1 4; do
    "${LINT}" -q --rewrite --workload "${PROMO_QUERIES}" --threads "${t}" \
      --max-iterations "${LINT_ITERATIONS}" --execute-sf "${SMOKE_SCALE}" \
      --digests-out "${SMOKE_DIR}/promo_lint_t${t}.dig" > /dev/null
  done
  if ! cmp "${SMOKE_DIR}/promo_lint_t1.dig" "${SMOKE_DIR}/promo_lint_t4.dig"
  then
    diff -u "${SMOKE_DIR}/promo_lint_t1.dig" \
      "${SMOKE_DIR}/promo_lint_t4.dig" >&2 || true
    echo "ERROR: sia_lint digests differ between --threads 1 and 4" >&2
    exit 1
  fi
  echo "   digests: sia_lint --threads 1 == --threads 4" \
       "(${PROMO_QUERIES} lines)"

  PROMOTED=0
  PASSES_RUN=0
  for pass in $(seq 1 "${PROMO_PASSES}"); do
    "${CLIENT}" --port "${PROMO_PORT}" --workload "${PROMO_QUERIES}" -q \
      --digests-out "${SMOKE_DIR}/promo_pass${pass}.dig" > /dev/null
    PASSES_RUN="${pass}"
    if [[ "${pass}" -eq 1 ]]; then
      # Raw OBSERVE mid-burst: one frame over the wire, parsed against
      # the documented schema (DESIGN.md "Live telemetry") — the tool
      # above exercises the rendering; this asserts the contract.
      python3 - "${PROMO_PORT}" <<'EOF'
import json, socket, struct, sys

with socket.create_connection(("127.0.0.1", int(sys.argv[1])), 10) as s:
    s.settimeout(10)
    s.sendall(struct.pack(">I", len(b"OBSERVE")) + b"OBSERVE")
    raw = b""
    while len(raw) < 4:
        raw += s.recv(4 - len(raw))
    (n,) = struct.unpack(">I", raw)
    body = b""
    while len(body) < n:
        chunk = s.recv(n - len(body))
        if not chunk:
            sys.exit("ERROR: OBSERVE reply truncated")
        body += chunk
text = body.decode()
status, _, payload = text.partition("\n")
if status.split()[0] != "OK":
    sys.exit(f"ERROR: OBSERVE replied {status!r}, want OK")
snap = json.loads(payload)
missing = [k for k in ("now_us", "windows", "events", "cache")
           if k not in snap]
if missing:
    sys.exit(f"ERROR: OBSERVE snapshot missing keys {missing}")
for win in ("1s", "10s", "60s"):
    if win not in snap["windows"]:
        sys.exit(f"ERROR: OBSERVE windows missing {win!r}")
print(f"   OBSERVE mid-burst: OK, schema valid "
      f"({len(snap['events'])} events, {len(snap['cache'])} cache entries)")
EOF
    fi
    "${CLIENT}" --port "${PROMO_PORT}" --stats -q \
      > "${SMOKE_DIR}/promo_stats.out"
    PROMOTED=$(python3 - "${SMOKE_DIR}/promo_stats.out" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    for line in f:
        line = line.strip()
        if line.startswith("{"):
            print(int(json.loads(line).get("counters", {})
                      .get("rewrite.promote.promoted", 0)))
            break
    else:
        print(0)
EOF
)
    # Keep serving a few passes after the first promotion so promoted
    # entries are exercised (and digest-checked) on the serving path.
    if [[ "${PROMOTED}" -ge 1 && "${pass}" -ge 4 ]]; then break; fi
    sleep 2  # let queued background jobs land between template repeats
  done
  if [[ "${PROMOTED}" -lt 1 ]]; then
    echo "ERROR: no cache entry reached kPromoted after" \
         "${PASSES_RUN} passes" >&2
    cat "${SMOKE_DIR}/promo_stats.out" >&2
    cat "${SMOKE_DIR}/promo.log" >&2
    exit 1
  fi
  echo "   promoted entries (counter rewrite.promote.promoted):" \
       "${PROMOTED} after ${PASSES_RUN} passes"
  python3 - "${PROMO_QUERIES}" "${SMOKE_DIR}/promo_lint_t1.dig" \
      "${SMOKE_DIR}"/promo_pass*.dig <<'EOF'
import re, sys

want = int(sys.argv[1])

def digests(path):
    """seed -> (rows, content_hash); only executed lines carry digests."""
    out = {}
    with open(path) as f:
        for line in f:
            m = re.search(r"^workload:seed(\d+).* rows=(\d+) "
                          r"content_hash=([0-9a-f]+)", line)
            if m:
                out[int(m.group(1))] = (m.group(2), m.group(3))
    return out

ref = digests(sys.argv[2])
if len(ref) != want:
    print(f"ERROR: lint reference has {len(ref)} digest lines, want {want}",
          file=sys.stderr)
    sys.exit(1)
failed = False
for path in sys.argv[3:]:
    got = digests(path)
    if len(got) != want:
        print(f"ERROR: {path}: {len(got)} digest lines, want {want}",
              file=sys.stderr)
        failed = True
        continue
    for seed, digest in got.items():
        if ref.get(seed) != digest:
            print(f"ERROR: {path}: seed {seed} served {digest}, batch lint "
                  f"says {ref.get(seed)}", file=sys.stderr)
            failed = True
if failed:
    print("ERROR: served digests diverged from the batch reference",
          file=sys.stderr)
    sys.exit(1)
print(f"   digests: every pass == batch lint ({want} queries per pass)")
EOF

  # Stop the poller before the drain so its last OBSERVE isn't racing
  # the listener shutdown; by now it has rendered dozens of frames.
  kill "${TOP_PID}" 2>/dev/null || true
  wait "${TOP_PID}" 2>/dev/null || true
  TOP_PID=""
  if ! grep -q 'win  *qps' "${SMOKE_DIR}/promo_top.out"; then
    echo "ERROR: sia_top rendered no frames during the promotion smoke" >&2
    cat "${SMOKE_DIR}/promo_top.out" >&2
    exit 1
  fi
  TOP_FRAMES=$(grep -c 'now_us=' "${SMOKE_DIR}/promo_top.out" || true)
  echo "   sia_top: ${TOP_FRAMES} frames rendered at 10 Hz, none malformed"

  kill -TERM "${SERVE_PID}"
  if ! wait "${SERVE_PID}"; then
    echo "ERROR: sia_serve (promotion smoke) did not drain cleanly" >&2
    cat "${SMOKE_DIR}/promo.log" >&2
    exit 1
  fi
  SERVE_PID=""
  if ! grep -q '^DRAINED ' "${SMOKE_DIR}/promo.log"; then
    echo "ERROR: promotion smoke exited without a DRAINED line" >&2
    cat "${SMOKE_DIR}/promo.log" >&2
    exit 1
  fi

  # The drain flushed SIA_TRACE: one request's trace ID must link its
  # admission span, the background synthesis job its miss queued, and
  # the promotion decision folded from a later shadow run — three spans
  # on three threads, one trace.
  python3 - "${SMOKE_DIR}/promo_trace.json" <<'EOF'
import json, sys
from collections import defaultdict

with open(sys.argv[1]) as f:
    events = json.load(f)["traceEvents"]
names_by_trace = defaultdict(set)
for ev in events:
    tid = (ev.get("args") or {}).get("trace_id", 0)
    if tid:
        names_by_trace[tid].add(ev.get("name"))
need = {"server.accept", "rewrite.background.synthesize",
        "rewrite.promote.decision"}
linked = [t for t, names in names_by_trace.items() if need <= names]
if not linked:
    partial = {t: sorted(n & need) for t, n in names_by_trace.items()
               if n & need}
    print(f"ERROR: no trace ID links {sorted(need)}; partial chains: "
          f"{partial}", file=sys.stderr)
    sys.exit(1)
print(f"   trace chain: {len(linked)} trace ID(s) link admission -> "
      f"synthesis -> promotion decision (e.g. trace_id={linked[0]})")
EOF

  # --- OBSERVE overhead: polling must not perturb the serving path ------
  # A deterministic injected per-scan latency floor (engine.scan
  # latency:20) dominates request latency, so the quiet-vs-polled p99
  # comparison below is stable enough for a tight bound. Shadow sampling
  # is off: after the warm pass the cache is fully populated and the
  # background loop idle, so both measured passes do identical work.
  echo "== OBSERVE overhead guard (${OBS_GUARD_QUERIES} queries/pass," \
       "quiet vs 10 Hz sia_top poll, p99 delta <= ${OBSERVE_OVERHEAD_PCT}%)"
  SIA_FAULTS="engine.scan=latency:20" \
    "${SERVE}" --port-file "${SMOKE_DIR}/guard_port" \
    --workers 4 --scale "${SMOKE_SCALE}" \
    --max-iterations "${LINT_ITERATIONS}" \
    --shadow-sample-rate 0 \
    > "${SMOKE_DIR}/guard.log" 2>&1 &
  SERVE_PID=$!
  for _ in $(seq 1 300); do
    [[ -s "${SMOKE_DIR}/guard_port" ]] && break
    if ! kill -0 "${SERVE_PID}" 2>/dev/null; then break; fi
    sleep 0.1
  done
  if [[ ! -s "${SMOKE_DIR}/guard_port" ]]; then
    echo "ERROR: sia_serve (OBSERVE overhead guard) did not come up" >&2
    cat "${SMOKE_DIR}/guard.log" >&2
    exit 1
  fi
  GUARD_PORT=$(cat "${SMOKE_DIR}/guard_port")

  # Warm passes: populate the cache, then wait for the learning loop to
  # go fully quiescent so the measured passes compete with nothing and
  # serve identical answers. One pass is not enough: a full background
  # queue refuses jobs (they count in `dropped`, never in `enqueued`) and
  # a refused key misses, and is queued, again on the next pass; and a
  # finished job's evidence runs, and may promote, after `completed`
  # ticks. So repeat the pass until it offers no new job, each time
  # waiting until every accepted job is done and the promotion counters
  # hold still across a poll.
  guard_learning() { # prints "<jobs offered> <jobs pending> <verdicts>"
    "${CLIENT}" --port "${GUARD_PORT}" --stats -q \
      > "${SMOKE_DIR}/guard_depth.out"
    python3 - "${SMOKE_DIR}/guard_depth.out" <<'EOF'
import json, sys
counters = {}
with open(sys.argv[1]) as f:
    for line in f:
        if line.startswith("{"):
            counters = json.loads(line).get("counters", {})
            break
bg = lambda k: int(counters.get("rewrite.background." + k, 0))
pr = lambda k: int(counters.get("rewrite.promote." + k, 0))
print(bg("enqueued") + bg("dropped"),
      bg("enqueued") - bg("completed") - bg("failed"),
      pr("wins") + pr("losses") + pr("promoted") + pr("demoted"))
EOF
  }
  QUIET=0
  OFFERED_BEFORE=-1
  for _ in $(seq 1 10); do
    "${CLIENT}" --port "${GUARD_PORT}" --workload "${OBS_GUARD_QUERIES}" \
      --concurrency 4 -q > /dev/null
    LAST_VERDICTS=""
    for _ in $(seq 1 600); do
      read -r OFFERED PENDING VERDICTS < <(guard_learning)
      if [[ "${PENDING}" -le 0 && "${VERDICTS}" == "${LAST_VERDICTS}" ]]; then
        break
      fi
      LAST_VERDICTS="${VERDICTS}"
      sleep 0.5
    done
    if [[ "${OFFERED}" -eq "${OFFERED_BEFORE}" ]]; then
      QUIET=1
      break
    fi
    OFFERED_BEFORE="${OFFERED}"
  done
  if [[ "${QUIET}" -ne 1 ]]; then
    echo "ERROR: the learning loop never went quiet over the warm passes" >&2
    exit 1
  fi

  guard_stats() { # <out-file>
    # Via a file, not a pipe: `grep -m1` exits at the first match and a
    # client still flushing its summary line would die of SIGPIPE.
    "${CLIENT}" --port "${GUARD_PORT}" --stats -q > "$1.raw"
    grep -m1 '^{' "$1.raw" > "$1"
  }

  # Interleave two quiet and two polled passes and gate on the best of
  # each: min-of-two filters one-off scheduler noise (this also runs
  # under ASan on loaded CI boxes) while a real per-request OBSERVE cost
  # would tax both polled passes alike.
  guard_stats "${SMOKE_DIR}/guard_s0.json"
  for rep in 1 2; do
    "${CLIENT}" --port "${GUARD_PORT}" --workload "${OBS_GUARD_QUERIES}" \
      --concurrency 4 -q \
      --digests-out "${SMOKE_DIR}/guard_quiet${rep}.dig" > /dev/null
    guard_stats "${SMOKE_DIR}/guard_q${rep}.json"

    "${TOP}" --port "${GUARD_PORT}" --interval-ms 100 \
      >> "${SMOKE_DIR}/guard_top.out" 2>&1 &
    TOP_PID=$!
    "${CLIENT}" --port "${GUARD_PORT}" --workload "${OBS_GUARD_QUERIES}" \
      --concurrency 4 -q \
      --digests-out "${SMOKE_DIR}/guard_polled${rep}.dig" > /dev/null
    guard_stats "${SMOKE_DIR}/guard_p${rep}.json"
    kill "${TOP_PID}" 2>/dev/null || true
    wait "${TOP_PID}" 2>/dev/null || true
    TOP_PID=""
  done
  if ! grep -q 'now_us=' "${SMOKE_DIR}/guard_top.out"; then
    echo "ERROR: sia_top rendered no frames during the polled passes" >&2
    cat "${SMOKE_DIR}/guard_top.out" >&2
    exit 1
  fi

  for dig in "${SMOKE_DIR}"/guard_quiet2.dig \
             "${SMOKE_DIR}"/guard_polled1.dig \
             "${SMOKE_DIR}"/guard_polled2.dig; do
    if ! diff -u "${SMOKE_DIR}/guard_quiet1.dig" "${dig}"; then
      echo "ERROR: digests changed under 10 Hz OBSERVE polling (${dig})" >&2
      exit 1
    fi
  done
  echo "   digests: polled passes == quiet passes" \
       "(${OBS_GUARD_QUERIES} lines x 4)"

  python3 - "${OBSERVE_OVERHEAD_PCT}" "${OBS_GUARD_QUERIES}" \
      "${SMOKE_DIR}/guard_s0.json" \
      "${SMOKE_DIR}/guard_q1.json" "${SMOKE_DIR}/guard_p1.json" \
      "${SMOKE_DIR}/guard_q2.json" "${SMOKE_DIR}/guard_p2.json" <<'EOF'
import json, sys

tolerance_pct = float(sys.argv[1])
queries = int(sys.argv[2])
HIST = "server.request.latency_us"

def buckets(path):
    with open(path) as f:
        snap = json.load(f)
    h = snap.get("histograms", {}).get(HIST)
    if h is None:
        sys.exit(f"ERROR: {path} has no {HIST} histogram")
    return h["buckets"]

def p99(delta):
    # Same bucket scheme as src/obs/metrics.cc: bucket 0 is [0,1),
    # bucket i is [2^(i-1), 2^i); interpolate by rank within a bucket.
    total = sum(delta)
    if total == 0:
        sys.exit("ERROR: empty histogram delta (no requests recorded?)")
    target = 0.99 * total
    cumulative = 0
    for i, n in enumerate(delta):
        if n == 0:
            continue
        if cumulative + n >= target:
            lower = 0.0 if i == 0 else float(1 << (i - 1))
            upper = 1.0 if i == 0 else float(1 << i)
            frac = (target - cumulative) / n
            return lower + frac * (upper - lower)
        cumulative += n
    return 0.0

snaps = [buckets(p) for p in sys.argv[3:8]]
passes = []  # (label, p99) in run order: q1, p1, q2, p2
for label, older, newer in (("quiet1", 0, 1), ("polled1", 1, 2),
                            ("quiet2", 2, 3), ("polled2", 3, 4)):
    delta = [b - a for a, b in zip(snaps[older], snaps[newer])]
    if any(d < 0 for d in delta):
        sys.exit(f"ERROR: non-monotonic bucket counts in the {label} delta")
    if sum(delta) < queries:
        sys.exit(f"ERROR: {label} pass recorded {sum(delta)} requests, "
                 f"want >= {queries}")
    passes.append((label, p99(delta)))
q99 = min(v for label, v in passes if label.startswith("quiet"))
p99v = min(v for label, v in passes if label.startswith("polled"))
limit = q99 * (1.0 + tolerance_pct / 100.0)
detail = ", ".join(f"{label} {v:.0f}us" for label, v in passes)
print(f"   p99 request latency: {detail}")
print(f"   best-of-2: quiet {q99:.0f}us, polled {p99v:.0f}us "
      f"(limit {limit:.0f}us at +{tolerance_pct:g}%)")
if p99v > limit:
    sys.exit(f"ERROR: OBSERVE polling moved best-of-2 p99 from {q99:.0f}us "
             f"to {p99v:.0f}us (> +{tolerance_pct:g}%)")
EOF

  kill -TERM "${SERVE_PID}"
  if ! wait "${SERVE_PID}"; then
    echo "ERROR: sia_serve (OBSERVE overhead guard) did not drain cleanly" >&2
    cat "${SMOKE_DIR}/guard.log" >&2
    exit 1
  fi
  SERVE_PID=""
fi

# --- Concurrency gates ---------------------------------------------------
# src/obs is lock-light by design (relaxed atomics on counters, one
# mutex per thread-local trace ring), and the threading substrate
# (ThreadPool, morsel-parallel execution, the batch rewriter) and the
# serving path (admission, drain, the rewrite cache's Decide marker and
# the learner thread) are where any data race in the tree would live;
# run those test binaries under ThreadSanitizer in a dedicated build
# dir. TSan is incompatible with ASan, hence the separate dir.
TSAN_DIR="${BUILD_DIR}-tsan"
echo "== obs + parallel + server + promotion concurrency tests under" \
     "ThreadSanitizer (${TSAN_DIR})"
require_compiler "${TSAN_DIR}" "${CXX:-c++}"
cmake -B "${TSAN_DIR}" -S . -DSIA_SANITIZE=thread >/dev/null
cmake --build "${TSAN_DIR}" -j "${JOBS}" \
  --target obs_test parallel_test server_test promotion_test
# scripts/tsan.supp silences reports from inside uninstrumented libz3
# frames (Z3's global allocator locking); our own code is not suppressed.
TSAN_OPTIONS="suppressions=$(pwd)/scripts/tsan.supp" \
  "${TSAN_DIR}/tests/obs_test" --gtest_brief=1
TSAN_OPTIONS="suppressions=$(pwd)/scripts/tsan.supp" \
  "${TSAN_DIR}/tests/parallel_test" --gtest_brief=1
TSAN_OPTIONS="suppressions=$(pwd)/scripts/tsan.supp" \
  "${TSAN_DIR}/tests/server_test" --gtest_brief=1
TSAN_OPTIONS="suppressions=$(pwd)/scripts/tsan.supp" \
  "${TSAN_DIR}/tests/promotion_test" --gtest_brief=1

# Overhead guard: with SIA_METRICS/SIA_TRACE unset, the entire cost of
# the compiled-in instrumentation is one relaxed atomic load per site.
# Build bench_micro twice — observability compiled in (and left
# disabled) vs compiled out with -DSIA_DISABLE_OBS=ON — and require the
# instrumented hot paths to stay within OBS_OVERHEAD_PCT. Neither dir
# carries sanitizers: the numbers have to reflect shipping codegen.
OBS_ON_DIR="${BUILD_DIR}-obs-on"
OBS_OFF_DIR="${BUILD_DIR}-obs-off"
echo "== obs overhead guard (disabled-at-runtime vs compiled-out," \
     "tolerance ${OBS_OVERHEAD_PCT}%)"
require_compiler "${OBS_ON_DIR}" "${CXX:-c++}"
require_compiler "${OBS_OFF_DIR}" "${CXX:-c++}"
cmake -B "${OBS_ON_DIR}" -S . >/dev/null
cmake -B "${OBS_OFF_DIR}" -S . -DSIA_DISABLE_OBS=ON >/dev/null
cmake --build "${OBS_ON_DIR}" -j "${JOBS}" --target bench_micro
cmake --build "${OBS_OFF_DIR}" -j "${JOBS}" --target bench_micro
OBS_BENCH_FILTER='BM_ParseQuery|BM_BindPredicate|BM_EngineScanFilter$'
unset SIA_METRICS SIA_TRACE  # the guard measures the idle gate
# Interleave separate runs of the two binaries and take the per-benchmark
# minimum across all of them: alternation cancels machine-load drift that
# would otherwise swamp the ~1ns/site cost being measured. Seven rounds
# of 2 s per benchmark (four times Google Benchmark's default) give the
# minimum more, longer draws; three rounds at the default read host noise
# beyond the bound on unchanged code. SIA_THREADS=1 keeps pool scheduling
# out of the numbers: the comparison is about the per-site
# instrumentation gate, not parallel speedup variance.
OBS_BENCH_ARGS=(--benchmark_filter="${OBS_BENCH_FILTER}"
                --benchmark_min_time=2 --benchmark_format=json)
rm -f "${OBS_ON_DIR}"/obs_overhead.*.json "${OBS_OFF_DIR}"/obs_overhead.*.json
for rep in 1 2 3 4 5 6 7; do
  SIA_THREADS=1 "${OBS_ON_DIR}/bench/bench_micro" "${OBS_BENCH_ARGS[@]}" \
    > "${OBS_ON_DIR}/obs_overhead.${rep}.json"
  SIA_THREADS=1 "${OBS_OFF_DIR}/bench/bench_micro" "${OBS_BENCH_ARGS[@]}" \
    > "${OBS_OFF_DIR}/obs_overhead.${rep}.json"
done
python3 - "${OBS_OVERHEAD_PCT}" \
    "${OBS_ON_DIR}"/obs_overhead.*.json -- \
    "${OBS_OFF_DIR}"/obs_overhead.*.json <<'EOF'
import json, sys

unit = {}

def best(paths):
    """Min real_time per benchmark across all runs (noise floor)."""
    out = {}
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        for b in doc["benchmarks"]:
            if b.get("run_type") == "aggregate":
                continue
            name = b["name"].split("/")[0]
            unit[name] = b["time_unit"]
            t = float(b["real_time"])
            if name not in out or t < out[name]:
                out[name] = t
    return out

tol = float(sys.argv[1])
sep = sys.argv.index("--")
on, off = best(sys.argv[2:sep]), best(sys.argv[sep + 1:])
failed = False
for name in sorted(off):
    if name not in on:
        print(f"   {name}: missing from obs-on run", file=sys.stderr)
        failed = True
        continue
    pct = (on[name] - off[name]) / off[name] * 100.0
    status = "ok" if pct <= tol else "FAIL"
    u = unit[name]
    print(f"   {name}: obs-on {on[name]:.4g}{u} vs obs-off {off[name]:.4g}{u} "
          f"({pct:+.2f}%) {status}")
    if pct > tol:
        failed = True
if failed:
    print(f"ERROR: disabled observability exceeds {tol}% overhead",
          file=sys.stderr)
    sys.exit(1)
EOF

# --- Threads sweep: byte-identical results at every thread count ---------
# Run the Fig. 9 runtime bench serially and at 4 threads and require the
# per-scale result_hash values to match. The hash folds (row_count,
# content_hash, order_hash) of every ORIGINAL query execution, so it is
# immune to rewrite-side variance (a solver budget expiring under load)
# while still catching any morsel-parallel ordering or aliasing bug.
echo "== threads sweep (SIA_THREADS=1 vs 4: identical result hashes)"
cmake --build "${OBS_ON_DIR}" -j "${JOBS}" --target bench_fig9_runtime
for t in 1 4; do
  SIA_THREADS="${t}" SIA_BENCH_QUERIES=3 SIA_BENCH_ITERATIONS=2 \
    SIA_BENCH_JSON="${OBS_ON_DIR}/fig9_t${t}.json" \
    "${OBS_ON_DIR}/bench/bench_fig9_runtime" >/dev/null
done
python3 - "${OBS_ON_DIR}/fig9_t1.json" "${OBS_ON_DIR}/fig9_t4.json" <<'EOF'
import json, sys

docs = {}
for path in sys.argv[1:]:
    with open(path) as f:
        docs[path] = json.load(f)
failed = False
hashes = {}
for path, doc in docs.items():
    threads = doc["threads"]
    want = 1 if "t1" in path else 4
    if threads != want:
        print(f"   {path}: reports threads={threads}, expected {want}",
              file=sys.stderr)
        failed = True
    for scale in doc["summary"]["scales"]:
        hashes.setdefault(scale["sf"], {})[path] = scale["result_hash"]
for sf, by_path in sorted(hashes.items()):
    values = set(by_path.values())
    status = "ok" if len(values) == 1 else "FAIL"
    print(f"   sf={sf}: result_hash {' vs '.join(sorted(values))} {status}")
    if len(values) != 1:
        failed = True
if failed:
    print("ERROR: thread count changed query results", file=sys.stderr)
    sys.exit(1)
EOF

if [[ "${FAULT_SWEEP}" -eq 1 ]]; then
  SWEEP_BIN="${BUILD_DIR}/tests/fault_sweep_test"
  echo "== fault sweep (${SWEEP_QUERIES} queries per point, under ${SANITIZE})"
  # Only fault_sweep_test runs with SIA_FAULTS set: it is the one suite
  # written to expect injected failures (the rest of the tests assert
  # fault-free behavior and already ran above).
  # --list-fault-points lines are `<point> fired=N injected=M`; the
  # counts are all zero here (nothing ran) — keep only the point name.
  # Both env-armed suites run per point: the synchronous pipeline sweep
  # and the background-learning serving loop (which is the only consumer
  # of the background.synth.* / promote.bad_rewrite points).
  SWEEP_FILTER='FaultSweepTest.EnvArmedSweep'
  SWEEP_FILTER+=':FaultSweepTest.BackgroundLearningEnvArmedSweep'
  while read -r point _counts; do
    for mode in once always; do
      echo "   -- SIA_FAULTS=${point}=${mode}"
      SIA_FAULTS="${point}=${mode}" SIA_SWEEP_QUERIES="${SWEEP_QUERIES}" \
        "${SWEEP_BIN}" --gtest_filter="${SWEEP_FILTER}" \
        --gtest_brief=1
    done
  done < <("${LINT}" --list-fault-points)
  echo "   -- SIA_FAULTS=smt.check=prob:0.3,engine.scan=latency:5"
  SIA_FAULTS="smt.check=prob:0.3,engine.scan=latency:5" \
    SIA_SWEEP_QUERIES="${SWEEP_QUERIES}" \
    "${SWEEP_BIN}" --gtest_filter="${SWEEP_FILTER}" \
    --gtest_brief=1
fi

echo "== check.sh: all gates passed"
