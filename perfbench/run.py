#!/usr/bin/env python3
"""The repository's benchmark: served latency and learning cost of Sia.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds sia_serve and perfbench_tool from
source (perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR or .bench_build,
generates the workload's inputs from the seed, launches the system, drives
it for S seconds, checks every answer, and prints one JSON object as its
last stdout line: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1 (plus a Chrome trace in .bench_out/). README.md in
this directory explains the workloads and what each metric measures.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import harness  # noqa: E402
from harness import percentile, ratio  # noqa: E402

# --- workload sizing (README.md gives the reasons) ---------------------------

TEMPLATE_SEED = 2021     # the paper-default §6.3 query stream ...
SERVE_TEMPLATES = 15     # ... whose first 15 queries are serve_hot's input
SYNTH_TEMPLATES = 16     # ... and first 16 synth_batch's
SCALE_FACTOR = 0.05      # TPC-H data sia_serve generates and executes on
DATA_SEED = 42           # its seed (sia_serve's default)
WORKERS = 4              # sia_serve --workers, each running one query ...
SERVER_THREADS = "1"     # ... on one thread (SIA_THREADS for sia_serve)
SHADOW_RATE = 0.1        # sia_serve --shadow-sample-rate (its default)
RATE = 45.0              # serve_hot requests/s
CONNECTIONS = 4          # client connections in flight, one per CPU
LEARN_MAX_S = 150.0      # serve_hot: longest wait for every template ...
SETTLE_MAX_S = 20.0      # ... and then for their promote/demote verdicts
SETUP_LAUNCHES = 15      # setup_s is the median of this many launches
CHECK_SF = 0.01          # synth_batch answer-check data

OUT_DIR = ".bench_out"

END_TO_END_UNITS = {"setup_s": "s", "p50_ms": "ms", "p99_ms": "ms",
                    "ops_per_s": "1/s", "learn_s": "s", "rewrite_share": "ratio",
                    "rss_mb": "MB"}

PER_LAYER_UNITS = {
    "client.send_lag_ms": "ms",
    "server.queue_ms.p50": "ms", "server.queue_ms.p99": "ms",
    "server.transport_ms.p50": "ms",
    "server.shed": "count", "server.protocol_errors": "count",
    "rewrite.decide_ms.p50": "ms",
    "rewrite.cache.hit_ratio": "ratio", "rewrite.cache.entries": "count",
    "rewrite.background.completed": "count",
    "rewrite.background.drop_ratio": "ratio",
    "rewrite.promote.promoted": "count", "rewrite.promote.demoted": "count",
    "rewrite.shadow_share": "ratio",
    "hit_p50_ms": "ms", "miss_p50_ms": "ms",
    "engine.exec_ms.p50": "ms", "engine.exec_ms.p99": "ms",
    "engine.exec_ms.hit_p50": "ms", "engine.exec_ms.miss_p50": "ms",
    "engine.rows_scanned_per_query": "rows",
    "engine.join_probe_rows_per_query": "rows",
    "engine.join_output_rows_per_query": "rows",
    "parser.parse_us.p50": "us", "parser.key_us.p50": "us",
    "synth.ladder_ms.p50": "ms",
    "synth.generation_ms.sum": "ms", "synth.validation_ms.sum": "ms",
    "synth.iterations.sum": "count",
    "synth.rung.full": "count", "synth.rung.retry": "count",
    "synth.rung.interval": "count", "synth.rung.original": "count",
    "smt.calls.sum": "count",
    "smt.check_ms.p50": "ms", "smt.check_ms.p99": "ms",
    "learn.train_ms.sum": "ms",
    "obs.trace_overhead_pct": "%",
}


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


def metrics(values, units):
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units.items()}


# --- build and helpers ---------------------------------------------------------


def build():
    """Configures once, then always runs the (incremental) build."""
    if not (os.path.isdir("src") and os.path.isfile("tools/sia_serve.cc")):
        raise BenchError("run from the repository root: src/ and tools/ are missing")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", "perfbench", "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 4),
                    "--target", "sia_serve", "perfbench_tool"],
                   stdout=sys.stderr, check=True)
    return (os.path.join(build_dir, "sia", "tools", "sia_serve"),
            os.path.join(build_dir, "perfbench_tool"))


def generate_templates(tool, count, path):
    """The workload's queries (GenerateWorkload), with the parser-layer
    cost of each, measured in-process by perfbench_tool."""
    done = subprocess.run([tool, "gen", "--seed", str(TEMPLATE_SEED), "--count",
                           str(count), "--out", path],
                          stdout=subprocess.PIPE, check=True, text=True)
    info = json.loads(done.stdout.strip().splitlines()[-1])
    log("generated %d queries in %.2f s, outside every timed window"
        % (info["queries"], info["gen_s"]))
    with open(path) as queries:
        return [line.rstrip("\n") for line in queries if line.strip()], info


def reference_answers(tool, sqls, path):
    """(rows, content_hash) of each query run unrewritten in-process."""
    with open(path, "w") as out:
        out.write("".join(sql + "\n" for sql in sqls))
    done = subprocess.run([tool, "reference", "--sf", str(SCALE_FACTOR),
                           "--data-seed", str(DATA_SEED), "--in", path],
                          stdout=subprocess.PIPE, check=True, text=True)
    lines = done.stdout.splitlines()
    if len(lines) != len(sqls):
        raise BenchError("reference run answered %d of %d queries"
                         % (len(lines), len(sqls)))
    return {sql: (int(line.split()[0]), line.split()[1])
            for sql, line in zip(sqls, lines)}


# --- serve_hot -------------------------------------------------------------------


def state_counts(observe):
    """Cache entries per lifecycle state, poisoned counted on its own."""
    counts = {"synthesizing": 0, "quarantined": 0, "promoted": 0, "demoted": 0,
              "poisoned": 0}
    for entry in observe["cache"]["entries"]:
        counts[entry["state"]] = counts.get(entry["state"], 0) + 1
        counts["poisoned"] += 1 if entry["poisoned"] else 0
    return counts


def launch_server(serve_bin):
    """SETUP_LAUNCHES launches; all but the last are stopped again."""
    args = ["--scale", str(SCALE_FACTOR), "--data-seed", str(DATA_SEED),
            "--workers", str(WORKERS), "--shadow-sample-rate", str(SHADOW_RATE)]
    env = dict(os.environ, SIA_THREADS=SERVER_THREADS)
    setups = []
    for attempt in range(SETUP_LAUNCHES):
        server = harness.Server(serve_bin, args, env)
        setups.append(server.setup_s)
        if attempt + 1 < SETUP_LAUNCHES:
            server.stop()
    return server, statistics.median(setups)


def wait_for_verdicts(server, loop):
    """Returns learn_s: from the first request until every template's entry
    has left kSynthesizing. Returns once no entry waits in quarantine for
    its promote/demote verdict either (a poisoned entry stays quarantined
    for good: that is its verdict), or SETTLE_MAX_S after learning."""
    give_up = time.monotonic() + LEARN_MAX_S
    learn_s = None
    while time.monotonic() < give_up:
        time.sleep(0.25)
        counts = state_counts(harness.fetch_json(server.port, "OBSERVE"))
        if learn_s is None:
            learned = counts["quarantined"] + counts["promoted"] + counts["demoted"]
            if counts["synthesizing"] == 0 and learned >= SERVE_TEMPLATES:
                learn_s = time.monotonic() - loop.start_time
                give_up = time.monotonic() + SETTLE_MAX_S
        if learn_s is not None and counts["quarantined"] == counts["poisoned"]:
            return learn_s
    if learn_s is not None:
        log("verdicts still pending after %.0f s; measuring anyway" % SETTLE_MAX_S)
        return learn_s
    raise BenchError("templates still unlearned after %.0f s: %s"
                     % (LEARN_MAX_S, json.dumps(counts)))


def drive_server(seconds, server, payload):
    """Learning, then the measured window, under one continuous open loop."""
    loop = harness.OpenLoop(payload, RATE,
                            lambda text: harness.round_trip(server.port, text),
                            CONNECTIONS)
    loop.start()
    try:
        run = {"learn_s": wait_for_verdicts(server, loop),
               "window_start": time.monotonic()}
        run["stats_start"] = harness.fetch_json(server.port, "STATS")
        run["observe_start"] = harness.fetch_json(server.port, "OBSERVE")
        time.sleep(max(0.0, run["window_start"] + seconds - time.monotonic()))
        run["window_end"] = time.monotonic()
        run["stats_end"] = harness.fetch_json(server.port, "STATS")
        run["observe_end"] = harness.fetch_json(server.port, "OBSERVE")
        run["rss_mb"] = harness.peak_rss_mb(server.proc.pid)
    finally:
        loop.stop()
    run["requests"] = loop.requests
    return run


def run_serve_hot(seed, seconds, trace, serve_bin, tool):
    prefix = os.path.join(OUT_DIR, "serve_hot-%d" % seed)
    # Fixed templates (the stored procedures of §6.2), sent in rounds that
    # hold each template once, so every run has the same mix; the seed
    # shuffles each round.
    templates, gen_info = generate_templates(tool, SERVE_TEMPLATES,
                                             prefix + "-queries.txt")
    shuffler = random.Random(seed)
    sequence = [sql for _ in range(64)
                for sql in shuffler.sample(templates, len(templates))]

    server, setup_s = launch_server(serve_bin)
    try:
        run = drive_server(seconds, server,
                           lambda i: "QUERY\n" + sequence[i % len(sequence)])
    finally:
        server.stop()
    requests = run["requests"]
    log("entry states at window start: %s"
        % json.dumps(state_counts(run["observe_start"])))
    log("entry states at window end:   %s"
        % json.dumps(state_counts(run["observe_end"])))

    # Every served answer, warm-up included, against the original query's.
    expected = reference_answers(tool, templates, prefix + "-reference.txt")
    failed = mismatches = 0
    for r in requests:
        if not r.ok:
            failed += 1
            log("request %d failed: %s %s" % (r.index, r.kind,
                                               r.error or r.fields.get("detail")))
        elif expected[sequence[r.index % len(sequence)]] != (
                r.fields["rows"], r.fields["content_hash"]):
            failed += 1
            mismatches += 1
            log("request %d: wrong answer" % r.index)
    window = [r for r in requests
              if run["window_start"] <= r.due < run["window_end"]]
    served = [r for r in window if r.ok]
    hits = sum(r.fields["from_cache"] for r in served)
    latency_ms = [r.latency_s * 1e3 for r in served]
    log("window: %d requests, %d served, %d from the cache, send lag max %.2f ms"
        % (len(window), len(served), hits,
           max((r.send_lag_s for r in window), default=0) * 1e3))
    result = {"correct": mismatches == 0, "attempted": len(requests),
              "failed": failed}
    if not trace:
        result["metrics"] = metrics({
            "setup_s": setup_s, "p50_ms": percentile(latency_ms, 50),
            "p99_ms": percentile(latency_ms, 99),
            "ops_per_s": len(served) / (run["window_end"] - run["window_start"]),
            "learn_s": run["learn_s"], "rewrite_share": ratio(hits, len(served)),
            "rss_mb": run["rss_mb"]}, END_TO_END_UNITS)
        return result
    tracer = harness.Tracer()
    for r in served:
        record_request_spans(tracer, r)
    tracer.write(prefix + "-trace.json")
    result["metrics"] = metrics(serving_layers(run, window, served, gen_info, tracer),
                                PER_LAYER_UNITS)
    return result


def record_request_spans(tracer, r):
    """The round trip, with the server's reported intervals laid end to end
    inside it; what is left over is transport."""
    op = r.index
    tracer.span("client.request", r.due, r.done, op)
    tracer.span("client.send_lag", r.due, r.sent, op, parent="client.request")
    at = r.sent
    for name, key in (("server.queue", "queue_us"), ("rewrite.decide", "rewrite_us"),
                      ("engine.exec", "exec_us")):
        length = r.fields[key] / 1e6
        tracer.span(name, at, at + length, op, parent="client.request")
        at += length
    tracer.span("server.transport", at, r.done, op, parent="client.request")


def serving_layers(run, window, served, gen_info, tracer):
    """Per-layer values: request fields over the window, STATS counters as
    window deltas, and the learning-phase (lifetime) synthesis totals."""
    def delta(name):
        return (run["stats_end"]["counters"].get(name, 0)
                - run["stats_start"]["counters"].get(name, 0))

    def lifetime_histogram(name):
        return run["stats_end"]["histograms"].get(
            name, {"count": 0, "sum": 0.0, "p50": 0.0, "p99": 0.0})

    def ms(key, requests):
        return [r.fields[key] / 1e3 for r in requests]

    hits = [r for r in served if r.fields["from_cache"]]
    misses = [r for r in served if not r.fields["from_cache"]]
    transport = [(r.done - r.sent) * 1e3
                 - (r.fields["queue_us"] + r.fields["rewrite_us"]
                    + r.fields["exec_us"]) / 1e3 for r in served]
    lifetime = run["stats_end"]["counters"]
    executed = delta("exec.queries")
    enqueued = lifetime.get("rewrite.background.enqueued", 0)
    dropped = lifetime.get("rewrite.background.dropped", 0)
    smt_us = lifetime_histogram("smt.check.latency_us")
    rungs = [entry["rung"] for entry in run["observe_end"]["cache"]["entries"]
             if entry["state"] != "synthesizing"]
    cache_hits = delta("rewrite.cache.hit")
    return {
        "client.send_lag_ms": max((r.send_lag_s for r in window), default=0) * 1e3,
        "server.queue_ms.p50": percentile(ms("queue_us", served), 50),
        "server.queue_ms.p99": percentile(ms("queue_us", served), 99),
        "server.transport_ms.p50": percentile(transport, 50),
        "server.shed": delta("server.requests.shed"),
        "server.protocol_errors": delta("server.requests.protocol_errors"),
        "rewrite.decide_ms.p50": percentile(ms("rewrite_us", served), 50),
        "rewrite.cache.hit_ratio": ratio(
            cache_hits, cache_hits + delta("rewrite.cache.miss")),
        "rewrite.cache.entries": len(run["observe_end"]["cache"]["entries"]),
        "rewrite.background.completed": lifetime.get("rewrite.background.completed", 0),
        "rewrite.background.drop_ratio": ratio(dropped, enqueued + dropped),
        "rewrite.promote.promoted": delta("rewrite.promote.promoted"),
        "rewrite.promote.demoted": delta("rewrite.promote.demoted"),
        "rewrite.shadow_share": ratio(delta("exec.paranoid.runs"), len(served)),
        "hit_p50_ms": percentile([r.latency_s * 1e3 for r in hits], 50),
        "miss_p50_ms": percentile([r.latency_s * 1e3 for r in misses], 50),
        "engine.exec_ms.p50": percentile(ms("exec_us", served), 50),
        "engine.exec_ms.p99": percentile(ms("exec_us", served), 99),
        "engine.exec_ms.hit_p50": percentile(ms("exec_us", hits), 50),
        "engine.exec_ms.miss_p50": percentile(ms("exec_us", misses), 50),
        "engine.rows_scanned_per_query": ratio(delta("exec.rows_scanned"), executed),
        "engine.join_probe_rows_per_query": ratio(delta("exec.join_probe_rows"),
                                                  executed),
        "engine.join_output_rows_per_query": ratio(delta("exec.join_output_rows"),
                                                   executed),
        "parser.parse_us.p50": gen_info["parse_us_p50"],
        "parser.key_us.p50": gen_info["key_us_p50"],
        "synth.ladder_ms.p50": lifetime_histogram("rewrite.background.synth_ms")["p50"],
        "synth.generation_ms.sum": lifetime_histogram("synth.generation_ms")["sum"],
        "synth.validation_ms.sum": lifetime_histogram("synth.validation_ms")["sum"],
        "synth.iterations.sum": lifetime.get("synth.iterations", 0),
        "synth.rung.full": rungs.count(0),
        "synth.rung.retry": rungs.count(1),
        "synth.rung.interval": rungs.count(2),
        "synth.rung.original": rungs.count(3),
        "smt.calls.sum": lifetime.get("synth.solver_calls", 0),
        "smt.check_ms.p50": smt_us["p50"] / 1e3,
        "smt.check_ms.p99": smt_us["p99"] / 1e3,
        "learn.train_ms.sum": lifetime_histogram("synth.learning_ms")["sum"],
        "obs.trace_overhead_pct": 100.0 * tracer.recording_s
                                  / (run["window_end"] - run["window_start"]),
    }


# --- synth_batch ----------------------------------------------------------------


def run_synth_batch(seed, seconds, trace, tool):
    prefix = os.path.join(OUT_DIR, "synth_batch-%d" % seed)
    templates, _ = generate_templates(tool, SYNTH_TEMPLATES, prefix + "-queries.txt")
    batch = random.Random(seed).sample(templates, len(templates))
    batch_path = prefix + "-batch.txt"
    with open(batch_path, "w") as out:
        out.write("".join(sql + "\n" for sql in batch))
    # The same untimed warm-up ladder whatever the seed.
    warmup_path = prefix + "-warmup.txt"
    with open(warmup_path, "w") as out:
        out.write(templates[0] + "\n")
    command = [tool, "synth", "--in", batch_path, "--seconds", str(seconds),
               "--warmup", warmup_path, "--check-sf", str(CHECK_SF)] + (
                   ["--trace"] if trace else [])

    # Launch i runs on CPU i mod nproc. The CPUs of a shared host differ in
    # speed (launches took 20 ms on one and 30 ms on another), so each CPU
    # gets an equal share of the launches rather than whatever the
    # scheduler picks.
    cpus = sorted(os.sched_getaffinity(0))
    setups = []
    for attempt in range(SETUP_LAUNCHES):
        cpu = cpus[attempt % len(cpus)]
        began = time.monotonic()
        proc = subprocess.Popen(command, stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE,
                                preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
        line = harness.read_line(proc, 60.0)
        setups.append(time.monotonic() - began)
        if line != "READY":
            harness.stop_process(proc)
            raise BenchError("perfbench_tool synth did not start: %r" % line)
        if attempt + 1 < SETUP_LAUNCHES:
            harness.stop_process(proc)
    try:
        # The last launch runs the window on every CPU (it rotates itself).
        os.sched_setaffinity(proc.pid, cpus)
        proc.stdin.write(b"GO\n")
        proc.stdin.flush()
        output = harness.read_line(proc, seconds * 4 + 60)
        proc.wait(timeout=60)
    finally:
        harness.stop_process(proc)
    if proc.returncode != 0 or output is None:
        raise BenchError("perfbench_tool synth failed (exit %s)" % proc.returncode)
    run = json.loads(output)

    records = run["records"]
    passes = run["passes"]
    total_ms = [(r["t3_ns"] - r["t0_ns"]) / 1e6 for r in records]
    ladder_ms = [(r["t3_ns"] - r["t2_ns"]) / 1e6 for r in records]
    window_s = (run["window_end_ns"] - run["window_start_ns"]) / 1e9
    learned = sum(r["learned"] for r in records)
    log("synth_batch: %d pass(es) over %d queries in %.2f s; %d rewrites checked"
        % (passes, len(batch), window_s, run["checked"]))
    result = {"correct": run["mismatches"] == 0, "attempted": len(records),
              "failed": run["mismatches"]}
    if not trace:
        result["metrics"] = metrics({
            "setup_s": statistics.median(setups),
            "p50_ms": percentile(total_ms, 50), "p99_ms": percentile(total_ms, 99),
            "ops_per_s": len(records) / window_s,
            "learn_s": sum(ladder_ms) / passes / 1e3,
            "rewrite_share": ratio(learned, len(records)),
            "rss_mb": run["rss_kb"] / 1024.0}, END_TO_END_UNITS)
        return result

    tracer = harness.Tracer()
    for op, r in enumerate(records):
        t = [r["t%d_ns" % i] / 1e9 for i in range(4)]
        tracer.span("synth_batch.query", t[0], t[3], op)
        for name, start, end in (("parser.parse", t[0], t[1]),
                                 ("parser.key", t[1], t[2]),
                                 ("synth.ladder", t[2], t[3])):
            tracer.span(name, start, end, op, parent="synth_batch.query")
    tracer.write(prefix + "-trace.json")

    def per_pass(key):
        return sum(r[key] for r in records) / passes

    def rung(name):
        return sum(r["rung"] == name for r in records) / passes

    # The serving layers do not run here; they read 0.
    values = {name: 0 for name in PER_LAYER_UNITS}
    values.update({
        "parser.parse_us.p50": percentile(
            [(r["t1_ns"] - r["t0_ns"]) / 1e3 for r in records], 50),
        "parser.key_us.p50": percentile(
            [(r["t2_ns"] - r["t1_ns"]) / 1e3 for r in records], 50),
        "synth.ladder_ms.p50": percentile(ladder_ms, 50),
        "synth.generation_ms.sum": per_pass("generation_ms"),
        "synth.validation_ms.sum": per_pass("validation_ms"),
        "synth.iterations.sum": per_pass("iterations"),
        "synth.rung.full": rung("full"),
        "synth.rung.retry": rung("retry"),
        "synth.rung.interval": rung("interval"),
        "synth.rung.original": rung("original"),
        "smt.calls.sum": per_pass("solver_calls"),
        "smt.check_ms.p50": run["smt_check_us"]["p50"] / 1e3,
        "smt.check_ms.p99": run["smt_check_us"]["p99"] / 1e3,
        "learn.train_ms.sum": per_pass("learning_ms"),
        "obs.trace_overhead_pct": 100.0 * tracer.recording_s / window_s,
    })
    result["metrics"] = metrics(values, PER_LAYER_UNITS)
    return result


# --- entry point ---------------------------------------------------------------


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["serve_hot", "synth_batch"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        serve_bin, tool = build()
        os.makedirs(OUT_DIR, exist_ok=True)
        if args.workload == "synth_batch":
            result = run_synth_batch(args.seed, args.seconds, args.trace, tool)
        else:
            result = run_serve_hot(args.seed, args.seconds, args.trace,
                                   serve_bin, tool)
    except (BenchError, OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as error:
        log("error: %s" % error)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
