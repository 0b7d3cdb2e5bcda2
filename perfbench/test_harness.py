"""Tests of the benchmark's own arithmetic and wire code.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Run from the repository root; the live PING test builds sia_serve first
(perfbench/run.py's build, so the first run takes about a minute).
"""

import os
import statistics
import sys
import threading
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import harness  # noqa: E402
import run  # noqa: E402


class PercentileTest(unittest.TestCase):

    def test_matches_inclusive_quartiles(self):
        samples = [7.0, 1.0, 3.5, 9.25, 2.0, 11.0, 4.0]
        q1, q2, q3 = statistics.quantiles(samples, n=4, method="inclusive")
        self.assertAlmostEqual(harness.percentile(samples, 25), q1)
        self.assertAlmostEqual(harness.percentile(samples, 50), q2)
        self.assertAlmostEqual(harness.percentile(samples, 75), q3)

    def test_interpolates_between_ranks(self):
        samples = list(range(1, 101))
        self.assertAlmostEqual(harness.percentile(samples, 50), 50.5)
        self.assertAlmostEqual(harness.percentile(samples, 99), 99.01)
        self.assertEqual(harness.percentile(samples, 100), 100)
        self.assertEqual(harness.percentile(samples, 0), 1)

    def test_edges(self):
        self.assertEqual(harness.percentile([], 99), 0.0)
        self.assertEqual(harness.percentile([4.5], 99), 4.5)
        self.assertEqual(harness.ratio(3, 0), 0.0)


OK_QUERY = ("OK\nrewritten=1\nrung=full\nfrom_cache=1\nsql_hash=00000000000000ff\n"
            "queue_us=12\nrewrite_us=40\nexec_us=9000\nrows=3\n"
            "content_hash=0123456789abcdef\norder_hash=fedcba9876543210\n"
            "rewritten_sql=SELECT * FROM lineitem WHERE a = 1")


class OpenLoopTest(unittest.TestCase):

    def test_latency_counts_from_due_time_under_a_send_stall(self):
        stall_s, interval_s = 0.3, 0.05
        calls = []

        def send(payload):
            calls.append(payload)
            if len(calls) == 1:
                time.sleep(stall_s)  # the first round trip stalls
            return OK_QUERY

        loop = harness.OpenLoop(lambda i: "QUERY\n%d" % i, 1 / interval_s, send,
                                connections=1)
        loop.start()
        time.sleep(stall_s + 10 * interval_s)
        loop.stop()
        requests = sorted(loop.requests, key=lambda r: r.index)
        self.assertGreaterEqual(len(requests), 10)
        self.assertTrue(all(r.ok for r in requests))
        # Request 1 was due 50 ms in but could only go after the stall: its
        # own round trip is instant, yet its latency carries the backlog.
        second = requests[1]
        self.assertAlmostEqual(second.due - loop.start_time, interval_s, places=6)
        self.assertGreaterEqual(second.send_lag_s, stall_s - interval_s - 0.01)
        self.assertGreaterEqual(second.latency_s, stall_s - interval_s - 0.01)
        self.assertLess(second.done - second.sent, 0.02)
        # The generator catches up: the last requests go out on time.
        self.assertLess(requests[-2].send_lag_s, 0.02)
        self.assertEqual(requests[0].fields["exec_us"], 9000)

    def test_transport_failures_count_as_dropped(self):
        def send(payload):
            raise ConnectionError("server went away")

        loop = harness.OpenLoop(lambda i: "PING", 100.0, send, connections=2)
        loop.start()
        time.sleep(0.05)
        loop.stop()
        self.assertTrue(loop.requests)
        self.assertTrue(all(r.kind == "DROPPED" and not r.ok for r in loop.requests))


class WireTest(unittest.TestCase):

    def test_frame_layout(self):
        self.assertEqual(harness.encode_frame("PING"), b"\x00\x00\x00\x04PING")
        with self.assertRaises(ValueError):
            harness.encode_frame("")

    def test_parse_query_reply(self):
        kind, fields = harness.parse_reply(OK_QUERY)
        self.assertEqual(kind, "OK")
        self.assertEqual(fields["from_cache"], 1)
        self.assertEqual(fields["rows"], 3)
        self.assertEqual(fields["content_hash"], "0123456789abcdef")
        self.assertNotIn("rewritten_sql", fields)
        self.assertEqual(harness.parse_reply("SHED retry_after_ms=100")[0], "SHED")
        self.assertEqual(harness.parse_reply("ERROR ParseError: x")[0], "ERROR")

    def test_codec_against_a_live_ping(self):
        serve_bin, _ = run.build()
        server = harness.Server(serve_bin, [])
        try:
            self.assertEqual(harness.parse_reply(harness.round_trip(server.port, "PING")),
                             ("OK", {"body": "pong"}))
            stats = harness.fetch_json(server.port, "STATS")
            self.assertIn("counters", stats)
            # Concurrent round trips each get their own connection.
            replies = []
            threads = [threading.Thread(target=lambda: replies.append(
                harness.round_trip(server.port, "PING"))) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            self.assertEqual(replies, ["OK\npong"] * 4)
        finally:
            self.assertEqual(server.stop(), 0)


if __name__ == "__main__":
    unittest.main()
