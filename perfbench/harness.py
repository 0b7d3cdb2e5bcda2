"""Building blocks of the benchmark: the sia_serve wire codec, the open-loop
load generator, percentile arithmetic, span recording and process control.

run.py composes these into workloads; test_harness.py tests them. Nothing
here knows about a particular workload.
"""

import json
import os
import select
import signal
import socket
import struct
import subprocess
import threading
import time

# --- wire protocol (src/common/net.h framing, src/server/protocol.h verbs) --

MAX_FRAME_BYTES = 1 << 20


def encode_frame(payload):
    """One frame: 4-byte big-endian payload length, then the payload."""
    data = payload.encode()
    if not data or len(data) > MAX_FRAME_BYTES:
        raise ValueError("frame payload must be 1..%d bytes" % MAX_FRAME_BYTES)
    return struct.pack(">I", len(data)) + data


def _recv_exact(sock, n):
    chunks = []
    while n > 0:
        chunk = sock.recv(n)
        if not chunk:
            raise ConnectionError("peer closed mid-frame")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock):
    (length,) = struct.unpack(">I", _recv_exact(sock, 4))
    if length == 0 or length > MAX_FRAME_BYTES:
        raise ValueError("bad frame length %d" % length)
    return _recv_exact(sock, length).decode()


def round_trip(port, payload, timeout_s=60.0):
    """One request on its own connection, as sia_serve serves them."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout_s) as sock:
        sock.sendall(encode_frame(payload))
        return recv_frame(sock)


def parse_reply(text):
    """Splits a response into (kind, fields). kind is OK, SHED or ERROR.

    An OK QUERY body is key=value lines with rewritten_sql last; numeric
    values are converted. For other OK bodies fields is {"body": text}.
    """
    status, _, body = text.partition("\n")
    kind = status.split(" ", 1)[0]
    if kind != "OK":
        return kind, {"detail": status}
    if not body.startswith("rewritten="):
        return kind, {"body": body}
    fields = {}
    for line in body.split("\n"):
        key, _, value = line.partition("=")
        if key == "rewritten_sql":
            break
        fields[key] = value
    for key in ("rewritten", "from_cache", "queue_us", "rewrite_us", "exec_us",
                "rows"):
        if key in fields:
            fields[key] = int(fields[key])
    return kind, fields


def fetch_json(port, verb):
    """STATS or OBSERVE, parsed."""
    kind, fields = parse_reply(round_trip(port, verb))
    if kind != "OK":
        raise RuntimeError("%s failed: %s" % (verb, fields.get("detail")))
    return json.loads(fields["body"])


# --- statistics --------------------------------------------------------------


def percentile(samples, q):
    """The q-th percentile (0..100), interpolating linearly between the
    closest ranks (numpy's default method). 0 for no samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


# --- open-loop load ----------------------------------------------------------


class Request:
    """One scheduled operation and what happened to it (times in s)."""

    __slots__ = ("index", "payload", "due", "sent", "done", "kind", "fields",
                 "error")

    def __init__(self, index, payload, due):
        self.index = index
        self.payload = payload
        self.due = due
        self.sent = None
        self.done = None
        self.kind = None
        self.fields = {}
        self.error = None

    @property
    def latency_s(self):
        """From the scheduled send time, so a stalled generator's backlog
        counts against later requests."""
        return self.done - self.due

    @property
    def send_lag_s(self):
        return self.sent - self.due

    @property
    def ok(self):
        return self.kind == "OK"


class OpenLoop:
    """Sends payload(i) at start + i / rate from `connections` threads until
    stop() is called, whatever the replies take: a slow server receives the
    same schedule and its backlog shows up as latency. `send` is the round
    trip (injectable for tests) and returns the raw reply text."""

    def __init__(self, payload, rate, send, connections=4):
        self._payload = payload
        self._interval = 1.0 / rate
        self._send = send
        self._connections = connections
        self._lock = threading.Lock()
        self._next = 0
        self._stopping = False
        self._threads = []
        self.start_time = None
        self.requests = []

    def start(self):
        self.start_time = time.monotonic()
        for _ in range(self._connections):
            thread = threading.Thread(target=self._drive, daemon=True)
            thread.start()
            self._threads.append(thread)

    def stop(self):
        with self._lock:
            self._stopping = True
        for thread in self._threads:
            thread.join()

    def _take(self):
        with self._lock:
            if self._stopping:
                return None
            index = self._next
            self._next += 1
            request = Request(index, self._payload(index),
                              self.start_time + index * self._interval)
            self.requests.append(request)
            return request

    def _drive(self):
        while True:
            request = self._take()
            if request is None:
                return
            wait = request.due - time.monotonic()
            if wait > 0:
                time.sleep(wait)
            request.sent = time.monotonic()
            try:
                reply = self._send(request.payload)
                request.kind, request.fields = parse_reply(reply)
            except (OSError, ValueError) as error:
                request.kind = "DROPPED"
                request.error = str(error)
            request.done = time.monotonic()


# --- tracing -----------------------------------------------------------------


class Tracer:
    """In-memory spans, written at exit as Chrome trace JSON. Spans of one
    operation share an `op` id; `recording_s` is the time spent recording,
    which is the harness's whole tracing cost."""

    def __init__(self):
        self.events = []
        self.recording_s = 0.0

    def span(self, name, start_s, end_s, op, parent=None):
        began = time.perf_counter()
        args = {"op": op}
        if parent is not None:
            args["parent"] = parent
        self.events.append({"name": name, "ph": "X", "pid": 1, "tid": 1,
                            "ts": start_s * 1e6,
                            "dur": max(0.0, end_s - start_s) * 1e6,
                            "args": args})
        self.recording_s += time.perf_counter() - began

    def write(self, path):
        with open(path, "w") as out:
            json.dump({"traceEvents": self.events,
                       "displayTimeUnit": "ms"}, out)


# --- processes ---------------------------------------------------------------


def read_line(proc, timeout_s):
    """The next stdout line of `proc`, or None on timeout or EOF."""
    deadline = time.monotonic() + timeout_s
    fd = proc.stdout.fileno()
    buffer = b""
    while not buffer.endswith(b"\n"):
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return None
        ready, _, _ = select.select([fd], [], [], remaining)
        if not ready:
            return None
        byte = os.read(fd, 1)
        if not byte:
            return None
        buffer += byte
    return buffer.decode().rstrip("\n")


def stop_process(proc, timeout_s=30.0):
    """SIGTERM, then SIGKILL after timeout_s; always waits for the exit."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    for stream in (proc.stdin, proc.stdout):
        if stream is not None:
            stream.close()
    return proc.returncode


def peak_rss_mb(pid):
    """VmHWM of a live process, in MiB."""
    with open("/proc/%d/status" % pid) as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM for pid %d" % pid)


class Server:
    """A running sia_serve. setup_s is launch -> LISTENING line."""

    def __init__(self, binary, args, env=None):
        began = time.monotonic()
        self.proc = subprocess.Popen([binary] + args, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL, env=env)
        line = read_line(self.proc, 120.0)
        self.setup_s = time.monotonic() - began
        if line is None or not line.startswith("LISTENING "):
            stop_process(self.proc)
            raise RuntimeError("sia_serve did not start: %r" % line)
        fields = dict(item.split("=", 1) for item in line.split()[1:])
        self.port = int(fields["port"])

    def stop(self):
        return stop_process(self.proc)
