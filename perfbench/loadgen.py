"""The load generator: seeded requests over keep-alive HTTP, with checks.

Everything a request carries — which key, which value, which query
vector — comes from the workload seed. Every response is checked:

* a read must return a value that was written to that key: the preload
  row or a value some ``PUT`` sent for it. ``None``, another key's row or
  an unknown value is a wrong answer;
* a write must be acknowledged (200, ``written``);
* a search must return k distinct ids inside the table, not partial.

Errors, refusals (429/503 and any other non-200) and wrong answers all
count as failed. Reads and acknowledged writes are logged so staleness
can be judged afterwards from the generator's own clock.
"""

from __future__ import annotations

import itertools
import json
import socket
import threading
import time
from dataclasses import dataclass, field

import numpy as np

import spec

READ, WRITE, SEARCH = 0, 1, 2
KIND_NAMES = ("read", "write", "search")
#: a read is stale if it misses a write acknowledged this long before it
STALE_AFTER_S = 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    mix: tuple[float, float, float]  # read, write, search shares
    open_rate: float  # open-loop arrivals per second


class Http:
    """One keep-alive HTTP/1.1 connection doing as little as it can."""

    def __init__(self, port: int, timeout_s: float = 10.0) -> None:
        self.port = port
        self.timeout_s = timeout_s
        self.sock: socket.socket | None = None
        self.buffer = b""

    def _connect(self) -> socket.socket:
        sock = socket.create_connection(("127.0.0.1", self.port), self.timeout_s)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock, self.buffer = sock, b""
        return sock

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None

    def call(self, method: str, path: str, body: bytes = b"") -> tuple[int, dict]:
        sock = self.sock or self._connect()
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        )
        try:
            sock.sendall(head.encode("latin-1") + body)
            while b"\r\n\r\n" not in self.buffer:
                self.buffer += self._read(sock)
            header, __, rest = self.buffer.partition(b"\r\n\r\n")
            lines = header.decode("latin-1").split("\r\n")
            status = int(lines[0].split(" ", 2)[1])
            length = 0
            close = False
            for line in lines[1:]:
                name, __, value = line.partition(":")
                name = name.strip().lower()
                if name == "content-length":
                    length = int(value)
                elif name == "connection" and value.strip().lower() == "close":
                    close = True
            while len(rest) < length:
                rest += self._read(sock)
            self.buffer = rest[length:]
            payload = json.loads(rest[:length]) if length else {}
        except Exception:
            self.close()
            raise
        if close:
            self.close()
        return status, payload

    @staticmethod
    def _read(sock: socket.socket) -> bytes:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        return chunk


class Stream:
    """An endless seeded sequence of ``(kind, key, query)`` operations."""

    SIZE = 1 << 16

    def __init__(self, workload: Workload, seed: int, stream: int, n_queries: int) -> None:
        rng = np.random.default_rng([seed, stream])
        self.kinds = rng.choice(3, size=self.SIZE, p=workload.mix).tolist()
        self.keys = rng.integers(0, spec.N_KEYS, self.SIZE).tolist()
        self.queries = rng.integers(0, max(n_queries, 1), self.SIZE).tolist()

    def op(self, index: int) -> tuple[int, int, int]:
        i = index % self.SIZE
        return self.kinds[i], self.keys[i], self.queries[i]


class Queries:
    """Seeded query vectors near table rows, with their exact top-k."""

    def __init__(self, seed: int, n: int) -> None:
        matrix = spec.vector_matrix()
        rng = np.random.default_rng([seed, 1_000_000])
        base = matrix[rng.integers(0, spec.N_VECTORS, n)]
        queries = np.round(base + 0.5 * rng.normal(size=base.shape), 5)
        self.bodies = [
            json.dumps({"query": q.tolist(), "k": spec.K}).encode() for q in queries
        ]
        rows = matrix / np.linalg.norm(matrix, axis=1, keepdims=True)
        unit = queries / np.linalg.norm(queries, axis=1, keepdims=True)
        self.truth: list[set[int]] = []
        for start in range(0, n, 256):
            scores = unit[start : start + 256] @ rows.T
            top = np.argpartition(-scores, spec.K, axis=1)[:, : spec.K]
            self.truth.extend(set(row.tolist()) for row in top)


@dataclass
class Recorder:
    """One worker's observations (merged after the run)."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    latencies: dict[int, list[float]] = field(
        default_factory=lambda: {READ: [], WRITE: [], SEARCH: []}
    )
    late: list[float] = field(default_factory=list)
    reads: list[tuple[int, float, float]] = field(default_factory=list)
    acks: list[tuple[int, float, float]] = field(default_factory=list)
    recall: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    def count(self, other: "Recorder") -> None:
        """Add ``other``'s attempts and failures, not its observations."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        self.failures.extend(other.failures[: 5 - len(self.failures)])

    def merge(self, other: "Recorder") -> None:
        self.count(other)
        for kind, values in other.latencies.items():
            self.latencies[kind].extend(values)
        self.late.extend(other.late)
        self.reads.extend(other.reads)
        self.acks.extend(other.acks)
        self.recall.extend(other.recall)


class Generator:
    """Issues one workload's operations and checks every answer."""

    def __init__(self, workload: Workload, seed: int, clients: int) -> None:
        self.workload = workload
        self.queries = Queries(seed, 4096) if workload.mix[SEARCH] > 0 else None
        n_queries = len(self.queries.bodies) if self.queries else 0
        self.streams = [
            Stream(workload, seed, i, n_queries) for i in range(clients + 1)
        ]
        self._cursor = [0] * clients
        self._open_next = 0
        self._tokens = itertools.count(1)
        #: key -> {token: event_time} of every value sent for it
        self.written: dict[int, dict[float, float]] = {}

    # -- one request ----------------------------------------------------------

    def execute(self, conn: Http, op: tuple[int, int, int], rec: Recorder) -> None:
        kind, key, query = op
        rec.attempted += 1
        sent = time.perf_counter()
        try:
            if kind == READ:
                status, payload = conn.call("GET", spec.feature_path(key))
                problem = self._check_read(status, payload, key, sent, rec)
            elif kind == WRITE:
                token = float(next(self._tokens))
                event_time = time.time()
                self.written.setdefault(key, {})[token] = event_time
                body = json.dumps(
                    {"values": {"value": token, "key": key}, "event_time": event_time}
                ).encode()
                status, payload = conn.call("PUT", spec.feature_path(key), body)
                problem = None if status == 200 and payload.get("written") else (
                    f"write {key}: HTTP {status} {payload}"
                )
                if problem is None:
                    rec.acks.append((key, event_time, time.perf_counter()))
            else:
                status, payload = conn.call(
                    "POST", spec.SEARCH_PATH, self.queries.bodies[query]
                )
                problem = self._check_search(status, payload, query, rec)
        except Exception as exc:  # noqa: BLE001 - any broken exchange is a failure
            problem = f"{KIND_NAMES[kind]} {key}: {exc!r}"
        if problem is not None:
            rec.failed += 1
            if len(rec.failures) < 5:
                rec.failures.append(problem)

    def _check_read(self, status, payload, key, sent, rec) -> str | None:
        if status != 200:
            return f"read {key}: HTTP {status} {payload}"
        features = payload.get("features")
        if not isinstance(features, dict) or features.get("key") != key:
            rec.wrong += 1
            return f"read {key}: wrong row {features}"
        token = features.get("value")
        if token == spec.PRELOAD_TOKEN:
            event_time = spec.PRELOAD_EVENT_TIME
        else:
            event_time = self.written.get(key, {}).get(token)
            if event_time is None:
                rec.wrong += 1
                return f"read {key}: value {token} was never written"
        rec.reads.append((key, sent, event_time))
        return None

    def _check_search(self, status, payload, query, rec) -> str | None:
        if status != 200:
            return f"search: HTTP {status} {payload}"
        ids = payload.get("ids") or []
        if (
            payload.get("partial")
            or len(ids) != spec.K
            or len(set(ids)) != spec.K
            or not all(0 <= i < spec.N_VECTORS for i in ids)
        ):
            rec.wrong += 1
            return f"search: bad answer {payload}"
        rec.recall.append(len(self.queries.truth[query] & set(ids)) / spec.K)
        return None

    # -- loops ----------------------------------------------------------------

    def closed(
        self, conns: list[Http], seconds: float, measure: bool
    ) -> tuple[Recorder, tuple[float, float]]:
        """Every client sends its next request as soon as the last returns.

        Returns the merged observations and the loop's ``perf_counter``
        interval (the server's spans share the clock). The calling thread
        is client 0; the others get one thread each.
        """
        recs = [Recorder() for __ in conns]
        start = time.perf_counter()
        until = start + seconds

        def client(i: int) -> None:
            conn, rec, stream = conns[i], recs[i], self.streams[i]
            while time.perf_counter() < until:
                op = stream.op(self._cursor[i])
                self._cursor[i] += 1
                began = time.perf_counter()
                self.execute(conn, op, rec)
                if measure:
                    rec.latencies[op[0]].append(time.perf_counter() - began)

        run_clients(client, len(conns))
        return merged(recs), (start, time.perf_counter())

    def open(self, conns: list[Http], seconds: float) -> Recorder:
        """Arrivals every ``1/open_rate`` s, whatever the system does.

        Latency runs from each request's due time, so a stall also counts
        against the requests queued behind it; ``late`` is how far behind
        schedule each request was sent.
        """
        rate = self.workload.open_rate
        first = self._open_next
        last = self._open_next = first + int(seconds * rate)
        stream = self.streams[-1]
        recs = [Recorder() for __ in conns]
        next_index = itertools.count(first)
        start = time.perf_counter() + 0.01

        def client(i: int) -> None:
            conn, rec = conns[i], recs[i]
            for index in next_index:
                if index >= last:
                    return
                due = start + (index - first) / rate
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                op = stream.op(index)
                rec.late.append(time.perf_counter() - due)
                self.execute(conn, op, rec)
                rec.latencies[op[0]].append(time.perf_counter() - due)

        run_clients(client, len(conns))
        return merged(recs)


def run_clients(client, n: int) -> None:
    """``client(0)`` on this thread and ``client(1..n-1)`` on their own."""
    threads = [
        threading.Thread(target=client, args=(i,), name=f"client-{i}")
        for i in range(1, n)
    ]
    for thread in threads:
        thread.start()
    try:
        client(0)
    finally:
        for thread in threads:
            thread.join()


def latencies(rec: Recorder) -> list[float]:
    """Every latency ``rec`` holds, whatever the operation."""
    return [v for values in rec.latencies.values() for v in values]


def percentile_ms(values: list[float], p: float) -> float:
    """The ``p``-th percentile of ``values`` (seconds) in ms; 0 if empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(len(ordered) * p / 100.0))] * 1e3


def merged(recs: list[Recorder]) -> Recorder:
    out = Recorder()
    for rec in recs:
        out.merge(rec)
    return out


def stale_reads(reads, acks) -> int:
    """Reads that returned a value older than a write acknowledged at
    least ``STALE_AFTER_S`` before the read was sent.

    The store keeps the value with the latest event time, so a read
    is stale when an acknowledged write carried a later event time
    than the value the read returned.
    """
    by_key: dict[int, list[tuple[float, float]]] = {}
    for key, event_time, acked in acks:
        by_key.setdefault(key, []).append((acked, event_time))
    stale = 0
    for key, sent, returned in reads:
        newest = max(
            (event for acked, event in by_key.get(key, ())
             if acked <= sent - STALE_AFTER_S),
            default=None,
        )
        if newest is not None and newest > returned:
            stale += 1
    return stale
