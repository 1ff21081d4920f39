"""The repo benchmark: one HTTP request through net → serving → cluster → bus.

Run from the root of the repository::

    python3 perfbench/run.py --workload mixed_rw --seed 1 --seconds 20 --trace 0

This process is the load generator. It starts the server
(``perfbench/server.py``) as a child process ``SETUP_REPS`` times, times
each start up to the first answered request, and drives the last one:

1. warm-up: ``WARMUP_S`` of closed loop, not measured;
2. ``--seconds`` of ``BLOCKS`` pairs of blocks: a closed-loop block
   (``CLIENTS`` keep-alive clients, no think time; ``CLOSED_SHARE`` of
   the pair) and an open-loop block (arrivals at the workload's fixed
   rate; the rest).

It then stops the server, which must exit clean, and prints its result
as the last line of standard output. With ``--trace 1`` the server
records spans, the run reports the per-layer metrics instead, and one
extra untraced closed loop, as long as the measured one, gives the
baseline for what tracing costs. See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402
from loadgen import (  # noqa: E402
    READ, SEARCH, WRITE, Generator, Http, Recorder, Workload,
    latencies, merged, percentile_ms, stale_reads,
)
import layers  # noqa: E402

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mixed_rw",
            mix=(0.7, 0.3, 0.0),
            open_rate=140.0,
        ),
        Workload(
            "vector_search",
            mix=(0.0, 0.0, 1.0),
            open_rate=130.0,
        ),
    )
}

#: server starts per run; ``setup_s`` is their median
SETUP_REPS = 3
WARMUP_S = 3.0
#: the measured time alternates closed and open loop in this many blocks,
#: giving the closed loop (whose figures are gated) this share of each
BLOCKS = 7
CLOSED_SHARE = 0.85
#: keep-alive connections and threads of this process: one per CPU, at
#: most two, so the load has the same shape on any machine
CLIENTS = max(1, min(2, len(os.sched_getaffinity(0))))
SERVER_START_TIMEOUT_S = 60.0
SERVER_EXIT_TIMEOUT_S = 30.0


class ServerProcess:
    """One server child: started, timed to its first answer, stopped."""

    def __init__(self, run_dir: Path, trace: bool) -> None:
        self.run_dir = run_dir
        run_dir.mkdir(parents=True)
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server.py"), "--run-dir", str(run_dir)]
            + (["--trace"] if trace else []),
            stdout=subprocess.PIPE,
        )
        self.port = self._await_ready(started + SERVER_START_TIMEOUT_S)
        probe = Http(self.port)
        status, __ = probe.call("GET", "/v1/healthz")
        probe.close()
        self.setup_s = time.perf_counter() - started
        if status != 200:
            raise RuntimeError(f"server healthz answered {status}")
        #: requests sent to this server, the probe included
        self.sent = 1

    def _await_ready(self, deadline: float) -> int:
        line = b""
        while not line.endswith(b"\n"):
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or self.proc.poll() is not None:
                raise RuntimeError("server did not become ready")
            ready, __, __ = select.select([self.proc.stdout], [], [], remaining)
            if ready:
                chunk = os.read(self.proc.stdout.fileno(), 256)
                if not chunk:
                    raise RuntimeError("server exited before it was ready")
                line += chunk
        text = line.decode().strip()
        if not text.startswith("READY "):
            raise RuntimeError(f"unexpected server output {text!r}")
        return int(text.split()[1])

    def mark_measure(self) -> None:
        self.proc.send_signal(signal.SIGUSR1)

    def stop(self) -> tuple[dict, list[str]]:
        """SIGTERM, wait, and check the exit: the server's report plus
        every way it failed to exit clean."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(SERVER_EXIT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            return {}, ["server did not exit after SIGTERM"]
        self.proc.stdout.close()
        problems = [] if code == 0 else [f"server exited with code {code}"]
        report_path = self.run_dir / "report.json"
        if not report_path.exists():
            return {}, problems + ["server wrote no report"]
        report = json.loads(report_path.read_text())
        if report["requests_total"] != report["responses_total"]:
            problems.append(
                f"{report['requests_total']} requests but "
                f"{report['responses_total']} responses"
            )
        if report["requests_total"] != self.sent:
            problems.append(
                f"sent {self.sent} requests, server counted "
                f"{report['requests_total']}"
            )
        if report["leftover_threads"]:
            problems.append(f"threads left: {report['leftover_threads']}")
        if not report["data_dir_removed"]:
            problems.append("data directory left behind")
        return report, problems

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        if self.proc.stdout and not self.proc.stdout.closed:
            self.proc.stdout.close()


def connect(server: ServerProcess) -> list[Http]:
    return [Http(server.port) for __ in range(CLIENTS)]


def close_all(conns: list[Http]) -> None:
    for conn in conns:
        conn.close()


def environment(seed: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=spec.ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "clients": CLIENTS,
        "commit": commit,
        "python": platform.python_version(),
    }


def run(workload: Workload, seed: int, seconds: float, trace: bool, run_dir: Path) -> dict:
    """Start the server ``SETUP_REPS`` times and load the last start."""
    generator = Generator(workload, seed, CLIENTS)
    servers: list[ServerProcess] = []
    problems: list[str] = []
    total = Recorder()
    closed: list[tuple[Recorder, tuple[float, float]]] = []
    opened: list[Recorder] = []
    untraced_tput = None

    try:
        for rep in range(SETUP_REPS - 1):
            server = ServerProcess(run_dir / f"server-{rep}", trace=False)
            servers.append(server)
            if trace and rep == 0:
                # the tracing-overhead baseline: the same closed loop on an
                # untraced server. Its own generator judges its reads,
                # since its writes went to this server.
                baseline = Generator(workload, seed, CLIENTS)
                conns = connect(server)
                try:
                    warm, __ = baseline.closed(conns, WARMUP_S, measure=False)
                    rec, (begin, end) = baseline.closed(
                        conns, CLOSED_SHARE * seconds, measure=False
                    )
                finally:
                    close_all(conns)
                for part in (warm, rec):
                    total.count(part)
                    server.sent += part.attempted
                untraced_tput = rec.attempted / (end - begin)
            problems += server.stop()[1]
        server = ServerProcess(run_dir / f"server-{SETUP_REPS - 1}", trace=trace)
        servers.append(server)
        attempted_before = total.attempted
        conns = connect(server)
        try:
            warm, __ = generator.closed(conns, WARMUP_S, measure=False)
            total.merge(warm)
            server.mark_measure()
            time.sleep(0.05)  # the server snapshots its counters first
            block_s = seconds / BLOCKS
            for __ in range(BLOCKS):
                rec, window = generator.closed(conns, CLOSED_SHARE * block_s, True)
                closed.append((rec, window))
                total.merge(rec)
                rec = generator.open(conns, (1 - CLOSED_SHARE) * block_s)
                opened.append(rec)
                total.merge(rec)
        finally:
            close_all(conns)
        server.sent += total.attempted - attempted_before
        report, server_problems = server.stop()
        problems += server_problems
    finally:
        for server in servers:
            server.kill()
    return {
        "setup_s": [s.setup_s for s in servers],
        "closed": closed,
        "open": opened,
        "total": total,
        "stale_reads": stale_reads(total.reads, total.acks),
        "report": report,
        "problems": problems,
        "untraced_tput": untraced_tput,
    }


def end_to_end(result: dict) -> dict[str, tuple[float, str]]:
    """The gated metrics: medians over the run's closed-loop blocks."""
    closed = result["closed"]
    return {
        "setup_s": (statistics.median(result["setup_s"]), "s"),
        "throughput_ops_s": (
            statistics.median(
                len(latencies(rec)) / (end - begin) for rec, (begin, end) in closed
            ),
            "ops/s",
        ),
        "p50_ms": (
            statistics.median(percentile_ms(latencies(rec), 50) for rec, __ in closed),
            "ms",
        ),
        "p99_ms": (
            statistics.median(percentile_ms(latencies(rec), 99) for rec, __ in closed),
            "ms",
        ),
        "server_rss_mb": (result["report"]["peak_rss_mb"], "MB"),
    }


def detail(result: dict) -> dict[str, float]:
    """Per-operation figures printed beside the gated metrics."""
    closed = merged([rec for rec, __ in result["closed"]])
    opened = merged(result["open"])
    total = result["total"]
    out: dict[str, float] = {}
    for kind, name in ((READ, "read"), (WRITE, "write"), (SEARCH, "search")):
        values = closed.latencies[kind]
        if values:
            out[f"{name}_p50_ms"] = percentile_ms(values, 50)
            out[f"{name}_p99_ms"] = percentile_ms(values, 99)
            out[f"{name}_samples"] = len(values)
    out["open_p99_ms"] = percentile_ms(latencies(opened), 99)
    out["open_samples"] = len(latencies(opened))
    out["failed_share"] = total.failed / max(total.attempted, 1)
    out["wrong_answers"] = total.wrong
    if total.reads:
        out["stale_read_share"] = result["stale_reads"] / len(total.reads)
        out["stale_reads"] = result["stale_reads"]
        out["reads_judged"] = len(total.reads)
    if total.recall:
        out["recall_at_10"] = statistics.fmean(total.recall)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (spec.SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {spec.SRC}", file=sys.stderr)
        return 2
    # a terminated run still stops its servers (the finally blocks run)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    run_dir = spec.ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
    gc.disable()  # no collector pauses in the generator's own timings
    try:
        result = run(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), run_dir
        )
        if args.trace:
            metrics = layers.per_layer(result, run_dir)
        else:
            metrics = end_to_end(result)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass
    total = result["total"]
    correct = total.wrong == 0 and not result["problems"]
    print("env " + json.dumps(environment(args.seed)))
    print("detail " + json.dumps(detail(result)))
    for problem in result["problems"] + total.failures:
        print(f"problem {problem}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": total.attempted,
        "failed": total.failed + len(result["problems"]),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
