"""Tests for repro.runtime.batching: the shared queue-and-drain service.

Run against a minimal :class:`Batcher` subclass, so the contracts every
batched lookup path relies on are checked once, independent of any
backend: keyed grouping, exception fan-out, drain on stop, rejection
after stop, idempotent stop, and no stranded future when ``submit``
races ``stop()``.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.errors import ValidationError
from repro.runtime import Batcher, LifecycleError, ServiceState


class Doubler(Batcher):
    """Doubles each item; records every group it runs."""

    def __init__(self, max_batch_size=16, max_wait_s=0.0, n_workers=2, gate=None):
        self.groups: list[tuple[object, list[int]]] = []
        self._groups_lock = threading.Lock()
        self._gate = gate
        super().__init__("doubler", max_batch_size, max_wait_s, n_workers)

    def submit(self, key, item):
        return self._submit(key, item)

    def _run_group(self, key, items):
        if self._gate is not None:
            self._gate.wait(timeout=5.0)
        if key == "boom":
            raise RuntimeError("boom")
        with self._groups_lock:
            self.groups.append((key, list(items)))
        return [2 * item for item in items]


def test_constructed_is_running_and_resolves():
    batcher = Doubler()
    try:
        assert batcher.running
        assert batcher.submit("a", 21).result(timeout=2.0) == 42
    finally:
        batcher.stop()


@pytest.mark.parametrize(
    "kwargs",
    [{"max_batch_size": 0}, {"max_wait_s": -1.0}, {"n_workers": 0}],
)
def test_rejects_bad_parameters(kwargs):
    with pytest.raises(ValidationError):
        Doubler(**kwargs)


def test_batch_is_grouped_by_key():
    gate = threading.Event()
    batcher = Doubler(n_workers=1, gate=gate)
    try:
        blocker = batcher.submit("warmup", 0)  # holds the only worker
        futures = [batcher.submit(key, i) for i, key in enumerate("abab")]
        gate.set()
        blocker.result(timeout=2.0)
        assert [f.result(timeout=2.0) for f in futures] == [0, 2, 4, 6]
    finally:
        gate.set()
        batcher.stop()
    assert ("a", [0, 2]) in batcher.groups
    assert ("b", [1, 3]) in batcher.groups
    assert batcher.mean_batch_size() > 1.0


def test_group_exception_reaches_every_member_only():
    gate = threading.Event()
    batcher = Doubler(n_workers=1, gate=gate)
    try:
        blocker = batcher.submit("warmup", 0)
        bad = [batcher.submit("boom", i) for i in range(3)]
        good = batcher.submit("ok", 5)
        gate.set()
        blocker.result(timeout=2.0)
        for future in bad:
            with pytest.raises(RuntimeError, match="boom"):
                future.result(timeout=2.0)
        assert good.result(timeout=2.0) == 10
    finally:
        gate.set()
        batcher.stop()


def test_stop_drains_queued_work():
    gate = threading.Event()
    batcher = Doubler(max_batch_size=1, n_workers=1, gate=gate)
    futures = [batcher.submit("a", i) for i in range(20)]
    assert batcher.queue_depth() >= 1
    gate.set()
    batcher.stop()  # no explicit wait: stop() itself must drain
    assert [f.result(timeout=0) for f in futures] == [2 * i for i in range(20)]
    assert batcher.batched_requests.value == 20


def test_submit_after_stop_is_rejected():
    batcher = Doubler()
    batcher.stop()
    with pytest.raises(LifecycleError, match="stopped"):
        batcher.submit("a", 1)


def test_stop_is_idempotent():
    batcher = Doubler()
    batcher.stop()
    batcher.stop()
    batcher.close()
    assert batcher.state is ServiceState.STOPPED
    assert not any(t.is_alive() for t in batcher._threads)


def test_cancelled_member_is_skipped():
    gate = threading.Event()
    batcher = Doubler(n_workers=1, gate=gate)
    try:
        blocker = batcher.submit("warmup", 0)
        cancelled = batcher.submit("a", 1)
        kept = batcher.submit("a", 2)
        assert cancelled.cancel()
        gate.set()
        blocker.result(timeout=2.0)
        assert kept.result(timeout=2.0) == 4
    finally:
        gate.set()
        batcher.stop()
    assert ("a", [2]) in batcher.groups


def test_health_record():
    batcher = Doubler()
    try:
        batcher.submit("a", 1).result(timeout=2.0)
        record = batcher.health()
        assert record["healthy"] is True
        assert record["batches"] == 1
        assert record["queue_depth"] == 0
    finally:
        batcher.stop()


def test_submit_racing_stop_never_strands_a_future():
    """Every submission either resolves or is rejected with
    LifecycleError; none is left pending behind the stop sentinel."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for __ in range(20):
            batcher = Doubler(max_batch_size=4, n_workers=2)
            accepted = []
            rejected = []
            start = threading.Barrier(5)

            def producer(base):
                start.wait(timeout=5.0)
                for i in range(200):
                    try:
                        accepted.append(batcher.submit(base % 2, base * 1000 + i))
                    except LifecycleError:
                        rejected.append(i)

            threads = [
                threading.Thread(target=producer, args=(n,)) for n in range(4)
            ]
            for thread in threads:
                thread.start()
            start.wait(timeout=5.0)
            batcher.stop()
            for thread in threads:
                thread.join(timeout=5.0)
                assert not thread.is_alive()
            for future in accepted:
                assert future.result(timeout=2.0) % 2 == 0
            assert len(accepted) + len(rejected) == 800
    finally:
        sys.setswitchinterval(previous)
