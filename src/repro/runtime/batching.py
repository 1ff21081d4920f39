"""Batcher: the one queue-and-drain service under every batched lookup.

"Unified Embedding" (PAPERS.md) reports that serving cost is set by the
batched lookup path; the paper's online tier (§2.2.2) serves features
and embeddings the same way. Many concurrent callers each want one
item — issuing one backend round trip per item pays the per-call
overhead once *per item*. A :class:`Batcher` puts submissions on a
queue; a small bounded worker pool drains the queue in batches of up to
``max_batch_size`` (waiting at most ``max_wait_s`` for stragglers),
groups each batch by the key given at submit time and runs each group
in one call, paying the overhead once *per group*.

Subclasses supply :meth:`Batcher._run_group` (one backend call for a
group of items sharing a key) and a public ``submit`` that forwards to
:meth:`Batcher._submit`. Callers block on a
:class:`concurrent.futures.Future`, which also carries each member's
result or the group's exception.

Lifecycle: constructed == running. ``stop()``/``close()`` are
idempotent; the running check and the enqueue happen under the
lifecycle lock, so a submission either lands ahead of the stop sentinel
(and is served while the queue drains) or is rejected with
:class:`~repro.runtime.LifecycleError` — it never strands a future
behind the sentinel.
"""

from __future__ import annotations

import queue
import time
from collections.abc import Hashable
from concurrent.futures import Future

from repro.errors import ValidationError
from repro.runtime.lifecycle import Service
from repro.runtime.telemetry import Counter

_STOP = object()


class Batcher(Service):
    """Queue + bounded worker pool that runs submissions in keyed groups."""

    def __init__(
        self,
        name: str,
        max_batch_size: int,
        max_wait_s: float,
        n_workers: int,
    ) -> None:
        if max_batch_size < 1:
            raise ValidationError(f"max_batch_size must be >= 1 ({max_batch_size=})")
        if max_wait_s < 0:
            raise ValidationError(f"max_wait_s must be >= 0 ({max_wait_s=})")
        if n_workers < 1:
            raise ValidationError(f"n_workers must be >= 1 ({n_workers=})")
        super().__init__(name=name)
        self.max_batch_size = max_batch_size
        self.max_wait_s = max_wait_s
        self.n_workers = n_workers
        self._queue: queue.Queue = queue.Queue()
        self.batches = Counter()
        self.batched_requests = Counter()
        self.start()

    def _run_group(self, key: Hashable, items: list) -> list:
        """Serve one group; return one result per item, in order."""
        raise NotImplementedError

    def _on_start(self) -> None:
        for i in range(self.n_workers):
            self._spawn(self._worker_loop, name=f"{self.name}-{i}")

    def _on_stop(self) -> None:
        self._queue.put(_STOP)  # behind every accepted submission
        self._join_workers()

    # -- client side ----------------------------------------------------------

    def _submit(self, key: Hashable, item: object) -> Future:
        """Enqueue ``item`` in group ``key``; resolve via the returned future."""
        with self._state_lock:
            self._check_running()
            future: Future = Future()
            self._queue.put((key, item, future))
        return future

    def queue_depth(self) -> int:
        return self._queue.qsize()

    def mean_batch_size(self) -> float:
        batches = self.batches.value
        return self.batched_requests.value / batches if batches else 0.0

    def health(self) -> dict[str, object]:
        record = super().health()
        record["queue_depth"] = self.queue_depth()
        record["batches"] = self.batches.value
        return record

    # -- worker side ----------------------------------------------------------

    def _collect_batch(self, first: tuple) -> list[tuple]:
        batch = [first]
        deadline = time.monotonic() + self.max_wait_s
        while len(batch) < self.max_batch_size:
            remaining = deadline - time.monotonic()
            try:
                # Even with no wait budget left, drain anything already
                # queued — coalescing backlog is free.
                entry = self._queue.get(
                    block=remaining > 0, timeout=max(remaining, 0) or None
                )
            except queue.Empty:
                break
            if entry is _STOP:
                self._queue.put(_STOP)  # let sibling workers see it too
                break
            batch.append(entry)
        return batch

    def _worker_loop(self) -> None:
        while True:
            entry = self._queue.get()
            if entry is _STOP:
                self._queue.put(_STOP)
                return
            batch = self._collect_batch(entry)
            self.batches.inc()
            self.batched_requests.inc(len(batch))
            self._execute(batch)

    def _execute(self, batch: list[tuple]) -> None:
        groups: dict[Hashable, list[tuple[object, Future]]] = {}
        for key, item, future in batch:
            # Marking the future running first means a caller's late
            # cancel() fails instead of racing set_result below; an
            # already-cancelled member is dropped from its group.
            if future.set_running_or_notify_cancel():
                groups.setdefault(key, []).append((item, future))
        for key, members in groups.items():
            try:
                results = self._run_group(key, [item for item, __ in members])
            except BaseException as exc:  # noqa: BLE001 - forwarded to callers
                for __, future in members:
                    future.set_exception(exc)
                continue
            for (__, future), result in zip(members, results):
                future.set_result(result)
