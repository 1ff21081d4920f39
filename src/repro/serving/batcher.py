"""Micro-batching: coalesce concurrent point lookups into batched reads.

"Unified Embedding" (PAPERS.md) reports that web-scale serving lives or
dies by batched, cache-friendly lookup paths; the same trick applies to a
feature store's online tier. Many concurrent callers each want one key —
issuing one store round trip per key pays the per-call overhead (lock
acquisition here; a network hop against a real Redis/Cassandra tier) once
*per key*. The micro-batcher is a :class:`repro.runtime.Batcher` that
groups queued lookups by ``(namespace, policy)`` and issues one
``read_many`` per group, paying the per-call overhead once *per batch*.

Callers block on a :class:`concurrent.futures.Future`, which also gives
the gateway its per-request deadline (``future.result(timeout=...)``).
"""

from __future__ import annotations

from collections.abc import Callable
from concurrent.futures import Future

from repro.runtime import Batcher
from repro.storage.online import FreshnessPolicy

ReadManyFn = Callable[
    [str, list[int], FreshnessPolicy], list[dict[str, object] | None]
]


class MicroBatcher(Batcher):
    """Batch point reads through ``read_many``.

    ``read_many`` is the backing batched read (typically the online
    store's — or its fault-injecting wrapper's — ``read_many``). The
    worker pool starts in the constructor; call :meth:`stop` (or use the
    gateway as a context manager) for an orderly shutdown that completes
    every request already queued.
    """

    def __init__(
        self,
        read_many: ReadManyFn,
        max_batch_size: int = 64,
        max_wait_s: float = 0.001,
        n_workers: int = 2,
    ) -> None:
        self._read_many = read_many
        super().__init__("microbatcher", max_batch_size, max_wait_s, n_workers)

    def submit(
        self,
        namespace: str,
        entity_id: int,
        policy: FreshnessPolicy = FreshnessPolicy.SERVE_ANYWAY,
    ) -> Future:
        """Enqueue one point lookup; resolve via the returned future."""
        return self._submit((namespace, policy), entity_id)

    def _run_group(
        self, key: tuple[str, FreshnessPolicy], entity_ids: list[int]
    ) -> list[dict[str, object] | None]:
        namespace, policy = key
        return self._read_many(namespace, entity_ids, policy)
