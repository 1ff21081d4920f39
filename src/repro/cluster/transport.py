"""The cluster message plane: the transport base plus the local build.

Every inter-node interaction — client writes, log shipping, heartbeats,
promotion — goes through one narrow request/response surface:

* :class:`Message` — the envelope: source, destination, kind, payload;
* :class:`Transport` — the base every transport shares: ``register`` a
  handler per node id, ``request`` a response from a peer, and one
  fault surface (partitions, injected faults, counters). Handlers are
  plain callables ``Message -> dict``, payloads are JSON-able dicts
  (replication frames ride as ``bytes`` values — a socket
  implementation length-prefixes or base64s them; the in-process build
  passes them through);
* :class:`LocalTransport` — the in-process implementation: handlers
  invoked on the caller's thread. Deterministic (no queues or
  scheduling races to win) and fault-injectable through the shared
  surface: per-link :class:`~repro.runtime.FaultPolicy` injection
  (delay / drop) plus explicit symmetric **partitions** — exactly the
  three failure shapes the failover tests rehearse.

Transports differ only in delivery: a request either returns the handler's
dict, raises the handler's exception, or raises
:class:`~repro.errors.NodeUnreachableError` when the destination cannot
be reached (dead, unregistered, partitioned, or an injected drop) — the
only failure mode callers are allowed to distinguish.
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.errors import NodeUnreachableError, TransientStoreError
from repro.runtime import Counter, FaultInjector, FaultPolicy

Handler = Callable[["Message"], dict]


@dataclass(frozen=True)
class Message:
    """One request envelope travelling between cluster actors."""

    src: str
    dst: str
    kind: str
    payload: dict = field(default_factory=dict)


class Transport:
    """What every cluster transport provides: membership, the fault
    surface and the request counters; subclasses supply delivery.

    Failure injection, shared by every transport and enforced before
    any delivery (:meth:`_admit`):

    * :meth:`partition` / :meth:`heal` — symmetric link cuts; a
      partitioned ``request`` raises
      :class:`~repro.errors.NodeUnreachableError` without touching the
      destination;
    * :meth:`set_fault` — attach a :class:`~repro.runtime.FaultPolicy`
      to a link (or a wildcard: one endpoint, or every link). Injected
      latency delays the call; injected timeouts/errors surface as
      :class:`~repro.errors.NodeUnreachableError` (a drop), counted on
      the transport.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._handlers: dict[str, Handler] = {}
        self._partitions: set[frozenset[str]] = set()
        #: (src|None, dst|None) -> injector; None is a wildcard endpoint
        self._injectors: dict[tuple[str | None, str | None], FaultInjector] = {}
        self.requests = Counter()
        self.unreachable = Counter()
        self.dropped = Counter()

    # -- membership ----------------------------------------------------------

    def register(self, node_id: str, handler: Handler) -> None:
        with self._lock:
            self._handlers[node_id] = handler

    def deregister(self, node_id: str) -> None:
        with self._lock:
            self._handlers.pop(node_id, None)

    def registered(self) -> list[str]:
        with self._lock:
            return sorted(self._handlers)

    def _has_route(self, node_id: str) -> bool:
        """Whether ``node_id`` lives behind another transport (under lock)."""
        return False

    # -- fault surface -------------------------------------------------------

    def partition(self, a: str, b: str) -> None:
        """Cut the link between ``a`` and ``b`` (symmetric)."""
        with self._lock:
            self._partitions.add(frozenset((a, b)))

    def heal(self, a: str, b: str) -> None:
        with self._lock:
            self._partitions.discard(frozenset((a, b)))

    def heal_all(self) -> None:
        with self._lock:
            self._partitions.clear()

    def set_fault(
        self,
        policy: FaultPolicy,
        src: str | None = None,
        dst: str | None = None,
    ) -> FaultInjector:
        """Attach injection to a link; ``None`` endpoints are wildcards."""
        injector = FaultInjector(policy)
        with self._lock:
            self._injectors[(src, dst)] = injector
        return injector

    def clear_faults(self) -> None:
        with self._lock:
            self._injectors.clear()

    def _injector_for(self, src: str, dst: str) -> FaultInjector | None:
        # most-specific match wins: exact link, then dst, src, global
        for key in ((src, dst), (None, dst), (src, None), (None, None)):
            injector = self._injectors.get(key)
            if injector is not None:
                return injector
        return None

    def reachable(self, src: str, dst: str) -> bool:
        with self._lock:
            return (
                dst in self._handlers or self._has_route(dst)
            ) and frozenset((src, dst)) not in self._partitions

    # -- the request path ----------------------------------------------------

    def request(
        self,
        src: str,
        dst: str,
        kind: str,
        payload: dict | None = None,
        timeout_s: float = 1.0,
    ) -> dict:
        """Deliver one request; return the handler's response dict."""
        raise NotImplementedError

    def _admit(self, src: str, dst: str) -> Handler | None:
        """Count one request and clear it for delivery, or raise.

        Raises :class:`~repro.errors.NodeUnreachableError` when the link
        is partitioned, the destination is unknown, or an injected fault
        drops the message. Returns the destination's handler when it is
        registered with this transport.
        """
        self.requests.inc()
        with self._lock:
            partitioned = frozenset((src, dst)) in self._partitions
            handler = self._handlers.get(dst)
            known = handler is not None or self._has_route(dst)
            injector = self._injector_for(src, dst)
        if partitioned:
            self.unreachable.inc()
            raise NodeUnreachableError(f"{src} -> {dst}: link is partitioned")
        if not known:
            self.unreachable.inc()
            raise NodeUnreachableError(f"{src} -> {dst}: no such node")
        if injector is not None:
            try:
                injector.inject()
            except NodeUnreachableError:
                self.dropped.inc()
                raise
            except TransientStoreError as exc:
                self.dropped.inc()
                raise NodeUnreachableError(
                    f"{src} -> {dst}: injected drop ({exc})"
                ) from exc
        return handler

    def snapshot(self) -> dict[str, object]:
        with self._lock:
            partitions = sorted(tuple(sorted(p)) for p in self._partitions)
        return {
            "nodes": self.registered(),
            "requests": self.requests.value,
            "unreachable": self.unreachable.value,
            "dropped": self.dropped.value,
            "partitions": partitions,
        }


class LocalTransport(Transport):
    """In-process transport: direct handler invocation + fault injection.

    ``request`` runs the destination handler synchronously on the
    caller's thread, which keeps multi-node tests deterministic — a
    write is fully replicated when ``put`` returns, with no background
    delivery to await. Handlers must therefore be thread-safe (they are
    called from whichever node/client thread issues the request), which
    the node enforces with its own locks.
    """

    def request(
        self,
        src: str,
        dst: str,
        kind: str,
        payload: dict | None = None,
        timeout_s: float = 1.0,
    ) -> dict:
        """Deliver one request; return the handler's response dict.

        Raises :class:`~repro.errors.NodeUnreachableError` when the
        destination is unregistered, partitioned away, or an injected
        fault drops the message; any exception the handler raises
        propagates to the caller unchanged (the local analogue of an
        error envelope).
        """
        handler = self._admit(src, dst)  # never None: no routes here
        return handler(Message(src=src, dst=dst, kind=kind, payload=payload or {}))
