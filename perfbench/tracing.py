"""In-memory spans around the public entry points of each layer.

The benchmark does not change the program to trace it: :class:`Tracer`
replaces bound methods on the server's *instances* with wrappers that
record a span per call, before the services start. A span is
``(id, parent, request, name, start, end, size)``:

* ``parent`` is the enclosing span on the same thread (0 at the top of
  a thread's stack: a batcher, transport or shard worker starts its own
  tree);
* ``request`` is the id of the HTTP request's top span on the thread
  that handles it, inherited by every span nested under it there, and 0
  on other threads;
* ``size`` is an optional work count (records appended, rows written).

Spans live in a list until :meth:`Tracer.dump` writes them out at exit.
A layer's self time is its span's duration minus its children's.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.recording = True
        #: largest apply backlog (records a node's log holds beyond what
        #: its store has applied) seen in any heartbeat while recording
        self.max_apply_backlog = 0
        self._local = threading.local()
        self._ids = itertools.count(1)

    def wrap(self, name, fn, *, root: bool = False, size=None):
        """``fn`` with a span per call.

        ``name`` is a string or a function of the call's arguments (the
        transport names its span after the message kind). ``root`` marks
        the entry of an HTTP request, which starts a new request id.
        ``size`` maps the arguments to the span's work count.
        """
        local = self._local
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            if root:
                local.request = span_id
            request = getattr(local, "request", 0) if (stack or root) else 0
            parent = stack[-1] if stack else 0
            label = name if isinstance(name, str) else name(*args, **kwargs)
            count = size(*args, **kwargs) if size is not None else 0
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if root:
                    local.request = 0
                spans.append((span_id, parent, request, label, start, end, count))

        return traced

    def patch(self, obj, attribute: str, name, **options) -> None:
        """Replace ``obj.attribute`` (a bound method) with its traced twin."""
        setattr(obj, attribute, self.wrap(name, getattr(obj, attribute), **options))

    def reset(self) -> None:
        """Drop what was recorded so far (the warm-up's)."""
        self.spans.clear()
        self.max_apply_backlog = 0

    def sample_backlog(self, heartbeat):
        """``heartbeat`` that also records the node's apply backlog."""

        def sampled():
            beat = heartbeat()
            if self.recording:
                backlog = sum(
                    end - applied
                    for end, applied in zip(
                        beat["end_offsets"], beat["applied_offsets"]
                    )
                )
                self.max_apply_backlog = max(self.max_apply_backlog, backlog)
            return beat

        return sampled

    def dump(self, path: Path) -> None:
        self.recording = False
        path.write_text(json.dumps(self.spans))


class GatewayProxy:
    """What the traced server hands to ``FeatureServer`` instead of the
    gateway: the same object, with a span around each endpoint."""

    ENDPOINTS = ("get_features", "write_features", "search_neighbors")

    def __init__(self, gateway, tracer: Tracer) -> None:
        self._gateway = gateway
        for endpoint in self.ENDPOINTS:
            setattr(
                self,
                endpoint,
                tracer.wrap(f"serving.{endpoint}", getattr(gateway, endpoint)),
            )

    def __getattr__(self, attribute):
        return getattr(self._gateway, attribute)


def instrument_cluster(tracer: Tracer, cluster) -> None:
    """Spans on the transport, every node's handler, log and store."""
    tracer.patch(
        cluster.transport,
        "request",
        lambda src, dst, kind, *a, **k: f"transport.{kind}",
    )
    for node in cluster.nodes.values():
        tracer.patch(
            node, "handle", lambda message: f"node.{message.kind}"
        )
        node.heartbeat = tracer.sample_backlog(node.heartbeat)
        tracer.patch(node.log, "append", "bus.append")
        tracer.patch(
            node.log,
            "append_many",
            "bus.append_many",
            size=lambda partition, records: len(records),
        )
        tracer.patch(node.store, "read", "storage.read")
        tracer.patch(
            node.store,
            "write_many",
            "storage.write_many",
            size=lambda namespace, rows: len(rows),
        )


def instrument_client(tracer: Tracer, client) -> None:
    tracer.patch(client, "get", "cluster.client_get")
    tracer.patch(client, "put", "cluster.client_put")


def instrument_vectors(tracer: Tracer, service, table_name: str) -> None:
    tracer.patch(service, "search", "vecserve.search")
    for shard in service.table(table_name).shards:
        tracer.patch(shard, "query", "vecserve.shard_search")
