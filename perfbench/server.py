"""The server process: HTTP → gateway → cluster over sockets, plus vectors.

Run by ``run.py``, never by hand::

    python3 perfbench/server.py --run-dir DIR [--trace]

It builds the stack, prints ``READY <port>`` and serves until SIGTERM.
SIGUSR1 marks the start of the measured window: counters are snapshot
and spans recorded so far are dropped. On SIGTERM it drains, stops every
service, checks that it exits clean, writes ``report.json`` (and, traced,
``spans.json``) into the run directory and exits 0.

The stack, composed here because no module of the program composes
these planes:

* ``Cluster(n_shards=2, n_replicas=2, transport="socket")``, preloaded
  with ``N_KEYS`` rows written into every replica's log;
* :class:`ClusterStore`, the ``read``/``read_many``/``write`` surface the
  gateway expects, over one :class:`~repro.cluster.ClusterClient` per
  thread. It has no write listener, so the gateway invalidates its own
  cache after each write;
* a ``VectorService`` serving the IVF table (4 shards), attached to the
  gateway;
* ``ServingGateway`` with its default config except the cache size, and
  ``FeatureServer`` on top.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import signal
import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spec  # noqa: E402

sys.path.insert(0, str(spec.SRC))

import numpy as np  # noqa: E402

from repro.bus import BusRecord  # noqa: E402
from repro.cluster import Cluster  # noqa: E402
from repro.net import FeatureServer, ServerConfig  # noqa: E402
from repro.runtime import LatencyHistogram, MetricsRegistry  # noqa: E402
from repro.serving import GatewayConfig, ServingGateway  # noqa: E402
from repro.vecserve import VectorService  # noqa: E402

import tracing  # noqa: E402


class ClusterStore:
    """The gateway's store surface over the cluster, one client per thread."""

    def __init__(self, cluster: Cluster, on_client=None) -> None:
        self._cluster = cluster
        self._on_client = on_client
        self._local = threading.local()
        self._lock = threading.Lock()
        self.clients = []

    def _client(self):
        client = getattr(self._local, "client", None)
        if client is None:
            client = self._cluster.client(f"gateway-{threading.get_ident()}")
            if self._on_client is not None:
                self._on_client(client)
            with self._lock:
                self.clients.append(client)
            self._local.client = client
        return client

    def read(self, namespace, entity_id, policy=None):
        return self._client().get(entity_id, namespace=namespace)["features"]

    def read_many(self, namespace, entity_ids, policy=None):
        client = self._client()
        return [client.get(e, namespace=namespace)["features"] for e in entity_ids]

    def write(self, namespace, entity_id, values, event_time):
        attributes = dict(values)
        value = attributes.pop("value", 0.0)
        self._client().put(
            entity_id, value, attributes=attributes, timestamp=event_time
        )


def preload(cluster: Cluster) -> None:
    """Write the ``N_KEYS`` preload rows into every replica's log.

    This is a bulk restore, not ``N_KEYS`` replicated puts: each replica
    of a shard appends the same records in the same order, so follower
    logs are byte-identical to their leader's, and the apply pumps land
    them in the stores.
    """
    router = cluster.client("preload")
    by_shard: dict[str, list[int]] = {}
    for key in range(spec.N_KEYS):
        by_shard.setdefault(router.owner_of(key)[0], []).append(key)
    for node in cluster.nodes.values():
        by_partition: dict[int, list[BusRecord]] = {}
        for key in by_shard.get(node.config.shard_id, []):
            by_partition.setdefault(node.log.partition_for(key), []).append(
                BusRecord(
                    entity_id=key,
                    timestamp=spec.PRELOAD_EVENT_TIME,
                    value=spec.PRELOAD_TOKEN,
                    attributes={"key": key},
                )
            )
        for partition, records in by_partition.items():
            node.log.append_many(partition, records)
    if not cluster.wait_applied(30.0):
        raise RuntimeError("preload did not apply within 30s")


def read_counters(registry, cluster, store, gateway) -> dict[str, float]:
    """The counters the program keeps, flattened to ``name -> number``."""
    out: dict[str, float] = {}
    for name, labels, metric in registry.collect():
        if not isinstance(metric, LatencyHistogram):
            key = name + "".join(f",{k}={v}" for k, v in sorted(labels.items()))
            out[key] = metric.value
    for counter in ("writes_acked", "frames_shipped", "ship_failures"):
        out[f"node_{counter}"] = sum(
            getattr(node, counter).value for node in cluster.nodes.values()
        )
    out["client_retries"] = sum(
        client.wrong_owner_retries.value + client.unreachable_retries.value
        for client in list(store.clients)
    )
    out["batches"] = gateway.batcher.batches.value
    out["batched_requests"] = gateway.batcher.batched_requests.value
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--run-dir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    # Signals are taken with sigwait below; blocking them first (before
    # any thread starts, so every thread inherits the mask) keeps one that
    # arrives early pending instead of killing the process.
    signals = {signal.SIGUSR1, signal.SIGTERM}
    signal.pthread_sigmask(signal.SIG_BLOCK, signals)

    data_dir = args.run_dir / "data"
    tracer = tracing.Tracer() if args.trace else None
    registry = MetricsRegistry()

    cluster = Cluster(
        data_dir,
        n_shards=spec.N_SHARDS,
        n_replicas=spec.N_REPLICAS,
        transport="socket",
    )
    if tracer is not None:
        tracing.instrument_cluster(tracer, cluster)
    cluster.start()
    preload(cluster)

    store = ClusterStore(
        cluster,
        on_client=(
            (lambda client: tracing.instrument_client(tracer, client))
            if tracer is not None
            else None
        ),
    )
    vectors = VectorService(registry=registry)
    vectors.serve_matrix(
        spec.VECTOR_TABLE,
        1,
        np.arange(spec.N_VECTORS),
        spec.vector_matrix(),
        backend="ivf",
        n_shards=spec.VECTOR_SHARDS,
    )
    gateway = ServingGateway(
        store,
        config=GatewayConfig(cache_capacity=spec.CACHE_CAPACITY),
        vectors=vectors,
        registry=registry,
    )
    front = gateway
    if tracer is not None:
        tracer.patch(store, "read", "serving.upstream_read")
        tracer.patch(store, "read_many", "serving.upstream_read")
        tracer.patch(store, "write", "serving.upstream_write")
        tracing.instrument_vectors(tracer, vectors, spec.VECTOR_TABLE)
        front = tracing.GatewayProxy(gateway, tracer)
    server = FeatureServer(front, ServerConfig(), registry=registry)
    if tracer is not None:
        tracer.patch(server, "_handle", "net.handle", root=True)
    server.start()
    print(f"READY {server.port}", flush=True)

    def counters():
        return read_counters(registry, cluster, store, gateway)

    baseline = counters()
    while signal.sigwait(signals) == signal.SIGUSR1:
        baseline = counters()
        if tracer is not None:
            tracer.reset()

    final = counters()
    if tracer is not None:
        tracer.dump(args.run_dir / "spans.json")
        backlog = tracer.max_apply_backlog
    else:
        backlog = 0
    server.stop()
    gateway.stop()
    vectors.stop()
    cluster.stop()
    shutil.rmtree(data_dir, ignore_errors=True)

    responses = sum(
        metric.value
        for name, __, metric in registry.collect()
        if name == "net_responses_total"
    )
    leftover = [t.name for t in threading.enumerate() if t is not threading.current_thread()]
    report = {
        "counters": {k: final[k] - baseline.get(k, 0) for k in final},
        "requests_total": server.requests.value,
        "responses_total": responses,
        "leftover_threads": leftover,
        "data_dir_removed": not data_dir.exists(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "max_apply_backlog": backlog,
    }
    (args.run_dir / "report.json").write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
