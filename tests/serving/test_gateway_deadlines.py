"""ServingGateway deadlines: ``0.0`` is a spent budget, not an unset one."""

import time

import pytest

from repro.runtime import FaultPolicy
from repro.serving import FaultInjectingOnlineStore, GatewayConfig, ServingGateway
from repro.storage.online import OnlineStore


@pytest.fixture
def stalled():
    online = OnlineStore()
    online.create_namespace("stats")
    for i in range(4):
        online.write("stats", i, {"x": float(i)}, event_time=0.0)
    return FaultInjectingOnlineStore(online, FaultPolicy(base_latency_s=2.0))


@pytest.mark.parametrize("enable_batching", [True, False])
def test_zero_budget_degrades_at_once(stalled, enable_batching):
    config = GatewayConfig(default_deadline_s=0.25, enable_batching=enable_batching)
    with ServingGateway(stalled, config=config) as gateway:
        start = time.monotonic()
        assert gateway.get_features("stats", 1, deadline_s=0.0) is None
        assert gateway.get_features_batch("stats", [1, 2], deadline_s=0.0) == [
            None,
            None,
        ]
        assert time.monotonic() - start < 0.1
        assert gateway.metrics.endpoint("get_features").degraded.value == 1
        assert stalled.calls.value == 0
