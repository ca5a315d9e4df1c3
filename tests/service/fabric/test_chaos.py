"""ChaosProxy tests: config validation, seeded determinism, fault injection
end-to-end against a real in-process service."""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.core.serialize import problem_to_dict
from repro.exceptions import ServiceError, TransientServiceError
from repro.service.app import SchedulingService
from repro.service.chaos import ChaosConfig, ChaosProxy
from repro.service.http import BackgroundServer, ServiceClient, ServiceServer
from repro.service.resilience import CircuitBreaker, RetryPolicy
from repro.service.router import NodeHandle, ShardRouter
from repro.workloads import example_problem

REQUEST = {"problem": problem_to_dict(example_problem()), "budget": 57.0}


@contextmanager
def running_service(**kwargs):
    """An in-process SchedulingService behind a real HTTP server."""
    service = SchedulingService(**kwargs)
    try:
        with BackgroundServer(ServiceServer(service)) as server:
            yield server.base_url, service
    finally:
        service.drain()


class TestChaosConfig:
    def test_probabilities_validated(self):
        with pytest.raises(ServiceError, match="error_prob"):
            ChaosConfig(error_prob=1.5)
        with pytest.raises(ServiceError, match="drop_prob"):
            ChaosConfig(drop_prob=-0.1)

    def test_latency_bounds_validated(self):
        with pytest.raises(ServiceError, match="latency"):
            ChaosConfig(latency_min=0.5, latency_max=0.1)


class TestDeterminism:
    def _decisions(self, seed: int, n: int = 64) -> list[dict]:
        proxy = ChaosProxy(
            "http://unused",
            ChaosConfig(seed=seed, latency_prob=0.3, error_prob=0.2, drop_prob=0.2),
        )
        return [proxy._decide() for _ in range(n)]

    def test_same_seed_same_faults(self):
        assert self._decisions(42) == self._decisions(42)

    def test_different_seed_different_faults(self):
        assert self._decisions(1) != self._decisions(2)

    def test_zero_probabilities_inject_nothing(self):
        proxy = ChaosProxy("http://unused", ChaosConfig(seed=0))
        for _ in range(32):
            decision = proxy._decide()
            assert decision == {"latency": None, "error": False, "drop": False}
        stats = proxy.stats()
        assert stats["injected_errors"] == 0
        assert stats["injected_drops"] == 0


class TestFaultInjection:
    def test_transparent_relay_roundtrip(self):
        with running_service() as (url, _):
            with ChaosProxy(url, ChaosConfig(seed=0)) as proxy:
                client = ServiceClient(proxy.base_url)
                assert client.healthz() == {"status": "ok"}
                response = client.solve(REQUEST)
                assert response["status"] == "ok"
                assert proxy.stats()["forwarded"] == 2

    def test_injected_502_surfaces_as_bad_gateway_body(self):
        with running_service() as (url, _):
            with ChaosProxy(url, ChaosConfig(seed=0, error_prob=1.0)) as proxy:
                client = ServiceClient(proxy.base_url)
                body = client.solve(REQUEST)
                assert body["status"] == "error"
                assert body["error"]["kind"] == "bad_gateway"
                assert proxy.stats()["injected_errors"] == 1
                assert proxy.stats()["forwarded"] == 0

    def test_injected_drop_raises_transient_error(self):
        with running_service() as (url, _):
            with ChaosProxy(url, ChaosConfig(seed=0, drop_prob=1.0)) as proxy:
                client = ServiceClient(proxy.base_url)
                with pytest.raises(TransientServiceError):
                    client.solve(REQUEST)
                assert proxy.stats()["injected_drops"] == 1

    def test_injected_latency_uses_sleep_hook(self):
        sleeps: list[float] = []
        with running_service() as (url, _):
            proxy = ChaosProxy(
                url,
                ChaosConfig(
                    seed=0, latency_prob=1.0, latency_min=0.001, latency_max=0.002
                ),
                sleep=sleeps.append,
            )
            with proxy:
                client = ServiceClient(proxy.base_url)
                assert client.solve(REQUEST)["status"] == "ok"
        assert len(sleeps) == 1
        assert 0.001 <= sleeps[0] <= 0.002

    def test_unreachable_upstream_becomes_502(self):
        with ChaosProxy("http://127.0.0.1:1", ChaosConfig(seed=0)) as proxy:
            client = ServiceClient(proxy.base_url)
            body = client.solve(REQUEST)
            assert body["error"]["kind"] == "bad_gateway"
            assert proxy.stats()["upstream_unreachable"] == 1


class TestRouterThroughChaos:
    def test_router_absorbs_full_fault_storm_on_one_node(self):
        """Node A's proxy always faults; the router must still answer."""
        with running_service() as (url_a, _), running_service() as (url_b, _):
            chaos_a = ChaosProxy(url_a, ChaosConfig(seed=0, error_prob=1.0))
            chaos_b = ChaosProxy(url_b, ChaosConfig(seed=0))
            with chaos_a, chaos_b:
                router = ShardRouter(
                    [
                        NodeHandle(
                            chaos_a.base_url,
                            breaker=CircuitBreaker(failure_threshold=2),
                        ),
                        NodeHandle(
                            chaos_b.base_url,
                            breaker=CircuitBreaker(failure_threshold=2),
                        ),
                    ],
                    retry_policy=RetryPolicy(max_retries=4, base_delay=0.0, jitter=False),
                    sleep=lambda _: None,
                )
                for _ in range(4):
                    assert router.solve(dict(REQUEST))["status"] == "ok"
                stats = router.stats()
                # every response ultimately came from the healthy node
                assert stats["nodes"][chaos_b.base_url]["requests"] >= 4

    def test_router_retries_through_intermittent_drops(self):
        with running_service() as (url, _):
            chaos = ChaosProxy(url, ChaosConfig(seed=7, drop_prob=0.5))
            with chaos:
                router = ShardRouter(
                    [
                        NodeHandle(
                            chaos.base_url,
                            breaker=CircuitBreaker(failure_threshold=100),
                        )
                    ],
                    retry_policy=RetryPolicy(
                        max_retries=10, base_delay=0.0, jitter=False
                    ),
                    sleep=lambda _: None,
                )
                for _ in range(6):
                    assert router.solve(dict(REQUEST))["status"] == "ok"
