"""ShardRouter tests: sharding, failover, breakers, hedging, HTTP front-end."""

from __future__ import annotations

import threading
import time

import pytest

from repro.exceptions import (
    CircuitOpenError,
    ServiceError,
    TransientServiceError,
)
from repro.service.http import ServiceClient
from repro.service.keys import problem_hash
from repro.service.resilience import CircuitBreaker, RetryPolicy
from repro.service.router import (
    NodeHandle,
    ShardRouter,
    _body_status,
    make_router_server,
)

OK_BODY = {
    "status": "ok",
    "cache_hit": False,
    "result": {"algorithm": "critical-greedy", "cost": 1.0},
}


def problem_payload(tag: str) -> dict:
    """A hashable fake problem payload, distinct per tag."""
    return {
        "workflow": {"modules": [{"name": tag}], "edges": []},
        "catalog": [],
    }


def request_for(tag: str) -> dict:
    return {"problem": problem_payload(tag), "budget": 1.0}


def tag_for_shard(router: ShardRouter, shard: int) -> str:
    """Find a tag whose problem payload routes to the given shard."""
    for i in range(4096):
        tag = f"m{i}"
        if router.shard_of(problem_hash(problem_payload(tag))) == shard:
            return tag
    raise AssertionError(f"no tag found for shard {shard}")


class FakeClient:
    """Scripted stand-in for ServiceClient: pop one outcome per solve."""

    def __init__(self, outcomes=None, delay: float = 0.0):
        self.outcomes = list(outcomes or [])
        self.delay = delay
        self.calls: list[dict] = []

    def solve(self, payload: dict) -> dict:
        self.calls.append(payload)
        if self.delay:
            time.sleep(self.delay)
        outcome = self.outcomes.pop(0) if self.outcomes else OK_BODY
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome

    def stats(self) -> dict:
        return {
            "status": "ok",
            "stats": {
                "requests": len(self.calls),
                "degraded": 0,
                "cache": {"hits": 0, "misses": len(self.calls), "quarantined": 0},
            },
        }


def make_router(clients, *, hedge_delay=None, max_retries=3, breakers=None):
    nodes = [
        NodeHandle(
            f"http://node-{i}",
            client=client,
            breaker=(breakers[i] if breakers else CircuitBreaker()),
        )
        for i, client in enumerate(clients)
    ]
    return ShardRouter(
        nodes,
        retry_policy=RetryPolicy(max_retries=max_retries, base_delay=0.0, jitter=False),
        hedge_delay=hedge_delay,
        sleep=lambda _: None,
    )


class TestShardMap:
    def test_requires_nodes(self):
        with pytest.raises(ServiceError, match="at least one node"):
            ShardRouter([])

    def test_prefix_len_validated(self):
        node = NodeHandle("http://n", client=FakeClient())
        with pytest.raises(ServiceError, match="prefix_len"):
            ShardRouter([node], prefix_len=0)

    def test_shard_of_is_deterministic_and_in_range(self):
        router = make_router([FakeClient(), FakeClient(), FakeClient()])
        digest = problem_hash(problem_payload("a"))
        shard = router.shard_of(digest)
        assert 0 <= shard < 3
        assert router.shard_of(digest) == shard

    def test_malformed_digest_rejected(self):
        router = make_router([FakeClient()])
        with pytest.raises(ServiceError, match="malformed"):
            router.shard_of("zz-not-hex")

    def test_candidates_are_ring_ordered(self):
        router = make_router([FakeClient(), FakeClient(), FakeClient()])
        digest = problem_hash(problem_payload("a"))
        candidates = router.candidates(digest)
        assert len(candidates) == 3
        primary = router.shard_of(digest)
        assert candidates[0] is router.nodes[primary]
        assert candidates[1] is router.nodes[(primary + 1) % 3]


class TestRouting:
    def test_routes_to_shard_owner(self):
        a, b = FakeClient(), FakeClient()
        router = make_router([a, b])
        tag = tag_for_shard(router, 0)
        response = router.solve(request_for(tag))
        assert response["status"] == "ok"
        assert len(a.calls) == 1 and len(b.calls) == 0

    def test_missing_problem_rejected_without_retry(self):
        a = FakeClient()
        router = make_router([a])
        with pytest.raises(ServiceError, match="problem"):
            router.solve({"budget": 1.0})
        assert a.calls == []

    def test_failover_to_secondary_on_transport_error(self):
        a = FakeClient([TransientServiceError("connection refused")])
        b = FakeClient()
        router = make_router([a, b])
        tag = tag_for_shard(router, 0)
        response = router.solve(request_for(tag))
        assert response["status"] == "ok"
        assert len(a.calls) == 1 and len(b.calls) == 1
        assert router.stats()["failovers"] == 1

    def test_busy_node_retried_without_breaker_penalty(self):
        busy = {
            "status": "error",
            "error": {"kind": "overloaded", "message": "queue full"},
        }
        a = FakeClient([busy, busy])
        router = make_router([a])
        tag = tag_for_shard(router, 0)
        response = router.solve(request_for(tag))
        assert response["status"] == "ok"
        assert len(a.calls) == 3
        assert router.stats()["retries"] == 2
        assert router.nodes[0].breaker.stats()["failures"] == 0

    def test_node_fault_kind_trips_breaker(self):
        bad = {
            "status": "error",
            "error": {"kind": "bad_gateway", "message": "chaos"},
        }
        a = FakeClient([bad] * 10)
        b = FakeClient()
        breakers = [
            CircuitBreaker(failure_threshold=2),
            CircuitBreaker(failure_threshold=2),
        ]
        router = make_router([a, b], breakers=breakers)
        tag = tag_for_shard(router, 0)
        assert router.solve(request_for(tag))["status"] == "ok"
        assert breakers[0].stats()["failures"] == 1
        # a second request: one more failure opens node 0's breaker
        assert router.solve(request_for(tag))["status"] == "ok"
        assert breakers[0].state == "open"
        # now node 0 is skipped entirely
        calls_before = len(a.calls)
        assert router.solve(request_for(tag))["status"] == "ok"
        assert len(a.calls) == calls_before

    def test_client_errors_pass_through_untouched(self):
        infeasible = {
            "status": "error",
            "error": {"kind": "infeasible_budget", "message": "too poor"},
        }
        a = FakeClient([infeasible])
        b = FakeClient()
        router = make_router([a, b])
        tag = tag_for_shard(router, 0)
        response = router.solve(request_for(tag))
        assert response["error"]["kind"] == "infeasible_budget"
        assert len(b.calls) == 0  # no failover for the client's own error
        assert router.nodes[0].breaker.stats()["failures"] == 0

    def test_all_breakers_open_sheds_with_hint(self):
        breakers = [CircuitBreaker(failure_threshold=1, reset_timeout=30.0)]
        a = FakeClient()
        router = make_router([a], breakers=breakers, max_retries=0)
        breakers[0].record_failure()
        tag = tag_for_shard(router, 0)
        with pytest.raises(CircuitOpenError) as info:
            router.solve(request_for(tag))
        assert info.value.retry_after is not None
        assert info.value.retry_after <= 30.0
        assert router.stats()["shed"] == 1
        assert a.calls == []

    def test_exhausted_retries_reraise_last_transient(self):
        a = FakeClient([TransientServiceError("down")] * 10)
        router = make_router([a], max_retries=2)
        tag = tag_for_shard(router, 0)
        with pytest.raises(TransientServiceError, match="down"):
            router.solve(request_for(tag))
        assert len(a.calls) == 3  # initial + 2 retries

    def test_solve_batch_isolates_items(self):
        a = FakeClient()
        router = make_router([a])
        tag = tag_for_shard(router, 0)
        responses = router.solve_batch([request_for(tag), {"nope": True}])
        assert responses[0]["status"] == "ok"
        assert responses[1]["status"] == "error"
        assert responses[1]["error"]["kind"] == "bad_request"

    def test_solve_batch_answers_a_non_object_item_bad_request(self):
        a = FakeClient()
        router = make_router([a])
        tag = tag_for_shard(router, 0)
        responses = router.solve_batch([1, request_for(tag)])
        assert responses[0]["status"] == "error"
        assert responses[0]["error"]["kind"] == "bad_request"
        assert "JSON object" in responses[0]["error"]["message"]
        assert responses[1]["status"] == "ok" and len(a.calls) == 1

    def test_solve_batch_hashes_a_shared_problem_once(self, monkeypatch):
        from repro.service import codec
        from repro.service import router as router_module

        hashed = []

        def counting_hash(payload):
            hashed.append(payload)
            return problem_hash(payload)

        monkeypatch.setattr(router_module, "problem_hash", counting_hash)
        a = FakeClient()
        router = make_router([a])
        tag = tag_for_shard(router, 0)
        # byte-identical problem texts parse into one shared object
        body = codec.dumps(
            {"requests": [dict(request_for(tag), budget=float(b)) for b in range(16)]}
        )
        responses = router.solve_batch(codec.loads(body)["requests"])
        assert [r["status"] for r in responses] == ["ok"] * 16
        assert len(hashed) == 1 and len(a.calls) == 16
        assert [call["budget"] for call in a.calls] == [float(b) for b in range(16)]

    def test_solve_batch_requires_a_list(self):
        router = make_router([FakeClient()])
        with pytest.raises(ServiceError, match="array"):
            router.solve_batch({"not": "a list"})


class TestHedging:
    def test_unseen_key_is_not_hedged(self):
        a = FakeClient(delay=0.1)
        b = FakeClient()
        router = make_router([a, b], hedge_delay=0.01)
        tag = tag_for_shard(router, 0)
        assert router.solve(request_for(tag))["status"] == "ok"
        assert router.stats()["hedges"] == 0
        assert len(b.calls) == 0

    def test_seen_key_with_slow_primary_hedges(self):
        a = FakeClient(delay=0.3)
        b = FakeClient()
        router = make_router([a, b], hedge_delay=0.02)
        tag = tag_for_shard(router, 0)
        router.solve(request_for(tag))  # marks the key as seen
        response = router.solve(request_for(tag))
        assert response["status"] == "ok"
        stats = router.stats()
        assert stats["hedges"] == 1
        assert stats["hedge_wins"] == 1
        assert len(b.calls) == 1

    def test_fast_primary_wins_without_hedge(self):
        a = FakeClient()
        b = FakeClient()
        router = make_router([a, b], hedge_delay=0.5)
        tag = tag_for_shard(router, 0)
        router.solve(request_for(tag))
        router.solve(request_for(tag))
        assert router.stats()["hedges"] == 0
        assert len(b.calls) == 0

    def test_hedge_delay_validated(self):
        node = NodeHandle("http://n", client=FakeClient())
        with pytest.raises(ServiceError, match="hedge_delay"):
            ShardRouter([node], hedge_delay=-1.0)


class TestStats:
    def test_router_stats_shape(self):
        router = make_router([FakeClient(), FakeClient()])
        tag = tag_for_shard(router, 0)
        router.solve(request_for(tag))
        stats = router.stats()
        assert stats["routed"] == 1
        assert stats["seen_keys"] == 1
        assert set(stats["nodes"]) == {"http://node-0", "http://node-1"}
        node_stats = stats["nodes"]["http://node-0"]
        assert node_stats["requests"] == 1
        assert node_stats["breaker"]["state"] == "closed"

    def test_aggregated_stats_totals(self):
        router = make_router([FakeClient(), FakeClient()])
        tag = tag_for_shard(router, 0)
        router.solve(request_for(tag))
        aggregated = router.aggregated_stats()
        assert aggregated["totals"]["requests"] == 1
        assert aggregated["totals"]["cache_misses"] == 1
        assert "router" in aggregated and "nodes" in aggregated

    def test_aggregated_stats_survives_dead_node(self):
        class DeadClient(FakeClient):
            def stats(self):
                raise TransientServiceError("unreachable")

        router = make_router([DeadClient()])
        aggregated = router.aggregated_stats()
        assert "error" in aggregated["nodes"]["http://node-0"]

    def test_ready_reflects_breaker_states(self):
        breakers = [CircuitBreaker(failure_threshold=1, reset_timeout=30.0)]
        router = make_router([FakeClient()], breakers=breakers)
        assert router.ready
        breakers[0].record_failure()
        assert not router.ready


class TestBodyStatus:
    @pytest.mark.parametrize(
        "kind,status",
        [
            ("overloaded", 503),
            ("not_ready", 503),
            ("upstream_unavailable", 503),
            ("timeout", 504),
            ("internal", 500),
            ("not_found", 404),
            ("bad_request", 400),
            ("infeasible_budget", 400),
        ],
    )
    def test_error_kinds(self, kind, status):
        body = {"status": "error", "error": {"kind": kind}}
        assert _body_status(body) == status

    def test_ok_is_200(self):
        assert _body_status({"status": "ok"}) == 200


class TestRouterHTTP:
    @pytest.fixture()
    def served(self):
        a, b = FakeClient(), FakeClient()
        router = make_router([a, b])
        server = make_router_server(router)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        url = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            yield url, router, (a, b)
        finally:
            server.shutdown()
            server.server_close()

    def test_healthz_and_readyz(self, served):
        url, _, _ = served
        client = ServiceClient(url)
        assert client.healthz() == {"status": "ok"}
        ready = client._request("/v1/readyz")
        assert ready["ready"] is True

    def test_solve_roundtrip(self, served):
        url, router, _ = served
        client = ServiceClient(url)
        response = client.solve(request_for("anything"))
        assert response["status"] == "ok"
        assert router.stats()["routed"] == 1

    def test_solve_batch_roundtrip(self, served):
        url, _, _ = served
        client = ServiceClient(url)
        body = client.solve_batch([request_for("x"), {"bad": 1}])
        assert body["status"] == "ok"
        assert body["results"][0]["status"] == "ok"
        assert body["results"][1]["status"] == "error"

    def test_stats_endpoint_aggregates(self, served):
        url, _, _ = served
        client = ServiceClient(url)
        client.solve(request_for("y"))
        stats = client.stats()["stats"]
        assert stats["router"]["routed"] == 1
        assert "totals" in stats

    def test_unknown_route_404(self, served):
        url, _, _ = served
        client = ServiceClient(url)
        body = client._request("/v1/nope")
        assert body["error"]["kind"] == "not_found"

    def test_readyz_503_when_all_breakers_open(self):
        breakers = [CircuitBreaker(failure_threshold=1, reset_timeout=30.0)]
        router = make_router([FakeClient()], breakers=breakers)
        breakers[0].record_failure()
        server = make_router_server(router)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServiceClient(
                f"http://127.0.0.1:{server.server_address[1]}"
            )
            body = client._request("/v1/readyz")
            assert body["ready"] is False
            assert body["error"]["kind"] == "not_ready"
        finally:
            server.shutdown()
            server.server_close()
