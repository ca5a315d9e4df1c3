"""The async core over HTTP: coalescing, the shared executor, stats.

The blocking :class:`ServiceClient` talks to the asyncio server; batch
answers are checked against the in-process ``solve_batch``.
"""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.algorithms.critical_greedy import CriticalGreedyScheduler
from repro.core.serialize import problem_to_dict
from repro.service.app import SchedulingService
from repro.service.codec import dumps
from repro.service.http import BackgroundServer, ServiceClient, ServiceServer


@pytest.fixture
def async_served():
    """(service, server, client) around a live node."""
    service = SchedulingService(max_workers=2, queue_size=8, cache_size=32)
    with BackgroundServer(ServiceServer(service)) as server:
        yield service, server, ServiceClient(server.base_url)
    service.close()


@pytest.fixture
def request_payload(example_problem):
    return {"problem": problem_to_dict(example_problem), "budget": 57.0}


class TestRoutes:
    def test_healthz(self, async_served):
        _, _, client = async_served
        assert client.healthz() == {"status": "ok"}

    def test_unknown_route_404(self, async_served):
        _, _, client = async_served
        response = client._request("/v1/nope")
        assert response["status"] == "error"
        assert response["error"]["kind"] == "not_found"

    def test_solve_replay_cache_hit(self, async_served, request_payload):
        _, _, client = async_served
        first = client.solve(request_payload)
        second = client.solve(request_payload)
        assert first["cache_hit"] is False
        assert second["cache_hit"] is True

    def test_missing_budget_is_bad_request(self, async_served, request_payload):
        _, _, client = async_served
        del request_payload["budget"]
        response = client.solve(request_payload)
        assert response["status"] == "error"
        assert response["error"]["kind"] == "bad_request"
        assert "budget" in response["error"]["message"]

    def test_stats_has_aio_section(self, async_served, request_payload):
        _, _, client = async_served
        client.solve(request_payload)
        stats = client.stats()["stats"]
        assert "aio" in stats
        assert stats["aio"]["flights_started"] >= 1
        assert stats["executor"]["done"] >= 1


class TestBatchEndpoint:
    def test_batch_parity_and_dedupe(self, async_served, request_payload):
        _, _, client = async_served
        items = [
            dict(request_payload),
            dict(request_payload),  # duplicate
            dict(request_payload, budget=70.0),
            {"problem": request_payload["problem"]},  # missing budget
        ]
        response = client.solve_batch(items)
        assert response["status"] == "ok"
        results = response["results"]
        assert len(results) == 4
        assert results[1]["deduped"] is True
        assert results[3]["error"]["kind"] == "bad_request"
        with SchedulingService(max_workers=1) as local:
            expected = local.solve_batch([dict(item) for item in items])
        assert dumps(results) == dumps(expected)

    def test_non_array_requests_is_bad_request(self, async_served):
        _, _, client = async_served
        response = client.solve_batch({"not": "a list"})  # type: ignore[arg-type]
        assert response["status"] == "error"
        assert response["error"]["kind"] == "bad_request"
        assert "array" in response["error"]["message"]


class TestCoalescingOverHttp:
    def test_concurrent_duplicates_coalesce_over_http(
        self, async_served, request_payload, monkeypatch
    ):
        _, _, client = async_served
        # The example solves in well under a millisecond; hold the
        # leader's executor job long enough for the duplicates'
        # connections to arrive while its flight is still open.
        solve = CriticalGreedyScheduler.solve

        def slowed(scheduler, problem, budget):
            time.sleep(0.3)
            return solve(scheduler, problem, budget)

        monkeypatch.setattr(CriticalGreedyScheduler, "solve", slowed)

        # ServiceClient opens one connection per request, so six threads
        # put six concurrent duplicates on the wire.
        with ThreadPoolExecutor(max_workers=6) as pool:
            responses = list(
                pool.map(lambda _: client.solve(request_payload), range(6))
            )
        stats = client.stats()["stats"]
        blobs = {dumps(r["result"]) for r in responses}
        assert len(blobs) == 1
        assert stats["aio"]["coalesced"] >= 1
        assert (
            stats["aio"]["flights_started"] + stats["aio"]["coalesced"]
            >= len(responses)
        )


class TestSharedExecutor:
    def test_async_misses_are_jobs_on_the_service_executor(
        self, async_served, request_payload
    ):
        service, _, client = async_served
        budgets = [50.0, 57.0, 64.0]
        for budget in budgets:
            response = client.solve(dict(request_payload, budget=budget))
            assert response["cache_hit"] is False
        records = service.executor.records()
        assert len(records) == len(budgets)
        assert all(r.status == "done" for r in records)
        assert all(r.label == "critical-greedy" for r in records)
        stats = client.stats()["stats"]
        assert stats["executor"]["submitted"] == len(budgets)
        # The async node runs no solver pool of its own.
        names = [thread.name for thread in threading.enumerate()]
        assert not any(name.startswith("repro-aio-solver") for name in names)
