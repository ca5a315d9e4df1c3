"""HTTP front-end tests against an in-process threaded server."""

import http.client
import json
import statistics
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.core.serialize import problem_to_dict
from repro.service.app import SchedulingService
from repro.service.codec import dumps
from repro.service.executor import JobExecutor
from repro.service.http import ServiceClient, make_server


@pytest.fixture
def served():
    """(service, client) around a live in-process HTTP server."""
    service = SchedulingService(max_workers=2, queue_size=8, cache_size=32)
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient(f"http://127.0.0.1:{server.server_address[1]}")
    try:
        yield service, client
    finally:
        server.shutdown()
        server.server_close()
        service.close()


@pytest.fixture
def request_payload(example_problem):
    return {"problem": problem_to_dict(example_problem), "budget": 57.0}


class TestRoutes:
    def test_healthz(self, served):
        _, client = served
        assert client.healthz() == {"status": "ok"}

    def test_unknown_route_404(self, served):
        _, client = served
        response = client._request("/v1/nope")
        assert response["status"] == "error"
        assert response["error"]["kind"] == "not_found"

    def test_solve_then_replay_byte_identical(self, served, request_payload):
        _, client = served
        first = client.solve(request_payload)
        assert first["status"] == "ok" and first["cache_hit"] is False

        permuted = json.loads(json.dumps(request_payload))
        permuted["problem"]["workflow"]["modules"].reverse()
        permuted["problem"]["workflow"]["edges"].reverse()
        permuted["problem"]["catalog"].reverse()
        second = client.solve(permuted)
        assert second["cache_hit"] is True
        assert dumps(first["result"]["schedule"]) == dumps(
            second["result"]["schedule"]
        )

    def test_solve_batch(self, served, request_payload):
        _, client = served
        bad = {"budget": 1.0}
        response = client.solve_batch([request_payload, bad])
        assert response["status"] == "ok"
        ok, err = response["results"]
        assert ok["status"] == "ok"
        assert err["status"] == "error"
        assert err["error"]["kind"] == "bad_request"

    def test_stats_reports_hits_and_misses(self, served, request_payload):
        _, client = served
        client.solve(request_payload)
        client.solve(request_payload)
        stats = client.stats()["stats"]
        assert stats["cache"]["hits"] >= 1
        assert stats["cache"]["misses"] >= 1

    def test_malformed_body_is_400(self, served):
        _, client = served
        url = f"{client.base_url}/v1/solve"
        request = urllib.request.Request(
            url, data=b"{not json", headers={"Content-Type": "application/json"}
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=10)
        assert info.value.code == 400
        body = json.loads(info.value.read())
        assert body["error"]["kind"] == "bad_request"

    def test_infeasible_budget_is_400(self, served, request_payload):
        _, client = served
        response = client.solve(dict(request_payload, budget=0.01))
        assert response["status"] == "error"
        assert response["error"]["kind"] == "infeasible_budget"

    def test_kept_alive_replies_do_not_wait_for_delayed_ack(self, served):
        # Without TCP_NODELAY each reply's body waits ~40 ms for the
        # client's delayed ACK of the headers.
        _, client = served
        port = urllib.parse.urlsplit(client.base_url).port
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        round_trips = []
        try:
            for _ in range(15):
                start = time.perf_counter()
                conn.request("GET", "/v1/healthz")
                reply = conn.getresponse()
                assert json.loads(reply.read()) == {"status": "ok"}
                round_trips.append(time.perf_counter() - start)
        finally:
            conn.close()
        assert statistics.median(round_trips) < 0.020


class TestOverload:
    def test_queue_exceeding_request_is_503(self, example_problem):
        """Third concurrent request against workers=1/queue=1 gets HTTP 503."""
        service = SchedulingService(max_workers=1, queue_size=1, cache_size=32)
        release = threading.Event()
        started = threading.Event()
        inner = service._solve_job

        def gated(parsed):
            started.set()
            release.wait(15)
            return inner(parsed)

        service.executor.shutdown()
        service.executor = JobExecutor(gated, max_workers=1, queue_size=1)
        server = make_server(service)
        serve_thread = threading.Thread(target=server.serve_forever, daemon=True)
        serve_thread.start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        client = ServiceClient(base, timeout=30.0)

        def post_async(budget):
            payload = {"problem": problem_to_dict(example_problem), "budget": budget}
            thread = threading.Thread(
                target=client.solve, args=(payload,), daemon=True
            )
            thread.start()
            return thread

        try:
            blockers = [post_async(57.0)]
            assert started.wait(10), "worker never picked up the first job"
            blockers.append(post_async(58.0))
            deadline = threading.Event()
            for _ in range(500):  # wait until the second job occupies the queue
                if service.executor.stats()["submitted"] >= 2:
                    break
                deadline.wait(0.01)
            assert service.executor.stats()["submitted"] >= 2

            overflow = {"problem": problem_to_dict(example_problem), "budget": 59.0}
            request = urllib.request.Request(
                f"{base}/v1/solve",
                data=dumps(overflow).encode(),
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as info:
                urllib.request.urlopen(request, timeout=10)
            assert info.value.code == 503
            assert info.value.headers.get("Retry-After") == "1"
            body = json.loads(info.value.read())
            assert body["error"]["kind"] == "overloaded"
            assert body["error"]["type"] == "ServiceOverloadedError"
        finally:
            release.set()
            for thread in blockers:
                thread.join(timeout=15)
            server.shutdown()
            server.server_close()
            service.close()


class TestTimeout:
    def test_slow_job_is_504(self, example_problem):
        service = SchedulingService(max_workers=1, queue_size=4, cache_size=32)
        release = threading.Event()
        inner = service._solve_job

        def gated(parsed):
            release.wait(15)
            return inner(parsed)

        service.executor.shutdown()
        service.executor = JobExecutor(gated, max_workers=1, queue_size=4)
        server = make_server(service)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            payload = {
                "problem": problem_to_dict(example_problem),
                "budget": 57.0,
                "timeout": 0.05,
            }
            request = urllib.request.Request(
                f"{base}/v1/solve",
                data=dumps(payload).encode(),
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as info:
                urllib.request.urlopen(request, timeout=10)
            assert info.value.code == 504
            body = json.loads(info.value.read())
            assert body["error"]["kind"] == "timeout"
        finally:
            release.set()
            server.shutdown()
            server.server_close()
            service.close()
