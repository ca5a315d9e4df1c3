"""Live-workflow HTTP endpoints: status codes, error bodies, idempotency.

Mirrors ``test_http.py``'s error-mapping conventions: malformed and
out-of-order event payloads must answer 400/409 with structured error
bodies — never 500 — and retried deliveries must replay idempotently.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.core.serialize import problem_to_dict
from repro.service.app import SchedulingService
from repro.service.codec import dumps
from repro.service.http import HttpPeer, ServiceClient, make_server


@pytest.fixture
def served(tmp_path):
    service = SchedulingService(
        max_workers=2, queue_size=8, cache_size=32, live_dir=tmp_path / "live"
    )
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
def registration(example_problem):
    return {"problem": problem_to_dict(example_problem), "budget": 57.0}


def raw_post(base_url: str, path: str, payload) -> tuple[int, dict]:
    request = urllib.request.Request(
        f"{base_url}{path}",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as reply:
            return reply.status, json.loads(reply.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def raw_get(base_url: str, path: str) -> tuple[int, dict]:
    try:
        with urllib.request.urlopen(f"{base_url}{path}", timeout=30) as reply:
            return reply.status, json.loads(reply.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestLifecycle:
    def test_register_event_status_roundtrip(self, served, registration):
        _, client = served
        body = client.register_workflow(registration)
        assert body["status"] == "ok"
        wid = body["workflow_id"]

        code, event = raw_post(
            client.base_url,
            f"/v1/workflows/{wid}/events",
            {"seq": 1, "type": "topup", "amount": 3.0},
        )
        assert code == 200 and event["revision"] >= 0

        code, status = raw_get(client.base_url, f"/v1/workflows/{wid}")
        assert code == 200
        assert status["last_seq"] == 1
        assert status["total_budget"] == pytest.approx(60.0)
        assert "ledger" in status and "modules" in status

    def test_registration_replay_is_idempotent(self, served, registration):
        _, client = served
        first = client.register_workflow(registration)
        again = client.register_workflow(registration)
        assert again["replayed"] is True
        assert again["workflow_id"] == first["workflow_id"]

    def test_stats_exposes_live_section(self, served, registration):
        _, client = served
        client.register_workflow(registration)
        stats = client.stats()["stats"]
        assert stats["live"]["workflows"] == 1
        assert stats["live"]["registered"] == 1


class TestErrorMapping:
    def test_malformed_registration_is_400(self, served):
        _, client = served
        code, body = raw_post(client.base_url, "/v1/workflows", {"problem": 42})
        assert code == 400
        assert body["status"] == "error"
        assert body["error"]["kind"] == "bad_request"

    def test_unknown_workflow_is_404(self, served):
        _, client = served
        code, body = raw_get(client.base_url, "/v1/workflows/missing")
        assert code == 404
        assert body["error"]["kind"] == "not_found"
        code, body = raw_post(
            client.base_url,
            "/v1/workflows/missing/events",
            {"seq": 1, "type": "topup", "amount": 1.0},
        )
        assert code == 404
        assert body["error"]["kind"] == "not_found"

    def test_malformed_event_is_400(self, served, registration):
        _, client = served
        wid = client.register_workflow(registration)["workflow_id"]
        for payload in (
            {"seq": 0, "type": "topup", "amount": 1.0},
            {"seq": 1, "type": "paused"},
            {"seq": 1, "type": "completed", "module": "w1"},
            {"seq": 1, "type": "topup", "amount": -1.0},
            {"seq": 1, "type": "started", "module": "nope"},
        ):
            code, body = raw_post(
                client.base_url, f"/v1/workflows/{wid}/events", payload
            )
            assert code == 400, payload
            assert body["error"]["kind"] == "bad_request"

    def test_sequence_gap_is_409(self, served, registration):
        _, client = served
        wid = client.register_workflow(registration)["workflow_id"]
        code, body = raw_post(
            client.base_url,
            f"/v1/workflows/{wid}/events",
            {"seq": 7, "type": "topup", "amount": 1.0},
        )
        assert code == 409
        assert body["error"]["kind"] == "conflict"

    def test_divergent_replay_is_409_identical_is_200(
        self, served, registration
    ):
        _, client = served
        wid = client.register_workflow(registration)["workflow_id"]
        payload = {"seq": 1, "type": "topup", "amount": 2.0}
        code, first = raw_post(
            client.base_url, f"/v1/workflows/{wid}/events", payload
        )
        assert code == 200 and first["replayed"] is False

        # Router-style duplicate delivery: identical payload replays.
        code, replay = raw_post(
            client.base_url, f"/v1/workflows/{wid}/events", payload
        )
        assert code == 200 and replay["replayed"] is True
        body = {k: v for k, v in first.items() if k != "replayed"}
        replay_body = {k: v for k, v in replay.items() if k != "replayed"}
        assert dumps(body) == dumps(replay_body)

        # Same seq, different content: divergence, not a retry.
        code, body = raw_post(
            client.base_url,
            f"/v1/workflows/{wid}/events",
            {"seq": 1, "type": "topup", "amount": 9.0},
        )
        assert code == 409
        assert body["error"]["kind"] == "conflict"

    def test_conflicting_registration_is_409(self, served, registration):
        _, client = served
        wid = client.register_workflow(registration)["workflow_id"]
        code, body = raw_post(
            client.base_url,
            "/v1/workflows",
            {**registration, "workflow_id": wid, "budget": 64.0},
        )
        assert code == 409
        assert body["error"]["kind"] == "conflict"

    def test_infeasible_budget_is_400(self, served, registration):
        _, client = served
        code, body = raw_post(
            client.base_url, "/v1/workflows", {**registration, "budget": 0.01}
        )
        assert code == 400
        assert body["error"]["kind"] == "infeasible_budget"

    def test_corrupt_live_log_is_500_internal(
        self, served, registration, tmp_path
    ):
        """Server-side log corruption is a node fault (500/internal the
        router fails over on), never a 400 blamed on the client."""
        _, client = served
        wid = client.register_workflow(registration)["workflow_id"]
        log = tmp_path / "live" / f"{wid}.jsonl"
        log.write_text("garbage\n" + log.read_text())
        code, body = raw_get(client.base_url, f"/v1/workflows/{wid}")
        assert code == 500
        assert body["status"] == "error"
        assert body["error"]["kind"] == "internal"


class TestSync:
    def test_pull_unknown_is_404(self, served):
        _, client = served
        code, body = raw_get(client.base_url, "/v1/workflows/missing/sync")
        assert code == 404
        assert body["error"]["kind"] == "not_found"

    def test_pull_returns_raw_log_records(self, served, registration):
        _, client = served
        wid = client.register_workflow(registration)["workflow_id"]
        raw_post(
            client.base_url,
            f"/v1/workflows/{wid}/events",
            {"seq": 1, "type": "topup", "amount": 1.0},
        )
        code, body = raw_get(client.base_url, f"/v1/workflows/{wid}/sync")
        assert code == 200 and body["status"] == "ok"
        assert body["count"] == 2 and len(body["records"]) == 2
        assert all(isinstance(line, str) for line in body["records"])
        assert json.loads(body["records"][0])["kind"] == "registration"

    def test_push_reset_transplants_the_log(
        self, served, registration, tmp_path
    ):
        _, client = served
        wid = client.register_workflow(registration)["workflow_id"]
        raw_post(
            client.base_url,
            f"/v1/workflows/{wid}/events",
            {"seq": 1, "type": "topup", "amount": 2.0},
        )
        _, exported = raw_get(client.base_url, f"/v1/workflows/{wid}/sync")

        other = SchedulingService(live_dir=tmp_path / "other")
        server = make_server(other)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            code, body = raw_post(
                base,
                f"/v1/workflows/{wid}/sync",
                {"reset": True, "records": exported["records"]},
            )
            assert code == 200 and body["records"] == 2
            _, status = raw_get(base, f"/v1/workflows/{wid}")
            _, original = raw_get(client.base_url, f"/v1/workflows/{wid}")
            assert dumps(status) == dumps(original)
        finally:
            server.shutdown()
            server.server_close()
            other.close()

    def test_malformed_push_is_400(self, served):
        _, client = served
        code, body = raw_post(
            client.base_url, "/v1/workflows/wf/sync", {"records": "nope"}
        )
        assert code == 400
        assert body["error"]["kind"] == "bad_request"

    def test_base_mismatch_push_is_409(self, served, registration):
        _, client = served
        wid = client.register_workflow(registration)["workflow_id"]
        code, body = raw_post(
            client.base_url,
            f"/v1/workflows/{wid}/sync",
            {"base_offset": 9, "records": ['{"kind":"fence","epoch":2}']},
        )
        assert code == 409
        assert body["error"]["kind"] == "conflict"

    def test_two_nodes_replicate_write_through(self, registration, tmp_path):
        """End-to-end federation over real HTTP: every write on B lands
        on A via HttpPeer push, and A serves the identical status."""
        node_a = SchedulingService(live_dir=tmp_path / "a")
        server_a = make_server(node_a)
        thread_a = threading.Thread(
            target=server_a.serve_forever, daemon=True
        )
        thread_a.start()
        url_a = f"http://127.0.0.1:{server_a.server_address[1]}"

        node_b = SchedulingService(
            live_dir=tmp_path / "b",
            live_node="b",
            live_peers=[HttpPeer(url_a)],
        )
        server_b = make_server(node_b)
        thread_b = threading.Thread(
            target=server_b.serve_forever, daemon=True
        )
        thread_b.start()
        url_b = f"http://127.0.0.1:{server_b.server_address[1]}"
        try:
            code, reg = raw_post(url_b, "/v1/workflows", registration)
            assert code == 200
            wid = reg["workflow_id"]
            for seq in (1, 2):
                code, _ = raw_post(
                    url_b,
                    f"/v1/workflows/{wid}/events",
                    {"seq": seq, "type": "topup", "amount": 1.0},
                )
                assert code == 200
            assert (tmp_path / "a" / f"{wid}.jsonl").read_bytes() == (
                tmp_path / "b" / f"{wid}.jsonl"
            ).read_bytes()
            _, from_a = raw_get(url_a, f"/v1/workflows/{wid}")
            _, from_b = raw_get(url_b, f"/v1/workflows/{wid}")
            assert dumps(from_a) == dumps(from_b)
            _, stats = raw_get(url_b, "/v1/stats")
            live = stats["stats"]["live"]
            assert live["peers"] == 1 and live["pushes"] == 3
            assert live["replication_lag"] == 0
        finally:
            for server, service in (
                (server_b, node_b),
                (server_a, node_a),
            ):
                server.shutdown()
                server.server_close()
                service.close()

    def test_stats_exposes_federation_health(self, served, registration):
        _, client = served
        client.register_workflow(registration)
        live = client.stats()["stats"]["live"]
        for key in (
            "fenced",
            "epoch_claims",
            "max_epoch",
            "last_checkpoint_seq",
            "checkpoints",
            "compactions",
            "pulls",
            "quarantined",
            "replication_lag",
            "peers",
        ):
            assert key in live, key


class TestDraining:
    def test_draining_rejects_writes_allows_status(self, served, registration):
        service, client = served
        wid = client.register_workflow(registration)["workflow_id"]
        service.drain()
        code, body = raw_post(
            client.base_url,
            f"/v1/workflows/{wid}/events",
            {"seq": 1, "type": "topup", "amount": 1.0},
        )
        assert code == 503
        assert body["error"]["kind"] == "overloaded"
        code, body = raw_post(client.base_url, "/v1/workflows", registration)
        assert code == 503
        # Reads keep working so operators can inspect a draining node.
        code, status = raw_get(client.base_url, f"/v1/workflows/{wid}")
        assert code == 200 and status["workflow_id"] == wid
