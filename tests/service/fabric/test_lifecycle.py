"""Health/lifecycle tests: readiness split, graceful drain, degraded
fallback on deadline overrun, SIGTERM handling, crash-safe cache startup."""

from __future__ import annotations

import json
import re
import signal
import subprocess
import sys
import time
from contextlib import contextmanager

import pytest

from repro.core.serialize import problem_to_dict
from repro.exceptions import ServiceOverloadedError
from repro.service.app import SchedulingService
from repro.service.http import BackgroundServer, ServiceClient, ServiceServer
from repro.workloads import example_problem

REQUEST = {"problem": problem_to_dict(example_problem()), "budget": 57.0}


@contextmanager
def running_service(**kwargs):
    service = SchedulingService(**kwargs)
    try:
        with BackgroundServer(ServiceServer(service)) as server:
            yield server.base_url, service
    finally:
        service.drain()


class TestReadiness:
    def test_live_service_is_ready(self):
        with running_service() as (url, service):
            client = ServiceClient(url)
            assert client.healthz() == {"status": "ok"}
            body = client._request("/v1/readyz")
            assert body["ready"] is True
            assert service.ready

    def test_draining_service_fails_readiness_but_stays_live(self):
        with running_service() as (url, service):
            service.drain()
            client = ServiceClient(url)
            # liveness unchanged: the process is up
            assert client.healthz() == {"status": "ok"}
            body = client._request("/v1/readyz")
            assert body["ready"] is False
            assert body["error"]["kind"] == "not_ready"

    def test_stats_reports_ready_flag(self):
        with running_service() as (url, service):
            client = ServiceClient(url)
            assert client.stats()["stats"]["ready"] is True
            service.drain()
            assert client.stats()["stats"]["ready"] is False


class TestGracefulDrain:
    def test_drain_rejects_new_work_with_503(self):
        with running_service() as (url, service):
            client = ServiceClient(url)
            assert client.solve(dict(REQUEST))["status"] == "ok"
            service.drain()
            body = client.solve(dict(REQUEST))
            assert body["status"] == "error"
            assert body["error"]["kind"] == "overloaded"
            assert "draining" in body["error"]["message"]

    def test_drain_is_idempotent(self):
        service = SchedulingService()
        service.drain()
        service.drain()
        assert not service.ready

    def test_drain_flushes_disk_cache(self, tmp_path):
        with running_service(cache_dir=tmp_path) as (url, service):
            client = ServiceClient(url)
            assert client.solve(dict(REQUEST))["status"] == "ok"
            # simulate a lost disk write, then drain: flush restores it
            for entry in tmp_path.glob("*.json"):
                entry.unlink()
            service.drain()
            assert list(tmp_path.glob("*.json")), "drain did not flush the cache"

    def test_direct_submit_after_drain_raises_typed_error(self):
        service = SchedulingService()
        service.drain()
        with pytest.raises(ServiceOverloadedError, match="draining"):
            service.solve(dict(REQUEST))


def _slow_jobs(service, delay: float = 0.5) -> None:
    """Make every executor job sleep before solving (deterministic timeouts)."""
    original = service.executor._fn

    def slowed(parsed):
        time.sleep(delay)
        return original(parsed)

    service.executor._fn = slowed


class TestDegradedFallback:
    def test_timeout_degrades_instead_of_504(self):
        with running_service(degrade_on_timeout=True) as (url, service):
            _slow_jobs(service)
            client = ServiceClient(url)
            request = dict(REQUEST, timeout=0.05)
            response = client.solve(request)
            assert response["status"] == "ok"
            assert response["degraded"] is True
            result = response["result"]
            assert result["degraded"] is True
            assert result["engine"] == "degraded"
            assert "degraded_reason" in result
            # the fallback is the least-cost schedule: within budget
            assert result["cost"] <= REQUEST["budget"] + 1e-9
            assert service.stats()["degraded"] == 1

    def test_degraded_responses_are_not_cached(self):
        with running_service(degrade_on_timeout=True) as (url, service):
            _slow_jobs(service)
            client = ServiceClient(url)
            request = dict(REQUEST, timeout=0.05)
            first = client.solve(request)
            second = client.solve(request)
            assert first["degraded"] and second["degraded"]
            assert second["cache_hit"] is False
            assert service.stats()["degraded"] == 2
            # an unconstrained request still computes the real schedule fresh
            real = client.solve(dict(REQUEST))
            assert real["status"] == "ok"
            assert "degraded" not in real["result"]
            assert real["cache_hit"] is False

    def test_without_flag_timeout_stays_an_error(self):
        with running_service() as (url, service):
            _slow_jobs(service)
            client = ServiceClient(url)
            body = client.solve(dict(REQUEST, timeout=0.05))
            assert body["status"] == "error"
            assert body["error"]["kind"] == "timeout"


class TestQuarantineStartup:
    def test_corrupt_entries_quarantined_on_startup(self, tmp_path):
        (tmp_path / "deadbeef.json").write_text("{torn write")
        (tmp_path / "cafebabe.json").write_text('["not", "a", "dict"]')
        with running_service(cache_dir=tmp_path) as (url, service):
            client = ServiceClient(url)
            stats = client.stats()["stats"]["cache"]
            assert stats["quarantined"] == 2
            quarantined = sorted(
                p.name for p in (tmp_path / "quarantine").iterdir()
            )
            assert quarantined == ["cafebabe.json", "deadbeef.json"]
            # the service still works
            assert client.solve(dict(REQUEST))["status"] == "ok"


_LISTEN_RE = re.compile(r"listening on http://([\w.\-]+):(\d+)")


class TestSigterm:
    def test_sigterm_drains_cleanly(self, tmp_path):
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--port",
                "0",
                "--cache-dir",
                str(tmp_path),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            assert proc.stdout is not None
            line = proc.stdout.readline()
            match = _LISTEN_RE.search(line)
            assert match, f"no listen line: {line!r}"
            url = f"http://127.0.0.1:{match.group(2)}"
            client = ServiceClient(url)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                try:
                    client.healthz()
                    break
                except Exception:
                    time.sleep(0.1)
            assert client.solve(dict(REQUEST))["status"] == "ok"
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30)
            assert proc.returncode == 0
            assert "drained cleanly" in out
            # the solved entry survived on disk through the drain flush
            entries = [
                json.loads(p.read_text()) for p in tmp_path.glob("*.json")
            ]
            assert entries, "no cache entry persisted before exit"
        finally:
            if proc.poll() is None:
                proc.kill()
