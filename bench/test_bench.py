"""Self-tests of the benchmark harness (about 30 s).

    PYTHONPATH=src python -m pytest bench -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import loadgen  # noqa: E402
import workloads  # noqa: E402
from loadgen import Request, Sample  # noqa: E402
from repro.service.app import SchedulingService  # noqa: E402
from repro.service.codec import dumps  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def quick_run() -> tuple[str, dict]:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--quick", "--trace", "1", "--seed", "7"],
        cwd=BENCH.parent,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode == 0, done.stderr[-4000:]
    lines = done.stdout.strip().splitlines()
    return done.stdout, json.loads(lines[-1])


def test_every_benchmark_metric_is_printed_with_its_unit(quick_run: tuple[str, dict]) -> None:
    stdout, result = quick_run
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for spec_workload in SPEC["workloads"]:
        name = spec_workload["name"]
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            line = rf"^\s+{re.escape(name)}\s+{re.escape(metric['name'])}\s+-?[\d.]+\s+{re.escape(metric['unit'])}\s+n=\d+"
            assert re.search(line, stdout, re.MULTILINE), f"{name} {metric['name']} [{metric['unit']}] not printed"
            if metric in SPEC["per_layer"]:
                assert result["metrics"][f"{name}.{metric['name']}"]["unit"] == metric["unit"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0


def _served_cold_outcome(workload: workloads.ColdSolve) -> workloads.Outcome:
    """A fake timed pass whose replies are real in-process answers."""
    samples = []
    with SchedulingService(max_workers=1) as service:
        for item in workload.plan[:4]:
            request = workload.request(item)
            answer = service.solve(json.loads(request.body))
            samples.append(Sample(item, len(request.body), 0.0, 0.0, 0.01, 200, dumps(answer).encode()))
    return workloads.Outcome(samples, [0.01] * len(samples), len(samples), 0.04)


def test_corrupted_reference_trips_the_gate(monkeypatch: pytest.MonkeyPatch) -> None:
    workload = workloads.ColdSolve(3, 0.01, workloads.QUICK_SIZE)
    outcome = _served_cold_outcome(workload)
    assert workload.check(0, [], outcome) == []

    honest = workloads.reference_result

    def corrupted(service, payload):
        result = dict(honest(service, payload))
        result["makespan"] = result["makespan"] * (1 + 1e-12)
        return result

    monkeypatch.setattr(workloads, "reference_result", corrupted)
    failures = workload.check(0, [], outcome)
    assert len(failures) == len(outcome.samples)
    assert all("differs from in-process solve" in f for f in failures)


STALL = 0.5


class _StallOnceHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    stalled = threading.Event()

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self.rfile.read(int(self.headers["Content-Length"]))
        if not self.stalled.is_set():
            self.stalled.set()
            time.sleep(STALL)
        self.send_response(200)
        self.send_header("Content-Length", "2")
        self.end_headers()
        self.wfile.write(b"{}")

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        pass


def test_open_loop_latency_counts_a_stall_for_requests_queued_behind_it() -> None:
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StallOnceHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        gap = 0.05
        lane = [Request("POST", "/", b"{}", due=k * gap, tag=k) for k in range(8)]
        samples, _ = loadgen.open_loop(server.server_address[1], [lane])
    finally:
        server.shutdown()
        server.server_close()
        thread.join(5)
    assert not thread.is_alive()
    by_tag = {s.tag: s for s in samples}
    assert sorted(by_tag) == list(range(8)) and all(s.ok for s in samples)
    assert by_tag[0].latency >= STALL
    for k in range(1, 8):
        # Queued behind the stall: latency runs from the due time, so it
        # includes the wait, although the server answered it at once.
        assert by_tag[k].latency >= STALL - k * gap - 0.02
        assert by_tag[k].service_time < 0.1


def test_times_are_scaled_by_the_probe_bursts_of_their_own_interval() -> None:
    import run

    ref = run.REFERENCE_BURST_S
    bursts = [(10, 2 * ref), (20, 2 * ref), (30, ref), (40, ref)]
    assert run.slowdown(bursts, 5, 25) == (2.0, 2)
    assert run.slowdown(bursts, 100, 200) == (1.5, 4)  # none inside: the whole pass


def test_run_length_other_than_run_seconds_is_refused() -> None:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "cold-solve", "--seconds", str(SPEC["run_seconds"] + 1)],
        cwd=BENCH.parent,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 2 and done.stdout == ""
    assert "run_seconds" in done.stderr
