"""Server lifecycle and open-/closed-loop HTTP load loops for the benchmark.

Nothing here imports ``repro``: the load path is stdlib ``http.client``,
plain bytes and at most two client threads.  Each request opens its own
connection, as the repo's own clients do (``ServiceClient`` and ``repro
submit`` go through ``urllib``), so at most two connections are open at
once.  A failed request is recorded (status 0 for a transport error) and
never retried.
"""

from __future__ import annotations

import http.client
import os
import re
import select
import signal
import subprocess
import sys
import threading
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass

HOST = "127.0.0.1"
_LISTEN_RE = re.compile(r"listening on http://[^:]+:(\d+)")


@dataclass(frozen=True)
class Request:
    """One planned request; ``due`` is seconds after the loop starts (open loop)."""

    method: str
    path: str
    body: bytes | None = None
    due: float = 0.0
    #: What the request stands for (workload-defined, e.g. a key index).
    tag: object = None


@dataclass
class Sample:
    """The client's record of one request (``perf_counter`` seconds)."""

    tag: object
    request_bytes: int
    due: float
    sent: float
    done: float
    status: int
    body: bytes

    @property
    def latency(self) -> float:
        """Seconds from when the request was due (open) or sent (closed) to its reply."""
        return self.done - self.due

    @property
    def service_time(self) -> float:
        return self.done - self.sent

    @property
    def ok(self) -> bool:
        return self.status == 200


def send(port: int, request: Request, due: float | None = None, timeout: float = 60.0) -> Sample:
    """One request on its own connection; ``due`` defaults to the send time."""
    headers = {"Content-Type": "application/json"} if request.body is not None else {}
    conn = http.client.HTTPConnection(HOST, port, timeout=timeout)
    sent = time.perf_counter()
    try:
        conn.request(request.method, request.path, body=request.body, headers=headers)
        reply = conn.getresponse()
        data, status = reply.read(), reply.status
    except (OSError, http.client.HTTPException):
        data, status = b"", 0
    finally:
        conn.close()
    done = time.perf_counter()
    return Sample(request.tag, len(request.body or b""), sent if due is None else due, sent, done, status, data)


def run_workers(workers: Sequence[Callable[[], None]], timeout: float = 600.0) -> None:
    """Run ``workers[0]`` on this thread and the rest on one thread each."""
    errors: list[BaseException] = []

    def guarded(worker: Callable[[], None]) -> None:
        try:
            worker()
        except BaseException as exc:  # re-raised on the calling thread below
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(w,), daemon=True) for w in workers[1:]]
    for thread in threads:
        thread.start()
    guarded(workers[0])
    for thread in threads:
        thread.join(timeout)
        if thread.is_alive():
            raise RuntimeError("a load thread did not finish in time")
    if errors:
        raise errors[0]


def _lane_workers(
    lanes: Sequence[Sequence[Request]], per_lane: int, step: Callable[[Request], bool]
) -> list[Callable[[], None]]:
    """``per_lane`` workers per lane, each taking the lane's next request until ``step`` says stop."""
    workers = []
    for lane in lanes:
        cursor, lock = [0], threading.Lock()

        def work(lane: Sequence[Request] = lane, cursor: list[int] = cursor, lock: threading.Lock = lock) -> None:
            while True:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= len(lane) or not step(lane[index]):
                    return

        workers.extend([work] * per_lane)
    return workers


def open_loop(
    port: int, lanes: Sequence[Sequence[Request]], per_lane: int = 1
) -> tuple[list[Sample], float]:
    """Send every request at its due time, whatever the server's state.

    Each lane is an ordered list served by ``per_lane`` client threads: a
    free thread takes the lane's next request, waits for its due time if it
    is early and sends it at once if it is late.  Latency is measured from
    the due time, so a stall also counts against every request queued
    behind it.  Returns the samples and the wall time from the schedule's
    start to the last reply.
    """
    samples: list[Sample] = []
    start = time.perf_counter() + 0.05

    def step(request: Request) -> bool:
        due = start + request.due
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        samples.append(send(port, request, due))
        return True

    run_workers(_lane_workers(lanes, per_lane, step))
    return samples, max((s.done for s in samples), default=start) - start


def closed_loop(
    port: int, plan: Sequence[Request], clients: int, seconds: float
) -> tuple[list[Sample], float]:
    """Each of ``clients`` threads sends the plan's next request when its last one returns.

    Stops taking new requests after ``seconds`` (or when the plan runs
    out) and returns the samples plus the wall time until the last reply.
    """
    samples: list[Sample] = []
    start = time.perf_counter()
    deadline = start + seconds

    def step(request: Request) -> bool:
        if time.perf_counter() >= deadline:
            return False
        samples.append(send(port, request))
        return True

    run_workers(_lane_workers([plan], clients, step))
    return samples, max((s.done for s in samples), default=start) - start


class Server:
    """A ``repro serve`` subprocess: launch, wait until ready, stop."""

    def __init__(self, argv: Sequence[str], *, env: dict[str, str], cwd: str) -> None:
        self.proc = subprocess.Popen(
            list(argv), stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True, env=env, cwd=cwd
        )
        self.port = 0

    def wait_ready(self, timeout: float = 60.0) -> None:
        """Read the bound port from the banner, then poll ``/v1/readyz`` for 200."""
        deadline = time.perf_counter() + timeout
        stdout = self.proc.stdout
        if stdout is None:
            raise RuntimeError("server stdout is not captured")
        while not self.port:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with code {self.proc.returncode} before listening")
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise RuntimeError("server did not print its listening banner in time")
            readable, _, _ = select.select([stdout], [], [], remaining)
            if readable:
                match = _LISTEN_RE.search(stdout.readline())
                if match:
                    self.port = int(match.group(1))
        while send(self.port, Request("GET", "/v1/readyz"), timeout=5.0).status != 200:
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError("server never answered /v1/readyz with 200")
            time.sleep(0.01)

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (``VmHWM``) in MiB."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not found in /proc status")

    def stop(self, timeout: float = 60.0) -> int:
        """SIGTERM (graceful drain), then SIGKILL if it does not exit in time."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        return self.proc.returncode


class Probe:
    """A ``probe.py`` subprocess timing a fixed burst while a pass runs."""

    def __init__(self, script: str, out: str) -> None:
        self.out = out
        open(out, "w").close()
        self.proc = subprocess.Popen([sys.executable, script, out], stdin=subprocess.DEVNULL)

    def stop(self) -> list[tuple[int, float]]:
        """Terminate it; every burst as ``(monotonic ns at its end, thread CPU seconds)``."""
        self.proc.terminate()
        self.proc.wait()
        with open(self.out, encoding="ascii") as lines:
            rows = [line.split() for line in lines]
        return [(int(row[0]), float(row[2])) for row in rows if len(row) == 3]


def server_env(src_dir: str) -> dict[str, str]:
    """The environment for a server subprocess: ``src`` first on ``PYTHONPATH``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src_dir, env.get("PYTHONPATH")) if p)
    return env
