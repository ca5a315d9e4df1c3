"""Closed-loop HTTP throughput: threaded server vs the async core.

``python benchmarks/bench_service.py [--scale paper|smoke]
[--concurrency 4,12,24] [--gate-speedup S] [--gate-mix duplicate|sweep]
[--out PATH]`` — the JSON emitter behind ``BENCH_service.json``.

For each (mix, concurrency) cell it boots a *fresh* threaded server and
a fresh async server (``repro serve --async``) around identical
:class:`SchedulingService` knobs, drives the same request list through
``C`` closed-loop client threads (plain :class:`ServiceClient` — the
wire protocol is shared), and reports requests/second plus the
async/threaded speedup.  Two traffic mixes bracket the design space:

* ``duplicate`` — every round sends the *same* budget from all ``C``
  clients at once (fresh budget per round, so the result cache never
  pre-empts the race).  This is the single-flight coalescer's case: the
  async core runs one solve per round where the threaded server runs up
  to ``C``.
* ``sweep`` — every request carries a distinct budget on one workflow.
  No request coalesces; every miss is its own solve on a shared decoded
  problem, which may replay the trace memoized by a larger budget.

Before timing, one budget is solved on both servers and the response
``result`` blobs must be byte-identical (``--check`` semantics are
always on — a perf number for a wrong answer is meaningless).

``--gate-speedup S`` fails the run unless the best async/threaded ratio
across the measured concurrency levels reaches ``S`` for ``--gate-mix``;
CI gates 1.0 (never-regress) on the duplicate mix at smoke scale, while
the committed paper-scale JSON records the acceptance numbers (>=2x
duplicate-heavy, >=1.5x sweep-heavy).
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import threading
import time
from pathlib import Path

from bench_fastpath import PAPER_SCALE, SEED, _make_problem
from bench_meta import stamp_metadata

from repro.core.serialize import problem_to_dict
from repro.service.aio.http import BackgroundAsyncServer
from repro.service.app import SchedulingService
from repro.service.codec import dumps
from repro.service.http import ServiceClient, make_server
from repro.service.resilience import RetryPolicy

SMOKE_SCALE = (60, 400, 8)
SCALES = {"paper": PAPER_SCALE, "smoke": SMOKE_SCALE}
DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_service.json"

#: Service knobs shared by both servers (fresh instances per cell).
WORKERS = 4
QUEUE = 64
CACHE = 4096

#: Closed-loop rounds per cell; total requests = rounds * concurrency.
ROUNDS = 8


def _budget_grid(problem, count: int) -> list[float]:
    """``count`` distinct feasible budgets spread over the feasible band."""
    lo, hi = problem.cmin, problem.cmax
    if count == 1:
        return [0.5 * (lo + hi)]
    step = (hi - lo) / (count + 1)
    return [lo + step * (i + 1) for i in range(count)]


def _requests_for(mix: str, payload: dict, budgets: list[float], c: int) -> list[dict]:
    """The request list one cell drives; ``len == ROUNDS * c``."""
    requests: list[dict] = []
    if mix == "duplicate":
        # One fresh budget per round, repeated across every client slot:
        # all C copies race as concurrent cache misses.
        for budget in budgets[:ROUNDS]:
            requests.extend({"problem": payload, "budget": budget} for _ in range(c))
    else:
        for budget in budgets[: ROUNDS * c]:
            requests.append({"problem": payload, "budget": budget})
    return requests


class _ThreadedServer:
    """Threaded baseline with the BackgroundAsyncServer lifecycle shape."""

    def __init__(self, service: SchedulingService) -> None:
        self.service = service
        self._httpd = make_server(service)
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, daemon=True
        )
        self._thread.start()
        self.base_url = f"http://127.0.0.1:{self._httpd.server_address[1]}"

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()


def _boot(kind: str) -> tuple[object, str, SchedulingService]:
    service = SchedulingService(
        max_workers=WORKERS, queue_size=QUEUE, cache_size=CACHE
    )
    if kind == "threaded":
        server = _ThreadedServer(service)
        return server, server.base_url, service
    server = BackgroundAsyncServer(service, max_workers=WORKERS, queue_size=QUEUE)
    return server, server.base_url, service


def _drive(base_url: str, requests: list[dict], c: int) -> tuple[float, int]:
    """Closed loop: C clients drain the shared list; returns (wall_s, errors)."""
    cursor = {"next": 0}
    cursor_lock = threading.Lock()
    errors = [0] * c
    barrier = threading.Barrier(c + 1)

    def worker(slot: int) -> None:
        # Transport-level retry only: a connection reset under a c=24
        # accept burst is measurement noise, not a benchmark outcome.
        client = ServiceClient(
            base_url, retry=RetryPolicy(max_retries=3, base_delay=0.02)
        )
        barrier.wait(30)
        while True:
            with cursor_lock:
                index = cursor["next"]
                if index >= len(requests):
                    return
                cursor["next"] = index + 1
            response = client.solve(requests[index])
            if response.get("status") != "ok":
                errors[slot] += 1

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(c)]
    for thread in threads:
        thread.start()
    barrier.wait(30)
    start = time.perf_counter()
    for thread in threads:
        thread.join(600)
    return time.perf_counter() - start, sum(errors)


def _assert_parity(payload: dict, budget: float) -> None:
    """Same budget through both stacks must yield byte-identical results."""
    request = {"problem": payload, "budget": budget}
    blobs = {}
    for kind in ("threaded", "async"):
        server, base_url, service = _boot(kind)
        try:
            response = ServiceClient(base_url).solve(request)
            if response.get("status") != "ok":
                raise AssertionError(f"{kind}: parity solve failed: {response}")
            blobs[kind] = dumps(response["result"])
        finally:
            server.stop()  # type: ignore[attr-defined]
            service.close()
    if blobs["threaded"] != blobs["async"]:
        raise AssertionError("async result diverges from threaded result")


def run_cell(kind: str, mix: str, payload: dict, budgets: list[float], c: int) -> dict:
    server, base_url, service = _boot(kind)
    try:
        requests = _requests_for(mix, payload, budgets, c)
        gc.collect()
        wall_s, errors = _drive(base_url, requests, c)
        if errors:
            raise AssertionError(f"{kind}/{mix}/c={c}: {errors} failed requests")
        stats = service.stats()
        cell = {
            "requests": len(requests),
            "wall_s": wall_s,
            "throughput_rps": len(requests) / wall_s,
        }
        if kind == "async":
            core = server.core  # type: ignore[attr-defined]
            cell["coalesced"] = core.stats()["aio"]["coalesced"]
        else:
            cell["cache_hits"] = stats["cache"]["hits"]
        return cell
    finally:
        server.stop()  # type: ignore[attr-defined]
        service.close()


def run_scale(name: str, concurrency: list[int]) -> dict:
    size = SCALES[name]
    problem = _make_problem(size)
    payload = problem_to_dict(problem)
    budgets = _budget_grid(problem, ROUNDS * max(concurrency))
    _assert_parity(payload, budgets[0])

    out: dict = {"size": list(size), "mixes": {}}
    for mix in ("duplicate", "sweep"):
        levels = {}
        for c in concurrency:
            threaded = run_cell("threaded", mix, payload, budgets, c)
            asynchronous = run_cell("async", mix, payload, budgets, c)
            speedup = (
                asynchronous["throughput_rps"] / threaded["throughput_rps"]
            )
            levels[str(c)] = {
                "threaded": threaded,
                "async": asynchronous,
                "speedup": speedup,
            }
            print(
                f"[bench_service]   {mix} c={c}: "
                f"threaded {threaded['throughput_rps']:.1f} rps vs "
                f"async {asynchronous['throughput_rps']:.1f} rps "
                f"({speedup:.2f}x)",
                flush=True,
            )
        levels_list = [levels[str(c)]["speedup"] for c in concurrency]
        out["mixes"][mix] = {
            "concurrency": levels,
            "best_speedup": max(levels_list),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=list(SCALES), default="paper")
    parser.add_argument(
        "--concurrency",
        default="4,12,24",
        help="comma-separated closed-loop client counts (default 4,12,24)",
    )
    parser.add_argument(
        "--gate-speedup",
        type=float,
        default=None,
        metavar="S",
        help="fail unless the best async/threaded ratio on --gate-mix "
        "reaches S (CI uses 1.0 on the duplicate mix at smoke scale)",
    )
    parser.add_argument(
        "--gate-mix", choices=["duplicate", "sweep"], default="duplicate"
    )
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)

    concurrency = [int(part) for part in args.concurrency.split(",") if part]
    payload = {
        **stamp_metadata("benchmarks/bench_service.py"),
        "seed": SEED,
        "rounds": ROUNDS,
        "service": {
            "max_workers": WORKERS,
            "queue_size": QUEUE,
            "cache_size": CACHE,
        },
        "scales": {},
    }
    print(f"[bench_service] scale={args.scale} ...", flush=True)
    try:
        payload["scales"][args.scale] = run_scale(args.scale, concurrency)
    except AssertionError as exc:
        print(f"[bench_service] FAILED: {exc}", file=sys.stderr)
        return 1

    args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"[bench_service] wrote {args.out}", flush=True)

    if args.gate_speedup is not None:
        best = payload["scales"][args.scale]["mixes"][args.gate_mix][
            "best_speedup"
        ]
        if best < args.gate_speedup:
            print(
                f"[bench_service] GATE FAILED: best {args.gate_mix} speedup "
                f"{best:.2f}x < required {args.gate_speedup:.2f}x",
                file=sys.stderr,
            )
            return 1
        print(
            f"[bench_service] gate ok: {best:.2f}x >= "
            f"{args.gate_speedup:.2f}x on {args.gate_mix}",
            flush=True,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
