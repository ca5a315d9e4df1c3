"""End-to-end service smoke test (the CI ``service-smoke`` job).

Launches ``repro serve`` (or ``repro serve --async`` with ``--async``) as
a real subprocess on an ephemeral port, submits the example workload
twice — the second time with the module list *and* the VM-type catalog
permuted — then the unpermuted workload at a new budget, and asserts:

* every response carries a valid, budget-respecting schedule;
* the second response is a cache hit with a byte-identical schedule
  payload (canonical hashing defeated the permutation);
* the third response is a miss, byte-identical to an in-process
  :class:`~repro.service.app.SchedulingService` solve, and reused the
  first request's decoded problem (``problems.decode_hits >= 1``);
* a ``/v1/solve_batch`` of three new budgets plus a duplicate is
  byte-identical to an in-process ``solve_batch``, and ran the three
  misses as one grouped job (``batch.grouped_items >= 3``,
  ``batch.deduped >= 1``) — on either front end — with one problem-memo
  lookup for its one problem (``problems.hash_hits + hash_misses`` grew
  by exactly 1);
* ``/v1/stats`` reports at least one hit and one miss.

The final ``/v1/stats`` body is written to ``--out`` so CI can upload it
as an artifact.  Exits non-zero on any violated assertion.

Usage::

    python -m repro.service.smoke --out service_stats.json
    python -m repro.service.smoke --async --out service_stats_async.json
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
import time
from collections.abc import Sequence
from typing import Any

from repro.core.serialize import problem_to_dict
from repro.exceptions import ServiceError
from repro.service.app import SchedulingService
from repro.service.codec import dumps
from repro.service.http import ServiceClient

__all__ = ["main"]

_LISTEN_RE = re.compile(r"listening on http://([\w.\-]+):(\d+)")


def _permuted(payload: dict[str, Any]) -> dict[str, Any]:
    """The same instance with modules and VM types listed in reverse."""
    permuted = json.loads(json.dumps(payload))
    permuted["workflow"]["modules"] = list(reversed(permuted["workflow"]["modules"]))
    permuted["workflow"]["edges"] = list(reversed(permuted["workflow"]["edges"]))
    permuted["catalog"] = list(reversed(permuted["catalog"]))
    return permuted


def _memo_lookups(stats: dict[str, Any]) -> int:
    """Problem-memo lookups so far: each is a hit or a miss."""
    return int(stats["problems"]["hash_hits"] + stats["problems"]["hash_misses"])


def _fail(message: str) -> int:
    print(f"SMOKE FAIL: {message}", file=sys.stderr)
    return 1


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.service.smoke")
    parser.add_argument("--out", default="service_stats.json")
    parser.add_argument("--budget", type=float, default=57.0)
    parser.add_argument(
        "--async",
        dest="use_async",
        action="store_true",
        help="boot the asyncio front end (repro serve --async)",
    )
    parser.add_argument("--startup-timeout", type=float, default=30.0)
    args = parser.parse_args(argv)

    command = [sys.executable, "-m", "repro", "serve", "--port", "0"]
    if args.use_async:
        command.append("--async")
    server = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        assert server.stdout is not None
        line = server.stdout.readline()
        match = _LISTEN_RE.search(line)
        if not match:
            return _fail(f"server did not announce a port (got {line!r})")
        client = ServiceClient(f"http://127.0.0.1:{match.group(2)}")

        deadline = time.monotonic() + args.startup_timeout
        while True:
            try:
                client.healthz()
                break
            except ServiceError:
                if time.monotonic() > deadline:
                    return _fail("server never became healthy")
                time.sleep(0.1)

        from repro.workloads import example_problem

        payload = problem_to_dict(example_problem())
        request = {"problem": payload, "budget": args.budget}
        permuted_request = {"problem": _permuted(payload), "budget": args.budget}

        first = client.solve(request)
        if first.get("status") != "ok":
            return _fail(f"first solve failed: {first}")
        if first.get("cache_hit") is not False:
            return _fail(f"first solve should be a miss: {first}")
        if first["result"]["cost"] > args.budget + 1e-9:
            return _fail(
                f"schedule cost {first['result']['cost']} exceeds "
                f"budget {args.budget}"
            )

        second = client.solve(permuted_request)
        if second.get("status") != "ok":
            return _fail(f"permuted solve failed: {second}")
        if second.get("cache_hit") is not True:
            return _fail(
                "permuted resubmission was not a cache hit "
                f"(canonical hashing broke): {second}"
            )
        first_schedule = dumps(first["result"]["schedule"])
        second_schedule = dumps(second["result"]["schedule"])
        if first_schedule != second_schedule:
            return _fail(
                "replayed schedule payload is not byte-identical:\n"
                f"  first:  {first_schedule}\n  second: {second_schedule}"
            )

        new_request = {"problem": payload, "budget": args.budget + 1.0}
        third = client.solve(new_request)
        if third.get("status") != "ok" or third.get("cache_hit") is not False:
            return _fail(f"solve at a new budget should be an ok miss: {third}")
        with SchedulingService(max_workers=1) as local:
            expected = local.solve(new_request)
        if dumps(third) != dumps(expected):
            return _fail(
                "miss on the memoized problem differs from an in-process solve:\n"
                f"  served:     {dumps(third)}\n  in-process: {dumps(expected)}"
            )

        batch = [
            {"problem": payload, "budget": args.budget + step} for step in (2, 3, 4, 2)
        ]
        lookups_before = _memo_lookups(client.stats()["stats"])
        served_batch = client.solve_batch(batch)
        with SchedulingService(max_workers=1) as local:
            expected_batch = {"status": "ok", "results": local.solve_batch(batch)}
        if dumps(served_batch) != dumps(expected_batch):
            return _fail(
                "batch differs from an in-process solve_batch:\n"
                f"  served:     {dumps(served_batch)}\n"
                f"  in-process: {dumps(expected_batch)}"
            )

        stats = client.stats()["stats"]
        if stats["batch"]["grouped_items"] < 3 or stats["batch"]["deduped"] < 1:
            return _fail(f"batch misses were not grouped and deduped: {stats['batch']}")
        if _memo_lookups(stats) != lookups_before + 1:
            return _fail(
                "a batch on one problem should look the problem memo up once: "
                f"{lookups_before} lookups before, {stats['problems']} after"
            )
        cache = stats["cache"]
        if cache["hits"] < 1 or cache["misses"] < 1:
            return _fail(f"expected >=1 hit and >=1 miss, got {cache}")
        if stats["problems"]["decode_hits"] < 1:
            return _fail(
                f"the new budget decoded its problem again: {stats['problems']}"
            )

        with open(args.out, "w") as handle:
            json.dump(stats, handle, indent=2, sort_keys=True)
        print(
            f"SMOKE OK: miss+hit+memoized miss+grouped batch verified, "
            f"payloads byte-identical; stats written to {args.out}"
        )
        return 0
    finally:
        server.terminate()
        try:
            server.wait(timeout=10)
        except subprocess.TimeoutExpired:
            server.kill()


if __name__ == "__main__":  # pragma: no cover - CI entry point
    sys.exit(main())
