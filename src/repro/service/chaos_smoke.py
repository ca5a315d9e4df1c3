"""Chaos parity smoke test (the CI ``chaos-smoke`` job).

Builds the full fabric as real moving parts — two ``repro serve``
subprocesses (asyncio nodes with single-flight coalescing), a
fault-injecting :class:`~repro.service.chaos.ChaosProxy` in front of
each, and the shard router over the proxies — then pushes a
batch of distinct problems through the router while the chaos layer
injects seeded latency, 502s and dropped connections, and one node is
SIGKILLed mid-batch and restarted a few requests later.

Pass criteria (exit 0):

* **zero client-visible errors** — every response has ``status == "ok"``
  despite ~30 % of proxied requests faulting and one node dying;
* **byte-identical parity** — every non-degraded schedule payload equals
  the one computed fault-free in-process (canonical codecs + retries
  must not change answers, only availability);
* the aggregated router ``/v1/stats`` (breaker transitions, retry and
  failover counts, per-node cache stats) is written to ``--out`` for the
  CI artifact upload.

A second **live phase** then streams a stateful workflow's event
sequence through the router.  The nodes are *federated*: each has its
own ``--live-dir`` and replicates write-through to the other via
``--live-peer``, so surviving a node death means surviving on the
replica, not on a shared disk.  Mid-stream the previously untouched
node is SIGKILLed (and later restarted), and after the restart the
workflow's on-disk log is **corrupted in place** on the shard owner.
The fleet must absorb both: the router's retry/failover sweep plus the
append-before-apply event log land every event exactly once, the
corrupted log is quarantined and rebuilt from the peer replica (or
fenced off and reset-pushed by the failover writer), the final
``last_seq``/``revision`` match a fault-free in-process reference run,
and both nodes' ``<id>.jsonl`` replicas end byte-identical — with zero
client-visible errors throughout.

A third **burst phase** fires duplicate-heavy concurrent bursts at the
same fleet while node B is SIGKILLed again mid-phase and restarted.
Pass criteria: zero client-visible errors, byte parity of every
non-degraded schedule with a fault-free in-process solve, and
fleet-wide ``aio.coalesced`` counters > 0 — duplicate suppression must
survive the kill/restart.

Usage::

    python -m repro.service.chaos_smoke --out chaos_stats.json
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from collections.abc import Sequence
from typing import Any

from repro.core.serialize import problem_to_dict
from repro.exceptions import ReproError, ServiceError
from repro.service.chaos import ChaosConfig, ChaosProxy
from repro.service.codec import dumps, encode_schedule
from repro.service.http import BackgroundServer, ServiceClient
from repro.service.resilience import CircuitBreaker, RetryPolicy
from repro.service.router import NodeHandle, RouterServer, ShardRouter

__all__ = ["main"]

_LISTEN_RE = re.compile(r"listening on http://([\w.\-]+):(\d+)")


def _fail(message: str) -> int:
    print(f"CHAOS SMOKE FAIL: {message}", file=sys.stderr)
    return 1


def _free_port() -> int:
    """Reserve an ephemeral port for a node that must know its peer's
    address before either process starts (bidirectional ``--live-peer``
    wiring needs both URLs up front)."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _start_node(port: int = 0, *, extra: Sequence[str] = ()) -> tuple[Any, int]:
    """Launch one ``repro serve`` subprocess; returns (popen, bound port)."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", str(port), *extra],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    assert proc.stdout is not None
    line = proc.stdout.readline()
    match = _LISTEN_RE.search(line)
    if not match:
        proc.kill()
        raise ServiceError(f"node did not announce a port (got {line!r})")
    return proc, int(match.group(2))


def _live_event_stream(problem, budget: float) -> list[dict[str, Any]]:
    """A deterministic full-run event list: one top-up, one late module."""
    from repro.algorithms import get_scheduler
    from repro.service.app import DEFAULT_ALGORITHM

    plan = get_scheduler(DEFAULT_ALGORITHM).solve(problem, budget)
    workflow = problem.workflow
    done: set[str] = set()
    order: list[str] = []
    names = list(workflow.module_names)
    while len(order) < len(names):
        for name in names:
            if name not in done and all(
                p in done for p in workflow.predecessors(name)
            ):
                order.append(name)
                done.add(name)
    events: list[dict[str, Any]] = [{"seq": 1, "type": "topup", "amount": 0.1 * budget}]
    seq = 2
    late = next(n for n in order if workflow.module(n).is_schedulable)
    for name in order:
        module = workflow.module(name)
        if module.is_schedulable:
            duration = problem.matrices.time(name, plan.schedule[name])
        else:
            duration = float(module.fixed_time or 0.0)
        if name == late:
            duration *= 1.5
        events.append({"seq": seq, "type": "started", "module": name})
        events.append(
            {"seq": seq + 1, "type": "completed", "module": name, "duration": duration}
        )
        seq += 2
    return events


def _burst_phase(
    args: argparse.Namespace,
    client: ServiceClient,
    nodes: list[Any],
    ports: list[int],
    node_args: list[tuple[str, ...]],
) -> tuple[list[str], dict[str, Any]]:
    """Phase 3: duplicate-heavy bursts, with node B killed and restarted.

    Fires rounds of *concurrent identical* requests through the router —
    the coalescer's worst-case traffic — while node B is SIGKILLed
    mid-phase and restarted a few rounds later (``nodes[1]`` is replaced
    in place).  Pass criteria mirror the first phase (zero client-visible
    errors, every non-degraded schedule byte-identical to a fault-free
    in-process solve) plus one more bar: the fleet's ``aio.coalesced``
    counters must come back positive, proving duplicate suppression
    stayed live through kill and restart.
    """
    from concurrent.futures import ThreadPoolExecutor

    import numpy as np

    from repro.algorithms import get_scheduler
    from repro.service.app import DEFAULT_ALGORITHM
    from repro.workloads.generator import generate_problem

    rounds, burst = 10, 8
    kill_at, restart_at = 4, 6
    scheduler = get_scheduler(DEFAULT_ALGORITHM)
    workload: list[tuple[dict[str, Any], str]] = []
    for i in range(rounds):
        problem = generate_problem(
            (30, 80, 6), np.random.default_rng(args.seed + 1000 + i)
        )
        lo, hi = problem.budget_range()
        budget = (lo + hi) / 2.0
        result = scheduler.solve(problem, budget)
        workload.append(
            (
                {"problem": problem_to_dict(problem), "budget": budget},
                dumps(encode_schedule(result.schedule, problem.catalog)),
            )
        )

    errors: list[str] = []
    stats: dict[str, Any] = {"requests": rounds * burst}
    degraded = 0
    with ThreadPoolExecutor(max_workers=burst) as pool:
        for i, (request, want) in enumerate(workload):
            if i == kill_at:
                nodes[1].kill()
                nodes[1].wait(timeout=10)
                print(f"[burst {i}] killed node B (port {ports[1]})", flush=True)
            if i == restart_at:
                nodes[1], _ = _start_node(ports[1], extra=node_args[1])
                if not _wait_healthy(
                    f"http://127.0.0.1:{ports[1]}", args.startup_timeout
                ):
                    errors.append("restarted node B never became healthy")
                    return errors, stats
                print(f"[burst {i}] restarted node B (port {ports[1]})", flush=True)
            outcomes = list(
                pool.map(client.solve, [dict(request) for _ in range(burst)])
            )
            for response in outcomes:
                if response.get("status") != "ok":
                    errors.append(f"burst round {i}: error body {response.get('error')}")
                elif response.get("degraded"):
                    degraded += 1
                elif dumps(response["result"]["schedule"]) != want:
                    errors.append(
                        f"burst round {i}: schedule diverges from the "
                        "fault-free reference"
                    )
    stats["degraded"] = degraded

    # Coalescing proof: counters from the *live* nodes (node B was
    # restarted, so its counters only cover the post-restart bursts).
    coalesced = 0
    for port in ports:
        body = ServiceClient(f"http://127.0.0.1:{port}", timeout=10.0).stats()
        coalesced += body.get("stats", {}).get("aio", {}).get("coalesced", 0)
    stats["coalesced"] = coalesced
    if coalesced == 0:
        errors.append(
            "nodes never coalesced a duplicate - single-flight "
            "suppression did not engage under duplicate-heavy bursts"
        )
    return errors, stats


def _wait_healthy(url: str, timeout: float) -> bool:
    client = ServiceClient(url, timeout=5.0)
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            client.healthz()
            return True
        except ServiceError:
            time.sleep(0.1)
    return False


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.service.chaos_smoke")
    parser.add_argument("--out", default="chaos_stats.json")
    parser.add_argument("--requests", type=int, default=50)
    parser.add_argument("--seed", type=int, default=2013)
    parser.add_argument("--latency-prob", type=float, default=0.30)
    parser.add_argument("--error-prob", type=float, default=0.15)
    parser.add_argument("--drop-prob", type=float, default=0.15)
    parser.add_argument("--kill-at", type=int, default=20)
    parser.add_argument("--restart-at", type=int, default=35)
    parser.add_argument("--startup-timeout", type=float, default=30.0)
    args = parser.parse_args(argv)

    import numpy as np

    from repro.algorithms import get_scheduler
    from repro.service.app import DEFAULT_ALGORITHM
    from repro.workloads.generator import generate_problem

    # ---------------------------------------------------------------- #
    # Workload: N distinct problems (distinct problem_hash => the batch
    # spreads over both shards) + their fault-free expected schedules.
    # ---------------------------------------------------------------- #
    scheduler = get_scheduler(DEFAULT_ALGORITHM)
    requests: list[dict[str, Any]] = []
    expected: list[str] = []
    for i in range(args.requests):
        problem = generate_problem(
            (10, 17, 4), np.random.default_rng(args.seed + i)
        )
        lo, hi = problem.budget_range()
        budget = (lo + hi) / 2.0
        requests.append(
            {"problem": problem_to_dict(problem), "budget": budget}
        )
        result = scheduler.solve(problem, budget)
        expected.append(dumps(encode_schedule(result.schedule, problem.catalog)))

    # ---------------------------------------------------------------- #
    # Fleet: 2 nodes, 2 chaos proxies, 1 router (in-process HTTP).
    # ---------------------------------------------------------------- #
    nodes: list[Any] = []
    proxies: list[ChaosProxy] = []
    server = None
    live_root = tempfile.mkdtemp(prefix="chaos-live-")
    live_dirs = [Path(live_root) / "a", Path(live_root) / "b"]
    # Federated topology: each node owns its live_dir and pushes every
    # log record to the other, so failover survives on the replica.
    port_a, port_b = _free_port(), _free_port()
    ports = [port_a, port_b]
    node_args = [
        ("--live-dir", str(live_dirs[0]), "--live-peer", f"http://127.0.0.1:{port_b}"),
        ("--live-dir", str(live_dirs[1]), "--live-peer", f"http://127.0.0.1:{port_a}"),
    ]
    try:
        for port, extra in zip(ports, node_args):
            nodes.append(_start_node(port, extra=extra)[0])
        for port in ports:
            if not _wait_healthy(
                f"http://127.0.0.1:{port}", args.startup_timeout
            ):
                return _fail(f"node on port {port} never became healthy")

        config = ChaosConfig(
            seed=args.seed,
            latency_prob=args.latency_prob,
            latency_min=0.01,
            latency_max=0.10,
            error_prob=args.error_prob,
            drop_prob=args.drop_prob,
        )
        proxies = [
            ChaosProxy(f"http://127.0.0.1:{port_a}", config).start(),
            ChaosProxy(
                f"http://127.0.0.1:{port_b}",
                ChaosConfig(
                    seed=args.seed + 1,
                    latency_prob=args.latency_prob,
                    latency_min=0.01,
                    latency_max=0.10,
                    error_prob=args.error_prob,
                    drop_prob=args.drop_prob,
                ),
            ).start(),
        ]

        router = ShardRouter(
            [
                NodeHandle(
                    proxy.base_url,
                    timeout=15.0,
                    breaker=CircuitBreaker(
                        failure_threshold=3, reset_timeout=1.0
                    ),
                )
                for proxy in proxies
            ],
            retry_policy=RetryPolicy(
                max_retries=8, base_delay=0.05, max_delay=0.5
            ),
            hedge_delay=0.25,
        )
        server = BackgroundServer(RouterServer(router))
        # The client retries 503s honouring Retry-After (the breaker-reset
        # hint), so a window where every breaker is open — node B dead,
        # node A mid-fault-burst — heals instead of surfacing an error.
        client = ServiceClient(
            server.base_url,
            timeout=60.0,
            retry=RetryPolicy(max_retries=6, base_delay=0.25, max_delay=2.0),
        )

        # ------------------------------------------------------------ #
        # The batch, with a node murder mid-flight.
        # ------------------------------------------------------------ #
        errors: list[str] = []
        mismatches: list[str] = []
        degraded = 0
        for i, request in enumerate(requests):
            if i == args.kill_at:
                nodes[1].kill()
                nodes[1].wait(timeout=10)
                print(f"[{i}] killed node B (port {port_b})", flush=True)
            if i == args.restart_at:
                nodes[1], _ = _start_node(port_b, extra=node_args[1])
                if not _wait_healthy(
                    f"http://127.0.0.1:{port_b}", args.startup_timeout
                ):
                    return _fail("restarted node never became healthy")
                print(f"[{i}] restarted node B (port {port_b})", flush=True)
            try:
                response = client.solve(request)
            except ReproError as exc:
                errors.append(f"request {i}: {type(exc).__name__}: {exc}")
                continue
            if response.get("status") != "ok":
                errors.append(f"request {i}: error body {response.get('error')}")
                continue
            if response.get("degraded"):
                degraded += 1
                continue
            got = dumps(response["result"]["schedule"])
            if got != expected[i]:
                mismatches.append(
                    f"request {i}:\n  expected {expected[i]}\n  got      {got}"
                )

        # ------------------------------------------------------------ #
        # Live phase: stream a stateful workflow through the router and
        # SIGKILL the (so far unharmed) node A halfway through.
        # ------------------------------------------------------------ #
        from repro.live.store import LiveWorkflowManager

        live_problem = generate_problem(
            (10, 17, 4), np.random.default_rng(args.seed)
        )
        lo, hi = live_problem.budget_range()
        live_budget = (lo + hi) / 2.0
        registration = {
            "problem": problem_to_dict(live_problem),
            "budget": live_budget,
        }
        live_events = _live_event_stream(live_problem, live_budget)

        reference = LiveWorkflowManager()
        wid = reference.register(dict(registration))["workflow_id"]
        for event in live_events:
            reference.event(wid, dict(event))
        expected_status = reference.status(wid)

        live_replays = 0
        live_stats: dict[str, Any] = {"events": len(live_events)}
        try:
            body = client.register_workflow(dict(registration))
            if body.get("workflow_id") != wid:
                errors.append(
                    f"live registration routed to id {body.get('workflow_id')!r},"
                    f" expected {wid!r}"
                )
            from repro.service.keys import workflow_id_digest

            owner = router.shard_of(workflow_id_digest(wid))
            kill_at = len(live_events) // 2
            revive_at = kill_at + max(2, len(live_events) // 8)
            corrupt_at = revive_at + max(2, len(live_events) // 8)
            for i, event in enumerate(live_events):
                if i == kill_at:
                    nodes[0].kill()
                    nodes[0].wait(timeout=10)
                    print(
                        f"[live {i}] killed node A (port {port_a})", flush=True
                    )
                if i == revive_at:
                    nodes[0], _ = _start_node(port_a, extra=node_args[0])
                    if not _wait_healthy(
                        f"http://127.0.0.1:{port_a}", args.startup_timeout
                    ):
                        return _fail("revived node A never became healthy")
                    print(
                        f"[live {i}] restarted node A (port {port_a})",
                        flush=True,
                    )
                if i == corrupt_at:
                    # Bit-rot the shard owner's on-disk log in place.  The
                    # owner must notice (size changed -> fold -> corruption),
                    # then heal from its peer replica — quarantine + pull,
                    # or a 500 the router fails over and the new writer
                    # reset-pushes the good log back.  Either way: no
                    # client-visible error.
                    log = live_dirs[owner] / f"{wid}.jsonl"
                    with open(log, "a") as handle:
                        handle.write("CHAOS BIT ROT - NOT JSON\n")
                    print(
                        f"[live {i}] corrupted {log} on the shard owner",
                        flush=True,
                    )
                ack = client.workflow_event(wid, dict(event))
                if ack.get("status") != "ok":
                    errors.append(
                        f"live event {event['seq']}: error body {ack.get('error')}"
                    )
                elif ack.get("replayed"):
                    live_replays += 1
            status = client.workflow_status(wid)
            live_stats.update(
                replays=live_replays,
                owner="ab"[owner],
                last_seq=status.get("last_seq"),
                revision=status.get("revision"),
                complete=status.get("complete"),
            )
            # The healed fleet must have purged the corruption: the bad
            # line lives on only in a quarantine file, never in a log a
            # node would replay.
            logs = [live_dir / f"{wid}.jsonl" for live_dir in live_dirs]
            replicas = [log.read_bytes() if log.exists() else b"" for log in logs]
            for log, data in zip(logs, replicas):
                if b"CHAOS BIT ROT" in data:
                    errors.append(
                        f"corrupted record still live in {log} - the fleet "
                        "never healed it"
                    )
            # Replication pushes at byte offsets, so the two replicas
            # must end as byte-identical copies of one log.
            live_stats["replica_bytes"] = [len(data) for data in replicas]
            if not replicas[0] or replicas[0] != replicas[1]:
                errors.append(
                    f"replicas of {wid} are not byte-identical after the last "
                    f"event (sizes {live_stats['replica_bytes']})"
                )
            live_stats["quarantined"] = sum(
                1
                for live_dir in live_dirs
                for _ in live_dir.glob("*.quarantined")
            )
            if (
                status.get("last_seq") != expected_status["last_seq"]
                or status.get("revision") != expected_status["revision"]
                or not status.get("complete")
            ):
                errors.append(
                    "live failover diverged from the reference run: "
                    f"last_seq={status.get('last_seq')} "
                    f"(want {expected_status['last_seq']}), "
                    f"revision={status.get('revision')} "
                    f"(want {expected_status['revision']}), "
                    f"complete={status.get('complete')}"
                )
        except ReproError as exc:
            errors.append(f"live phase: {type(exc).__name__}: {exc}")

        # -------------------------------------------------------------#
        # Burst phase: duplicate-heavy bursts on the same fleet, node
        # murder, coalescing gate.
        # -------------------------------------------------------------#
        burst_errors, burst_stats = _burst_phase(args, client, nodes, ports, node_args)
        errors.extend(burst_errors)

        stats = router.aggregated_stats()
        stats["live_phase"] = live_stats
        stats["burst_phase"] = burst_stats
        stats["chaos"] = {
            f"proxy_{label}": proxy.stats()
            for label, proxy in zip("ab", proxies)
        }
        with open(args.out, "w") as handle:
            json.dump(stats, handle, indent=2, sort_keys=True)

        if errors:
            return _fail(
                f"{len(errors)} client-visible error(s):\n  " + "\n  ".join(errors)
            )
        if mismatches:
            return _fail(
                f"{len(mismatches)} schedule parity mismatch(es):\n"
                + "\n".join(mismatches)
            )
        injected = sum(
            p["injected_errors"] + p["injected_drops"] for p in stats["chaos"].values()
        )
        if injected == 0:
            return _fail(
                "chaos layer injected zero faults - the run proved nothing; "
                "raise --error-prob/--drop-prob"
            )
        rstats = stats["router"]
        print(
            f"CHAOS SMOKE OK: {len(requests)} requests, 0 client-visible "
            f"errors, {degraded} degraded, parity byte-identical; "
            f"{injected} faults injected, retries={rstats['retries']}, "
            f"failovers={rstats['failovers']}, hedges={rstats['hedges']}; "
            f"live phase: {live_stats['events']} events, "
            f"{live_replays} replayed, revision {live_stats.get('revision')} "
            f"matches reference, corrupted log healed "
            f"({live_stats.get('quarantined', 0)} quarantined), replicas "
            f"byte-identical ({live_stats['replica_bytes'][0]} B); "
            f"burst phase: {burst_stats.get('requests', 0)} requests, "
            f"{burst_stats.get('coalesced', 0)} coalesced; "
            f"stats written to {args.out}"
        )
        return 0
    finally:
        if server is not None:
            server.stop()
        for proxy in proxies:
            proxy.stop()
        for node in nodes:
            node.terminate()
            try:
                node.wait(timeout=10)
            except subprocess.TimeoutExpired:
                node.kill()
        shutil.rmtree(live_root, ignore_errors=True)


if __name__ == "__main__":  # pragma: no cover - CI entry point
    sys.exit(main())
