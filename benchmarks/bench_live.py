"""Perf harness for the live-workflow engine's per-event re-solve.

Two entry points:

* ``pytest benchmarks/bench_live.py --benchmark-only`` — paper-scale
  pytest-benchmark run of a full drifting event stream through a warm
  :class:`repro.live.state.LiveWorkflow`, with the zero-drift identity
  asserted before timing;
* ``python benchmarks/bench_live.py [--scale paper|stress|all]
  [--check] [--gate-speedup S] [--out PATH]`` — the JSON emitter behind
  ``BENCH_live.json``: for each scale it

  - replays a full started/completed event stream (every schedulable
    module 1.25x late, so *every* completion reconciles actuals, bills
    drift and re-runs the repair + upgrade loops) through one warm
    ``LiveWorkflow`` and reports the mean per-event latency, and
  - times the stateless alternative — a from-scratch
    :class:`CriticalGreedyScheduler` solve of the whole problem, which
    is what a node without the live subsystem would pay on every event —
    and reports the ratio, and
  - micro-benchmarks the durability tax: per-record ``fsync``'d append
    latency on the live log (the service has no unsynced mode), under a
    ``durability`` key — so the cost of the crash-safety guarantee is a
    measured number, not folklore.

``--check`` additionally replays a *zero-drift* stream and exits
non-zero unless the revision counter stays 0 and the final assignment
is identical to the offline plan (the warm engine is a bitwise
continuation of the solver, not a near-miss).  ``--gate-speedup S``
fails the run if the from-scratch solve is not at least ``S`` x slower
than a live event; CI gates ``5.0`` at stress scale — the acceptance
bar — while absolute wall clock is never gated.

Scales match ``bench_fastpath.py``: ``paper`` is (m, |Ew|, n) =
(100, 2344, 9), ``stress`` is (1000, 3000, 10).
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path

from bench_fastpath import SCALES, SEED, _make_problem, _time_best_cold
from bench_meta import stamp_metadata

from repro.algorithms.critical_greedy import CriticalGreedyScheduler
from repro.live.state import LiveWorkflow

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_live.json"

#: Lateness factor for the drifting stream: enough to force a repair +
#: re-optimize pass on every completion, the live engine's worst case.
DRIFT = 1.25


def _mid_budget(problem) -> float:
    lo, hi = problem.budget_range()
    return 0.5 * (lo + hi)


def _make_live(problem, budget: float) -> LiveWorkflow:
    scheduler = CriticalGreedyScheduler()
    plan = scheduler.solve(problem, budget)
    return LiveWorkflow(
        "bench",
        problem,
        budget,
        plan,
        candidate_scope=scheduler.candidate_scope,
        transfer_aware=scheduler.transfer_aware,
    )


def _event_stream(problem, live: LiveWorkflow, drift: float) -> list[dict]:
    """A full-run started/completed stream in topological order."""
    workflow = problem.workflow
    matrices = problem.matrices
    events: list[dict] = []
    seq = 1
    for name in workflow.topological_order():
        module = workflow.module(name)
        if module.is_schedulable:
            row = matrices.row_index[name]
            duration = drift * matrices.time(name, live._state.columns[row])
        else:
            duration = float(module.fixed_time or 0.0)
        events.append({"seq": seq, "type": "started", "module": name})
        events.append(
            {"seq": seq + 1, "type": "completed", "module": name, "duration": duration}
        )
        seq += 2
    return events


def _replay(live: LiveWorkflow, events: list[dict]) -> float:
    """Feed every event; returns the wall time spent in handle_event."""
    start = time.perf_counter()
    for event in events:
        live.handle_event(event)
    return time.perf_counter() - start


def _check_zero_drift(problem, budget: float) -> None:
    plan = CriticalGreedyScheduler().solve(problem, budget)
    live = _make_live(problem, budget)
    _replay(live, _event_stream(problem, live, 1.0))
    if live.revision != 0:
        raise AssertionError(
            f"zero-drift replay bumped the revision to {live.revision}"
        )
    if not live.is_complete():
        raise AssertionError("zero-drift replay did not complete the workflow")
    if live.schedule().assignment != plan.schedule.assignment:
        raise AssertionError("zero-drift final assignment differs from offline plan")


def run_scale(name: str, *, check: bool = False) -> dict:
    size = SCALES[name]
    problem = _make_problem(size)
    budget = _mid_budget(problem)
    repeats = 3 if name == "paper" else 2

    if check:
        _check_zero_drift(problem, budget)

    # Warm path: one LiveWorkflow per repeat (construction untimed — the
    # warm engine is the thing under test), full drifting stream timed.
    best_total = None
    revisions = 0
    events = 0
    for _ in range(repeats):
        live = _make_live(problem, budget)
        stream = _event_stream(problem, live, DRIFT)
        gc.collect()
        total = _replay(live, stream)
        if not live.is_complete():
            raise AssertionError(f"{name}: drifting replay did not complete")
        if not live.over_budget and live.projected_cost > live.budget + 1e-6:
            raise AssertionError(f"{name}: revised plan exceeds the budget")
        best_total = total if best_total is None else min(best_total, total)
        revisions = live.revision
        events = len(stream)

    live_event_s = best_total / events

    # The stateless alternative: re-solve the whole problem from scratch
    # (fresh scheduler, fresh problem copy so no memoized trace replays)
    # — once per event.
    gc.collect()
    solve_s = _time_best_cold(
        lambda fresh: CriticalGreedyScheduler().solve(fresh, budget), problem, repeats
    )

    return {
        "size": list(size),
        "budget": budget,
        "events": events,
        "revisions": revisions,
        "drift_factor": DRIFT,
        "live_event_s": live_event_s,
        "from_scratch_solve_s": solve_s,
        "speedup_vs_from_scratch": solve_s / live_event_s,
    }


def run_durability(appends: int = 512, repeats: int = 3) -> dict:
    """Per-record ``fsync``'d append latency on the live log.

    Times :meth:`repro.live.iofault.LogIO.append` over a realistic
    canonical event record — the exact call ``LiveWorkflowManager``
    makes per acknowledged event — so the JSON carries the measured
    price of durability.
    """
    import tempfile

    from repro.live.iofault import LogIO
    from repro.service.codec import dumps as codec_dumps

    record = (
        codec_dumps(
            {
                "kind": "event",
                "payload": {
                    "seq": 123,
                    "type": "completed",
                    "module": "w42",
                    "duration": 1.625,
                },
                "digest": "0" * 64,
            }
        )
        + "\n"
    ).encode("utf-8")
    io = LogIO()
    out: dict = {"appends": appends, "record_bytes": len(record)}
    best = None
    for _ in range(repeats):
        with tempfile.TemporaryDirectory(prefix="bench-live-io-") as tmp:
            path = Path(tmp) / "wf.jsonl"
            io.append(path, record)  # create outside the clock
            gc.collect()
            start = time.perf_counter()
            for _n in range(appends):
                io.append(path, record)
            elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    out["fsync_on_append_s"] = best / appends
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=[*SCALES, "all"], default="all")
    parser.add_argument(
        "--check",
        action="store_true",
        help="identity gate: exit 1 unless a zero-drift replay keeps "
        "revision 0 and reproduces the offline assignment",
    )
    parser.add_argument(
        "--gate-speedup",
        type=float,
        default=None,
        metavar="S",
        help="fail unless a from-scratch solve costs at least S x one "
        "live event on every measured scale (CI uses 5.0 on stress)",
    )
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)

    names = list(SCALES) if args.scale == "all" else [args.scale]
    payload = {
        **stamp_metadata("benchmarks/bench_live.py"),
        "seed": SEED,
        "scales": {},
    }
    try:
        for name in names:
            print(f"[bench_live] scale={name} ...", flush=True)
            payload["scales"][name] = run_scale(name, check=args.check)
            scale = payload["scales"][name]
            print(
                f"[bench_live]   {scale['events']} events "
                f"({scale['revisions']} revisions): "
                f"{scale['live_event_s'] * 1e3:.3f} ms/event vs "
                f"{scale['from_scratch_solve_s'] * 1e3:.3f} ms from-scratch "
                f"({scale['speedup_vs_from_scratch']:.1f}x)",
                flush=True,
            )
    except AssertionError as exc:
        print(f"[bench_live] DIVERGENCE: {exc}", file=sys.stderr)
        if args.check:
            return 1
        raise

    print("[bench_live] durability micro-bench ...", flush=True)
    payload["durability"] = run_durability()
    durability = payload["durability"]
    print(
        f"[bench_live]   append {durability['record_bytes']} B: "
        f"{durability['fsync_on_append_s'] * 1e6:.1f} us fsync'd",
        flush=True,
    )

    if args.gate_speedup is not None:
        for name, scale in payload["scales"].items():
            if scale["speedup_vs_from_scratch"] < args.gate_speedup:
                print(
                    f"[bench_live] REGRESSION: scale={name} live event "
                    f"{scale['live_event_s'] * 1e3:.3f} ms is only "
                    f"{scale['speedup_vs_from_scratch']:.1f}x faster than a "
                    f"from-scratch solve (gate {args.gate_speedup:g}x)",
                    file=sys.stderr,
                )
                return 1

    args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"[bench_live] wrote {args.out}")
    return 0


# --------------------------------------------------------------------- #
# pytest-benchmark entry point (paper scale only — CI friendly)
# --------------------------------------------------------------------- #


def bench_live_event_stream(benchmark, save_report):
    problem = _make_problem(SCALES["paper"])
    budget = _mid_budget(problem)
    _check_zero_drift(problem, budget)

    def _round():
        live = _make_live(problem, budget)
        stream = _event_stream(problem, live, DRIFT)
        _replay(live, stream)
        return live, stream

    live, stream = benchmark.pedantic(_round, rounds=3, iterations=1)
    save_report(
        "live_events",
        f"paper-scale drifting stream: {len(stream)} events, "
        f"{live.revision} revisions, zero-drift identity checked",
    )


if __name__ == "__main__":
    sys.exit(main())
