"""Perf-regression harness for the fast critical-path kernel.

Two entry points:

* ``pytest benchmarks/bench_fastpath.py --benchmark-only`` — paper-scale
  pytest-benchmark runs (kernel sweep + one Critical-Greedy solve) with
  the production/oracle equivalence asserted before timing;
* ``python benchmarks/bench_fastpath.py [--scale paper|stress|all]
  [--check] [--out PATH]`` — the JSON emitter behind
  ``BENCH_fastpath.json``: for each scale it measures

  - the CP kernel (µs per sweep, fast kernel vs the reference
    ``analyze_critical_path``),
  - Critical-Greedy end-to-end (s per solve, production ``solve`` vs the
    test oracle :func:`repro.algorithms.oracle.reference_solve`, which
    evaluates every step through the reference analysis),
  - a budget sweep (s per grid, ``sweep_budgets`` on a fresh problem),
  - a warm stream (ms per budget): 64 shuffled stratified budgets solved
    on one problem object, so each solve may replay the memoized trace
    of a larger budget, against the same budgets on fresh problem copies
    (cold, empty memo),
  - a 10-level sweep (``sweep10``, s per sweep): one ``solve_batch`` call
    over ``budget_levels(10)`` on a fresh problem, which walks the
    budgets largest first over the trace memo, against a cold ``solve``
    per level; the time ratio is recorded, never gated,

  and asserts the production results are *identical* (schedule, step
  trace, MED, cost — no tolerance) to the oracle and, for the warm
  stream and ``sweep10``, to their cold twins.  Every cold timing
  runs on a fresh ``dataclasses.replace`` copy of the problem with its
  matrices already built, so a warm-start replay never flatters it.
  ``--check`` exits non-zero on any divergence, which is the CI
  perf-smoke gate; wall clock is recorded but never gated, so CI stays
  robust to noisy runners.

Scales: ``paper`` is the largest size of the paper's Fig. 9 grid,
(m, |Ew|, n) = (100, 2344, 9); ``stress`` is (1000, 3000, 10) — the
acceptance scale for the >= 5x Critical-Greedy speedup.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import sys
import time
from pathlib import Path

import numpy as np
from bench_meta import stamp_metadata

from repro.algorithms.critical_greedy import CriticalGreedyScheduler
from repro.algorithms.oracle import reference_solve
from repro.analysis.sweep import sweep_budgets
from repro.core import fastpath
from repro.core.critical_path import analyze_critical_path
from repro.workloads.generator import generate_problem

PAPER_SCALE = (100, 2344, 9)
STRESS_SCALE = (1000, 3000, 10)
SCALES = {"paper": PAPER_SCALE, "stress": STRESS_SCALE}
SEED = 20130801  # ICPP 2013 — fixed so the JSON is reproducible
DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_fastpath.json"


def _make_problem(size):
    rng = np.random.default_rng(SEED)
    return generate_problem(size, rng)


def _mid_budget(problem) -> float:
    return 0.5 * (problem.cmin + problem.cmax)


def _time_once(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _time_best(fn, repeats: int) -> float:
    """Best-of-N wall time — the standard low-noise point estimate."""
    return min(_time_once(fn) for _ in range(repeats))


def _cold_copy(problem):
    """A copy of ``problem`` with an empty warm-start memo.

    ``dataclasses.replace`` drops every cached property, so the copy's
    matrices, budget range and transfer times are rebuilt here, outside
    any timer, as they are warm on a problem a server has solved before.
    """
    fresh = dataclasses.replace(problem)
    _ = (fresh.matrices, fresh.cmin, fresh.transfer_times)
    return fresh


def _time_best_cold(fn, problem, repeats: int) -> float:
    """Best-of-N wall time of ``fn(copy)``, each on a fresh :func:`_cold_copy`.

    Times cold Critical-Greedy solves: on a problem solved before, a
    ``solve`` at a budget no larger than the memoized one replays steps
    instead of computing them.
    """
    best = float("inf")
    for _ in range(repeats):
        fresh = _cold_copy(problem)
        best = min(best, _time_once(lambda: fn(fresh)))
    return best


def _assert_equal_results(ref, other, context: str) -> None:
    """Identity (not closeness) of two SchedulerResults."""
    if ref.schedule.assignment != other.schedule.assignment:
        raise AssertionError(f"{context}: schedules differ")
    if ref.steps != other.steps:
        raise AssertionError(f"{context}: step traces differ")
    if ref.evaluation.makespan != other.evaluation.makespan:
        raise AssertionError(f"{context}: MED differs")
    if ref.evaluation.total_cost != other.evaluation.total_cost:
        raise AssertionError(f"{context}: cost differs")


def _bench_kernel(problem, repeats: int) -> dict:
    schedule = problem.least_cost_schedule()
    durations = schedule.durations(problem.workflow, problem.matrices)
    transfers = problem.transfer_times or None

    ref = analyze_critical_path(problem.workflow, durations, transfers)
    fast = fastpath.fast_critical_path(problem.workflow, durations, transfers)
    if ref != fast.as_analysis():
        raise AssertionError("kernel: fast analysis differs from reference")

    fast_s = _time_best(
        lambda: fastpath.fast_critical_path(problem.workflow, durations, transfers),
        repeats,
    )
    ref_s = _time_best(
        lambda: analyze_critical_path(problem.workflow, durations, transfers),
        repeats,
    )
    return {
        "fast_us_per_sweep": fast_s * 1e6,
        "reference_us_per_sweep": ref_s * 1e6,
        "speedup": ref_s / fast_s,
    }


def _bench_cg(problem, budget: float) -> dict:
    cg = CriticalGreedyScheduler()

    result = cg.solve(problem, budget)
    solve_s = _time_best_cold(lambda fresh: cg.solve(fresh, budget), problem, 1)

    oracle_result = reference_solve(problem, budget)
    oracle_s = _time_once(lambda: reference_solve(problem, budget))

    _assert_equal_results(oracle_result, result, "critical-greedy")
    return {
        "solve_s_per_solve": solve_s,
        "oracle_s_per_solve": oracle_s,
        "speedup": oracle_s / solve_s,
        "steps": len(result.steps),
        "med": result.evaluation.makespan,
        "cost": result.evaluation.total_cost,
    }


def _bench_sweep(problem, levels: int) -> dict:
    cg = CriticalGreedyScheduler()
    serial_s = _time_best_cold(
        lambda fresh: sweep_budgets(fresh, [cg], levels=levels), problem, 1
    )
    return {"levels": levels, "serial_s_per_grid": serial_s}


#: The warm_stream row: cycles of one budget per equal stratum of
#: [Cmin, Cmax], each cycle shuffled — the served cold-solve pattern.
WARM_STREAM_STRATA = 16
WARM_STREAM_CYCLES = 4


def _stratified_budgets(problem) -> list[float]:
    rng = np.random.default_rng(SEED)
    lo, hi = problem.budget_range()
    width = (hi - lo) / WARM_STREAM_STRATA
    budgets: list[float] = []
    for _ in range(WARM_STREAM_CYCLES):
        cycle = [lo + (i + rng.random()) * width for i in range(WARM_STREAM_STRATA)]
        budgets += [cycle[i] for i in rng.permutation(WARM_STREAM_STRATA)]
    return budgets


def _bench_warm_stream(problem, oracle_every: int) -> dict:
    """One problem object solved at every budget vs fresh copies per budget.

    Every warm answer must equal its cold twin and — for every
    ``oracle_every``-th budget — the oracle (all of them at paper scale;
    a stress-scale oracle solve takes seconds).
    """
    cg = CriticalGreedyScheduler()
    budgets = _stratified_budgets(problem)

    copies = [_cold_copy(problem) for _ in budgets]
    gc.collect()
    start = time.perf_counter()
    cold = [cg.solve(fresh, budget) for fresh, budget in zip(copies, budgets)]
    cold_s = time.perf_counter() - start

    shared = _cold_copy(problem)
    gc.collect()
    start = time.perf_counter()
    warm = [cg.solve(shared, budget) for budget in budgets]
    warm_s = time.perf_counter() - start

    oracle_rows = 0
    for i, (budget, cold_row, warm_row) in enumerate(zip(budgets, cold, warm)):
        _assert_equal_results(cold_row, warm_row, f"warm stream [{i}] vs cold")
        if warm_row.extras != cold_row.extras:
            raise AssertionError(f"warm stream [{i}] vs cold: extras differ")
        if i % oracle_every == 0:
            _assert_equal_results(
                reference_solve(problem, budget), warm_row, f"warm stream [{i}] vs oracle"
            )
            oracle_rows += 1
    return {
        "budgets": len(budgets),
        "strata": WARM_STREAM_STRATA,
        "total_steps": sum(len(row.steps) for row in warm),
        "oracle_rows_checked": oracle_rows,
        "cold_ms_per_budget": cold_s / len(budgets) * 1e3,
        "warm_ms_per_budget": warm_s / len(budgets) * 1e3,
        "speedup": cold_s / warm_s,
    }


#: Budget levels of the sweep10 row.
SWEEP_LEVELS = 10


def _assert_equal_to_cold(cold_row, row, context: str) -> None:
    """``==`` of two whole SchedulerResults, extras included."""
    if row != cold_row or row.extras != cold_row.extras:
        raise AssertionError(f"{context}: differs from its cold twin")


def _bench_sweep10(problem, oracle_levels, repeats: int) -> dict:
    """``solve_batch`` over a 10-level sweep vs a cold ``solve`` per level.

    Each batch run gets a fresh problem copy, each cold solve its own,
    so neither starts from a memoized trace.  Every batch row must equal
    its cold twin, and the rows at ``oracle_levels`` the oracle.
    """
    cg = CriticalGreedyScheduler()
    budgets = problem.budget_levels(SWEEP_LEVELS)
    batch_s = cold_s = float("inf")
    for _ in range(repeats):
        fresh = _cold_copy(problem)
        gc.collect()
        start = time.perf_counter()
        batched = cg.solve_batch(fresh, budgets)
        batch_s = min(batch_s, time.perf_counter() - start)

        copies = [_cold_copy(problem) for _ in budgets]
        gc.collect()
        start = time.perf_counter()
        cold = [cg.solve(copy, budget) for copy, budget in zip(copies, budgets)]
        cold_s = min(cold_s, time.perf_counter() - start)

    for level, (cold_row, row) in enumerate(zip(cold, batched), start=1):
        _assert_equal_to_cold(cold_row, row, f"sweep10 level {level} vs cold")
    for idx in oracle_levels:
        _assert_equal_results(
            reference_solve(problem, budgets[idx]),
            batched[idx],
            f"sweep10 level {idx + 1} vs oracle",
        )
    return {
        "levels": SWEEP_LEVELS,
        "total_steps": sum(len(row.steps) for row in batched),
        "oracle_rows_checked": len(oracle_levels),
        "batch_s_per_sweep": batch_s,
        "cold_s_per_sweep": cold_s,
        "time_ratio": batch_s / cold_s,
    }


def run_scale(name: str) -> dict:
    size = SCALES[name]
    problem = _make_problem(size)
    budget = _mid_budget(problem)
    kernel_repeats = 20 if name == "paper" else 5
    sweep_levels = 10 if name == "paper" else 4
    return {
        "size": list(size),
        "budget": budget,
        "kernel": _bench_kernel(problem, kernel_repeats),
        "critical_greedy": _bench_cg(problem, budget),
        "sweep": _bench_sweep(problem, sweep_levels),
        "warm_stream": _bench_warm_stream(problem, 1 if name == "paper" else 16),
        # Every level against the oracle at paper scale; the middle one
        # at stress scale, where an oracle solve takes seconds.
        "sweep10": _bench_sweep10(
            problem,
            range(SWEEP_LEVELS) if name == "paper" else [SWEEP_LEVELS // 2],
            3 if name == "paper" else 1,
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=[*SCALES, "all"], default="paper")
    parser.add_argument(
        "--check",
        action="store_true",
        help="equivalence gate: exit 1 if production != oracle anywhere",
    )
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)

    names = list(SCALES) if args.scale == "all" else [args.scale]
    payload = {
        **stamp_metadata("benchmarks/bench_fastpath.py"),
        "seed": SEED,
        "scales": {},
    }
    try:
        for name in names:
            print(f"[bench_fastpath] scale={name} ...", flush=True)
            payload["scales"][name] = run_scale(name)
            cg = payload["scales"][name]["critical_greedy"]
            print(
                f"[bench_fastpath]   CG oracle {cg['oracle_s_per_solve']:.3f}s -> "
                f"solve {cg['solve_s_per_solve']:.3f}s ({cg['speedup']:.1f}x), "
                f"{cg['steps']} steps",
                flush=True,
            )
            warm = payload["scales"][name]["warm_stream"]
            print(
                f"[bench_fastpath]   warm stream of {warm['budgets']} budgets: "
                f"cold {warm['cold_ms_per_budget']:.2f} ms -> warm "
                f"{warm['warm_ms_per_budget']:.2f} ms per budget "
                f"({warm['speedup']:.1f}x), "
                f"{warm['oracle_rows_checked']} oracle rows checked",
                flush=True,
            )
            sweep10 = payload["scales"][name]["sweep10"]
            print(
                f"[bench_fastpath]   {sweep10['levels']}-level sweep: cold "
                f"{sweep10['cold_s_per_sweep']:.3f}s -> solve_batch "
                f"{sweep10['batch_s_per_sweep']:.3f}s "
                f"(time ratio {sweep10['time_ratio']:.2f}), "
                f"{sweep10['oracle_rows_checked']} oracle rows checked",
                flush=True,
            )
    except AssertionError as exc:
        print(f"[bench_fastpath] DIVERGENCE: {exc}", file=sys.stderr)
        if args.check:
            return 1
        raise

    args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"[bench_fastpath] wrote {args.out}")
    return 0


# --------------------------------------------------------------------- #
# pytest-benchmark entry points (paper scale only — CI friendly)
# --------------------------------------------------------------------- #


def bench_kernel_sweep(benchmark, save_report):
    problem = _make_problem(PAPER_SCALE)
    schedule = problem.least_cost_schedule()
    durations = schedule.durations(problem.workflow, problem.matrices)
    ref = analyze_critical_path(problem.workflow, durations, None)
    result = benchmark(fastpath.fast_critical_path, problem.workflow, durations, None)
    assert result.as_analysis() == ref
    save_report(
        "fastpath_kernel",
        f"paper-scale kernel sweep: makespan={result.makespan:.6f} "
        f"(matches reference)",
    )


def bench_critical_greedy(benchmark, save_report):
    problem = _make_problem(PAPER_SCALE)
    budget = _mid_budget(problem)
    cg = CriticalGreedyScheduler()
    ref = reference_solve(problem, budget)
    result = benchmark.pedantic(
        cg.solve,
        setup=lambda: ((_cold_copy(problem), budget), {}),
        rounds=3,
        iterations=1,
    )
    _assert_equal_results(ref, result, "critical-greedy (pytest bench)")
    save_report(
        "fastpath_cg",
        f"paper-scale CG: {len(result.steps)} steps, "
        f"MED={result.evaluation.makespan:.6f} (solve == oracle)",
    )


if __name__ == "__main__":
    sys.exit(main())
