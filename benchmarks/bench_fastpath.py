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
  - a serial budget sweep (s per grid, ``sweep_budgets``),

  and asserts the production results are *identical* (schedule, step
  trace, MED, cost — no tolerance) to the oracle.  ``--check`` exits
  non-zero on any divergence, which is the CI perf-smoke gate; wall
  clock is recorded but never gated, so CI stays robust to noisy
  runners.

Scales: ``paper`` is the largest size of the paper's Fig. 9 grid,
(m, |Ew|, n) = (100, 2344, 9); ``stress`` is (1000, 3000, 10) — the
acceptance scale for the >= 5x Critical-Greedy speedup.
"""

from __future__ import annotations

import argparse
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
    solve_s = _time_once(lambda: cg.solve(problem, budget))

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
    sweep_budgets(problem, [cg], levels=levels)
    serial_s = _time_once(lambda: sweep_budgets(problem, [cg], levels=levels))
    return {"levels": levels, "serial_s_per_grid": serial_s}


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
    result = benchmark.pedantic(cg.solve, args=(problem, budget), rounds=3, iterations=1)
    _assert_equal_results(ref, result, "critical-greedy (pytest bench)")
    save_report(
        "fastpath_cg",
        f"paper-scale CG: {len(result.steps)} steps, "
        f"MED={result.evaluation.makespan:.6f} (solve == oracle)",
    )


if __name__ == "__main__":
    sys.exit(main())
