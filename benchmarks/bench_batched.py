"""Perf + identity harness for the batched (SoA) Critical-Greedy kernel.

Two entry points:

* ``pytest benchmarks/bench_batched.py --benchmark-only`` — paper-scale
  pytest-benchmark run of a 10-level batched budget sweep with the
  per-row identity asserted before timing;
* ``python benchmarks/bench_batched.py [--scale paper|stress|all]
  [--check] [--gate-ratio R] [--out PATH]`` — the JSON emitter behind
  ``BENCH_batched.json``: for each scale it runs a 10-level budget sweep
  three ways

  - ``batched`` — one :meth:`CriticalGreedyScheduler.solve_batch` call
    over :class:`repro.core.fastpath.BatchedSweep` (all budgets in one
    structure-of-arrays run, prefix-sharing the common step work),
  - ``serial`` — one production ``solve`` per budget, the loop the
    sweeps used before,
  - ``reference`` — the test oracle
    (:func:`repro.algorithms.oracle.reference_solve`, the original
    dict/networkx loop; every paper-scale row, one mid row at stress
    scale, where a full oracle sweep would take minutes),

  and asserts every batched row is *identical* (schedule, step trace,
  MED, cost, extras — no tolerance, byte for byte) to its serial and
  oracle counterparts.

``--check`` exits non-zero on any divergence — the CI identity gate.
``--gate-ratio R`` additionally fails the run if the batched sweep is
slower than ``R ×`` the serial sweep on any measured scale;
CI uses ``1.0`` on stress (never slower than the loop it replaces —
absolute wall clock is never gated, so noisy runners cannot break the
build).

Scales match ``bench_fastpath.py``: ``paper`` is (m, |Ew|, n) =
(100, 2344, 9), ``stress`` is (1000, 3000, 10) — the acceptance scale
for the >= 3x batched-over-serial speedup.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path

from bench_fastpath import (
    SCALES,
    SEED,
    _assert_equal_results,
    _make_problem,
    _time_best,
    _time_best_cold,
)
from bench_meta import stamp_metadata

from repro.algorithms.critical_greedy import CriticalGreedyScheduler
from repro.algorithms.oracle import reference_solve

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_batched.json"

#: Budget levels per sweep — the acceptance-criteria grid width.
LEVELS = 10


def _assert_row_identical(expected, actual, context: str) -> None:
    """Byte-for-byte identity of one batched row against an oracle."""
    _assert_equal_results(expected, actual, context)
    if expected.extras != actual.extras:
        raise AssertionError(f"{context}: extras differ")
    if expected.budget != actual.budget:
        raise AssertionError(f"{context}: budgets differ")


def run_scale(name: str, *, check_reference: bool = True) -> dict:
    size = SCALES[name]
    problem = _make_problem(size)
    budgets = problem.budget_levels(LEVELS)
    repeats = 3 if name == "paper" else 2

    cg = CriticalGreedyScheduler()

    batched = cg.solve_batch(problem, budgets)
    serial = [cg.solve(problem, budget) for budget in budgets]
    for level, (batched_row, serial_row) in enumerate(zip(batched, serial), start=1):
        _assert_row_identical(
            serial_row, batched_row, f"{name} level {level}: batched vs serial"
        )

    reference_rows = 0
    if check_reference:
        # Every row at paper scale; a full oracle sweep at stress scale
        # would take minutes, so CI-honesty is one mid row there.
        check_levels = (
            range(len(budgets)) if name == "paper" else [len(budgets) // 2]
        )
        for idx in check_levels:
            _assert_row_identical(
                reference_solve(problem, budgets[idx]),
                batched[idx],
                f"{name} level {idx + 1}: batched vs reference",
            )
            reference_rows += 1

    # Both contenders are warm (first runs above); each serial repeat
    # solves a fresh problem copy, so no memoized trace replays.
    gc.collect()
    batched_s = _time_best(lambda: cg.solve_batch(problem, budgets), repeats)
    gc.collect()
    serial_s = _time_best_cold(
        lambda fresh: [cg.solve(fresh, budget) for budget in budgets], problem, repeats
    )

    return {
        "size": list(size),
        "levels": LEVELS,
        "budget_lo": budgets[0],
        "budget_hi": budgets[-1],
        "total_steps": sum(len(row.steps) for row in batched),
        "reference_rows_checked": reference_rows,
        "batched_s_per_sweep": batched_s,
        "serial_s_per_sweep": serial_s,
        "speedup_vs_serial": serial_s / batched_s,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=[*SCALES, "all"], default="all")
    parser.add_argument(
        "--check",
        action="store_true",
        help="identity gate: exit 1 if any batched row diverges from the "
        "serial solve or the reference oracle",
    )
    parser.add_argument(
        "--gate-ratio",
        type=float,
        default=None,
        metavar="R",
        help="fail if the batched sweep is slower than R x the serial "
        "sweep on any measured scale (CI uses 1.0 on stress)",
    )
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)

    names = list(SCALES) if args.scale == "all" else [args.scale]
    payload = {
        **stamp_metadata("benchmarks/bench_batched.py"),
        "seed": SEED,
        "scales": {},
    }
    try:
        for name in names:
            print(f"[bench_batched] scale={name} ...", flush=True)
            payload["scales"][name] = run_scale(name)
            scale = payload["scales"][name]
            print(
                f"[bench_batched]   {LEVELS}-level sweep: serial "
                f"{scale['serial_s_per_sweep']:.3f}s -> batched "
                f"{scale['batched_s_per_sweep']:.3f}s "
                f"({scale['speedup_vs_serial']:.2f}x), "
                f"{scale['total_steps']} steps, "
                f"{scale['reference_rows_checked']} reference rows checked",
                flush=True,
            )
    except AssertionError as exc:
        print(f"[bench_batched] DIVERGENCE: {exc}", file=sys.stderr)
        if args.check:
            return 1
        raise

    if args.gate_ratio is not None:
        for name, scale in payload["scales"].items():
            if scale["batched_s_per_sweep"] > args.gate_ratio * scale["serial_s_per_sweep"]:
                print(
                    f"[bench_batched] REGRESSION: scale={name} batched "
                    f"{scale['batched_s_per_sweep']:.3f}s > "
                    f"{args.gate_ratio:g} x serial "
                    f"{scale['serial_s_per_sweep']:.3f}s",
                    file=sys.stderr,
                )
                return 1

    args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"[bench_batched] wrote {args.out}")
    return 0


# --------------------------------------------------------------------- #
# pytest-benchmark entry point (paper scale only — CI friendly)
# --------------------------------------------------------------------- #


def bench_critical_greedy_batched(benchmark, save_report):
    problem = _make_problem(SCALES["paper"])
    budgets = problem.budget_levels(LEVELS)
    cg = CriticalGreedyScheduler()
    serial = [cg.solve(problem, budget) for budget in budgets]
    batched = benchmark.pedantic(
        cg.solve_batch, args=(problem, budgets), rounds=3, iterations=1
    )
    for level, (serial_row, batched_row) in enumerate(zip(serial, batched), start=1):
        _assert_row_identical(
            serial_row, batched_row, f"pytest bench level {level}"
        )
    save_report(
        "batched_cg",
        f"paper-scale {LEVELS}-level batched sweep: "
        f"{sum(len(row.steps) for row in batched)} steps across rows, "
        f"every row == serial solve",
    )


if __name__ == "__main__":
    sys.exit(main())
