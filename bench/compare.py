"""Compare two sets of benchmark runs, per workload and end-to-end metric.

    python3 bench/compare.py A.jsonl B.jsonl

A and B are files written by ``bench/run.py --out FILE`` (one JSON line per
run), usually the parent commit and the change, each run with the same
seeds.  For every workload in both sets and every end-to-end metric of
``BENCHMARK.json`` it prints each side's median and quartiles and a verdict:

* ``unresolved`` — either side's spread (quartile distance over median) is
  wider than the metric's bound, unless every B run reads better than every
  A run (then ``improved``);
* ``regressed`` — B's median is worse than A's by more than the bound;
* ``improved`` — there are at least ten seed-paired runs, B wins at least
  nine tenths of them and the medians differ by more than A's quartile
  distance;
* ``unchanged`` — otherwise.

It refuses to compare (exit 2) when the sets' input manifests differ, i.e.
the two sides did not send the same requests.  Exit 1 when any metric
regressed or is unresolved, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Any

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
#: Fewer seed-paired runs than this never read as ``improved``.
MIN_PAIRS = 10


def load_runs(path: Path) -> dict[str, list[dict[str, Any]]]:
    """Per workload, one ``{"seed", "manifest", "metrics"}`` entry per run in the file."""
    runs: dict[str, list[dict[str, Any]]] = defaultdict(list)
    with path.open(encoding="utf-8") as lines:
        for line in lines:
            if line.strip():
                record = json.loads(line)
                for name, report in record["workloads"].items():
                    values = {m: v["value"] for m, v in report["end_to_end"].items()}
                    runs[name].append({"seed": record["seed"], "manifest": report["manifest"], "metrics": values})
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], pairs: list[tuple[float, float]], better: str, bound: float) -> str:
    """One metric's verdict; ``pairs`` are (A, B) values of runs with the same seed."""
    a1, a_med, a3 = quartiles(a)
    b1, b_med, b3 = quartiles(b)
    lower = better == "lower"

    def beats(x: float, y: float) -> bool:
        return x < y if lower else x > y

    if (a3 - a1) / a_med > bound or (b3 - b1) / b_med > bound:
        return "improved" if all(beats(x, y) for x in b for y in a) else "unresolved"
    worse = (b_med - a_med) / a_med if lower else (a_med - b_med) / a_med
    if worse > bound:
        return "regressed"
    wins = sum(beats(y, x) for x, y in pairs)
    if len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs) and abs(b_med - a_med) > a3 - a1:
        return "improved"
    return "unchanged"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="baseline runs (JSON lines from run.py --out)")
    parser.add_argument("b", type=Path, help="candidate runs")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text())
    side_a, side_b = load_runs(args.a), load_runs(args.b)
    common = [name for name in side_a if name in side_b]
    if not common:
        print("refusing to compare: the two files share no workload", file=sys.stderr)
        return 2
    for name in common:
        inputs_a = sorted((r["seed"], r["manifest"]) for r in side_a[name])
        inputs_b = sorted((r["seed"], r["manifest"]) for r in side_b[name])
        if inputs_a != inputs_b:
            print(
                f"refusing to compare {name}: the input manifests differ "
                "(different seeds, run length or benchmark inputs)",
                file=sys.stderr,
            )
            return 2

    header = f"{'workload':<12} {'metric':<24} {'A median [q1, q3]':>30} {'B median [q1, q3]':>30} {'change':>8}  verdict"
    print(header)
    failing = 0
    for name in common:
        runs_a = sorted(side_a[name], key=lambda r: r["seed"])
        runs_b = sorted(side_b[name], key=lambda r: r["seed"])
        for metric in spec["end_to_end"]:
            key = metric["name"]
            a = [r["metrics"][key] for r in runs_a]
            b = [r["metrics"][key] for r in runs_b]
            result = verdict(a, b, list(zip(a, b)), metric["better"], metric["bound"])
            failing += result in ("regressed", "unresolved")
            qa, qb = quartiles(a), quartiles(b)
            change = (qb[1] - qa[1]) / qa[1]
            print(
                f"{name:<12} {key:<24} "
                f"{qa[1]:>12.4f} [{qa[0]:.4f}, {qa[2]:.4f}] {qb[1]:>12.4f} [{qb[0]:.4f}, {qb[2]:.4f}] "
                f"{change:>+8.1%}  {result} (bound {metric['bound']:.0%}, n={len(a)}/{len(b)})"
            )
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
