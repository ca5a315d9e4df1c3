"""Budget-sweep and algorithm-comparison harness.

The evaluation section runs the same loop over and over: take a problem
instance, derive its budget range :math:`[C_{min}, C_{max}]`, sweep a set
of budget levels, run two or more schedulers at each level, and aggregate
MEDs/improvements.  This module implements that loop once, with
deterministic seeding, so every experiment module is a thin configuration
layer on top.

Both entry points run in-process.  Budget sweeps over one workflow batch
the budget axis: a scheduler exposing ``solve_batch`` (Critical-Greedy)
solves every level in one structure-of-arrays run whose rows are
byte-identical to per-level ``solve`` calls.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.algorithms.base import Scheduler
from repro.analysis.metrics import improvement_percent, mean, med_ratio
from repro.core.problem import MedCCProblem
from repro.exceptions import ExperimentError

__all__ = [
    "BudgetSweepPoint",
    "BudgetSweepResult",
    "InstanceComparison",
    "sweep_budgets",
    "compare_on_instances",
]


@dataclass(frozen=True)
class BudgetSweepPoint:
    """MEDs of each scheduler at one budget level of one instance."""

    budget_level: int
    budget: float
    med: dict[str, float]
    cost: dict[str, float]


@dataclass(frozen=True)
class BudgetSweepResult:
    """All sweep points of one problem instance."""

    problem_size: tuple[int, int, int]
    cmin: float
    cmax: float
    points: tuple[BudgetSweepPoint, ...]

    def average_med(self, algorithm: str) -> float:
        """Mean MED of one scheduler across the sweep (Table IV columns)."""
        return mean([p.med[algorithm] for p in self.points])

    def average_improvement(self, ours: str, baseline: str) -> float:
        """Mean per-budget improvement of ``ours`` over ``baseline`` (%)."""
        return mean(
            [
                improvement_percent(p.med[baseline], p.med[ours])
                for p in self.points
            ]
        )

    def med_ratio(self, ours: str, baseline: str) -> float:
        """Ratio of average MEDs, as reported in Table IV."""
        return med_ratio(self.average_med(ours), self.average_med(baseline))


def sweep_budgets(
    problem: MedCCProblem,
    schedulers: Sequence[Scheduler],
    *,
    levels: int = 20,
    budgets: Sequence[float] | None = None,
) -> BudgetSweepResult:
    """Run every scheduler at every budget level of one instance.

    A scheduler exposing ``solve_batch`` (Critical-Greedy over
    :class:`~repro.core.fastpath.BatchedSweep`) solves every budget level
    in one structure-of-arrays run; its per-level results are
    byte-identical to serial ``solve`` calls, so the sweep points — and
    therefore every experiment built on them — are unchanged.
    Schedulers without a batch path keep the per-level loop.

    Parameters
    ----------
    levels:
        Number of uniform budget levels over ``[Cmin, Cmax]`` (§VI-B2);
        ignored when explicit ``budgets`` are given.
    budgets:
        Explicit budget values (e.g. the WRF budgets of Table VII).
    """
    if not schedulers:
        raise ExperimentError("need at least one scheduler to sweep")
    budget_values = (
        list(budgets) if budgets is not None else problem.budget_levels(levels)
    )
    med: list[dict[str, float]] = [{} for _ in budget_values]
    cost: list[dict[str, float]] = [{} for _ in budget_values]
    for scheduler in schedulers:
        solve_batch = getattr(scheduler, "solve_batch", None)
        if solve_batch is not None and len(budget_values) > 1:
            results = solve_batch(problem, budget_values)
        else:
            results = [scheduler.solve(problem, budget) for budget in budget_values]
        for idx, result in enumerate(results):
            result.assert_feasible()
            med[idx][scheduler.name] = result.med
            cost[idx][scheduler.name] = result.total_cost
    points = tuple(
        BudgetSweepPoint(
            budget_level=idx + 1, budget=float(budget), med=med[idx], cost=cost[idx]
        )
        for idx, budget in enumerate(budget_values)
    )
    return BudgetSweepResult(
        problem_size=problem.problem_size,
        cmin=problem.cmin,
        cmax=problem.cmax,
        points=points,
    )


@dataclass(frozen=True)
class InstanceComparison:
    """Aggregates of several instances of the same problem size."""

    problem_size: tuple[int, int, int]
    sweeps: tuple[BudgetSweepResult, ...]

    def average_med(self, algorithm: str) -> float:
        """Grand mean MED across instances and budget levels."""
        return mean([s.average_med(algorithm) for s in self.sweeps])

    def average_improvement(self, ours: str, baseline: str) -> float:
        """Grand mean improvement across instances and budget levels."""
        return mean([s.average_improvement(ours, baseline) for s in self.sweeps])

    def improvement_by_level(self, ours: str, baseline: str) -> list[float]:
        """Mean improvement at each budget level, across instances.

        All sweeps must share the same level count (they do when produced
        by :func:`compare_on_instances`).
        """
        levels = len(self.sweeps[0].points)
        out = []
        for idx in range(levels):
            out.append(
                mean(
                    [
                        improvement_percent(
                            s.points[idx].med[baseline], s.points[idx].med[ours]
                        )
                        for s in self.sweeps
                    ]
                )
            )
        return out


def compare_on_instances(
    make_problem,
    schedulers: Sequence[Scheduler],
    *,
    instances: int,
    levels: int = 20,
    seed: int = 0,
) -> InstanceComparison:
    """Sweep ``instances`` random instances produced by ``make_problem(rng)``.

    ``make_problem`` receives a child :class:`numpy.random.Generator` per
    instance (spawned deterministically from ``seed``), so experiments are
    reproducible and instances independent; sweeps are returned in
    instance order.
    """
    if instances < 1:
        raise ExperimentError("need at least one instance")
    sweeps = tuple(
        sweep_budgets(make_problem(rng), schedulers, levels=levels)
        for rng in np.random.default_rng(seed).spawn(instances)
    )
    return InstanceComparison(problem_size=sweeps[-1].problem_size, sweeps=sweeps)
