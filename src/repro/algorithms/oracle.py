"""Test oracle for Critical-Greedy: the original dict-and-networkx loop.

:func:`reference_solve` is Algorithm 1 written the plain way: name-keyed
schedules, a scalar candidate scan, and a full critical-path analysis
through :func:`repro.core.critical_path.analyze_critical_path` after
every step.  It is the ground truth that the production loop —
:meth:`CriticalGreedyScheduler.solve` over an
:class:`~repro.core.fastpath.IncrementalSweep`, cold or warm-started
from the trace memo — must match byte for byte: same schedule, step
trace, MED and cost.

The module is deliberately not registered with the scheduler registry
and nothing in production imports it; the equivalence tests and
``benchmarks/bench_fastpath.py`` call it directly.
"""

from __future__ import annotations

from repro.algorithms.base import ReschedulingStep, SchedulerResult
from repro.algorithms.critical_greedy import _EPS, CriticalGreedyScheduler
from repro.core.critical_path import analyze_critical_path
from repro.core.problem import MedCCProblem
from repro.core.schedule import Schedule, ScheduleEvaluation

__all__ = ["reference_solve"]


def _evaluate(
    problem: MedCCProblem, schedule: Schedule, transfer_aware: bool
) -> ScheduleEvaluation:
    """Cost and makespan through the dict-based critical-path analysis.

    Mirrors :meth:`MedCCProblem.evaluate` (transfer-aware) and
    ``Schedule.evaluate(..., None)`` (transfer-blind) without the array
    kernel: durations by name, then ``analyze_critical_path``.
    """
    transfer_times = (problem.transfer_times or None) if transfer_aware else None
    durations = schedule.durations(problem.workflow, problem.matrices)
    analysis = analyze_critical_path(problem.workflow, durations, transfer_times)
    total_cost = schedule.total_cost(problem.matrices)
    if transfer_aware and problem.transfer_cost_total:
        total_cost += problem.transfer_cost_total
    return ScheduleEvaluation(
        schedule=schedule,
        total_cost=total_cost,
        makespan=analysis.makespan,
        analysis=analysis,
    )


def reference_solve(
    problem: MedCCProblem,
    budget: float,
    *,
    candidate_scope: str = "critical",
    transfer_aware: bool = True,
) -> SchedulerResult:
    """Critical-Greedy (Alg. 1) at ``budget``, the original way.

    ``candidate_scope`` and ``transfer_aware`` mean what they mean on
    :class:`~repro.algorithms.critical_greedy.CriticalGreedyScheduler`.
    """
    problem.check_feasible(budget)
    matrices = problem.matrices
    te, ce = matrices.te, matrices.ce
    row = matrices.row_index

    current: Schedule = problem.least_cost_schedule()
    # Total cost includes the schedule-independent transfer charges
    # (zero in the paper's single-cloud setting, non-zero in the
    # multi-cloud extension) so the budget comparison stays honest.
    cost = problem.cost_of(current)
    steps: list[ReschedulingStep] = []
    evaluation = _evaluate(problem, current, transfer_aware)

    while budget - cost > _EPS:
        extra = budget - cost
        if candidate_scope == "critical":
            candidates = evaluation.analysis.critical_schedulable()
        else:
            candidates = problem.workflow.schedulable_names

        # Alg. 1, lines 11-13: the largest affordable time decrease,
        # ties broken by the smallest cost increase (then module/type
        # order for full determinism).
        best: tuple[float, float, str, int] | None = None
        for module in candidates:
            i = row[module]
            j_cur = current[module]
            t_old = te[i, j_cur]
            c_old = ce[i, j_cur]
            for j in range(matrices.num_types):
                if j == j_cur:
                    continue
                dt = t_old - te[i, j]
                dc = ce[i, j] - c_old
                if dt <= _EPS or dc > extra + _EPS:
                    continue
                if best is None or dt > best[0] + _EPS or (
                    abs(dt - best[0]) <= _EPS and dc < best[1] - _EPS
                ):
                    best = (dt, dc, module, j)

        if best is None:
            break

        dt, dc, module, j = best
        from_type = current[module]
        current = current.with_assignment(module, j)
        cost += dc
        evaluation = _evaluate(problem, current, transfer_aware)
        steps.append(
            ReschedulingStep(
                module=module,
                from_type=from_type,
                to_type=j,
                time_decrease=dt,
                cost_increase=dc,
                makespan_after=evaluation.makespan,
                cost_after=cost,
            )
        )

    return SchedulerResult(
        algorithm=CriticalGreedyScheduler.name,
        schedule=current,
        evaluation=evaluation,
        budget=budget,
        steps=tuple(steps),
        extras={"iterations": len(steps)},
    )
