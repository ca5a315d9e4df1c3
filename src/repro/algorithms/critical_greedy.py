"""Critical-Greedy — the paper's heuristic for MED-CC (Algorithm 1).

Starting from the least-cost schedule, Critical-Greedy repeatedly:

1. recomputes the critical path of the currently mapped workflow
   (``O(m + |Ew|)`` per iteration);
2. among **critical** modules only, finds the reschedule (module, VM type)
   with the largest execution-time decrease :math:`\\Delta T(E_{i,j})`
   whose cost increase :math:`\\Delta C(E_{i,j})` fits in the remaining
   budget — ties broken by minimum cost increase (Alg. 1, line 13);
3. applies it and charges the remaining budget.

The loop stops when no affordable time-decreasing reschedule of a critical
module exists.  Restricting candidates to the critical path is the key
difference from the GAIN family: "Critical-Greedy collects only the
critical modules in each iteration, and makes a rescheduling decision based
primarily on the time decrease as long as it is affordable" (Section VI-A).

Termination: each applied step strictly decreases the rescheduled module's
execution time, and a module has only ``n`` distinct times, so the loop
runs at most ``m * (n - 1)`` iterations.

One production loop implements it: :meth:`CriticalGreedyScheduler.solve`
keeps one :class:`~repro.core.fastpath.IncrementalSweep` that
repropagates only the topological span a single-module upgrade can
affect (instead of a full CP sweep per iteration), and the candidate
search is a fully vectorized eps-aware lexicographic argmax
(:func:`_pick_step`) that provably selects the same (module, type) entry
as the scalar scan — falling back to the exact scalar scan in the rare
near-tie cases where the eps-chained comparisons are order-dependent.

**Trace-prefix warm start.**  The loop depends on the budget only
through its affordability cutoff, so the step sequence at budget ``b``
is the sequence at any larger budget ``B`` up to the first step ``b``
cannot afford.  ``solve`` therefore memoizes, per problem instance and
knob set (``candidate_scope``, ``transfer_aware``), the trace of the
largest budget solved so far (:attr:`MedCCProblem.step_traces`), and a
solve at ``b <= B`` replays stored step ``k`` from the state after steps
``0..k-1`` — the same columns and the same float ``cost`` the loop would
hold — while all three hold:

1. ``b - cost > _EPS`` (the loop guard);
2. ``step.cost_increase <= (b - cost) + _EPS`` (``b`` affords it);
3. the stored pick came from :func:`_pick_step_vectorized`, not the
   near-tie scan.

This is exact: ``b``'s valid set is a subset of ``B``'s (same state,
tighter cutoff) that still contains the stored winner, so the maximum
``ΔT``, the minimum tie-class ``ΔC``, the first such entry, and both
near-tie guards C1/C2 are all unchanged.  A scan pick is never
replayed: the eps-chained scan can settle on another entry once a more
expensive one drops out.  On the first failed check the loop builds its
``IncrementalSweep`` from the replayed columns (one full sweep, bitwise
equal to the incrementally maintained state) and continues as usual;
if the whole trace replays, the stored run stopped in this state for a
reason a tighter budget keeps (exhausted budget, no critical row, no
affordable move), so no sweep is built at all.  A solve above the
stored budget runs cold and replaces the trace; entries are immutable
and stored whole, so threads sharing a problem only ever see a valid
trace.

The original dict-and-networkx loop lives on as a test oracle in
:mod:`repro.algorithms.oracle`; it is not registered and nothing in
production selects it.  Production ``solve`` is byte-identical to it
(schedules, step traces, MEDs and costs — asserted by the test suite and
``benchmarks/bench_fastpath.py --check`` in CI).

:meth:`CriticalGreedyScheduler.solve_batch` solves one problem at many
budgets through the same memo: it walks the budgets in descending order,
so the largest one stores the trace and every later one replays a prefix
of it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.algorithms.base import (
    ReschedulingStep,
    SchedulerResult,
    register_scheduler,
)
from repro.core import fastpath
from repro.core.problem import MedCCProblem
from repro.core.schedule import Schedule
from repro.exceptions import ConfigurationError

__all__ = ["CriticalGreedyScheduler"]

#: Tolerance for "affordable" and "strictly positive time decrease" tests.
_EPS = 1e-9


def _pick_step_scan(
    dt_all: np.ndarray,
    dc_all: np.ndarray,
    valid: np.ndarray,
    num_types: int,
) -> tuple[int, int, float, float] | None:
    """The original scalar selection scan (Alg. 1, lines 11-13).

    Walks the valid entries in row-major (module order, type order)
    sequence with the original eps-chained comparisons.  This is the
    ground-truth selection; :func:`_pick_step` must match it bit for bit.
    """
    flat_valid = np.nonzero(valid.ravel())[0]
    if flat_valid.size == 0:
        return None
    dt_flat = dt_all.ravel()[flat_valid].tolist()
    dc_flat = dc_all.ravel()[flat_valid].tolist()
    best_dt = best_dc = 0.0
    best_flat = -1
    for position, flat in enumerate(flat_valid.tolist()):
        dt_val = dt_flat[position]
        dc_val = dc_flat[position]
        if (
            best_flat < 0
            or dt_val > best_dt + _EPS
            or (abs(dt_val - best_dt) <= _EPS and dc_val < best_dc - _EPS)
        ):
            best_dt, best_dc, best_flat = dt_val, dc_val, flat
    return best_flat // num_types, best_flat % num_types, best_dt, best_dc


#: Sentinel returned by :func:`_pick_step_vectorized` for a grid whose
#: near-tie guards tripped: the caller must run the exact scalar scan.
_NEAR_TIE = object()


def _pick_step(
    dt_all: np.ndarray,
    dc_all: np.ndarray,
    valid: np.ndarray,
    num_types: int,
) -> tuple[int, int, float, float] | None:
    """Vectorized eps-aware lexicographic argmax over valid entries.

    Returns the same ``(row, type, dt, dc)`` the scalar scan
    (:func:`_pick_step_scan`) selects, or ``None`` when no entry is
    valid: :func:`_pick_step_vectorized`, falling back to the scan when
    that reports a near tie.
    """
    picked = _pick_step_vectorized(dt_all, dc_all, valid, num_types)
    if picked is _NEAR_TIE:
        return _pick_step_scan(dt_all, dc_all, valid, num_types)
    return picked


def _pick_step_vectorized(
    dt_all: np.ndarray,
    dc_all: np.ndarray,
    valid: np.ndarray,
    num_types: int,
) -> tuple[int, int, float, float] | None | object:
    """:func:`_pick_step`'s vectorized path, or :data:`_NEAR_TIE`.

    Returns the scan's ``(row, type, dt, dc)`` selection (``None`` when
    no entry is valid) whenever it is provably order-independent.  The
    scan's chained ``_EPS`` comparisons are order-dependent only in two
    narrow situations, both detected vectorized; then the result is the
    :data:`_NEAR_TIE` sentinel and the caller runs the exact scan:

    * **C1** — some valid ``dt`` lies strictly within ``_EPS`` below the
      maximum ``M``.  Otherwise every update of the scan's running
      ``best_dt`` either jumps straight to ``M`` (any previous best is
      ``< M - _EPS``, so the strict-improvement branch fires on the
      first ``M`` entry) or already equals ``M``, hence the final
      ``best_dt`` is exactly ``M`` and only exact-``M`` entries pass the
      later ``abs(dt - best_dt) <= _EPS`` tie test.
    * **C2** — some ``dc`` of the exact-``M`` class lies in
      ``(m2, m2 + _EPS]`` for the class minimum ``m2``.  Otherwise any
      running ``best_dc > m2`` is ``> m2 + _EPS``, so scanning the first
      ``m2`` entry always fires the tie-break update and later ``m2``
      duplicates never do — the winner is the first exact-``M`` entry
      with ``dc == m2``.

    Guards trip only on ties within ``(0, _EPS]`` of each other — absent
    from every catalog in the test corpus, but possible.  Both guards and
    the winner are monotone under shrinking ``valid``: dropping entries
    other than the winner can neither trip a guard nor move the pick,
    which is what lets :meth:`CriticalGreedyScheduler.solve` replay a
    vectorized pick at a tighter budget (see the module docstring).
    """
    if dt_all.size == 0:
        return None
    dt_masked = np.where(valid, dt_all, -np.inf)
    best_dt = float(dt_masked.max())
    if best_dt == -np.inf:
        return None
    if bool(np.any((dt_masked >= best_dt - _EPS) & (dt_masked < best_dt))):
        return _NEAR_TIE
    tie = valid & (dt_all == best_dt)
    dc_masked = np.where(tie, dc_all, np.inf)
    best_dc = float(dc_masked.min())
    if bool(np.any((dc_masked > best_dc) & (dc_masked <= best_dc + _EPS))):
        return _NEAR_TIE
    flat = int(np.argmax((tie & (dc_all == best_dc)).ravel()))
    return flat // num_types, flat % num_types, best_dt, best_dc


class _Trace(NamedTuple):
    """A memoized Critical-Greedy run: the largest budget solved so far.

    ``rows[k]``/``steps[k]`` are step ``k``'s TE/CE row and step record;
    only the first ``replayable`` steps came from the vectorized pick
    (:func:`_pick_step_vectorized`), so only those may be replayed.
    """

    budget: float
    rows: tuple[int, ...]
    steps: tuple[ReschedulingStep, ...]
    replayable: int


@register_scheduler("critical-greedy")
@dataclass
class CriticalGreedyScheduler:
    """The paper's Critical-Greedy (CG) heuristic.

    Parameters
    ----------
    candidate_scope:
        ``"critical"`` (the paper's algorithm) restricts rescheduling
        candidates to zero-buffer modules; ``"all"`` considers every module
        (ablation: isolates the effect of the critical-path restriction
        from the ΔT-first criterion).
    transfer_aware:
        When the problem carries a non-trivial transfer model, the critical
        path already includes transfer times, so CG is transfer-aware by
        construction; this flag is reserved to *disable* that (evaluate the
        CP on execution times only) for ablation.
    """

    candidate_scope: str = "critical"
    transfer_aware: bool = True
    name = "critical-greedy"
    #: The loop reported in the service's result fragment.  A plain class
    #: attribute like ``name``: not a knob, not in ``declared_params``.
    engine = "incremental"

    def __post_init__(self) -> None:
        if self.candidate_scope not in ("critical", "all"):
            raise ConfigurationError(
                f"candidate_scope must be 'critical' or 'all', "
                f"got {self.candidate_scope!r}"
            )

    def solve(self, problem: MedCCProblem, budget: float) -> SchedulerResult:
        """Run Algorithm 1 and return the schedule, MED and full trace.

        Starts from the longest prefix of the problem's memoized trace
        (:attr:`MedCCProblem.step_traces`) that provably repeats at
        ``budget``, then runs the loop from there; a cold solve stores
        its own trace.  See the module docstring for the replay rule.
        """
        problem.check_feasible(budget)
        matrices = problem.matrices
        te, ce = matrices.te, matrices.ce
        num_modules, num_types = matrices.num_modules, matrices.num_types
        module_names = matrices.module_names

        # Least-cost start (Alg. 1, step 2) and its (transfer-inclusive)
        # total cost, exactly as the oracle computes them.
        columns = [int(j) for j in matrices.least_cost_choice()]
        cost = problem.cost_of(Schedule._adopt(dict(zip(module_names, columns))))

        memo_key = (self.candidate_scope, self.transfer_aware)
        stored = problem.step_traces.get(memo_key)
        warm = stored is not None and budget <= stored.budget
        rows: list[int] = []
        steps: list[ReschedulingStep] = []
        if warm:
            for row, step in zip(stored.rows[: stored.replayable], stored.steps):
                extra = budget - cost
                if not (extra > _EPS and step.cost_increase <= extra + _EPS):
                    break
                columns[row] = step.to_type
                cost = step.cost_after
                rows.append(row)
                steps.append(step)
            if len(steps) == len(stored.steps):
                # The stored run stopped here, and so does this one.
                return self._result(problem, budget, columns, steps)

        index = fastpath.graph_index(problem.workflow)
        rows_arange = np.arange(num_modules)
        current_te = te[rows_arange, columns]
        current_ce = ce[rows_arange, columns]
        durations = list(index.base_durations)
        for row, node in enumerate(index.sched_nodes):
            durations[node] = float(current_te[row])
        # Built straight on the start columns: one full sweep.
        sweep = fastpath.IncrementalSweep(
            problem.workflow,
            dict(zip(index.names, durations)),
            transfer_times=problem.transfer_times if self.transfer_aware else None,
        )

        # Whole dt/dc matrices, maintained incrementally: only the
        # upgraded module's row changes between iterations, and the
        # refresh repeats the exact subtraction a full rebuild would
        # perform, so every entry stays bit-identical to it.
        dt_all = current_te[:, None] - te
        dc_all = ce - current_ce[:, None]

        # Steps before the first near-tie (scan) pick: only those replay.
        replayable: int | None = None
        scope_all = self.candidate_scope == "all"
        while budget - cost > _EPS:
            extra = budget - cost
            affordable = (dt_all > _EPS) & (dc_all <= extra + _EPS)
            if scope_all:
                valid = affordable
            else:
                critical = sweep.critical_rows()
                if not critical.any():
                    break
                valid = affordable & critical[:, None]
            picked = _pick_step_vectorized(dt_all, dc_all, valid, num_types)
            if picked is _NEAR_TIE:
                if replayable is None:
                    replayable = len(steps)
                picked = _pick_step_scan(dt_all, dc_all, valid, num_types)
            if picked is None:
                break
            row, j, best_dt, best_dc = picked

            module = module_names[row]
            from_type = columns[row]
            columns[row] = j
            new_time = float(te[row, j])
            current_te[row] = new_time
            current_ce[row] = ce[row, j]
            dt_all[row, :] = current_te[row] - te[row, :]
            dc_all[row, :] = ce[row, :] - current_ce[row]
            cost += best_dc
            makespan = sweep.set_row_duration(row, new_time)
            rows.append(row)
            steps.append(
                ReschedulingStep(
                    module=module,
                    from_type=from_type,
                    to_type=j,
                    time_decrease=best_dt,
                    cost_increase=best_dc,
                    makespan_after=makespan,
                    cost_after=cost,
                )
            )

        if not warm:
            # One dict store of an immutable entry: threads sharing the
            # problem may overwrite each other, but only with a whole,
            # valid trace.
            problem.step_traces[memo_key] = _Trace(
                budget=budget,
                rows=tuple(rows),
                steps=tuple(steps),
                replayable=len(steps) if replayable is None else replayable,
            )
        return self._result(problem, budget, columns, steps)

    def solve_batch(
        self, problem: MedCCProblem, budgets: Sequence[float]
    ) -> list[SchedulerResult]:
        """Solve one problem at many budgets; results in input order.

        Result ``i`` is byte-identical to ``solve(problem, budgets[i])``.
        Every budget is checked before any is solved, so an infeasible
        one raises :class:`~repro.exceptions.InfeasibleBudgetError` with
        no work done.  The budgets are solved largest first: the first
        solve stores the problem's trace memo and every later one
        replays a prefix of it.
        """
        budget_list = [float(b) for b in budgets]
        for budget in budget_list:
            problem.check_feasible(budget)
        order = sorted(
            range(len(budget_list)), key=budget_list.__getitem__, reverse=True
        )
        solved = {i: self.solve(problem, budget_list[i]) for i in order}
        return [solved[i] for i in range(len(budget_list))]

    def _result(
        self,
        problem: MedCCProblem,
        budget: float,
        columns: list[int],
        steps: Sequence[ReschedulingStep],
    ) -> SchedulerResult:
        schedule = Schedule._adopt(dict(zip(problem.matrices.module_names, columns)))
        if self.transfer_aware:
            evaluation = problem.evaluate(schedule)
        else:
            evaluation = schedule.evaluate(problem.workflow, problem.matrices, None)
        return SchedulerResult(
            algorithm=self.name,
            schedule=schedule,
            evaluation=evaluation,
            budget=budget,
            steps=tuple(steps),
            extras={"iterations": len(steps)},
        )
