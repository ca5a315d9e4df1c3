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
near-tie guards C1/C2 are all unchanged — the argument ``solve_batch``
uses for its group picks.  A scan pick is never replayed: the
eps-chained scan can settle on another entry once a more expensive one
drops out.  On the first failed check the loop builds its
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
production selects it.  Production ``solve`` and ``solve_batch`` are
byte-identical to it (schedules, step traces, MEDs and costs — asserted
by the test suite and ``benchmarks/bench_fastpath.py --check`` in CI).

On top of that loop, :meth:`CriticalGreedyScheduler.solve_batch`
solves one problem at **B budgets simultaneously** over a single
:class:`~repro.core.fastpath.BatchedSweep`.  The key structural fact it
exploits: Critical-Greedy's step sequence at budget ``b`` is (almost
always) a prefix of the sequence at any larger budget — the pick depends
on the remaining budget only through the *affordability cutoff*, so two
budget rows whose cutoffs both admit the winning entry take the same
step.  Rows therefore advance in shared **groups** (identical columns,
cost and sweep state); each Critical-Greedy step costs one span-scan
repropagation and one vectorized argmax *per group* instead of per row,
and a measured 10-level sweep shares ~5.4x of its step work.  A row
splits off into its own group (one state copy) exactly when it can no
longer afford the group's chosen step, and retires into the result
vector when its remaining budget is exhausted.  Every row's schedule
and step trace is byte-identical to a serial ``solve`` at its budget —
the near-tie guards of :func:`_pick_step` are inherited unchanged (a
group whose pick is eps-ambiguous falls back to exact per-row scalar
scans), and ``tests/algorithms/test_critical_greedy_batch.py`` plus
``benchmarks/bench_batched.py --check`` assert the identity.
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
    result_validation_enabled,
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


#: Sentinel returned by :func:`_pick_step_vectorized` and
#: :func:`_pick_steps_batched` for a grid whose near-tie guards tripped:
#: the caller must run the exact scalar scan.
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


def _pick_steps_batched(
    dt3: np.ndarray,
    dc3: np.ndarray,
    valid3: np.ndarray,
    num_types: int,
) -> list[tuple[int, int, float, float] | None | object]:
    """:func:`_pick_step` for G stacked grids in one numpy pass.

    ``dt3``/``dc3``/``valid3`` are ``(G, m, n)`` stacks — one
    ΔT/ΔC/validity grid per group.  Element ``g`` of the result is what
    ``_pick_step(dt3[g], dc3[g], valid3[g], num_types)`` would return on
    its vectorized path (``None`` when nothing is valid), or the
    :data:`_NEAR_TIE` sentinel when that group's eps guards (C1/C2 in
    :func:`_pick_step`) would trip — the caller then runs the exact
    scalar scan for that group alone.  All reductions are ``max`` /
    ``min`` / ``any`` over the grid axes (exact, order-independent), and
    the per-group thresholds ``best_dt - _EPS`` / ``best_dc + _EPS`` are
    the same IEEE double operations as the 2-D version, so the
    selections agree bit for bit.
    """
    groups = dt3.shape[0]
    dt_masked = np.where(valid3, dt3, -np.inf)
    best_dt = dt_masked.reshape(groups, -1).max(axis=1)
    none_mask = best_dt == -np.inf
    c1 = np.any(
        (dt_masked >= (best_dt - _EPS)[:, None, None])
        & (dt_masked < best_dt[:, None, None]),
        axis=(1, 2),
    )
    tie = valid3 & (dt3 == best_dt[:, None, None])
    dc_masked = np.where(tie, dc3, np.inf)
    best_dc = dc_masked.reshape(groups, -1).min(axis=1)
    c2 = np.any(
        (dc_masked > best_dc[:, None, None])
        & (dc_masked <= (best_dc + _EPS)[:, None, None]),
        axis=(1, 2),
    )
    winner_flat = np.argmax(
        (tie & (dc3 == best_dc[:, None, None])).reshape(groups, -1), axis=1
    )
    fallback = (c1 | c2) & ~none_mask
    picks: list[tuple[int, int, float, float] | None | object] = []
    for g in range(groups):
        if none_mask[g]:
            picks.append(None)
        elif fallback[g]:
            picks.append(_NEAR_TIE)
        else:
            flat = int(winner_flat[g])
            picks.append(
                (
                    flat // num_types,
                    flat % num_types,
                    float(best_dt[g]),
                    float(best_dc[g]),
                )
            )
    return picks


class _BatchGroup:
    """One group of budget rows advancing in lock-step through Alg. 1.

    All member rows share *identical* solver state — columns, cost,
    current te/ce, ΔT/ΔC grids, step trace, and one
    :class:`~repro.core.fastpath.BatchedSweep` slot — because they have
    applied exactly the same step sequence so far.  Splitting a group
    copies this state once for the rows that diverge.
    """

    __slots__ = (
        "slot",
        "members",
        "columns",
        "cost",
        "current_te",
        "current_ce",
        "dt_all",
        "dc_all",
        "steps",
    )

    def __init__(
        self,
        slot: int,
        members: list[int],
        columns: list[int],
        cost: float,
        current_te: np.ndarray,
        current_ce: np.ndarray,
        dt_all: np.ndarray,
        dc_all: np.ndarray,
        steps: list[ReschedulingStep],
    ) -> None:
        self.slot = slot
        self.members = members
        self.columns = columns
        self.cost = cost
        self.current_te = current_te
        self.current_ce = current_ce
        self.dt_all = dt_all
        self.dc_all = dc_all
        self.steps = steps

    def fork(self, slot: int, members: list[int]) -> "_BatchGroup":
        """A deep-enough copy for ``members`` to diverge independently."""
        return _BatchGroup(
            slot=slot,
            members=members,
            columns=list(self.columns),
            cost=self.cost,
            current_te=self.current_te.copy(),
            current_ce=self.current_ce.copy(),
            dt_all=self.dt_all.copy(),
            dc_all=self.dc_all.copy(),
            steps=list(self.steps),
        )


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
        transfer_times = problem.transfer_times if self.transfer_aware else None
        sweep = fastpath.IncrementalSweep(
            problem.workflow, transfer_times=transfer_times
        )

        rows_arange = np.arange(num_modules)
        current_te = te[rows_arange, columns]
        current_ce = ce[rows_arange, columns]
        durations = list(index.base_durations)
        for row, node in enumerate(index.sched_nodes):
            durations[node] = float(current_te[row])
        makespan = sweep.reset_vector(durations)

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
        """Solve one problem at many budgets in one batched run.

        Result ``i`` is byte-identical to ``solve(problem, budgets[i])``
        — same schedule, step trace, MED and cost — but the rows advance
        through Algorithm 1 in shared groups over one
        :class:`~repro.core.fastpath.BatchedSweep`, so the total step
        work scales with the number of *distinct* step-sequence
        suffixes instead of the sum of trace lengths (see the module
        docstring).  A single budget falls back to a serial solve, so
        callers can use this unconditionally.

        Raises :class:`~repro.exceptions.InfeasibleBudgetError` on the
        first infeasible budget, before any row is solved — exactly
        where a serial loop over ``budgets`` would raise.
        """
        budget_list = [float(b) for b in budgets]
        if not budget_list:
            return []
        if len(budget_list) == 1:
            return [self.solve(problem, budget_list[0])]
        for budget in budget_list:
            problem.check_feasible(budget)
        results = self._solve_batch_incremental(problem, budget_list)
        # Registered schedulers get their solve() wrapped by the lint
        # validation hook; the batched path applies the same audit per
        # row so REPRO_VALIDATE_RESULTS covers both entry points.
        if result_validation_enabled():
            from repro.lint import check_scheduler_result

            for result in results:
                check_scheduler_result(problem, result, respects_budget=True)
        return results

    # ------------------------------------------------------------------ #
    # Batched loop: B budgets over one BatchedSweep
    # ------------------------------------------------------------------ #

    def _solve_batch_incremental(
        self, problem: MedCCProblem, budgets: list[float]
    ) -> list[SchedulerResult]:
        matrices = problem.matrices
        te, ce = matrices.te, matrices.ce
        num_types = matrices.num_types
        module_names = matrices.module_names
        batch = len(budgets)

        index = fastpath.graph_index(problem.workflow)
        transfer_times = problem.transfer_times if self.transfer_aware else None
        sweep = fastpath.BatchedSweep(
            problem.workflow, batch, transfer_times=transfer_times
        )

        # Least-cost start (Alg. 1, step 2), computed once — every budget
        # row starts from the same schedule, cost and sweep state.
        columns0 = [int(j) for j in matrices.least_cost_choice()]
        cost0 = problem.cost_of(Schedule._adopt(dict(zip(module_names, columns0))))
        rows_arange = np.arange(matrices.num_modules)
        current_te = te[rows_arange, columns0]
        current_ce = ce[rows_arange, columns0]
        durations = list(index.base_durations)
        for row, node in enumerate(index.sched_nodes):
            durations[node] = float(current_te[row])
        slot0 = sweep.acquire_slot()
        sweep.reset_slot(slot0, durations)

        root = _BatchGroup(
            slot=slot0,
            members=list(range(batch)),
            columns=columns0,
            cost=cost0,
            current_te=current_te,
            current_ce=current_ce,
            dt_all=current_te[:, None] - te,
            dc_all=ce - current_ce[:, None],
            steps=[],
        )
        finished: list[tuple[list[int], tuple[ReschedulingStep, ...]] | None]
        finished = [None] * batch
        scope_all = self.candidate_scope == "all"

        def retire(group: _BatchGroup, members: list[int]) -> None:
            # Snapshot the rows' final state; their serial loop ends here.
            for b in members:
                finished[b] = (list(group.columns), tuple(group.steps))

        def apply_step(
            group: _BatchGroup, row: int, j: int, best_dt: float, best_dc: float
        ) -> None:
            # The exact per-step state refresh of solve().
            module = module_names[row]
            from_type = group.columns[row]
            group.columns[row] = j
            new_time = float(te[row, j])
            group.current_te[row] = new_time
            group.current_ce[row] = ce[row, j]
            group.dt_all[row, :] = group.current_te[row] - te[row, :]
            group.dc_all[row, :] = ce[row, :] - group.current_ce[row]
            group.cost += best_dc
            makespan = sweep.set_row_duration(group.slot, row, new_time)
            group.steps.append(
                ReschedulingStep(
                    module=module,
                    from_type=from_type,
                    to_type=j,
                    time_decrease=best_dt,
                    cost_increase=best_dc,
                    makespan_after=makespan,
                    cost_after=group.cost,
                )
            )

        def split_near_tie(
            group: _BatchGroup, crit_mask: np.ndarray | None
        ) -> list[_BatchGroup]:
            # A near-tie guard tripped at the group's loosest cutoff: the
            # shared pick is no longer provably right for every member, so
            # run the exact serial selection per row and regroup rows that
            # picked the same entry.  _pick_step at a row's own cutoff is
            # the serial loop's selection, guards and all.
            picked_by_key: dict[tuple[int, int], tuple] = {}
            members_by_key: dict[tuple[int, int] | None, list[int]] = {}
            order: list[tuple[int, int] | None] = []
            for b in group.members:
                extra_b = budgets[b] - group.cost
                affordable_b = (group.dt_all > _EPS) & (
                    group.dc_all <= extra_b + _EPS
                )
                valid_b = (
                    affordable_b
                    if crit_mask is None
                    else affordable_b & crit_mask[:, None]
                )
                picked_b = _pick_step(group.dt_all, group.dc_all, valid_b, num_types)
                key = None if picked_b is None else (picked_b[0], picked_b[1])
                if key not in members_by_key:
                    members_by_key[key] = []
                    order.append(key)
                    if picked_b is not None:
                        picked_by_key[key] = picked_b
                members_by_key[key].append(b)
            # Fork every diverging subgroup from the *pre-step* state
            # before any step is applied; the first live key keeps the
            # original slot.
            subgroups: list[tuple[_BatchGroup, tuple]] = []
            reused_original = False
            for key in order:
                if key is None:
                    retire(group, members_by_key[key])
                    continue
                if not reused_original:
                    group.members = members_by_key[key]
                    subgroups.append((group, picked_by_key[key]))
                    reused_original = True
                else:
                    new_slot = sweep.acquire_slot()
                    sweep.copy_slot(group.slot, new_slot)
                    subgroups.append(
                        (group.fork(new_slot, members_by_key[key]), picked_by_key[key])
                    )
            if not reused_original:
                sweep.release_slot(group.slot)
            out = []
            for sub, picked in subgroups:
                row, j, best_dt, best_dc = picked
                apply_step(sub, row, j, best_dt, best_dc)
                out.append(sub)
            return out

        groups = [root]
        while groups:
            # Retire rows whose remaining budget is exhausted — the
            # serial loop guard ``budget - cost > _EPS`` evaluated with
            # the identical subtraction per row.
            survivors: list[_BatchGroup] = []
            for group in groups:
                keep = [b for b in group.members if budgets[b] - group.cost > _EPS]
                if len(keep) != len(group.members):
                    done = [
                        b for b in group.members if budgets[b] - group.cost <= _EPS
                    ]
                    retire(group, done)
                    group.members = keep
                if keep:
                    survivors.append(group)
                else:
                    sweep.release_slot(group.slot)
            groups = survivors
            if not groups:
                break

            # Critical masks of every live group in one 2-D comparison.
            crit2d = (
                None
                if scope_all
                else sweep.critical_rows_batch([g.slot for g in groups])
            )

            # Build each group's validity grid at its *loosest* member
            # cutoff (max remaining budget) — the union of the members'
            # serial masks, so the group pick is the serial pick of the
            # loosest member and provably of every member that can
            # afford it (see _pick_steps_batched / module docstring).
            live: list[_BatchGroup] = []
            live_crit: list[np.ndarray | None] = []
            grids: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
            for gi, group in enumerate(groups):
                if crit2d is not None and not crit2d[gi].any():
                    retire(group, group.members)
                    sweep.release_slot(group.slot)
                    continue
                extra = max(budgets[b] for b in group.members) - group.cost
                affordable = (group.dt_all > _EPS) & (group.dc_all <= extra + _EPS)
                valid = (
                    affordable
                    if crit2d is None
                    else affordable & crit2d[gi][:, None]
                )
                live.append(group)
                live_crit.append(None if crit2d is None else crit2d[gi])
                grids.append((group.dt_all, group.dc_all, valid))
            if not live:
                break

            # One eps-aware lexicographic argmax for all live groups.
            if len(live) == 1:
                dt3 = grids[0][0][None]
                dc3 = grids[0][1][None]
                valid3 = grids[0][2][None]
            else:
                dt3 = np.stack([g[0] for g in grids])
                dc3 = np.stack([g[1] for g in grids])
                valid3 = np.stack([g[2] for g in grids])
            picks = _pick_steps_batched(dt3, dc3, valid3, num_types)

            next_groups: list[_BatchGroup] = []
            for group, crit_mask, picked in zip(live, live_crit, picks):
                if picked is None:
                    # Nothing affordable even at the loosest cutoff, so
                    # every member's serial loop breaks here too.
                    retire(group, group.members)
                    sweep.release_slot(group.slot)
                    continue
                if picked is _NEAR_TIE:
                    next_groups.extend(split_near_tie(group, crit_mask))
                    continue
                row, j, best_dt, best_dc = picked
                # Rows that cannot afford the group's step diverge: they
                # fork with the pre-step state and re-pick at their own
                # cutoff next round.  The loosest member always affords
                # its own pick, so ``stay`` is never empty.
                stay = [
                    b
                    for b in group.members
                    if best_dc <= (budgets[b] - group.cost) + _EPS
                ]
                if len(stay) != len(group.members):
                    leave = [
                        b
                        for b in group.members
                        if best_dc > (budgets[b] - group.cost) + _EPS
                    ]
                    new_slot = sweep.acquire_slot()
                    sweep.copy_slot(group.slot, new_slot)
                    next_groups.append(group.fork(new_slot, leave))
                    group.members = stay
                apply_step(group, row, j, best_dt, best_dc)
                next_groups.append(group)
            groups = next_groups

        results: list[SchedulerResult] = []
        for b, budget in enumerate(budgets):
            snapshot = finished[b]
            assert snapshot is not None  # every row retires exactly once
            columns, steps = snapshot
            results.append(self._result(problem, budget, columns, steps))
        return results

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
