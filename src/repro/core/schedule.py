"""Schedules — a VM-type choice per module — and their evaluation.

A :class:`Schedule` realizes the paper's task schedule
:math:`S : w_i \\to VT_j` under the one-to-one mapping scheme of Section
III-B: every schedulable module is assigned exactly one VM type (and,
conceptually, its own VM instance; VM *reuse* is a post-processing step,
see :mod:`repro.sim.packing`).

Evaluation against a problem instance produces a :class:`ScheduleEvaluation`
holding the paper's two objective quantities:

* ``total_cost`` :math:`C_{Total} = \\sum_i C(E_{i,j})` (Eq. 9), and
* ``makespan``  (MED) — the end-to-end delay, i.e. the critical-path length
  of the mapped workflow (Eq. 8).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from repro.core import fastpath
from repro.core.critical_path import CriticalPathAnalysis
from repro.core.matrices import TimeCostMatrices
from repro.core.workflow import Workflow
from repro.exceptions import ScheduleError

__all__ = ["Schedule", "ScheduleEvaluation"]


def _sequential_cost(matrices: TimeCostMatrices, assignment: Mapping[str, int]) -> float:
    """Left-to-right total cost in assignment order.

    Bit-identical to ``sum(matrices.cost(m, j) for m, j in items)`` (the
    pre-kernel formula): one C-level gather replaces the per-entry numpy
    scalar indexing, then a plain sequential ``sum`` preserves the exact
    accumulation order.
    """
    row_index = matrices.row_index
    rows = [row_index[module] for module in assignment]
    cols = list(assignment.values())
    return float(sum(matrices.ce[rows, cols].tolist()))


@dataclass(frozen=True)
class Schedule:
    """An immutable assignment of VM-type indices to schedulable modules.

    Attributes
    ----------
    assignment:
        Mapping of module name → VM-type index (column of :math:`T_E`).
    """

    assignment: Mapping[str, int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "assignment", dict(self.assignment))

    def __getitem__(self, module: str) -> int:
        try:
            return self.assignment[module]
        except KeyError:
            raise ScheduleError(f"module {module!r} is not in this schedule") from None

    def __contains__(self, module: object) -> bool:
        return module in self.assignment

    def __len__(self) -> int:
        return len(self.assignment)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = ", ".join(f"{m}->{j}" for m, j in sorted(self.assignment.items()))
        return f"Schedule({body})"

    @classmethod
    def _adopt(cls, assignment: dict[str, int]) -> "Schedule":
        """Wrap an already-private dict without the ``__post_init__`` re-copy.

        Internal fast path for call sites that build a fresh dict anyway
        (e.g. :meth:`with_assignment`, executed once per Critical-Greedy
        step); the dict must never be aliased by the caller afterwards.
        """
        schedule = object.__new__(cls)
        object.__setattr__(schedule, "assignment", assignment)
        return schedule

    def with_assignment(self, module: str, type_index: int) -> "Schedule":
        """Return a copy with one module remapped (the CG 'reschedule' step).

        The returned schedule owns a single fresh copy of the assignment
        (previously the dict was copied twice — once here and once by
        ``__post_init__``); immutability is unchanged.
        """
        if module not in self.assignment:
            raise ScheduleError(f"module {module!r} is not in this schedule")
        updated = dict(self.assignment)
        updated[module] = type_index
        return Schedule._adopt(updated)

    def as_type_names(self, type_names: tuple[str, ...]) -> dict[str, str]:
        """Render the assignment with VM-type names instead of indices."""
        return {m: type_names[j] for m, j in self.assignment.items()}

    def type_vector(self, module_order: tuple[str, ...]) -> tuple[int, ...]:
        """Type indices in a given module order (for compact table rows)."""
        return tuple(self.assignment[m] for m in module_order)

    # ------------------------------------------------------------------ #
    # Validation & evaluation
    # ------------------------------------------------------------------ #

    def validate(self, matrices: TimeCostMatrices) -> None:
        """Check this schedule covers exactly the matrix's modules/types.

        Raises
        ------
        ScheduleError
            On missing/extra modules or out-of-range type indices.
        """
        expected = set(matrices.module_names)
        actual = set(self.assignment)
        if expected != actual:
            missing = sorted(expected - actual)
            extra = sorted(actual - expected)
            raise ScheduleError(
                f"schedule does not match problem modules; missing={missing}, "
                f"extra={extra}"
            )
        for module, j in self.assignment.items():
            if not 0 <= j < matrices.num_types:
                raise ScheduleError(
                    f"module {module!r} mapped to invalid VM-type index {j} "
                    f"(catalog has {matrices.num_types} types)"
                )

    def total_cost(self, matrices: TimeCostMatrices) -> float:
        """Total financial cost :math:`C_{Total}` under this schedule (Eq. 9)."""
        self.validate(matrices)
        return float(
            sum(matrices.cost(m, j) for m, j in self.assignment.items())
        )

    def durations(
        self, workflow: Workflow, matrices: TimeCostMatrices
    ) -> dict[str, float]:
        """Per-module execution durations implied by this schedule.

        Fixed-duration modules contribute their fixed time; schedulable
        modules contribute ``TE[i, assignment[i]]``.
        """
        self.validate(matrices)
        out: dict[str, float] = {}
        for name in workflow.topological_order():
            mod = workflow.module(name)
            if mod.is_schedulable:
                out[name] = matrices.time(name, self.assignment[name])
            else:
                out[name] = float(mod.fixed_time or 0.0)
        return out

    def evaluate(
        self,
        workflow: Workflow,
        matrices: TimeCostMatrices,
        transfer_times: Mapping[tuple[str, str], float] | None = None,
    ) -> "ScheduleEvaluation":
        """Full evaluation: cost, makespan and critical-path analysis.

        Routed through the array kernel (:mod:`repro.core.fastpath`); the
        ``analysis`` facade materializes its name-keyed dicts lazily, so
        callers that only read cost/makespan never pay for them.  The
        result is bit-identical to
        :func:`~repro.core.critical_path.analyze_critical_path` over
        :meth:`durations` (asserted by the test suite).
        """
        self.validate(matrices)
        columns = [self.assignment[name] for name in matrices.module_names]
        result = fastpath.evaluate_assignment_vectors(
            workflow, matrices.te, columns, transfer_times
        )
        return ScheduleEvaluation(
            schedule=self,
            total_cost=_sequential_cost(matrices, self.assignment),
            makespan=result.makespan,
            analysis=result.as_analysis(),
        )


@dataclass(frozen=True)
class ScheduleEvaluation:
    """A schedule together with its objective values.

    Attributes
    ----------
    schedule:
        The evaluated schedule.
    total_cost:
        :math:`C_{Total}` — sum of module execution costs (Eq. 9).
    makespan:
        The minimum end-to-end delay of the mapped workflow (MED), i.e.
        ``eft`` of the exit module.
    analysis:
        The underlying critical-path analysis (est/eft/lst/lft, CP).
    """

    schedule: Schedule
    total_cost: float
    makespan: float
    analysis: CriticalPathAnalysis

    def within_budget(self, budget: float, *, tol: float = 1e-9) -> bool:
        """Whether ``total_cost <= budget`` up to float tolerance."""
        return self.total_cost <= budget + tol

    def summary(self) -> str:
        """One-line human-readable summary for logs and reports."""
        return (
            f"cost={self.total_cost:.4g} makespan={self.makespan:.4g} "
            f"cp={'->'.join(self.analysis.critical_path)}"
        )
