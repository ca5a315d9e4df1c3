"""The MED-CC problem instance (Definition 1 of the paper).

A :class:`MedCCProblem` bundles everything a scheduler needs:

* the DAG workflow :math:`G_w(V_w, E_w)`;
* the VM-type catalog :math:`VT = \\{VT_0, \\dots, VT_{n-1}\\}`;
* the billing policy (instance-hour round-up by default); and
* optionally a data-transfer model (bandwidth/latency per Eq. 5 and a
  per-unit transfer charge :math:`CR` per Eq. 4 — both zero in the paper's
  single-cloud evaluation, non-zero in the multi-cloud extension).

The budget :math:`B` is *not* part of the instance; solvers receive it as
an argument so a single instance can be swept over budget levels, exactly
as the evaluation section does.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.core.billing import BillingPolicy, DEFAULT_BILLING
from repro.core.matrices import TimeCostMatrices, compute_matrices
from repro.core.schedule import Schedule, ScheduleEvaluation
from repro.core.vm import VMTypeCatalog
from repro.core.workflow import Workflow
from repro.exceptions import InfeasibleBudgetError, ScheduleError

__all__ = ["TransferModel", "MedCCProblem"]


@dataclass(frozen=True)
class TransferModel:
    """Data-transfer timing/pricing across dependency edges (Eqs. 4–5).

    Attributes
    ----------
    bandwidth:
        Virtual-link bandwidth :math:`BW'_{p,q}` (data units per time
        unit).  ``math.inf`` makes transfers instantaneous.
    latency:
        Fixed per-transfer link delay :math:`d'_{p,q}`.
    unit_cost:
        Per-data-unit transfer charge :math:`CR`; zero intra-cloud.
    """

    bandwidth: float = math.inf
    latency: float = 0.0
    unit_cost: float = 0.0

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ScheduleError(f"bandwidth must be positive, got {self.bandwidth!r}")
        if self.latency < 0 or self.unit_cost < 0:
            raise ScheduleError("latency and unit transfer cost must be >= 0")

    @property
    def is_free(self) -> bool:
        """True when transfers cost nothing and take no time."""
        return (
            math.isinf(self.bandwidth)
            and self.latency == 0.0
            and self.unit_cost == 0.0
        )

    def transfer_time(self, data_size: float) -> float:
        """``T(R_i,j) = DS / BW + d`` (Eq. 5); zero for zero-size data."""
        if data_size <= 0:
            return 0.0
        base = 0.0 if math.isinf(self.bandwidth) else data_size / self.bandwidth
        return base + self.latency

    def transfer_cost(self, data_size: float) -> float:
        """``C(R_i,j) = CR * DS`` (Eq. 4)."""
        return self.unit_cost * max(data_size, 0.0)


#: The paper's single-cloud default: free, instantaneous transfers.
_FREE_TRANSFERS = TransferModel()


@dataclass(frozen=True)
class MedCCProblem:
    """One MED-CC instance: workflow + VM catalog (+ billing, transfers).

    Use :meth:`matrices` (cached) for the :math:`T_E`/:math:`C_E` pair,
    :attr:`cmin`/:attr:`cmax` for the meaningful budget range, and
    :meth:`evaluate` to score candidate schedules.
    """

    workflow: Workflow
    catalog: VMTypeCatalog
    billing: BillingPolicy = DEFAULT_BILLING
    transfers: TransferModel = field(default_factory=TransferModel)
    #: Optional measured execution-time vectors (module → per-type times)
    #: overriding the analytical ``WL/VP`` model, as in the WRF experiments.
    measured_te: Mapping[str, tuple[float, ...]] | None = None

    @cached_property
    def matrices(self) -> TimeCostMatrices:
        """The cached execution-time/cost matrices for this instance."""
        return compute_matrices(
            self.workflow, self.catalog, self.billing, self.measured_te
        )

    @cached_property
    def step_traces(self) -> dict:
        """Critical-Greedy's warm-start memo: one trace per knob set.

        Cached in the instance ``__dict__`` like :attr:`matrices`, so it
        is not a dataclass field: it takes no part in ``==`` or hashing,
        and :func:`dataclasses.replace` starts a copy with it empty.
        Entries are immutable and replaced whole (one ``dict`` store),
        so threads sharing a problem never see a torn entry.
        """
        return {}

    @property
    def num_modules(self) -> int:
        """Number of schedulable modules ``m``."""
        return len(self.workflow.schedulable_names)

    @property
    def num_types(self) -> int:
        """Number of available VM types ``n``."""
        return len(self.catalog)

    @property
    def problem_size(self) -> tuple[int, int, int]:
        """The paper's ``(m, |Ew|, n)`` triple."""
        return self.workflow.problem_size(len(self.catalog))

    # ------------------------------------------------------------------ #
    # Transfer schedule (constant across schedules: link properties do not
    # depend on the chosen VM types in this model)
    # ------------------------------------------------------------------ #

    @cached_property
    def transfer_times(self) -> dict[tuple[str, str], float]:
        """Per-edge transfer times under the instance's transfer model."""
        if self.transfers.is_free:
            return {}
        return {
            e.key: self.transfers.transfer_time(e.data_size)
            for e in self.workflow.edges()
        }

    @cached_property
    def transfer_cost_total(self) -> float:
        """Total data-transfer cost over all edges (0 in single-cloud)."""
        if self.transfers.unit_cost == 0.0:
            return 0.0
        return float(
            sum(self.transfers.transfer_cost(e.data_size) for e in self.workflow.edges())
        )

    # ------------------------------------------------------------------ #
    # Canonical schedules and budget range
    # ------------------------------------------------------------------ #

    def least_cost_schedule(self) -> Schedule:
        """The least-cost schedule :math:`S_{least-cost}` (Alg. 1, step 2)."""
        choice = self.matrices.least_cost_choice()
        return Schedule(dict(zip(self.matrices.module_names, map(int, choice))))

    def fastest_schedule(self) -> Schedule:
        """The fastest schedule :math:`S_{fastest}` (Section V-B)."""
        choice = self.matrices.fastest_choice()
        return Schedule(dict(zip(self.matrices.module_names, map(int, choice))))

    @cached_property
    def cmin(self) -> float:
        """Minimum achievable total cost (cost of the least-cost schedule)."""
        return self.matrices.cmin() + self.transfer_cost_total

    @cached_property
    def cmax(self) -> float:
        """Cost of the fastest schedule; budgets above it buy nothing more."""
        return self.matrices.cmax() + self.transfer_cost_total

    def budget_range(self) -> tuple[float, float]:
        """The meaningful budget interval ``[Cmin, Cmax]`` (Section V-B)."""
        return (self.cmin, self.cmax)

    def budget_levels(self, k: int = 20) -> list[float]:
        """``k`` budget levels sweeping ``[Cmin, Cmax]`` (Section VI-B2).

        Reproduces the evaluation's sweep: budgets from :math:`C_{min}` to
        :math:`C_{max}` at a uniform interval
        :math:`\\Delta C = (C_{max} - C_{min}) / k`.  Returns the budgets at
        levels ``1..k`` (i.e. ``Cmin + i * ΔC``); level ``k`` equals
        :math:`C_{max}` exactly.
        """
        if k <= 0:
            raise ScheduleError(f"number of budget levels must be positive, got {k}")
        lo, hi = self.budget_range()
        return [lo + i * (hi - lo) / k for i in range(1, k + 1)]

    def check_feasible(self, budget: float) -> None:
        """Raise :class:`InfeasibleBudgetError` when ``budget < Cmin``.

        Mirrors Algorithm 1, lines 4–5.
        """
        if budget < self.cmin - 1e-9:
            raise InfeasibleBudgetError(budget, self.cmin)

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #

    def evaluate(self, schedule: Schedule) -> ScheduleEvaluation:
        """Cost/makespan/critical-path evaluation of a candidate schedule.

        Transfer times (if any) extend the critical-path computation; the
        (schedule-independent) transfer cost is added to the total cost.
        """
        evaluation = schedule.evaluate(
            self.workflow, self.matrices, self.transfer_times or None
        )
        if self.transfer_cost_total:
            evaluation = ScheduleEvaluation(
                schedule=evaluation.schedule,
                total_cost=evaluation.total_cost + self.transfer_cost_total,
                makespan=evaluation.makespan,
                analysis=evaluation.analysis,
            )
        return evaluation

    def makespan_of(self, schedule: Schedule) -> float:
        """Shortcut: the end-to-end delay of a schedule."""
        return self.evaluate(schedule).makespan

    def cost_of(self, schedule: Schedule) -> float:
        """Shortcut: the total financial cost of a schedule."""
        return schedule.total_cost(self.matrices) + self.transfer_cost_total

    # ------------------------------------------------------------------ #
    # Convenience
    # ------------------------------------------------------------------ #

    def schedule_from_names(self, mapping: Mapping[str, str]) -> Schedule:
        """Build a schedule from module-name → VM-type-name pairs."""
        return Schedule(
            {m: self.catalog.index_of(t) for m, t in mapping.items()}
        )

    def random_feasible_budget(self, rng: np.random.Generator) -> float:
        """A uniformly random budget within ``[Cmin, Cmax]`` (Section VI-B1)."""
        lo, hi = self.budget_range()
        return float(rng.uniform(lo, hi))

    def median_budget(self) -> float:
        """The median of the budget range (used for Fig. 7's experiments)."""
        lo, hi = self.budget_range()
        return (lo + hi) / 2.0
