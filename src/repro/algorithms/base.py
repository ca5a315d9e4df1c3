"""Scheduler interface, result container and algorithm registry.

Every scheduling algorithm in this library is a callable object exposing
``solve(problem, budget) -> SchedulerResult``.  Algorithms register
themselves under a short name (``"critical-greedy"``, ``"gain3"``, …) so
the experiment harness and the CLI can look them up uniformly.
"""

from __future__ import annotations

import dataclasses
import functools
import os
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

from repro.core.problem import MedCCProblem
from repro.core.schedule import Schedule, ScheduleEvaluation
from repro.exceptions import ConfigurationError, ExperimentError

__all__ = [
    "ReschedulingStep",
    "SchedulerResult",
    "Scheduler",
    "register_scheduler",
    "get_scheduler",
    "available_schedulers",
    "declared_params",
    "set_result_validation",
    "result_validation_enabled",
]


@dataclass(frozen=True)
class ReschedulingStep:
    """One iteration of an iterative rescheduling algorithm.

    Captures the trace the paper walks through in its numerical example
    ("we first reschedule module w4 to a VM of type VT3, which decreases
    the execution time of w4 by 6 …").
    """

    module: str
    from_type: int
    to_type: int
    time_decrease: float
    cost_increase: float
    makespan_after: float
    cost_after: float

    def describe(self, type_names: tuple[str, ...]) -> str:
        """Human-readable rendering of the step."""
        return (
            f"reschedule {self.module}: {type_names[self.from_type]} -> "
            f"{type_names[self.to_type]} (dT={self.time_decrease:.4g}, "
            f"dC={self.cost_increase:.4g}) => makespan {self.makespan_after:.4g}, "
            f"cost {self.cost_after:.4g}"
        )


@dataclass(frozen=True)
class SchedulerResult:
    """Outcome of one scheduler run on one (problem, budget) pair.

    Attributes
    ----------
    algorithm:
        Registry name of the algorithm that produced this result.
    schedule:
        The final schedule.
    evaluation:
        Its evaluation (cost, makespan/MED, critical path).
    budget:
        The budget the run was given.
    steps:
        Rescheduling trace (empty for one-shot algorithms).
    extras:
        Algorithm-specific diagnostics (e.g. nodes explored by the
        exhaustive search).
    """

    algorithm: str
    schedule: Schedule
    evaluation: ScheduleEvaluation
    budget: float
    steps: tuple[ReschedulingStep, ...] = ()
    extras: Mapping[str, object] = field(default_factory=dict)

    @property
    def med(self) -> float:
        """The minimum end-to-end delay achieved (the paper's MED)."""
        return self.evaluation.makespan

    @property
    def total_cost(self) -> float:
        """The total financial cost :math:`C_{Total}` of the schedule."""
        return self.evaluation.total_cost

    def assert_feasible(self, *, tol: float = 1e-9) -> None:
        """Raise if the result exceeds its budget (sanity check in tests)."""
        if self.total_cost > self.budget + tol:
            raise ExperimentError(
                f"{self.algorithm} produced an infeasible schedule: "
                f"cost {self.total_cost:g} > budget {self.budget:g}"
            )


@runtime_checkable
class Scheduler(Protocol):
    """Protocol every scheduling algorithm implements."""

    #: Registry name (stable identifier used in experiments and the CLI).
    name: str

    #: Whether the algorithm guarantees ``total_cost <= budget``.  Classes
    #: may override with ``False`` (delay-optimal baselines like
    #: ``fastest``/``heft``); the lint validation hook then skips the
    #: budget-feasibility rule for their results.
    respects_budget: bool = True

    def solve(self, problem: MedCCProblem, budget: float) -> SchedulerResult:
        """Return the best schedule found within ``budget``.

        Implementations must raise
        :class:`~repro.exceptions.InfeasibleBudgetError` when
        ``budget < problem.cmin``.
        """
        ...  # pragma: no cover


_REGISTRY: dict[str, Callable[[], Scheduler]] = {}

#: When enabled, every registered scheduler's solve() output is checked by
#: the repro.lint schedule rules (budget, coverage, cost consistency) and a
#: LintError is raised on violation.  Off by default (production hot path);
#: the test suite switches it on so every algorithm is continuously audited.
_VALIDATE_RESULTS = os.environ.get("REPRO_VALIDATE_RESULTS", "").lower() in (
    "1",
    "true",
    "yes",
    "on",
)


def set_result_validation(enabled: bool) -> bool:
    """Enable/disable lint validation of scheduler results; returns previous.

    This is the debug hook described in ``docs/static_analysis.md``: with
    validation on, every ``solve()`` of a *registered* scheduler runs the
    fast RS4xx rules (schedule coverage, type-index range, budget
    feasibility, reported-vs-recomputed cost) on its result and raises
    :class:`~repro.exceptions.LintError` on any error-severity finding.
    """
    global _VALIDATE_RESULTS
    previous = _VALIDATE_RESULTS
    _VALIDATE_RESULTS = bool(enabled)
    return previous


def result_validation_enabled() -> bool:
    """Whether scheduler results are currently lint-validated."""
    return _VALIDATE_RESULTS


def register_scheduler(name: str) -> Callable[[type], type]:
    """Class decorator registering a zero-argument-constructible scheduler.

    Registration also wraps the class's ``solve`` with the lint validation
    hook (see :func:`set_result_validation`); the wrapper is a no-op while
    validation is disabled.
    """

    def decorator(cls: type) -> type:
        if name in _REGISTRY:
            raise ConfigurationError(
                f"scheduler {name!r} registered twice; pick a unique registry "
                "name instead of silently overwriting the existing algorithm"
            )
        original_solve = cls.solve

        @functools.wraps(original_solve)
        def validating_solve(
            self: Scheduler, problem: MedCCProblem, budget: float
        ) -> SchedulerResult:
            result = original_solve(self, problem, budget)
            if _VALIDATE_RESULTS:
                from repro.lint import check_scheduler_result

                check_scheduler_result(
                    problem,
                    result,
                    respects_budget=getattr(self, "respects_budget", True),
                )
            return result

        cls.solve = validating_solve
        _REGISTRY[name] = cls
        cls.name = name
        return cls

    return decorator


def get_scheduler(name: str) -> Scheduler:
    """Instantiate a registered scheduler by name."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ExperimentError(
            f"unknown scheduler {name!r}; available: {known}"
        ) from None
    return factory()


def available_schedulers() -> list[str]:
    """Names of all registered schedulers, as a sorted list.

    Returning a list (not a one-shot iterator) lets callers iterate more
    than once and index/len() the result; order is deterministic.
    """
    return sorted(_REGISTRY)


def declared_params(scheduler: Scheduler) -> dict[str, object]:
    """A scheduler's declared knobs as a JSON-compatible mapping.

    Every scheduler in this library is a dataclass, so its configuration
    surface is exactly its init fields (``candidate_scope``,
    ``transfer_aware``, cooling rates, …).  The service layer hashes this
    mapping into the cache key (:func:`repro.service.keys.params_hash`) so
    two runs of the same algorithm with different knobs never collide.  Non-JSON-native
    values fall back to ``repr`` for a stable, hashable rendering.
    """
    if not dataclasses.is_dataclass(scheduler):
        return {}
    params: dict[str, object] = {}
    for spec in dataclasses.fields(scheduler):
        if not spec.init:
            continue
        value = getattr(scheduler, spec.name)
        if value is None or isinstance(value, (bool, int, float, str)):
            params[spec.name] = value
        else:
            params[spec.name] = repr(value)
    return params
