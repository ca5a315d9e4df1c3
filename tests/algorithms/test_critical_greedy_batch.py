"""solve_batch bit-identity: every batched row equals its serial solve.

The group-sharing batch solver's contract is byte-identity, not
closeness: row ``i`` of ``solve_batch(problem, budgets)`` must carry the
same schedule assignment, the same rescheduling step trace (module, type
and deltas), the same MED, cost and extras as ``solve(problem,
budgets[i])`` — for random DAGs (with transfers), random/unsorted/
duplicated budget grids, and adversarial near-tie ΔT/ΔC catalogs that
force the grouped argmax onto its exact per-member fallback.  Rows are
checked against both the production serial ``solve`` and the test oracle
(:func:`repro.algorithms.oracle.reference_solve`).
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.critical_greedy import CriticalGreedyScheduler
from repro.algorithms.oracle import reference_solve
from repro.core.module import DataDependency, Module
from repro.core.problem import MedCCProblem, TransferModel
from repro.core.vm import VMType, VMTypeCatalog
from repro.core.workflow import Workflow
from repro.exceptions import InfeasibleBudgetError
from tests.conftest import medcc_problems


def _assert_rows_identical(serial, batched, context=""):
    """Byte-identity of two SchedulerResults — no tolerances anywhere."""
    assert batched.algorithm == serial.algorithm, context
    assert batched.budget == serial.budget, context
    assert batched.schedule.assignment == serial.schedule.assignment, context
    assert batched.steps == serial.steps, context
    assert batched.evaluation.makespan == serial.evaluation.makespan, context
    assert batched.evaluation.total_cost == serial.evaluation.total_cost, context
    assert dict(batched.extras) == dict(serial.extras), context


def _assert_batch_matches_serial(scheduler, problem, budgets, oracle=None):
    oracle = oracle or scheduler.solve
    batched = scheduler.solve_batch(problem, budgets)
    assert len(batched) == len(budgets)
    for i, budget in enumerate(budgets):
        serial = oracle(problem, budget)
        _assert_rows_identical(serial, batched[i], f"budget[{i}]={budget}")


def _budget_grid(data, problem, max_levels=6):
    """An unsorted budget grid with possible duplicates and extremes."""
    lo, hi = problem.budget_range()
    fracs = data.draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.3, allow_nan=False),
            min_size=2,
            max_size=max_levels,
        )
    )
    return [lo + frac * (hi - lo) for frac in fracs]


def _with_transfers(problem):
    return dataclasses.replace(
        problem, transfers=TransferModel(bandwidth=2.0, latency=0.5)
    )


# --------------------------------------------------------------------- #
# Random DAGs, random budget grids
# --------------------------------------------------------------------- #


@given(problem=medcc_problems(), data=st.data())
@settings(max_examples=40, deadline=None)
@pytest.mark.parametrize("with_transfers", [False, True])
def test_batch_matches_serial_incremental(problem, data, with_transfers):
    if with_transfers:
        problem = _with_transfers(problem)
    scheduler = CriticalGreedyScheduler()
    budgets = _budget_grid(data, problem)
    _assert_batch_matches_serial(scheduler, problem, budgets)


@given(problem=medcc_problems(max_modules=6, max_types=3), data=st.data())
@settings(max_examples=15, deadline=None)
def test_batch_matches_reference_engine(problem, data):
    """The batched rows equal the original implementation's solves too."""
    scheduler = CriticalGreedyScheduler()
    budgets = _budget_grid(data, problem, max_levels=4)
    _assert_batch_matches_serial(scheduler, problem, budgets, oracle=reference_solve)


@given(problem=medcc_problems(max_modules=6, max_types=3), data=st.data())
@settings(max_examples=15, deadline=None)
def test_candidate_scope_all_batch_matches_serial(problem, data):
    scheduler = CriticalGreedyScheduler(candidate_scope="all")
    budgets = _budget_grid(data, problem, max_levels=4)
    _assert_batch_matches_serial(scheduler, problem, budgets)


# --------------------------------------------------------------------- #
# Adversarial near-tie ΔT/ΔC catalogs
# --------------------------------------------------------------------- #


def _tie_problem(delta: float, parallel: int = 4) -> MedCCProblem:
    """``parallel`` equal-workload modules in parallel, workloads split
    by ``delta`` — at ``delta=0`` every step is an exact ΔT/ΔC tie
    (row-major tie-break territory); at tiny ``delta`` the candidates
    land within the batch solver's eps guard, forcing its exact
    per-member fallback instead of the shared vectorized pick.
    """
    modules = [Module("src", fixed_time=0.0)]
    modules += [
        Module(f"p{i}", workload=24.0 + i * delta) for i in range(parallel)
    ]
    modules.append(Module("dst", fixed_time=0.0))
    edges = [DataDependency("src", f"p{i}") for i in range(parallel)]
    edges += [DataDependency(f"p{i}", "dst") for i in range(parallel)]
    workflow = Workflow(modules, edges, name=f"tie-{delta:g}")
    catalog = VMTypeCatalog(
        [
            VMType(name="S", power=1.0, rate=1.0),
            VMType(name="M", power=2.0, rate=3.0),
            VMType(name="L", power=4.0, rate=8.0),
        ]
    )
    return MedCCProblem(workflow=workflow, catalog=catalog)


@pytest.mark.parametrize("delta", [0.0, 1e-12, 1e-10, 1e-9, 1e-6])
def test_near_tie_deltas_stay_identical(delta):
    problem = _tie_problem(delta)
    scheduler = CriticalGreedyScheduler()
    lo, hi = problem.budget_range()
    # Band edges and interiors: every parallel module upgraded one at a
    # time ties (or nearly ties) with its siblings at each step.
    budgets = [lo + frac * (hi - lo) for frac in (0.0, 0.1, 0.25, 0.5, 0.9, 1.0)]
    _assert_batch_matches_serial(scheduler, problem, budgets)
    _assert_batch_matches_serial(scheduler, problem, budgets, oracle=reference_solve)


def test_near_tie_mixed_budget_order(example_problem):
    """The paper example at band edges, unsorted with duplicates."""
    scheduler = CriticalGreedyScheduler()
    budgets = [57.0, 49.0, 57.0, 1000.0, 48.0, 56.999999999]
    _assert_batch_matches_serial(scheduler, example_problem, budgets)


# --------------------------------------------------------------------- #
# Contract edges
# --------------------------------------------------------------------- #


class TestBatchContract:
    def test_empty_budgets_returns_empty(self, example_problem):
        assert CriticalGreedyScheduler().solve_batch(example_problem, []) == []

    def test_single_budget_falls_back_to_serial(self, example_problem):
        scheduler = CriticalGreedyScheduler()
        [batched] = scheduler.solve_batch(example_problem, [57.0])
        _assert_rows_identical(scheduler.solve(example_problem, 57.0), batched)

    def test_infeasible_budget_raises_before_solving(self, example_problem):
        scheduler = CriticalGreedyScheduler()
        lo, _ = example_problem.budget_range()
        with pytest.raises(InfeasibleBudgetError):
            scheduler.solve_batch(example_problem, [57.0, lo - 1.0])

    def test_extras_report_per_row_iterations(self, example_problem):
        scheduler = CriticalGreedyScheduler()
        for result in scheduler.solve_batch(example_problem, [48.0, 57.0, 64.0]):
            assert dict(result.extras) == {"iterations": len(result.steps)}

    def test_rows_are_feasible(self, example_problem):
        scheduler = CriticalGreedyScheduler()
        budgets = [48.0, 52.0, 57.0, 64.0]
        for result in scheduler.solve_batch(example_problem, budgets):
            result.assert_feasible()
