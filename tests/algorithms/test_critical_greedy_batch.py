"""solve_batch identity: every result equals a cold serial solve.

``solve_batch(problem, budgets)`` walks the budgets largest first over
serial ``solve``, so each later budget replays a prefix of the memoized
trace.  Its contract is byte-identity, not closeness: result ``i`` must
``==`` a cold ``solve(budgets[i])`` on a fresh ``dataclasses.replace``
copy of the problem (an empty memo) — schedule, step trace, MED, cost
and extras — and match the test oracle
(:func:`repro.algorithms.oracle.reference_solve`).  Budget grids are
unsorted, carry duplicates and include Cmin and Cmax; problems come
with and without transfers, under both ``candidate_scope`` values, and
as adversarial near-tie ΔT/ΔC catalogs whose picks fall back to the
exact scalar scan.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.critical_greedy import CriticalGreedyScheduler
from repro.algorithms.oracle import reference_solve
from repro.core import fastpath
from repro.core.module import DataDependency, Module
from repro.core.problem import MedCCProblem, TransferModel
from repro.core.vm import VMType, VMTypeCatalog
from repro.core.workflow import Workflow
from repro.exceptions import InfeasibleBudgetError
from repro.workloads.generator import generate_problem
from tests.conftest import medcc_problems


def _assert_matches_oracle(ref, result, context=""):
    """Field-wise byte identity with an oracle result — no tolerances."""
    assert result.algorithm == ref.algorithm, context
    assert result.budget == ref.budget, context
    assert result.schedule.assignment == ref.schedule.assignment, context
    assert result.steps == ref.steps, context
    assert result.evaluation.makespan == ref.evaluation.makespan, context
    assert result.evaluation.total_cost == ref.evaluation.total_cost, context
    assert dict(result.extras) == dict(ref.extras), context


def _assert_batch_identity(scheduler, problem, budgets, *, oracle=True):
    """``solve_batch`` on a fresh copy ``==`` cold solves and the oracle."""
    batched = scheduler.solve_batch(dataclasses.replace(problem), budgets)
    assert len(batched) == len(budgets)
    for i, budget in enumerate(budgets):
        context = f"budget[{i}]={budget}"
        cold = scheduler.solve(dataclasses.replace(problem), budget)
        assert batched[i] == cold, context
        assert dict(batched[i].extras) == dict(cold.extras), context
        if oracle:
            ref = reference_solve(
                problem,
                budget,
                candidate_scope=scheduler.candidate_scope,
                transfer_aware=scheduler.transfer_aware,
            )
            _assert_matches_oracle(ref, batched[i], context)


def _budget_grid(data, problem, max_levels=6):
    """An unsorted grid with a duplicate, Cmin and Cmax mixed in."""
    lo, hi = problem.budget_range()
    fracs = data.draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.3, allow_nan=False),
            min_size=2,
            max_size=max_levels,
        )
    )
    budgets = [lo + frac * (hi - lo) for frac in fracs]
    return budgets[:1] + [hi] + budgets[1:] + [lo, budgets[0]]


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
    budgets = _budget_grid(data, problem)
    _assert_batch_identity(CriticalGreedyScheduler(), problem, budgets)


@given(problem=medcc_problems(max_modules=6, max_types=3), data=st.data())
@settings(max_examples=15, deadline=None)
def test_batch_matches_reference_engine(problem, data):
    """With transfers, on a grid of its own; the oracle check included."""
    problem = _with_transfers(problem)
    budgets = _budget_grid(data, problem, max_levels=4)
    _assert_batch_identity(CriticalGreedyScheduler(), problem, budgets)


@given(problem=medcc_problems(max_modules=6, max_types=3), data=st.data())
@settings(max_examples=15, deadline=None)
def test_candidate_scope_all_batch_matches_serial(problem, data):
    scheduler = CriticalGreedyScheduler(candidate_scope="all")
    budgets = _budget_grid(data, problem, max_levels=4)
    _assert_batch_identity(scheduler, problem, budgets)


@pytest.mark.parametrize("scope", ["critical", "all"])
@pytest.mark.parametrize("with_transfers", [False, True])
def test_generated_instances_match_cold_and_oracle(scope, with_transfers):
    """Paper-generator DAGs at a 10-level sweep, shuffled, plus extremes."""
    scheduler = CriticalGreedyScheduler(candidate_scope=scope)
    for seed in range(2):
        problem = generate_problem((12, 25, 4), np.random.default_rng(3000 + seed))
        if with_transfers:
            problem = _with_transfers(problem)
        levels = problem.budget_levels(10)
        budgets = levels[5:] + levels[:5] + [problem.cmin, levels[3], problem.cmax]
        _assert_batch_identity(scheduler, problem, budgets)


# --------------------------------------------------------------------- #
# Adversarial near-tie ΔT/ΔC catalogs
# --------------------------------------------------------------------- #


def _tie_problem(delta: float, parallel: int = 4) -> MedCCProblem:
    """``parallel`` equal-workload modules in parallel, workloads split
    by ``delta`` — at ``delta=0`` every step is an exact ΔT/ΔC tie
    (row-major tie-break territory); at tiny ``delta`` the candidates
    land within the vectorized pick's eps guard, forcing the exact
    scalar scan, whose picks are never replayed from the memo.
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
    lo, hi = problem.budget_range()
    # Band edges and interiors, unsorted with a duplicate: every parallel
    # module upgraded one at a time ties (or nearly ties) with its
    # siblings at each step.
    budgets = [lo + frac * (hi - lo) for frac in (0.5, 0.0, 0.9, 0.1, 1.0, 0.25, 0.5)]
    _assert_batch_identity(CriticalGreedyScheduler(), problem, budgets)
    _assert_batch_identity(CriticalGreedyScheduler(candidate_scope="all"), problem, budgets)


def test_near_tie_mixed_budget_order(example_problem):
    """The paper example at band edges, unsorted with duplicates."""
    budgets = [57.0, 49.0, 57.0, 1000.0, 48.0, 56.999999999]
    _assert_batch_identity(CriticalGreedyScheduler(), example_problem, budgets)


# --------------------------------------------------------------------- #
# Contract edges and the descending walk
# --------------------------------------------------------------------- #


class TestBatchContract:
    def test_empty_budgets_returns_empty(self, example_problem):
        assert CriticalGreedyScheduler().solve_batch(example_problem, []) == []

    def test_single_budget_falls_back_to_serial(self, example_problem):
        scheduler = CriticalGreedyScheduler()
        [batched] = scheduler.solve_batch(example_problem, [57.0])
        assert batched == scheduler.solve(dataclasses.replace(example_problem), 57.0)

    def test_infeasible_budget_raises_before_solving(self, example_problem):
        scheduler = CriticalGreedyScheduler()
        lo, _ = example_problem.budget_range()
        with pytest.raises(InfeasibleBudgetError):
            scheduler.solve_batch(example_problem, [57.0, lo - 1.0])

    def test_infeasible_budget_leaves_the_memo_empty(self, example_problem):
        problem = dataclasses.replace(example_problem)
        lo, hi = problem.budget_range()
        with pytest.raises(InfeasibleBudgetError):
            CriticalGreedyScheduler().solve_batch(problem, [hi, 57.0, lo - 1.0])
        assert not problem.step_traces  # nothing was solved

    def test_memo_holds_the_largest_budget(self, example_problem):
        problem = dataclasses.replace(example_problem)
        budgets = [52.0, 64.0, 48.0, 57.0, 64.0]
        CriticalGreedyScheduler().solve_batch(problem, budgets)
        [trace] = problem.step_traces.values()
        assert trace.budget == max(budgets)

    def test_descending_walk_updates_fewer_sweeps_than_ascending(self, monkeypatch):
        calls = {"set_duration": 0}
        set_duration = fastpath.IncrementalSweep.set_duration

        def counting(self, node, value):
            calls["set_duration"] += 1
            return set_duration(self, node, value)

        monkeypatch.setattr(fastpath.IncrementalSweep, "set_duration", counting)
        problem = generate_problem((30, 80, 5), np.random.default_rng(5))
        budgets = problem.budget_levels(10)
        scheduler = CriticalGreedyScheduler()

        shared = dataclasses.replace(problem)
        ascending = [scheduler.solve(shared, b) for b in sorted(budgets)]
        ascending_updates = calls["set_duration"]
        calls["set_duration"] = 0
        batched = scheduler.solve_batch(dataclasses.replace(problem), sorted(budgets))
        assert batched == ascending
        assert 0 < calls["set_duration"] < ascending_updates

    def test_extras_report_per_row_iterations(self, example_problem):
        scheduler = CriticalGreedyScheduler()
        for result in scheduler.solve_batch(example_problem, [48.0, 57.0, 64.0]):
            assert dict(result.extras) == {"iterations": len(result.steps)}

    def test_rows_are_feasible(self, example_problem):
        scheduler = CriticalGreedyScheduler()
        budgets = [48.0, 52.0, 57.0, 64.0]
        for result in scheduler.solve_batch(example_problem, budgets):
            result.assert_feasible()
