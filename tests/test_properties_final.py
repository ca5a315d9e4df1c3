"""Cross-cutting property tests tying the subsystems together."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.module import DataDependency, Module
from repro.core.problem import MedCCProblem
from repro.core.serialize import problem_from_dict, problem_to_dict
from repro.core.vm import VMType, VMTypeCatalog
from repro.core.workflow import Workflow

from tests.conftest import medcc_problems, problems_with_budgets


@settings(max_examples=30, deadline=None)
@given(problem=medcc_problems())
def test_serialization_roundtrip_property(problem):
    """Property: serialize/deserialize preserves all scheduling behaviour."""
    clone = problem_from_dict(problem_to_dict(problem))
    assert clone.cmin == pytest.approx(problem.cmin)
    assert clone.cmax == pytest.approx(problem.cmax)
    lc = problem.least_cost_schedule()
    lc_clone = clone.least_cost_schedule()
    assert lc_clone.assignment == lc.assignment
    assert clone.makespan_of(lc_clone) == pytest.approx(
        problem.makespan_of(lc)
    )


def _one_hour_after_an_odd_start() -> MedCCProblem:
    """m1 runs exactly one hour from t=15.900884158703517.

    Its calendar span ``(15.9008... + 1.0) - 15.9008...`` is
    1.0000000000000018, which a bill read off the calendar rounds up to
    two hours (simulated 19.0 against Eq. 7's 18.5).
    """
    workflow = Workflow(
        [
            Module("src", fixed_time=0.0),
            Module("m0", workload=53.665484035624374),
            Module("m1", workload=0.5),
            Module("dst", fixed_time=0.0),
        ],
        [
            DataDependency("src", "m0"),
            DataDependency("m0", "m1"),
            DataDependency("m1", "dst"),
        ],
        name="hypothesis-dag",
    )
    catalog = VMTypeCatalog(
        [
            VMType(name="T0", power=0.5, rate=0.5),
            VMType(name="T1", power=3.375, rate=1.125),
        ]
    )
    return MedCCProblem(workflow=workflow, catalog=catalog)


@settings(max_examples=30, deadline=None)
@given(pb=problems_with_budgets(max_modules=6, max_types=3))
@example(pb=(_one_hour_after_an_odd_start(), 18.5))
def test_cost_accounting_is_consistent_everywhere(pb):
    """Property: cost_of == evaluate().total_cost == simulated bill."""
    from repro.algorithms.critical_greedy import CriticalGreedyScheduler
    from repro.sim.broker import WorkflowBroker

    problem, budget = pb
    result = CriticalGreedyScheduler().solve(problem, budget)
    assert problem.cost_of(result.schedule) == pytest.approx(
        result.evaluation.total_cost
    )
    sim = WorkflowBroker(problem=problem, schedule=result.schedule).run()
    assert sim.total_cost == pytest.approx(result.evaluation.total_cost)


@settings(max_examples=25, deadline=None)
@given(
    pb=problems_with_budgets(max_modules=5, max_types=3),
    extra=st.floats(min_value=0.0, max_value=100.0),
)
def test_exhaustive_is_monotone_in_budget(pb, extra):
    """Property: the exact optimum never worsens when the budget grows.

    (Greedy heuristics do not have this property — see the robustness
    experiment notes — but the exhaustive optimum must.)
    """
    from repro.algorithms.exhaustive import ExhaustiveScheduler

    problem, budget = pb
    opt = ExhaustiveScheduler()
    assert (
        opt.solve(problem, budget + extra).med
        <= opt.solve(problem, budget).med + 1e-9
    )


@settings(max_examples=25, deadline=None)
@given(pb=problems_with_budgets(max_modules=6, max_types=3))
def test_clustered_problem_remains_schedulable(pb):
    """Property: clustering composes with scheduling and simulation."""
    from repro.algorithms.critical_greedy import CriticalGreedyScheduler
    from repro.clustering import apply_linear_clustering
    from repro.core.problem import MedCCProblem
    from repro.sim.broker import WorkflowBroker

    problem, _ = pb
    clustered = MedCCProblem(
        workflow=apply_linear_clustering(problem.workflow),
        catalog=problem.catalog,
        billing=problem.billing,
    )
    result = CriticalGreedyScheduler().solve(
        clustered, clustered.median_budget()
    )
    result.assert_feasible()
    sim = WorkflowBroker(problem=clustered, schedule=result.schedule).run()
    assert sim.makespan == pytest.approx(result.med)


@settings(max_examples=20, deadline=None)
@given(pb=problems_with_budgets(max_modules=5, max_types=3))
def test_dax_roundtrip_preserves_optimal_med(pb):
    """Property: DAX export/import does not change the exact optimum."""
    from repro.algorithms.exhaustive import ExhaustiveScheduler
    from repro.core.problem import MedCCProblem
    from repro.workloads.dax import parse_dax, write_dax

    problem, budget = pb
    reparsed = MedCCProblem(
        workflow=parse_dax(write_dax(problem.workflow)),
        catalog=problem.catalog,
        billing=problem.billing,
    )
    opt = ExhaustiveScheduler()
    # Budget ranges coincide (same workloads/catalog), so compare at the
    # original's budget clamped into the clone's range.
    budget = max(budget, reparsed.cmin)
    assert opt.solve(reparsed, budget).med == pytest.approx(
        opt.solve(problem, budget).med
    )