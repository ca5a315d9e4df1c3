"""The fast CP kernel must be bit-identical to the reference analysis."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import fastpath
from repro.core.critical_path import CriticalPathAnalysis, analyze_critical_path
from repro.core.module import DataDependency, Module
from repro.core.workflow import Workflow
from repro.exceptions import ScheduleError
from tests.conftest import medcc_problems


def _durations_for(problem, schedule):
    return schedule.durations(problem.workflow, problem.matrices)


def _assert_same_analysis(ref: CriticalPathAnalysis, fast) -> None:
    analysis = fast.as_analysis()
    assert isinstance(analysis, CriticalPathAnalysis)
    assert analysis == ref and ref == analysis
    # Field-level identity, no tolerances: the kernel replicates the
    # reference's operation order exactly.
    assert analysis.est == ref.est
    assert analysis.eft == ref.eft
    assert analysis.lst == ref.lst
    assert analysis.lft == ref.lft
    assert analysis.makespan == ref.makespan
    assert analysis.critical_path == ref.critical_path
    assert analysis.critical_modules == ref.critical_modules
    assert analysis.critical_schedulable() == ref.critical_schedulable()


@given(problem=medcc_problems())
@settings(max_examples=60, deadline=None)
def test_kernel_matches_reference_on_random_dags(problem):
    schedule = problem.least_cost_schedule()
    durations = _durations_for(problem, schedule)
    ref = analyze_critical_path(problem.workflow, durations, None)
    fast = fastpath.fast_critical_path(problem.workflow, durations, None)
    _assert_same_analysis(ref, fast)


@given(problem=medcc_problems(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_kernel_matches_reference_with_transfers(problem, data):
    schedule = problem.least_cost_schedule()
    durations = _durations_for(problem, schedule)
    edges = [(e.src, e.dst) for e in problem.workflow.edges()]
    weights = data.draw(
        st.lists(
            st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
            min_size=len(edges),
            max_size=len(edges),
        )
    )
    transfer_times = dict(zip(edges, weights))
    ref = analyze_critical_path(problem.workflow, durations, transfer_times)
    fast = fastpath.fast_critical_path(problem.workflow, durations, transfer_times)
    _assert_same_analysis(ref, fast)


@given(problem=medcc_problems(max_modules=5))
@settings(max_examples=30, deadline=None)
def test_kernel_matches_reference_on_tied_paths(problem):
    # Constant durations make every path through equally deep nodes tie,
    # exercising the lexicographic argmax-predecessor tie-break.
    durations = {name: 1.0 for name in problem.workflow.topological_order()}
    ref = analyze_critical_path(problem.workflow, durations, None)
    fast = fastpath.fast_critical_path(problem.workflow, durations, None)
    _assert_same_analysis(ref, fast)


def test_graph_index_is_cached_per_workflow(diamond_problem):
    wf = diamond_problem.workflow
    assert fastpath.graph_index(wf) is fastpath.graph_index(wf)


def test_graph_index_shape(diamond_problem):
    wf = diamond_problem.workflow
    index = fastpath.graph_index(wf)
    assert index.num_nodes == len(wf.topological_order())
    assert index.num_edges == len(list(wf.edges()))
    assert index.names[index.entry] == wf.topological_order()[0]
    assert index.names[index.exit] == wf.topological_order()[-1]
    # row <-> node maps are mutually inverse over schedulable modules
    for row, node in enumerate(index.sched_nodes):
        assert index.row_of_node[node] == row


def test_validation_errors_match_reference(diamond_problem):
    wf = diamond_problem.workflow
    durations = {name: 1.0 for name in wf.topological_order()}
    missing = dict(durations)
    missing.pop("b")
    with pytest.raises(ScheduleError, match="no duration supplied"):
        fastpath.fast_critical_path(wf, missing)
    negative = dict(durations, b=-1.0)
    with pytest.raises(ScheduleError, match="negative duration"):
        fastpath.fast_critical_path(wf, negative)


def test_facade_materializes_lazily(diamond_problem):
    schedule = diamond_problem.least_cost_schedule()
    durations = _durations_for(diamond_problem, schedule)
    analysis = fastpath.fast_critical_path(
        diamond_problem.workflow, durations
    ).as_analysis()
    assert "est" not in analysis.__dict__  # not built yet
    ref = analyze_critical_path(diamond_problem.workflow, durations)
    assert analysis.buffer_time("b") == ref.buffer_time("b")  # inherited method
    assert "est" in analysis.__dict__  # materialized on demand


def test_schedule_evaluate_matches_reference(diamond_problem):
    schedule = diamond_problem.least_cost_schedule()
    evaluation = schedule.evaluate(diamond_problem.workflow, diamond_problem.matrices)
    ref = analyze_critical_path(
        diamond_problem.workflow, _durations_for(diamond_problem, schedule)
    )
    assert evaluation.total_cost == schedule.total_cost(diamond_problem.matrices)
    assert evaluation.makespan == ref.makespan
    assert evaluation.analysis == ref


def test_evaluate_assignment_vectors_matches_schedule_evaluate(diamond_problem):
    matrices = diamond_problem.matrices
    columns = [0 for _ in matrices.module_names]
    result = fastpath.evaluate_assignment_vectors(
        diamond_problem.workflow, matrices.te, columns
    )
    durations = {
        name: matrices.te[i, 0] for i, name in enumerate(matrices.module_names)
    }
    for name in diamond_problem.workflow.topological_order():
        mod = diamond_problem.workflow.module(name)
        if not mod.is_schedulable:
            durations[name] = float(mod.fixed_time or 0.0)
    ref = analyze_critical_path(diamond_problem.workflow, durations)
    assert result.makespan == ref.makespan
    _assert_same_analysis(ref, result)


def test_sweep_handles_longer_chain_with_transfers():
    # Hand-checkable: chain a->b->c, unit durations, transfer 2 on (a, b).
    wf = Workflow(
        [
            Module("a", fixed_time=1.0),
            Module("b", workload=1.0),
            Module("c", fixed_time=1.0),
        ],
        [DataDependency("a", "b"), DataDependency("b", "c")],
    )
    durations = {"a": 1.0, "b": 1.0, "c": 1.0}
    transfers = {("a", "b"): 2.0}
    fast = fastpath.fast_critical_path(wf, durations, transfers)
    assert fast.makespan == 5.0
    assert fast.critical_path_names() == ("a", "b", "c")
    ref = analyze_critical_path(wf, durations, transfers)
    _assert_same_analysis(ref, fast)


def test_transfer_vector_follows_pred_edge_order(diamond_problem):
    index = fastpath.graph_index(diamond_problem.workflow)
    assert fastpath.transfer_vector(index, None) is None
    assert fastpath.transfer_vector(index, {}) is None
    vec = fastpath.transfer_vector(index, {index.pred_edges[0]: 3.0})
    assert vec is not None and len(vec) == index.num_edges
    assert vec[0] == 3.0 and not any(vec[1:])


def test_critical_mask_matches_reference(diamond_problem, rng):
    schedule = diamond_problem.least_cost_schedule()
    durations = _durations_for(diamond_problem, schedule)
    fast = fastpath.fast_critical_path(diamond_problem.workflow, durations)
    ref = analyze_critical_path(diamond_problem.workflow, durations)
    mask = fast.critical_mask()
    for v, name in enumerate(fast.index.names):
        assert bool(mask[v]) == ref.is_critical(name)
    buffered = fast.buffer_times()
    assert isinstance(buffered, np.ndarray)
    for v, name in enumerate(fast.index.names):
        assert buffered[v] == ref.buffer_time(name)
