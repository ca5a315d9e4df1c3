"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from repro.core.module import DataDependency, Module
from repro.core.problem import MedCCProblem
from repro.core.serialize import problem_to_dict
from repro.core.vm import VMType, VMTypeCatalog
from repro.core.workflow import Workflow
from repro.workloads.example import example_problem as _example_problem
from repro.workloads.wrf import wrf_problem as _wrf_problem

# A failing draw prints its ``@reproduce_failure`` blob, so it replays
# exactly.  The profile inherits everything else from the active one
# (``default`` locally, ``ci`` under CI), so the same draws run.
settings.register_profile("repro", settings(), print_blob=True)
settings.load_profile("repro")


@pytest.fixture(autouse=True, scope="session")
def _lint_validate_scheduler_results():
    """Lint-check every registered scheduler's output for the whole suite.

    This is the repro.lint debug hook (docs/static_analysis.md): any
    solve() returning an over-budget, ill-covered or inconsistently-costed
    schedule raises LintError instead of silently corrupting a test.
    """
    from repro.algorithms.base import set_result_validation

    previous = set_result_validation(True)
    yield
    set_result_validation(previous)


@pytest.fixture
def example_problem() -> MedCCProblem:
    """The paper's reconstructed numerical example (Section V-B)."""
    return _example_problem()


@pytest.fixture
def wrf_problem() -> MedCCProblem:
    """The WRF testbed instance (Tables V/VI)."""
    return _wrf_problem()


@pytest.fixture
def twin_catalogs(example_problem) -> tuple[dict, dict]:
    """The example's problem payload with an exact twin of the fastest type.

    The first payload lists the twin ``zz_twin`` last, the second first.
    Both have the same ``problem_hash``, but Critical-Greedy breaks the
    twin's exact ΔT/ΔC ties by catalog position, so each must be solved on
    its own order.
    """
    base = problem_to_dict(example_problem)
    twin = dict(base["catalog"][-1], name="zz_twin")
    first = copy.deepcopy(base)
    first["catalog"].append(twin)
    second = copy.deepcopy(base)
    second["catalog"].insert(0, twin)
    return first, second


@pytest.fixture
def tiny_catalog() -> VMTypeCatalog:
    """A 3-type catalog with simple numbers for hand calculations."""
    return VMTypeCatalog(
        [
            VMType(name="S", power=1.0, rate=1.0),
            VMType(name="M", power=2.0, rate=2.5),
            VMType(name="L", power=4.0, rate=6.0),
        ]
    )


@pytest.fixture
def chain_workflow() -> Workflow:
    """a -> b -> c with fixed entry/exit staging modules."""
    return Workflow(
        [
            Module("in", fixed_time=0.0),
            Module("a", workload=4.0),
            Module("b", workload=8.0),
            Module("c", workload=2.0),
            Module("out", fixed_time=0.0),
        ],
        [
            DataDependency("in", "a", data_size=1.0),
            DataDependency("a", "b", data_size=2.0),
            DataDependency("b", "c", data_size=3.0),
            DataDependency("c", "out", data_size=1.0),
        ],
        name="chain",
    )


@pytest.fixture
def diamond_problem(tiny_catalog: VMTypeCatalog) -> MedCCProblem:
    """A 4-module diamond instance on the tiny catalog."""
    workflow = Workflow(
        [
            Module("a", workload=4.0),
            Module("b", workload=8.0),
            Module("c", workload=2.0),
            Module("d", workload=4.0),
        ],
        [
            DataDependency("a", "b"),
            DataDependency("a", "c"),
            DataDependency("b", "d"),
            DataDependency("c", "d"),
        ],
        name="diamond",
    )
    return MedCCProblem(workflow=workflow, catalog=tiny_catalog)


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator for test reproducibility."""
    return np.random.default_rng(12345)


# --------------------------------------------------------------------- #
# Hypothesis strategies (shared by the property-based tests)
# --------------------------------------------------------------------- #


def random_dag_problem(
    draw,
    *,
    max_modules: int = 7,
    max_types: int = 4,
) -> MedCCProblem:
    """Draw a small random MED-CC instance (hypothesis composite body)."""
    m = draw(st.integers(min_value=1, max_value=max_modules))
    n = draw(st.integers(min_value=1, max_value=max_types))
    workloads = draw(
        st.lists(
            st.floats(min_value=0.5, max_value=60.0, allow_nan=False),
            min_size=m,
            max_size=m,
        )
    )
    # Forward edges over a random order: each pair included by a coin flip.
    edge_flags = draw(
        st.lists(st.booleans(), min_size=m * (m - 1) // 2, max_size=m * (m - 1) // 2)
    )
    powers = draw(
        st.lists(
            st.floats(min_value=0.5, max_value=16.0, allow_nan=False),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    rates = draw(
        st.lists(
            st.floats(min_value=0.1, max_value=8.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )

    modules = [Module("src", fixed_time=0.0)]
    modules += [Module(f"m{i}", workload=workloads[i]) for i in range(m)]
    modules.append(Module("dst", fixed_time=0.0))
    edges = []
    flag_idx = 0
    has_pred = [False] * m
    has_succ = [False] * m
    for i in range(m):
        for j in range(i + 1, m):
            if edge_flags[flag_idx]:
                edges.append(DataDependency(f"m{i}", f"m{j}"))
                has_pred[j] = True
                has_succ[i] = True
            flag_idx += 1
    for i in range(m):
        if not has_pred[i]:
            edges.append(DataDependency("src", f"m{i}"))
        if not has_succ[i]:
            edges.append(DataDependency(f"m{i}", "dst"))
    workflow = Workflow(modules, edges, name="hypothesis-dag")
    catalog = VMTypeCatalog(
        [
            VMType(name=f"T{k}", power=powers[k], rate=rates[k])
            for k in range(n)
        ]
    )
    return MedCCProblem(workflow=workflow, catalog=catalog)


@st.composite
def medcc_problems(draw, max_modules: int = 7, max_types: int = 4):
    """Strategy: small random MED-CC instances."""
    return random_dag_problem(draw, max_modules=max_modules, max_types=max_types)


@st.composite
def problems_with_budgets(draw, max_modules: int = 7, max_types: int = 4):
    """Strategy: (problem, feasible budget) pairs."""
    problem = random_dag_problem(draw, max_modules=max_modules, max_types=max_types)
    frac = draw(st.floats(min_value=0.0, max_value=1.2))
    lo, hi = problem.budget_range()
    return problem, lo + frac * (hi - lo)
