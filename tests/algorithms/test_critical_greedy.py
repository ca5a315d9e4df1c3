"""Tests for Critical-Greedy, including the paper's worked example trace."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.critical_greedy import CriticalGreedyScheduler
from repro.algorithms.exhaustive import ExhaustiveScheduler
from repro.algorithms.oracle import reference_solve
from repro.exceptions import InfeasibleBudgetError
from repro.workloads.example import EXAMPLE_BUDGET_BANDS

from tests.conftest import medcc_problems, problems_with_budgets


@pytest.fixture
def cg():
    return CriticalGreedyScheduler()


class TestPaperExampleTrace:
    """Section V-B's worked example, step by step."""

    def test_budget_57_upgrade_order(self, cg, example_problem):
        # "we first reschedule module w4 ... recalculate a new critical
        # path, and reschedule module w3 ... repeated for w6 mapped to VT3
        # and w2 mapped to VT3"
        result = cg.solve(example_problem, 57.0)
        assert [(s.module, s.to_type) for s in result.steps] == [
            ("w4", 2),
            ("w3", 2),
            ("w6", 2),
            ("w2", 2),
        ]

    def test_budget_57_final_cost_leaves_one_unit(self, cg, example_problem):
        # "under the budget of 57 with one unit of budget left unused"
        result = cg.solve(example_problem, 57.0)
        assert result.total_cost == pytest.approx(56.0)

    def test_first_step_decreases_w4_time_by_6(self, cg, example_problem):
        result = cg.solve(example_problem, 57.0)
        assert result.steps[0].time_decrease == pytest.approx(6.0)

    def test_budget_bands_match_table2(self, cg, example_problem):
        # Each Table II band's lower edge must produce the band's schedule
        # (the set of modules upgraded to VT3 relative to least-cost).
        for lower, upper, upgraded in EXAMPLE_BUDGET_BANDS:
            result = cg.solve(example_problem, lower)
            got = {
                m
                for m in example_problem.matrices.module_names
                if result.schedule[m] == 2
            }
            assert got == set(upgraded), f"band starting at {lower}"
            # Just inside the band (if bounded) the schedule is unchanged.
            if upper is not None:
                result_hi = cg.solve(example_problem, upper - 1e-6)
                got_hi = {
                    m
                    for m in example_problem.matrices.module_names
                    if result_hi.schedule[m] == 2
                }
                assert got_hi == set(upgraded)

    def test_med_monotone_in_budget(self, cg, example_problem):
        meds = [
            cg.solve(example_problem, b).med
            for b in [48, 49, 50, 52, 56, 60, 64]
        ]
        assert all(m2 <= m1 + 1e-9 for m1, m2 in zip(meds, meds[1:]))

    def test_budget_above_cmax_matches_fastest_makespan(self, cg, example_problem):
        result = cg.solve(example_problem, 1000.0)
        fastest_med = example_problem.makespan_of(
            example_problem.fastest_schedule()
        )
        assert result.med == pytest.approx(fastest_med)

    def test_infeasible_budget_raises(self, cg, example_problem):
        with pytest.raises(InfeasibleBudgetError):
            cg.solve(example_problem, 47.9)

    def test_budget_exactly_cmin_returns_least_cost(self, cg, example_problem):
        result = cg.solve(example_problem, 48.0)
        assert result.schedule.assignment == (
            example_problem.least_cost_schedule().assignment
        )


class TestAlgorithmBehaviour:
    def test_all_scope_never_worse_than_least_cost(self, example_problem):
        cg_all = CriticalGreedyScheduler(candidate_scope="all")
        lc_med = example_problem.makespan_of(
            example_problem.least_cost_schedule()
        )
        for budget in example_problem.budget_levels(8):
            assert cg_all.solve(example_problem, budget).med <= lc_med + 1e-9

    def test_invalid_scope_rejected(self):
        with pytest.raises(ValueError):
            CriticalGreedyScheduler(candidate_scope="some")

    def test_steps_record_makespan_and_cost(self, cg, example_problem):
        result = cg.solve(example_problem, 57.0)
        for step in result.steps:
            assert step.cost_after <= 57.0 + 1e-9
            assert step.time_decrease > 0
        # Makespans along the trace are non-increasing (upgrades on the CP).
        makespans = [s.makespan_after for s in result.steps]
        assert all(b <= a + 1e-9 for a, b in zip(makespans, makespans[1:]))

    def test_iterations_extra(self, cg, example_problem):
        result = cg.solve(example_problem, 57.0)
        assert result.extras["iterations"] == len(result.steps) == 4

    def test_wrf_147_5_matches_published_schedule(self, cg, wrf_problem):
        # Paper Table VII, budget 147.5: SCG = (1,1,1,1,2,1), MED 468.6.
        result = cg.solve(wrf_problem, 147.5)
        vec = tuple(
            result.schedule[m] + 1 for m in wrf_problem.matrices.module_names
        )
        assert vec == (1, 1, 1, 1, 2, 1)
        assert result.med == pytest.approx(468.6)


@settings(max_examples=60, deadline=None)
@given(pb=problems_with_budgets())
def test_cg_feasibility_and_sanity(pb):
    """Properties: within budget, never worse than least-cost, terminates."""
    problem, budget = pb
    result = CriticalGreedyScheduler().solve(problem, budget)
    result.assert_feasible()
    lc_med = problem.makespan_of(problem.least_cost_schedule())
    assert result.med <= lc_med + 1e-9
    # Iteration bound from the termination argument: m * (n - 1).
    m, _, n = problem.problem_size
    assert len(result.steps) <= m * max(n - 1, 0)


@settings(max_examples=25, deadline=None)
@given(pb=problems_with_budgets(max_modules=5, max_types=3))
def test_cg_never_beats_exhaustive(pb):
    """Property: the heuristic can never beat the exact optimum."""
    problem, budget = pb
    cg_med = CriticalGreedyScheduler().solve(problem, budget).med
    opt_med = ExhaustiveScheduler().solve(problem, budget).med
    assert cg_med >= opt_med - 1e-9


class TestAlg1TieBreaks:
    def test_equal_time_decrease_prefers_cheaper_upgrade(self):
        # Two types reach the same execution time for the critical module;
        # Alg. 1 line 13's tie-break must pick the cheaper one.
        from repro.core.module import Module
        from repro.core.problem import MedCCProblem
        from repro.core.vm import VMType, VMTypeCatalog
        from repro.core.workflow import Workflow

        problem = MedCCProblem(
            workflow=Workflow([Module("m", workload=12.0)]),
            catalog=VMTypeCatalog(
                [
                    VMType(name="slow", power=2.0, rate=1.0),     # t=6, c=6
                    VMType(name="fastA", power=6.0, rate=4.0),    # t=2, c=8
                    VMType(name="fastB", power=6.0, rate=3.5),    # t=2, c=7
                ]
            ),
        )
        result = CriticalGreedyScheduler().solve(problem, budget=8.0)
        assert result.steps[0].to_type == problem.catalog.index_of("fastB")
        assert result.med == pytest.approx(2.0)
        assert result.total_cost == pytest.approx(7.0)


def _assert_identical(ref, other):
    assert other.schedule.assignment == ref.schedule.assignment
    assert other.steps == ref.steps
    assert other.evaluation.makespan == ref.evaluation.makespan
    assert other.evaluation.total_cost == ref.evaluation.total_cost


def _production(loop, scheduler, problem, budget):
    """One production loop's result at ``budget``.

    ``"incremental"`` is the serial ``solve``; ``"batched"`` is a
    ``solve_batch`` row, with the budget range's ends in the same batch
    so the row replays a prefix of the trace memoized at Cmax.
    """
    if loop == "incremental":
        return scheduler.solve(problem, budget)
    return scheduler.solve_batch(problem, [problem.cmax, budget, problem.cmin])[1]


class TestEngineEquivalence:
    """Both production entry points must be indistinguishable from the oracle."""

    def test_default_engine_is_incremental(self):
        from repro.algorithms import declared_params

        # One production loop: ``engine`` is a reported label, not a knob.
        assert CriticalGreedyScheduler().engine == "incremental"
        assert "engine" not in declared_params(CriticalGreedyScheduler())

    @pytest.mark.parametrize("loop", ["incremental", "batched"])
    @pytest.mark.parametrize("budget", [48.0, 52.0, 57.0, 64.0])
    def test_identical_on_paper_example(self, example_problem, budget, loop):
        ref = reference_solve(example_problem, budget)
        other = _production(loop, CriticalGreedyScheduler(), example_problem, budget)
        _assert_identical(ref, other)
        assert other.extras == ref.extras

    @pytest.mark.parametrize("loop", ["incremental", "batched"])
    def test_identical_on_wrf(self, wrf_problem, loop):
        budget = 0.5 * (wrf_problem.cmin + wrf_problem.cmax)
        ref = reference_solve(wrf_problem, budget)
        other = _production(loop, CriticalGreedyScheduler(), wrf_problem, budget)
        _assert_identical(ref, other)

    @pytest.mark.parametrize("scope", ["critical", "all"])
    @pytest.mark.parametrize("with_transfers", [False, True])
    def test_identical_on_random_instances(self, scope, with_transfers):
        import dataclasses

        import numpy as np

        from repro.core.problem import TransferModel
        from repro.workloads.generator import generate_problem

        for seed in range(4):
            rng = np.random.default_rng(1000 + seed)
            problem = generate_problem((12, 25, 4), rng)
            if with_transfers:
                problem = dataclasses.replace(
                    problem, transfers=TransferModel(bandwidth=2.0, latency=0.5)
                )
            budget = 0.6 * problem.cmin + 0.4 * problem.cmax
            ref = reference_solve(problem, budget, candidate_scope=scope)
            scheduler = CriticalGreedyScheduler(candidate_scope=scope)
            for loop in ("incremental", "batched"):
                _assert_identical(ref, _production(loop, scheduler, problem, budget))

    @given(pb=problems_with_budgets())
    @settings(max_examples=25, deadline=None)
    def test_identical_on_hypothesis_instances(self, pb):
        problem, budget = pb
        if budget < problem.cmin:
            return  # infeasible budgets raise identically; covered elsewhere
        ref = reference_solve(problem, budget)
        for loop in ("incremental", "batched"):
            other = _production(loop, CriticalGreedyScheduler(), problem, budget)
            _assert_identical(ref, other)

    def test_transfer_blind_ablation_matches_oracle(self):
        import dataclasses

        import numpy as np

        from repro.core.problem import TransferModel
        from repro.workloads.generator import generate_problem

        problem = dataclasses.replace(
            generate_problem((12, 25, 4), np.random.default_rng(7)),
            transfers=TransferModel(bandwidth=2.0, latency=0.5),
        )
        budget = 0.5 * (problem.cmin + problem.cmax)
        ref = reference_solve(problem, budget, transfer_aware=False)
        scheduler = CriticalGreedyScheduler(transfer_aware=False)
        for loop in ("incremental", "batched"):
            _assert_identical(ref, _production(loop, scheduler, problem, budget))


class TestIncrementalEngineInternals:
    """Pickling and the vectorized argmax guards."""

    def test_pickle_round_trip(self, example_problem):
        import pickle

        cg = CriticalGreedyScheduler(candidate_scope="all")
        cg.solve(example_problem, 57.0)
        clone = pickle.loads(pickle.dumps(cg))
        assert clone == cg
        _assert_identical(
            cg.solve(example_problem, 57.0), clone.solve(example_problem, 57.0)
        )
        _assert_identical(
            reference_solve(example_problem, 57.0, candidate_scope="all"),
            clone.solve(example_problem, 57.0),
        )

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_pick_step_matches_scalar_scan(self, data):
        """The vectorized argmax must equal the scalar scan, always.

        Values are drawn from a tiny grid spaced well below ``_EPS``
        apart, which makes near-ties (the C1/C2 guard conditions) the
        common case rather than a rarity — precisely the inputs where a
        naive vectorization would diverge from the reference tie-break.
        """
        import numpy as np

        from repro.algorithms.critical_greedy import (
            _EPS,
            _pick_step,
            _pick_step_scan,
        )

        rows = data.draw(st.integers(min_value=1, max_value=4))
        cols = data.draw(st.integers(min_value=1, max_value=3))
        grid = st.sampled_from(
            [0.0, _EPS / 4, _EPS / 2, _EPS, 2 * _EPS, 1.0, 1.0 + _EPS / 2]
        )
        cells = rows * cols
        dt = np.array(
            data.draw(st.lists(grid, min_size=cells, max_size=cells))
        ).reshape(rows, cols)
        dc = np.array(
            data.draw(st.lists(grid, min_size=cells, max_size=cells))
        ).reshape(rows, cols)
        valid = np.array(
            data.draw(
                st.lists(st.booleans(), min_size=cells, max_size=cells)
            )
        ).reshape(rows, cols)
        assert _pick_step(dt, dc, valid, cols) == _pick_step_scan(
            dt, dc, valid, cols
        )


def _warm_stream_cases():
    """(problem, scheduler) params for the warm-start identity tests."""
    import dataclasses

    import numpy as np

    from repro.core.problem import TransferModel
    from repro.workloads.example import example_problem
    from repro.workloads.generator import generate_problem
    from repro.workloads.wrf import wrf_problem
    from tests.algorithms.test_critical_greedy_batch import _tie_problem

    cases = [
        pytest.param(example_problem(), CriticalGreedyScheduler(), id="example"),
        pytest.param(wrf_problem(), CriticalGreedyScheduler(), id="wrf"),
    ]
    for seed in range(3):
        problem = generate_problem((12, 25, 4), np.random.default_rng(2000 + seed))
        transfers = dataclasses.replace(
            problem, transfers=TransferModel(bandwidth=2.0, latency=0.5, unit_cost=0.1)
        )
        # Transfer-blind results leave the transfer charge out of their
        # cost, so that ablation runs on free-of-charge transfers.
        timed = dataclasses.replace(
            problem, transfers=TransferModel(bandwidth=2.0, latency=0.5)
        )
        cases += [
            pytest.param(problem, CriticalGreedyScheduler(), id=f"random-{seed}"),
            pytest.param(
                transfers, CriticalGreedyScheduler(), id=f"random-{seed}-transfers"
            ),
            pytest.param(
                problem,
                CriticalGreedyScheduler(candidate_scope="all"),
                id=f"random-{seed}-all",
            ),
            pytest.param(
                timed,
                CriticalGreedyScheduler(transfer_aware=False),
                id=f"random-{seed}-transfer-blind",
            ),
        ]
    for delta in (0.0, 1e-12, 1e-10, 1e-9, 1e-6):
        cases.append(
            pytest.param(_tie_problem(delta), CriticalGreedyScheduler(), id=f"tie-{delta:g}")
        )
    return cases


def _budget_orders(problem):
    """Descending, shuffled and ascending streams over one budget range.

    Each ends with a repeated budget, Cmin, Cmax and a budget above
    everything solved before, so a stream exercises full replays,
    partial replays, replays that stop at once and fresh cold solves.
    """
    import random

    lo, hi = problem.budget_range()
    grid = [lo + frac * (hi - lo) for frac in (0.03, 0.1, 0.25, 0.4, 0.5, 0.65, 0.8, 0.95)]
    shuffled = list(grid)
    random.Random(11).shuffle(shuffled)
    tail = [grid[3], grid[3], lo, hi, hi + 0.5 * (hi - lo)]
    return {
        "descending": sorted(grid, reverse=True) + tail,
        "shuffled": shuffled + tail,
        "ascending": sorted(grid) + tail,
    }


def _cold_solve(scheduler, problem, budget):
    """A solve on a fresh copy of ``problem``: an empty warm-start memo."""
    import dataclasses

    return scheduler.solve(dataclasses.replace(problem), budget)


class TestTracePrefixWarmStart:
    """Serial ``solve`` replays the memoized trace of a larger budget.

    Every warm answer must equal a cold solve on a fresh problem copy
    (the whole :class:`SchedulerResult`, extras included) and the oracle.
    """

    @pytest.mark.parametrize("problem,scheduler", _warm_stream_cases())
    @pytest.mark.parametrize("order", ["descending", "shuffled", "ascending"])
    def test_warm_stream_equals_cold_and_oracle(self, problem, scheduler, order):
        import dataclasses

        problem = dataclasses.replace(problem)  # one memo per stream
        for budget in _budget_orders(problem)[order]:
            warm = scheduler.solve(problem, budget)
            cold = _cold_solve(scheduler, problem, budget)
            assert warm == cold, f"budget={budget}"
            assert warm.extras == cold.extras
            ref = reference_solve(
                problem,
                budget,
                candidate_scope=scheduler.candidate_scope,
                transfer_aware=scheduler.transfer_aware,
            )
            _assert_identical(ref, warm)
            assert warm.extras == ref.extras

    @given(
        problem=medcc_problems(),
        fracs=st.lists(st.floats(min_value=0.0, max_value=1.3), min_size=2, max_size=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_budget_order_matches_oracle(self, problem, fracs):
        lo, hi = problem.budget_range()
        scheduler = CriticalGreedyScheduler()
        for frac in fracs:
            budget = lo + frac * (hi - lo)
            warm = scheduler.solve(problem, budget)
            assert warm == _cold_solve(scheduler, problem, budget)
            _assert_identical(reference_solve(problem, budget), warm)

    def test_lower_budget_replays_instead_of_resweeping(self, monkeypatch):
        import dataclasses

        import numpy as np

        from repro.core import fastpath
        from repro.workloads.generator import generate_problem

        calls = {"set_duration": 0}
        set_duration = fastpath.IncrementalSweep.set_duration

        def counting(self, node, value):
            calls["set_duration"] += 1
            return set_duration(self, node, value)

        monkeypatch.setattr(fastpath.IncrementalSweep, "set_duration", counting)
        problem = generate_problem((30, 80, 5), np.random.default_rng(5))
        lo, hi = problem.budget_range()
        high, low = lo + 0.9 * (hi - lo), lo + 0.6 * (hi - lo)
        scheduler = CriticalGreedyScheduler()

        cold = scheduler.solve(dataclasses.replace(problem), low)
        cold_updates = calls["set_duration"]
        assert cold_updates == len(cold.steps) > 0

        scheduler.solve(problem, high)
        calls["set_duration"] = 0
        warm = scheduler.solve(problem, low)
        assert warm == cold
        assert calls["set_duration"] < cold_updates

        calls["set_duration"] = 0
        repeat = scheduler.solve(problem, high)
        assert calls["set_duration"] == 0  # a repeat budget replays whole
        assert repeat == _cold_solve(scheduler, problem, high)

    def test_threads_sharing_one_problem_match_cold_serial(self):
        import dataclasses
        import sys
        import threading

        import numpy as np

        from repro.service import codec
        from repro.workloads.generator import generate_problem

        problem = generate_problem((40, 120, 5), np.random.default_rng(8))
        lo, hi = problem.budget_range()
        budgets = [lo + frac * (hi - lo) for frac in (0.9, 0.2, 0.7, 0.4, 1.1, 0.05, 0.55, 0.8)]
        scheduler = CriticalGreedyScheduler()

        def encoded(result):
            return codec.dumps(codec.encode_result_fragment(result, problem.catalog))

        expected = [
            encoded(scheduler.solve(dataclasses.replace(problem), b)) for b in budgets
        ]
        shared = dataclasses.replace(problem)
        results: list[str | None] = [None] * len(budgets)
        barrier = threading.Barrier(len(budgets))

        def run(i):
            barrier.wait()
            for _ in range(3):
                results[i] = encoded(scheduler.solve(shared, budgets[i]))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(len(budgets))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert results == expected

    def test_memo_stays_out_of_equality_hash_and_pickle_identity(self, example_problem):
        import dataclasses
        import pickle

        fresh = dataclasses.replace(example_problem)
        before = hash(example_problem)
        scheduler = CriticalGreedyScheduler()
        scheduler.solve(example_problem, 64.0)
        assert example_problem.step_traces  # the memo was filled
        assert not fresh.step_traces
        assert example_problem == fresh
        assert hash(example_problem) == before == hash(fresh)

        clone = pickle.loads(pickle.dumps(example_problem))
        assert clone == example_problem
        for budget in (64.0, 57.0, 52.0, 48.0):
            assert scheduler.solve(clone, budget) == scheduler.solve(fresh, budget)

    def test_near_tie_pick_is_not_replayed(self):
        """A scan pick may change at a tighter cutoff, so it never replays.

        One module, three upgrades whose time decreases lie within
        ``_EPS`` of each other.  With all three affordable the eps-chained
        scan walks A -> C; without A it settles on B, so replaying the
        stored pick at the lower budget would be wrong.
        """
        from repro.algorithms.critical_greedy import _EPS
        from repro.core.billing import ExactBilling
        from repro.core.module import Module
        from repro.core.problem import MedCCProblem
        from repro.core.vm import VMType, VMTypeCatalog
        from repro.core.workflow import Workflow

        times = (10.0, 9.0 - 1.8 * _EPS, 9.0 - 0.3 * _EPS, 9.0 - 0.9 * _EPS)
        costs = (10.0, 14.0, 12.0, 13.0)
        problem = MedCCProblem(
            workflow=Workflow([Module("m", workload=1.0)]),
            catalog=VMTypeCatalog(
                [
                    VMType(name=name, power=1.0, rate=cost / time)
                    for name, cost, time in zip("SABC", costs, times)
                ]
            ),
            billing=ExactBilling(),
            measured_te={"m": times},
        )
        scheduler = CriticalGreedyScheduler()
        high = scheduler.solve(problem, 14.0)
        assert [s.to_type for s in high.steps] == [3]
        low = scheduler.solve(problem, 13.5)
        assert [s.to_type for s in low.steps] == [2]
        assert low == _cold_solve(scheduler, problem, 13.5)
        _assert_identical(reference_solve(problem, 13.5), low)
