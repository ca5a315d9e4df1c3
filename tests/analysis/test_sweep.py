"""Tests for the budget-sweep and instance-comparison harness."""

import pytest

from repro.algorithms.critical_greedy import CriticalGreedyScheduler
from repro.algorithms.gain import Gain3Scheduler
from repro.analysis.sweep import compare_on_instances, sweep_budgets
from repro.exceptions import ExperimentError
from repro.workloads.generator import generate_problem


class TestSweepBudgets:
    def test_sweep_structure(self, example_problem):
        sweep = sweep_budgets(
            example_problem,
            [CriticalGreedyScheduler(), Gain3Scheduler()],
            levels=5,
        )
        assert len(sweep.points) == 5
        assert sweep.cmin == pytest.approx(48.0)
        assert sweep.cmax == pytest.approx(64.0)
        assert sweep.points[-1].budget == pytest.approx(64.0)
        for point in sweep.points:
            assert set(point.med) == {"critical-greedy", "gain3"}
            assert point.cost["critical-greedy"] <= point.budget + 1e-9

    def test_explicit_budgets(self, wrf_problem):
        sweep = sweep_budgets(
            wrf_problem,
            [CriticalGreedyScheduler()],
            budgets=[147.5, 186.2],
        )
        assert [p.budget for p in sweep.points] == [147.5, 186.2]

    def test_average_and_ratio(self, example_problem):
        sweep = sweep_budgets(
            example_problem,
            [CriticalGreedyScheduler(), Gain3Scheduler()],
            levels=4,
        )
        cg_avg = sweep.average_med("critical-greedy")
        gain_avg = sweep.average_med("gain3")
        assert sweep.med_ratio("critical-greedy", "gain3") == pytest.approx(
            cg_avg / gain_avg
        )
        imp = sweep.average_improvement("critical-greedy", "gain3")
        assert imp == pytest.approx(
            sum(
                (p.med["gain3"] - p.med["critical-greedy"]) / p.med["gain3"] * 100
                for p in sweep.points
            )
            / 4
        )

    def test_no_schedulers_rejected(self, example_problem):
        with pytest.raises(ExperimentError):
            sweep_budgets(example_problem, [])

    def test_med_nonincreasing_over_levels_for_cg(self, example_problem):
        sweep = sweep_budgets(example_problem, [CriticalGreedyScheduler()], levels=10)
        meds = [p.med["critical-greedy"] for p in sweep.points]
        assert all(b <= a + 1e-9 for a, b in zip(meds, meds[1:]))


class TestBatchedSerialPath:
    """The serial sweep batches the budget axis; results must not move."""

    def test_serial_sweep_matches_per_point_solves(self, example_problem):
        scheduler = CriticalGreedyScheduler()
        sweep = sweep_budgets(example_problem, [scheduler], levels=6)
        for point in sweep.points:
            result = scheduler.solve(example_problem, point.budget)
            # Exact equality: the batched path is bit-identical, not close.
            assert point.med["critical-greedy"] == result.med
            assert point.cost["critical-greedy"] == result.total_cost

    def test_scheduler_without_solve_batch_agrees(self, example_problem):
        class PlainCG:
            """Critical-Greedy stripped of its batch entry point."""

            name = "plain-cg"

            def __init__(self):
                self._inner = CriticalGreedyScheduler()

            def solve(self, problem, budget):
                return self._inner.solve(problem, budget)

        sweep = sweep_budgets(
            example_problem, [CriticalGreedyScheduler(), PlainCG()], levels=6
        )
        for point in sweep.points:
            assert point.med["plain-cg"] == point.med["critical-greedy"]
            assert point.cost["plain-cg"] == point.cost["critical-greedy"]


class TestCompareOnInstances:
    def test_deterministic_given_seed(self):
        def make(rng):
            return generate_problem((6, 8, 3), rng)

        schedulers = [CriticalGreedyScheduler(), Gain3Scheduler()]
        a = compare_on_instances(make, schedulers, instances=3, levels=4, seed=9)
        b = compare_on_instances(make, schedulers, instances=3, levels=4, seed=9)
        assert a.average_med("critical-greedy") == pytest.approx(
            b.average_med("critical-greedy")
        )

    def test_aggregations(self):
        def make(rng):
            return generate_problem((6, 8, 3), rng)

        cmp = compare_on_instances(
            make,
            [CriticalGreedyScheduler(), Gain3Scheduler()],
            instances=3,
            levels=4,
            seed=1,
        )
        assert len(cmp.sweeps) == 3
        by_level = cmp.improvement_by_level("critical-greedy", "gain3")
        assert len(by_level) == 4
        overall = cmp.average_improvement("critical-greedy", "gain3")
        assert overall == pytest.approx(
            sum(
                s.average_improvement("critical-greedy", "gain3")
                for s in cmp.sweeps
            )
            / 3
        )

    def test_zero_instances_rejected(self):
        with pytest.raises(ExperimentError):
            compare_on_instances(lambda rng: None, [], instances=0)
