"""Unit tests for Schedule and ScheduleEvaluation."""

import pytest

from repro.core.matrices import compute_matrices
from repro.core.schedule import Schedule
from repro.exceptions import ScheduleError
from repro.workloads.example import example_catalog, example_problem, example_workflow


@pytest.fixture
def matrices():
    return compute_matrices(example_workflow(), example_catalog())


@pytest.fixture
def least_cost():
    return example_problem().least_cost_schedule()


class TestScheduleBasics:
    def test_lookup(self, least_cost):
        assert least_cost["w1"] == 1
        assert "w1" in least_cost
        assert len(least_cost) == 6

    def test_unknown_module_raises(self, least_cost):
        with pytest.raises(ScheduleError):
            least_cost["ghost"]

    def test_with_assignment_is_pure(self, least_cost):
        upgraded = least_cost.with_assignment("w4", 2)
        assert upgraded["w4"] == 2
        assert least_cost["w4"] == 0

    def test_with_assignment_unknown_module(self, least_cost):
        with pytest.raises(ScheduleError):
            least_cost.with_assignment("ghost", 1)

    def test_as_type_names(self, least_cost):
        names = least_cost.as_type_names(("VT1", "VT2", "VT3"))
        assert names["w3"] == "VT1"
        assert names["w1"] == "VT2"

    def test_type_vector_ordering(self, least_cost):
        vec = least_cost.type_vector(("w1", "w2", "w3", "w4", "w5", "w6"))
        assert vec == (1, 1, 0, 0, 1, 0)


class TestValidation:
    def test_missing_module_rejected(self, matrices):
        bad = Schedule({"w1": 0})
        with pytest.raises(ScheduleError, match="missing"):
            bad.validate(matrices)

    def test_extra_module_rejected(self, matrices, least_cost):
        bad = Schedule({**least_cost.assignment, "ghost": 0})
        with pytest.raises(ScheduleError, match="extra"):
            bad.validate(matrices)

    def test_out_of_range_type_rejected(self, matrices, least_cost):
        bad = least_cost.with_assignment("w1", 99)
        with pytest.raises(ScheduleError, match="invalid VM-type index"):
            bad.validate(matrices)

    def test_negative_type_rejected(self, matrices, least_cost):
        bad = least_cost.with_assignment("w1", -1)
        with pytest.raises(ScheduleError):
            bad.validate(matrices)


class TestEvaluation:
    def test_least_cost_totals(self, matrices, least_cost):
        assert least_cost.total_cost(matrices) == pytest.approx(48.0)

    def test_durations_include_fixed_modules(self, matrices, least_cost):
        durations = least_cost.durations(example_workflow(), matrices)
        assert durations["w0"] == 1.0
        assert durations["w7"] == 1.0
        assert durations["w4"] == pytest.approx(20 / 3)

    def test_evaluate_produces_cp_analysis(self, matrices, least_cost):
        ev = least_cost.evaluate(example_workflow(), matrices)
        assert ev.total_cost == pytest.approx(48.0)
        # Entry (1h) + w1 (1h) + w4 (20/3) + w6 (17/3) + exit (1h).
        assert ev.makespan == pytest.approx(2 + 1 + 20 / 3 + 17 / 3)
        assert ev.analysis.critical_path[0] == "w0"

    def test_within_budget(self, matrices, least_cost):
        ev = least_cost.evaluate(example_workflow(), matrices)
        assert ev.within_budget(48.0)
        assert ev.within_budget(48.0 - 1e-12)  # tolerance
        assert not ev.within_budget(47.0)

    def test_summary_mentions_cost_and_path(self, matrices, least_cost):
        text = least_cost.evaluate(example_workflow(), matrices).summary()
        assert "cost=48" in text
        assert "w0" in text

    def test_transfer_times_affect_makespan(self, matrices, least_cost):
        base = least_cost.evaluate(example_workflow(), matrices).makespan
        slowed = least_cost.evaluate(
            example_workflow(),
            matrices,
            transfer_times={("w0", "w1"): 2.0},
        ).makespan
        # w0->w1 sits on the critical path, so +2 moves the makespan.
        assert slowed == pytest.approx(base + 2.0)


class TestWithAssignmentFastPath:
    """with_assignment: one fresh copy, immutability intact (perf satellite)."""

    def test_returns_new_independent_schedule(self, least_cost):
        module = next(iter(least_cost.assignment))
        updated = least_cost.with_assignment(module, 1)
        assert updated is not least_cost
        assert updated[module] == 1
        assert updated.assignment is not least_cost.assignment

    def test_original_unchanged(self, least_cost):
        module = next(iter(least_cost.assignment))
        before = dict(least_cost.assignment)
        least_cost.with_assignment(module, 1)
        assert least_cost.assignment == before

    def test_result_is_still_frozen(self, least_cost):
        module = next(iter(least_cost.assignment))
        updated = least_cost.with_assignment(module, 1)
        with pytest.raises(AttributeError):
            updated.assignment = {}

    def test_unknown_module_rejected(self, least_cost):
        with pytest.raises(ScheduleError):
            least_cost.with_assignment("nope", 0)

    def test_adopted_schedule_behaves_like_constructed(self, least_cost):
        clone = Schedule(dict(least_cost.assignment))
        assert clone == least_cost
        assert len(clone) == len(least_cost)


class TestEvaluateKernelParity:
    """Schedule.evaluate: fast kernel and reference path agree exactly."""

    def test_kernel_and_reference_evaluations_match(self, least_cost):
        from repro.core.critical_path import analyze_critical_path

        problem = example_problem()
        on = least_cost.evaluate(problem.workflow, problem.matrices)
        ref = analyze_critical_path(
            problem.workflow, least_cost.durations(problem.workflow, problem.matrices)
        )
        assert on.total_cost == least_cost.total_cost(problem.matrices)
        assert on.makespan == ref.makespan
        assert on.analysis == ref
        assert on.analysis.critical_path == ref.critical_path
