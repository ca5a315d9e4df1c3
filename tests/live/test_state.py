"""Unit tests for the LiveWorkflow state machine."""

import pytest

from repro.algorithms.critical_greedy import CriticalGreedyScheduler
from repro.exceptions import EventConflictError, LiveWorkflowError
from repro.live.state import DONE, PENDING, RUNNING, LiveEvent, LiveWorkflow
from repro.service.codec import dumps


def make_live(problem, budget, **kwargs) -> LiveWorkflow:
    plan = CriticalGreedyScheduler().solve(problem, budget)
    return LiveWorkflow("wf-test", problem, budget, plan, **kwargs)


def topo_order(problem):
    """Module names in a precedence-respecting order."""
    workflow = problem.workflow
    done: set[str] = set()
    order: list[str] = []
    names = list(workflow.module_names)
    while len(order) < len(names):
        for name in names:
            if name in done:
                continue
            if all(p in done for p in workflow.predecessors(name)):
                order.append(name)
                done.add(name)
    return order


def planned_duration(live: LiveWorkflow, module: str) -> float:
    mod = live.problem.workflow.module(module)
    if not mod.is_schedulable:
        return float(mod.fixed_time or 0.0)
    row = live.problem.matrices.row_index[module]
    return float(live._state.current_te[row])


def first_schedulable(live: LiveWorkflow):
    """Complete leading fixed modules; returns (module, next_seq) with the
    first schedulable module ready to start."""
    seq = 1
    for name in topo_order(live.problem):
        if live.problem.workflow.module(name).is_schedulable:
            return name, seq
        live.handle_event({"seq": seq, "type": "started", "module": name})
        live.handle_event(
            {
                "seq": seq + 1,
                "type": "completed",
                "module": name,
                "duration": planned_duration(live, name),
            }
        )
        seq += 2
    raise AssertionError("no schedulable module")


def run_to_completion(live: LiveWorkflow, drift=None, seq_start=1):
    """Feed started/completed pairs for every module, in topo order."""
    drift = drift or {}
    seq = seq_start
    last = None
    for name in topo_order(live.problem):
        last = live.handle_event({"seq": seq, "type": "started", "module": name})
        seq += 1
        duration = drift.get(name, planned_duration(live, name))
        last = live.handle_event(
            {"seq": seq, "type": "completed", "module": name, "duration": duration}
        )
        seq += 1
    return last


class TestEventParsing:
    def test_rejects_non_mapping(self):
        with pytest.raises(LiveWorkflowError):
            LiveEvent.parse([1, 2, 3])

    @pytest.mark.parametrize("seq", [0, -1, 1.5, "1", True, None])
    def test_rejects_bad_seq(self, seq):
        with pytest.raises(LiveWorkflowError):
            LiveEvent.parse({"seq": seq, "type": "topup", "amount": 1.0})

    def test_rejects_unknown_kind(self):
        with pytest.raises(LiveWorkflowError):
            LiveEvent.parse({"seq": 1, "type": "paused", "module": "a"})

    def test_module_kinds_require_module(self):
        for kind in ("started", "completed", "failed"):
            with pytest.raises(LiveWorkflowError):
                LiveEvent.parse({"seq": 1, "type": kind})

    def test_completed_requires_nonnegative_duration(self):
        with pytest.raises(LiveWorkflowError):
            LiveEvent.parse(
                {"seq": 1, "type": "completed", "module": "a", "duration": -0.5}
            )
        with pytest.raises(LiveWorkflowError):
            LiveEvent.parse({"seq": 1, "type": "completed", "module": "a"})

    def test_topup_requires_positive_amount(self):
        with pytest.raises(LiveWorkflowError):
            LiveEvent.parse({"seq": 1, "type": "topup", "amount": 0.0})
        with pytest.raises(LiveWorkflowError):
            LiveEvent.parse({"seq": 1, "type": "topup", "amount": float("nan")})

    def test_accepts_minimal_events(self):
        event = LiveEvent.parse({"seq": 3, "type": "topup", "amount": 2.5})
        assert event.seq == 3 and event.amount == 2.5
        event = LiveEvent.parse(
            {"seq": 1, "type": "started", "module": "a", "vm_type": "m1"}
        )
        assert event.vm_type == "m1"


class TestTransitions:
    def test_unknown_module_is_400(self, example_problem):
        live = make_live(example_problem, 57.0)
        with pytest.raises(LiveWorkflowError):
            live.handle_event({"seq": 1, "type": "started", "module": "nope"})

    def test_unknown_vm_type_is_400(self, example_problem):
        live = make_live(example_problem, 57.0)
        module, seq = first_schedulable(live)
        with pytest.raises(LiveWorkflowError):
            live.handle_event(
                {"seq": seq, "type": "started", "module": module, "vm_type": "z9"}
            )

    def test_start_before_predecessors_is_409(self, example_problem):
        last = topo_order(example_problem)[-1]
        live = make_live(example_problem, 57.0)
        with pytest.raises(EventConflictError):
            live.handle_event({"seq": 1, "type": "started", "module": last})

    def test_double_start_is_409(self, example_problem):
        live = make_live(example_problem, 57.0)
        first = topo_order(example_problem)[0]
        live.handle_event({"seq": 1, "type": "started", "module": first})
        with pytest.raises(EventConflictError):
            live.handle_event({"seq": 2, "type": "started", "module": first})

    def test_fail_without_running_is_409(self, example_problem):
        live = make_live(example_problem, 57.0)
        first = topo_order(example_problem)[0]
        with pytest.raises(EventConflictError):
            live.handle_event(
                {"seq": 1, "type": "failed", "module": first, "elapsed": 1.0}
            )

    def test_status_lifecycle(self, example_problem):
        live = make_live(example_problem, 57.0)
        first = topo_order(example_problem)[0]
        assert live._status[first] == PENDING
        live.handle_event({"seq": 1, "type": "started", "module": first})
        assert live._status[first] == RUNNING
        live.handle_event(
            {
                "seq": 2,
                "type": "completed",
                "module": first,
                "duration": planned_duration(live, first),
            }
        )
        assert live._status[first] == DONE


class TestIdempotency:
    def test_sequence_gap_is_409(self, example_problem):
        live = make_live(example_problem, 57.0)
        with pytest.raises(EventConflictError):
            live.handle_event({"seq": 5, "type": "topup", "amount": 1.0})

    def test_identical_replay_returns_stored_response(self, example_problem):
        live = make_live(example_problem, 57.0)
        payload = {"seq": 1, "type": "topup", "amount": 3.0}
        first = live.handle_event(dict(payload))
        replay = live.handle_event(dict(payload))
        assert replay["replayed"] is True
        assert live.budget == pytest.approx(60.0)  # applied exactly once
        body = {k: v for k, v in first.items() if k != "replayed"}
        replay_body = {k: v for k, v in replay.items() if k != "replayed"}
        assert dumps(body) == dumps(replay_body)

    def test_divergent_replay_is_409(self, example_problem):
        live = make_live(example_problem, 57.0)
        live.handle_event({"seq": 1, "type": "topup", "amount": 3.0})
        with pytest.raises(EventConflictError):
            live.handle_event({"seq": 1, "type": "topup", "amount": 4.0})

    def test_replay_window_is_bounded(self, example_problem):
        """_history keeps only the last _REPLAY_WINDOW seqs; older
        retries get a generic replayed ack instead of growing memory
        (or wedging the stream) for the workflow's lifetime."""
        from repro.live.state import _REPLAY_WINDOW

        live = make_live(example_problem, 57.0)
        total = _REPLAY_WINDOW + 5
        for seq in range(1, total + 1):
            live.handle_event({"seq": seq, "type": "topup", "amount": 0.25})
        assert len(live._history) == _REPLAY_WINDOW
        assert min(live._history) == total - _REPLAY_WINDOW + 1

        # Inside the window, replays stay digest-verified.
        recent = live.handle_event(
            {"seq": total, "type": "topup", "amount": 0.25}
        )
        assert recent["replayed"] is True
        with pytest.raises(EventConflictError):
            live.handle_event({"seq": total, "type": "topup", "amount": 9.0})

        # Beyond the window, an ancient retry gets a generic ack built
        # from current state (its digest can no longer be checked).
        budget_before = live.budget
        ancient = live.handle_event(
            {"seq": 1, "type": "topup", "amount": 0.25}
        )
        assert ancient["replayed"] is True
        assert ancient["seq"] == 1
        assert ancient["revision"] == live.revision
        assert live.budget == pytest.approx(budget_before)  # not re-applied
        assert live.last_seq == total

    def test_revision_is_monotonic(self, example_problem):
        live = make_live(example_problem, 52.0)
        seen = [live.revision]
        seq = 1
        for name in topo_order(example_problem):
            live.handle_event({"seq": seq, "type": "started", "module": name})
            seen.append(live.revision)
            seq += 1
            live.handle_event(
                {
                    "seq": seq,
                    "type": "completed",
                    "module": name,
                    "duration": 1.25 * planned_duration(live, name),
                }
            )
            seen.append(live.revision)
            seq += 1
        assert seen == sorted(seen)


class TestZeroDrift:
    def test_zero_drift_keeps_revision_zero(self, example_problem):
        for budget in (48.0, 52.0, 57.0, 64.0):
            live = make_live(example_problem, budget)
            offline = dumps(live._result_fragment(0)["schedule"])
            last = run_to_completion(live)
            assert live.revision == 0
            assert live.is_complete()
            assert last["result"]["schedule"] is not None
            assert dumps(last["result"]["schedule"]) == offline
            # Actuals equal planned bitwise, so spend == planned done cost.
            assert live.spend == live._planned_done_cost
            assert live.planning_budget == budget

    def test_zero_drift_wrf(self, wrf_problem):
        live = make_live(wrf_problem, 174.9)
        run_to_completion(live)
        assert live.revision == 0 and live.is_complete()


class TestReoptimization:
    def test_topup_triggers_upgrade(self, example_problem):
        # Start from a tight budget; a top-up to a known level must let
        # the residual re-optimizer spend it (example: 48 -> 57 budget).
        tight = make_live(example_problem, 48.0)
        baseline = tight.projected_makespan
        response = tight.handle_event({"seq": 1, "type": "topup", "amount": 9.0})
        assert response["changed"] is True
        assert tight.revision == 1
        assert tight.projected_makespan < baseline
        assert tight.projected_cost <= 57.0 + 1e-9
        # The re-optimized plan matches the offline solve at 57.
        offline = make_live(example_problem, 57.0)
        assert tight.projected_makespan == pytest.approx(
            offline.projected_makespan
        )

    def test_late_completion_charges_drift(self, example_problem):
        live = make_live(example_problem, 57.0)
        first, seq = first_schedulable(live)
        live.handle_event({"seq": seq, "type": "started", "module": first})
        planned = planned_duration(live, first)
        live.handle_event(
            {
                "seq": seq + 1,
                "type": "completed",
                "module": first,
                "duration": planned * 3.0,
            }
        )
        assert live.spend > 0.0
        assert live.projected_cost <= live.budget + 1e-9
        status = live.status_payload()
        assert status["ledger"]["cost_drift"] >= 0.0

    def test_failure_bills_sunk_cost_and_repends(self, example_problem):
        live = make_live(example_problem, 57.0)
        first, seq = first_schedulable(live)
        live.handle_event({"seq": seq, "type": "started", "module": first})
        live.handle_event(
            {"seq": seq + 1, "type": "failed", "module": first, "elapsed": 2.0}
        )
        assert live.failures == 1
        assert live.spend > 0.0
        assert live._status[first] == PENDING
        # The module can start again (the retry).
        live.handle_event({"seq": seq + 2, "type": "started", "module": first})
        assert live._status[first] == RUNNING

    def test_reconciliation_on_divergent_start(self, example_problem):
        live = make_live(example_problem, 57.0)
        first, seq = first_schedulable(live)
        row = live.problem.matrices.row_index[first]
        current = live._state.columns[row]
        other = (current + 1) % len(live.problem.catalog.names)
        response = live.handle_event(
            {
                "seq": seq,
                "type": "started",
                "module": first,
                "vm_type": live.problem.catalog.names[other],
            }
        )
        assert live.reconciliations == 1
        assert response["revision"] >= 1
        assert live._state.columns[row] == other

    def test_over_budget_flag_when_unrepairable(self, example_problem):
        live = make_live(example_problem, 48.0)
        first, seq = first_schedulable(live)
        live.handle_event({"seq": seq, "type": "started", "module": first})
        # A catastrophic failure bill no repair can absorb.
        response = live.handle_event(
            {"seq": seq + 1, "type": "failed", "module": first, "elapsed": 1000.0}
        )
        assert response["over_budget"] is True
        assert live.projected_cost > live.budget
        # A big enough top-up clears the flag.
        response = live.handle_event(
            {"seq": seq + 2, "type": "topup", "amount": live.projected_cost}
        )
        assert response["over_budget"] is False


class TestStepState:
    """The live replanner runs the solver's own step state."""

    def test_registration_and_restore_each_run_one_full_sweep(self, example_problem):
        live = make_live(example_problem, 57.0)
        assert live._state.sweep.full_sweeps == 1
        first, seq = first_schedulable(live)
        live.handle_event({"seq": seq, "type": "started", "module": first})
        live.handle_event(
            {
                "seq": seq + 1,
                "type": "completed",
                "module": first,
                "duration": 1.5 * planned_duration(live, first),
            }
        )
        snapshot = live.snapshot_state()

        restored = make_live(example_problem, 57.0)
        restored.load_state(snapshot)
        assert restored._state.sweep.full_sweeps == 1
        assert dumps(restored.snapshot_state()) == dumps(snapshot)

    def test_restore_rejects_negative_realized_duration(self, example_problem):
        live = make_live(example_problem, 57.0)
        snapshot = live.snapshot_state()
        name = live.problem.matrices.module_names[0]
        snapshot["actual_time"] = {name: -1.0}
        with pytest.raises(LiveWorkflowError, match="non-negative"):
            make_live(example_problem, 57.0).load_state(snapshot)
