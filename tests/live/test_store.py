"""LiveWorkflowManager: registration, durability, lazy recovery."""

import threading

import pytest

from repro.exceptions import (
    EventConflictError,
    LiveLogCorruptionError,
    LiveWorkflowError,
    UnknownWorkflowError,
)
from repro.live.fencing import fence_record
from repro.live.store import LiveWorkflowManager
from repro.service.codec import dumps


class TestRegistration:
    def test_register_returns_plan(self, registration):
        manager = LiveWorkflowManager()
        body = manager.register(registration)
        assert body["status"] == "ok"
        assert body["revision"] == 0 and body["seq"] == 0
        assert body["result"]["engine"] == "live"
        assert body["result"]["schedule"]

    def test_register_derives_stable_id(self, registration):
        first = LiveWorkflowManager().register(dict(registration))
        second = LiveWorkflowManager().register(dict(registration))
        assert first["workflow_id"] == second["workflow_id"]

    def test_reregistration_replays(self, registration):
        manager = LiveWorkflowManager()
        first = manager.register(dict(registration))
        again = manager.register(dict(registration))
        assert again["replayed"] is True
        assert again["workflow_id"] == first["workflow_id"]
        assert manager.stats()["registered"] == 1

    def test_same_id_different_budget_conflicts(self, registration):
        manager = LiveWorkflowManager()
        wid = manager.register(dict(registration))["workflow_id"]
        with pytest.raises(EventConflictError):
            manager.register(
                {**registration, "workflow_id": wid, "budget": 60.0}
            )

    @pytest.mark.parametrize(
        "mutation",
        [
            {"problem": 42},
            {"budget": "lots"},
            {"budget": None},
            {"algorithm": "genetic"},
            {"params": {"nope": 1}},
            {"params": {"engine": "fast"}},
            {"params": "fast"},
            {"workflow_id": "../escape"},
            {"workflow_id": ""},
        ],
    )
    def test_malformed_registration_is_400_class(self, registration, mutation):
        manager = LiveWorkflowManager()
        with pytest.raises(LiveWorkflowError):
            manager.register({**registration, **mutation})

    def test_infeasible_budget_is_400_class(self, registration):
        manager = LiveWorkflowManager()
        with pytest.raises(Exception) as info:
            manager.register({**registration, "budget": 0.01})
        # InfeasibleBudgetError maps to 400 via the service error table.
        assert "budget" in str(info.value).lower()

    def test_unknown_workflow_is_404_class(self):
        manager = LiveWorkflowManager()
        with pytest.raises(UnknownWorkflowError):
            manager.status("missing")
        with pytest.raises(UnknownWorkflowError):
            manager.event("missing", {"seq": 1, "type": "topup", "amount": 1.0})

    def test_racing_registrations_log_one_record(self, registration, tmp_path):
        """Concurrent identical registrations must converge on one entry
        and exactly one logged registration record."""
        manager = LiveWorkflowManager(live_dir=tmp_path)
        barrier = threading.Barrier(8)
        results: list[dict] = []
        errors: list[Exception] = []

        def race():
            barrier.wait()
            try:
                results.append(manager.register(dict(registration)))
            except Exception as exc:  # noqa: BLE001 - recorded for assert
                errors.append(exc)

        threads = [threading.Thread(target=race) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors
        assert len({body["workflow_id"] for body in results}) == 1
        assert sum(1 for body in results if not body["replayed"]) == 1
        assert manager.stats()["registered"] == 1
        wid = results[0]["workflow_id"]
        lines = (tmp_path / f"{wid}.jsonl").read_text().splitlines()
        assert len(lines) == 1  # exactly one registration record
        # ... and the log recovers cleanly on a fresh node.
        fresh = LiveWorkflowManager(live_dir=tmp_path)
        assert fresh.status(wid)["last_seq"] == 0


class TestDurability:
    def test_log_and_recover(self, registration, tmp_path):
        manager = LiveWorkflowManager(live_dir=tmp_path)
        wid = manager.register(dict(registration))["workflow_id"]
        manager.event(wid, {"seq": 1, "type": "topup", "amount": 2.0})
        manager.event(wid, {"seq": 2, "type": "topup", "amount": 3.0})
        log = tmp_path / f"{wid}.jsonl"
        assert log.exists()
        lines = log.read_text().splitlines()
        assert len(lines) == 3  # registration + 2 events

        fresh = LiveWorkflowManager(live_dir=tmp_path)
        status = fresh.status(wid)
        assert status["last_seq"] == 2
        assert status["total_budget"] == pytest.approx(62.0)
        assert fresh.stats()["recovered"] == 1
        # Identical state: same status body as the original node's.
        assert dumps(status) == dumps(manager.status(wid))

    def test_recovered_history_replays_idempotently(
        self, registration, tmp_path
    ):
        manager = LiveWorkflowManager(live_dir=tmp_path)
        wid = manager.register(dict(registration))["workflow_id"]
        payload = {"seq": 1, "type": "topup", "amount": 2.0}
        manager.event(wid, dict(payload))

        fresh = LiveWorkflowManager(live_dir=tmp_path)
        replay = fresh.event(wid, dict(payload))
        assert replay["replayed"] is True
        assert fresh.status(wid)["total_budget"] == pytest.approx(59.0)
        with pytest.raises(EventConflictError):
            fresh.event(wid, {"seq": 1, "type": "topup", "amount": 9.0})

    def test_torn_tail_is_dropped(self, registration, tmp_path):
        manager = LiveWorkflowManager(live_dir=tmp_path)
        wid = manager.register(dict(registration))["workflow_id"]
        manager.event(wid, {"seq": 1, "type": "topup", "amount": 2.0})
        log = tmp_path / f"{wid}.jsonl"
        with open(log, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "event", "payl')  # crash mid-append

        fresh = LiveWorkflowManager(live_dir=tmp_path)
        assert fresh.status(wid)["last_seq"] == 1

    def test_append_after_torn_tail_preserves_acked_events(
        self, registration, tmp_path
    ):
        """The active writer must truncate a torn tail before its next
        append — otherwise the new (acknowledged) record fuses with the
        partial line and is lost or poisons the log."""
        manager = LiveWorkflowManager(live_dir=tmp_path)
        wid = manager.register(dict(registration))["workflow_id"]
        manager.event(wid, {"seq": 1, "type": "topup", "amount": 2.0})
        log = tmp_path / f"{wid}.jsonl"
        with open(log, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "event", "payl')  # crash mid-append

        manager.event(wid, {"seq": 2, "type": "topup", "amount": 3.0})
        lines = log.read_text().splitlines()
        assert len(lines) == 3  # registration + 2 complete events

        fresh = LiveWorkflowManager(live_dir=tmp_path)
        status = fresh.status(wid)
        assert status["last_seq"] == 2
        assert status["total_budget"] == pytest.approx(62.0)

    def test_fully_torn_log_is_unknown_workflow(self, tmp_path):
        """A log holding only a torn registration line never acked
        anything: the workflow does not exist (404), not a 500."""
        (tmp_path / "only-torn.jsonl").write_text('{"kind": "registr')
        manager = LiveWorkflowManager(live_dir=tmp_path)
        with pytest.raises(UnknownWorkflowError):
            manager.status("only-torn")

    def test_duplicate_registration_record_is_tolerated(
        self, registration, tmp_path
    ):
        """Two nodes racing one registration through a shared live_dir
        can both append the record; identical copies must not poison
        recovery or catch-up."""
        manager = LiveWorkflowManager(live_dir=tmp_path)
        wid = manager.register(dict(registration))["workflow_id"]
        manager.event(wid, {"seq": 1, "type": "topup", "amount": 2.0})
        log = tmp_path / f"{wid}.jsonl"
        registration_line = log.read_text().splitlines()[0]
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(registration_line + "\n")  # peer's racing copy
        manager.event(wid, {"seq": 2, "type": "topup", "amount": 1.0})

        fresh = LiveWorkflowManager(live_dir=tmp_path)
        status = fresh.status(wid)
        assert status["last_seq"] == 2
        assert status["total_budget"] == pytest.approx(60.0)
        assert dumps(status) == dumps(manager.status(wid))

    def test_divergent_second_registration_is_corruption(
        self, registration, tmp_path
    ):
        manager = LiveWorkflowManager(live_dir=tmp_path)
        wid = manager.register(dict(registration))["workflow_id"]
        log = tmp_path / f"{wid}.jsonl"
        divergent = {**registration, "workflow_id": wid, "budget": 99.0}
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(
                dumps({"kind": "registration", "payload": divergent}) + "\n"
            )
        fresh = LiveWorkflowManager(live_dir=tmp_path)
        with pytest.raises(LiveLogCorruptionError):
            fresh.status(wid)

    def test_mid_file_corruption_raises(self, registration, tmp_path):
        manager = LiveWorkflowManager(live_dir=tmp_path)
        wid = manager.register(dict(registration))["workflow_id"]
        log = tmp_path / f"{wid}.jsonl"
        content = log.read_text()
        log.write_text("garbage\n" + content)

        fresh = LiveWorkflowManager(live_dir=tmp_path)
        # Server-side log damage, not a client error: 500-class.
        with pytest.raises(LiveLogCorruptionError):
            fresh.status(wid)

    def test_stale_node_catches_up_from_peer_log(self, registration, tmp_path):
        """Split-brain heal: after a failover window, the original node's
        stale in-memory copy must fold in the peer's logged events
        instead of wedging the stream on 409s."""
        node_a = LiveWorkflowManager(live_dir=tmp_path)
        wid = node_a.register(dict(registration))["workflow_id"]
        node_a.event(wid, {"seq": 1, "type": "topup", "amount": 1.0})

        # The router fails over: node B recovers and applies event 2.
        node_b = LiveWorkflowManager(live_dir=tmp_path)
        node_b.event(wid, {"seq": 2, "type": "topup", "amount": 2.0})

        # ... then routes event 3 back to node A, whose copy is stale.
        ack = node_a.event(wid, {"seq": 3, "type": "topup", "amount": 3.0})
        assert ack["replayed"] is False and ack["seq"] == 3
        assert node_a.stats()["resyncs"] == 1
        assert node_a.status(wid)["total_budget"] == pytest.approx(63.0)
        # Node B's status read also folds in event 3 from the log.
        assert node_b.status(wid)["total_budget"] == pytest.approx(63.0)
        assert dumps(node_a.status(wid)) == dumps(node_b.status(wid))
        # A true gap is still a conflict, even after a catch-up attempt.
        with pytest.raises(EventConflictError):
            node_a.event(wid, {"seq": 9, "type": "topup", "amount": 1.0})

    @pytest.mark.parametrize(
        "payload",
        [
            {"seq": 3, "type": "topup", "amount": 1.0},  # a seq gap: 409
            {"seq": 2, "type": "completed", "module": "nope", "duration": 1.0},
        ],
    )
    def test_rejected_record_under_a_loaded_node_is_corruption(
        self, registration, tmp_path, payload
    ):
        """A logged event the state machine rejects is log damage on a
        loaded node exactly as on a fresh one: 500-class from event()
        and status(), never a 409/400 blamed on the client."""
        manager = LiveWorkflowManager(live_dir=tmp_path)
        wid = manager.register(dict(registration))["workflow_id"]
        manager.event(wid, {"seq": 1, "type": "topup", "amount": 1.0})
        with open(tmp_path / f"{wid}.jsonl", "a", encoding="utf-8") as handle:
            handle.write(dumps({"kind": "event", "payload": payload}) + "\n")

        with pytest.raises(LiveLogCorruptionError):
            manager.event(wid, {"seq": 2, "type": "topup", "amount": 1.0})
        with pytest.raises(LiveLogCorruptionError):
            manager.status(wid)
        with pytest.raises(LiveLogCorruptionError):
            LiveWorkflowManager(live_dir=tmp_path).status(wid)

    def test_duplicate_seq_first_logged_record_wins(self, registration, tmp_path):
        """A fenced writer racing its fence can append a second record
        for a seq; the first logged one wins on loaded and fresh nodes."""
        manager = LiveWorkflowManager(live_dir=tmp_path)
        wid = manager.register(dict(registration))["workflow_id"]
        manager.event(wid, {"seq": 1, "type": "topup", "amount": 1.0})
        lines = [
            fence_record(2, "b"),
            {"kind": "event", "payload": {"seq": 2, "type": "topup", "amount": 2.0}},
            # The stale writer's append that landed after the fence.
            {"kind": "event", "payload": {"seq": 2, "type": "topup", "amount": 7.0}},
        ]
        with open(tmp_path / f"{wid}.jsonl", "a", encoding="utf-8") as handle:
            handle.writelines(dumps(line) + "\n" for line in lines)

        loaded = manager.status(wid)
        fresh = LiveWorkflowManager(live_dir=tmp_path).status(wid)
        assert dumps(loaded) == dumps(fresh)
        assert fresh["last_seq"] == 2
        assert fresh["total_budget"] == 57.0 + 1.0 + 2.0

    def test_no_live_dir_means_no_recovery(self, registration):
        manager = LiveWorkflowManager()
        wid = manager.register(dict(registration))["workflow_id"]
        fresh = LiveWorkflowManager()
        with pytest.raises(UnknownWorkflowError):
            fresh.status(wid)
