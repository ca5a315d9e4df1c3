"""Epoch fencing: one enforced writer per live-workflow log."""

import threading

import pytest

from repro.exceptions import EventConflictError, StaleEpochError
from repro.live.fencing import WriterLease, fence_record, record_epoch
from repro.live.iofault import LogIO
from repro.live.store import LiveWorkflowManager
from repro.service.codec import dumps


class TestRecords:
    def test_fence_record_shape(self):
        record = fence_record(3, "node-a")
        assert record == {"kind": "fence", "epoch": 3, "node": "node-a"}
        assert fence_record(1, None)["node"] == "unnamed"

    @pytest.mark.parametrize("kind", ["fence", "checkpoint"])
    def test_record_epoch_reads_fence_and_checkpoint(self, kind):
        assert record_epoch({"kind": kind, "epoch": 5}) == 5

    @pytest.mark.parametrize(
        "record",
        [
            {"kind": "event", "epoch": 5},
            {"kind": "registration"},
            {"kind": "fence", "epoch": 0},
            {"kind": "fence", "epoch": -1},
            {"kind": "fence", "epoch": True},
            {"kind": "fence", "epoch": "2"},
            {"kind": "checkpoint"},
        ],
    )
    def test_record_epoch_rejects_other_kinds_and_malformed(self, record):
        assert record_epoch(record) is None

    def test_lease_defaults_force_first_scan(self):
        lease = WriterLease()
        assert lease.epoch == 0 and lease.size == -1

    def test_stale_epoch_error_carries_context(self):
        exc = StaleEpochError("wf", epoch=2, observed=5)
        assert exc.workflow_id == "wf" and exc.epoch == 2 and exc.observed == 5


class _StaleSizeOnce(LogIO):
    """A :class:`LogIO` whose next ``size`` answers ``stale`` once."""

    stale: int | None = None

    def size(self, path):
        stale, self.stale = self.stale, None
        return super().size(path) if stale is None else stale


class TestFailoverFencing:
    def test_registration_implies_epoch_one_no_extra_line(
        self, registration, tmp_path
    ):
        manager = LiveWorkflowManager(live_dir=tmp_path)
        wid = manager.register(dict(registration))["workflow_id"]
        manager.event(wid, {"seq": 1, "type": "topup", "amount": 1.0})
        lines = (tmp_path / f"{wid}.jsonl").read_text().splitlines()
        assert len(lines) == 2  # registration + event, no fence record
        assert manager.stats()["max_epoch"] == 1
        assert manager.stats()["epoch_claims"] == 0

    def test_takeover_claims_next_epoch_with_fence_record(
        self, registration, tmp_path
    ):
        node_a = LiveWorkflowManager(live_dir=tmp_path, node="a")
        wid = node_a.register(dict(registration))["workflow_id"]
        node_a.event(wid, {"seq": 1, "type": "topup", "amount": 1.0})

        # Failover: node B recovers and *writes*, so it must claim.
        node_b = LiveWorkflowManager(live_dir=tmp_path, node="b")
        node_b.event(wid, {"seq": 2, "type": "topup", "amount": 2.0})
        assert node_b.stats()["epoch_claims"] == 1
        assert node_b.stats()["max_epoch"] == 2
        records = [
            line for line in (tmp_path / f"{wid}.jsonl").read_text().splitlines()
        ]
        assert '"kind":"fence"' in records[-2]  # fence precedes B's event
        assert '"node":"b"' in records[-2]

    def test_recovery_and_status_never_claim(self, registration, tmp_path):
        node_a = LiveWorkflowManager(live_dir=tmp_path)
        wid = node_a.register(dict(registration))["workflow_id"]
        node_a.event(wid, {"seq": 1, "type": "topup", "amount": 1.0})
        before = (tmp_path / f"{wid}.jsonl").read_bytes()

        reader = LiveWorkflowManager(live_dir=tmp_path)
        reader.status(wid)
        assert (tmp_path / f"{wid}.jsonl").read_bytes() == before
        assert reader.stats()["epoch_claims"] == 0

    def test_stale_writer_is_fenced_then_catches_up(self, registration, tmp_path):
        """The acceptance scenario: a writer whose epoch went stale has
        its append rejected, folds in the peer's records, re-claims a
        higher epoch, and only then answers — with the peer's events
        applied exactly once."""
        node_a = LiveWorkflowManager(live_dir=tmp_path, node="a")
        wid = node_a.register(dict(registration))["workflow_id"]
        node_a.event(wid, {"seq": 1, "type": "topup", "amount": 1.0})

        node_b = LiveWorkflowManager(live_dir=tmp_path, node="b")
        node_b.event(wid, {"seq": 2, "type": "topup", "amount": 2.0})  # epoch 2

        # Node A is now the stale writer: its next append is fenced.
        ack = node_a.event(wid, {"seq": 3, "type": "topup", "amount": 3.0})
        assert ack["replayed"] is False and ack["seq"] == 3
        stats = node_a.stats()
        assert stats["fenced"] == 1  # the rejected (stale) append
        assert stats["resyncs"] == 1  # the forced catch-up applied seq 2
        assert stats["max_epoch"] == 3  # fenced -> re-claimed observed+1

        # Both nodes converge on one history; the budget topups applied
        # exactly once each despite the epoch ping-pong.
        assert dumps(node_a.status(wid)) == dumps(node_b.status(wid))
        fresh = LiveWorkflowManager(live_dir=tmp_path)
        status = fresh.status(wid)
        assert status["last_seq"] == 3
        assert status["budget"] == 57.0 + 1.0 + 2.0 + 3.0

    def test_epoch_ping_pong_monotonically_increases(self, registration, tmp_path):
        node_a = LiveWorkflowManager(live_dir=tmp_path, node="a")
        node_b = LiveWorkflowManager(live_dir=tmp_path, node="b")
        wid = node_a.register(dict(registration))["workflow_id"]
        for seq in range(1, 7):
            writer = node_a if seq % 2 else node_b
            writer.event(wid, {"seq": seq, "type": "topup", "amount": 0.5})
        # Every alternation fenced the other side and bumped the epoch.
        assert node_a.stats()["fenced"] + node_b.stats()["fenced"] >= 4
        peak = max(node_a.stats()["max_epoch"], node_b.stats()["max_epoch"])
        assert peak >= 6
        fresh = LiveWorkflowManager(live_dir=tmp_path)
        status = fresh.status(wid)
        assert status["last_seq"] == 6
        assert status["budget"] == 57.0 + 6 * 0.5

    def test_concurrent_two_writer_stream_applies_each_seq_once(
        self, registration, tmp_path
    ):
        """Two writers race the *same* events through one log.  Fencing
        plus seq-idempotent folding must apply every event exactly once
        (budget arithmetic is the witness) and leave a log that recovers
        to the same history."""
        node_a = LiveWorkflowManager(live_dir=tmp_path, node="a")
        node_b = LiveWorkflowManager(live_dir=tmp_path, node="b")
        wid = node_a.register(dict(registration))["workflow_id"]
        errors: list[Exception] = []

        for seq in range(1, 6):
            event = {"seq": seq, "type": "topup", "amount": 1.0}
            barrier = threading.Barrier(2)

            def send(manager, event=event, barrier=barrier):
                barrier.wait()
                try:
                    manager.event(wid, dict(event))
                except Exception as exc:  # noqa: BLE001 - recorded for assert
                    errors.append(exc)

            threads = [
                threading.Thread(target=send, args=(node,))
                for node in (node_a, node_b)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        assert not errors
        fresh = LiveWorkflowManager(live_dir=tmp_path)
        status = fresh.status(wid)
        assert status["last_seq"] == 5
        # Exactly once: five 1.0 topups, no double application.
        assert status["budget"] == 57.0 + 5.0
        assert dumps(node_a.status(wid)) == dumps(node_b.status(wid))

    @pytest.mark.parametrize("amount", [2.0, 7.0])
    def test_append_after_a_missed_peer_append_answers_from_the_log(
        self, registration, tmp_path, amount
    ):
        """Node A's lease ``stat`` runs just before node B's fence and
        seq 2 land, so A's own seq 2 is logged after them.  Every replaying
        node applies B's; A must too, instead of committing its own: the
        same payload answers as a replay, another one 409s."""
        io = _StaleSizeOnce()
        node_a = LiveWorkflowManager(live_dir=tmp_path, node="a", io=io)
        wid = node_a.register(dict(registration))["workflow_id"]
        node_a.event(wid, {"seq": 1, "type": "topup", "amount": 1.0})
        io.stale = (tmp_path / f"{wid}.jsonl").stat().st_size

        node_b = LiveWorkflowManager(live_dir=tmp_path, node="b")
        node_b.event(wid, {"seq": 2, "type": "topup", "amount": 2.0})

        event = {"seq": 2, "type": "topup", "amount": amount}
        if amount == 2.0:
            assert node_a.event(wid, event)["replayed"] is True
        else:
            with pytest.raises(EventConflictError):
                node_a.event(wid, event)
        fresh = LiveWorkflowManager(live_dir=tmp_path)
        for node in (node_a, node_b, fresh):
            assert node.status(wid)["total_budget"] == pytest.approx(60.0)
        assert dumps(node_a.status(wid)) == dumps(node_b.status(wid))
        # A writes on from the converged state, under a re-claimed epoch.
        node_a.event(wid, {"seq": 3, "type": "topup", "amount": 3.0})
        assert fresh.status(wid)["total_budget"] == pytest.approx(63.0)
