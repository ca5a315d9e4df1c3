"""Peer replication: write-through push, anti-entropy pull, quarantine."""

import pytest

from repro.exceptions import (
    EventConflictError,
    LiveLogCorruptionError,
    LiveWorkflowError,
    TransientServiceError,
    UnknownWorkflowError,
)
from repro.live.iofault import LogIO
from repro.live.store import MAX_RECORD_BYTES, LiveWorkflowManager
from repro.service.codec import dumps


class InProcessPeer:
    """A PeerLink wired straight onto another manager (no HTTP)."""

    def __init__(self, manager: LiveWorkflowManager) -> None:
        self.manager = manager
        self.fail = False

    def fetch(self, workflow_id):
        if self.fail:
            raise TransientServiceError("peer down")
        try:
            return self.manager.sync_export(workflow_id)["records"]
        except UnknownWorkflowError:
            return None

    def push(self, workflow_id, base_offset, records):
        if self.fail:
            raise TransientServiceError("peer down")
        payload = (
            {"reset": True, "records": records}
            if base_offset is None
            else {"base_offset": base_offset, "records": records}
        )
        return self.manager.sync_import(workflow_id, payload)["offset"]


class CountingLogIO(LogIO):
    """A LogIO that counts how often the log is opened for reading."""

    def __init__(self) -> None:
        self.reads = 0

    def open_read(self, path):
        self.reads += 1
        return super().open_read(path)


@pytest.fixture
def pair(tmp_path):
    """Node A replicating write-through into node B's live_dir."""
    node_b = LiveWorkflowManager(live_dir=tmp_path / "b", node="b")
    node_a = LiveWorkflowManager(
        live_dir=tmp_path / "a", node="a", peers=[InProcessPeer(node_b)]
    )
    return node_a, node_b, tmp_path


class TestWriteThrough:
    def test_every_record_lands_on_the_peer(self, pair, registration):
        node_a, node_b, tmp = pair
        wid = node_a.register(dict(registration))["workflow_id"]
        node_a.event(wid, {"seq": 1, "type": "topup", "amount": 1.0})
        node_a.event(wid, {"seq": 2, "type": "topup", "amount": 2.0})
        assert (tmp / "a" / f"{wid}.jsonl").read_bytes() == (
            tmp / "b" / f"{wid}.jsonl"
        ).read_bytes()
        # The replica serves the same history through its own recovery.
        assert dumps(node_b.status(wid)) == dumps(node_a.status(wid))
        stats = node_a.stats()
        assert stats["pushes"] == 3 and stats["push_failures"] == 0
        assert stats["replication_lag"] == 0

    def test_push_failure_recovers_with_full_resync(self, pair, registration):
        node_a, node_b, tmp = pair
        peer = node_a._peers[0]
        wid = node_a.register(dict(registration))["workflow_id"]
        peer.fail = True
        node_a.event(wid, {"seq": 1, "type": "topup", "amount": 1.0})
        assert node_a.stats()["push_failures"] == 1
        assert node_a.stats()["replication_lag"] > 0
        peer.fail = False
        # The next write notices the lost ack and resyncs the whole log.
        node_a.event(wid, {"seq": 2, "type": "topup", "amount": 2.0})
        assert (tmp / "a" / f"{wid}.jsonl").read_bytes() == (
            tmp / "b" / f"{wid}.jsonl"
        ).read_bytes()
        assert node_a.stats()["replication_lag"] == 0

    def test_compaction_pushes_the_compacted_log(self, tmp_path, registration):
        node_b = LiveWorkflowManager(live_dir=tmp_path / "b")
        node_a = LiveWorkflowManager(
            live_dir=tmp_path / "a",
            peers=[InProcessPeer(node_b)],
            checkpoint_interval=2,
        )
        wid = node_a.register(dict(registration))["workflow_id"]
        for seq in (1, 2, 3):
            node_a.event(wid, {"seq": seq, "type": "topup", "amount": 1.0})
        assert (tmp_path / "a" / f"{wid}.jsonl").read_bytes() == (
            tmp_path / "b" / f"{wid}.jsonl"
        ).read_bytes()
        fresh_b = LiveWorkflowManager(live_dir=tmp_path / "b")
        assert dumps(fresh_b.status(wid)) == dumps(node_a.status(wid))


class TestByteOffsetPushes:
    """Pushes carry the sender's byte offset; the receiver only stats."""

    def test_incremental_pushes_never_read_the_receiver_log(
        self, tmp_path, registration
    ):
        receiver_io = CountingLogIO()
        node_b = LiveWorkflowManager(live_dir=tmp_path / "b", io=receiver_io)
        node_a = LiveWorkflowManager(
            live_dir=tmp_path / "a", peers=[InProcessPeer(node_b)]
        )
        wid = node_a.register(dict(registration))["workflow_id"]
        receiver_io.reads = 0
        for seq in range(1, 21):
            node_a.event(wid, {"seq": seq, "type": "topup", "amount": 1.0})
        assert receiver_io.reads == 0
        stats = node_a.stats()
        assert stats["pushes"] == 21 and stats["push_failures"] == 0
        assert stats["replication_lag"] == 0
        assert node_b.stats()["sync_imports"] == 21
        assert (tmp_path / "a" / f"{wid}.jsonl").read_bytes() == (
            tmp_path / "b" / f"{wid}.jsonl"
        ).read_bytes()

    def test_torn_tail_on_receiver_accepts_the_offset_before_it(
        self, pair, registration
    ):
        node_a, node_b, tmp = pair
        wid = node_a.register(dict(registration))["workflow_id"]
        node_a.event(wid, {"seq": 1, "type": "topup", "amount": 1.0})
        with open(tmp / "b" / f"{wid}.jsonl", "ab") as handle:
            handle.write(b'{"kind": "event", "torn')  # crash mid-import
        node_a.event(wid, {"seq": 2, "type": "topup", "amount": 2.0})
        assert node_a.stats()["push_failures"] == 0
        assert node_b.stats()["sync_imports"] == 3  # the push was accepted
        assert (tmp / "a" / f"{wid}.jsonl").read_bytes() == (
            tmp / "b" / f"{wid}.jsonl"
        ).read_bytes()

    def test_wrong_offset_conflicts_then_the_next_write_resets(
        self, pair, registration
    ):
        node_a, node_b, tmp = pair
        wid = node_a.register(dict(registration))["workflow_id"]
        log_a, log_b = (tmp / node / f"{wid}.jsonl" for node in "ab")
        size = log_b.stat().st_size
        record = '{"kind": "fence", "epoch": 2, "node": "x"}'
        for base in (size - 1, size + 1):
            with pytest.raises(EventConflictError):
                node_b.sync_import(wid, {"base_offset": base, "records": [record]})
        with pytest.raises(EventConflictError):  # no replica at all
            LiveWorkflowManager(live_dir=tmp / "c").sync_import(
                wid, {"base_offset": size, "records": [record]}
            )
        # The replica grows a record the sender never wrote: the next
        # incremental push no longer starts at the replica's end.
        with open(log_b, "a") as handle:
            handle.write(record + "\n")
        node_a.event(wid, {"seq": 1, "type": "topup", "amount": 1.0})
        stats = node_a.stats()
        assert stats["push_failures"] == 1
        assert stats["replication_lag"] == log_a.stat().st_size  # bytes
        assert log_a.read_bytes() != log_b.read_bytes()
        node_a.event(wid, {"seq": 2, "type": "topup", "amount": 2.0})
        assert log_a.read_bytes() == log_b.read_bytes()
        assert node_a.stats()["replication_lag"] == 0
        assert dumps(node_b.status(wid)) == dumps(node_a.status(wid))


class TestPullOnMiss:
    def test_missing_log_rebuilds_from_peer(self, pair, registration):
        node_a, node_b, tmp = pair
        wid = node_a.register(dict(registration))["workflow_id"]
        node_a.event(wid, {"seq": 1, "type": "topup", "amount": 1.0})
        # A brand-new node with an empty live_dir but a peer serves the
        # workflow by pulling the log on demand.
        node_c = LiveWorkflowManager(
            live_dir=tmp / "c", peers=[InProcessPeer(node_b)]
        )
        assert dumps(node_c.status(wid)) == dumps(node_a.status(wid))
        assert node_c.stats()["pulls"] == 1
        assert (tmp / "c" / f"{wid}.jsonl").exists()

    def test_corrupt_log_quarantined_and_healed_from_peer(
        self, pair, registration
    ):
        node_a, node_b, tmp = pair
        wid = node_a.register(dict(registration))["workflow_id"]
        node_a.event(wid, {"seq": 1, "type": "topup", "amount": 1.0})
        expected = dumps(node_a.status(wid))

        log = tmp / "a" / f"{wid}.jsonl"
        log.write_text('{"kind": "registration"}\nGARBAGE NOT JSON\n')
        healed = LiveWorkflowManager(
            live_dir=tmp / "a", peers=[InProcessPeer(node_b)]
        )
        # No client-visible 500: the damaged log is set aside, the
        # replica pulled in, and the request answered.
        assert dumps(healed.status(wid)) == expected
        stats = healed.stats()
        assert stats["quarantined"] == 1 and stats["pulls"] == 1
        quarantined = tmp / "a" / f"{wid}.jsonl.quarantined"
        assert quarantined.exists()
        assert "GARBAGE" in quarantined.read_text()

    def test_corruption_without_peers_still_raises(self, pair, registration):
        node_a, _node_b, tmp = pair
        wid = node_a.register(dict(registration))["workflow_id"]
        (tmp / "a" / f"{wid}.jsonl").write_text("GARBAGE\n")
        alone = LiveWorkflowManager(live_dir=tmp / "a")  # no peers
        with pytest.raises(LiveLogCorruptionError):
            alone.status(wid)
        # ... and the damaged log was NOT touched (readers never mutate
        # a shared live_dir without a replica to restore from).
        assert (tmp / "a" / f"{wid}.jsonl").read_text() == "GARBAGE\n"

    def test_dead_peer_degrades_to_local_error(self, pair, registration):
        node_a, node_b, tmp = pair
        wid = node_a.register(dict(registration))["workflow_id"]
        (tmp / "a" / f"{wid}.jsonl").write_text("GARBAGE\n")
        peer = InProcessPeer(node_b)
        peer.fail = True
        stuck = LiveWorkflowManager(live_dir=tmp / "a", peers=[peer])
        with pytest.raises(LiveLogCorruptionError):
            stuck.status(wid)


class TestSyncEndpointValidation:
    def test_export_unknown_is_404_class(self, tmp_path):
        manager = LiveWorkflowManager(live_dir=tmp_path)
        with pytest.raises(UnknownWorkflowError):
            manager.sync_export("missing")

    def test_export_returns_raw_lines(self, tmp_path, registration):
        manager = LiveWorkflowManager(live_dir=tmp_path)
        wid = manager.register(dict(registration))["workflow_id"]
        manager.event(wid, {"seq": 1, "type": "topup", "amount": 1.0})
        body = manager.sync_export(wid)
        assert body["count"] == 2 and len(body["records"]) == 2
        assert all(isinstance(line, str) for line in body["records"])

    @pytest.mark.parametrize(
        "payload",
        [
            None,
            {},
            {"records": []},
            {"records": "not-a-list"},
            {"records": [42]},
            {"records": ["not json"]},
            {"records": ['["a","list"]']},
            {"records": ['{"no_kind": 1}']},
            {"records": ['{"kind": "event"}']},  # append without base
            {"records": ['{"kind": "event"}'], "base_offset": 0},
            {"records": ['{"kind": "event"}'], "base_offset": True},
            {"reset": True, "records": ['{"kind": "event"}']},  # no registration
            {"records": ['{"kind": "event"}'], "base_offset": "12"},
        ],
    )
    def test_malformed_import_is_400_class(self, tmp_path, payload):
        manager = LiveWorkflowManager(live_dir=tmp_path)
        with pytest.raises(LiveWorkflowError):
            manager.sync_import("wf", payload)

    def test_oversized_record_rejected(self, tmp_path):
        manager = LiveWorkflowManager(live_dir=tmp_path)
        huge = '{"kind": "event", "pad": "' + "x" * MAX_RECORD_BYTES + '"}'
        with pytest.raises(LiveWorkflowError):
            manager.sync_import("wf", {"reset": True, "records": [huge]})

    def test_base_mismatch_is_conflict(self, tmp_path, registration):
        manager = LiveWorkflowManager(live_dir=tmp_path)
        wid = manager.register(dict(registration))["workflow_id"]
        with pytest.raises(EventConflictError):
            manager.sync_import(
                wid,
                {"base_offset": 5, "records": ['{"kind": "fence", "epoch": 2}']},
            )

    def test_import_without_live_dir_is_400_class(self):
        manager = LiveWorkflowManager()
        with pytest.raises(LiveWorkflowError):
            manager.sync_import(
                "wf", {"reset": True, "records": ['{"kind": "registration"}']}
            )

    def test_reset_import_evicts_loaded_copy(self, pair, registration):
        node_a, node_b, tmp = pair
        wid = node_a.register(dict(registration))["workflow_id"]
        node_a.event(wid, {"seq": 1, "type": "topup", "amount": 1.0})
        # B has the replica loaded; a reset import must make B re-read.
        node_b.status(wid)
        records = node_a.sync_export(wid)["records"]
        node_b.sync_import(wid, {"reset": True, "records": records})
        assert dumps(node_b.status(wid)) == dumps(node_a.status(wid))


class TestStreamingBounds:
    def test_oversized_log_record_is_corruption_not_allocation(
        self, tmp_path, registration
    ):
        manager = LiveWorkflowManager(live_dir=tmp_path)
        wid = manager.register(dict(registration))["workflow_id"]
        with open(tmp_path / f"{wid}.jsonl", "ab") as handle:
            handle.write(b'{"kind": "event", "pad": "')
            handle.write(b"x" * (MAX_RECORD_BYTES + 16))
            handle.write(b'"}\n')
        with pytest.raises(LiveLogCorruptionError):
            LiveWorkflowManager(live_dir=tmp_path).status(wid)

    def test_terminated_garbage_line_is_corruption(self, tmp_path, registration):
        manager = LiveWorkflowManager(live_dir=tmp_path)
        wid = manager.register(dict(registration))["workflow_id"]
        with open(tmp_path / f"{wid}.jsonl", "ab") as handle:
            handle.write(b"NOT JSON BUT NEWLINE TERMINATED\n")
        with pytest.raises(LiveLogCorruptionError):
            LiveWorkflowManager(live_dir=tmp_path).status(wid)

    def test_torn_tail_still_dropped(self, tmp_path, registration):
        manager = LiveWorkflowManager(live_dir=tmp_path)
        wid = manager.register(dict(registration))["workflow_id"]
        manager.event(wid, {"seq": 1, "type": "topup", "amount": 1.0})
        with open(tmp_path / f"{wid}.jsonl", "ab") as handle:
            handle.write(b'{"kind": "event", "torn')  # no newline: crash
        fresh = LiveWorkflowManager(live_dir=tmp_path)
        assert fresh.status(wid)["last_seq"] == 1


class TestStatsSurface:
    def test_stats_exposes_federation_health(self, pair, registration):
        node_a, _node_b, _tmp = pair
        wid = node_a.register(dict(registration))["workflow_id"]
        node_a.event(wid, {"seq": 1, "type": "topup", "amount": 1.0})
        stats = node_a.stats()
        for key in (
            "fenced",
            "epoch_claims",
            "checkpoints",
            "compactions",
            "archived",
            "expired",
            "pulls",
            "quarantined",
            "pushes",
            "push_failures",
            "sync_imports",
            "replication_lag",
            "max_epoch",
            "last_checkpoint_seq",
            "peers",
        ):
            assert key in stats, key
        assert stats["peers"] == 1
        assert stats["max_epoch"] == 1
