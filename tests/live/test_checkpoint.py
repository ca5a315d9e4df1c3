"""Checkpoints: snapshot/restore identity, compaction, retention."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.critical_greedy import CriticalGreedyScheduler
from repro.core.fastpath import IncrementalSweep
from repro.core.serialize import problem_to_dict
from repro.exceptions import LiveLogCorruptionError
from repro.live.checkpoint import build_checkpoint, verify_checkpoint
from repro.live.iofault import FaultyLogIO
from repro.live.store import LiveWorkflowManager
from repro.service.codec import dumps, event_digest, loads

from tests.conftest import problems_with_budgets


def _drive(manager, registration, events):
    wid = manager.register(dict(registration))["workflow_id"]
    for event in events:
        manager.event(wid, dict(event))
    return wid


def _topups(n):
    return [
        {"seq": seq, "type": "topup", "amount": 0.5 * seq}
        for seq in range(1, n + 1)
    ]


class TestCheckpointRecord:
    def test_build_then_verify_roundtrips(self, registration, tmp_path):
        manager = LiveWorkflowManager(live_dir=tmp_path)
        wid = _drive(manager, registration, _topups(2))
        entry = manager._find_entry(wid)
        record = build_checkpoint(entry.workflow, epoch=4)
        assert record["kind"] == "checkpoint"
        assert record["seq"] == 2 and record["epoch"] == 4
        seq, state = verify_checkpoint(record, workflow_id=wid)
        assert seq == 2 and state == record["state"]

    def test_tampered_state_fails_digest(self, registration, tmp_path):
        manager = LiveWorkflowManager(live_dir=tmp_path)
        wid = _drive(manager, registration, _topups(1))
        record = build_checkpoint(manager._find_entry(wid).workflow, epoch=1)
        record["state"] = {**record["state"], "budget": 1e9}
        with pytest.raises(LiveLogCorruptionError):
            verify_checkpoint(record, workflow_id=wid)

    @pytest.mark.parametrize(
        "mutation",
        [{"seq": -1}, {"seq": True}, {"state": None}, {"digest": 42}],
    )
    def test_malformed_checkpoint_is_corruption(
        self, registration, tmp_path, mutation
    ):
        manager = LiveWorkflowManager(live_dir=tmp_path)
        wid = _drive(manager, registration, _topups(1))
        record = build_checkpoint(manager._find_entry(wid).workflow, epoch=1)
        record.update(mutation)
        with pytest.raises(LiveLogCorruptionError):
            verify_checkpoint(record, workflow_id=wid)


class TestCompaction:
    def test_interval_compacts_log_to_registration_plus_checkpoint(
        self, registration, tmp_path
    ):
        manager = LiveWorkflowManager(
            live_dir=tmp_path, checkpoint_interval=3
        )
        wid = _drive(manager, registration, _topups(7))
        lines = (tmp_path / f"{wid}.jsonl").read_text().splitlines()
        # Two compactions (at seq 3 and 6) + one tail event: the log is
        # registration + checkpoint + seq-7 event, not eight records.
        kinds = [loads(line)["kind"] for line in lines]
        assert kinds == ["registration", "checkpoint", "event"]
        stats = manager.stats()
        assert stats["checkpoints"] == 2 and stats["compactions"] == 2
        assert stats["last_checkpoint_seq"] == 6

    def test_recovery_from_checkpoint_is_byte_identical(
        self, registration, tmp_path
    ):
        reference = LiveWorkflowManager(live_dir=tmp_path / "full")
        wid = _drive(reference, registration, _topups(7))
        expected = dumps(reference.status(wid))

        compacted = LiveWorkflowManager(
            live_dir=tmp_path / "ck", checkpoint_interval=3
        )
        _drive(compacted, registration, _topups(7))
        assert dumps(compacted.status(wid)) == expected
        # A cold recovery replays checkpoint + tail, not events 1..7 —
        # and must land on the exact same bytes.
        recovered = LiveWorkflowManager(live_dir=tmp_path / "ck")
        assert dumps(recovered.status(wid)) == expected

    def test_compacted_log_restores_without_solving(
        self, registration, tmp_path, monkeypatch
    ):
        """Recovering registration + checkpoint restores the snapshot:
        no Critical-Greedy solve, and the one step state's one sweep."""
        manager = LiveWorkflowManager(live_dir=tmp_path, checkpoint_interval=3)
        wid = _drive(manager, registration, _topups(3))
        kinds = [
            loads(line)["kind"]
            for line in (tmp_path / f"{wid}.jsonl").read_text().splitlines()
        ]
        assert kinds == ["registration", "checkpoint"]
        expected = dumps(manager.status(wid))

        solves: list[float] = []
        sweeps: list[int] = []
        solve = CriticalGreedyScheduler.solve
        resweep = IncrementalSweep._full_resweep

        def counting_solve(self, problem, budget):
            solves.append(budget)
            return solve(self, problem, budget)

        def counting_resweep(self):
            sweeps.append(1)
            resweep(self)

        monkeypatch.setattr(CriticalGreedyScheduler, "solve", counting_solve)
        monkeypatch.setattr(IncrementalSweep, "_full_resweep", counting_resweep)
        recovered = LiveWorkflowManager(live_dir=tmp_path)
        status = dumps(recovered.status(wid))
        assert solves == [] and len(sweeps) == 1
        assert status == expected

    def test_compaction_preserves_epoch_high_water_mark(
        self, registration, tmp_path
    ):
        node_a = LiveWorkflowManager(live_dir=tmp_path, node="a")
        wid = node_a.register(dict(registration))["workflow_id"]
        node_a.event(wid, {"seq": 1, "type": "topup", "amount": 1.0})
        # B takes over (epoch 2) and compacts the log down to two records.
        node_b = LiveWorkflowManager(
            live_dir=tmp_path, node="b", checkpoint_interval=1
        )
        node_b.event(wid, {"seq": 2, "type": "topup", "amount": 1.0})
        kinds = [
            loads(line)["kind"]
            for line in (tmp_path / f"{wid}.jsonl").read_text().splitlines()
        ]
        assert kinds == ["registration", "checkpoint"]
        # The fence record is gone, but the checkpoint carries epoch 2:
        # a third writer must claim 3, not 2.
        node_c = LiveWorkflowManager(live_dir=tmp_path, node="c")
        node_c.event(wid, {"seq": 3, "type": "topup", "amount": 1.0})
        assert node_c.stats()["max_epoch"] == 3

    def test_failed_compaction_falls_back_to_appended_checkpoint(
        self, registration, tmp_path
    ):
        io = FaultyLogIO(seed=3, replace_error_prob=1.0)
        manager = LiveWorkflowManager(
            live_dir=tmp_path, io=io, checkpoint_interval=2
        )
        wid = _drive(manager, registration, _topups(4))
        stats = manager.stats()
        # The snapshot still landed (appended), the rewrite did not.
        assert stats["checkpoints"] == 2 and stats["compactions"] == 0
        assert io.injected_replace_errors >= 2
        kinds = [
            loads(line)["kind"]
            for line in (tmp_path / f"{wid}.jsonl").read_text().splitlines()
        ]
        assert kinds.count("checkpoint") == 2 and kinds[0] == "registration"
        # Mid-log checkpoints replay fine on a cold recovery.
        recovered = LiveWorkflowManager(live_dir=tmp_path)
        assert dumps(recovered.status(wid)) == dumps(manager.status(wid))

    def test_corrupt_checkpoint_digest_is_corruption(
        self, registration, tmp_path
    ):
        manager = LiveWorkflowManager(live_dir=tmp_path, checkpoint_interval=1)
        wid = _drive(manager, registration, _topups(1))
        path = tmp_path / f"{wid}.jsonl"
        reg_line, ckpt_line = path.read_text().splitlines()
        record = loads(ckpt_line)
        record["state"]["budget"] = 99999.0  # bit rot
        path.write_text(reg_line + "\n" + dumps(record) + "\n")
        with pytest.raises(LiveLogCorruptionError):
            LiveWorkflowManager(live_dir=tmp_path).status(wid)

    def test_rejected_checkpoint_keeps_failing_on_a_loaded_node(
        self, registration, tmp_path
    ):
        """A checkpoint that does not restore is corruption on every read
        of a loaded node, not only the first: the rejected snapshot must
        not advance the node's state past it."""
        manager = LiveWorkflowManager(live_dir=tmp_path)
        wid = _drive(manager, registration, _topups(1))
        record = build_checkpoint(manager._find_entry(wid).workflow, epoch=1)
        state = record["state"]
        state["last_seq"] = record["seq"] = 2
        state["projected_makespan"] += 1.0  # no longer this plan's makespan
        record["digest"] = event_digest(state)
        with open(tmp_path / f"{wid}.jsonl", "a", encoding="utf-8") as handle:
            handle.write(dumps(record) + "\n")

        for _ in range(2):
            with pytest.raises(LiveLogCorruptionError):
                manager.status(wid)
        with pytest.raises(LiveLogCorruptionError):
            LiveWorkflowManager(live_dir=tmp_path).status(wid)


class TestRetention:
    def _complete(self, manager, registration, example_problem):
        wid = manager.register(dict(registration))["workflow_id"]
        seq = 0
        for name in example_problem.workflow.topological_order():
            seq += 1
            manager.event(
                wid,
                {"seq": seq, "type": "completed", "module": name, "duration": 1.0},
            )
        return wid

    def test_completed_workflow_archives_then_expires(
        self, registration, tmp_path, example_problem
    ):
        manager = LiveWorkflowManager(live_dir=tmp_path, retention=60.0)
        wid = self._complete(manager, registration, example_problem)
        log = tmp_path / f"{wid}.jsonl"
        assert log.exists()

        # Within the window: nothing moves.
        assert manager.enforce_retention(now=time.time() + 30) == 0
        assert log.exists()

        # Past the window: archived out of live_dir and out of memory.
        assert manager.enforce_retention(now=time.time() + 120) == 1
        assert not log.exists()
        archived = tmp_path / "archive" / f"{wid}.jsonl"
        assert archived.exists()
        assert manager.stats()["archived"] == 1
        assert manager.stats()["workflows"] == 0

        # Another full window later the archive expires too.
        assert manager.enforce_retention(now=time.time() + 300) == 1
        assert not archived.exists()
        assert manager.stats()["expired"] == 1

    def test_incomplete_workflow_is_never_archived(self, registration, tmp_path):
        manager = LiveWorkflowManager(live_dir=tmp_path, retention=1.0)
        wid = _drive(manager, registration, _topups(1))
        assert manager.enforce_retention(now=time.time() + 3600) == 0
        assert (tmp_path / f"{wid}.jsonl").exists()

    def test_retention_disabled_by_default(self, registration, tmp_path):
        manager = LiveWorkflowManager(live_dir=tmp_path)
        assert manager.enforce_retention(now=time.time() + 1e9) == 0


def _event_stream(problem, data):
    """A drawn, always-valid event stream covering every module."""
    events = []
    seq = 0

    def emit(payload):
        nonlocal seq
        seq += 1
        events.append({"seq": seq, **payload})

    failed = False
    for index, name in enumerate(problem.workflow.topological_order()):
        module = problem.workflow.module(name)
        duration = data.draw(
            st.floats(min_value=0.1, max_value=8.0, allow_nan=False),
            label=f"duration:{name}",
        )
        if data.draw(st.booleans(), label=f"topup-before:{name}"):
            amount = data.draw(
                st.floats(min_value=0.1, max_value=5.0, allow_nan=False),
                label=f"amount:{name}",
            )
            emit({"type": "topup", "amount": amount})
        emit({"type": "started", "module": name})
        if (
            module.is_schedulable
            and not failed
            and index >= 1
            and data.draw(st.booleans(), label=f"fail:{name}")
        ):
            failed = True
            emit({"type": "failed", "module": name, "elapsed": 0.2})
            emit({"type": "started", "module": name})
        emit({"type": "completed", "module": name, "duration": duration})
    return events


@settings(max_examples=12, deadline=None)
@given(
    pb=problems_with_budgets(max_modules=5, max_types=3),
    transfer_aware=st.booleans(),
    interval=st.integers(min_value=1, max_value=4),
    data=st.data(),
)
def test_snapshot_restore_replay_tail_is_byte_identical(
    pb, transfer_aware, interval, data, tmp_path_factory
):
    """The satellite property: recovery through a checkpoint (snapshot →
    restore → replay tail) must be byte-identical — revision, schedule,
    billed cost — to replaying the full event history, including
    transfer-aware plans and mid-stream top-ups."""
    problem, budget = pb
    registration = {
        "problem": problem_to_dict(problem),
        "budget": budget,
        "params": {"transfer_aware": transfer_aware},
    }
    events = _event_stream(problem, data)
    base = tmp_path_factory.mktemp("ckprop")

    full = LiveWorkflowManager(live_dir=base / "full")
    wid = full.register(dict(registration))["workflow_id"]
    for event in events:
        full.event(wid, dict(event))
    expected = dumps(full.status(wid))

    compacted = LiveWorkflowManager(
        live_dir=base / "ck", checkpoint_interval=interval
    )
    compacted.register(dict(registration))
    for event in events:
        compacted.event(wid, dict(event))
    assert dumps(compacted.status(wid)) == expected

    # Cold recovery over the compacted log: checkpoint restore + tail.
    recovered = LiveWorkflowManager(live_dir=base / "ck")
    assert dumps(recovered.status(wid)) == expected
    # And over the full log, for symmetry.
    replayed = LiveWorkflowManager(live_dir=base / "full")
    assert dumps(replayed.status(wid)) == expected
