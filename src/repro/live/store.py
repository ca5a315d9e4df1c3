"""Service-side registry of live workflows: locking, logging, recovery.

:class:`LiveWorkflowManager` owns every :class:`~repro.live.state.LiveWorkflow`
on a node and enforces the durability contract behind the idempotent
event protocol:

* **Registration is content-addressed.**  Ids default to
  :func:`repro.service.keys.derive_workflow_id`, so a retried or
  re-routed registration of the same (problem, algorithm, budget,
  params) lands on the existing workflow and replays its response
  instead of forking a duplicate; re-using an id with a *different*
  registration is a 409.
* **Append-before-apply, fsynced.**  With a ``live_dir`` configured,
  each accepted event is appended to ``<live_dir>/<id>.jsonl`` *after*
  validation but *before* the state mutation, and forced
  to stable storage — directory entry included when the append creates
  the file — before the client is answered.  A node that dies between
  append and reply leaves a log the failover node replays to the exact
  same state (the state machine is deterministic), and the client's
  retried event is answered idempotently from the rebuilt history — no
  lost or duplicated revisions.
* **One replay reads the log.**  An event or status request for an id
  this node has never seen rebuilds it from the ``live_dir`` log, and a
  loaded node folds in records a failover peer appended; both run one
  streaming replay under one rule set, one record at a time (memory is
  O(record), not O(log)).  The first logged record of a seq wins on
  every node that replays it: a record at or below the applied seq is
  skipped.  A record the replay rejects is log damage (500), never a
  client error.  A torn final line (crash mid-append) is dropped, matching the
  "applied only if fully logged" reading of the protocol, and any
  single record larger than the per-line bound is corruption, not an
  allocation.  The active writer truncates a torn tail before its next
  append so an acknowledged record can never fuse with a partial one.
* **Epoch fencing** (:mod:`repro.live.fencing`) turns the single-active-
  writer assumption into an enforced invariant: every write re-checks
  the log (one ``stat`` on the fast path), a foreign fence with a higher
  epoch rejects the stale writer's append
  (:class:`~repro.exceptions.StaleEpochError`), forces a catch-up from
  the log, and only then re-claims ``observed + 1`` — so router failover
  bumps the epoch and split-brain windows converge on one history.
* **Checkpoints + compaction** (:mod:`repro.live.checkpoint`): every
  ``checkpoint_interval`` events the full state is snapshotted and the
  log atomically rewritten (temp file + ``os.replace``) down to
  ``registration + checkpoint``, so recovery restores the snapshot
  (solving no plan) instead of replaying from event 0, and log size
  stays bounded.  Completed workflows idle past the ``retention``
  window are archived, then expired.
* **Peer replication**: accepted records are pushed write-through to
  sibling nodes (``POST /v1/workflows/<id>/sync``) at the byte offset
  where they start in the sender's log — the one log position, the
  writer lease's too.  The receiver checks it against its file size
  (one ``stat``, no read), so a replica stays a byte-identical copy; a
  push failure or offset mismatch falls back to a full resync on the
  next write.  On recovery, a *missing or corrupt* local log is rebuilt
  from the first peer that can serve it (``GET …/sync``) — the damaged
  log is quarantined beside the live one, never silently deleted — so
  a lost disk answers the stream instead of a terminal 500.
* **Injectable I/O** (:mod:`repro.live.iofault`): every durable byte
  goes through a :class:`~repro.live.iofault.LogIO`, so the crash-point
  harness (:mod:`repro.live.crashharness`) can kill the node at every
  append/checkpoint/compaction boundary and assert that no acknowledged
  event is lost and no revision duplicated.

Without peers, readers never mutate a shared ``live_dir`` (a stale
reader must not race the active writer's in-flight append); quarantine
and pull-repair only engage when replication peers are configured.
"""

from __future__ import annotations

import os
import re
import threading
import time
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Protocol

from repro.algorithms.critical_greedy import CriticalGreedyScheduler
from repro.core.problem import MedCCProblem
from repro.exceptions import (
    ConfigurationError,
    EventConflictError,
    LiveLogCorruptionError,
    LiveWorkflowError,
    ReproError,
    ServiceError,
    StaleEpochError,
    UnknownWorkflowError,
)
from repro.live.checkpoint import build_checkpoint, verify_checkpoint
from repro.live.fencing import WriterLease, fence_record, record_epoch
from repro.live.iofault import LogIO
from repro.live.state import LiveWorkflow
from repro.service.codec import decode_problem, dumps, event_digest, loads
from repro.service.keys import canonical_problem_payload, derive_workflow_id

__all__ = ["LiveWorkflowManager", "ParsedRegistration", "PeerLink", "MAX_RECORD_BYTES"]

#: Workflow ids become file names; keep them shell- and path-safe.
_ID_RE = re.compile(r"^[A-Za-z0-9_-]{1,64}$")

#: Scheduler knobs a registration may override.
_ALLOWED_PARAMS = frozenset({"candidate_scope", "transfer_aware"})

#: Per-record size bound for log reads and sync imports.  A single
#: record beyond this is corruption (or a hostile peer), not a reason to
#: balloon recovery memory.
MAX_RECORD_BYTES = 8 * 1024 * 1024


class PeerLink(Protocol):
    """A replication link to a sibling node (see ``http.HttpPeer``)."""

    def fetch(self, workflow_id: str) -> list[str] | None:
        """Full log lines for ``workflow_id``, or ``None`` if absent."""
        ...

    def push(
        self, workflow_id: str, base_offset: int | None, records: list[str]
    ) -> int:
        """Append ``records`` at byte ``base_offset`` of the peer's copy
        (``None`` = full reset); returns the peer's log size after it."""
        ...


@dataclass(frozen=True)
class ParsedRegistration:
    """A validated ``POST /v1/workflows`` payload."""

    workflow_id: str
    problem: MedCCProblem
    budget: float
    algorithm: str
    params: dict[str, Any]
    digest: str
    raw: dict[str, Any]


@dataclass
class _Entry:
    workflow: LiveWorkflow
    registration_digest: str
    #: The logged registration record, verbatim (compaction rewrites it).
    registration_line: str
    lock: threading.RLock = field(default_factory=threading.RLock)
    lease: WriterLease = field(default_factory=WriterLease)
    checkpoint_seq: int = 0
    events_since_checkpoint: int = 0


class LiveWorkflowManager:
    """Registry + durability layer for the live-workflow endpoints.

    Parameters
    ----------
    live_dir:
        Directory for the per-workflow JSONL logs; ``None`` keeps state
        in memory only (no durability, no replication).
    io:
        Filesystem layer for every durable mutation; tests inject a
        :class:`~repro.live.iofault.FaultyLogIO` here.
    node:
        Name recorded in fence records (diagnostics only).
    peers:
        Replication links (:class:`PeerLink`) to sibling nodes.
    checkpoint_interval:
        Snapshot + compact the log every N accepted events; ``0``
        disables checkpointing.
    retention:
        Seconds of idleness after which a *completed* workflow's log is
        archived (and an archived log expired); ``None`` keeps
        everything forever.
    """

    def __init__(
        self,
        *,
        live_dir: str | Path | None = None,
        io: LogIO | None = None,
        node: str | None = None,
        peers: Sequence[PeerLink] = (),
        checkpoint_interval: int = 0,
        retention: float | None = None,
    ) -> None:
        self._lock = threading.Lock()
        self._sync_lock = threading.Lock()
        self._workflows: dict[str, _Entry] = {}
        self._live_dir = Path(live_dir) if live_dir else None
        if self._live_dir is not None:
            self._live_dir.mkdir(parents=True, exist_ok=True)
        self._io = io if io is not None else LogIO()
        self._node = node
        self._peers: list[PeerLink] = list(peers)
        #: (peer index, workflow id) -> log bytes confirmed replicated.
        self._peer_acked: dict[tuple[int, str], int] = {}
        if isinstance(checkpoint_interval, bool) or not isinstance(
            checkpoint_interval, int
        ) or checkpoint_interval < 0:
            raise ConfigurationError(
                "checkpoint_interval must be a non-negative integer, "
                f"got {checkpoint_interval!r}"
            )
        self._checkpoint_interval = checkpoint_interval
        if retention is not None and (
            isinstance(retention, bool) or float(retention) <= 0
        ):
            raise ConfigurationError(
                f"retention must be a positive number of seconds, got {retention!r}"
            )
        self._retention = None if retention is None else float(retention)
        self._registered = 0
        self._recovered = 0
        self._events = 0
        self._replays = 0
        self._resyncs = 0
        self._fenced = 0
        self._epoch_claims = 0
        self._checkpoints = 0
        self._compactions = 0
        self._archived = 0
        self._expired = 0
        self._pulls = 0
        self._quarantined = 0
        self._pushes = 0
        self._push_failures = 0
        self._sync_imports = 0

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #

    def parse_registration(self, payload: object) -> ParsedRegistration:
        """Validate a registration payload (400 on any malformation)."""
        if not isinstance(payload, Mapping):
            raise LiveWorkflowError("registration payload must be a JSON object")
        if not isinstance(payload.get("problem"), Mapping):
            raise LiveWorkflowError(
                "registration requires a 'problem' object"
            )
        problem = decode_problem(payload["problem"])
        budget = payload.get("budget")
        if isinstance(budget, bool) or not isinstance(budget, (int, float)):
            raise LiveWorkflowError("registration field 'budget' must be a number")
        budget = float(budget)
        algorithm = payload.get("algorithm", CriticalGreedyScheduler.name)
        if algorithm != CriticalGreedyScheduler.name:
            raise LiveWorkflowError(
                f"live workflows require algorithm "
                f"{CriticalGreedyScheduler.name!r}, got {algorithm!r}"
            )
        params = payload.get("params") or {}
        if not isinstance(params, Mapping):
            raise LiveWorkflowError("registration field 'params' must be an object")
        params = {str(k): params[k] for k in sorted(params)}
        unknown = set(params) - _ALLOWED_PARAMS
        if unknown:
            raise LiveWorkflowError(
                f"unsupported scheduler params for live workflows: "
                f"{sorted(unknown)}"
            )
        workflow_id = payload.get("workflow_id")
        if workflow_id is None:
            workflow_id = derive_workflow_id(
                payload["problem"], algorithm, budget, params
            )
        elif not isinstance(workflow_id, str) or not _ID_RE.match(workflow_id):
            raise LiveWorkflowError(
                "registration field 'workflow_id' must match "
                f"{_ID_RE.pattern}"
            )
        digest = event_digest(
            {
                "workflow_id": workflow_id,
                "problem": canonical_problem_payload(payload["problem"]),
                "budget": budget,
                "algorithm": algorithm,
                "params": params,
            }
        )
        return ParsedRegistration(
            workflow_id=workflow_id,
            problem=problem,
            budget=budget,
            algorithm=algorithm,
            params=params,
            digest=digest,
            raw=dict(payload),
        )

    def register(self, payload: object) -> dict[str, Any]:
        """Register a plan (or replay an identical prior registration)."""
        parsed = self.parse_registration(payload)
        entry = self._find_entry(parsed.workflow_id)
        if entry is not None:
            return self._replay_registration(parsed, entry)

        workflow = self._build_workflow(parsed)
        line = dumps({"kind": "registration", "payload": parsed.raw})
        new_entry = _Entry(workflow, parsed.digest, line)
        # Publish, then log, holding the entry lock across both: racing
        # registrations converge on one surviving entry so only the race
        # winner appends the registration record, and an event for the
        # new id cannot reach the log first — event() must take the
        # entry lock this thread holds until the record is durable.
        with new_entry.lock:
            with self._lock:
                existing = self._workflows.setdefault(
                    parsed.workflow_id, new_entry
                )
                if existing is new_entry:
                    self._registered += 1
            if existing is new_entry:
                # The registration record *is* the epoch-1 fence: the
                # registering node holds the writer lease without an
                # extra log line.
                self._append_line(
                    parsed.workflow_id, new_entry, line, claim_epoch=1
                )
                self._replicate(parsed.workflow_id, new_entry, line)
                return workflow.registration_response()
        # Lost a registration race; answer from the surviving entry.
        return self._replay_registration(parsed, existing)

    def _replay_registration(
        self, parsed: ParsedRegistration, entry: _Entry
    ) -> dict[str, Any]:
        if entry.registration_digest != parsed.digest:
            raise EventConflictError(
                f"workflow {parsed.workflow_id!r} is already registered "
                "with a different problem/budget/params",
                workflow_id=parsed.workflow_id,
            )
        with entry.lock:
            response = entry.workflow.registration_response()
        response["replayed"] = True
        return response

    def _build_workflow(
        self, parsed: ParsedRegistration, state: Mapping[str, Any] | None = None
    ) -> LiveWorkflow:
        """Plan ``parsed``, or restore it from a checkpoint ``state``
        without solving; the scheduler knobs are validated either way."""
        try:
            scheduler = CriticalGreedyScheduler(**parsed.params)
        except ConfigurationError as exc:
            raise LiveWorkflowError(f"invalid scheduler params: {exc}") from exc
        knobs = {
            "candidate_scope": scheduler.candidate_scope,
            "transfer_aware": scheduler.transfer_aware,
        }
        if state is not None:
            return LiveWorkflow.restore(
                parsed.workflow_id, parsed.problem, state, **knobs
            )
        plan = scheduler.solve(parsed.problem, parsed.budget)
        return LiveWorkflow(
            parsed.workflow_id, parsed.problem, parsed.budget, plan, **knobs
        )

    # ------------------------------------------------------------------ #
    # Events and status
    # ------------------------------------------------------------------ #

    def event(self, workflow_id: str, payload: object) -> dict[str, Any]:
        """Apply (or idempotently replay) one event; returns the response."""
        entry = self._require_entry(workflow_id)
        compacted = False
        with entry.lock:
            if self._live_dir is not None:
                # Writer-lease check first: a fenced node catches up and
                # re-claims here, so prepare() below validates the event
                # against the converged history, not a stale copy.
                self._ensure_writer(workflow_id, entry)
            try:
                prepared = entry.workflow.prepare(payload)
            except EventConflictError:
                # The sequence looks wrong *to this node* — but a failover
                # peer may have applied the missing events to the shared
                # log while our in-memory copy went stale.  Catch up from
                # the log and re-validate before answering 409.
                if not self._catch_up(workflow_id, entry):
                    raise
                prepared = entry.workflow.prepare(payload)
            if isinstance(prepared, dict):
                with self._lock:
                    self._replays += 1
                return prepared
            event, digest = prepared
            line = dumps({"kind": "event", "payload": payload})
            if not self._append_line(workflow_id, entry, line):
                # A peer's records landed between the lease check and
                # our append, and the log is now folded in: the first
                # logged record of this seq decided it.  Ours matches it
                # (a replay) or lost to a different payload (409).
                replayed = entry.workflow.prepare(payload)
                if not isinstance(replayed, dict):
                    raise EventConflictError(
                        f"seq {event.seq} of workflow {workflow_id!r} raced "
                        "another writer's append",
                        workflow_id=workflow_id,
                        seq=event.seq,
                    )
                with self._lock:
                    self._replays += 1
                return replayed
            response = entry.workflow.commit(event, digest)
            if self._live_dir is not None:
                entry.events_since_checkpoint += 1
                self._replicate(workflow_id, entry, line)
                compacted = self._maybe_checkpoint(workflow_id, entry)
        with self._lock:
            self._events += 1
        if compacted:
            # Outside the entry lock: retention touches other entries.
            self.enforce_retention()
        return response

    def status(self, workflow_id: str) -> dict[str, Any]:
        """The status/ledger body for ``GET /v1/workflows/<id>``."""
        entry = self._require_entry(workflow_id)
        with entry.lock:
            if self._live_dir is not None:
                # Status reads fold in anything a failover peer logged so
                # operators never see a stale ledger; the unchanged-size
                # fast path keeps this one stat() when nothing moved.
                self._catch_up(workflow_id, entry)
            return entry.workflow.status_payload()

    def stats(self) -> dict[str, Any]:
        with self._lock:
            entries = list(self._workflows.items())
            acked = dict(self._peer_acked)
            counters = {
                "registered": self._registered,
                "recovered": self._recovered,
                "events": self._events,
                "replays": self._replays,
                "resyncs": self._resyncs,
                "fenced": self._fenced,
                "epoch_claims": self._epoch_claims,
                "checkpoints": self._checkpoints,
                "compactions": self._compactions,
                "archived": self._archived,
                "expired": self._expired,
                "pulls": self._pulls,
                "quarantined": self._quarantined,
                "pushes": self._pushes,
                "push_failures": self._push_failures,
                "sync_imports": self._sync_imports,
            }
        complete = 0
        revisions = 0
        max_epoch = 0
        last_checkpoint_seq = 0
        lag = 0
        for workflow_id, entry in entries:
            if entry.workflow.is_complete():
                complete += 1
            revisions += entry.workflow.revision
            max_epoch = max(max_epoch, entry.lease.epoch, entry.lease.observed)
            last_checkpoint_seq = max(last_checkpoint_seq, entry.checkpoint_seq)
            for index in range(len(self._peers)):
                # Unacked log bytes; an unknown size (-1) counts none.
                behind = entry.lease.size - acked.get((index, workflow_id), 0)
                if behind > 0:
                    lag += behind
        return {
            "workflows": len(entries),
            "complete": complete,
            "revisions": revisions,
            "peers": len(self._peers),
            "max_epoch": max_epoch,
            "last_checkpoint_seq": last_checkpoint_seq,
            "replication_lag": lag,
            **counters,
        }

    # ------------------------------------------------------------------ #
    # Durable log: append path + writer lease
    # ------------------------------------------------------------------ #

    def _log_path(self, workflow_id: str) -> Path | None:
        if self._live_dir is None:
            return None
        return self._live_dir / f"{workflow_id}.jsonl"

    def _append_line(
        self,
        workflow_id: str,
        entry: _Entry,
        line: str,
        *,
        claim_epoch: int | None = None,
    ) -> bool:
        """Append one durable record; updates the lease observation.

        Returns whether the record started at the lease's offset, i.e.
        no foreign bytes landed between the lease check and this append
        (an unknown lease expects nothing).  When some did, this node's
        record is not where it assumed — a peer's record of the same seq
        may precede it — so the log is folded in before returning
        ``False``, and the caller answers from the converged state.
        """
        path = self._log_path(workflow_id)
        if path is None:
            return True
        lease = entry.lease
        data = (line + "\n").encode("utf-8")
        expected = lease.size - self._io.truncate_torn_tail(path)
        end = self._io.append(path, data)
        landed = lease.size < 0 or end - len(data) == expected
        lease.size = end if landed else -1
        if claim_epoch is not None:
            lease.epoch = claim_epoch
            lease.observed = max(lease.observed, claim_epoch)
        if not landed:
            self._catch_up(workflow_id, entry)
        return landed

    def _ensure_writer(self, workflow_id: str, entry: _Entry) -> None:
        """Enforce the single-writer invariant before a write.

        Caller holds ``entry.lock``.  A fenced node (foreign fence with
        a higher epoch) has already been caught up by the lease check;
        it re-claims ``observed + 1`` and proceeds, so the client's
        event is validated against the converged history.
        """
        try:
            self._check_lease(workflow_id, entry)
        except StaleEpochError as exc:
            with self._lock:
                self._fenced += 1
            self._claim(workflow_id, entry, exc.observed + 1)

    def _check_lease(self, workflow_id: str, entry: _Entry) -> None:
        """Raise :class:`StaleEpochError` if a peer fenced this writer.

        Fast path: one ``stat`` — an unchanged file size means no
        foreign bytes landed since our last append, so the lease stands.
        A mismatch catches up from the log (folding in foreign records)
        and compares epochs.  An unclaimed lease (recovered entry) claims
        lazily here, on the first *write*; reads never claim.
        """
        if self._live_dir is None:
            return
        self._catch_up(workflow_id, entry)
        lease = entry.lease
        if lease.epoch == 0:
            self._claim(workflow_id, entry, lease.observed + 1)
        elif lease.observed > lease.epoch:
            raise StaleEpochError(
                workflow_id, epoch=lease.epoch, observed=lease.observed
            )

    def _claim(self, workflow_id: str, entry: _Entry, epoch: int) -> None:
        """Claim the writer lease by appending a fence record."""
        line = dumps(fence_record(epoch, self._node))
        self._append_line(workflow_id, entry, line, claim_epoch=epoch)
        with self._lock:
            self._epoch_claims += 1
        self._replicate(workflow_id, entry, line)

    # ------------------------------------------------------------------ #
    # Checkpoints, compaction, retention
    # ------------------------------------------------------------------ #

    def _maybe_checkpoint(self, workflow_id: str, entry: _Entry) -> bool:
        """Snapshot + compact when the interval elapsed.

        Compaction is atomic: the compacted image (registration +
        checkpoint) is written to a temp file, fsynced, and swapped in
        with one ``os.replace`` — at every instant the on-disk log is
        either the full history or the compacted one.  If the rewrite
        fails (e.g. an injected replace fault), the checkpoint record is
        *appended* instead: the snapshot still lands durably and a later
        interval retries the compaction.  Returns whether a compaction
        happened (the caller then runs retention outside the lock).
        """
        if (
            self._checkpoint_interval <= 0
            or entry.events_since_checkpoint < self._checkpoint_interval
        ):
            return False
        path = self._log_path(workflow_id)
        if path is None:
            return False
        checkpoint_line = dumps(
            build_checkpoint(entry.workflow, epoch=max(entry.lease.epoch, 1))
        )
        data = f"{entry.registration_line}\n{checkpoint_line}\n".encode("utf-8")
        tmp = path.with_name(path.name + ".compact.tmp")
        try:
            self._io.write_file(tmp, data)
            self._io.replace(tmp, path)
        except OSError:
            self._io.remove(tmp)
            self._append_line(workflow_id, entry, checkpoint_line)
            entry.checkpoint_seq = entry.workflow.last_seq
            entry.events_since_checkpoint = 0
            with self._lock:
                self._checkpoints += 1
            self._replicate(workflow_id, entry, checkpoint_line)
            return False
        entry.lease.size = len(data)
        entry.checkpoint_seq = entry.workflow.last_seq
        entry.events_since_checkpoint = 0
        with self._lock:
            self._checkpoints += 1
            self._compactions += 1
        # Peers' append offsets no longer exist; push the compacted log.
        self._replicate(workflow_id, entry, None)
        return True

    def enforce_retention(self, *, now: float | None = None) -> int:
        """Archive idle completed workflows; expire idle archives.

        A completed workflow whose log has been idle for ``retention``
        seconds moves to ``<live_dir>/archive/`` and leaves memory; an
        archived log idle for another window is deleted.  Busy entries
        (lock held) are skipped and picked up next time.  Returns the
        number of logs archived or expired.
        """
        if self._retention is None or self._live_dir is None:
            return 0
        if now is None:
            now = time.time()
        archive_dir = self._live_dir / "archive"
        actions = 0
        with self._lock:
            items = list(self._workflows.items())
        for workflow_id, entry in items:
            if not entry.lock.acquire(blocking=False):
                continue
            try:
                if not entry.workflow.is_complete():
                    continue
                path = self._log_path(workflow_id)
                if path is None:
                    continue
                try:
                    mtime = os.stat(path).st_mtime
                except FileNotFoundError:
                    continue
                if now - mtime < self._retention:
                    continue
                archive_dir.mkdir(parents=True, exist_ok=True)
                try:
                    self._io.replace(path, archive_dir / path.name)
                    # The expiry window starts at archive time, not at
                    # the log's last append (replace preserves mtime).
                    os.utime(archive_dir / path.name, (now, now))
                except OSError:
                    continue
                with self._lock:
                    self._workflows.pop(workflow_id, None)
                    self._archived += 1
                actions += 1
            finally:
                entry.lock.release()
        try:
            archived = sorted(archive_dir.iterdir())
        except (FileNotFoundError, NotADirectoryError):
            archived = []
        for stale in archived:
            try:
                if now - stale.stat().st_mtime < self._retention:
                    continue
            except FileNotFoundError:
                continue
            self._io.remove(stale)
            with self._lock:
                self._expired += 1
            actions += 1
        return actions

    # ------------------------------------------------------------------ #
    # Peer replication
    # ------------------------------------------------------------------ #

    def _replicate(
        self, workflow_id: str, entry: _Entry, line: str | None
    ) -> None:
        """Write-through push to every peer; best-effort.

        ``line`` is the record just appended, ending at the lease's byte
        offset (``None`` forces a full resync, e.g. after compaction; so
        does an unknown lease size).  A peer whose confirmed offset does
        not match the offset where ``line`` starts — or whose push fails
        — is resynced with the whole log on this or the next write; the
        local log remains the source of truth either way, and a peer
        that missed pushes can still pull on demand.
        """
        path = self._log_path(workflow_id)
        if not self._peers or path is None:
            return
        if entry.lease.size < 0:
            line = None
        base = 0 if line is None else entry.lease.size - len(line.encode("utf-8")) - 1
        full: list[str] | None = None
        for index, peer in enumerate(self._peers):
            key = (index, workflow_id)
            with self._lock:
                acked = self._peer_acked.get(key)
            try:
                if line is None or acked != base:
                    if full is None:
                        full = [raw for _, raw in self._iter_records(workflow_id, path)]
                    offset = peer.push(workflow_id, None, full)
                else:
                    offset = peer.push(workflow_id, base, [line])
            except (ReproError, OSError):
                with self._lock:
                    self._peer_acked.pop(key, None)
                    self._push_failures += 1
            else:
                with self._lock:
                    self._peer_acked[key] = offset
                    self._pushes += 1

    def sync_export(self, workflow_id: str) -> dict[str, Any]:
        """``GET /v1/workflows/<id>/sync``: the raw log for a peer."""
        if not isinstance(workflow_id, str) or not _ID_RE.match(workflow_id):
            raise UnknownWorkflowError(str(workflow_id))
        path = self._log_path(workflow_id)
        if path is None or self._io.size(path) is None:
            raise UnknownWorkflowError(workflow_id)
        lines = [raw for _record, raw in self._iter_records(workflow_id, path)]
        if not lines:
            # Only a torn first line: nothing was ever acknowledged.
            raise UnknownWorkflowError(workflow_id)
        return {
            "status": "ok",
            "workflow_id": workflow_id,
            "count": len(lines),
            "records": lines,
        }

    def sync_import(self, workflow_id: str, payload: object) -> dict[str, Any]:
        """``POST /v1/workflows/<id>/sync``: accept replicated records.

        ``{"reset": true, "records": [...]}`` atomically replaces the
        local replica with the sender's full log (temp file +
        ``os.replace``); ``{"base_offset": N, "records": [...]}``
        appends at byte ``N`` — after dropping a torn tail, the local
        log must be exactly ``N`` bytes long (one ``stat``, no read),
        else a 409 tells the sender to fall back to a full resync.  The
        ack reports the ``records`` imported and ``offset``, the local
        log size after the import.
        """
        if not isinstance(workflow_id, str) or not _ID_RE.match(workflow_id):
            raise LiveWorkflowError("sync target workflow id is invalid")
        if self._live_dir is None:
            raise LiveWorkflowError(
                "this node has no live_dir; it cannot accept replicated records"
            )
        if not isinstance(payload, Mapping):
            raise LiveWorkflowError("sync payload must be a JSON object")
        records = payload.get("records")
        if not isinstance(records, list) or not records:
            raise LiveWorkflowError(
                "sync field 'records' must be a non-empty array of log lines"
            )
        parsed: list[Mapping[str, Any]] = []
        for raw in records:
            if not isinstance(raw, str) or not raw.strip():
                raise LiveWorkflowError("sync records must be non-empty strings")
            if len(raw.encode("utf-8")) > MAX_RECORD_BYTES:
                raise LiveWorkflowError(
                    f"sync record exceeds the {MAX_RECORD_BYTES}-byte bound"
                )
            try:
                record = loads(raw)
            except ServiceError:
                raise LiveWorkflowError(
                    "sync records must be JSON objects"
                ) from None
            if not isinstance(record, Mapping) or not isinstance(
                record.get("kind"), str
            ):
                raise LiveWorkflowError("sync records must carry a 'kind'")
            parsed.append(record)
        path = self._log_path(workflow_id)
        assert path is not None
        data = ("\n".join(records) + "\n").encode("utf-8")
        # The IO handle is immutable after __init__; bind it outside the
        # sync-lock regions so it never reads as lock-guarded state.
        io = self._io
        if payload.get("reset"):
            if parsed[0].get("kind") != "registration":
                raise LiveWorkflowError(
                    "a sync reset must start with the registration record"
                )
            with self._sync_lock:
                tmp = path.with_name(path.name + ".sync.tmp")
                io.write_file(tmp, data)
                io.replace(tmp, path)
                with self._lock:
                    # The imported log is authoritative; a loaded copy
                    # rebuilds from it on its next access.
                    self._workflows.pop(workflow_id, None)
                    self._sync_imports += 1
            offset = len(data)
        else:
            base = payload.get("base_offset")
            if isinstance(base, bool) or not isinstance(base, int) or base < 1:
                raise LiveWorkflowError(
                    "sync field 'base_offset' must be a positive integer "
                    "(or pass \"reset\": true)"
                )
            with self._sync_lock:
                io.truncate_torn_tail(path)
                current = io.size(path)
                if current != base:
                    raise EventConflictError(
                        f"sync base mismatch for workflow {workflow_id!r}: "
                        f"sender appends at byte {base}, local log has "
                        f"{current}",
                        workflow_id=workflow_id,
                    )
                offset = io.append(path, data)
                with self._lock:
                    entry = self._workflows.get(workflow_id)
                    self._sync_imports += 1
                if entry is not None:
                    # Force this node's next lease check onto the scan
                    # path so it folds the imported records in.
                    entry.lease.size = -1
        return {
            "status": "ok",
            "workflow_id": workflow_id,
            "records": len(records),
            "offset": offset,
        }

    def _pull_from_peer(self, workflow_id: str, *, quarantine: bool) -> bool:
        """Anti-entropy pull: rebuild the local log from the first peer
        that can serve it.  With ``quarantine`` the damaged local log is
        set aside (``<id>.jsonl.quarantined``) first — never silently
        deleted.  Returns whether a log was installed."""
        path = self._log_path(workflow_id)
        if path is None or not self._peers:
            return False
        for peer in self._peers:
            try:
                lines = peer.fetch(workflow_id)
            except (ReproError, OSError):
                continue
            if not lines or not all(
                isinstance(raw, str)
                and raw.strip()
                and len(raw.encode("utf-8")) <= MAX_RECORD_BYTES
                for raw in lines
            ):
                continue
            data = ("\n".join(lines) + "\n").encode("utf-8")
            io = self._io
            try:
                with self._sync_lock:
                    if quarantine and io.size(path) is not None:
                        io.replace(path, path.with_name(path.name + ".quarantined"))
                        with self._lock:
                            self._quarantined += 1
                    tmp = path.with_name(path.name + ".pull.tmp")
                    io.write_file(tmp, data)
                    io.replace(tmp, path)
            except OSError:
                continue
            with self._lock:
                self._pulls += 1
            return True
        return False

    # ------------------------------------------------------------------ #
    # Streaming log reads + recovery
    # ------------------------------------------------------------------ #

    def _iter_records(
        self, workflow_id: str, path: Path
    ) -> Iterator[tuple[Mapping[str, Any], str]]:
        """Stream ``(record, raw line)`` pairs from a log.

        Reads one bounded line at a time, so recovery memory is
        O(record) regardless of log length.  An unterminated final
        chunk is a torn tail from a crash mid-append — never
        acknowledged, silently dropped.  Anything else that does not
        parse into a JSON object, or any record over
        :data:`MAX_RECORD_BYTES`, is corruption.
        """
        try:
            handle = self._io.open_read(path)
        except FileNotFoundError:
            return
        with handle:
            while True:
                line = handle.readline(MAX_RECORD_BYTES + 1)
                if not line:
                    return
                if len(line) > MAX_RECORD_BYTES:
                    raise _corrupt(
                        workflow_id,
                        f"has a record longer than {MAX_RECORD_BYTES} bytes",
                    )
                if not line.endswith(b"\n"):
                    # readline only returns an unterminated chunk at
                    # EOF, so this is by construction the final line.
                    return
                stripped = line.strip()
                if not stripped:
                    continue
                try:
                    record = loads(stripped.decode("utf-8"))
                except (ServiceError, UnicodeDecodeError):
                    record = None
                if not isinstance(record, Mapping):
                    raise _corrupt(workflow_id, "has an unparseable record")
                yield record, stripped.decode("utf-8")

    def _find_entry(self, workflow_id: str) -> _Entry | None:
        with self._lock:
            entry = self._workflows.get(workflow_id)
        if entry is not None:
            return entry
        return self._recover(workflow_id)

    def _require_entry(self, workflow_id: str) -> _Entry:
        entry = self._find_entry(workflow_id)
        if entry is None:
            raise UnknownWorkflowError(workflow_id)
        return entry

    def _catch_up(self, workflow_id: str, entry: _Entry) -> bool:
        """Fold in records a failover peer appended while this node's
        in-memory copy went stale.  Caller holds ``entry.lock``; returns
        whether ``last_seq`` moved."""
        path = self._log_path(workflow_id)
        if path is None or self._io.size(path) == entry.lease.size:
            return False  # nothing new on disk
        before = entry.workflow.last_seq
        self._replay(workflow_id, entry)
        if entry.workflow.last_seq == before:
            return False
        with self._lock:
            self._resyncs += 1
        return True

    def _recover(self, workflow_id: str) -> _Entry | None:
        """Rebuild a workflow from its event log (failover takeover).

        A corrupt — or, with peers configured, missing — log is rebuilt
        from the first peer that can serve it; the damaged original is
        quarantined, never silently discarded.  Without peers the
        corruption propagates as a 500-class error (readers must not
        mutate a shared ``live_dir``).
        """
        if not isinstance(workflow_id, str) or not _ID_RE.match(workflow_id):
            return None
        try:
            entry = self._replay(workflow_id, None)
        except LiveLogCorruptionError:
            if not self._peers or not self._pull_from_peer(
                workflow_id, quarantine=True
            ):
                raise
            entry = self._replay(workflow_id, None)
        if entry is None and self._peers:
            if self._pull_from_peer(workflow_id, quarantine=False):
                entry = self._replay(workflow_id, None)
        return entry

    def _replay(self, workflow_id: str, entry: _Entry | None) -> _Entry | None:
        """Stream the log into workflow state: the one reader of records.

        ``entry=None`` recovers: the first registration record defines
        the workflow, built at the first state-bearing record — from a
        checkpoint's snapshot without solving (a compacted log), else
        by planning the registration.  Given an ``entry`` (caller holds
        its lock) the records fold into its workflow.  One rule set:
        a later registration must match the first (line ``==``, else
        digest); a fence or checkpoint needs a valid epoch; an unknown
        kind, or a record before the registration, is corrupt; a record
        at or below ``last_seq`` is skipped, so the first logged record
        of a seq wins on every replaying node; an event the state machine rejects
        or a checkpoint that does not restore is corrupt, not a client
        error.  Refreshes the lease observation; returns the entry, or
        ``None`` when recovery finds no log or only a torn first line.
        """
        path = self._log_path(workflow_id)
        size = None if path is None else self._io.size(path)
        if path is None or size is None:
            return entry
        parsed: ParsedRegistration | None = None
        workflow = None if entry is None else entry.workflow
        known = None if entry is None else entry.registration_line
        digest = "" if entry is None else entry.registration_digest
        registered = False
        observed = checkpoint_seq = 0
        try:
            for record, raw in self._iter_records(workflow_id, path):
                kind = record.get("kind")
                if kind == "registration":
                    observed = max(observed, 1)
                    payload = record.get("payload")
                    if known is None:
                        parsed = self.parse_registration(payload)
                        if parsed.workflow_id != workflow_id:
                            raise _corrupt(
                                workflow_id, f"registers {parsed.workflow_id!r}"
                            )
                        known, digest = raw, parsed.digest
                    elif (
                        raw != known
                        and self.parse_registration(payload).digest != digest
                    ):
                        # Racing registrations through a shared live_dir
                        # can each append an identical record; a
                        # divergent one means the log serves two masters.
                        raise _corrupt(
                            workflow_id,
                            "has a second registration record with a "
                            "different problem/budget/params",
                        )
                    registered = True
                    continue
                if not registered:
                    raise _corrupt(workflow_id, "has no registration record")
                if kind in ("fence", "checkpoint"):
                    epoch = record_epoch(record)
                    if epoch is None:
                        raise _corrupt(
                            workflow_id, f"has a {kind} record without a valid epoch"
                        )
                    observed = max(observed, epoch)
                    if kind == "fence":
                        continue
                    seq, body = verify_checkpoint(record, workflow_id=workflow_id)
                    checkpoint_seq = max(checkpoint_seq, seq)
                elif kind == "event":
                    body = record.get("payload")
                    seq = body.get("seq") if isinstance(body, Mapping) else None
                else:
                    raise _corrupt(workflow_id, f"has an unexpected {kind!r} record")
                if workflow is None:
                    assert parsed is not None
                    workflow = self._build_workflow(
                        parsed, body if kind == "checkpoint" else None
                    )
                if type(seq) is int and 0 < seq <= workflow.last_seq:
                    continue  # the first logged record of a seq wins
                if kind == "checkpoint":
                    workflow.load_state(body)
                else:
                    workflow.handle_event(body)
            if workflow is None and parsed is not None:
                workflow = self._build_workflow(parsed)
        except LiveWorkflowError as exc:
            raise _corrupt(workflow_id, f"does not replay: {exc}") from exc
        if entry is not None:
            entry.lease.size = size
            entry.lease.observed = max(entry.lease.observed, observed)
            entry.checkpoint_seq = max(entry.checkpoint_seq, checkpoint_seq)
            return entry
        if workflow is None or known is None:
            # Only a torn first line: the registration was never
            # acknowledged, so the workflow does not exist yet.
            return None
        new_entry = _Entry(workflow, digest, known)
        new_entry.lease = WriterLease(epoch=0, observed=observed, size=size)
        new_entry.checkpoint_seq = checkpoint_seq
        with self._lock:
            entry = self._workflows.setdefault(workflow_id, new_entry)
            if entry is new_entry:
                self._recovered += 1
        return entry


def _corrupt(workflow_id: str, problem: str) -> LiveLogCorruptionError:
    """The 500-class error for damage in ``workflow_id``'s live log."""
    return LiveLogCorruptionError(
        f"live log for workflow {workflow_id!r} {problem}", workflow_id=workflow_id
    )
