"""Epoch fencing for the live-workflow log: one *enforced* writer.

Nodes sharing a ``live_dir`` (or replicating into each other's) always
assumed a single active writer per workflow — the shard router pins each
id to one node.  Fencing turns that assumption into an invariant the log
itself enforces:

* The **registration record implies epoch 1** — no extra fence line, so
  the single-node log layout (and its byte costs) are unchanged.
* A node that starts writing to a log it did not register **claims a
  lease** by appending ``{"kind": "fence", "epoch": E, "node": ...}``
  with ``E = observed_max + 1``.  Epochs only ever grow; checkpoint
  records carry the claiming epoch too, so compaction cannot roll the
  counter back.
* Before every append the writer re-checks the log.  The fast path is a
  single ``stat``: if the file size still equals the size after *our*
  last append, no foreign bytes landed and the lease stands.  On a size
  mismatch the log is re-scanned; a higher epoch than our lease means a
  peer fenced us — the append is rejected with
  :class:`~repro.exceptions.StaleEpochError`, the store catches up from
  the log, and only then re-claims ``observed + 1`` and retries.  Router
  failover therefore bumps the epoch on the first post-takeover append.

The lease is node-local bookkeeping (:class:`WriterLease`); the durable
truth is always the log.  This module owns the record format and the
lease struct; the enforcement logic lives in
:class:`~repro.live.store.LiveWorkflowManager`.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any

__all__ = ["WriterLease", "fence_record", "record_epoch"]


@dataclass
class WriterLease:
    """One node's view of its writer lease on a workflow log.

    Attributes
    ----------
    epoch:
        The epoch this node holds (``0`` = not claimed; claimed lazily
        on the first append, never on reads, so recovery and status
        probes leave the log untouched).
    observed:
        The highest epoch seen in the log (``max`` over fence and
        checkpoint records; ``1`` once a registration exists).
    size:
        Log size in bytes after our last append/scan — the one log
        position: it also gives the byte offset replication pushes at.
        ``-1`` = unknown, which forces the next lease check onto the
        slow scan path and the next push to a full resync.
    """

    epoch: int = 0
    observed: int = 0
    size: int = -1


def fence_record(epoch: int, node: str | None) -> dict[str, Any]:
    """The log record claiming writer ``epoch`` for this workflow."""
    return {"kind": "fence", "epoch": int(epoch), "node": node or "unnamed"}


def record_epoch(record: Mapping[str, Any]) -> int | None:
    """The epoch a log record carries, if it is well-formed.

    Fence records carry their claimed epoch; checkpoint records repeat
    the epoch they were written under (so compacting a log down to
    registration + checkpoint preserves the fence high-water mark).
    Returns ``None`` for records of other kinds — and for fence or
    checkpoint records whose epoch field is malformed, which the caller
    treats as corruption.
    """
    if record.get("kind") not in ("fence", "checkpoint"):
        return None
    epoch = record.get("epoch")
    if isinstance(epoch, bool) or not isinstance(epoch, int) or epoch < 1:
        return None
    return epoch
