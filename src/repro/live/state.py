"""The per-workflow live state machine.

:class:`LiveWorkflow` holds one registered plan mid-flight: the original
:class:`~repro.core.problem.MedCCProblem`, the current (revisable)
schedule, per-module execution status, realized durations and the billed
spend so far.  Each accepted event — ``started``, ``completed``,
``failed``, ``topup`` — updates that state and then re-optimizes the
**remaining** DAG under the **remaining** budget.

Re-optimization runs Critical-Greedy's own step state
(:class:`~repro.algorithms.critical_greedy._GreedyState`: type columns,
te/ce rows, ΔT/ΔC grids and one incremental sweep), kept across events,
so a completion costs one ``set_duration`` delta sweep plus a vectorized
candidate argmax over the still-pending rows.  Two loops run per event:

* a **repair** pass while the projected cost exceeds the budget (sunk
  failure bills eat the envelope): downgrade pending modules, picking
  the candidate with the *least* time damage first (max ΔT) and the
  biggest saving on ties (min ΔC) — the state's repair pick, the same
  lexicographic selector as the upgrade direction;
* the standard Critical-Greedy **upgrade** pass (Alg. 1 lines 9-17)
  restricted to pending rows.

The zero-drift identity is bit-exact by construction: the projected
cost is seeded from the offline run's own accumulator (the last step's
``cost_after``), actual costs are billed through the same
``BillingPolicy`` arithmetic that built the CE matrix, and every move is
the solver's own step application — so replaying a drift-free trace
leaves no affordable step and the revision counter stays 0
(property-tested in ``tests/live``).

Thread safety: instances are *not* thread-safe; the
:class:`~repro.live.store.LiveWorkflowManager` serializes access with a
per-workflow lock.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.algorithms.base import SchedulerResult
from repro.algorithms.critical_greedy import CriticalGreedyScheduler, _GreedyState
from repro.core.problem import MedCCProblem
from repro.core.schedule import Schedule
from repro.exceptions import EventConflictError, LiveWorkflowError
from repro.service.codec import encode_schedule, event_digest

__all__ = [
    "EVENT_KINDS",
    "LiveEvent",
    "LiveWorkflow",
    "PENDING",
    "RUNNING",
    "DONE",
]

#: Wire-level event kinds accepted on ``POST /v1/workflows/<id>/events``.
EVENT_KINDS = frozenset({"started", "completed", "failed", "topup"})

PENDING = "pending"
RUNNING = "running"
DONE = "done"

#: Kinds that must reference a module.
_MODULE_KINDS = frozenset({"started", "completed", "failed"})

#: How many recent sequence numbers keep their (digest, response) pair
#: for digest-verified idempotent replays.  The protocol has exactly one
#: outstanding seq, so retries land overwhelmingly on the newest entry;
#: anything that aged out of the window is an ancient retry and gets a
#: generic replayed ack instead of growing node memory without bound.
_REPLAY_WINDOW = 64


def _require_number(
    payload: Mapping[str, Any],
    field: str,
    *,
    minimum: float = 0.0,
    strict: bool = False,
) -> float:
    value = payload.get(field)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise LiveWorkflowError(f"event field {field!r} must be a number")
    value = float(value)
    if not math.isfinite(value):
        raise LiveWorkflowError(f"event field {field!r} must be finite")
    if value < minimum or (strict and value <= minimum):
        bound = "greater than" if strict else "at least"
        raise LiveWorkflowError(
            f"event field {field!r} must be {bound} {minimum:g}, got {value:g}"
        )
    return value


@dataclass(frozen=True, slots=True)
class LiveEvent:
    """One validated wire event.

    ``time`` is the sender's (informational) simulation/wall timestamp;
    it is echoed into the ledger but never used for state decisions —
    ordering authority is the sequence number alone.
    """

    seq: int
    kind: str
    module: str | None = None
    duration: float | None = None
    elapsed: float | None = None
    amount: float | None = None
    vm_type: str | None = None
    time: float | None = None

    @classmethod
    def parse(cls, payload: object) -> "LiveEvent":
        """Validate a wire payload; raises :class:`LiveWorkflowError` (400)."""
        if not isinstance(payload, Mapping):
            raise LiveWorkflowError("event payload must be a JSON object")
        seq = payload.get("seq")
        if isinstance(seq, bool) or not isinstance(seq, int) or seq < 1:
            raise LiveWorkflowError("event field 'seq' must be a positive integer")
        kind = payload.get("type")
        if kind not in EVENT_KINDS:
            raise LiveWorkflowError(
                f"event field 'type' must be one of {sorted(EVENT_KINDS)}, "
                f"got {kind!r}"
            )
        module = payload.get("module")
        if kind in _MODULE_KINDS:
            if not isinstance(module, str) or not module:
                raise LiveWorkflowError(
                    f"{kind!r} event requires a non-empty string 'module'"
                )
        else:
            module = None
        duration = elapsed = amount = None
        if kind == "completed":
            duration = _require_number(payload, "duration")
        elif kind == "failed":
            elapsed = _require_number(payload, "elapsed")
        elif kind == "topup":
            amount = _require_number(payload, "amount", strict=True)
        vm_type = payload.get("vm_type")
        if vm_type is not None and not isinstance(vm_type, str):
            raise LiveWorkflowError("event field 'vm_type' must be a string")
        time = payload.get("time")
        if time is not None:
            if isinstance(time, bool) or not isinstance(time, (int, float)):
                raise LiveWorkflowError("event field 'time' must be a number")
            time = float(time)
        return cls(
            seq=seq,
            kind=kind,
            module=module,
            duration=duration,
            elapsed=elapsed,
            amount=amount,
            vm_type=vm_type if kind == "started" else None,
            time=time,
        )


class LiveWorkflow:
    """State machine for one registered, running workflow.

    Parameters
    ----------
    workflow_id:
        Stable identifier (see :func:`repro.service.keys.derive_workflow_id`).
    problem:
        The MED-CC instance the plan was computed for.
    budget:
        The authorized budget (grows on ``topup`` events).
    plan:
        The offline Critical-Greedy result to start from.
    candidate_scope / transfer_aware:
        The scheduler knobs of the registered plan; re-optimization uses
        the same scope so residual solves stay comparable to offline
        ones.
    """

    def __init__(
        self,
        workflow_id: str,
        problem: MedCCProblem,
        budget: float,
        plan: SchedulerResult,
        *,
        candidate_scope: str = "critical",
        transfer_aware: bool = True,
    ) -> None:
        self._bind(
            workflow_id, problem, plan.algorithm, candidate_scope, transfer_aware
        )
        self.budget = float(budget)
        matrices = problem.matrices

        # The current plan in the solver's own step state.
        self._state = _GreedyState(
            problem,
            [int(plan.schedule[name]) for name in self._module_names],
            transfer_aware=transfer_aware,
        )
        self.projected_makespan = self._state.sweep.makespan

        # Seed the cost accumulator from the offline run's own running
        # sum (cost0 + applied ΔC, i.e. the last step's cost_after) so a
        # drift-free replay sees the *bitwise identical* `extra` the
        # offline loop terminated with — a fresh cost_of() summation
        # could differ in the last ulp and manufacture a phantom step.
        # With no steps that sum is cost0, the cost of the plan itself.
        self.projected_cost = (
            float(plan.steps[-1].cost_after) if plan.steps else problem.cost_of(plan.schedule)
        )

        self._status: dict[str, str] = {
            name: PENDING for name in self._workflow.module_names
        }
        #: Schedulable rows still re-plannable (not started/completed).
        self._pending = np.ones(matrices.num_modules, dtype=bool)
        self._actual_time: dict[str, float] = {}
        self._actual_cost: dict[str, float] = {}
        self.spend = 0.0
        self._planned_done_cost = 0.0
        self.revision = 0
        self.over_budget = False
        self.failures = 0
        self.reconciliations = 0

        self.last_seq = 0
        #: seq -> (payload digest, response) for idempotent replays;
        #: bounded to the last ``_REPLAY_WINDOW`` sequence numbers.
        self._history: dict[int, tuple[str, dict[str, Any]]] = {}

    @classmethod
    def restore(
        cls,
        workflow_id: str,
        problem: MedCCProblem,
        state: Mapping[str, Any],
        *,
        candidate_scope: str = "critical",
        transfer_aware: bool = True,
    ) -> "LiveWorkflow":
        """A workflow rebuilt from a :meth:`snapshot_state` snapshot.

        The checkpoint path of recovery: no plan is solved, and the one
        step state is the one :meth:`load_state` builds.  Raises
        :class:`LiveWorkflowError` as :meth:`load_state` does.
        """
        workflow = cls.__new__(cls)
        workflow._bind(
            workflow_id,
            problem,
            CriticalGreedyScheduler.name,
            candidate_scope,
            transfer_aware,
        )
        workflow.load_state(state)
        return workflow

    def _bind(
        self,
        workflow_id: str,
        problem: MedCCProblem,
        algorithm: str,
        candidate_scope: str,
        transfer_aware: bool,
    ) -> None:
        """Bind the problem and the scheduler knobs (the half of
        ``__init__`` that :meth:`restore` shares)."""
        self.workflow_id = str(workflow_id)
        self.problem = problem
        self.algorithm = algorithm
        self.candidate_scope = candidate_scope
        self._transfer_aware = transfer_aware
        matrices = problem.matrices
        self._num_types = matrices.num_types
        self._module_names = matrices.module_names
        self._row_index = matrices.row_index
        self._workflow = problem.workflow

    # ------------------------------------------------------------------ #
    # Event intake: prepare (validate, no mutation) / commit (mutate)
    # ------------------------------------------------------------------ #

    def prepare(
        self, payload: object
    ) -> tuple[LiveEvent, str] | dict[str, Any]:
        """Validate an incoming payload without mutating state.

        Returns the idempotent stored response (a fresh copy, flagged
        ``replayed``) when the sequence number was already applied with
        an identical payload — or a generic replayed ack when the seq
        aged out of the bounded replay window — or the parsed
        ``(event, digest)`` pair to pass to :meth:`commit`.  Raises :class:`LiveWorkflowError` (400)
        on malformed payloads and :class:`EventConflictError` (409) on
        sequence gaps, divergent replays and invalid transitions.  The
        split lets the manager append the event to its durable log
        *after* validation but *before* the state mutation.
        """
        event = LiveEvent.parse(payload)
        digest = event_digest(payload)
        if event.seq <= self.last_seq:
            stored = self._history.get(event.seq)
            if stored is None:
                # The seq predates the bounded replay window: its digest
                # is gone, so divergence can no longer be checked.  The
                # protocol keeps one seq outstanding, so a retry this old
                # is ancient — answer a generic replayed ack built from
                # current state rather than wedging the stream.
                response = self._event_response(event.seq, False, 0)
                response["replayed"] = True
                return response
            stored_digest, stored_response = stored
            if stored_digest != digest:
                raise EventConflictError(
                    f"seq {event.seq} was already applied with a different "
                    "payload",
                    workflow_id=self.workflow_id,
                    seq=event.seq,
                )
            response = dict(stored_response)
            response["replayed"] = True
            return response
        if event.seq != self.last_seq + 1:
            raise EventConflictError(
                f"out-of-order event: expected seq {self.last_seq + 1}, "
                f"got {event.seq}",
                workflow_id=self.workflow_id,
                seq=event.seq,
            )
        self._validate_transition(event)
        return event, digest

    def commit(self, event: LiveEvent, digest: str) -> dict[str, Any]:
        """Apply a prepared event: mutate, re-optimize, record, respond."""
        changed = self._apply(event)
        resteps = self._reoptimize()
        if changed or resteps:
            self.revision += 1
        self.last_seq = event.seq
        response = self._event_response(event.seq, changed, resteps)
        self._history[event.seq] = (digest, response)
        # Seqs are contiguous, so evicting one entry per commit keeps
        # the replay window bounded at _REPLAY_WINDOW.
        self._history.pop(event.seq - _REPLAY_WINDOW, None)
        return dict(response)

    def handle_event(self, payload: object) -> dict[str, Any]:
        """Prepare + commit in one call (no durable log in between)."""
        prepared = self.prepare(payload)
        if isinstance(prepared, dict):
            return prepared
        event, digest = prepared
        return self.commit(event, digest)

    # ------------------------------------------------------------------ #
    # Checkpointing: snapshot / restore
    # ------------------------------------------------------------------ #

    def snapshot_state(self) -> dict[str, Any]:
        """The full mutable state as a canonical-JSON-safe object.

        Everything derived (te/ce rows, Δ grids, the sweep, the pending
        mask) is *recomputed* on restore from the same arithmetic
        ``__init__`` uses, so only the irreducible state is stored:
        assignments, per-module status, realized durations/bills, the
        accumulators, and the bounded replay history.  Floats survive
        the JSON round-trip bitwise (``repr`` is exact for doubles), so
        ``load_state`` of a snapshot is byte-identical to replaying the
        events that produced it — the property the checkpoint tests pin.
        """
        return {
            "workflow_id": self.workflow_id,
            "last_seq": self.last_seq,
            "revision": self.revision,
            "budget": self.budget,
            "spend": self.spend,
            "planned_done_cost": self._planned_done_cost,
            "projected_cost": self.projected_cost,
            "projected_makespan": self.projected_makespan,
            "over_budget": self.over_budget,
            "failures": self.failures,
            "reconciliations": self.reconciliations,
            "columns": [int(j) for j in self._state.columns],
            "status": {
                name: self._status[name]
                for name in self._workflow.module_names
            },
            "actual_time": dict(self._actual_time),
            "actual_cost": dict(self._actual_cost),
            "history": {
                str(seq): [digest, response]
                for seq, (digest, response) in sorted(self._history.items())
            },
        }

    def load_state(self, state: Mapping[str, Any]) -> None:
        """Overwrite this instance's state from a snapshot.

        Scalars are restored verbatim; every derived structure is
        rebuilt with the exact arithmetic the event path uses, and the
        sweep's recomputed makespan is cross-checked against the stored
        one — a mismatch means the snapshot does not describe this plan
        and the checkpoint is rejected.  Raises
        :class:`LiveWorkflowError` on any malformed field; the store
        wraps that in a corruption error, since a bad checkpoint is
        server-side log damage, not a client mistake.
        """
        if not isinstance(state, Mapping):
            raise LiveWorkflowError("checkpoint state must be a JSON object")

        def _float(field: str) -> float:
            value = state.get(field)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise LiveWorkflowError(
                    f"checkpoint field {field!r} must be a number"
                )
            value = float(value)
            if not math.isfinite(value):
                raise LiveWorkflowError(
                    f"checkpoint field {field!r} must be finite"
                )
            return value

        def _int(field: str) -> int:
            value = state.get(field)
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise LiveWorkflowError(
                    f"checkpoint field {field!r} must be a non-negative integer"
                )
            return value

        names = self._module_names
        columns = state.get("columns")
        if (
            not isinstance(columns, list)
            or len(columns) != len(names)
            or any(
                isinstance(j, bool)
                or not isinstance(j, int)
                or not 0 <= j < self._num_types
                for j in columns
            )
        ):
            raise LiveWorkflowError(
                "checkpoint field 'columns' must assign every schedulable "
                f"module a VM-type index below {self._num_types}"
            )
        status = state.get("status")
        if not isinstance(status, Mapping) or set(status) != set(
            self._workflow.module_names
        ):
            raise LiveWorkflowError(
                "checkpoint field 'status' must cover exactly the "
                "workflow's modules"
            )
        for name, value in status.items():
            if value not in (PENDING, RUNNING, DONE):
                raise LiveWorkflowError(
                    f"checkpoint status for module {name!r} must be "
                    f"pending/running/done, got {value!r}"
                )
        realized: dict[str, dict[str, float]] = {}
        for field in ("actual_time", "actual_cost"):
            mapping = state.get(field)
            if not isinstance(mapping, Mapping) or any(
                key not in status
                or isinstance(value, bool)
                or not isinstance(value, (int, float))
                or not 0 <= float(value) < math.inf
                for key, value in mapping.items()
            ):
                raise LiveWorkflowError(
                    f"checkpoint field {field!r} must map known modules "
                    "to finite non-negative numbers"
                )
            realized[field] = {key: float(value) for key, value in mapping.items()}
        history_raw = state.get("history")
        if not isinstance(history_raw, Mapping):
            raise LiveWorkflowError(
                "checkpoint field 'history' must be a JSON object"
            )
        history: dict[int, tuple[str, dict[str, Any]]] = {}
        for key, entry in history_raw.items():
            if (
                not isinstance(key, str)
                or not key.isdigit()
                or not isinstance(entry, (list, tuple))
                or len(entry) != 2
                or not isinstance(entry[0], str)
                or not isinstance(entry[1], Mapping)
            ):
                raise LiveWorkflowError(
                    "checkpoint field 'history' must map sequence numbers "
                    "to [digest, response] pairs"
                )
            history[int(key)] = (entry[0], dict(entry[1]))

        # Rebuild the step state exactly as the event path left it:
        # planned te everywhere, overridden by realized durations for
        # completed modules (the only ones the event path ever pins).
        # Every field is read and checked before any is assigned, so a
        # rejected snapshot leaves this instance as it was.
        greedy = _GreedyState(
            self.problem,
            [int(j) for j in columns],
            transfer_aware=self._transfer_aware,
            pinned=realized["actual_time"],
        )
        makespan = greedy.sweep.makespan
        stored = _float("projected_makespan")
        if makespan != stored:  # lint: ignore[RA901] - bitwise snapshot integrity check
            raise LiveWorkflowError(
                f"checkpoint makespan {stored!r} does not match the value "
                f"{makespan!r} recomputed from its assignments; the "
                "snapshot does not describe this plan"
            )
        floats = [
            _float(field)
            for field in ("budget", "spend", "planned_done_cost", "projected_cost")
        ]
        ints = [
            _int(field)
            for field in ("failures", "reconciliations", "revision", "last_seq")
        ]
        self.budget, self.spend, self._planned_done_cost, self.projected_cost = floats
        self.failures, self.reconciliations, self.revision, self.last_seq = ints
        self.over_budget = bool(state.get("over_budget"))
        self._status = {
            name: str(status[name]) for name in self._workflow.module_names
        }
        self._actual_time = realized["actual_time"]
        self._actual_cost = realized["actual_cost"]
        self._history = history
        self._pending = np.fromiter(
            (self._status[name] == PENDING for name in names),
            dtype=bool,
            count=len(names),
        )
        self._state = greedy
        self.projected_makespan = makespan

    # ------------------------------------------------------------------ #
    # Transition validation (no mutation)
    # ------------------------------------------------------------------ #

    def _conflict(self, message: str, seq: int) -> EventConflictError:
        return EventConflictError(
            message, workflow_id=self.workflow_id, seq=seq
        )

    def _validate_transition(self, event: LiveEvent) -> None:
        if event.kind == "topup":
            return
        module = event.module
        assert module is not None
        if module not in self._status:
            raise LiveWorkflowError(
                f"event references unknown module {module!r}"
            )
        status = self._status[module]
        if event.kind == "started":
            if status != PENDING:
                raise self._conflict(
                    f"module {module!r} cannot start: status is {status}",
                    event.seq,
                )
            if event.vm_type is not None:
                mod = self._workflow.module(module)
                if mod.is_schedulable and event.vm_type not in self.problem.catalog:
                    raise LiveWorkflowError(
                        f"event references unknown VM type {event.vm_type!r}"
                    )
            self._check_predecessors_done(module, event.seq)
        elif event.kind == "completed":
            if status == DONE:
                raise self._conflict(
                    f"module {module!r} already completed", event.seq
                )
            if status == PENDING:
                # Direct pending -> done is allowed (clients that do not
                # send start events), but precedence must still hold.
                self._check_predecessors_done(module, event.seq)
        elif event.kind == "failed":
            if status != RUNNING:
                raise self._conflict(
                    f"module {module!r} cannot fail: status is {status}",
                    event.seq,
                )
            if not self._workflow.module(module).is_schedulable:
                raise self._conflict(
                    f"fixed module {module!r} cannot fail", event.seq
                )

    def _check_predecessors_done(self, module: str, seq: int) -> None:
        for pred in self._workflow.predecessors(module):
            if self._status[pred] != DONE:
                raise self._conflict(
                    f"module {module!r} cannot start: predecessor "
                    f"{pred!r} is {self._status[pred]}",
                    seq,
                )

    # ------------------------------------------------------------------ #
    # State mutation
    # ------------------------------------------------------------------ #

    def _reassign(self, row: int, j: int) -> None:
        """Move one row to type ``j`` through the shared step state.

        The move is the offline solver's own step application
        (``_GreedyState.move``), and the cost accumulator adds the same
        grid ΔC the solver's does.
        """
        self.projected_cost += float(self._state.dc[row, j])
        self.projected_makespan = self._state.move(row, j)

    def _apply(self, event: LiveEvent) -> bool:
        """Mutate per-event state; returns whether the assignment changed."""
        if event.kind == "topup":
            assert event.amount is not None
            self.budget += event.amount
            return False
        module = event.module
        assert module is not None
        mod = self._workflow.module(module)
        schedulable = mod.is_schedulable
        row = self._row_index[module] if schedulable else -1

        if event.kind == "started":
            changed = False
            if schedulable:
                if event.vm_type is not None:
                    j = self.problem.catalog.index_of(event.vm_type)
                    if j != self._state.columns[row]:
                        # The executor launched a different type than the
                        # current plan (e.g. a crash-retry raced a
                        # revision): reconcile the model to reality.
                        self._reassign(row, j)
                        self.reconciliations += 1
                        changed = True
                self._pending[row] = False
            self._status[module] = RUNNING
            return changed

        if event.kind == "completed":
            assert event.duration is not None
            duration = event.duration
            self._status[module] = DONE
            self._actual_time[module] = duration
            if schedulable:
                vm_type = self.problem.catalog[self._state.columns[row]]
                # Billed through the same policy arithmetic that built
                # the CE matrix, so duration == planned te implies
                # actual == planned bitwise (the zero-drift identity).
                actual = self.problem.billing.charge(duration, vm_type.rate)
                planned = float(self._state.current_ce[row])
                self._actual_cost[module] = (
                    self._actual_cost.get(module, 0.0) + actual
                )
                self.spend += actual
                self._planned_done_cost += planned
                self.projected_cost += actual - planned
                self._pending[row] = False
            sweep = self._state.sweep
            node = sweep.index.node_index[module]
            self.projected_makespan = sweep.set_duration(node, duration)
            return False

        # failed: bill the elapsed lease as sunk cost and put the module
        # back in the pending pool so the retry is re-plannable.
        assert event.kind == "failed" and event.elapsed is not None
        vm_type = self.problem.catalog[self._state.columns[row]]
        lost = self.problem.billing.charge(event.elapsed, vm_type.rate)
        self._actual_cost[module] = self._actual_cost.get(module, 0.0) + lost
        self.spend += lost
        self.projected_cost += lost
        self.failures += 1
        self._status[module] = PENDING
        self._pending[row] = True
        return False

    # ------------------------------------------------------------------ #
    # Residual re-optimization
    # ------------------------------------------------------------------ #

    def _reoptimize(self) -> int:
        """Repair + upgrade the pending rows; returns steps applied."""
        steps = 0
        extra = self.budget - self.projected_cost
        eps = _GreedyState.eps
        scope_all = self.candidate_scope != "critical"

        # Repair: sunk failure bills (or a shrunk effective envelope)
        # pushed the projection over budget — shed cost from pending
        # rows with the state's repair pick (least time damage first).
        # Upgrade: Alg. 1 on the residual DAG under the remaining budget.
        for repair in (True, False):
            while extra < -eps if repair else extra > eps:
                picked = self._state.pick(
                    extra, scope_all=scope_all, pending=self._pending
                )
                if picked is None:
                    break
                self._reassign(picked[0], picked[1])
                steps += 1
                extra = self.budget - self.projected_cost
            if repair:
                self.over_budget = bool(extra < -eps)
        return steps

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #

    @property
    def planning_budget(self) -> float:
        """The budget the *full current plan* is optimized under.

        The live invariant is ``projected_cost <= budget``; responses
        embed the whole (done + residual) schedule, whose planned cost
        differs from the projection by realized-vs-planned drift on
        completed modules and sunk failure bills.  Reporting
        ``budget - spend + planned_done_cost`` makes the service-wide
        RS601 check (planned cost of the response schedule within the
        response budget) equivalent to that invariant — and equal to the
        registered budget under zero drift.
        """
        return self.budget - self.spend + self._planned_done_cost

    def schedule(self) -> Schedule:
        """The full current plan (completed modules keep their types)."""
        return Schedule._adopt(dict(zip(self._module_names, self._state.columns)))

    def counts(self) -> dict[str, int]:
        pending = running = done = 0
        for status in self._status.values():
            if status == PENDING:
                pending += 1
            elif status == RUNNING:
                running += 1
            else:
                done += 1
        return {"pending": pending, "running": running, "done": done}

    def is_complete(self) -> bool:
        return all(status == DONE for status in self._status.values())

    def _result_fragment(self, steps: int) -> dict[str, Any]:
        return {
            "algorithm": self.algorithm,
            "engine": "live",
            "schedule": encode_schedule(self.schedule(), self.problem.catalog),
            "cost": self.projected_cost,
            "makespan": self.projected_makespan,
            "steps": steps,
        }

    def _event_response(
        self, seq: int, changed: bool, resteps: int
    ) -> dict[str, Any]:
        return {
            "status": "ok",
            "workflow_id": self.workflow_id,
            "seq": seq,
            "revision": self.revision,
            "changed": bool(changed or resteps),
            "replayed": False,
            "budget": self.planning_budget,
            "total_budget": self.budget,
            "spend": self.spend,
            "projected_cost": self.projected_cost,
            "projected_makespan": self.projected_makespan,
            "remaining_budget": self.budget - self.projected_cost,
            "over_budget": self.over_budget,
            "counts": self.counts(),
            "result": self._result_fragment(resteps),
        }

    def registration_response(self) -> dict[str, Any]:
        """The body returned by ``POST /v1/workflows``."""
        return {
            "status": "ok",
            "workflow_id": self.workflow_id,
            "seq": 0,
            "revision": self.revision,
            "replayed": False,
            "budget": self.planning_budget,
            "total_budget": self.budget,
            "spend": self.spend,
            "projected_cost": self.projected_cost,
            "projected_makespan": self.projected_makespan,
            "remaining_budget": self.budget - self.projected_cost,
            "over_budget": self.over_budget,
            "counts": self.counts(),
            "result": self._result_fragment(0),
        }

    def status_payload(self) -> dict[str, Any]:
        """The body returned by ``GET /v1/workflows/<id>``."""
        catalog = self.problem.catalog
        modules: dict[str, Any] = {}
        for name in self._workflow.module_names:
            mod = self._workflow.module(name)
            entry: dict[str, Any] = {"status": self._status[name]}
            if mod.is_schedulable:
                row = self._row_index[name]
                entry["vm_type"] = catalog.names[self._state.columns[row]]
                entry["planned_time"] = float(self._state.current_te[row])
                entry["planned_cost"] = float(self._state.current_ce[row])
            else:
                entry["vm_type"] = None
                entry["planned_time"] = float(mod.fixed_time or 0.0)
                entry["planned_cost"] = 0.0
            if name in self._actual_time:
                entry["actual_time"] = self._actual_time[name]
            if name in self._actual_cost:
                entry["actual_cost"] = self._actual_cost[name]
            modules[name] = entry
        return {
            "status": "ok",
            "workflow_id": self.workflow_id,
            "last_seq": self.last_seq,
            "revision": self.revision,
            "complete": self.is_complete(),
            "budget": self.planning_budget,
            "total_budget": self.budget,
            "spend": self.spend,
            "projected_cost": self.projected_cost,
            "projected_makespan": self.projected_makespan,
            "remaining_budget": self.budget - self.projected_cost,
            "over_budget": self.over_budget,
            "failures": self.failures,
            "reconciliations": self.reconciliations,
            "counts": self.counts(),
            "ledger": {
                "planned_cost_of_done": self._planned_done_cost,
                "actual_cost_of_done": self.spend,
                "cost_drift": self.spend - self._planned_done_cost,
            },
            "modules": modules,
            "result": self._result_fragment(0),
        }
