"""The scheduling service: parse → memoize → dispatch → respond.

:class:`SchedulingService` is the transport-agnostic core behind the
HTTP server (:mod:`repro.service.http`, which awaits it through the
asyncio core :mod:`repro.service.aio`) and the in-process API
(:meth:`~SchedulingService.solve` and
:meth:`~SchedulingService.solve_batch` block on it):

1. :meth:`~SchedulingService.parse_head` validates a request payload
   (canonical wire format, :mod:`repro.service.codec`), configures the
   scheduler and computes the content-addressed key
   (:mod:`repro.service.keys`) without decoding the problem;
2. the key is looked up in the memory tier of the memoizing result
   store (:mod:`repro.service.cache`) — a hit replays the stored result
   fragment byte-for-byte with ``cache_hit: true`` and never decodes;
3. a miss is submitted, still undecoded, to the bounded job executor
   (:mod:`repro.service.executor`); its worker reads the disk tier (a
   hit there answers as a cache hit), else decodes the problem through
   the memo, runs the registered scheduler, encodes the result and
   populates both cache tiers;
4. ``stats()`` aggregates cache hit-rate, executor counters and p50/p95
   latencies for ``GET /v1/stats``.

A batch runs through one planner, :meth:`~SchedulingService.plan_batch`:
it parses, dedupes, probes the cache, groups misses that differ only in
budget into one executor job, and returns one slot per input position
without blocking.  :meth:`~SchedulingService.solve_batch` blocks on the
slots; the asyncio core awaits them for ``/v1/solve_batch``.

The hash (step 1) and the decode (step 3) are memoized per exact
problem payload: a bounded LRU of :data:`PROBLEM_MEMO_SIZE` entries maps
the payload's fingerprint to its ``problem_hash`` and, once decoded, its
:class:`MedCCProblem`, whose cached ``GraphIndex`` and matrices then
carry over to later solves.  A workflow resubmitted at another budget is
neither re-hashed nor re-decoded.

Fabric lifecycle (see ``docs/service.md`` "Resilience & multi-node"):
:attr:`SchedulingService.ready` distinguishes readiness from liveness
(``/v1/readyz`` vs ``/v1/healthz``), :meth:`SchedulingService.drain`
performs the graceful shutdown contract (reject new work, finish
in-flight jobs, flush the disk cache), and ``degrade_on_timeout=True``
turns a per-job deadline overrun into a least-cost fallback response
marked ``degraded: true`` instead of a 504.
"""

from __future__ import annotations

import dataclasses
import hashlib
import marshal
import threading
import time
from collections import OrderedDict, deque
from collections.abc import Mapping, Sequence
from concurrent.futures import Future
from typing import Any

from repro.algorithms import SchedulerResult, declared_params, get_scheduler
from repro.core.problem import MedCCProblem
from repro.exceptions import (
    EventConflictError,
    InfeasibleBudgetError,
    LiveLogCorruptionError,
    ReproError,
    ServiceError,
    ServiceOverloadedError,
    ServiceTimeoutError,
    StaleEpochError,
    TransientServiceError,
    UnknownWorkflowError,
)
from repro.live.store import LiveWorkflowManager, PeerLink
from repro.service import codec
from repro.service.cache import ResultCache
from repro.service.executor import JobExecutor, percentile
from repro.service.keys import RequestKey, once_per_object, params_hash, problem_hash

__all__ = [
    "BatchSlot",
    "ERROR_STATUS",
    "KeyedRequest",
    "SchedulingService",
    "error_payload",
]

#: Algorithm used when a request does not name one.
DEFAULT_ALGORITHM = "critical-greedy"

#: Distinct exact problem payloads whose hash and decode are memoized.
#: A paper-scale problem retains about 1 MiB once decoded.
PROBLEM_MEMO_SIZE = 32

#: Recent end-to-end request latencies kept for the p50/p95 in ``stats``.
LATENCY_WINDOW = 4096


@dataclasses.dataclass
class KeyedRequest:
    """A validated solve request whose problem payload is not yet decoded.

    Everything needed for a cache lookup — the content-addressed
    :attr:`key`, the configured scheduler and the budget — is present,
    but :func:`repro.service.codec.decode_problem` has not run.  This is
    the one request type: a miss is submitted as it stands, and its
    executor worker decodes the problem through the memo
    (:attr:`entry`), so a payload already decoded is never decoded again
    and coalesced duplicates pay for one decode instead of N.
    """

    problem_payload: Mapping[str, Any]
    scheduler: Any
    algorithm: str
    budget: float
    timeout: float | None
    key: RequestKey
    entry: "_ProblemEntry"


def _problem_fingerprint(problem_payload: Any) -> bytes | None:
    """sha256 of a problem payload's exact ``marshal`` bytes, or ``None``.

    Equal bytes prove two payloads identical down to their value types:
    ``marshal`` keeps ``1``, ``1.0`` and ``true`` apart, which ``==``
    does not and :func:`~repro.service.keys.problem_hash` renders
    differently, and it keeps list order, so a permuted catalog gets its
    own entry.  Identical payloads may still marshal differently
    (another key order, shared strings); that only costs a re-hash.
    """
    if not isinstance(problem_payload, dict):
        return None
    try:
        return hashlib.sha256(marshal.dumps(problem_payload)).digest()
    except ValueError:  # a value marshal cannot encode: just hash it
        return None


class _ProblemEntry:
    """One memoized payload: its ``problem_hash`` and, once decoded, its problem."""

    __slots__ = ("problem_hash", "problem")

    def __init__(self, digest: str) -> None:
        self.problem_hash = digest
        self.problem: MedCCProblem | None = None


class _ProblemMemo:
    """Thread-safe LRU of exact problem payloads (see :func:`_problem_fingerprint`).

    Only successful hashes and decodes are stored, so a bad payload fails
    the same way every time.  A payload that ``marshal`` rejects gets a
    fresh entry that is never stored: it is hashed and decoded per request.
    """

    def __init__(self, capacity: int) -> None:
        self._entries: OrderedDict[bytes, _ProblemEntry] = OrderedDict()
        self._capacity = capacity
        self._lock = threading.Lock()
        self._counts = dict.fromkeys(
            ("hash_hits", "hash_misses", "decode_hits", "decode_misses"), 0
        )

    def entry(self, problem_payload: Mapping[str, Any]) -> _ProblemEntry:
        """The payload's entry, hashing it only on a miss."""
        fingerprint = _problem_fingerprint(problem_payload)
        with self._lock:
            entry = None if fingerprint is None else self._entries.get(fingerprint)
            if entry is not None:
                self._entries.move_to_end(fingerprint)
                self._counts["hash_hits"] += 1
                return entry
            self._counts["hash_misses"] += 1
        entry = _ProblemEntry(problem_hash(problem_payload))
        if fingerprint is not None:
            with self._lock:
                entry = self._entries.setdefault(fingerprint, entry)
                self._entries.move_to_end(fingerprint)
                while len(self._entries) > self._capacity:
                    self._entries.popitem(last=False)
        return entry

    def problem(self, keyed: KeyedRequest) -> MedCCProblem:
        """The request's decoded problem, decoding only if its entry has none."""
        entry = keyed.entry
        with self._lock:
            problem = entry.problem
            self._counts["decode_hits" if problem is not None else "decode_misses"] += 1
        if problem is not None:
            return problem
        problem = codec.decode_problem(keyed.problem_payload)
        with self._lock:
            # Concurrent first decodes all converge on the first one stored.
            if entry.problem is None:
                entry.problem = problem
            return entry.problem

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "decoded": sum(e.problem is not None for e in self._entries.values()),
                **self._counts,
            }


@dataclasses.dataclass
class _BatchSolveJob:
    """One executor job covering several same-payload cache misses.

    All items share one memo entry (so one decoded problem), algorithm,
    knob set and timeout — only the budgets differ — so the scheduler's
    ``solve_batch`` runs them on one worker slot, largest budget first.
    """

    items: list[KeyedRequest]


@dataclasses.dataclass
class BatchSlot:
    """One ``/v1/solve_batch`` position as :meth:`SchedulingService.plan_batch` left it.

    Exactly one of three holds: :attr:`response` is the item's final
    answer (a parse error, a cache hit, a rejected submit); or
    :attr:`future` is the job its miss rides on, whose result is the
    item's response — or, for a grouped job, holds it at
    ``batch[item]``; or :attr:`dup_of` is the earlier position whose
    request key this item repeats.
    """

    keyed: KeyedRequest | None = None
    response: dict[str, Any] | None = None
    future: "Future[dict[str, Any]] | None" = None
    item: int | None = None
    dup_of: int | None = None

    def settled(self, earlier: Sequence[dict[str, Any]]) -> dict[str, Any]:
        """The answer of a slot with no job: its own, or a flagged copy."""
        if self.dup_of is None:
            assert self.response is not None
            return self.response
        # Copies of the first occurrence are flagged even when it failed.
        copy = dict(earlier[self.dup_of])
        copy["deduped"] = True
        return copy

    def pick(self, job_response: dict[str, Any]) -> dict[str, Any]:
        """This item's response out of its finished job's response."""
        return job_response if self.item is None else job_response["batch"][self.item]


#: HTTP status of each error ``kind`` (``not_ready`` is the readiness
#: probe's).  The HTTP server derives every reply status here, for nodes
#: and the shard router alike.
ERROR_STATUS = {
    "overloaded": 503,
    "not_ready": 503,
    "upstream_unavailable": 503,
    "timeout": 504,
    "infeasible_budget": 400,
    "bad_request": 400,
    "conflict": 409,
    "not_found": 404,
    "internal": 500,
}


def error_payload(exc: BaseException) -> dict[str, Any]:
    """The canonical error body (shared by HTTP responses and batch items).

    Its ``error.kind`` maps to the HTTP status through :data:`ERROR_STATUS`.
    """
    if isinstance(exc, ServiceOverloadedError):
        kind = "overloaded"
    elif isinstance(exc, ServiceTimeoutError):
        kind = "timeout"
    elif isinstance(exc, TransientServiceError):
        # Router-side exhaustion: every retry/failover against the fleet
        # failed.  503-shaped so clients know the request itself was fine.
        kind = "upstream_unavailable"
    elif isinstance(exc, InfeasibleBudgetError):
        kind = "infeasible_budget"
    elif isinstance(exc, (EventConflictError, StaleEpochError)):
        # Out-of-order / divergent live-workflow events, or a fenced
        # writer that could not re-claim: permanent (409), retrying the
        # identical request cannot succeed.
        kind = "conflict"
    elif isinstance(exc, UnknownWorkflowError):
        kind = "not_found"
    elif isinstance(exc, LiveLogCorruptionError):
        # Server-side live-log damage (500): "internal" is a node-fault
        # kind, so the shard router fails over to a healthy replica.
        kind = "internal"
    elif isinstance(exc, (ServiceError, ReproError)):
        kind = "bad_request"
    else:
        kind = "internal"
    return {
        "status": "error",
        "error": {"kind": kind, "type": type(exc).__name__, "message": str(exc)},
    }


class SchedulingService:
    """Cached, concurrent MED-CC solve service (transport-agnostic core).

    Parameters
    ----------
    max_workers / queue_size / default_timeout:
        Forwarded to the :class:`~repro.service.executor.JobExecutor`,
        the one pool every miss is solved on, served or in-process.
    cache_size / cache_dir:
        Forwarded to the :class:`~repro.service.cache.ResultCache`;
        ``cache_dir`` enables the persistent disk tier.
    degrade_on_timeout:
        When ``True``, a solve that exceeds its per-job deadline answers
        with the least-cost schedule marked ``degraded: true`` (graceful
        degradation) instead of raising
        :class:`~repro.exceptions.ServiceTimeoutError` (HTTP 504).
        Degraded responses are never cached, so a later retry can still
        compute the real answer.
    live_dir:
        Directory for the live-workflow event logs
        (:class:`~repro.live.store.LiveWorkflowManager`).  Nodes sharing
        one ``live_dir`` can take over each other's running workflows on
        failover; ``None`` keeps live state in memory only.
    live_node / live_peers / live_checkpoint_interval / live_retention:
        Forwarded to the :class:`~repro.live.store.LiveWorkflowManager`
        durability layer: the node name stamped into fence records, replication links to sibling
        nodes, the checkpoint/compaction cadence, and the archive /
        expiry window for completed workflows.
    """

    def __init__(
        self,
        *,
        max_workers: int = 4,
        queue_size: int = 64,
        cache_size: int = 1024,
        cache_dir: str | None = None,
        default_timeout: float | None = None,
        degrade_on_timeout: bool = False,
        live_dir: str | None = None,
        live_node: str | None = None,
        live_peers: Sequence[PeerLink] = (),
        live_checkpoint_interval: int = 0,
        live_retention: float | None = None,
    ) -> None:
        self.cache = ResultCache(capacity=cache_size, cache_dir=cache_dir)
        self.live = LiveWorkflowManager(
            live_dir=live_dir,
            node=live_node,
            peers=live_peers,
            checkpoint_interval=live_checkpoint_interval,
            retention=live_retention,
        )
        self.executor = JobExecutor(
            self._solve_job,
            max_workers=max_workers,
            queue_size=queue_size,
            default_timeout=default_timeout,
            annotate=self._annotate_record,
        )
        self.degrade_on_timeout = bool(degrade_on_timeout)
        self._started_at = time.time()
        self._lock = threading.Lock()
        self._request_latencies: deque[float] = deque(maxlen=LATENCY_WINDOW)
        self._requests = 0
        self._degraded = 0
        self._draining = False
        self._batch_deduped = 0
        self._batch_grouped_items = 0
        self._batch_grouped_runs = 0
        self._problems = _ProblemMemo(PROBLEM_MEMO_SIZE)

    @staticmethod
    def _annotate_record(response: Mapping[str, Any]) -> dict[str, Any]:
        """JobRecord annotation for both single and grouped responses."""
        batch = response.get("batch")
        if batch:
            first = batch[0] if isinstance(batch[0], Mapping) else {}
            return {
                "engine": first.get("result", {}).get("engine"),
                "cache_hit": False,
            }
        return {
            "engine": response.get("result", {}).get("engine"),
            "cache_hit": response.get("cache_hit"),
        }

    # ------------------------------------------------------------------ #
    # Request parsing
    # ------------------------------------------------------------------ #

    def parse_head(
        self,
        payload: Mapping[str, Any],
        *,
        entries: dict[int, tuple[Any, _ProblemEntry]] | None = None,
    ) -> KeyedRequest:
        """Validate a request and compute its key, deferring the decode.

        Request shape::

            {
              "problem":   {...},          # codec problem envelope or bare
                                           # problem_to_dict() body
              "budget":    57.0,           # required
              "algorithm": "critical-greedy",   # optional
              "params":    {"candidate_scope": "all"},  # optional knobs
              "timeout":   10.0            # optional per-job timeout (s)
            }

        Everything except :func:`codec.decode_problem` runs here: field
        validation, scheduler configuration, and the content hash (skipped
        when the exact payload is memoized).  Callers probe the cache on
        the returned key; a miss is decoded on its executor worker.

        ``entries`` is one batch's identity map from problem object to
        memo entry: items that share a parsed problem object (as
        :func:`~repro.service.codec.loads` gives byte-identical batch
        problems) look the memo up, and fingerprint the payload, once
        between them.
        """
        if not isinstance(payload, Mapping):
            raise ServiceError("request body must be a JSON object")
        problem_payload = payload.get("problem")
        if not isinstance(problem_payload, Mapping):
            raise ServiceError("request is missing the 'problem' object")
        if "budget" not in payload:
            raise ServiceError("request is missing the required 'budget' field")
        try:
            budget = float(payload["budget"])
        except (TypeError, ValueError):
            raise ServiceError(
                f"budget must be a number, got {payload['budget']!r}"
            ) from None

        algorithm = str(payload.get("algorithm") or DEFAULT_ALGORITHM)
        scheduler = get_scheduler(algorithm)

        params = payload.get("params") or {}
        if not isinstance(params, Mapping):
            raise ServiceError("'params' must be an object of scheduler knobs")
        if params:
            known = declared_params(scheduler)
            unknown = sorted(set(params) - set(known))
            if unknown:
                raise ServiceError(
                    f"unknown parameter(s) {unknown} for algorithm "
                    f"{algorithm!r}; declared knobs: {sorted(known)}"
                )
            try:
                scheduler = dataclasses.replace(scheduler, **dict(params))
            except (TypeError, ValueError) as exc:
                raise ServiceError(
                    f"invalid parameters for {algorithm!r}: {exc}"
                ) from exc

        timeout = payload.get("timeout")
        if timeout is not None:
            try:
                timeout = float(timeout)
            except (TypeError, ValueError):
                raise ServiceError(
                    f"timeout must be a number, got {timeout!r}"
                ) from None

        entry = once_per_object(entries, problem_payload, self._problems.entry)
        # Hash the *full* effective knob set (not just the client-supplied
        # subset) so explicit defaults and omitted defaults collide.
        key = RequestKey(
            problem_hash=entry.problem_hash,
            algorithm=algorithm,
            params_hash=params_hash(algorithm, budget, declared_params(scheduler)),
        )
        return KeyedRequest(
            problem_payload=problem_payload,
            scheduler=scheduler,
            algorithm=algorithm,
            budget=budget,
            timeout=timeout,
            key=key,
            entry=entry,
        )

    # ------------------------------------------------------------------ #
    # Solve paths
    # ------------------------------------------------------------------ #

    def _solve_job(self, job: "KeyedRequest | _BatchSolveJob") -> dict[str, Any]:
        """Executor job body: read the disk tier, else decode, solve, memoize.

        Runs on a worker thread, so neither the event loop nor an
        in-process caller reads the disk cache or decodes a miss.
        """
        if isinstance(job, _BatchSolveJob):
            return self._solve_group(job.items)
        hit = self._disk_hit(job)
        return hit if hit is not None else self._solve_one(job)

    def _disk_hit(self, keyed: KeyedRequest) -> dict[str, Any] | None:
        """The cache-hit response from the disk tier, or ``None``."""
        fragment = self.cache.load(keyed.key)
        if fragment is None:
            return None
        return self._response(keyed, fragment, cache_hit=True)

    def _solve_one(self, keyed: KeyedRequest) -> dict[str, Any]:
        problem = self._problems.problem(keyed)
        return self._store(keyed, problem, keyed.scheduler.solve(problem, keyed.budget))

    def _solve_group(self, items: Sequence[KeyedRequest]) -> dict[str, Any]:
        """One worker slot, many budgets: the grouped batch-solve job.

        Items found on the disk tier answer from it.  The rest share one
        memo entry, so one decode and one ``solve_batch`` call answer
        them all, byte-identical to per-item :meth:`_solve_job` runs.  A
        decode error fails every item.  If ``solve_batch`` rejects the
        group as a whole (one member's budget is infeasible), each item
        is solved alone so a bad item cannot fail its groupmates.
        """
        batch: list[dict[str, Any] | None] = [self._disk_hit(keyed) for keyed in items]
        todo = [i for i, hit in enumerate(batch) if hit is None]
        if todo:
            first = items[todo[0]]
            problem = self._problems.problem(first)
            try:
                results = first.scheduler.solve_batch(
                    problem, [items[i].budget for i in todo]
                )
            except ReproError:
                for i in todo:
                    try:
                        batch[i] = self._solve_one(items[i])
                    except Exception as exc:
                        batch[i] = error_payload(exc)
            else:
                for i, result in zip(todo, results):
                    batch[i] = self._store(items[i], problem, result)
        return {"status": "ok", "batch": batch}

    def _store(
        self, keyed: KeyedRequest, problem: MedCCProblem, result: SchedulerResult
    ) -> dict[str, Any]:
        """Encode a fresh result, cache its fragment, build the response."""
        fragment = codec.encode_result_fragment(
            result,
            problem.catalog,
            engine=str(getattr(keyed.scheduler, "engine", "default")),
        )
        self.cache.put(keyed.key, fragment)
        return self._response(keyed, fragment, cache_hit=False)

    def lookup(self, keyed: KeyedRequest) -> dict[str, Any] | None:
        """The memory tier's cache-hit response for a request, or ``None``.

        Never touches the disk, so the HTTP server calls it on the
        loop; a miss's executor job reads the disk tier before it
        decodes.  The response uses only the key, algorithm and budget,
        so a hit never decodes the problem.
        """
        fragment = self.cache.get(keyed.key)
        if fragment is None:
            return None
        return self._response(keyed, fragment, cache_hit=True)

    def _degraded_response(
        self, keyed: KeyedRequest, exc: ServiceTimeoutError
    ) -> dict[str, Any]:
        """Least-cost fallback for a solve that blew its deadline.

        The least-cost schedule is feasible for every feasible budget and
        costs O(m·n) to build, so it can run synchronously on the calling
        thread (off the event loop when served); the problem
        is decoded through the memo.  The response is marked
        ``degraded: true`` (top level and in the fragment) and is *not*
        cached — a retry after the overload passes still computes the
        real schedule.
        """
        from repro.algorithms.least_cost import LeastCostScheduler

        problem = self._problems.problem(keyed)
        try:
            result = LeastCostScheduler().solve(problem, keyed.budget)
        except ReproError:
            raise exc from None
        fragment = codec.encode_result_fragment(
            result,
            problem.catalog,
            engine="degraded",
            degraded=True,
            degraded_reason=str(exc),
        )
        with self._lock:
            self._degraded += 1
        response = self._response(keyed, fragment, cache_hit=False)
        response["degraded"] = True
        return response

    def _timed_out_item(
        self, keyed: KeyedRequest, exc: ServiceTimeoutError
    ) -> dict[str, Any]:
        """A batch item whose job blew its deadline: degraded, else the error."""
        if not self.degrade_on_timeout:
            return error_payload(exc)
        try:
            return self._degraded_response(keyed, exc)
        except Exception as degrade_exc:
            return error_payload(degrade_exc)

    @staticmethod
    def _response(
        keyed: KeyedRequest,
        fragment: Mapping[str, Any],
        *,
        cache_hit: bool,
    ) -> dict[str, Any]:
        return {
            "status": "ok",
            "cache_hit": cache_hit,
            "problem_hash": keyed.key.problem_hash,
            "params_hash": keyed.key.params_hash,
            "algorithm": keyed.algorithm,
            "budget": keyed.budget,
            "result": dict(fragment),
        }

    def _reject_if_draining(self) -> None:
        """A draining service rejects everything — even cache hits.

        The router then fails the request over to a healthy sibling
        instead of depending on a node that is about to exit.
        """
        if self._draining:
            raise ServiceOverloadedError(
                self.executor.queue_capacity,
                reason="service is draining: in-flight jobs are finishing, "
                "new requests are rejected",
            )

    def _await(
        self, keyed: KeyedRequest, future: "Future[dict[str, Any]]"
    ) -> dict[str, Any]:
        """Block on one future, applying the degradation contract."""
        try:
            return future.result()
        except ServiceTimeoutError as exc:
            if not self.degrade_on_timeout:
                raise
            return self._degraded_response(keyed, exc)

    def solve(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        """Blocking solve of one request payload; returns the response.

        A cache hit answers on the intake thread without decoding the
        problem; a miss goes through the bounded executor (which may
        raise :class:`ServiceOverloadedError` right here), whose worker
        decodes it.
        """
        started = time.monotonic()
        try:
            keyed = self.parse_head(payload)
            self._reject_if_draining()
            hit = self.lookup(keyed)
            if hit is not None:
                return hit
            future = self.executor.submit(
                keyed, timeout=keyed.timeout, label=keyed.algorithm
            )
            return self._await(keyed, future)
        finally:
            self._observe(time.monotonic() - started)

    def plan_batch(
        self, payloads: Any, *, default_timeout: float | None = None
    ) -> list[BatchSlot]:
        """Parse, dedupe, probe and submit a batch; one slot per position.

        The one batch planner.  It never blocks on a job: the in-process
        :meth:`solve_batch` then blocks on the slots, the asyncio core
        awaits them for ``/v1/solve_batch``.  Per item, in order:

        * a payload that fails to parse answers its error; items that
          share one problem object look its memo entry up once;
        * **dedupe** — an item whose request key (same problem,
          algorithm, knobs *and* budget) appeared earlier copies that
          occurrence's response, marked ``deduped: true``;
        * a draining service, or a cache hit, answers at once;
        * **grouping** — misses that share an exact problem payload (one
          memo entry), algorithm, knob set and timeout, and whose
          scheduler exposes ``solve_batch``, form one
          :class:`_BatchSolveJob`, so one worker slot walks the budget
          axis largest first over one decoded problem.  Every other miss
          is one job.  Jobs are submitted in first-item order, each with
          the item's ``timeout`` (else ``default_timeout``, else the
          executor's); a rejected submit answers every item it carried.

        Responses and cached fragments are byte-identical to per-item
        :meth:`solve` calls.  Raises :class:`ServiceError` (before any
        item runs) when ``payloads`` is not an array.
        """
        if not isinstance(payloads, (list, tuple)):
            raise ServiceError("'requests' must be an array of solve requests")
        slots: list[BatchSlot] = []
        first_seen: dict[RequestKey, int] = {}
        entries: dict[int, tuple[Any, _ProblemEntry]] = {}
        jobs: dict[object, list[tuple[BatchSlot, KeyedRequest]]] = {}
        for idx, payload in enumerate(payloads):
            try:
                keyed = self.parse_head(payload, entries=entries)
            except Exception as exc:
                slots.append(BatchSlot(response=error_payload(exc)))
                continue
            first = first_seen.setdefault(keyed.key, idx)
            if first != idx:
                slots.append(BatchSlot(dup_of=first))
                continue
            slot = BatchSlot(keyed=keyed)
            slots.append(slot)
            try:
                self._reject_if_draining()
                slot.response = self.lookup(keyed)
            except Exception as exc:
                slot.response = error_payload(exc)
            if slot.response is not None:
                continue
            job_key: object = idx  # solved alone
            if getattr(keyed.scheduler, "solve_batch", None) is not None:
                # The knob hash at budget 0.0 is budget-free.
                knobs = params_hash(keyed.algorithm, 0.0, declared_params(keyed.scheduler))
                job_key = (keyed.entry, keyed.algorithm, knobs, keyed.timeout)
            jobs.setdefault(job_key, []).append((slot, keyed))

        grouped_items = grouped_runs = 0
        for members in jobs.values():
            head = members[0][1]
            grouped = len(members) > 1
            job = _BatchSolveJob([keyed for _, keyed in members]) if grouped else head
            try:
                future = self.executor.submit(
                    job,
                    timeout=head.timeout if head.timeout is not None else default_timeout,
                    label=head.algorithm,
                )
            except Exception as exc:
                for slot, _ in members:
                    slot.response = error_payload(exc)
                continue
            for item, (slot, _) in enumerate(members):
                slot.future = future
                slot.item = item if grouped else None
            if grouped:
                grouped_items += len(members)
                grouped_runs += 1
        with self._lock:
            self._batch_deduped += sum(slot.dup_of is not None for slot in slots)
            self._batch_grouped_items += grouped_items
            self._batch_grouped_runs += grouped_runs
        return slots

    def solve_batch(self, payloads: Any) -> list[dict[str, Any]]:
        """Solve a batch; responses in input order, errors captured per item.

        Plans through :meth:`plan_batch`, then blocks on each slot in
        input order.
        """
        started = time.monotonic()
        responses: list[dict[str, Any]] = []
        for slot in self.plan_batch(payloads):
            if slot.future is None:
                responses.append(slot.settled(responses))
                continue
            assert slot.keyed is not None
            try:
                responses.append(slot.pick(slot.future.result()))
            except ServiceTimeoutError as exc:
                responses.append(self._timed_out_item(slot.keyed, exc))
            except Exception as exc:
                responses.append(error_payload(exc))
        self._observe(time.monotonic() - started)
        return responses

    # ------------------------------------------------------------------ #
    # Live workflows (stateful mid-flight re-optimization)
    # ------------------------------------------------------------------ #

    def register_workflow(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        """``POST /v1/workflows``: register (or idempotently re-register).

        Runs the offline solve synchronously on the calling thread (an
        executor thread when served) — the registration response *is*
        the initial plan, and the live event
        path must not sit behind queued batch solves.
        """
        self._reject_if_draining()
        started = time.monotonic()
        try:
            return self.live.register(payload)
        finally:
            self._observe(time.monotonic() - started)

    def workflow_event(
        self, workflow_id: str, payload: Mapping[str, Any]
    ) -> dict[str, Any]:
        """``POST /v1/workflows/<id>/events``: apply or replay one event."""
        self._reject_if_draining()
        started = time.monotonic()
        try:
            return self.live.event(workflow_id, payload)
        finally:
            self._observe(time.monotonic() - started)

    def workflow_status(self, workflow_id: str) -> dict[str, Any]:
        """``GET /v1/workflows/<id>``: status + actual-vs-planned ledger.

        Read-only, so it keeps answering during a drain (operators want
        the ledger of a node that is shutting down).
        """
        return self.live.status(workflow_id)

    def workflow_sync_pull(self, workflow_id: str) -> dict[str, Any]:
        """``GET /v1/workflows/<id>/sync``: the raw log for a peer.

        Keeps answering during a drain — a draining node is exactly the
        one its peers need to pull the tail of the log from.
        """
        return self.live.sync_export(workflow_id)

    def workflow_sync_push(
        self, workflow_id: str, payload: Mapping[str, Any]
    ) -> dict[str, Any]:
        """``POST /v1/workflows/<id>/sync``: accept replicated records."""
        self._reject_if_draining()
        return self.live.sync_import(workflow_id, payload)

    # ------------------------------------------------------------------ #
    # Introspection / lifecycle
    # ------------------------------------------------------------------ #

    def _observe(self, latency: float) -> None:
        with self._lock:
            self._requests += 1
            self._request_latencies.append(latency)

    def stats(self) -> dict[str, Any]:
        """The ``/v1/stats`` body: cache, executor and latency figures."""
        with self._lock:
            latencies = list(self._request_latencies)
            requests = self._requests
            degraded = self._degraded
            batch = {
                "deduped": self._batch_deduped,
                "grouped_items": self._batch_grouped_items,
                "grouped_runs": self._batch_grouped_runs,
            }
        return {
            "uptime": time.time() - self._started_at,
            "requests": requests,
            "degraded": degraded,
            "batch": batch,
            "ready": self.ready,
            "cache": self.cache.stats().to_dict(),
            "executor": self.executor.stats(),
            "live": self.live.stats(),
            "problems": self._problems.stats(),
            "request_latency_p50": percentile(latencies, 50),
            "request_latency_p95": percentile(latencies, 95),
        }

    @property
    def ready(self) -> bool:
        """Readiness (vs liveness): ``False`` once draining has begun."""
        return not self._draining and not self.executor.draining

    def drain(self) -> None:
        """Graceful shutdown: reject new work, finish in-flight, flush disk.

        After this returns, :attr:`ready` is ``False`` (``/v1/readyz``
        answers 503 so routers stop sending traffic), every job that was
        queued or running has completed and left its record, and the disk
        cache tier is flushed.  Idempotent.
        """
        self._draining = True
        self.executor.shutdown(drain=True)
        self.cache.flush()

    def close(self) -> None:
        """Shut the executor down (waits for in-flight jobs)."""
        self.executor.shutdown()

    def __enter__(self) -> "SchedulingService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
