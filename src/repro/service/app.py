"""The scheduling service: parse → memoize → dispatch → respond.

:class:`SchedulingService` is the transport-agnostic core behind the HTTP
front-end (:mod:`repro.service.http`) and the ``repro submit`` client:

1. :meth:`~SchedulingService.parse_head` validates a request payload
   (canonical wire format, :mod:`repro.service.codec`), configures the
   scheduler and computes the content-addressed key
   (:mod:`repro.service.keys`) without decoding the problem;
2. the key is looked up in the memoizing result store
   (:mod:`repro.service.cache`) — a hit replays the stored result
   fragment byte-for-byte with ``cache_hit: true`` and never decodes;
3. a miss decodes the problem (:meth:`~SchedulingService.complete`) and
   is dispatched to the bounded job executor
   (:mod:`repro.service.executor`), which runs the registered scheduler,
   encodes the result, and populates both cache tiers;
4. ``stats()`` aggregates cache hit-rate, executor counters and p50/p95
   latencies for ``GET /v1/stats``.

The hash (step 1) and the decode (step 3) are memoized per exact
problem payload: a bounded LRU of :data:`PROBLEM_MEMO_SIZE` entries maps
the payload's fingerprint to its ``problem_hash`` and, once decoded, its
:class:`MedCCProblem`, whose cached ``GraphIndex`` and matrices then
carry over to later solves.  A workflow resubmitted at another budget is
neither re-hashed nor re-decoded, on the threaded front end, in a batch
(:meth:`~SchedulingService.solve_batch`) and in the asyncio core alike.

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
from repro.service.keys import RequestKey, params_hash, problem_hash

__all__ = [
    "KeyedRequest",
    "ParsedRequest",
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
class ParsedRequest:
    """A decoded, validated solve request ready for lookup or dispatch."""

    problem: MedCCProblem
    scheduler: Any
    algorithm: str
    budget: float
    timeout: float | None
    key: RequestKey


@dataclasses.dataclass
class KeyedRequest:
    """A validated request whose problem payload is not yet decoded.

    Everything needed for a cache lookup — the content-addressed
    :attr:`key`, the configured scheduler and the budget — is present,
    but :func:`repro.service.codec.decode_problem` has not run.  The
    asyncio core (:mod:`repro.service.aio`) keys its single-flight table
    on :attr:`key` straight from the hash, so N coalesced duplicates pay
    for one decode (the flight leader's) instead of N.
    :meth:`SchedulingService.complete` upgrades this to a
    :class:`ParsedRequest`, decoding only if :attr:`entry` holds no
    problem yet.
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

    All items share one decoded problem, algorithm, knob set and timeout
    — only the budgets differ — so the scheduler's ``solve_batch`` runs
    them on one worker slot, largest budget first.
    """

    items: list[ParsedRequest]


def error_payload(exc: BaseException) -> dict[str, Any]:
    """The canonical error body (shared by HTTP responses and batch items)."""
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
        the one pool solves run on behind either HTTP front end.
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

    def parse_head(self, payload: Mapping[str, Any]) -> KeyedRequest:
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
        when the exact payload is memoized).  Both front ends probe the
        cache on the returned key before paying for the decode;
        :meth:`complete` finishes the job.
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

        entry = self._problems.entry(problem_payload)
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

    def parse_heads(self, payloads: Sequence[Any]) -> list["KeyedRequest | Exception"]:
        """:meth:`parse_head` for each batch item, failures in place.

        A failing item's exception takes its slot, so it fails alone.
        Serves both the threaded ``/v1/solve_batch`` and the asyncio
        batch stream.
        """
        heads: list[KeyedRequest | Exception] = []
        for payload in payloads:
            try:
                heads.append(self.parse_head(payload))
            except Exception as exc:  # lint: ignore[RS602] - per-item isolation
                heads.append(exc)
        return heads

    def complete(self, keyed: KeyedRequest) -> ParsedRequest:
        """Upgrade a :class:`KeyedRequest` to a :class:`ParsedRequest`.

        The problem is decoded only when the exact payload's memo entry
        holds none yet, so a workflow solved at many budgets is decoded
        once.  Decoded problems may be shared across threads; they are
        never mutated.
        """
        return ParsedRequest(
            problem=self._problems.problem(keyed),
            scheduler=keyed.scheduler,
            algorithm=keyed.algorithm,
            budget=keyed.budget,
            timeout=keyed.timeout,
            key=keyed.key,
        )

    # ------------------------------------------------------------------ #
    # Solve paths
    # ------------------------------------------------------------------ #

    def _solve_job(
        self, job: "ParsedRequest | KeyedRequest | _BatchSolveJob"
    ) -> dict[str, Any]:
        """Executor job body: run the scheduler, encode, memoize.

        A :class:`KeyedRequest` (the asyncio core's miss) is decoded here,
        on the worker thread, through the problem memo.
        """
        if isinstance(job, _BatchSolveJob):
            return self._solve_group(job.items)
        if isinstance(job, KeyedRequest):
            job = self.complete(job)
        return self._store(job, job.scheduler.solve(job.problem, job.budget))

    def _solve_group(self, items: Sequence[ParsedRequest]) -> dict[str, Any]:
        """One worker slot, many budgets: the grouped batch-solve job.

        Items share one decoded problem, so one ``solve_batch`` call
        answers them all, byte-identical to per-item :meth:`_solve_job`
        runs.  If it rejects the group as a whole (one member's budget
        is infeasible), each item is solved alone so a bad item cannot
        fail its groupmates.
        """
        first = items[0]
        try:
            results = first.scheduler.solve_batch(
                first.problem, [parsed.budget for parsed in items]
            )
        except ReproError:
            batch = []
            for parsed in items:
                try:
                    batch.append(self._solve_job(parsed))
                except Exception as exc:
                    batch.append(error_payload(exc))
            return {"status": "ok", "batch": batch}
        return {
            "status": "ok",
            "batch": [self._store(parsed, r) for parsed, r in zip(items, results)],
        }

    def _store(self, parsed: ParsedRequest, result: SchedulerResult) -> dict[str, Any]:
        """Encode a fresh result, cache its fragment, build the response."""
        fragment = codec.encode_result_fragment(
            result,
            parsed.problem.catalog,
            engine=str(getattr(parsed.scheduler, "engine", "default")),
        )
        self.cache.put(parsed.key, fragment)
        return self._response(parsed, fragment, cache_hit=False)

    def lookup(self, keyed: "KeyedRequest | ParsedRequest") -> dict[str, Any] | None:
        """The cache-hit response for a request, or ``None`` on a miss.

        Works on a :class:`KeyedRequest` (no decode needed — the response
        only uses the key, algorithm and budget), so the asyncio core can
        probe both cache tiers before paying for the problem decode.
        """
        fragment = self.cache.get(keyed.key)
        if fragment is None:
            return None
        return self._response(keyed, fragment, cache_hit=True)

    def _degraded_response(
        self, parsed: ParsedRequest, exc: ServiceTimeoutError
    ) -> dict[str, Any]:
        """Least-cost fallback for a solve that blew its deadline.

        The least-cost schedule is feasible for every feasible budget and
        costs O(m·n) to build, so it can run synchronously on the intake
        thread.  The response is marked ``degraded: true`` (top level and
        in the fragment) and is *not* cached — a retry after the overload
        passes still computes the real schedule.
        """
        from repro.algorithms.least_cost import LeastCostScheduler

        try:
            result = LeastCostScheduler().solve(parsed.problem, parsed.budget)
        except ReproError:
            raise exc from None
        fragment = codec.encode_result_fragment(
            result,
            parsed.problem.catalog,
            engine="degraded",
            degraded=True,
            degraded_reason=str(exc),
        )
        with self._lock:
            self._degraded += 1
        response = self._response(parsed, fragment, cache_hit=False)
        response["degraded"] = True
        return response

    @staticmethod
    def _response(
        parsed: "ParsedRequest | KeyedRequest",
        fragment: Mapping[str, Any],
        *,
        cache_hit: bool,
    ) -> dict[str, Any]:
        return {
            "status": "ok",
            "cache_hit": cache_hit,
            "problem_hash": parsed.key.problem_hash,
            "params_hash": parsed.key.params_hash,
            "algorithm": parsed.algorithm,
            "budget": parsed.budget,
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
        self, parsed: ParsedRequest, future: "Future[dict[str, Any]]"
    ) -> dict[str, Any]:
        """Block on one future, applying the degradation contract."""
        try:
            return future.result()
        except ServiceTimeoutError as exc:
            if not self.degrade_on_timeout:
                raise
            return self._degraded_response(parsed, exc)

    def solve(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        """Blocking solve of one request payload; returns the response.

        A cache hit answers on the intake thread without decoding the
        problem; a miss decodes it and goes through the bounded executor
        (which may raise :class:`ServiceOverloadedError` right here).
        """
        started = time.monotonic()
        try:
            keyed = self.parse_head(payload)
            self._reject_if_draining()
            hit = self.lookup(keyed)
            if hit is not None:
                return hit
            parsed = self.complete(keyed)
            future = self.executor.submit(
                parsed, timeout=parsed.timeout, label=parsed.algorithm
            )
            return self._await(parsed, future)
        finally:
            self._observe(time.monotonic() - started)

    def solve_batch(self, payloads: Any) -> list[dict[str, Any]]:
        """Solve a batch; responses in input order, errors captured per item.

        Each distinct problem payload is hashed and decoded at most once
        (the problem memo), and every distinct key is probed in the cache.
        Two batch-only optimizations run before dispatch:

        * **Dedupe** — items with an identical request key (same problem,
          algorithm, knobs *and* budget) are solved once; duplicates
          receive a copy of the first occurrence's response marked
          ``deduped: true``.
        * **Grouping** — distinct cache misses that share an exact
          problem payload (one memo entry, so one decoded problem),
          algorithm, knob set and timeout (only budgets differ) are
          dispatched as one :class:`_BatchSolveJob` when the scheduler
          exposes ``solve_batch``, so one worker slot walks the budget
          axis largest first over the problem's trace memo.  Responses
          and cached fragments are byte-identical to per-item dispatch.
        """
        if not isinstance(payloads, (list, tuple)):
            raise ServiceError("'requests' must be an array of solve requests")
        started = time.monotonic()
        total = len(payloads)
        responses: list[dict[str, Any] | None] = [None] * total
        first_seen: dict[RequestKey, int] = {}
        duplicates: list[tuple[int, int]] = []  # (position, first occurrence)
        misses: list[tuple[int, KeyedRequest]] = []
        for idx, keyed in enumerate(self.parse_heads(payloads)):
            if isinstance(keyed, Exception):
                responses[idx] = error_payload(keyed)
                continue
            first = first_seen.setdefault(keyed.key, idx)
            if first != idx:
                duplicates.append((idx, first))
                continue
            try:
                self._reject_if_draining()
                hit = self.lookup(keyed)
            except Exception as exc:
                responses[idx] = error_payload(exc)
                continue
            if hit is not None:
                responses[idx] = hit
            else:
                misses.append((idx, keyed))

        # Decode through the memo; a decode error fails only the items
        # carrying that payload, and is not retried within the batch.
        # Misses whose scheduler can batch are grouped by (payload,
        # algorithm, knobs, timeout), the knob hash taken at budget 0.0
        # so it is budget-free; the rest go through the normal
        # one-job-per-item path.
        decode_errors: dict[_ProblemEntry, Exception] = {}
        parsed_items: dict[int, ParsedRequest] = {}
        singles: list[int] = []
        groups: dict[tuple[_ProblemEntry, str, str, float | None], list[int]] = {}
        for idx, keyed in misses:
            error = decode_errors.get(keyed.entry)
            if error is None:
                try:
                    parsed = parsed_items[idx] = self.complete(keyed)
                except Exception as exc:  # lint: ignore[RS602] - recorded per item
                    error = decode_errors[keyed.entry] = exc
            if error is not None:
                responses[idx] = error_payload(error)
                continue
            if getattr(parsed.scheduler, "solve_batch", None) is not None:
                knobs = params_hash(parsed.algorithm, 0.0, declared_params(parsed.scheduler))
                group_key = (keyed.entry, parsed.algorithm, knobs, parsed.timeout)
                groups.setdefault(group_key, []).append(idx)
            else:
                singles.append(idx)

        group_futures: list[tuple[list[int], "Future[dict[str, Any]]"]] = []
        grouped_items = 0
        for members in groups.values():
            if len(members) == 1:
                singles.extend(members)
                continue
            items = [parsed_items[i] for i in members]
            head = items[0]
            try:
                future = self.executor.submit(
                    _BatchSolveJob(items=items),  # type: ignore[arg-type]
                    timeout=head.timeout,
                    label=head.algorithm,
                )
            except Exception as exc:
                for i in members:
                    responses[i] = error_payload(exc)
                continue
            grouped_items += len(members)
            group_futures.append((members, future))

        single_futures: list[tuple[int, "Future[dict[str, Any]]"]] = []
        for idx in singles:
            parsed = parsed_items[idx]
            try:
                future = self.executor.submit(
                    parsed, timeout=parsed.timeout, label=parsed.algorithm
                )
            except Exception as exc:
                responses[idx] = error_payload(exc)
                continue
            single_futures.append((idx, future))

        for idx, future in single_futures:
            parsed = parsed_items[idx]
            try:
                responses[idx] = self._await(parsed, future)
            except Exception as exc:
                responses[idx] = error_payload(exc)

        for members, future in group_futures:
            try:
                grouped = future.result()
            except Exception as exc:
                for i in members:
                    parsed = parsed_items[i]
                    if isinstance(exc, ServiceTimeoutError) and self.degrade_on_timeout:
                        try:
                            responses[i] = self._degraded_response(parsed, exc)
                            continue
                        except Exception as degrade_exc:
                            responses[i] = error_payload(degrade_exc)
                            continue
                    responses[i] = error_payload(exc)
                continue
            for i, item_response in zip(members, grouped["batch"]):
                responses[i] = item_response

        for idx, first in duplicates:
            source = responses[first]
            assert source is not None
            copy = dict(source)
            copy["deduped"] = True
            responses[idx] = copy

        with self._lock:
            self._batch_deduped += len(duplicates)
            self._batch_grouped_items += grouped_items
            self._batch_grouped_runs += len(group_futures)
        self._observe(time.monotonic() - started)
        assert all(response is not None for response in responses)
        return responses  # type: ignore[return-value]

    # ------------------------------------------------------------------ #
    # Live workflows (stateful mid-flight re-optimization)
    # ------------------------------------------------------------------ #

    def register_workflow(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        """``POST /v1/workflows``: register (or idempotently re-register).

        Runs the offline solve synchronously on the intake thread — the
        registration response *is* the initial plan, and the live event
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
