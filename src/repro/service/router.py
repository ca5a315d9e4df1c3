"""Shard router: prefix-sharded, failover-capable front-end for a fleet.

The cache key space is content-addressed (``problem_hash``), so requests
shard naturally: the router hashes each request's problem payload with
the same canonical hashing the nodes use (:mod:`repro.service.keys`),
takes the first ``prefix_len`` hex digits, and maps that prefix onto the
fleet.  Equivalent requests — however the client permutes modules or VM
types — therefore always land on the same node and hit its cache.

Resilience machinery around the bare routing:

* **Failover** — each request has a deterministic preference order
  (primary = its shard owner, then the successor nodes in ring order);
  a transient failure against one candidate falls through to the next.
* **Retries** — the whole failover sweep runs under a
  :class:`~repro.service.resilience.RetryPolicy` (exponential backoff,
  full jitter, ``Retry-After``-aware, total-deadline-budgeted).
* **Circuit breakers** — one per node.  A node that keeps failing is
  skipped without burning a connect timeout until its breaker half-opens
  and a probe succeeds.
* **Hedging** (opt-in) — for *cache-probable* keys (a ``problem_hash``
  the router has routed before, so the primary most likely answers from
  cache in microseconds), a secondary request is launched after
  ``hedge_delay`` seconds of primary silence; first success wins.
  Hedging is safe here because solves are deterministic and memoized —
  duplicated work costs CPU, never correctness.

:class:`RouterServer` / :func:`serve_router` expose the router over the
same HTTP server and surface as a node (``repro route``): ``/v1/solve``,
``/v1/solve_batch``, the live-workflow trio (``/v1/workflows``,
``/v1/workflows/<id>/events``, ``/v1/workflows/<id>``), aggregated
``/v1/stats``, ``/v1/healthz``, ``/v1/readyz``.

Live workflows are *stateful*, so they shard by
:func:`~repro.service.keys.workflow_id_digest` instead of the problem
hash — every event for one workflow lands on the same node, which owns
its in-memory state and event log.  The router injects the
content-derived ``workflow_id`` into registrations that omit it, so the
id it shards by is the id the node registers under.  Failover and
retries apply as for solves (the target node recovers the workflow from
a shared ``--live-dir`` log); hedging never does — live events mutate
state, and a duplicated *first delivery* of the same sequence number on
two nodes is exactly the divergence the idempotency protocol exists to
prevent.
"""

from __future__ import annotations

import queue
import random
import sys
import threading
import time
from collections.abc import Callable, Mapping, Sequence
from typing import Any

from repro.algorithms.critical_greedy import CriticalGreedyScheduler
from repro.exceptions import (
    CircuitOpenError,
    ReproError,
    ServiceError,
    TransientServiceError,
)
from repro.service.app import error_payload
from repro.service.codec import dumps
from repro.service.http import (
    _WORKFLOW_EVENTS_RE,
    _WORKFLOW_STATUS_RE,
    HttpServer,
    ServiceClient,
    batch_requests,
    not_found,
    off_loop,
    readiness,
    run_server,
)
from repro.service.keys import (
    derive_workflow_id,
    once_per_object,
    problem_hash,
    workflow_id_digest,
)
from repro.service.resilience import CircuitBreaker, RetryPolicy

__all__ = [
    "NodeHandle",
    "ShardRouter",
    "RouterServer",
    "serve_router",
]

#: Error kinds that mark a *node* as failing (count against its breaker).
_NODE_FAULT_KINDS = frozenset({"internal", "bad_gateway", "upstream_unavailable"})

#: Error kinds that are retryable without blaming the node's health
#: (an overloaded or draining node is alive; its queue is just full).
_BUSY_KINDS = frozenset({"overloaded", "not_ready"})


class NodeHandle:
    """One fleet member: base URL + client + circuit breaker."""

    def __init__(
        self,
        base_url: str,
        *,
        timeout: float = 30.0,
        breaker: CircuitBreaker | None = None,
        client: ServiceClient | None = None,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.name = self.base_url
        self.client = client or ServiceClient(self.base_url, timeout=timeout)
        self.breaker = breaker or CircuitBreaker()
        self._lock = threading.Lock()
        self._counts = {"requests": 0, "errors": 0}

    def _count(self, field: str) -> None:
        with self._lock:
            self._counts[field] += 1

    def stats(self) -> dict[str, Any]:
        """Per-node router-side counters + breaker snapshot."""
        with self._lock:
            counts = dict(self._counts)
        return {**counts, "breaker": self.breaker.stats()}


class ShardRouter:
    """Routes solve requests across nodes by ``problem_hash`` prefix.

    Parameters
    ----------
    nodes:
        The fleet, as :class:`NodeHandle` instances.  Shard ownership is
        deterministic in the *given order*; run every router replica with
        the same node list.
    retry_policy:
        Policy for the retry loop around the failover sweep.
    prefix_len:
        Hex digits of ``problem_hash`` used for sharding (2 → 256 shards).
    hedge_delay:
        Enable hedged requests for previously-seen keys: seconds of
        primary silence before the secondary is also asked.  ``None``
        (default) disables hedging.
    sleep / clock / rng:
        Injectable timing hooks for deterministic tests.
    """

    def __init__(
        self,
        nodes: Sequence[NodeHandle],
        *,
        retry_policy: RetryPolicy | None = None,
        prefix_len: int = 2,
        hedge_delay: float | None = None,
        sleep: Callable[[float], Any] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
        rng: random.Random | None = None,
    ) -> None:
        if not nodes:
            raise ServiceError("router needs at least one node")
        if prefix_len < 1 or prefix_len > 16:
            raise ServiceError(f"prefix_len must be in [1, 16], got {prefix_len}")
        if hedge_delay is not None and hedge_delay < 0:
            raise ServiceError(f"hedge_delay must be >= 0, got {hedge_delay}")
        self.nodes = list(nodes)
        self.retry_policy = retry_policy or RetryPolicy()
        self.prefix_len = int(prefix_len)
        self.hedge_delay = hedge_delay
        self._sleep = sleep
        self._clock = clock
        self._rng = rng
        self._lock = threading.Lock()
        self._seen_hashes: set[str] = set()
        self._counts = {
            "routed": 0,
            "live_routed": 0,
            "retries": 0,
            "failovers": 0,
            "hedges": 0,
            "hedge_wins": 0,
            "shed": 0,
        }

    # ------------------------------------------------------------------ #
    # Shard map
    # ------------------------------------------------------------------ #

    def shard_of(self, digest: str) -> int:
        """Owning node index for a ``problem_hash`` (prefix → ring slot)."""
        try:
            prefix = int(digest[: self.prefix_len], 16)
        except ValueError as exc:
            raise ServiceError(f"malformed problem hash {digest!r}") from exc
        return prefix % len(self.nodes)

    def candidates(self, digest: str) -> list[NodeHandle]:
        """Failover preference order: shard owner, then ring successors."""
        primary = self.shard_of(digest)
        n = len(self.nodes)
        return [self.nodes[(primary + i) % n] for i in range(n)]

    # ------------------------------------------------------------------ #
    # Solve path
    # ------------------------------------------------------------------ #

    def solve(
        self,
        payload: Any,
        *,
        digests: dict[int, tuple[Any, str]] | None = None,
    ) -> dict[str, Any]:
        """Route one solve request; returns the node's response body.

        Raises :class:`~repro.exceptions.TransientServiceError` when the
        retry policy is exhausted without any node answering (the HTTP
        front-end maps it to 503 + ``Retry-After``), and
        :class:`~repro.exceptions.ServiceError` for malformed payloads
        (400 — never retried).

        ``digests`` is one batch's identity map from problem object to
        ``problem_hash``, so items that share a problem object hash it
        once.
        """
        if not isinstance(payload, Mapping):
            raise ServiceError("request body must be a JSON object")
        problem_payload = payload.get("problem")
        if not isinstance(problem_payload, dict):
            raise ServiceError("request is missing the 'problem' object")
        digest = once_per_object(digests, problem_payload, problem_hash)
        with self._lock:
            self._counts["routed"] += 1
            cache_probable = digest in self._seen_hashes

        def attempt(n: int) -> dict[str, Any]:
            if n > 0:
                self._count("retries")
            return self._sweep(
                digest, lambda client: client.solve(payload), cache_probable
            )

        response = self.retry_policy.run(
            attempt, sleep=self._sleep, clock=self._clock, rng=self._rng
        )
        with self._lock:
            self._seen_hashes.add(digest)
        return response

    def solve_batch(self, payloads: Any) -> list[dict[str, Any]]:
        """Route a batch; responses in input order, errors isolated per item.

        Items that share one problem object (as
        :func:`~repro.service.codec.loads` gives byte-identical batch
        problems) hash it once.
        """
        if not isinstance(payloads, (list, tuple)):
            raise ServiceError("'requests' must be an array of solve requests")
        digests: dict[int, tuple[Any, str]] = {}
        responses: list[dict[str, Any]] = []
        for item in payloads:
            try:
                responses.append(self.solve(item, digests=digests))
            except ReproError as exc:
                responses.append(error_payload(exc))
        return responses

    # ------------------------------------------------------------------ #
    # Live-workflow path (stateful: sharded by workflow id, never hedged)
    # ------------------------------------------------------------------ #

    def register_workflow(self, payload: Any) -> dict[str, Any]:
        """Route a workflow registration to the id's shard owner.

        A registration without a ``workflow_id`` gets the content-derived
        id injected *here*, before forwarding — the router must shard by
        the same id the node will register under, and a failover retry
        must re-derive the identical id to land on the same log.
        """
        if not isinstance(payload, Mapping):
            raise ServiceError("registration payload must be a JSON object")
        payload = dict(payload)
        workflow_id = payload.get("workflow_id")
        if workflow_id is None:
            problem_payload = payload.get("problem")
            if not isinstance(problem_payload, Mapping):
                raise ServiceError("registration is missing the 'problem' object")
            budget = payload.get("budget")
            if isinstance(budget, bool) or not isinstance(budget, (int, float)):
                raise ServiceError("registration field 'budget' must be a number")
            params = payload.get("params") or {}
            if not isinstance(params, Mapping):
                raise ServiceError("registration field 'params' must be an object")
            workflow_id = derive_workflow_id(
                problem_payload,
                payload.get("algorithm", CriticalGreedyScheduler.name),
                float(budget),
                params,
            )
            payload["workflow_id"] = workflow_id
        elif not isinstance(workflow_id, str) or not workflow_id:
            raise ServiceError(
                "registration field 'workflow_id' must be a non-empty string"
            )
        return self._route_live(
            workflow_id, lambda client: client.register_workflow(payload)
        )

    def workflow_event(self, workflow_id: str, payload: Any) -> dict[str, Any]:
        """Route one live event to its workflow's shard owner."""
        return self._route_live(
            workflow_id, lambda client: client.workflow_event(workflow_id, payload)
        )

    def workflow_status(self, workflow_id: str) -> dict[str, Any]:
        """Route a live status probe to its workflow's shard owner."""
        return self._route_live(
            workflow_id, lambda client: client.workflow_status(workflow_id)
        )

    def _route_live(
        self,
        workflow_id: str,
        request: Callable[[ServiceClient], dict[str, Any]],
    ) -> dict[str, Any]:
        """Retry + failover sweep for a live call (``cache_probable`` is
        pinned ``False`` so the hedging arm can never fire on this path)."""
        digest = workflow_id_digest(workflow_id)
        self._count("live_routed")

        def attempt(n: int) -> dict[str, Any]:
            if n > 0:
                self._count("retries")
            return self._sweep(digest, request, cache_probable=False)

        return self.retry_policy.run(
            attempt, sleep=self._sleep, clock=self._clock, rng=self._rng
        )

    def _sweep(
        self,
        digest: str,
        request: Callable[[ServiceClient], dict[str, Any]],
        cache_probable: bool,
    ) -> dict[str, Any]:
        """One failover sweep over the candidate list (one retry attempt).

        Breaker admission is claimed *lazily*, one node at a time, because
        ``CircuitBreaker.allow()`` consumes a probe slot on a half-open
        breaker — admitting every candidate upfront would leak probe slots
        for nodes an earlier success makes unnecessary to call.
        """
        candidates = self.candidates(digest)
        hedge_armed = cache_probable and self.hedge_delay is not None
        last: TransientServiceError | None = None
        attempted = False
        for position, node in enumerate(candidates):
            if not node.breaker.allow():
                continue
            if attempted:
                self._count("failovers")
            attempted = True
            try:
                if hedge_armed and position + 1 < len(candidates):
                    hedge_armed = False  # hedge only the primary attempt
                    return self._hedged_call(
                        node, candidates[position + 1 :], request
                    )
                return self._call(node, request)
            except TransientServiceError as exc:
                last = exc
        if last is not None:
            raise last
        # Every candidate's breaker rejected the call outright.
        self._count("shed")
        hints = [node.breaker.retry_after_hint() for node in candidates]
        known = [h for h in hints if h is not None]
        raise CircuitOpenError(
            candidates[0].name, retry_after=min(known) if known else None
        )

    def _call(
        self,
        node: NodeHandle,
        request: Callable[[ServiceClient], dict[str, Any]],
    ) -> dict[str, Any]:
        """One request against one node, classifying the outcome."""
        node._count("requests")
        try:
            response = request(node.client)
        except TransientServiceError:
            node._count("errors")
            node.breaker.record_failure()
            raise
        if response.get("status") == "ok":
            node.breaker.record_success()
            return response
        kind = response.get("error", {}).get("kind")
        if kind in _NODE_FAULT_KINDS:
            node._count("errors")
            node.breaker.record_failure()
            raise TransientServiceError(
                f"node {node.name} answered kind={kind!r}: "
                f"{response['error'].get('message', '')}"
            )
        if kind in _BUSY_KINDS:
            # The node is healthy but shedding load; retry (possibly on a
            # sibling) without tripping its breaker.
            node._count("errors")
            raise TransientServiceError(
                f"node {node.name} is busy (kind={kind!r})",
                retry_after=1.0,
            )
        # 400-class outcomes (bad_request, infeasible_budget, timeout …)
        # are the *client's* answer: pass them through untouched.
        node.breaker.record_success()
        return response

    def _hedged_call(
        self,
        primary: NodeHandle,
        fallbacks: Sequence[NodeHandle],
        request: Callable[[ServiceClient], dict[str, Any]],
    ) -> dict[str, Any]:
        """Race ``primary`` against a delayed secondary; first success wins.

        The secondary is the first fallback whose breaker admits the call
        *at hedge-launch time* — claiming its probe slot any earlier would
        waste it whenever the primary answers within ``hedge_delay``.
        """
        results: queue.Queue[
            tuple[str, dict[str, Any] | None, TransientServiceError | None]
        ] = queue.Queue()

        def run(label: str, node: NodeHandle) -> None:
            try:
                results.put((label, self._call(node, request), None))
            except TransientServiceError as exc:
                results.put((label, None, exc))

        threading.Thread(target=run, args=("primary", primary), daemon=True).start()
        launched = 1
        try:
            label, response, error = results.get(timeout=self.hedge_delay)
        except queue.Empty:
            secondary = next(
                (node for node in fallbacks if node.breaker.allow()), None
            )
            if secondary is not None:
                self._count("hedges")
                threading.Thread(
                    target=run, args=("secondary", secondary), daemon=True
                ).start()
                launched = 2
            label, response, error = results.get()
        outcomes = [(label, response, error)]
        while response is None and len(outcomes) < launched:
            label, response, error = results.get()
            outcomes.append((label, response, error))
        if response is None:
            last = outcomes[-1][2]
            assert last is not None
            raise last
        if label == "secondary":
            self._count("hedge_wins")
        return response

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def _count(self, field: str) -> None:
        with self._lock:
            self._counts[field] += 1

    @property
    def ready(self) -> bool:
        """Ready while at least one node's breaker is not open."""
        return any(node.breaker.state != "open" for node in self.nodes)

    def stats(self) -> dict[str, Any]:
        """Router-side counters and per-node breaker snapshots."""
        with self._lock:
            counts = dict(self._counts)
            seen = len(self._seen_hashes)
        return {
            **counts,
            "seen_keys": seen,
            "prefix_len": self.prefix_len,
            "hedge_delay": self.hedge_delay,
            "nodes": {node.name: node.stats() for node in self.nodes},
        }

    def aggregated_stats(self) -> dict[str, Any]:
        """The ``/v1/stats`` body: router view + live per-node ``/v1/stats``.

        Node stats fetches are best-effort: an unreachable node reports
        its transport error instead of failing the aggregation.  The
        ``totals`` section sums the comparable per-node counters so a
        single scrape shows fleet-wide hit rate and degradation.
        """
        per_node: dict[str, Any] = {}
        totals = {
            "requests": 0,
            "degraded": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "quarantined": 0,
        }
        live_totals = {
            "workflows": 0,
            "events": 0,
            "fenced": 0,
            "epoch_claims": 0,
            "checkpoints": 0,
            "compactions": 0,
            "pulls": 0,
            "quarantined": 0,
            "push_failures": 0,
            "replication_lag": 0,
            "max_epoch": 0,
        }
        for node in self.nodes:
            try:
                body = node.client.stats()
            except ServiceError as exc:
                per_node[node.name] = {"error": str(exc)}
                continue
            stats = body.get("stats", {})
            per_node[node.name] = stats
            totals["requests"] += int(stats.get("requests", 0) or 0)
            totals["degraded"] += int(stats.get("degraded", 0) or 0)
            cache = stats.get("cache", {})
            totals["cache_hits"] += int(cache.get("hits", 0) or 0)
            totals["cache_misses"] += int(cache.get("misses", 0) or 0)
            totals["quarantined"] += int(cache.get("quarantined", 0) or 0)
            live = stats.get("live", {})
            for key in live_totals:
                value = int(live.get(key, 0) or 0)
                if key == "max_epoch":
                    # A high-water mark across the fleet, not a sum.
                    live_totals[key] = max(live_totals[key], value)
                else:
                    live_totals[key] += value
        totals["live"] = live_totals
        return {"router": self.stats(), "nodes": per_node, "totals": totals}


# --------------------------------------------------------------------- #
# HTTP server (`repro route`)
# --------------------------------------------------------------------- #


class RouterServer(HttpServer):
    """A node's client-facing routes, answered by a :class:`ShardRouter`.

    Every router call blocks on node round trips, retries and backoff,
    so each one runs on the loop's default executor.
    """

    name = "repro.router"

    def __init__(self, router: ShardRouter, *, verbose: bool = False) -> None:
        super().__init__(verbose=verbose)
        self.router = router

    async def respond(self, method: str, path: str, body: bytes) -> dict[str, Any]:
        router = self.router
        if method == "GET":
            if path == "/v1/healthz":
                return {"status": "ok"}
            if path == "/v1/readyz":
                return readiness(router.ready, "every node's circuit breaker is open")
            if path == "/v1/stats":
                return {"status": "ok", "stats": await off_loop(router.aggregated_stats)}
            if (match := _WORKFLOW_STATUS_RE.match(path)) is not None:
                return await off_loop(router.workflow_status, match.group(1))
        elif method == "POST":
            if path == "/v1/solve":
                return await off_loop(router.solve, self.json(body))
            if path == "/v1/solve_batch":
                requests = batch_requests(self.json(body))
                return {"results": await off_loop(router.solve_batch, requests), "status": "ok"}
            if path == "/v1/workflows":
                return await off_loop(router.register_workflow, self.json(body))
            if (match := _WORKFLOW_EVENTS_RE.match(path)) is not None:
                return await off_loop(
                    router.workflow_event, match.group(1), self.json(body)
                )
        return not_found(path)


def serve_router(
    node_urls: Sequence[str],
    *,
    host: str = "127.0.0.1",
    port: int = 8433,
    prefix_len: int = 2,
    max_retries: int = 3,
    retry_deadline: float | None = None,
    hedge_delay: float | None = None,
    breaker_threshold: int = 5,
    breaker_reset: float = 5.0,
    node_timeout: float = 30.0,
    verbose: bool = False,
) -> int:
    """Blocking router loop behind ``repro route``; returns the exit code."""
    nodes = [
        NodeHandle(
            url,
            timeout=node_timeout,
            breaker=CircuitBreaker(
                failure_threshold=breaker_threshold, reset_timeout=breaker_reset
            ),
        )
        for url in node_urls
    ]
    router = ShardRouter(
        nodes,
        retry_policy=RetryPolicy(max_retries=max_retries, deadline=retry_deadline),
        prefix_len=prefix_len,
        hedge_delay=hedge_delay,
    )
    details = (
        f"nodes={len(nodes)}, prefix_len={prefix_len}, retries={max_retries}"
        + (f", hedge_delay={hedge_delay:g}s" if hedge_delay is not None else "")
    )
    try:
        return run_server(
            RouterServer(router, verbose=verbose), host=host, port=port, details=details
        )
    finally:
        sys.stderr.write(f"repro.router final stats: {dumps(router.stats())}\n")
