"""The asyncio service core: coalesce, then solve on a bounded pool.

:class:`AsyncServiceCore` wraps the transport-agnostic
:class:`~repro.service.app.SchedulingService` with an event-loop request
path.  One request flows::

    parse_head ──► cache probe ──► single-flight ──► pool
      (hash only)   (both tiers)     (per RequestKey)

* ``parse_head`` validates and hashes on the loop **without decoding**
  the problem payload; coalesced duplicates therefore pay one decode
  (the flight leader's) instead of N.
* Hash and decode go through the service's exact-payload problem memo,
  so a budget sweep over one workflow hashes and decodes its DAG once,
  and each miss's solve can replay a prefix of the Critical-Greedy trace
  memoized on that shared problem.
* Solver work runs on a bounded :class:`~concurrent.futures.ThreadPoolExecutor`
  guarded by the same admission accounting as the threaded
  :class:`~repro.service.executor.JobExecutor` (shared
  :mod:`repro.service.jobs` vocabulary): a rejected miss never increments
  ``submitted``, every admitted miss makes exactly one terminal
  transition.
* A loop-lag monitor samples event-loop scheduling delay so ``/v1/stats``
  can report ``loop_lag_p95`` — the canary for accidentally blocking the
  loop (see the RT703 lint rule for the static version of that check).

Responses are byte-identical to the threaded core's: cache fragments are
produced by the same ``solve`` code.  Response dicts may be shared
between coalesced waiters — treat them as immutable.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from collections.abc import AsyncIterator, Mapping
from concurrent.futures import ThreadPoolExecutor
from typing import Any

from repro.exceptions import ServiceError, ServiceOverloadedError, ServiceTimeoutError
from repro.service.app import KeyedRequest, SchedulingService, error_payload
from repro.service.jobs import JobRecord, new_job_counts, percentile
from repro.service.keys import RequestKey
from repro.service.aio.coalesce import SingleFlight

__all__ = ["AsyncServiceCore"]


class AsyncServiceCore:
    """Event-loop front half of a :class:`SchedulingService`.

    Parameters
    ----------
    service:
        The wrapped scheduling service (cache, codec, live workflows and
        solve bodies all come from it; its threaded executor sits idle).
    max_workers / queue_size:
        Bounded solver pool: up to ``max_workers`` concurrent solves with
        ``queue_size`` more admitted and waiting; misses beyond
        ``queue_size + max_workers`` in flight are rejected with
        :class:`~repro.exceptions.ServiceOverloadedError` (HTTP 503).
    default_timeout:
        Per-waiter timeout applied when a request carries none.  A waiter
        timing out never cancels the underlying solve while other waiters
        remain; the solve still completes and populates the cache.
    lag_interval:
        Sampling period of the loop-lag monitor, seconds.
    """

    def __init__(
        self,
        service: SchedulingService,
        *,
        max_workers: int = 4,
        queue_size: int = 64,
        default_timeout: float | None = None,
        lag_interval: float = 0.25,
        record_limit: int = 1024,
    ) -> None:
        if max_workers <= 0:
            raise ServiceError(f"max_workers must be positive, got {max_workers}")
        if queue_size <= 0:
            raise ServiceError(f"queue_size must be positive, got {queue_size}")
        if default_timeout is not None and default_timeout <= 0:
            raise ServiceError(
                f"default_timeout must be positive, got {default_timeout}"
            )
        self.service = service
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-aio-solver"
        )
        self._queue_size = int(queue_size)
        self._capacity = int(queue_size) + int(max_workers)
        self._default_timeout = default_timeout
        self.flights = SingleFlight()
        # Job accounting (mutated on the loop thread only).
        self._counts = new_job_counts()
        self._active = 0
        self._next_id = 0
        self._records: deque[JobRecord] = deque(maxlen=record_limit)
        #: Waiters that hit their per-request timeout while the solve
        #: kept running for the remaining waiters.
        self.waiter_timeouts = 0
        self._lag_interval = max(0.01, float(lag_interval))
        self._lag_samples: deque[float] = deque(maxlen=512)
        self._lag_task: "asyncio.Task[None] | None" = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> None:
        """Start the loop-lag monitor (idempotent)."""
        if self._lag_task is None:
            self._lag_task = asyncio.get_running_loop().create_task(
                self._lag_monitor()
            )

    async def drain(self) -> None:
        """Graceful shutdown: reject new work, wait for in-flight, flush.

        Mirrors :meth:`SchedulingService.drain`: readiness drops first so
        routers fail over, every admitted job reaches its terminal state,
        then the disk cache tier is flushed.
        """
        self.service._draining = True  # reject before waiting, like drain()
        while self._active > 0:
            await asyncio.sleep(0.01)
        await asyncio.get_running_loop().run_in_executor(None, self.service.drain)

    async def aclose(self) -> None:
        """Stop the monitor and shut the solver pool down."""
        if self._lag_task is not None:
            self._lag_task.cancel()
            try:
                await self._lag_task
            except asyncio.CancelledError:
                pass
            self._lag_task = None
        self._pool.shutdown(wait=True)

    async def _lag_monitor(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            before = loop.time()
            await asyncio.sleep(self._lag_interval)
            lag = loop.time() - before - self._lag_interval
            self._lag_samples.append(max(0.0, lag))

    # ------------------------------------------------------------------ #
    # Request path
    # ------------------------------------------------------------------ #

    async def solve(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        """One ``/v1/solve`` request: parse, coalesce, solve."""
        started = time.monotonic()
        try:
            keyed = self.service.parse_head(payload)
            return await self._solve_keyed(keyed)
        finally:
            self.service._observe(time.monotonic() - started)

    async def _solve_keyed(self, keyed: KeyedRequest) -> dict[str, Any]:
        self.service._reject_if_draining()
        hit = self.service.lookup(keyed)
        if hit is not None:
            return hit
        timeout = keyed.timeout if keyed.timeout is not None else self._default_timeout
        if timeout is not None and timeout <= 0:
            raise ServiceError(f"timeout must be positive, got {timeout}")
        try:
            response, _follower = await self.flights.run(
                keyed.key, lambda: self._miss(keyed), timeout=timeout
            )
        except (TimeoutError, asyncio.TimeoutError):
            # This waiter's deadline, not the job's: the flight keeps
            # running for the remaining waiters (and to warm the cache).
            self.waiter_timeouts += 1
            exc = ServiceTimeoutError(timeout if timeout is not None else 0.0)
            if not self.service.degrade_on_timeout:
                raise exc from None
            return await asyncio.get_running_loop().run_in_executor(
                self._pool, self._degraded_sync, keyed, exc
            )
        return response

    async def _miss(self, keyed: KeyedRequest) -> dict[str, Any]:
        """Flight-leader body: admit one job and run it on the pool."""
        if self._active >= self._capacity:
            self._counts["rejected"] += 1
            raise ServiceOverloadedError(self._queue_size)
        record = JobRecord(
            job_id=self._next_id, label=keyed.algorithm, queued_at=time.time()
        )
        self._next_id += 1
        self._records.append(record)
        self._counts["submitted"] += 1
        self._active += 1
        try:
            record.status = "running"
            record.started_at = time.time()
            response = await asyncio.get_running_loop().run_in_executor(
                self._pool, self._solve_single_sync, keyed
            )
        except asyncio.CancelledError:
            self._terminal(record, "cancelled")
            raise
        except BaseException as exc:  # noqa: B036 - fed to the flight waiters
            self._terminal(record, "failed", error=exc)
            raise
        self._terminal(record, "done", response=response)
        return response

    def _terminal(
        self,
        record: JobRecord,
        status: str,
        *,
        error: BaseException | None = None,
        response: Mapping[str, Any] | None = None,
    ) -> None:
        record.status = status
        record.finished_at = time.time()
        if record.started_at is None:
            record.started_at = record.finished_at
        if error is not None:
            record.error = f"{type(error).__name__}: {error}"
        if response is not None:
            try:
                extra = self.service._annotate_record(response)
            except Exception:  # lint: ignore[RS602] - cosmetic hook
                extra = {}
            record.engine = extra.get("engine")
            hit = extra.get("cache_hit")
            record.cache_hit = None if hit is None else bool(hit)
        self._counts[status] += 1
        self._active -= 1

    # ------------------------------------------------------------------ #
    # Pool-thread bodies (never run on the loop)
    # ------------------------------------------------------------------ #

    def _solve_single_sync(self, keyed: KeyedRequest) -> dict[str, Any]:
        return self.service._solve_job(self.service.complete(keyed))

    def _degraded_sync(
        self, keyed: KeyedRequest, exc: ServiceTimeoutError
    ) -> dict[str, Any]:
        return self.service._degraded_response(self.service.complete(keyed), exc)

    # ------------------------------------------------------------------ #
    # Batch endpoint
    # ------------------------------------------------------------------ #

    def solve_batch_stream(self, payloads: Any) -> AsyncIterator[dict[str, Any]]:
        """``/v1/solve_batch``: responses in input order, streamed as ready.

        Envelope validation and dispatch are eager — a non-array body
        raises *here*, before the first item is yielded, so the HTTP
        layer can still answer 400 with an unstarted response.  All
        items run concurrently through the shared coalesce/pool path;
        item *i* is yielded once it (and its predecessors) are done, so
        the response streams back while later slots still converge.
        Items whose request key already appeared earlier in the batch
        copy the first occurrence's response with ``deduped: true``,
        exactly like the threaded endpoint.
        """
        if not isinstance(payloads, (list, tuple)):
            raise ServiceError("'requests' must be an array of solve requests")
        started = time.monotonic()
        first_seen: dict[RequestKey, "asyncio.Task[dict[str, Any]]"] = {}
        entries: list[tuple[str, Any]] = []
        duplicates = 0
        for keyed in self.service.parse_heads(payloads):
            if isinstance(keyed, Exception):
                entries.append(("error", error_payload(keyed)))
                continue
            prior = first_seen.get(keyed.key)
            if prior is not None:
                duplicates += 1
                entries.append(("dup", prior))
                continue
            task = asyncio.ensure_future(self._solve_keyed(keyed))
            first_seen[keyed.key] = task
            entries.append(("task", task))
        return self._batch_results(entries, duplicates, started)

    async def _batch_results(
        self,
        entries: list[tuple[str, Any]],
        duplicates: int,
        started: float,
    ) -> AsyncIterator[dict[str, Any]]:
        try:
            for kind, value in entries:
                if kind == "error":
                    yield value
                    continue
                try:
                    response = await value
                except Exception as exc:
                    response = error_payload(exc)
                if kind == "dup":
                    # Copies of the first occurrence are flagged even when
                    # it failed, exactly like the threaded endpoint.
                    response = dict(response)
                    response["deduped"] = True
                yield response
        finally:
            for _kind, value in entries:
                if isinstance(value, asyncio.Task) and not value.done():
                    value.cancel()
            with self.service._lock:
                self.service._batch_deduped += duplicates
            self.service._observe(time.monotonic() - started)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def records(self) -> list[JobRecord]:
        """The retained job records, oldest first."""
        return list(self._records)

    def stats(self) -> dict[str, Any]:
        """The ``/v1/stats`` body with the async core's sections.

        The ``executor`` section keeps the threaded shape (shared
        :mod:`repro.service.jobs` counters) but reports *this* core's
        pool; the ``aio`` section carries the coalescing and loop-lag
        figures.
        """
        data = self.service.stats()
        run_times = [
            r.run_time
            for r in self._records
            if r.status == "done" and r.run_time is not None
        ]
        data["executor"] = {
            **dict(self._counts),
            "active": self._active,
            "latency_p50": percentile(run_times, 50),
            "latency_p95": percentile(run_times, 95),
            "queue_capacity": self._queue_size,
        }
        lag = list(self._lag_samples)
        data["aio"] = {
            "coalesced": self.flights.coalesced,
            "flights_started": self.flights.flights_started,
            "flights_inflight": len(self.flights),
            "waiter_timeouts": self.waiter_timeouts,
            "loop_lag_p50": percentile(lag, 50),
            "loop_lag_p95": percentile(lag, 95),
        }
        return data
