"""The asyncio service core: coalesce, then solve on the service's executor.

:class:`AsyncServiceCore` wraps the transport-agnostic
:class:`~repro.service.app.SchedulingService` with the event-loop
request path the HTTP server (:mod:`repro.service.http`) awaits.  One
``/v1/solve`` request flows::

    parse_head ──► memory probe ──► single-flight ──► service.executor
      (hash only)   (no disk I/O)     (per RequestKey)   (one job per flight)

* ``parse_head`` validates and hashes on the loop **without decoding**
  the problem payload; coalesced duplicates therefore pay one decode
  (the flight leader's job's) instead of N.
* Hash and decode go through the service's exact-payload problem memo,
  so a budget sweep over one workflow hashes and decodes its DAG once,
  and each miss's solve can replay a prefix of the Critical-Greedy trace
  memoized on that shared problem.
* The loop probes only the memory tier of the result cache.  A flight
  leader submits one job to the service's
  :class:`~repro.service.executor.JobExecutor` — the same bounded pool,
  admission accounting and job records the in-process
  :meth:`~repro.service.app.SchedulingService.solve` uses — and awaits
  its future.  The job reads the disk tier, else decodes and solves, on
  a worker thread, never on the loop.  A full queue fails the flight
  with :class:`~repro.exceptions.ServiceOverloadedError` (HTTP 503); a
  flight abandoned by its last waiter cancels its job, which the
  executor skips if it is still queued and counts ``cancelled``.
* ``/v1/solve_batch`` goes through the service's own planner,
  :meth:`~repro.service.app.SchedulingService.plan_batch` — the one the
  in-process ``solve_batch`` blocks on — and awaits its slots in input
  order, so dedupe and budget-axis grouping are the same served and
  in-process.  Batch items do not join ``/v1/solve`` flights.
* A loop-lag monitor samples event-loop scheduling delay so ``/v1/stats``
  can report ``loop_lag_p95`` — the canary for accidentally blocking the
  loop (see the RT703 lint rule for the static version of that check).

Responses are byte-identical to the in-process service's: cache
fragments are produced by the same job code.  Response dicts may be
shared between coalesced waiters — treat them as immutable.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from collections.abc import Mapping
from typing import Any

from repro.exceptions import ServiceError, ServiceTimeoutError
from repro.service.app import KeyedRequest, SchedulingService, error_payload
from repro.service.executor import percentile
from repro.service.aio.coalesce import SingleFlight

__all__ = ["AsyncServiceCore"]

#: Sampling period of the loop-lag monitor, seconds.
LAG_INTERVAL = 0.25


class AsyncServiceCore:
    """Event-loop front half of a :class:`SchedulingService`.

    Parameters
    ----------
    service:
        The wrapped scheduling service: cache, codec, live workflows, and
        the executor every miss is solved on (its ``max_workers`` and
        ``queue_size`` bound the served requests too).
    default_timeout:
        Timeout applied when a request carries none: per waiter on
        ``/v1/solve`` (a waiter timing out never cancels the underlying
        solve while other waiters remain; the solve still completes and
        populates the cache), per job on ``/v1/solve_batch``.
    """

    def __init__(
        self,
        service: SchedulingService,
        *,
        default_timeout: float | None = None,
    ) -> None:
        if default_timeout is not None and default_timeout <= 0:
            raise ServiceError(
                f"default_timeout must be positive, got {default_timeout}"
            )
        self.service = service
        self._default_timeout = default_timeout
        self.flights = SingleFlight()
        #: Waiters that hit their per-request timeout while the solve
        #: kept running for the remaining waiters.
        self.waiter_timeouts = 0
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
        """Graceful shutdown: :meth:`SchedulingService.drain`, off the loop.

        Readiness drops first so routers fail over, every admitted job
        reaches its terminal state, then the disk cache tier is flushed.
        """
        await asyncio.get_running_loop().run_in_executor(None, self.service.drain)

    async def aclose(self) -> None:
        """Stop the loop-lag monitor (the caller owns the service)."""
        if self._lag_task is not None:
            self._lag_task.cancel()
            try:
                await self._lag_task
            except asyncio.CancelledError:
                pass
            self._lag_task = None

    async def _lag_monitor(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            before = loop.time()
            await asyncio.sleep(LAG_INTERVAL)
            lag = loop.time() - before - LAG_INTERVAL
            self._lag_samples.append(max(0.0, lag))

    # ------------------------------------------------------------------ #
    # Request path
    # ------------------------------------------------------------------ #

    async def solve(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        """One ``/v1/solve`` request: parse, probe, coalesce, solve."""
        started = time.monotonic()
        try:
            keyed = self.service.parse_head(payload)
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
                    None, self.service._degraded_response, keyed, exc
                )
            return response
        finally:
            self.service._observe(time.monotonic() - started)

    async def _miss(self, keyed: KeyedRequest) -> dict[str, Any]:
        """Flight-leader body: one job on the service's executor.

        The job decodes and solves on a worker thread.  Cancelling the
        flight cancels the job's future, so a job still queued is skipped.
        """
        future = self.service.executor.submit(keyed, label=keyed.algorithm)
        response: dict[str, Any] = await asyncio.wrap_future(future)
        return response

    # ------------------------------------------------------------------ #
    # Batch endpoint
    # ------------------------------------------------------------------ #

    async def solve_batch(self, payloads: Any) -> list[dict[str, Any]]:
        """``/v1/solve_batch``: every item's response, in input order.

        Planning is eager: a non-array body raises before anything is
        awaited, and every miss is submitted before the first await.
        The slots are then awaited in input order.
        """
        started = time.monotonic()
        loop = asyncio.get_running_loop()
        responses: list[dict[str, Any]] = []
        try:
            for slot in self.service.plan_batch(
                payloads, default_timeout=self._default_timeout
            ):
                if slot.future is None:
                    response = slot.settled(responses)
                else:
                    try:
                        response = slot.pick(await asyncio.wrap_future(slot.future))
                    except ServiceTimeoutError as exc:
                        # A degraded answer decodes and solves: off the loop.
                        response = await loop.run_in_executor(
                            None, self.service._timed_out_item, slot.keyed, exc
                        )
                    except Exception as exc:
                        response = error_payload(exc)
                responses.append(response)
            return responses
        finally:
            self.service._observe(time.monotonic() - started)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def stats(self) -> dict[str, Any]:
        """The ``/v1/stats`` body plus the async core's ``aio`` section.

        The ``executor`` section is the service's own: served and
        in-process solves share the one pool.  ``aio`` carries the coalescing and
        loop-lag figures.
        """
        data = self.service.stats()
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
