"""Bounded job executor: worker pool, backpressure, timeouts, job records.

The executor turns the scheduling service into a queueing system with
explicit limits instead of an unbounded thread-per-request free-for-all.
It is the one place solves run, served or in-process: the blocking
:meth:`~repro.service.app.SchedulingService.solve` waits on the job's
future, the asyncio core (:mod:`repro.service.aio.core`) awaits it.

* **Bounded admission** — at most ``queue_size`` jobs may wait; a submit
  against a full queue raises
  :class:`~repro.exceptions.ServiceOverloadedError` immediately (the HTTP
  layer maps it to 503) rather than queueing unboundedly or blocking.
* **Worker pool** — ``max_workers`` daemon threads.
* **Per-job timeouts** — a job that does not finish within its timeout
  resolves its future with :class:`~repro.exceptions.ServiceTimeoutError`.
  Thread workers cannot be preempted, so the underlying computation runs
  to completion and its result is discarded; the record notes the
  overrun.
* **Cancellation** — a job whose future is cancelled while it waits
  (the asyncio core cancels a flight nobody awaits any more) is skipped
  by the worker that dequeues it and counted ``cancelled``; a running
  job cannot be cancelled.
* **Structured records** — every job leaves a :class:`JobRecord` with
  queued/started/finished timestamps, terminal status, and whatever the
  ``annotate`` hook extracted from the result (the scheduling service
  uses it to record the engine that served the request and the cache-hit
  flag), feeding the ``/v1/stats`` latency percentiles.

Accounting invariants (observable from any thread, at any instant):
admission is atomic — a job is enqueued and counted ``submitted`` under
one lock, so no observer can see its terminal count before its
admission; a rejected submission is counted ``rejected`` only and never
touches ``submitted`` or the active gauge; every admitted job makes
exactly one terminal transition (``done``, ``failed``, ``timeout`` or
``cancelled``, claimed under the record lock), which performs the single
matching ``active`` decrement.
"""

from __future__ import annotations

import queue
import threading
import time
import traceback
from collections import deque
from collections.abc import Callable, Mapping, Sequence
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass, field
from typing import Any

from repro.exceptions import (
    ServiceError,
    ServiceOverloadedError,
    ServiceTimeoutError,
)

__all__ = ["JobRecord", "JobExecutor", "percentile"]

#: How many most-recent job records a pool retains for stats.
RECORD_LIMIT = 1024


def percentile(samples: Sequence[float], q: float) -> float | None:
    """Nearest-rank percentile of a sample list (``None`` when empty)."""
    if not samples:
        return None
    if not 0 <= q <= 100:
        raise ServiceError(f"percentile must be in [0, 100], got {q!r}")
    ordered = sorted(samples)
    rank = max(1, round(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


@dataclass
class JobRecord:
    """The audit record of one submitted job."""

    job_id: int
    label: str
    queued_at: float
    started_at: float | None = None
    finished_at: float | None = None
    #: Terminal state: queued | running | done | failed | timeout | rejected
    #: | cancelled.  ``timeout`` marks the *future's* resolution; the job
    #: may still have run to (discarded) completion afterwards.
    status: str = "queued"
    #: Which engine served the request (set via the ``annotate`` hook).
    engine: str | None = None
    #: Whether the result came from the cache (set via ``annotate``).
    cache_hit: bool | None = None
    error: str | None = None
    #: Guards cross-thread mutation (worker vs timeout timer).
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    @property
    def wait_time(self) -> float | None:
        """Seconds spent queued before a worker picked the job up."""
        if self.started_at is None:
            return None
        return self.started_at - self.queued_at

    @property
    def run_time(self) -> float | None:
        """Seconds spent executing (``None`` until the job finishes)."""
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible rendering for stats and debugging endpoints."""
        return {
            "job_id": self.job_id,
            "label": self.label,
            "queued_at": self.queued_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "status": self.status,
            "engine": self.engine,
            "cache_hit": self.cache_hit,
            "error": self.error,
            "wait_time": self.wait_time,
            "run_time": self.run_time,
        }


class _Job:
    """Internal pairing of a request with its future, record and timer."""

    __slots__ = ("request", "future", "record", "timer", "timeout")

    def __init__(
        self,
        request: Any,
        future: "Future[Any]",
        record: JobRecord,
        timeout: float | None,
    ) -> None:
        self.request = request
        self.future = future
        self.record = record
        self.timer: threading.Timer | None = None
        self.timeout = timeout


class JobExecutor:
    """A bounded worker pool executing ``fn(request)`` jobs.

    Parameters
    ----------
    fn:
        The job function; receives one request object, returns the result
        delivered through the job's future.
    max_workers:
        Number of worker threads.
    queue_size:
        Bounded admission: maximum number of *waiting* jobs.  Submissions
        beyond it raise :class:`ServiceOverloadedError`.
    default_timeout:
        Per-job timeout applied when ``submit`` passes none.
    annotate:
        Optional hook mapping a successful result to extra
        :class:`JobRecord` fields (``engine``, ``cache_hit``).
    """

    def __init__(
        self,
        fn: Callable[[Any], Any],
        *,
        max_workers: int = 4,
        queue_size: int = 64,
        default_timeout: float | None = None,
        annotate: Callable[[Any], Mapping[str, Any]] | None = None,
    ) -> None:
        if max_workers <= 0:
            raise ServiceError(f"max_workers must be positive, got {max_workers}")
        if queue_size <= 0:
            raise ServiceError(f"queue_size must be positive, got {queue_size}")
        if default_timeout is not None and default_timeout <= 0:
            raise ServiceError(
                f"default_timeout must be positive, got {default_timeout}"
            )
        self._fn = fn
        self._annotate = annotate
        self._queue_size = int(queue_size)
        self._default_timeout = default_timeout
        self._lock = threading.Lock()
        self._records: deque[JobRecord] = deque(maxlen=RECORD_LIMIT)
        self._counts = dict.fromkeys(
            ("submitted", "done", "failed", "timeout", "rejected", "cancelled"), 0
        )
        #: Admitted jobs that have not yet reached a terminal state.
        self._active = 0
        self._next_id = 0
        self._shutdown = False
        self._draining = False
        self._jobs: "queue.Queue[_Job | None]" = queue.Queue(maxsize=queue_size)
        self._threads: list[threading.Thread] = []
        for idx in range(max_workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"repro-service-worker-{idx}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #

    def submit(
        self,
        request: Any,
        *,
        timeout: float | None = None,
        label: str = "",
    ) -> "Future[Any]":
        """Enqueue one job; returns its future.

        Raises
        ------
        ServiceOverloadedError
            When the bounded queue is full, or the executor has begun a
            graceful drain.  The caller sheds load instead of blocking.
        """
        if self._draining:
            raise ServiceOverloadedError(
                self._queue_size,
                reason="executor is draining: in-flight jobs are finishing, "
                "new jobs are rejected",
            )
        if self._shutdown:
            raise ServiceError("executor is shut down")
        effective_timeout = self._default_timeout if timeout is None else timeout
        if effective_timeout is not None and effective_timeout <= 0:
            raise ServiceError(f"timeout must be positive, got {effective_timeout}")
        future: "Future[Any]" = Future()
        with self._lock:
            job_id = self._next_id
            self._next_id += 1
        record = JobRecord(job_id=job_id, label=label, queued_at=time.time())
        job = _Job(request, future, record, effective_timeout)

        # Admission is atomic with its accounting: the enqueue and the
        # submitted/active increments happen under one lock, so a worker
        # finishing the job can never have its terminal count observed
        # before the admission count, and a rejected submit never
        # increments counters it has no terminal transition to pair with.
        # (put_nowait never blocks, so holding the lock across it is safe.)
        admitted = True
        with self._lock:
            try:
                self._jobs.put_nowait(job)
            except queue.Full:
                admitted = False
                record.status = "rejected"
                record.finished_at = time.time()
                self._counts["rejected"] += 1
            else:
                self._counts["submitted"] += 1
                self._active += 1
            self._records.append(record)
        if not admitted:
            raise ServiceOverloadedError(self._queue_size) from None
        if effective_timeout is not None:
            timer = threading.Timer(
                effective_timeout, self._expire, args=(job, effective_timeout)
            )
            timer.daemon = True
            job.timer = timer
            timer.start()
        return future

    # ------------------------------------------------------------------ #
    # Worker path
    # ------------------------------------------------------------------ #

    def _worker_loop(self) -> None:
        while True:
            job = self._jobs.get()
            if job is None:  # shutdown sentinel
                self._jobs.task_done()
                return
            try:
                self._run_job(job)
            finally:
                self._jobs.task_done()
            # An idle worker must not pin its last job: a miss carries its
            # request's undecoded problem payload until the worker decodes it.
            job = None

    def _run_job(self, job: _Job) -> None:
        with job.record._lock:
            if job.record.status != "queued":
                # Timed out while waiting: don't waste a worker on a job
                # whose future is already resolved.
                return
            if not job.future.set_running_or_notify_cancel():
                # Cancelled while waiting: this is its terminal transition.
                job.record.status = "cancelled"
                job.record.finished_at = time.time()
                cancelled = True
            else:
                job.record.status = "running"
                job.record.started_at = time.time()
                cancelled = False
        if cancelled:
            if job.timer is not None:
                job.timer.cancel()
            with self._lock:
                self._counts["cancelled"] += 1
                self._active -= 1
            return
        try:
            result = self._fn(job.request)
        except BaseException as exc:  # noqa: B036  # lint: ignore[RS602] - fed to the job future
            # The future keeps the error, and the error chain's tracebacks
            # keep the failed job's frames: release their locals (the
            # request payload, a half-decoded problem) now, not at the
            # next gc pass.
            cause: BaseException | None = exc
            while cause is not None:
                traceback.clear_frames(cause.__traceback__)
                cause = cause.__cause__ or cause.__context__
            self._finish(job, error=exc)
        else:
            self._finish(job, result=result)

    # ------------------------------------------------------------------ #
    # Completion / timeout
    # ------------------------------------------------------------------ #

    def _finish(
        self,
        job: _Job,
        *,
        result: Any = None,
        error: BaseException | None = None,
    ) -> None:
        if job.timer is not None:
            job.timer.cancel()
        now = time.time()
        with job.record._lock:
            already_resolved = job.record.status in ("timeout", "rejected")
            job.record.finished_at = now
            if not already_resolved:
                if error is None:
                    job.record.status = "done"
                    if self._annotate is not None:
                        try:
                            extra = self._annotate(result)
                        except Exception:  # lint: ignore[RS602] - cosmetic hook
                            extra = {}
                        job.record.engine = extra.get("engine", job.record.engine)
                        hit = extra.get("cache_hit")
                        if hit is not None:
                            job.record.cache_hit = bool(hit)
                else:
                    job.record.status = "failed"
                    job.record.error = f"{type(error).__name__}: {error}"
        with self._lock:
            if not already_resolved:
                self._counts["done" if error is None else "failed"] += 1
                self._active -= 1
        if already_resolved:
            # The timeout timer claimed the terminal state; it owns the
            # future (it resolves it with ServiceTimeoutError), and the
            # computed result (or late error) is discarded by design.
            return
        try:
            if error is None:
                job.future.set_result(result)
            else:
                job.future.set_exception(error)
        except InvalidStateError:
            pass

    def _expire(self, job: _Job, timeout: float) -> None:
        # Claim the terminal state under the record lock *before* touching
        # the future: the claim is what makes the worker's `_finish` see
        # `already_resolved` and skip its own counting, so exactly one of
        # the two performs the terminal count and active decrement.
        with job.record._lock:
            if job.record.status not in ("queued", "running"):
                return  # the worker already finished it; nothing expired
            if job.future.done():
                return
            job.record.status = "timeout"
            job.record.error = f"timed out after {timeout:g}s"
        with self._lock:
            self._counts["timeout"] += 1
            self._active -= 1
        try:
            job.future.set_exception(ServiceTimeoutError(timeout))
        except InvalidStateError:
            pass

    # ------------------------------------------------------------------ #
    # Introspection / lifecycle
    # ------------------------------------------------------------------ #

    def records(self) -> list[JobRecord]:
        """The retained job records, oldest first."""
        with self._lock:
            return list(self._records)

    def stats(self) -> dict[str, Any]:
        """Counters plus p50/p95 solve latency over retained finished jobs."""
        with self._lock:
            counts = dict(self._counts)
            active = self._active
            run_times = [
                r.run_time
                for r in self._records
                if r.status == "done" and r.run_time is not None
            ]
        return {
            **counts,
            "active": active,
            "latency_p50": percentile(run_times, 50),
            "latency_p95": percentile(run_times, 95),
            "queue_capacity": self._queue_size,
        }

    @property
    def draining(self) -> bool:
        """Whether a graceful drain has begun (new submissions rejected)."""
        return self._draining

    @property
    def queue_capacity(self) -> int:
        """The bounded pending-job capacity this executor admits."""
        return self._queue_size

    def shutdown(self, wait: bool = True, *, drain: bool = False) -> None:
        """Stop accepting jobs and (optionally) wait for workers to finish.

        ``drain=True`` is the graceful-shutdown path: submissions arriving
        from this point on are rejected with
        :class:`~repro.exceptions.ServiceOverloadedError` (so routers fail
        over instead of seeing a hard error), while every job already
        queued or running completes normally and leaves its
        :class:`JobRecord`.  The call blocks until the workers are idle.
        """
        if drain:
            self._draining = True
            wait = True
        if self._shutdown:
            return
        self._shutdown = True
        for _ in self._threads:
            self._jobs.put(None)
        if wait:
            for thread in self._threads:
                thread.join() if drain else thread.join(timeout=5.0)

    def __enter__(self) -> "JobExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()
