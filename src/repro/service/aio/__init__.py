"""Asyncio service core: an event loop in front of the service's executor.

Results are content-addressed, so identical concurrent requests can
share one solve.  This package is the event-loop core that exploits it;
the one HTTP server (:mod:`repro.service.http`) awaits it for every
node.  Everything else is the service's own: ``/v1/solve_batch`` runs
through :meth:`~repro.service.app.SchedulingService.plan_batch`, the
planner the in-process ``solve_batch`` blocks on.

* :mod:`~repro.service.aio.coalesce` — **single-flight dedupe**: N
  concurrent requests for one :class:`~repro.service.keys.RequestKey`
  await a single in-flight solve through a keyed future table;
* :mod:`~repro.service.aio.core` — the
  :class:`~repro.service.aio.core.AsyncServiceCore` putting that in
  front of the service's own
  :class:`~repro.service.executor.JobExecutor` (each flight is one job
  there, with the same backpressure and job records as in-process
  solves), awaiting the shared batch planner's slots, plus loop-lag
  monitoring.

See ``docs/service.md`` ("Async core") for the architecture picture and
tuning guidance.
"""

from __future__ import annotations

from repro.service.aio.coalesce import SingleFlight
from repro.service.aio.core import AsyncServiceCore

__all__ = ["AsyncServiceCore", "SingleFlight"]
