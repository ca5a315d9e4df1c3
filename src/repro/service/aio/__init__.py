"""Asyncio service core: an event loop in front of the service's executor.

The threaded front-end (:mod:`repro.service.http`) spends one thread per
request and one solver run per ``/v1/solve`` request.  At
duplicate-heavy traffic that wastes a property the service already has:
results are content-addressed, so identical concurrent requests can
share one solve.  This package is the event-loop core that exploits it.
Everything else is the service's own: ``/v1/solve_batch`` runs through
:meth:`~repro.service.app.SchedulingService.plan_batch`, the planner the
threaded endpoint uses, so the two front ends differ only in how they
wait (one blocks, the other awaits).

* :mod:`~repro.service.aio.coalesce` — **single-flight dedupe**: N
  concurrent requests for one :class:`~repro.service.keys.RequestKey`
  await a single in-flight solve through a keyed future table;
* :mod:`~repro.service.aio.core` — the
  :class:`~repro.service.aio.core.AsyncServiceCore` putting that in
  front of the service's own
  :class:`~repro.service.executor.JobExecutor` (each flight is one job
  there, with the same backpressure and job records as the threaded
  front end), awaiting the shared batch planner's slots, plus loop-lag
  monitoring;
* :mod:`~repro.service.aio.http` — the asyncio HTTP front-end behind
  ``repro serve --async`` (same routes, same status mapping, batch
  responses streamed item-by-item).

Clients talk to it through the same blocking
:class:`~repro.service.http.ServiceClient` as the threaded front-end.

See ``docs/service.md`` ("Async core") for the architecture picture,
tuning guidance and the threaded-vs-async selection matrix.
"""

from __future__ import annotations

from repro.service.aio.coalesce import SingleFlight
from repro.service.aio.core import AsyncServiceCore

__all__ = ["AsyncServiceCore", "SingleFlight"]
