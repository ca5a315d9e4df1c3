"""Asyncio service core: event loop + bounded solver worker pool.

The threaded front-end (:mod:`repro.service.http`) spends one thread per
request and one solver run per request.  At duplicate-heavy,
millions-of-users traffic that wastes a property the service already
has: results are content-addressed, so identical concurrent requests
can share one solve.  This package is the event-loop core that exploits
it:

* :mod:`~repro.service.aio.coalesce` — **single-flight dedupe**: N
  concurrent requests for one :class:`~repro.service.keys.RequestKey`
  await a single in-flight solve through a keyed future table;
* :mod:`~repro.service.aio.core` — the
  :class:`~repro.service.aio.core.AsyncServiceCore` putting that in
  front of a bounded solver thread pool with backpressure, loop-lag
  monitoring and the shared job accounting from
  :mod:`repro.service.jobs`;
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
