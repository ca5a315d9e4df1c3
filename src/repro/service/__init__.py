"""``repro.service`` — the cached, concurrent scheduling service layer.

Four layers, bottom-up (see ``docs/service.md``):

* :mod:`repro.service.codec` — canonical, version-stamped JSON encoders
  and decoders for workflows, catalogs, problems and schedules (the wire
  format shared by the HTTP API, ``repro solve --json`` and the cache);
* :mod:`repro.service.keys` — SHA-256 content hashing that is invariant
  under module/VM-type reordering, producing the
  ``(problem_hash, algorithm, params_hash)`` cache key;
* :mod:`repro.service.cache` + :mod:`repro.service.executor` — the
  thread-safe memoizing result store (LRU + optional atomic-JSON disk
  tier) and the bounded worker pool with backpressure, per-job timeouts
  and structured job records;
* :mod:`repro.service.app` + :mod:`repro.service.http` — the
  transport-agnostic :class:`SchedulingService` (one request type,
  :class:`KeyedRequest`, decoded on its executor worker) and its stdlib
  HTTP front-end (``repro serve`` / ``repro submit``); the asyncio front
  end (:mod:`repro.service.aio`, ``repro serve --async``) awaits the
  same service;
* :mod:`repro.service.resilience` + :mod:`repro.service.router` — the
  fabric layer: retry policies with backoff and jitter, per-node circuit
  breakers, and the ``problem_hash``-sharded router with failover and
  hedging (``repro route``);
* :mod:`repro.service.chaos` — the fault-injecting proxy the resilience
  tests and the CI chaos-smoke job drive traffic through.

Quick start::

    from repro.service import SchedulingService
    from repro.core.serialize import problem_to_dict
    from repro.workloads import example_problem

    with SchedulingService() as svc:
        request = {"problem": problem_to_dict(example_problem()), "budget": 57}
        first = svc.solve(request)     # computed: cache_hit == False
        second = svc.solve(request)    # replayed: cache_hit == True
"""

from __future__ import annotations

from repro.exceptions import (
    CircuitOpenError,
    ServiceError,
    ServiceOverloadedError,
    ServiceTimeoutError,
    TransientServiceError,
)
from repro.service.app import KeyedRequest, SchedulingService, error_payload
from repro.service.cache import CacheStats, ResultCache
from repro.service.chaos import ChaosConfig, ChaosProxy
from repro.service.codec import (
    CODEC_VERSION,
    decode_catalog,
    decode_problem,
    decode_schedule,
    decode_workflow,
    dumps,
    encode_catalog,
    encode_problem,
    encode_result_fragment,
    encode_schedule,
    encode_workflow,
    loads,
)
from repro.service.executor import JobExecutor, JobRecord
from repro.service.http import ServiceClient, make_server, serve
from repro.service.resilience import CircuitBreaker, RetryPolicy
from repro.service.router import (
    NodeHandle,
    ShardRouter,
    make_router_server,
    serve_router,
)
from repro.service.keys import (
    RequestKey,
    canonical_problem_payload,
    params_hash,
    problem_hash,
    request_key,
)

__all__ = [
    "CODEC_VERSION",
    "CacheStats",
    "ChaosConfig",
    "ChaosProxy",
    "CircuitBreaker",
    "CircuitOpenError",
    "JobExecutor",
    "JobRecord",
    "KeyedRequest",
    "NodeHandle",
    "RequestKey",
    "ResultCache",
    "RetryPolicy",
    "SchedulingService",
    "ServiceClient",
    "ServiceError",
    "ServiceOverloadedError",
    "ServiceTimeoutError",
    "ShardRouter",
    "TransientServiceError",
    "canonical_problem_payload",
    "decode_catalog",
    "decode_problem",
    "decode_schedule",
    "decode_workflow",
    "dumps",
    "encode_catalog",
    "encode_problem",
    "encode_result_fragment",
    "encode_schedule",
    "encode_workflow",
    "error_payload",
    "loads",
    "make_router_server",
    "make_server",
    "params_hash",
    "problem_hash",
    "request_key",
    "serve",
    "serve_router",
]
