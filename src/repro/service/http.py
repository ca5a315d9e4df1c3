"""Stdlib-only HTTP front-end and client for the scheduling service.

Server
------
:func:`make_server` binds a :class:`http.server.ThreadingHTTPServer`
around a :class:`~repro.service.app.SchedulingService`; :func:`serve`
is the blocking entry point behind ``repro serve``.  Routes:

===============================  ==========================================
``POST /v1/solve``                   solve one request payload
``POST /v1/solve_batch``             ``{"requests": [...]}`` → ``{"results": [...]}``
``POST /v1/workflows``               register a live workflow (idempotent)
``POST /v1/workflows/<id>/events``   apply one live event → revised plan
``GET  /v1/workflows/<id>``          live status + actual-vs-planned ledger
``GET  /v1/stats``                   cache/executor counters, hit-rate, p50/p95
``GET  /v1/healthz``                 liveness probe (process is up)
``GET  /v1/readyz``                  readiness probe (503 once draining has begun)
===============================  ==========================================

Failure mapping: malformed payloads and infeasible budgets are ``400``,
an unknown route or workflow id is ``404``, a conflicting live event
(sequence gap or divergent replay) is ``409``, the executor's
backpressure rejection
(:class:`~repro.exceptions.ServiceOverloadedError`) is ``503`` with a
``Retry-After`` hint, and a per-job timeout is ``504``.  Every body —
success or error — is canonical JSON from :func:`repro.service.codec.dumps`.

``serve`` installs a SIGTERM handler so a fleet manager's stop signal
triggers the graceful drain contract (stop accepting, finish in-flight
jobs, flush the disk cache) instead of dropping work on the floor.

Client
------
:class:`ServiceClient` wraps ``urllib.request`` for the ``repro submit``
subcommand, the router, the smoke and chaos harnesses and live replay; HTTP error
statuses are returned as their decoded error bodies rather than raised,
so callers handle one shape.  Transport failures (connection refused or
reset, truncated responses) raise
:class:`~repro.exceptions.TransientServiceError`.  An optional
:class:`~repro.service.resilience.RetryPolicy` makes the client retry
transport failures and 503s — honouring the server's ``Retry-After``
hint — before giving up (``repro submit --max-retries/--deadline``).
"""

from __future__ import annotations

import http.client
import re
import signal
import sys
import threading
import urllib.error
import urllib.request
from collections.abc import Sequence
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from repro.exceptions import (
    EventConflictError,
    ServiceError,
    TransientServiceError,
)
from repro.service.app import ERROR_STATUS, SchedulingService, error_payload
from repro.service.codec import dumps, loads
from repro.service.resilience import RetryPolicy

__all__ = [
    "HttpPeer",
    "ServiceRequestHandler",
    "make_server",
    "serve",
    "ServiceClient",
]

#: Live-workflow routes.  Ids are validated again by the manager; the
#: pattern here only needs to slice the path safely.
_WORKFLOW_EVENTS_RE = re.compile(r"^/v1/workflows/([A-Za-z0-9_\-]+)/events$")
_WORKFLOW_SYNC_RE = re.compile(r"^/v1/workflows/([A-Za-z0-9_\-]+)/sync$")
_WORKFLOW_STATUS_RE = re.compile(r"^/v1/workflows/([A-Za-z0-9_\-]+)$")


class ServiceRequestHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto the attached :class:`SchedulingService`."""

    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY: headers and body go out in two writes, and without it
    # Nagle holds the body until the client's delayed ACK (~40 ms per
    # reply on a kept-alive connection).
    disable_nagle_algorithm = True

    @property
    def service(self) -> SchedulingService:
        return self.server.service  # type: ignore[attr-defined]

    # ------------------------------------------------------------------ #
    # Plumbing
    # ------------------------------------------------------------------ #

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if getattr(self.server, "verbose", False):
            sys.stderr.write(
                f"{self.address_string()} - {format % args}\n"
            )

    def _send_json(
        self, status: int, payload: dict[str, Any], *, retry_after: bool = False
    ) -> None:
        body = dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after:
            self.send_header("Retry-After", "1")
        self.end_headers()
        self.wfile.write(body)

    def _send_error_payload(self, exc: BaseException) -> None:
        payload = error_payload(exc)
        status = ERROR_STATUS[payload["error"]["kind"]]
        self._send_json(status, payload, retry_after=status == 503)

    def _read_body(self) -> dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise ServiceError("request body is empty")
        return loads(self.rfile.read(length))

    # ------------------------------------------------------------------ #
    # Routes
    # ------------------------------------------------------------------ #

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        if self.path == "/v1/healthz":
            self._send_json(200, {"status": "ok"})
        elif self.path == "/v1/readyz":
            ready = self.service.ready
            self._send_json(
                200 if ready else 503,
                {
                    "status": "ok" if ready else "error",
                    "ready": ready,
                    **(
                        {}
                        if ready
                        else {
                            "error": {
                                "kind": "not_ready",
                                "message": "service is draining",
                            }
                        }
                    ),
                },
                retry_after=not ready,
            )
        elif self.path == "/v1/stats":
            self._send_json(200, {"status": "ok", "stats": self.service.stats()})
        elif (match := _WORKFLOW_SYNC_RE.match(self.path)) is not None:
            try:
                response = self.service.workflow_sync_pull(match.group(1))
            except Exception as exc:
                self._send_error_payload(exc)
                return
            self._send_json(200, response)
        elif (match := _WORKFLOW_STATUS_RE.match(self.path)) is not None:
            try:
                response = self.service.workflow_status(match.group(1))
            except Exception as exc:
                self._send_error_payload(exc)
                return
            self._send_json(200, response)
        else:
            self._send_json(
                404,
                {
                    "status": "error",
                    "error": {"kind": "not_found", "message": f"no route {self.path}"},
                },
            )

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        try:
            if self.path == "/v1/solve":
                response = self.service.solve(self._read_body())
            elif self.path == "/v1/solve_batch":
                body = self._read_body()
                response = {
                    "status": "ok",
                    "results": self.service.solve_batch(body.get("requests")),
                }
            elif self.path == "/v1/workflows":
                response = self.service.register_workflow(self._read_body())
            elif (match := _WORKFLOW_EVENTS_RE.match(self.path)) is not None:
                response = self.service.workflow_event(
                    match.group(1), self._read_body()
                )
            elif (match := _WORKFLOW_SYNC_RE.match(self.path)) is not None:
                response = self.service.workflow_sync_push(
                    match.group(1), self._read_body()
                )
            else:
                self._send_json(
                    404,
                    {
                        "status": "error",
                        "error": {
                            "kind": "not_found",
                            "message": f"no route {self.path}",
                        },
                    },
                )
                return
        except Exception as exc:
            self._send_error_payload(exc)
            return
        self._send_json(200, response)


def make_server(
    service: SchedulingService,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
) -> ThreadingHTTPServer:
    """Bind (but do not start) the HTTP server around ``service``.

    ``port=0`` binds an ephemeral free port; read the actual one from
    ``server.server_address[1]``.
    """
    server = ThreadingHTTPServer((host, port), ServiceRequestHandler)
    server.daemon_threads = True
    server.service = service  # type: ignore[attr-defined]
    server.verbose = verbose  # type: ignore[attr-defined]
    return server


def serve(
    *,
    host: str = "127.0.0.1",
    port: int = 8423,
    max_workers: int = 4,
    queue_size: int = 64,
    cache_size: int = 1024,
    cache_dir: str | None = None,
    default_timeout: float | None = None,
    degrade_on_timeout: bool = False,
    live_dir: str | None = None,
    live_peers: Sequence[str] = (),
    live_checkpoint_interval: int = 0,
    live_retention: float | None = None,
    verbose: bool = False,
) -> int:
    """Blocking server loop behind ``repro serve``; returns the exit code.

    SIGTERM (and Ctrl-C) trigger a graceful drain: the node stops
    accepting (``/v1/readyz`` flips to 503, submissions get 503 so the
    router fails over), in-flight jobs finish, and the disk cache tier is
    flushed before the process exits.

    ``live_peers`` are sibling base URLs the live-workflow log replicates
    to (and heals from).
    """
    service = SchedulingService(
        max_workers=max_workers,
        queue_size=queue_size,
        cache_size=cache_size,
        cache_dir=cache_dir,
        default_timeout=default_timeout,
        degrade_on_timeout=degrade_on_timeout,
        live_dir=live_dir,
        live_node=f"{host}:{port}",
        live_peers=[HttpPeer(url) for url in live_peers],
        live_checkpoint_interval=live_checkpoint_interval,
        live_retention=live_retention,
    )
    server = make_server(service, host=host, port=port, verbose=verbose)
    bound_host, bound_port = server.server_address[:2]
    print(
        f"repro.service listening on http://{bound_host}:{bound_port} "
        f"(workers={max_workers}, queue={queue_size}, cache={cache_size}"
        + (f", cache_dir={cache_dir}" if cache_dir else "")
        + (f", live_dir={live_dir}" if live_dir else "")
        + (f", live_peers={len(live_peers)}" if live_peers else "")
        + (", degrade_on_timeout" if degrade_on_timeout else "")
        + ")",
        flush=True,
    )

    def _on_sigterm(signum: int, frame: Any) -> None:
        # serve_forever() must be unblocked from another thread; the
        # graceful drain itself runs in the finally block below.
        threading.Thread(target=server.shutdown, daemon=True).start()

    try:
        signal.signal(signal.SIGTERM, _on_sigterm)
    except ValueError:
        pass  # not the main thread (embedded/test use); rely on KeyboardInterrupt
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        service.drain()
        print("repro.service drained cleanly", flush=True)
    return 0


def _parse_retry_after(value: str | None) -> float | None:
    if value is None:
        return None
    try:
        return max(0.0, float(value))
    except ValueError:
        return None


class ServiceClient:
    """Minimal ``urllib``-based client for the service endpoints.

    HTTP error statuses (400/503/504/…) are returned as their decoded
    JSON error bodies, so callers inspect ``response["status"]`` instead
    of catching transport exceptions.  Transport failures — connection
    refused/reset, truncated bodies, timeouts — raise
    :class:`~repro.exceptions.TransientServiceError`.

    With ``retry=RetryPolicy(...)``, transport failures and 503 replies
    (``overloaded``/``not_ready``/``upstream_unavailable``) are retried
    with backoff, honouring the server's ``Retry-After`` hint; the final
    outcome (body or transient error) is then surfaced as usual.
    """

    #: Error kinds worth retrying: the server is alive but momentarily
    #: unable to take the job; a later attempt (or another node) can win.
    RETRYABLE_KINDS = frozenset({"overloaded", "not_ready", "upstream_unavailable"})

    def __init__(
        self,
        base_url: str,
        *,
        timeout: float = 30.0,
        retry: RetryPolicy | None = None,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retry = retry

    def _request_once(
        self, path: str, payload: dict[str, Any] | None = None
    ) -> tuple[dict[str, Any], float | None]:
        """One HTTP round-trip → ``(decoded body, Retry-After seconds)``."""
        url = f"{self.base_url}{path}"
        data = dumps(payload).encode("utf-8") if payload is not None else None
        request = urllib.request.Request(
            url,
            data=data,
            headers={"Content-Type": "application/json"} if data else {},
            method="POST" if data is not None else "GET",
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as reply:
                return loads(reply.read()), None
        except urllib.error.HTTPError as exc:
            retry_after = _parse_retry_after(exc.headers.get("Retry-After"))
            try:
                body = exc.read()
            except (http.client.HTTPException, OSError) as read_exc:
                # The error body itself was truncated mid-read (chaos
                # drop, node killed while flushing): still transient.
                raise TransientServiceError(
                    f"connection to {url} failed mid-response: "
                    f"{type(read_exc).__name__}: {read_exc}",
                    retry_after=retry_after,
                ) from read_exc
            try:
                return loads(body), retry_after
            except ServiceError:
                if exc.code >= 500:
                    raise TransientServiceError(
                        f"{url} answered HTTP {exc.code} with a non-JSON body",
                        retry_after=retry_after,
                        status=exc.code,
                    ) from exc
                raise ServiceError(
                    f"{url} answered HTTP {exc.code} with a non-JSON body"
                ) from exc
        except urllib.error.URLError as exc:
            raise TransientServiceError(f"cannot reach {url}: {exc.reason}") from exc
        except (http.client.HTTPException, ConnectionError, TimeoutError) as exc:
            # Dropped/truncated mid-response (chaos, a crashing node):
            # urllib surfaces these raw, without the URLError wrapper.
            raise TransientServiceError(
                f"connection to {url} failed mid-response: "
                f"{type(exc).__name__}: {exc}"
            ) from exc

    def _request(
        self, path: str, payload: dict[str, Any] | None = None
    ) -> dict[str, Any]:
        if self.retry is None:
            return self._request_once(path, payload)[0]

        def attempt(n: int) -> dict[str, Any]:
            body, retry_after = self._request_once(path, payload)
            if (
                body.get("status") == "error"
                and body.get("error", {}).get("kind") in self.RETRYABLE_KINDS
            ):
                raise TransientServiceError(
                    str(body["error"].get("message", "service unavailable")),
                    retry_after=retry_after if retry_after is not None else 1.0,
                )
            return body

        return self.retry.run(attempt)

    def healthz(self) -> dict[str, Any]:
        return self._request("/v1/healthz")

    def stats(self) -> dict[str, Any]:
        return self._request("/v1/stats")

    def solve(self, payload: dict[str, Any]) -> dict[str, Any]:
        return self._request("/v1/solve", payload)

    def solve_batch(self, payloads: list[dict[str, Any]]) -> dict[str, Any]:
        return self._request("/v1/solve_batch", {"requests": payloads})

    def register_workflow(self, payload: dict[str, Any]) -> dict[str, Any]:
        return self._request("/v1/workflows", payload)

    def workflow_event(
        self, workflow_id: str, payload: dict[str, Any]
    ) -> dict[str, Any]:
        return self._request(f"/v1/workflows/{workflow_id}/events", payload)

    def workflow_status(self, workflow_id: str) -> dict[str, Any]:
        return self._request(f"/v1/workflows/{workflow_id}")

    def workflow_sync(self, workflow_id: str) -> dict[str, Any]:
        """``GET /v1/workflows/<id>/sync``: the peer's raw log lines."""
        return self._request(f"/v1/workflows/{workflow_id}/sync")

    def workflow_sync_push(
        self, workflow_id: str, payload: dict[str, Any]
    ) -> dict[str, Any]:
        """``POST /v1/workflows/<id>/sync``: replicate records to a peer."""
        return self._request(f"/v1/workflows/{workflow_id}/sync", payload)


class HttpPeer:
    """A :class:`~repro.live.store.PeerLink` over the HTTP sync endpoints.

    One per ``--live-peer`` URL.  ``fetch`` and ``push`` translate the
    decoded error bodies back into exceptions so the store's replication
    layer sees the same surface an in-process peer would: ``None`` for a
    workflow the peer does not have, :class:`EventConflictError` for a
    base-offset mismatch (the sender then falls back to a full resync),
    :class:`TransientServiceError` for anything else.
    """

    def __init__(self, base_url: str, *, timeout: float = 5.0) -> None:
        self.client = ServiceClient(base_url, timeout=timeout)
        self.base_url = self.client.base_url

    def __repr__(self) -> str:
        return f"HttpPeer({self.base_url!r})"

    def fetch(self, workflow_id: str) -> list[str] | None:
        body = self.client.workflow_sync(workflow_id)
        if body.get("status") == "ok":
            records = body.get("records")
            return records if isinstance(records, list) else None
        if body.get("error", {}).get("kind") == "not_found":
            return None
        raise TransientServiceError(
            f"peer {self.base_url} cannot serve workflow {workflow_id!r}: "
            f"{body.get('error', {}).get('message', 'unknown error')}"
        )

    def push(
        self, workflow_id: str, base_offset: int | None, records: list[str]
    ) -> int:
        payload: dict[str, Any] = {"records": records}
        if base_offset is None:
            payload["reset"] = True
        else:
            payload["base_offset"] = base_offset
        body = self.client.workflow_sync_push(workflow_id, payload)
        if body.get("status") == "ok":
            offset = body.get("offset")
            if isinstance(offset, int) and not isinstance(offset, bool):
                return offset
            raise TransientServiceError(
                f"peer {self.base_url} acknowledged a sync push without "
                "a log offset"
            )
        error = body.get("error", {})
        if error.get("kind") == "conflict":
            raise EventConflictError(
                str(error.get("message", "sync base mismatch")),
                workflow_id=workflow_id,
            )
        raise TransientServiceError(
            f"peer {self.base_url} rejected a sync push for workflow "
            f"{workflow_id!r}: {error.get('message', 'unknown error')}"
        )
