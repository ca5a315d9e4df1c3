"""Stdlib-only HTTP server and client for the scheduling service.

Server
------
One asyncio HTTP/1.1 server answers for every node (``repro serve``)
and for the shard router (``repro route``).  :class:`HttpServer` is the
connection plumbing both share: keep-alive, ``Content-Length`` bodies,
canonical-JSON replies whose status follows from the body, and a JSON
``bad_request`` answer (``400``, ``414`` or ``431``) to a request head
it cannot parse.  :class:`ServiceServer` routes a node's requests onto
an :class:`~repro.service.aio.core.AsyncServiceCore` (memory-tier cache
probe and single-flight coalescing on the loop, every miss on the
service's executor); the router's routes are
:class:`~repro.service.router.RouterServer`.  Node routes:

===============================  ==========================================
``POST /v1/solve``                   solve one request payload
``POST /v1/solve_batch``             ``{"requests": [...]}`` → ``{"results": [...]}``
``POST /v1/workflows``               register a live workflow (idempotent)
``POST /v1/workflows/<id>/events``   apply one live event → revised plan
``GET  /v1/workflows/<id>``          live status + actual-vs-planned ledger
``GET  /v1/stats``                   cache/executor/aio counters, p50/p95
``GET  /v1/healthz``                 liveness probe (process is up)
``GET  /v1/readyz``                  readiness probe (503 once draining has begun)
===============================  ==========================================

Failure mapping: malformed payloads and infeasible budgets are ``400``,
an unknown route or workflow id is ``404``, a conflicting live event
(sequence gap or divergent replay) is ``409``, the executor's
backpressure rejection
(:class:`~repro.exceptions.ServiceOverloadedError`) is ``503`` with a
``Retry-After`` hint, and a request that outlives its deadline is
``504``.  Every body — success or error — is canonical JSON from
:func:`repro.service.codec.dumps`, which this module looks up as its own
global ``dumps`` (and ``loads`` for request bodies).

Nothing blocking runs on the loop: live-workflow routes, ``/v1/stats``
and every :class:`~repro.service.router.ShardRouter` call run on the
loop's default executor, and a cache miss reads the disk tier on its
executor job (the RT703 lint rule checks the static version of this).

:func:`serve` is the blocking entry point behind ``repro serve``: it
prints ``listening on http://host:port`` once bound, and SIGTERM or
Ctrl-C trigger the graceful drain (stop accepting, finish in-flight
jobs, flush the disk cache).  :class:`BackgroundServer` runs any
:class:`HttpServer` on a daemon thread for tests and harnesses.

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

import asyncio
import http.client
import re
import signal
import sys
import threading
import urllib.error
import urllib.request
from collections.abc import Callable, Sequence
from typing import Any, TypeVar

from repro.exceptions import (
    EventConflictError,
    ServiceError,
    TransientServiceError,
)
from repro.service.aio.core import AsyncServiceCore
from repro.service.app import ERROR_STATUS, SchedulingService, error_payload
from repro.service.codec import dumps, loads
from repro.service.resilience import RetryPolicy

__all__ = [
    "BackgroundServer",
    "HttpPeer",
    "HttpServer",
    "ServiceClient",
    "ServiceServer",
    "reply_status",
    "serve",
]

#: Longest request line or header line accepted, as the stdlib server.
MAX_LINE = 65536

#: Most header lines accepted in one request head, as the stdlib server.
MAX_HEADERS = 100

#: Live-workflow routes.  Ids are validated again by the manager; the
#: pattern here only needs to slice the path safely.
_WORKFLOW_EVENTS_RE = re.compile(r"^/v1/workflows/([A-Za-z0-9_\-]+)/events$")
_WORKFLOW_SYNC_RE = re.compile(r"^/v1/workflows/([A-Za-z0-9_\-]+)/sync$")
_WORKFLOW_STATUS_RE = re.compile(r"^/v1/workflows/([A-Za-z0-9_\-]+)$")

_T = TypeVar("_T")


def reply_status(payload: dict[str, Any]) -> int:
    """The HTTP status of a reply body: 200, or its error kind's status."""
    if payload.get("status") != "error":
        return 200
    return ERROR_STATUS.get(payload.get("error", {}).get("kind"), 400)


def readiness(ready: bool, reason: str) -> dict[str, Any]:
    """The ``/v1/readyz`` body; ``reason`` says why a not-ready one is not."""
    body: dict[str, Any] = {"status": "ok" if ready else "error", "ready": ready}
    if not ready:
        body["error"] = {"kind": "not_ready", "message": reason}
    return body


def not_found(path: str) -> dict[str, Any]:
    return {
        "status": "error",
        "error": {"kind": "not_found", "message": f"no route {path}"},
    }


def batch_requests(body: Any) -> Any:
    """The ``requests`` member of a ``/v1/solve_batch`` body (``None`` if absent)."""
    return body.get("requests") if isinstance(body, dict) else None


async def off_loop(fn: Callable[..., _T], *args: Any) -> _T:
    """``fn(*args)`` on the loop's default executor: for blocking calls."""
    return await asyncio.get_running_loop().run_in_executor(None, fn, *args)


class _BadHead(Exception):
    """A request head that cannot be parsed: answered with ``status``, then closed."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class HttpServer:
    """HTTP/1.1 on asyncio streams: the plumbing every server shares.

    Subclasses implement :meth:`respond`, which maps one request to a
    reply body (an exception becomes its :func:`error_payload`), and may
    override the :meth:`start`, :meth:`drain` and :meth:`close` hooks.
    """

    #: Prefix of the ``listening on`` and ``drained cleanly`` lines.
    name = "repro"

    def __init__(self, *, verbose: bool = False) -> None:
        self.verbose = verbose
        self._idle: set[asyncio.StreamWriter] = set()
        self._closing = False

    async def respond(self, method: str, path: str, body: bytes) -> dict[str, Any]:
        """The reply body for one request."""
        raise NotImplementedError

    async def start(self) -> None:
        """Start per-loop helpers before the first connection (none here)."""

    async def drain(self) -> None:
        """Finish in-flight work before the process exits (nothing here)."""

    async def close(self) -> None:
        """Stop the helpers :meth:`start` began (none here)."""

    @staticmethod
    def json(body: bytes) -> Any:
        """A request body parsed with the canonical codec."""
        if not body:
            raise ServiceError("request body is empty")
        return loads(body)

    # ------------------------------------------------------------------ #
    # Connections
    # ------------------------------------------------------------------ #

    async def listen(self, host: str, port: int) -> asyncio.Server:
        """Run :meth:`start`, then accept connections on ``host:port``."""
        await self.start()
        return await asyncio.start_server(self.handle, host, port, limit=MAX_LINE)

    async def shutdown(self, listener: asyncio.Server, *, drain: bool) -> None:
        """Stop accepting, optionally :meth:`drain`, close idle connections.

        A connection busy with a request finishes its reply, then closes.
        """
        listener.close()
        if drain:
            await self.drain()
        self._closing = True
        for writer in list(self._idle):
            writer.close()
        await listener.wait_closed()
        await self.close()

    async def handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One client connection: requests until it closes or asks to."""
        try:
            keep_alive = True
            while keep_alive and not self._closing:
                self._idle.add(writer)
                try:
                    head = await self._read_head(reader)
                except _BadHead as exc:
                    payload = {
                        "status": "error",
                        "error": {"kind": "bad_request", "message": str(exc)},
                    }
                    self._write(writer, exc.status, payload, False)
                    await writer.drain()
                    return
                finally:
                    self._idle.discard(writer)
                if head is None:
                    return
                method, path, keep_alive, length = head
                body = await reader.readexactly(length) if length else b""
                try:
                    payload = await self.respond(method, path, body)
                except Exception as exc:
                    payload = error_payload(exc)
                status = reply_status(payload)
                if self.verbose:
                    sys.stderr.write(f"{self.name} - {method} {path} {status}\n")
                keep_alive = keep_alive and not self._closing
                self._write(writer, status, payload, keep_alive)
                await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError):
            pass  # client vanished mid-request; nothing to answer
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    @staticmethod
    async def _read_head(
        reader: asyncio.StreamReader,
    ) -> tuple[str, str, bool, int] | None:
        """``(method, path, keep_alive, content_length)``; ``None`` at end of stream."""
        try:
            line = await reader.readline()
        except ValueError:  # no line end within MAX_LINE bytes
            raise _BadHead(414, "request line is too long") from None
        if not line:
            return None
        parts = line.decode("latin-1").split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise _BadHead(400, f"malformed request line {line[:80]!r}")
        method, path, version = parts
        headers: dict[str, str] = {}
        for _ in range(MAX_HEADERS + 1):
            try:
                line = await reader.readline()
            except ValueError:
                raise _BadHead(431, "header line is too long") from None
            if line in (b"\r\n", b"\n", b""):
                break
            name, colon, value = line.decode("latin-1").partition(":")
            if not colon:
                raise _BadHead(400, f"malformed header line {line[:80]!r}")
            headers[name.strip().lower()] = value.strip()
        else:
            raise _BadHead(431, f"more than {MAX_HEADERS} header lines")
        try:
            length = int(headers.get("content-length") or 0)
        except ValueError:
            length = -1
        if length < 0:
            raise _BadHead(400, "Content-Length is not a non-negative integer")
        keep_alive = (
            version.upper() == "HTTP/1.1"
            and headers.get("connection", "").lower() != "close"
        )
        return method.upper(), path, keep_alive, length

    @staticmethod
    def _write(
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict[str, Any],
        keep_alive: bool,
    ) -> None:
        body = dumps(payload).encode("utf-8")
        head = [
            f"HTTP/1.1 {status} {http.client.responses.get(status, 'OK')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
        ]
        if status == 503:
            head.append("Retry-After: 1")
        head.append(f"Connection: {'keep-alive' if keep_alive else 'close'}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body)


class ServiceServer(HttpServer):
    """A node's routes, over an :class:`AsyncServiceCore` for its service.

    ``default_timeout`` is the core's: a per-waiter deadline on
    ``/v1/solve``, a per-job one on ``/v1/solve_batch``.
    """

    name = "repro.service"

    def __init__(
        self,
        service: SchedulingService,
        *,
        default_timeout: float | None = None,
        verbose: bool = False,
    ) -> None:
        super().__init__(verbose=verbose)
        self.service = service
        self.core = AsyncServiceCore(service, default_timeout=default_timeout)

    async def start(self) -> None:
        await self.core.start()

    async def drain(self) -> None:
        await self.core.drain()

    async def close(self) -> None:
        await self.core.aclose()

    async def respond(self, method: str, path: str, body: bytes) -> dict[str, Any]:
        service = self.service
        if method == "GET":
            if path == "/v1/healthz":
                return {"status": "ok"}
            if path == "/v1/readyz":
                return readiness(service.ready, "service is draining")
            if path == "/v1/stats":
                return {"status": "ok", "stats": await off_loop(self.core.stats)}
            if (match := _WORKFLOW_SYNC_RE.match(path)) is not None:
                return await off_loop(service.workflow_sync_pull, match.group(1))
            if (match := _WORKFLOW_STATUS_RE.match(path)) is not None:
                return await off_loop(service.workflow_status, match.group(1))
        elif method == "POST":
            if path == "/v1/solve":
                return await self.core.solve(self.json(body))
            if path == "/v1/solve_batch":
                results = await self.core.solve_batch(batch_requests(self.json(body)))
                return {"results": results, "status": "ok"}
            if path == "/v1/workflows":
                return await off_loop(service.register_workflow, self.json(body))
            if (match := _WORKFLOW_EVENTS_RE.match(path)) is not None:
                return await off_loop(
                    service.workflow_event, match.group(1), self.json(body)
                )
            if (match := _WORKFLOW_SYNC_RE.match(path)) is not None:
                return await off_loop(
                    service.workflow_sync_push, match.group(1), self.json(body)
                )
        return not_found(path)


# ---------------------------------------------------------------------- #
# Entry points
# ---------------------------------------------------------------------- #


def run_server(server: HttpServer, *, host: str, port: int, details: str) -> int:
    """Serve until SIGTERM or Ctrl-C, then drain; returns the exit code.

    Prints ``<name> listening on http://host:port (<details>)`` once the
    port is bound (fleet tooling scrapes the port from it) and
    ``<name> drained cleanly`` on the way out.
    """

    async def main() -> int:
        listener = await server.listen(host, port)
        bound_host, bound_port = listener.sockets[0].getsockname()[:2]
        print(
            f"{server.name} listening on http://{bound_host}:{bound_port} ({details})",
            flush=True,
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # not the main thread or not unix: rely on KeyboardInterrupt
        try:
            await stop.wait()
        finally:
            await server.shutdown(listener, drain=True)
            print(f"{server.name} drained cleanly", flush=True)
        return 0

    try:
        return asyncio.run(main())
    except KeyboardInterrupt:
        return 0


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

    ``default_timeout`` is a deadline per waiter: a ``/v1/solve`` waiter
    that outlives it gets a 504 (or the degraded answer) while the solve
    runs on and still fills the cache; a ``/v1/solve_batch`` job carries
    it as its own timeout.  ``live_peers`` are sibling base URLs the
    live-workflow log replicates to (and heals from).
    """
    # Executor jobs for /v1/solve run without a timer, so a solve outlives
    # a waiter that gave up; the core enforces the deadline per waiter.
    service = SchedulingService(
        max_workers=max_workers,
        queue_size=queue_size,
        cache_size=cache_size,
        cache_dir=cache_dir,
        degrade_on_timeout=degrade_on_timeout,
        live_dir=live_dir,
        live_node=f"{host}:{port}",
        live_peers=[HttpPeer(url) for url in live_peers],
        live_checkpoint_interval=live_checkpoint_interval,
        live_retention=live_retention,
    )
    server = ServiceServer(service, default_timeout=default_timeout, verbose=verbose)
    details = (
        f"workers={max_workers}, queue={queue_size}, cache={cache_size}"
        + (f", cache_dir={cache_dir}" if cache_dir else "")
        + (f", live_dir={live_dir}" if live_dir else "")
        + (f", live_peers={len(live_peers)}" if live_peers else "")
        + (", degrade_on_timeout" if degrade_on_timeout else "")
    )
    return run_server(server, host=host, port=port, details=details)


class BackgroundServer:
    """An :class:`HttpServer` on its own event loop in a daemon thread.

    For tests and harnesses: binds ``127.0.0.1`` on an ephemeral port,
    exposes :attr:`base_url`, and stops on :meth:`stop` without a drain —
    the caller owns the service or router behind the server.
    """

    def __init__(self, server: HttpServer) -> None:
        self.server = server
        self.port: int | None = None
        self._ready = threading.Event()
        self._failure: BaseException | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._thread = threading.Thread(
            target=self._run, name=f"{server.name}-loop", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=10.0):
            raise ServiceError("background server failed to start within 10s")
        if self._failure is not None:
            raise ServiceError(
                f"background server failed to start: {self._failure}"
            ) from self._failure

    @property
    def base_url(self) -> str:
        return f"http://127.0.0.1:{self.port}"

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # noqa: B036  # lint: ignore[RS602] - raised by starter
            self._failure = exc
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        listener = await self.server.listen("127.0.0.1", 0)
        self.port = listener.sockets[0].getsockname()[1]
        self._stop = asyncio.Event()
        self._ready.set()
        try:
            await self._stop.wait()
        finally:
            await self.server.shutdown(listener, drain=False)

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=10.0)

    def __enter__(self) -> "BackgroundServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


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
