"""Asyncio HTTP front-end for the service core (``repro serve --async``).

Same surface as the threaded front-end (:mod:`repro.service.http`) —
identical routes, identical status mapping, identical canonical-JSON
bodies — but requests ride the event loop through
:class:`~repro.service.aio.core.AsyncServiceCore` instead of occupying a
thread each, so duplicate requests coalesce.  Differences visible on
the wire:

* ``POST /v1/solve_batch`` answers with ``Transfer-Encoding: chunked``
  and streams each result item as its slot converges.  The concatenated
  chunks are byte-identical to the threaded body
  (``dumps({"results": [...], "status": "ok"})``), so any HTTP/1.1
  client — including the stdlib ones — decodes the same bytes.
* ``GET /v1/stats`` carries the extra ``aio`` section (coalescing and
  loop-lag figures) and the async core's ``executor`` counters.

Live-workflow endpoints do blocking log I/O, so they run on the default
executor — never on the loop (the RT703 lint rule enforces the static
version of this rule for every handler in this package).

:func:`serve_async` is the blocking entry point; it prints the same
``listening on http://host:port`` line as the threaded server so fleet
tooling (the chaos harness, ``scripts/``) can scrape the bound port
without caring which core answers.  :class:`BackgroundAsyncServer` runs
the whole stack on a daemon thread for tests and benchmarks.
"""

from __future__ import annotations

import asyncio
import http.client
import signal
import sys
import threading
from collections.abc import AsyncIterator, Sequence
from typing import Any

from repro.exceptions import ServiceError
from repro.service.app import SchedulingService, error_payload
from repro.service.aio.core import AsyncServiceCore
from repro.service.codec import dumps, loads
from repro.service.http import (
    HttpPeer,
    _status_for,
    _WORKFLOW_EVENTS_RE,
    _WORKFLOW_STATUS_RE,
    _WORKFLOW_SYNC_RE,
)

__all__ = ["AsyncServiceServer", "BackgroundAsyncServer", "serve_async"]


def _chunk(data: bytes) -> bytes:
    """One HTTP/1.1 chunked-transfer frame."""
    return f"{len(data):X}\r\n".encode("latin-1") + data + b"\r\n"


class AsyncServiceServer:
    """Routes HTTP requests on asyncio streams onto an async core."""

    def __init__(self, core: AsyncServiceCore, *, verbose: bool = False) -> None:
        self.core = core
        self.verbose = verbose

    @property
    def service(self) -> SchedulingService:
        return self.core.service

    # ------------------------------------------------------------------ #
    # Connection plumbing
    # ------------------------------------------------------------------ #

    async def handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One client connection: HTTP/1.1 with keep-alive."""
        try:
            keep_alive = True
            while keep_alive:
                request_line = await reader.readline()
                if not request_line:
                    return
                try:
                    method, path, version = (
                        request_line.decode("latin-1").split()
                    )
                except ValueError:
                    return  # malformed request line: drop the connection
                headers: dict[str, str] = {}
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = line.decode("latin-1").partition(":")
                    headers[name.strip().lower()] = value.strip()
                try:
                    length = int(headers.get("content-length") or 0)
                except ValueError:
                    length = 0
                body = await reader.readexactly(length) if length > 0 else b""
                keep_alive = (
                    version.upper() == "HTTP/1.1"
                    and headers.get("connection", "").lower() != "close"
                )
                if self.verbose:
                    sys.stderr.write(f"aio - {method} {path}\n")
                await self._dispatch(method.upper(), path, body, writer, keep_alive)
                await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError):
            pass  # client vanished mid-request; nothing to answer
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _send(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict[str, Any],
        *,
        keep_alive: bool,
        retry_after: bool = False,
    ) -> None:
        body = dumps(payload).encode("utf-8")
        reason = http.client.responses.get(status, "OK")
        head = [
            f"HTTP/1.1 {status} {reason}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
        ]
        if retry_after:
            head.append("Retry-After: 1")
        head.append(f"Connection: {'keep-alive' if keep_alive else 'close'}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body)

    def _send_error_payload(
        self, writer: asyncio.StreamWriter, exc: BaseException, keep_alive: bool
    ) -> None:
        status = _status_for(exc)
        self._send(
            writer,
            status,
            error_payload(exc),
            keep_alive=keep_alive,
            retry_after=status == 503,
        )

    def _not_found(
        self, writer: asyncio.StreamWriter, path: str, keep_alive: bool
    ) -> None:
        self._send(
            writer,
            404,
            {
                "status": "error",
                "error": {"kind": "not_found", "message": f"no route {path}"},
            },
            keep_alive=keep_alive,
        )

    @staticmethod
    def _body(raw: bytes) -> Any:
        if not raw:
            raise ServiceError("request body is empty")
        return loads(raw)

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #

    async def _dispatch(
        self,
        method: str,
        path: str,
        body: bytes,
        writer: asyncio.StreamWriter,
        keep_alive: bool,
    ) -> None:
        loop = asyncio.get_running_loop()
        if method == "GET":
            if path == "/v1/healthz":
                self._send(writer, 200, {"status": "ok"}, keep_alive=keep_alive)
            elif path == "/v1/readyz":
                ready = self.service.ready
                self._send(
                    writer,
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
                    keep_alive=keep_alive,
                    retry_after=not ready,
                )
            elif path == "/v1/stats":
                self._send(
                    writer,
                    200,
                    {"status": "ok", "stats": self.core.stats()},
                    keep_alive=keep_alive,
                )
            elif (match := _WORKFLOW_SYNC_RE.match(path)) is not None:
                try:
                    response = await loop.run_in_executor(
                        None, self.service.workflow_sync_pull, match.group(1)
                    )
                except Exception as exc:
                    self._send_error_payload(writer, exc, keep_alive)
                    return
                self._send(writer, 200, response, keep_alive=keep_alive)
            elif (match := _WORKFLOW_STATUS_RE.match(path)) is not None:
                try:
                    response = await loop.run_in_executor(
                        None, self.service.workflow_status, match.group(1)
                    )
                except Exception as exc:
                    self._send_error_payload(writer, exc, keep_alive)
                    return
                self._send(writer, 200, response, keep_alive=keep_alive)
            else:
                self._not_found(writer, path, keep_alive)
            return

        if method != "POST":
            self._not_found(writer, path, keep_alive)
            return
        try:
            if path == "/v1/solve":
                response = await self.core.solve(self._body(body))
            elif path == "/v1/solve_batch":
                stream = self.core.solve_batch_stream(
                    self._body(body).get("requests")
                )
                await self._send_batch(writer, stream, keep_alive)
                return
            elif path == "/v1/workflows":
                response = await loop.run_in_executor(
                    None, self.service.register_workflow, self._body(body)
                )
            elif (match := _WORKFLOW_EVENTS_RE.match(path)) is not None:
                payload = self._body(body)
                response = await loop.run_in_executor(
                    None, self.service.workflow_event, match.group(1), payload
                )
            elif (match := _WORKFLOW_SYNC_RE.match(path)) is not None:
                payload = self._body(body)
                response = await loop.run_in_executor(
                    None, self.service.workflow_sync_push, match.group(1), payload
                )
            else:
                self._not_found(writer, path, keep_alive)
                return
        except Exception as exc:
            self._send_error_payload(writer, exc, keep_alive)
            return
        self._send(writer, 200, response, keep_alive=keep_alive)

    async def _send_batch(
        self,
        writer: asyncio.StreamWriter,
        stream: AsyncIterator[dict[str, Any]],
        keep_alive: bool,
    ) -> None:
        """Stream ``/v1/solve_batch`` results item-by-item (chunked).

        The concatenated chunks are exactly
        ``dumps({"results": [...], "status": "ok"})`` — canonical JSON
        sorts ``results`` before ``status``, so the envelope splits into
        a literal prefix, comma-joined items and a literal suffix.
        """
        head = [
            "HTTP/1.1 200 OK",
            "Content-Type: application/json",
            "Transfer-Encoding: chunked",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
        writer.write(_chunk(b'{"results":['))
        await writer.drain()
        first = True
        async for item in stream:
            piece = dumps(item).encode("utf-8")
            if not first:
                piece = b"," + piece
            first = False
            writer.write(_chunk(piece))
            await writer.drain()
        writer.write(_chunk(b'],"status":"ok"}') + b"0\r\n\r\n")
        await writer.drain()


# ---------------------------------------------------------------------- #
# Entry points
# ---------------------------------------------------------------------- #


def serve_async(
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
    live_fsync: bool = True,
    live_peers: Sequence[str] = (),
    live_checkpoint_interval: int = 0,
    live_retention: float | None = None,
    verbose: bool = False,
) -> int:
    """Blocking asyncio server loop behind ``repro serve --async``.

    Same lifecycle contract as the threaded :func:`repro.service.http.serve`:
    the listening line is printed once the port is bound, SIGTERM/Ctrl-C
    trigger the graceful drain (readiness drops, in-flight jobs finish,
    the disk cache flushes) and ``drained cleanly`` is printed on the way
    out.
    """
    service = SchedulingService(
        max_workers=max_workers,
        queue_size=queue_size,
        cache_size=cache_size,
        cache_dir=cache_dir,
        default_timeout=default_timeout,
        degrade_on_timeout=degrade_on_timeout,
        live_dir=live_dir,
        live_fsync=live_fsync,
        live_node=f"{host}:{port}",
        live_peers=[HttpPeer(url) for url in live_peers],
        live_checkpoint_interval=live_checkpoint_interval,
        live_retention=live_retention,
    )

    async def _main() -> int:
        core = AsyncServiceCore(
            service,
            max_workers=max_workers,
            queue_size=queue_size,
            default_timeout=default_timeout,
        )
        await core.start()
        handler = AsyncServiceServer(core, verbose=verbose)
        server = await asyncio.start_server(handler.handle, host, port)
        bound_host, bound_port = server.sockets[0].getsockname()[:2]
        print(
            f"repro.service listening on http://{bound_host}:{bound_port} "
            f"(workers={max_workers}, queue={queue_size}, cache={cache_size}"
            + (f", cache_dir={cache_dir}" if cache_dir else "")
            + (f", live_dir={live_dir}" if live_dir else "")
            + (f", live_peers={len(live_peers)}" if live_peers else "")
            + ("" if live_fsync else ", live_fsync=off (UNSAFE)")
            + (", degrade_on_timeout" if degrade_on_timeout else "")
            + ", async"
            + ")",
            flush=True,
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, ValueError):
                pass  # non-unix loop or embedded use; rely on KeyboardInterrupt
        try:
            await stop.wait()
        finally:
            server.close()
            await server.wait_closed()
            await core.drain()
            await core.aclose()
            print("repro.service drained cleanly", flush=True)
        return 0

    try:
        return asyncio.run(_main())
    except KeyboardInterrupt:
        return 0


class BackgroundAsyncServer:
    """An async node on a daemon thread, for tests and benchmarks.

    Binds an ephemeral port, exposes :attr:`base_url` and the live
    :attr:`core`, and tears the loop down on :meth:`stop`.  The wrapped
    service is *not* closed — the caller owns it.
    """

    def __init__(self, service: SchedulingService, **core_kwargs: Any) -> None:
        self.service = service
        self._core_kwargs = core_kwargs
        self._ready = threading.Event()
        self._failure: BaseException | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self.core: AsyncServiceCore | None = None
        self.port: int | None = None
        self._thread = threading.Thread(
            target=self._run, name="repro-aio-server", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=10.0):
            raise ServiceError("async server failed to start within 10s")
        if self._failure is not None:
            raise ServiceError(
                f"async server failed to start: {self._failure}"
            ) from self._failure

    @property
    def base_url(self) -> str:
        return f"http://127.0.0.1:{self.port}"

    def _run(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:  # noqa: B036  # lint: ignore[RS602] - raised by starter
            self._failure = exc
            self._ready.set()

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        self.core = AsyncServiceCore(self.service, **self._core_kwargs)
        await self.core.start()
        handler = AsyncServiceServer(self.core)
        server = await asyncio.start_server(handler.handle, "127.0.0.1", 0)
        self.port = server.sockets[0].getsockname()[1]
        self._stop = asyncio.Event()
        self._ready.set()
        try:
            await self._stop.wait()
        finally:
            server.close()
            await server.wait_closed()
            await self.core.aclose()

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=10.0)

    def __enter__(self) -> "BackgroundAsyncServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
