"""Fault-injecting HTTP proxy for resilience tests and the chaos CI job.

:class:`ChaosProxy` sits between a client (usually the shard router) and
one upstream ``repro serve`` node, forwarding requests verbatim and
injecting three fault classes according to a :class:`ChaosConfig`:

* **latency** — sleep a sampled delay before forwarding;
* **error** — answer ``502 Bad Gateway`` without touching the upstream
  (the body carries ``kind="bad_gateway"`` so clients classify it as a
  node fault, not an application error);
* **drop** — forward, then truncate the response mid-body and slam the
  socket shut, which surfaces client-side as ``IncompleteRead`` /
  ``RemoteDisconnected``.

Fault decisions are **deterministic per seed**: request number ``n``
through a proxy seeded ``s`` derives its private
``random.Random(f"{s}:{n}")``, so a failing chaos run replays exactly
with the same seed regardless of thread interleaving.  Counters
(``forwarded``, ``injected_latency``, ``injected_errors``,
``injected_drops``) are exported for test assertions and the CI stats
artifact.

The proxy is transport-level only — it never parses the JSON it relays —
so it exercises precisely the failure modes the resilience layer claims
to absorb, with zero knowledge of the scheduling domain.
"""

from __future__ import annotations

import random
import socket
import sys
import threading
import urllib.error
import urllib.request
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from repro.exceptions import ServiceError
from repro.service.codec import dumps

__all__ = ["ChaosConfig", "ChaosProxy"]


@dataclass(frozen=True)
class ChaosConfig:
    """Fault mix for a :class:`ChaosProxy`.

    Probabilities are evaluated independently per request (a request can
    draw latency *and* still be dropped).  All-zero probabilities make
    the proxy a transparent relay — useful for fault-free control runs
    through identical plumbing.
    """

    seed: int = 0
    latency_prob: float = 0.0
    latency_min: float = 0.01
    latency_max: float = 0.05
    error_prob: float = 0.0
    drop_prob: float = 0.0

    def __post_init__(self) -> None:
        for name in ("latency_prob", "error_prob", "drop_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ServiceError(f"{name} must be in [0, 1], got {value}")
        if self.latency_min < 0 or self.latency_max < self.latency_min:
            raise ServiceError(
                "latency bounds must satisfy 0 <= latency_min <= latency_max"
            )


class _ChaosHandler(BaseHTTPRequestHandler):
    """Relays one request to the upstream, applying the decided faults."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True  # see ServiceRequestHandler

    @property
    def proxy(self) -> "ChaosProxy":
        return self.server.proxy  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # chaos is noisy by design; keep stderr for real diagnostics

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self._relay(None)

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        length = int(self.headers.get("Content-Length") or 0)
        self._relay(self.rfile.read(length) if length > 0 else b"")

    def _relay(self, body: bytes | None) -> None:
        proxy = self.proxy
        faults = proxy._decide()
        if faults["latency"] is not None:
            proxy.sleep(faults["latency"])
        if faults["error"]:
            payload = dumps(
                {
                    "status": "error",
                    "error": {
                        "kind": "bad_gateway",
                        "type": "ChaosInjected",
                        "message": "chaos proxy injected a 502",
                    },
                }
            ).encode("utf-8")
            self.send_response(502)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)
            return
        status, headers, reply = proxy.forward(self.path, body)
        if faults["drop"] and len(reply) > 1:
            # Advertise the full length, deliver half, kill the socket:
            # the client sees an IncompleteRead/RemoteDisconnected, the
            # exact signature of a node crashing mid-response.
            self.send_response(status)
            for name, value in headers:
                self.send_header(name, value)
            self.send_header("Content-Length", str(len(reply)))
            self.end_headers()
            self.wfile.write(reply[: len(reply) // 2])
            self.wfile.flush()
            try:
                self.connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self.close_connection = True
            return
        self.send_response(status)
        for name, value in headers:
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(reply)))
        self.end_headers()
        self.wfile.write(reply)


class ChaosProxy:
    """A fault-injecting reverse proxy in front of one upstream node.

    Use as a context manager (or call :meth:`start`/:meth:`stop`); the
    proxy listens on ``127.0.0.1:<port>`` (``port=0`` = ephemeral) and
    exposes the bound address as :attr:`base_url`.
    """

    #: Hop-by-hop headers that must not be relayed verbatim.
    _SKIP_HEADERS = frozenset(
        {"content-length", "transfer-encoding", "connection", "keep-alive"}
    )

    def __init__(
        self,
        upstream_url: str,
        config: ChaosConfig | None = None,
        *,
        port: int = 0,
        timeout: float = 30.0,
        sleep: Any = None,
    ) -> None:
        import time as _time

        self.upstream_url = upstream_url.rstrip("/")
        self.config = config or ChaosConfig()
        self.timeout = timeout
        self.sleep = sleep or _time.sleep
        self._lock = threading.Lock()
        self._requests = 0
        self._counts = {
            "forwarded": 0,
            "injected_latency": 0,
            "injected_errors": 0,
            "injected_drops": 0,
            "upstream_unreachable": 0,
        }
        self._server = ThreadingHTTPServer(("127.0.0.1", port), _ChaosHandler)
        self._server.daemon_threads = True
        self._server.proxy = self  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    @property
    def base_url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "ChaosProxy":
        if self._thread is not None:
            raise ServiceError("chaos proxy is already running")
        self._thread = threading.Thread(
            target=self._server.serve_forever, daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._server.shutdown()
        self._thread.join(timeout=5.0)
        self._server.server_close()
        self._thread = None

    def __enter__(self) -> "ChaosProxy":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # Fault engine
    # ------------------------------------------------------------------ #

    def _decide(self) -> dict[str, Any]:
        """Deterministic per-request fault draw (seed + request counter)."""
        with self._lock:
            self._requests += 1
            n = self._requests
        rng = random.Random(f"{self.config.seed}:{n}")
        latency: float | None = None
        if rng.random() < self.config.latency_prob:
            latency = rng.uniform(self.config.latency_min, self.config.latency_max)
        error = rng.random() < self.config.error_prob
        drop = not error and rng.random() < self.config.drop_prob
        with self._lock:
            if latency is not None:
                self._counts["injected_latency"] += 1
            if error:
                self._counts["injected_errors"] += 1
            if drop:
                self._counts["injected_drops"] += 1
        return {"latency": latency, "error": error, "drop": drop}

    def forward(
        self, path: str, body: bytes | None
    ) -> tuple[int, list[tuple[str, str]], bytes]:
        """Relay one request upstream → ``(status, headers, body bytes)``."""
        request = urllib.request.Request(
            f"{self.upstream_url}{path}",
            data=body if body else None,
            headers={"Content-Type": "application/json"} if body else {},
            method="POST" if body is not None else "GET",
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as reply:
                status = reply.status
                headers = self._relay_headers(reply.headers.items())
                payload = reply.read()
        except urllib.error.HTTPError as exc:
            status = exc.code
            headers = self._relay_headers(exc.headers.items())
            payload = exc.read()
        except OSError as exc:
            with self._lock:
                self._counts["upstream_unreachable"] += 1
            payload = dumps(
                {
                    "status": "error",
                    "error": {
                        "kind": "bad_gateway",
                        "type": type(exc).__name__,
                        "message": f"chaos proxy cannot reach upstream: {exc}",
                    },
                }
            ).encode("utf-8")
            return 502, [("Content-Type", "application/json")], payload
        with self._lock:
            self._counts["forwarded"] += 1
        return status, headers, payload

    def _relay_headers(self, items: Any) -> list[tuple[str, str]]:
        return [
            (name, value)
            for name, value in items
            if name.lower() not in self._SKIP_HEADERS
            and not name.lower().startswith("date")
            and not name.lower().startswith("server")
        ]

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def stats(self) -> dict[str, Any]:
        """Counter snapshot: requests seen, faults injected, forwards."""
        with self._lock:
            return {"requests": self._requests, **self._counts}


def _main(argv: list[str] | None = None) -> int:
    """`python -m repro.service.chaos UPSTREAM [--port P] [--seed S] ...`"""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro.service.chaos",
        description="fault-injecting reverse proxy for one repro serve node",
    )
    parser.add_argument("upstream", help="upstream base URL, e.g. http://127.0.0.1:8423")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--latency-prob", type=float, default=0.0)
    parser.add_argument("--latency-min", type=float, default=0.01)
    parser.add_argument("--latency-max", type=float, default=0.05)
    parser.add_argument("--error-prob", type=float, default=0.0)
    parser.add_argument("--drop-prob", type=float, default=0.0)
    args = parser.parse_args(argv)
    config = ChaosConfig(
        seed=args.seed,
        latency_prob=args.latency_prob,
        latency_min=args.latency_min,
        latency_max=args.latency_max,
        error_prob=args.error_prob,
        drop_prob=args.drop_prob,
    )
    proxy = ChaosProxy(args.upstream, config, port=args.port)
    print(
        f"repro.chaos listening on {proxy.base_url} -> {proxy.upstream_url} "
        f"(seed={config.seed}, latency={config.latency_prob:g}, "
        f"error={config.error_prob:g}, drop={config.drop_prob:g})",
        flush=True,
    )
    try:
        proxy._server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        proxy._server.server_close()
        sys.stderr.write(f"repro.chaos final stats: {dumps(proxy.stats())}\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(_main())
