"""Run ``repro serve`` with span recorders around each layer's public callables.

    PYTHONPATH=src python bench/traced_serve.py --spans FILE serve --port 0 --workers 2

Everything after ``--spans FILE`` is passed to ``repro.cli.main``.  Before
the CLI runs, each traced callable is rebound on its class, or in the
module that looks it up at call time, to a wrapper that records one span
per call; nothing under ``src/`` changes.  Spans stay in memory and are
written to FILE as JSON lines when the server exits (SIGTERM drains it):

* ``{"kind": "span", "id", "parent", "layer", "fn", "start_ns", "end_ns",
  "thread", "attrs"}`` — ``parent`` is the id of the enclosing span on the
  same thread (``null`` at the top), times are ``time.monotonic_ns()``
  (the same clock the load generator reads), ``attrs`` holds counts taken
  at the boundary (cache hit, Critical-Greedy steps, batch size) or is
  ``null``;
* ``{"kind": "job", "queued_at", "started_at", "status"}`` — one per
  executor job record retained at exit (wall-clock seconds).

This module only imports ``repro`` inside :meth:`Recorder.install`, so the load
generator can import the reader functions below without side effects.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import itertools
import json
import sys
import threading
import time
from collections.abc import Callable, Iterable
from typing import Any

#: Spans that cover one request on its handler thread, end to end inside
#: the server; client latency minus their sum is the HTTP residual.
REQUEST_SPANS = frozenset(
    {"http.loads", "http.dumps", "app.solve", "app.solve_batch", "app.workflow_event"}
)


class Recorder:
    """In-memory span sink shared by every wrapper."""

    def __init__(self) -> None:
        self.spans: list[tuple[Any, ...]] = []
        self.services: list[Any] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(
        self,
        layer: str,
        name: str,
        func: Callable[..., Any],
        note: Callable[[Any], dict[str, Any]] | None = None,
    ) -> Callable[..., Any]:
        spans, ids, local = self.spans, self._ids, self._local

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            attrs = None
            start = time.monotonic_ns()
            try:
                result = func(*args, **kwargs)
                if note is not None:
                    attrs = note(result)
                return result
            finally:
                end = time.monotonic_ns()
                stack.pop()
                spans.append((span_id, parent, layer, name, start, end, threading.get_ident(), attrs))

        return traced

    def install(self) -> None:
        """Rebind every traced callable (see the module docstring)."""
        from repro.algorithms.critical_greedy import CriticalGreedyScheduler
        from repro.core.fastpath import GraphIndex
        from repro.live.iofault import LogIO
        from repro.live.state import LiveWorkflow
        from repro.live.store import LiveWorkflowManager
        from repro.service import codec, http
        from repro.service.app import SchedulingService
        from repro.service.cache import ResultCache

        targets: list[tuple[str, object, str, str, Any]] = [
            # HTTP front end: the names service/http.py looks up per request.
            ("service.http", http, "loads", "http.loads", None),
            ("service.http", http, "dumps", "http.dumps", None),
            ("service.app", SchedulingService, "solve", "app.solve", None),
            ("service.app", SchedulingService, "solve_batch", "app.solve_batch", None),
            ("service.app", SchedulingService, "workflow_event", "app.workflow_event", None),
            ("service.keys", SchedulingService, "parse_head", "keys.parse_head", None),
            ("service.codec", codec, "decode_problem", "codec.decode_problem", None),
            ("service.codec", codec, "encode_result_fragment", "codec.encode_result_fragment", None),
            ("service.cache", ResultCache, "get", "cache.get", lambda r: {"hit": r is not None}),
            (
                "algorithms.critical_greedy",
                CriticalGreedyScheduler,
                "solve",
                "cg.solve",
                lambda r: {"steps": len(r.steps)},
            ),
            (
                "algorithms.critical_greedy",
                CriticalGreedyScheduler,
                "solve_batch",
                "cg.solve_batch",
                lambda r: {"budgets": len(r)},
            ),
            ("core.fastpath", GraphIndex, "from_workflow", "fastpath.index_build", None),
            ("live.store", LiveWorkflowManager, "event", "live.event", None),
            ("live.state", LiveWorkflow, "commit", "live.commit", None),
            ("live.iofault", LogIO, "append", "live.append", None),
        ]
        for layer, owner, attr, name, note in targets:
            static = inspect.getattr_static(owner, attr)
            if isinstance(static, classmethod):
                setattr(owner, attr, classmethod(self.wrap(layer, name, static.__func__, note)))
            else:
                setattr(owner, attr, self.wrap(layer, name, getattr(owner, attr), note))

        # Keep the service so its executor's job records can be written at exit.
        init = SchedulingService.__init__

        @functools.wraps(init)
        def capturing_init(service: Any, *args: Any, **kwargs: Any) -> None:
            init(service, *args, **kwargs)
            self.services.append(service)

        SchedulingService.__init__ = capturing_init  # type: ignore[method-assign]

    def write(self, path: str) -> None:
        keys = ("id", "parent", "layer", "fn", "start_ns", "end_ns", "thread", "attrs")
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps({"kind": "span", **dict(zip(keys, span))}) + "\n")
            for service in self.services:
                for record in service.executor.records():
                    job = {
                        "kind": "job",
                        "queued_at": record.queued_at,
                        "started_at": record.started_at,
                        "status": record.status,
                    }
                    out.write(json.dumps(job) + "\n")


def read_trace(path: str) -> tuple[list[dict[str, Any]], list[dict[str, Any]]]:
    """The ``(spans, jobs)`` written by a traced server."""
    spans, jobs = [], []
    with open(path, encoding="utf-8") as lines:
        for line in lines:
            record = json.loads(line)
            (spans if record["kind"] == "span" else jobs).append(record)
    return spans, jobs


def self_times(spans: Iterable[dict[str, Any]]) -> dict[str, dict[str, float]]:
    """Per function: calls, total ms and self ms (total minus child spans).

    Children run nested on their parent's thread, so they never overlap
    one another and their durations subtract exactly.
    """
    spans = list(spans)
    child_ns: dict[int, int] = {}
    for span in spans:
        if span["parent"] is not None:
            child_ns[span["parent"]] = child_ns.get(span["parent"], 0) + span["end_ns"] - span["start_ns"]
    table: dict[str, dict[str, float]] = {}
    for span in spans:
        duration = span["end_ns"] - span["start_ns"]
        row = table.setdefault(span["fn"], {"layer": span["layer"], "calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        row["calls"] += 1
        row["total_ms"] += duration / 1e6
        row["self_ms"] += (duration - child_ns.get(span["id"], 0)) / 1e6
    return table


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="JSON-lines file written at exit")
    args, cli_argv = parser.parse_known_args(argv)
    recorder = Recorder()
    recorder.install()
    from repro.cli import main as repro_main

    try:
        return repro_main(cli_argv)
    finally:
        recorder.write(args.spans)


if __name__ == "__main__":
    sys.exit(main())
