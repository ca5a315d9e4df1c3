"""End-to-end HTTP benchmark of ``repro serve``, with a traced per-layer breakdown.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                         [--out FILE] [--quick]

For each workload (all four unless ``--workload`` names one) it boots the
server as a user does (``python -m repro serve --port 0 --workers 2``, plus
``--live-dir`` for live-events) three times and keeps the last, drives it
from this process with at most two threads and two connections, checks
every answer, and prints each end-to-end metric with its unit and sample
count.  While it does, ``probe.py`` times a fixed CPU burst, and times
are scaled to a reference host speed (:func:`slowdown`).  ``--trace 1``
adds a second pass against ``bench/traced_serve.py`` and prints the
per-layer metrics plus a self-time table.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics of ``BENCHMARK.json``, or its per-layer
metrics with ``--trace 1``).  The run length is always ``run_seconds`` of
``BENCHMARK.json`` (1 s with ``--quick``); ``--seconds`` is accepted only
with that value, because the ``command`` of ``BENCHMARK.json`` is called
as ``--workload W --seed N --seconds <run_seconds> --trace 0|1``.  The exit
code is 1 when any answer is wrong and 2 on bad arguments or without
``src/repro``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from loadgen import Probe, Request, Sample, Server, send, server_env
from traced_serve import REQUEST_SPANS, Recorder, read_trace, self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORK = BENCH / "_work"

#: Server launches per pass; ``setup_s`` is their median.
SETUPS = 3
#: Measured seconds per pass of ``--quick``; otherwise ``run_seconds``.
QUICK_SECONDS = 1.0
#: Thread CPU seconds of one ``probe.py`` burst at the reference host speed:
#: the fast state of the 2-core Xeon box the bounds were set on.
REFERENCE_BURST_S = 0.0012
SERVE = ["serve", "--port", "0", "--workers", "2"]
DEFAULT_SEED = 20130801


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (0.0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100 * len(ordered))) - 1]


def environment() -> dict[str, Any]:
    """Where and on what the run happened; warns when the box is already busy."""
    import numpy

    sha = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            sha = done.stdout.strip() if done.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    affinity = sorted(os.sched_getaffinity(0))
    load = os.getloadavg()
    env = {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "loadavg": list(load),
        "load_above_nproc": load[0] > len(affinity),
    }
    if env["load_above_nproc"]:
        print(
            f"warning: load average {load[0]:.2f} is above the {len(affinity)} usable CPUs; "
            "numbers from this run are suspect",
            file=sys.stderr,
        )
    return env


@dataclass
class PassResult:
    #: Each set-up's ``(start, end)`` in monotonic ns, and every probe burst
    #: (none in a traced pass).
    setups_ns: list[tuple[int, int]]
    bursts: list[tuple[int, float]]
    warm_up: list[Sample]
    outcome: Any
    failures: list[str]
    rss_mb: float
    stats: tuple[dict[str, Any], dict[str, Any]]
    window_ns: tuple[int, int]
    window_wall: tuple[float, float]
    spans: list[dict[str, Any]] = field(default_factory=list)
    jobs: list[dict[str, Any]] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.warm_up) + len(self.outcome.samples)

    @property
    def failed(self) -> int:
        return sum(not s.ok for s in [*self.warm_up, *self.outcome.samples])


def _stats(port: int) -> dict[str, Any]:
    return json.loads(send(port, Request("GET", "/v1/stats")).body)["stats"]


def run_pass(workload: Any, *, traced: bool, setups: int, work: Path) -> PassResult:
    """Set the server up ``setups`` times (keeping the last), then time one pass."""
    spans_path = WORK / f"{workload.name}.spans.jsonl"
    setups_ns: list[tuple[int, int]] = []
    discarded: list[Sample] = []
    failures: list[str] = []
    probe = None if traced else Probe(str(BENCH / "probe.py"), str(work / "probe.txt"))
    for attempt in range(setups):
        argv = list(SERVE)
        if workload.live:
            argv += ["--live-dir", str(work / f"live-{'traced' if traced else 'plain'}-{attempt}")]
        if traced:
            command = [sys.executable, str(BENCH / "traced_serve.py"), "--spans", str(spans_path), *argv]
        else:
            command = [sys.executable, "-m", "repro", *argv]
        launched = time.monotonic_ns()
        server = Server(command, env=server_env(str(SRC)), cwd=str(ROOT))
        try:
            server.wait_ready()
            warm = workload.warm_up(server.port)
        except BaseException:
            server.stop()
            if probe is not None:
                probe.stop()
            raise
        setups_ns.append((launched, time.monotonic_ns()))
        if attempt < setups - 1:
            code = server.stop()
            if code != 0:
                failures.append(f"set-up {attempt + 1}: server exited with code {code}")
            discarded.extend(warm)
    failures += [f"set-up {s.tag!r}: HTTP status {s.status}" for s in discarded if not s.ok]
    try:
        before = _stats(server.port)
        gc.collect()
        window = (time.monotonic_ns(), time.time())
        outcome = workload.drive(server.port)
        window_end = (time.monotonic_ns(), time.time())
        after = _stats(server.port)
        rss = server.peak_rss_mb()
        failures += workload.check(server.port, warm, outcome)
    finally:
        code = server.stop()
        bursts = probe.stop() if probe is not None else []
    if code != 0:
        failures.append(f"server exited with code {code}")
    result = PassResult(
        setups_ns, bursts, discarded + warm, outcome, failures, rss, (before, after),
        (window[0], window_end[0]), (window[1], window_end[1]),
    )
    if traced:
        result.spans, result.jobs = read_trace(str(spans_path))
    return result


def slowdown(bursts: list[tuple[int, float]], start_ns: int, end_ns: int) -> tuple[float, int]:
    """The host's slowdown over an interval, and the probe bursts it rests on.

    It is the median burst time inside the interval (the whole pass when
    none falls inside) over :data:`REFERENCE_BURST_S`; 1.0 is the reference
    speed.
    """
    inside = [spent for t, spent in bursts if start_ns <= t <= end_ns] or [spent for _, spent in bursts]
    return statistics.median(inside) / REFERENCE_BURST_S, len(inside)


def end_to_end(result: PassResult) -> dict[str, tuple[float, str, int]]:
    """Every end-to-end metric: name -> (value, unit, sample count).

    Times and closed-loop throughput are scaled to the reference host speed
    (see :func:`slowdown`); the unscaled values are kept as ``raw.*``.  An
    open loop's throughput is its offered rate, so it is not scaled.
    """
    outcome = result.outcome
    latency = [x * 1e3 for x in outcome.latency]
    slow, bursts = slowdown(result.bursts, *result.window_ns)
    setup_raw = [(end - start) / 1e9 for start, end in result.setups_ns]
    setups = [t / slowdown(result.bursts, *span)[0] for t, span in zip(setup_raw, result.setups_ns)]
    throughput = outcome.items / outcome.elapsed
    raw = {
        "setup_s": (statistics.median(setup_raw), "s", len(setup_raw)),
        "latency_p50_ms": (percentile(latency, 50), "ms", len(latency)),
        "latency_p90_ms": (percentile(latency, 90), "ms", len(latency)),
        "latency_p99_ms": (percentile(latency, 99), "ms", len(latency)),
        "throughput_items_per_s": (throughput, "items/s", outcome.items),
    }
    return {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "latency_p50_ms": (raw["latency_p50_ms"][0] / slow, "ms", len(latency)),
        "latency_p90_ms": (raw["latency_p90_ms"][0] / slow, "ms", len(latency)),
        "latency_p99_ms": (raw["latency_p99_ms"][0] / slow, "ms", len(latency)),
        "throughput_items_per_s": (
            throughput if outcome.open_loop else throughput * slow, "items/s", outcome.items
        ),
        "error_rate": (result.failed / result.attempted, "ratio", result.attempted),
        "server_rss_mb": (result.rss_mb, "MiB", 1),
        "host_slowdown": (slow, "x", bursts),
        **{f"raw.{name}": value for name, value in raw.items()},
    }


def _delta(result: PassResult, *path: str) -> float:
    values = []
    for stats in result.stats:
        for key in path:
            stats = stats.get(key, {}) if isinstance(stats, dict) else {}
        values.append(stats if isinstance(stats, (int, float)) else 0)
    return values[1] - values[0]


def span_cost_ns(calls: int = 20000) -> float:
    """Nanoseconds one span recorder adds to a call, timed here around a no-op."""

    def noop() -> None:
        return None

    traced = Recorder().wrap("harness", "noop", noop)
    elapsed = []
    for func in (noop, traced, noop, traced):
        start = time.perf_counter_ns()
        for _ in range(calls):
            func()
        elapsed.append(time.perf_counter_ns() - start)
    return max(0.0, (elapsed[1] + elapsed[3] - elapsed[0] - elapsed[2]) / (2 * calls))


def layer_metrics(result: PassResult) -> dict[str, tuple[float, str, int]]:
    """Every per-layer metric of a traced pass: name -> (value, unit, sample count)."""
    t0, t1 = result.window_ns
    by_fn: dict[str, list[dict[str, Any]]] = defaultdict(list)
    for span in result.spans:
        if t0 <= span["start_ns"] <= t1:
            by_fn[span["fn"]].append(span)

    def calls(fn: str) -> int:
        return len(by_fn[fn])

    def total_ms(fn: str) -> float:
        return sum(s["end_ns"] - s["start_ns"] for s in by_fn[fn]) / 1e6

    def attr_sum(fn: str, key: str) -> float:
        return sum(s["attrs"][key] for s in by_fn[fn])

    def per(value: float, count: float) -> float:
        return value / count if count else 0.0

    def mean_ms(fn: str) -> tuple[float, str, int]:
        return per(total_ms(fn), calls(fn)), "ms", calls(fn)

    outcome = result.outcome
    samples = outcome.samples
    items = outcome.items
    client_ms = sum(s.service_time for s in samples) * 1e3
    in_server_ms = sum(total_ms(fn) for fn in REQUEST_SPANS)
    hits = sum(1 for s in by_fn["cache.get"] if s["attrs"]["hit"])
    steps = attr_sum("cg.solve", "steps")
    budgets = attr_sum("cg.solve_batch", "budgets")
    wall0, wall1 = result.window_wall
    jobs = [j for j in result.jobs if wall0 <= j["queued_at"] <= wall1]
    waits = [(j["started_at"] - j["queued_at"]) * 1e3 for j in jobs if j["started_at"] is not None]
    spans = sum(len(v) for v in by_fn.values())
    return {
        "http.residual_ms_per_item": (per(client_ms - in_server_ms, items), "ms", items),
        "http.request_kb_per_item": (per(sum(s.request_bytes for s in samples) / 1024, items), "kB", items),
        "codec.loads_ms_per_req": mean_ms("http.loads"),
        "codec.decode_problem_calls_per_item": (per(calls("codec.decode_problem"), items), "count", items),
        "codec.decode_problem_ms_per_call": mean_ms("codec.decode_problem"),
        "codec.encode_ms_per_item": (
            per(total_ms("codec.encode_result_fragment") + total_ms("http.dumps"), items), "ms", items
        ),
        "keys.parse_head_ms_per_call": mean_ms("keys.parse_head"),
        "cache.hit_ratio": (per(hits, calls("cache.get")), "ratio", calls("cache.get")),
        "cache.get_ms_per_call": mean_ms("cache.get"),
        "executor.queue_wait_ms_p50": (percentile(waits, 50), "ms", len(waits)),
        "executor.queue_wait_ms_p99": (percentile(waits, 99), "ms", len(waits)),
        "executor.rejected": (sum(j["status"] == "rejected" for j in jobs), "count", len(jobs)),
        "app.batch_grouped_items_ratio": (per(_delta(result, "batch", "grouped_items"), items), "ratio", items),
        "aio.coalesced": (_delta(result, "aio", "coalesced"), "count", 1),
        "aio.batched_items": (_delta(result, "aio", "batched_items"), "count", 1),
        "cg.solve_ms_per_call": mean_ms("cg.solve"),
        "cg.steps_per_solve": (per(steps, calls("cg.solve")), "count", calls("cg.solve")),
        "cg.ms_per_step": (per(total_ms("cg.solve"), steps), "ms", int(steps)),
        "cg.solve_batch_ms_per_budget": (per(total_ms("cg.solve_batch"), budgets), "ms", int(budgets)),
        "fastpath.index_builds_per_item": (per(calls("fastpath.index_build"), items), "count", items),
        "fastpath.index_build_ms_per_call": mean_ms("fastpath.index_build"),
        "live.event_ms_per_event": mean_ms("live.event"),
        "live.commit_ms_per_event": mean_ms("live.commit"),
        "live.revisions": (_delta(result, "live", "revisions"), "count", calls("live.commit")),
        "live.append_ms_per_call": mean_ms("live.append"),
        # Spans recorded x what one recorder costs, over the traced request time.
        "trace.overhead_pct": (per(100 * spans * span_cost_ns() / 1e6, client_ms), "%", spans),
    }


def print_metrics(workload: str, metrics: dict[str, tuple[float, str, int]]) -> None:
    for name, (value, unit, count) in metrics.items():
        note = ""
        if name == "latency_p99_ms" and count < 1000:
            note = "  (fewer than 1000 samples: informational)"
        elif name == "latency_p90_ms" and count < 100:
            note = "  (fewer than 100 samples: informational)"
        print(f"  {workload:<12} {name:<38} {value:>14.4f} {unit:<8} n={count}{note}")


def print_self_times(result: PassResult, items: int) -> None:
    t0, t1 = result.window_ns
    table = self_times(s for s in result.spans if t0 <= s["start_ns"] <= t1)
    print(f"  {'layer':<28} {'span':<30} {'calls':>7} {'total ms/item':>14} {'self ms/item':>13}")
    for fn, row in sorted(table.items(), key=lambda kv: -kv[1]["self_ms"]):
        print(
            f"  {row['layer']:<28} {fn:<30} {row['calls']:>7} "
            f"{row['total_ms'] / max(items, 1):>14.4f} {row['self_ms'] / max(items, 1):>13.4f}"
        )


def _records(metrics: dict[str, tuple[float, str, int]]) -> dict[str, dict[str, Any]]:
    return {name: {"value": value, "unit": unit, "n": n} for name, (value, unit, n) in metrics.items()}


def run_workload(
    spec: dict[str, Any], seed: int, seconds: float, size: tuple[int, int, int], trace: bool, work: Path
) -> dict[str, Any]:
    from workloads import WORKLOADS

    name = spec["name"]
    workload = WORKLOADS[name](seed, seconds, size)
    report: dict[str, Any] = {"manifest": workload.manifest()}
    print(f"== {name}: {workload.describe()}", flush=True)
    print(f"   why: {spec['why']}")
    print(f"   inputs: seed {seed}, size {size}, manifest sha256:{report['manifest']}")

    plain = run_pass(workload, traced=False, setups=SETUPS, work=work)
    metrics = end_to_end(plain)
    print_metrics(name, metrics)
    if plain.outcome.open_loop:
        late = [(s.sent - s.due) * 1e3 for s in plain.outcome.samples]
        print(f"   open-loop generator lateness: p50 {percentile(late, 50):.3f} ms, max {max(late):.3f} ms")
    passes = [plain]
    report["end_to_end"] = _records(metrics)

    if trace:
        traced = run_pass(workload, traced=True, setups=1, work=work)
        layers = layer_metrics(traced)
        print(f"-- {name}: traced pass (spans in {WORK.relative_to(ROOT)}/{name}.spans.jsonl)")
        print_metrics(name, layers)
        print_self_times(traced, traced.outcome.items)
        passes.append(traced)
        report["per_layer"] = _records(layers)

    failures = [f for p in passes for f in p.failures]
    for failure in failures[:20]:
        print(f"   WRONG: {failure}", file=sys.stderr)
    report["correct"] = not failures
    report["attempted"] = sum(p.attempted for p in passes)
    report["failed"] = sum(p.failed for p in passes)
    print(f"   correctness: {'ok' if not failures else f'{len(failures)} wrong answers'}", flush=True)
    return report


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=int, default=None, help="must equal run_seconds of BENCHMARK.json (the only run length)"
    )
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1), help="1 adds a traced pass")
    parser.add_argument("--out", type=Path, default=None, help="append this run as one JSON line")
    parser.add_argument("--quick", action="store_true", help="small problems, 1 s passes (self-test)")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: {SRC / 'repro'} not found; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    sys.path.insert(0, str(SRC))
    from workloads import PAPER_SIZE, QUICK_SIZE

    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    if args.seconds is not None and args.seconds != spec["run_seconds"]:
        print(f"error: --seconds must be run_seconds = {spec['run_seconds']} of BENCHMARK.json", file=sys.stderr)
        return 2
    chosen = [w for w in spec["workloads"] if args.workload in (None, w["name"])]
    seconds = QUICK_SECONDS if args.quick else float(spec["run_seconds"])
    size = QUICK_SIZE if args.quick else PAPER_SIZE

    env = environment()
    print(
        f"env: git {env['git_sha']}, python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
        f"affinity {env['affinity']}, loadavg {env['loadavg'][0]:.2f}"
    )
    work = WORK / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        reports = {
            w["name"]: run_workload(w, args.seed, seconds, size, bool(args.trace), work) for w in chosen
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for name, report in reports.items():
        values = report["per_layer" if args.trace else "end_to_end"]
        for metric in wanted:
            key = metric["name"] if len(reports) == 1 else f"{name}.{metric['name']}"
            metrics[key] = {"value": values[metric["name"]]["value"], "unit": values[metric["name"]]["unit"]}
    correct = all(r["correct"] for r in reports.values())
    if args.out is not None:
        record = {
            "env": env, "seed": args.seed, "seconds": seconds, "size": list(size),
            "trace": bool(args.trace), "workloads": reports,
        }
        with args.out.open("a", encoding="utf-8") as out:
            out.write(json.dumps(record) + "\n")
    result = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reports.values()),
        "failed": sum(r["failed"] for r in reports.values()),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
