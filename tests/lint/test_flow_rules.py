"""Seeded-violation fixtures for the deep flow rules (RT7xx / RN8xx).

Every test builds a small project tree under ``tmp_path`` (flow rules
scope by directory: ``service/`` for the concurrency rules, the
bit-identity modules for RN801/RN802, ``experiments/``+``sim/`` for
RN803) and runs the real deep pipeline through ``lint_source_tree``.

The two ``TestSeededFault*`` classes are the acceptance drills from the
issue: take the *real* ``repro/service/cache.py`` and strip one ``with
self._lock:`` block (RT701 must catch it), and reorder a float
accumulation in a bit-identity ``core/fastpath.py`` module (RN801 must
catch it).
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import repro
from repro.lint import lint_source_tree

REAL_PACKAGE = Path(repro.__file__).resolve().parent


def deep_lint(tmp_path, files):
    """Write ``{relpath: source}`` under tmp_path and deep-lint the tree."""
    for relpath, source in files.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
    return lint_source_tree([tmp_path], deep=True)


def rules_of(report):
    return [d.rule for d in report]


class TestRT701LockDiscipline:
    def test_unlocked_write_to_guarded_attr(self, tmp_path):
        report = deep_lint(
            tmp_path,
            {
                "service/store.py": """\
                import threading

                __all__ = ["Store"]


                class Store:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._items = []

                    def add(self, item):
                        with self._lock:
                            self._items.append(item)

                    def drop_all(self):
                        self._items = []
                """
            },
        )
        hits = [d for d in report if d.rule == "RT701"]
        assert len(hits) == 1
        assert "_items" in hits[0].message
        assert "drop_all" in hits[0].message

    def test_fully_locked_class_is_clean(self, tmp_path):
        report = deep_lint(
            tmp_path,
            {
                "service/store.py": """\
                import threading

                __all__ = ["Store"]


                class Store:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._items = []

                    def add(self, item):
                        with self._lock:
                            self._items.append(item)

                    def snapshot(self):
                        with self._lock:
                            return list(self._items)
                """
            },
        )
        assert "RT701" not in rules_of(report)

    def test_locked_suffix_methods_are_caller_holds_lock(self, tmp_path):
        report = deep_lint(
            tmp_path,
            {
                "service/store.py": """\
                import threading

                __all__ = ["Store"]


                class Store:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._items = []

                    def add(self, item):
                        with self._lock:
                            self._add_locked(item)

                    def _add_locked(self, item):
                        self._items.append(item)
                """
            },
        )
        assert "RT701" not in rules_of(report)

    def test_outside_service_package_is_out_of_scope(self, tmp_path):
        report = deep_lint(
            tmp_path,
            {
                "core/store.py": """\
                import threading

                __all__ = ["Store"]


                class Store:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._items = []

                    def add(self, item):
                        with self._lock:
                            self._items.append(item)

                    def drop_all(self):
                        self._items = []
                """
            },
        )
        assert "RT701" not in rules_of(report)


class TestRT702LockOrder:
    def test_opposite_nesting_order_is_a_cycle(self, tmp_path):
        report = deep_lint(
            tmp_path,
            {
                "service/pair.py": """\
                import threading

                __all__ = ["Pair"]


                class Pair:
                    def __init__(self):
                        self._a = threading.Lock()
                        self._b = threading.Lock()

                    def forward(self):
                        with self._a:
                            with self._b:
                                pass

                    def backward(self):
                        with self._b:
                            with self._a:
                                pass
                """
            },
        )
        hits = [d for d in report if d.rule == "RT702"]
        assert hits, "opposite lock nesting must produce a cycle finding"
        assert any("_a" in d.message and "_b" in d.message for d in hits)

    def test_consistent_order_is_clean(self, tmp_path):
        report = deep_lint(
            tmp_path,
            {
                "service/pair.py": """\
                import threading

                __all__ = ["Pair"]


                class Pair:
                    def __init__(self):
                        self._a = threading.Lock()
                        self._b = threading.Lock()

                    def forward(self):
                        with self._a:
                            with self._b:
                                pass

                    def also_forward(self):
                        with self._a:
                            with self._b:
                                pass
                """
            },
        )
        assert "RT702" not in rules_of(report)

    def test_self_deadlock_through_a_call(self, tmp_path):
        # Re-acquiring a non-reentrant Lock via a method called while
        # holding it — the exact shape of the executor bug this rule
        # found in service/executor.py.
        report = deep_lint(
            tmp_path,
            {
                "service/ex.py": """\
                import threading

                __all__ = ["Ex"]


                class Ex:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._n = 0

                    def submit(self):
                        with self._lock:
                            self._reject()

                    def _reject(self):
                        with self._lock:
                            self._n += 1
                """
            },
        )
        hits = [d for d in report if d.rule == "RT702"]
        assert hits, "lock re-acquisition through a call must be reported"

    def test_rlock_reacquisition_is_allowed(self, tmp_path):
        report = deep_lint(
            tmp_path,
            {
                "service/ex.py": """\
                import threading

                __all__ = ["Ex"]


                class Ex:
                    def __init__(self):
                        self._lock = threading.RLock()
                        self._n = 0

                    def submit(self):
                        with self._lock:
                            self._reject()

                    def _reject(self):
                        with self._lock:
                            self._n += 1
                """
            },
        )
        assert "RT702" not in rules_of(report)


class TestRT703BlockingOnHandlerPath:
    def test_sleep_reachable_from_do_get(self, tmp_path):
        report = deep_lint(
            tmp_path,
            {
                "service/http.py": """\
                import time
                from http.server import BaseHTTPRequestHandler

                __all__ = ["Handler"]


                class Handler(BaseHTTPRequestHandler):
                    def do_GET(self):
                        self._work()

                    def _work(self):
                        time.sleep(1.0)
                """
            },
        )
        hits = [d for d in report if d.rule == "RT703"]
        assert len(hits) == 1
        assert "time.sleep" in hits[0].message
        assert "do_GET" in hits[0].message  # the call chain names the entry

    def test_blocking_outside_handler_reach_is_clean(self, tmp_path):
        report = deep_lint(
            tmp_path,
            {
                "service/http.py": """\
                import time
                from http.server import BaseHTTPRequestHandler

                __all__ = ["Handler", "offline_work"]


                class Handler(BaseHTTPRequestHandler):
                    def do_GET(self):
                        pass


                def offline_work():
                    time.sleep(1.0)
                """
            },
        )
        assert "RT703" not in rules_of(report)

    def test_untimeouted_future_result_flagged(self, tmp_path):
        report = deep_lint(
            tmp_path,
            {
                "service/http.py": """\
                from http.server import BaseHTTPRequestHandler

                __all__ = ["Handler"]


                class Handler(BaseHTTPRequestHandler):
                    def do_POST(self):
                        return self.job.result()
                """
            },
        )
        assert "RT703" in rules_of(report)


class TestRT703AsyncioHandlerPath:
    """Seeded-fault drills for the asyncio extension of RT703.

    Blocking primitives reachable from ``async def`` functions are
    findings with "an asyncio handler path" wording, and files under
    ``service/aio/`` escalate them to errors.
    """

    def test_sleep_reachable_from_async_def_is_error_under_aio(self, tmp_path):
        report = deep_lint(
            tmp_path,
            {
                "service/aio/core.py": """\
                import time

                __all__ = ["handle"]


                async def handle(request):
                    return _work(request)


                def _work(request):
                    time.sleep(1.0)
                    return request
                """
            },
        )
        hits = [d for d in report if d.rule == "RT703"]
        assert len(hits) == 1
        assert "time.sleep" in hits[0].message
        assert "an asyncio handler path" in hits[0].message
        assert "handle" in hits[0].message  # the call chain names the entry
        assert str(hits[0].severity) == "error"

    def test_async_path_outside_aio_stays_warning(self, tmp_path):
        report = deep_lint(
            tmp_path,
            {
                "service/worker.py": """\
                import time

                __all__ = ["tick"]


                async def tick():
                    time.sleep(0.5)
                """
            },
        )
        hits = [d for d in report if d.rule == "RT703"]
        assert len(hits) == 1
        assert "an asyncio handler path" in hits[0].message
        assert str(hits[0].severity) == "warning"

    def test_untimeouted_future_result_in_async_def_flagged(self, tmp_path):
        report = deep_lint(
            tmp_path,
            {
                "service/aio/core.py": """\
                __all__ = ["gather"]


                async def gather(job):
                    return job.result()
                """
            },
        )
        hits = [d for d in report if d.rule == "RT703"]
        assert len(hits) == 1
        assert "an asyncio handler path" in hits[0].message
        assert str(hits[0].severity) == "error"

    def test_blocking_unreachable_from_async_def_is_clean(self, tmp_path):
        report = deep_lint(
            tmp_path,
            {
                "service/aio/tools.py": """\
                import time

                __all__ = ["warm_cache"]


                async def probe():
                    return 1


                def warm_cache():
                    time.sleep(1.0)
                """
            },
        )
        assert "RT703" not in rules_of(report)

    def test_sync_handler_wording_wins_on_shared_sites(self, tmp_path):
        # Baseline stability: a site reachable from BOTH a do_* handler
        # and an async def keeps the original HTTP-path wording (the
        # sync traversal runs first), so existing baseline entries do
        # not churn when async reach appears.
        report = deep_lint(
            tmp_path,
            {
                "service/http.py": """\
                import time
                from http.server import BaseHTTPRequestHandler

                __all__ = ["Handler", "refresh"]


                class Handler(BaseHTTPRequestHandler):
                    def do_GET(self):
                        _work()


                async def refresh():
                    _work()


                def _work():
                    time.sleep(1.0)
                """
            },
        )
        hits = [d for d in report if d.rule == "RT703"]
        assert len(hits) == 1
        assert "an HTTP handler path" in hits[0].message
        assert "an asyncio handler path" not in hits[0].message

    def test_lint_pragma_suppresses_async_finding(self, tmp_path):
        report = deep_lint(
            tmp_path,
            {
                "service/aio/core.py": """\
                __all__ = ["gather"]


                async def gather(job):
                    return job.result()  # lint: ignore[RT703] - done task
                """
            },
        )
        assert "RT703" not in rules_of(report)


class TestRN801ReductionOrder:
    def test_sum_over_dict_values_in_bit_identity_module(self, tmp_path):
        report = deep_lint(
            tmp_path,
            {
                "core/fastpath.py": """\
                __all__ = ["total"]


                def total(costs):
                    return sum(costs.values())
                """
            },
        )
        hits = [d for d in report if d.rule == "RN801"]
        assert len(hits) == 1

    def test_sorted_wrapper_pins_the_order(self, tmp_path):
        report = deep_lint(
            tmp_path,
            {
                "core/fastpath.py": """\
                __all__ = ["total"]


                def total(costs):
                    return sum(costs[k] for k in sorted(costs))
                """
            },
        )
        assert "RN801" not in rules_of(report)

    def test_ordinary_module_is_out_of_scope(self, tmp_path):
        report = deep_lint(
            tmp_path,
            {
                "analysis/tables.py": """\
                __all__ = ["total"]


                def total(costs):
                    return sum(costs.values())
                """
            },
        )
        assert "RN801" not in rules_of(report)

    def test_axis_wise_sum_over_batched_grid(self, tmp_path):
        report = deep_lint(
            tmp_path,
            {
                "core/fastpath.py": """\
                __all__ = ["fold_rows"]


                def fold_rows(grid):
                    return grid.sum(axis=1)
                """
            },
        )
        hits = [d for d in report if d.rule == "RN801"]
        assert len(hits) == 1
        assert "axis" in hits[0].message

    def test_np_mean_with_axis_tuple(self, tmp_path):
        report = deep_lint(
            tmp_path,
            {
                "algorithms/batch.py": """\
                import numpy as np

                __all__ = ["fold"]


                def fold(dt3):
                    return np.mean(dt3, axis=(1, 2))
                """
            },
        )
        hits = [d for d in report if d.rule == "RN801"]
        assert len(hits) == 1

    def test_positional_axis_is_recognized(self, tmp_path):
        report = deep_lint(
            tmp_path,
            {
                "core/fastpath.py": """\
                __all__ = ["fold_rows"]


                def fold_rows(grid):
                    return grid.prod(0)
                """
            },
        )
        assert "RN801" in rules_of(report)

    def test_exact_batched_reductions_are_clean(self, tmp_path):
        # Exact, order-independent folds across a grid axis:
        # max/min/any/argmax.
        report = deep_lint(
            tmp_path,
            {
                "core/fastpath.py": """\
                import numpy as np

                __all__ = ["sweep_rows"]


                def sweep_rows(ready, cand, valid3):
                    best = ready.max(axis=1)
                    latest = cand.min(axis=1)
                    pick = np.argmax(ready == best[:, None], axis=1)
                    guard = np.any(valid3, axis=(1, 2))
                    return best, latest, pick, guard
                """
            },
        )
        assert "RN801" not in rules_of(report)

    def test_full_reduction_without_axis_is_clean(self, tmp_path):
        # A 1-D contiguous .sum() has a pinned (single-pass pairwise)
        # order already covered by the strided-slice check; no axis, no
        # batch dimension, no new finding.
        report = deep_lint(
            tmp_path,
            {
                "core/fastpath.py": """\
                __all__ = ["total"]


                def total(values):
                    return values.sum()
                """
            },
        )
        assert "RN801" not in rules_of(report)


class TestRN802DictOrderAccumulation:
    def test_augmented_accumulation_over_items(self, tmp_path):
        report = deep_lint(
            tmp_path,
            {
                "algorithms/acc.py": """\
                __all__ = ["fold"]


                def fold(meds):
                    total = 0.0
                    for name, med in meds.items():
                        total += med
                    return total
                """
            },
        )
        hits = [d for d in report if d.rule == "RN802"]
        assert len(hits) == 1

    def test_sorted_items_is_clean(self, tmp_path):
        report = deep_lint(
            tmp_path,
            {
                "algorithms/acc.py": """\
                __all__ = ["fold"]


                def fold(meds):
                    total = 0.0
                    for name, med in sorted(meds.items()):
                        total += med
                    return total
                """
            },
        )
        assert "RN802" not in rules_of(report)


class TestRN803UnseededRandomness:
    def test_zero_arg_default_rng_in_experiments(self, tmp_path):
        report = deep_lint(
            tmp_path,
            {
                "experiments/run.py": """\
                import numpy as np

                __all__ = ["draw"]


                def draw():
                    return np.random.default_rng().random()
                """
            },
        )
        assert "RN803" in rules_of(report)

    def test_seeded_default_rng_is_clean(self, tmp_path):
        report = deep_lint(
            tmp_path,
            {
                "experiments/run.py": """\
                import numpy as np

                __all__ = ["draw"]


                def draw(seed):
                    return np.random.default_rng(seed).random()
                """
            },
        )
        assert "RN803" not in rules_of(report)

    def test_module_level_random_in_sim(self, tmp_path):
        report = deep_lint(
            tmp_path,
            {
                "sim/jitter.py": """\
                import random

                __all__ = ["jitter"]


                def jitter():
                    return random.random()
                """
            },
        )
        assert "RN803" in rules_of(report)

    def test_outside_experiment_dirs_is_out_of_scope(self, tmp_path):
        report = deep_lint(
            tmp_path,
            {
                "analysis/jitter.py": """\
                import random

                __all__ = ["jitter"]


                def jitter():
                    return random.random()
                """
            },
        )
        assert "RN803" not in rules_of(report)


# --------------------------------------------------------------------- #
# Acceptance drills: seeded faults in copies of the real sources
# --------------------------------------------------------------------- #


def _strip_first_lock_block(text: str) -> str:
    """Remove the first ``with self._lock:`` block header, dedenting its body.

    The textual equivalent of a developer deleting the ``with`` line and
    re-indenting — the body stays, the protection goes.
    """
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        stripped = line.strip()
        if stripped != "with self._lock:":
            continue
        indent = len(line) - len(line.lstrip())
        out = lines[:i]
        j = i + 1
        while j < len(lines):
            body = lines[j]
            if body.strip() and (len(body) - len(body.lstrip())) <= indent:
                break
            out.append(body[4:] if body.strip() else body)
            j += 1
        out.extend(lines[j:])
        return "".join(out)
    raise AssertionError("no 'with self._lock:' block found to strip")


class TestSeededFaultCacheLock:
    """Acceptance: drop one lock block in the real cache.py → RT701."""

    def test_pristine_copy_has_no_rt701(self, tmp_path):
        source = (REAL_PACKAGE / "service" / "cache.py").read_text()
        report = deep_lint(tmp_path, {"service/cache.py": source})
        assert "RT701" not in rules_of(report)

    def test_stripped_lock_is_caught(self, tmp_path):
        source = (REAL_PACKAGE / "service" / "cache.py").read_text()
        report = deep_lint(
            tmp_path, {"service/cache.py": _strip_first_lock_block(source)}
        )
        hits = [d for d in report if d.rule == "RT701"]
        assert hits, "removing a lock block from cache.py must trip RT701"
        assert any("_lock" in d.message for d in hits)


class TestSeededFaultFastpathOrder:
    """Acceptance: reorder a float accumulation in core/fastpath.py → RN801."""

    def test_ordered_reduction_is_clean(self, tmp_path):
        report = deep_lint(
            tmp_path,
            {
                "core/fastpath.py": """\
                __all__ = ["fold_spans"]


                def fold_spans(spans):
                    return sum(spans[n] for n in sorted(spans))
                """
            },
        )
        assert "RN801" not in rules_of(report)

    def test_reordered_reduction_is_caught(self, tmp_path):
        # The same reduction folded straight off the dict view: value-
        # identical only if insertion order happens to match, so the
        # bit-identity contract of core/fastpath.py rejects it.
        report = deep_lint(
            tmp_path,
            {
                "core/fastpath.py": """\
                __all__ = ["fold_spans"]


                def fold_spans(spans):
                    return sum(spans.values())
                """
            },
        )
        assert "RN801" in rules_of(report)


class TestSeededFaultBatchedAxisFold:
    """Acceptance: order-sensitive fold across a grid axis → RN801.

    The drill takes a *real* bit-identity module (the exhaustive
    solver, whose per-module time minima reduce the TE grid with the
    exact ``te.min(axis=1)``) and swaps that exact fold for a mean — the
    textual equivalent of a refactor averaging across the grid.  The
    bit-identity contract must reject the order-sensitive fold while
    accepting the pristine module.
    """

    PRISTINE = "min_time = te.min(axis=1)"
    FAULTY = "min_time = te.mean(axis=1)"

    def test_pristine_copy_has_no_rn801(self, tmp_path):
        source = (REAL_PACKAGE / "algorithms" / "exhaustive.py").read_text()
        assert self.PRISTINE in source
        report = deep_lint(tmp_path, {"algorithms/exhaustive.py": source})
        assert "RN801" not in rules_of(report)

    def test_order_sensitive_batch_fold_is_caught(self, tmp_path):
        source = (REAL_PACKAGE / "algorithms" / "exhaustive.py").read_text()
        report = deep_lint(
            tmp_path,
            {"algorithms/exhaustive.py": source.replace(self.PRISTINE, self.FAULTY, 1)},
        )
        hits = [d for d in report if d.rule == "RN801"]
        assert hits, "an axis-wise mean across the grid must trip RN801"
        assert any("axis" in d.message for d in hits)
