"""Executor tests: pool, backpressure, timeouts, cancellation, records, percentiles."""

import threading
import time

import pytest

from repro.exceptions import (
    ServiceError,
    ServiceOverloadedError,
    ServiceTimeoutError,
)
from repro.service.executor import JobExecutor, percentile


class TestPercentile:
    def test_empty_is_none(self):
        assert percentile([], 50) is None

    def test_nearest_rank(self):
        samples = [1.0, 2.0, 3.0, 4.0]
        assert percentile(samples, 50) == 2.0
        assert percentile(samples, 95) == 4.0
        assert percentile(samples, 100) == 4.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ServiceError, match="percentile"):
            percentile([1.0], 200)


class TestBasicExecution:
    def test_submit_returns_result(self):
        with JobExecutor(lambda x: x * 2, max_workers=2, queue_size=8) as ex:
            assert ex.submit(21).result(timeout=5) == 42

    def test_submit_preserves_order(self):
        with JobExecutor(lambda x: x * 2, max_workers=4, queue_size=32) as ex:
            futures = [ex.submit(i) for i in range(10)]
            assert [f.result(timeout=5) for f in futures] == [
                i * 2 for i in range(10)
            ]

    def test_job_error_propagates(self):
        def boom(_):
            raise ValueError("nope")

        with JobExecutor(boom, max_workers=1, queue_size=4) as ex:
            with pytest.raises(ValueError, match="nope"):
                ex.submit(1).result(timeout=5)
            assert ex.stats()["failed"] == 1

    def test_submit_after_shutdown_rejected(self):
        ex = JobExecutor(lambda x: x, max_workers=1, queue_size=4)
        ex.shutdown()
        with pytest.raises(ServiceError, match="shut down"):
            ex.submit(1)

    def test_bad_configuration_rejected(self):
        with pytest.raises(ServiceError, match="max_workers"):
            JobExecutor(lambda x: x, max_workers=0)
        with pytest.raises(ServiceError, match="queue_size"):
            JobExecutor(lambda x: x, queue_size=0)
        with pytest.raises(ServiceError, match="default_timeout"):
            JobExecutor(lambda x: x, default_timeout=-1.0)


class TestBackpressure:
    def test_full_queue_raises_typed_overload(self):
        release = threading.Event()
        started = threading.Event()

        def blocker(_):
            started.set()
            release.wait(10)
            return "done"

        ex = JobExecutor(blocker, max_workers=1, queue_size=1)
        try:
            first = ex.submit("a")
            assert started.wait(5)  # the worker holds job a
            second = ex.submit("b")  # fills the single queue slot
            with pytest.raises(ServiceOverloadedError) as info:
                ex.submit("c")
            assert info.value.queue_size == 1
            assert ex.stats()["rejected"] == 1
            release.set()
            assert first.result(timeout=5) == "done"
            assert second.result(timeout=5) == "done"
        finally:
            release.set()
            ex.shutdown()

    def test_concurrent_submit_accounting_is_exact(self):
        # Regression: admission used to check queue depth and increment
        # ``submitted`` non-atomically, so a burst of concurrent submits
        # could over-admit past capacity and count rejected jobs as
        # submitted.  Hammer a tiny executor from many threads, cancelling
        # every third admitted job, and check the books balance exactly.
        barrier = threading.Barrier(8)
        accepted = []
        rejected = []
        cancelled = []
        lock = threading.Lock()

        ex = JobExecutor(lambda x: x, max_workers=2, queue_size=2)
        try:

            def hammer():
                barrier.wait(5)
                for i in range(50):
                    try:
                        future = ex.submit(i)
                    except ServiceOverloadedError:
                        with lock:
                            rejected.append(i)
                    else:
                        with lock:
                            accepted.append(future)
                            if i % 3 == 0 and future.cancel():
                                cancelled.append(future)

            threads = [threading.Thread(target=hammer) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
            assert not any(t.is_alive() for t in threads)
            ex.shutdown(drain=True)  # every queued job reaches its terminal state
            for future in accepted:
                if not future.cancelled():
                    future.result(timeout=10)

            stats = ex.stats()
            assert stats["submitted"] == len(accepted)
            assert stats["rejected"] == len(rejected)
            assert stats["cancelled"] == len(cancelled)
            assert stats["submitted"] + stats["rejected"] == 400
            terminal = (
                stats["done"]
                + stats["failed"]
                + stats["cancelled"]
                + stats["timeout"]
            )
            assert terminal == stats["submitted"]
            assert stats["active"] == 0
        finally:
            ex.shutdown()


class TestTimeouts:
    def test_slow_job_times_out(self):
        release = threading.Event()

        def slow(_):
            release.wait(10)
            return "late"

        ex = JobExecutor(slow, max_workers=1, queue_size=4)
        try:
            future = ex.submit("x", timeout=0.05)
            with pytest.raises(ServiceTimeoutError):
                future.result(timeout=5)
            assert ex.stats()["timeout"] == 1
        finally:
            release.set()
            ex.shutdown()

    def test_fast_job_beats_its_timeout(self):
        with JobExecutor(lambda x: x, max_workers=1, queue_size=4) as ex:
            assert ex.submit("x", timeout=5.0).result(timeout=5) == "x"
            assert ex.stats()["timeout"] == 0


class TestRecordsAndStats:
    def test_record_lifecycle(self):
        with JobExecutor(lambda x: x, max_workers=1, queue_size=4) as ex:
            ex.submit("x", label="unit").result(timeout=5)
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                records = [r for r in ex.records() if r.status == "done"]
                if records:
                    break
                time.sleep(0.01)
            assert records, "no finished record appeared"
            record = records[0]
            assert record.label == "unit"
            assert record.wait_time is not None and record.wait_time >= 0
            assert record.run_time is not None and record.run_time >= 0
            as_dict = record.to_dict()
            assert as_dict["status"] == "done"

    def test_annotate_hook_fills_engine_and_cache_hit(self):
        with JobExecutor(
            lambda x: {"engine": "fast", "cache_hit": False},
            max_workers=1,
            queue_size=4,
            annotate=lambda r: {"engine": r["engine"], "cache_hit": r["cache_hit"]},
        ) as ex:
            ex.submit("x").result(timeout=5)
            deadline = time.monotonic() + 5
            record = None
            while time.monotonic() < deadline:
                done = [r for r in ex.records() if r.status == "done"]
                if done:
                    record = done[0]
                    break
                time.sleep(0.01)
            assert record is not None
            assert record.engine == "fast"
            assert record.cache_hit is False

    def test_stats_latency_percentiles(self):
        with JobExecutor(lambda x: x, max_workers=2, queue_size=16) as ex:
            for future in [ex.submit(i) for i in range(8)]:
                future.result(timeout=5)
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                stats = ex.stats()
                if stats["done"] == 8:
                    break
                time.sleep(0.01)
            assert stats["submitted"] == 8
            assert stats["done"] == 8
            assert stats["latency_p50"] is not None
            assert stats["latency_p95"] >= stats["latency_p50"]
            assert stats["queue_capacity"] == 16


class TestGracefulDrain:
    def test_inflight_jobs_complete_and_are_recorded(self):
        release = threading.Event()
        started = threading.Event()

        def blocker(x):
            started.set()
            release.wait(10)
            return x * 2

        ex = JobExecutor(blocker, max_workers=1, queue_size=4)
        inflight = ex.submit(21, label="inflight")
        assert started.wait(5)
        queued = ex.submit(10, label="queued")

        drainer = threading.Thread(target=ex.shutdown, kwargs={"drain": True})
        drainer.start()
        # the drain flag flips before workers finish; give it a moment
        deadline = time.monotonic() + 5
        while not ex.draining and time.monotonic() < deadline:
            time.sleep(0.01)
        assert ex.draining
        release.set()
        drainer.join(timeout=10)
        assert not drainer.is_alive()

        # both the running and the already-queued job finished normally
        assert inflight.result(timeout=5) == 42
        assert queued.result(timeout=5) == 20
        done = {r.label: r for r in ex.records() if r.status == "done"}
        assert set(done) == {"inflight", "queued"}
        assert ex.stats()["done"] == 2

    def test_submission_during_drain_raises_typed_overload(self):
        release = threading.Event()
        started = threading.Event()

        def blocker(x):
            started.set()
            release.wait(10)
            return x

        ex = JobExecutor(blocker, max_workers=1, queue_size=4)
        try:
            ex.submit("a")
            assert started.wait(5)
            drainer = threading.Thread(target=ex.shutdown, kwargs={"drain": True})
            drainer.start()
            deadline = time.monotonic() + 5
            while not ex.draining and time.monotonic() < deadline:
                time.sleep(0.01)
            with pytest.raises(ServiceOverloadedError, match="draining"):
                ex.submit("b")
        finally:
            release.set()
        drainer.join(timeout=10)
        assert not drainer.is_alive()

    def test_timed_out_jobs_do_not_leak_worker_slots(self):
        release = threading.Event()

        def slow_then_fast(x):
            if x == "slow":
                release.wait(10)
            return x

        ex = JobExecutor(slow_then_fast, max_workers=1, queue_size=8)
        try:
            slow = ex.submit("slow", timeout=0.05)
            with pytest.raises(ServiceTimeoutError):
                slow.result(timeout=5)
            # unblock the worker; the stale computation's result is discarded
            release.set()
            # the single worker slot must be reusable afterwards
            assert ex.submit("fast").result(timeout=5) == "fast"
            stats = ex.stats()
            assert stats["timeout"] == 1
            assert stats["done"] == 1
        finally:
            release.set()
            ex.shutdown()


class TestCancellation:
    def test_job_cancelled_while_queued_never_runs(self):
        release = threading.Event()
        started = threading.Event()
        ran = []

        def blocker(x):
            ran.append(x)
            if x == "blocker":
                started.set()
                release.wait(10)
            return x

        ex = JobExecutor(blocker, max_workers=1, queue_size=4)
        try:
            first = ex.submit("blocker")
            assert started.wait(5)  # the only worker is busy
            queued = ex.submit("queued")
            assert queued.cancel()
            release.set()
            assert first.result(timeout=5) == "blocker"
            # The worker dequeues the cancelled job and must skip it.
            assert ex.submit("after").result(timeout=5) == "after"
        finally:
            release.set()
            ex.shutdown()
        assert ran == ["blocker", "after"]
        stats = ex.stats()
        assert stats["cancelled"] == 1
        assert stats["done"] == 2
        assert stats["active"] == 0
        statuses = [r.status for r in ex.records()]
        assert statuses == ["done", "cancelled", "done"]
