"""AsyncServiceCore end-to-end: parity with the serial service, coalescing
counters, backpressure, per-waiter timeouts, the batch endpoint.

The Hypothesis class is the acceptance property: any interleaving of
duplicate and near-duplicate solve requests through the coalescer and
the solver pool produces responses byte-identical to serial ``solve()``.
"""

import asyncio
import dataclasses
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.serialize import problem_to_dict
from repro.exceptions import (
    InfeasibleBudgetError,
    ServiceOverloadedError,
    ServiceTimeoutError,
)
from repro.service.aio.core import AsyncServiceCore
from repro.service.app import SchedulingService
from repro.service.codec import dumps
from tests.conftest import medcc_problems


def run(coro):
    return asyncio.run(coro)


async def with_core(body, *, service=None, **core_kwargs):
    """Run ``body(service, core)`` around a fresh service + async core."""
    svc = service or SchedulingService(max_workers=2, queue_size=8, cache_size=64)
    core = AsyncServiceCore(svc, **core_kwargs)
    try:
        return await body(svc, core)
    finally:
        await core.aclose()
        svc.close()


@pytest.fixture
def payload(example_problem):
    return {"problem": problem_to_dict(example_problem), "budget": 57.0}


class TestSolveParity:
    def test_single_solve_matches_serial(self, example_problem, payload):
        with SchedulingService(max_workers=1, queue_size=4, cache_size=8) as ref:
            serial = ref.solve(dict(payload))

        async def body(svc, core):
            return await core.solve(payload)

        response = run(with_core(body))
        assert response["status"] == "ok"
        assert dumps(response["result"]) == dumps(serial["result"])

    def test_permuted_twin_catalog_solves_on_its_own_order(self, twin_catalogs):
        # Same problem_hash, other catalog order: the miss must be solved
        # on its own payload, not on the problem decoded for the first.
        first, second = twin_catalogs
        with SchedulingService(max_workers=1, queue_size=4, cache_size=8) as fresh:
            expected = fresh.solve({"problem": second, "budget": 60.0})

        async def body(svc, core):
            await core.solve({"problem": first, "budget": 57.0})
            return await core.solve({"problem": second, "budget": 60.0})

        response = run(with_core(body))
        assert "zz_twin" in expected["result"]["schedule"]["assignment"].values()
        assert dumps(response) == dumps(expected)

    def test_permuted_twin_catalogs_solved_concurrently(self, twin_catalogs):
        requests = [
            {"problem": problem, "budget": budget}
            for problem, budget in zip(twin_catalogs, (57.0, 60.0))
        ]
        with SchedulingService(max_workers=1, queue_size=4, cache_size=8) as fresh:
            serial = [dumps(fresh.solve(r)) for r in requests]

        async def body(svc, core):
            responses = await asyncio.gather(*(core.solve(r) for r in requests))
            return responses, core.stats()["aio"]

        responses, aio = run(with_core(body))
        assert aio["flights_started"] == 2
        assert [dumps(r) for r in responses] == serial

    def test_replay_is_cache_hit(self, payload):
        async def body(svc, core):
            first = await core.solve(payload)
            second = await core.solve(payload)
            return first, second

        first, second = run(with_core(body))
        assert first["cache_hit"] is False
        assert second["cache_hit"] is True
        assert dumps(first["result"]) == dumps(second["result"])

    def test_concurrent_duplicates_coalesce(self, payload):
        async def body(svc, core):
            responses = await asyncio.gather(*(core.solve(payload) for _ in range(6)))
            return responses, core.stats()

        responses, stats = run(with_core(body))
        blobs = {dumps(r["result"]) for r in responses}
        assert len(blobs) == 1
        assert stats["aio"]["flights_started"] == 1
        assert stats["aio"]["coalesced"] == 5
        assert stats["executor"]["submitted"] == 1
        assert stats["executor"]["done"] == 1
        assert stats["executor"]["active"] == 0

    def test_concurrent_near_duplicates_match_serial(self, payload):
        budgets = [48.0, 57.0, 70.0, 95.0]

        async def body(svc, core):
            responses = await asyncio.gather(
                *(core.solve(dict(payload, budget=b)) for b in budgets)
            )
            return responses, core.stats()

        responses, stats = run(with_core(body))
        assert [r["status"] for r in responses] == ["ok"] * len(budgets)
        # Distinct keys: one flight and one pool job each, no coalescing.
        assert stats["aio"]["flights_started"] == len(budgets)
        assert stats["aio"]["coalesced"] == 0
        assert stats["executor"]["submitted"] == len(budgets)
        assert stats["executor"]["done"] == len(budgets)

        # Byte parity against serial single solves of the same budgets.
        with SchedulingService(max_workers=1, queue_size=8, cache_size=8) as ref:
            for budget, response in zip(budgets, responses):
                serial = ref.solve(dict(payload, budget=budget))
                assert dumps(response["result"]) == dumps(serial["result"])


class _GatedScheduler:
    """Holds its worker until ``gate`` opens, then solves for real."""

    def __init__(self, scheduler, gate, started):
        self.scheduler = scheduler
        self.gate = gate
        self.started = started

    def solve(self, problem, budget):
        self.started.set()
        assert self.gate.wait(10)
        return self.scheduler.solve(problem, budget)


class TestBackpressureAndTimeouts:
    def test_overload_rejected_with_typed_error(self, payload):
        svc = SchedulingService(max_workers=1, queue_size=1, cache_size=8)
        gate, started = threading.Event(), threading.Event()
        # Fill the service's executor: one job holds the only worker,
        # a second takes the only queue slot.
        fillers = []
        for budget in (60.0, 65.0):
            keyed = svc.parse_head(dict(payload, budget=budget))
            gated = _GatedScheduler(keyed.scheduler, gate, started)
            job = dataclasses.replace(keyed, scheduler=gated)
            fillers.append(svc.executor.submit(job))
            assert started.wait(5)

        async def body(svc, core):
            try:
                with pytest.raises(ServiceOverloadedError):
                    await core.solve(payload)
            finally:
                gate.set()
            for filler in fillers:
                await asyncio.wrap_future(filler)
            return core.stats()

        stats = run(with_core(body, service=svc))
        assert stats["executor"]["rejected"] == 1
        # The rejected miss is not counted as submitted.
        assert stats["executor"]["submitted"] == len(fillers)
        assert stats["executor"]["done"] == len(fillers)

    def test_follower_timeout_does_not_cancel_solve(self, payload):
        async def body(svc, core):
            leader = asyncio.ensure_future(core.solve(payload))
            await asyncio.sleep(0)  # leader opens the flight
            with pytest.raises(ServiceTimeoutError):
                await core.solve(dict(payload, timeout=0.0001))
            response = await leader  # solve keeps running for the leader
            return response, core.stats()

        response, stats = run(with_core(body))
        assert response["status"] == "ok"
        assert stats["aio"]["waiter_timeouts"] == 1
        assert stats["aio"]["coalesced"] == 1  # the follower joined the flight
        assert stats["executor"]["done"] == 1
        assert stats["executor"]["cancelled"] == 0

    def test_failed_miss_fails_alone(self, payload):
        async def body(svc, core):
            outcomes = await asyncio.gather(
                core.solve(dict(payload, budget=57.0)),
                core.solve(dict(payload, budget=1.0)),  # below Cmin
                core.solve(dict(payload, budget=70.0)),
                return_exceptions=True,
            )
            return outcomes, core.stats()

        (good, bad, other), stats = run(with_core(body))
        assert isinstance(bad, InfeasibleBudgetError)
        assert good["status"] == other["status"] == "ok"
        assert stats["executor"]["submitted"] == 3
        assert stats["executor"]["done"] == 2
        assert stats["executor"]["failed"] == 1
        assert stats["executor"]["active"] == 0

    def test_draining_core_rejects_new_work(self, payload):
        async def body(svc, core):
            await core.drain()
            with pytest.raises(ServiceOverloadedError):
                await core.solve(payload)
            return core.stats()

        stats = run(with_core(body))
        assert stats["ready"] is False


class TestBatchStream:
    """``/v1/solve_batch`` on the core against the in-process ``solve_batch``."""

    def test_stream_matches_threaded_batch(self, payload):
        items = [
            dict(payload, budget=57.0),
            dict(payload, budget=57.0),  # duplicate of the first
            dict(payload, budget=70.0),
            {"problem": payload["problem"]},  # missing budget: per-item error
        ]

        with SchedulingService(max_workers=1, queue_size=8, cache_size=8) as ref:
            in_process = ref.solve_batch([dict(item) for item in items])

        async def body(svc, core):
            return await core.solve_batch([dict(item) for item in items]), core.stats()

        served, stats = run(with_core(body))
        assert len(served) == len(in_process)
        for ours, theirs in zip(served, in_process):
            assert ours["status"] == theirs["status"]
            if theirs["status"] == "ok":
                assert dumps(ours["result"]) == dumps(theirs["result"])
            else:
                assert ours["error"]["kind"] == theirs["error"]["kind"]
        assert served[1]["deduped"] is True
        assert "deduped" not in served[0]
        assert stats["batch"]["deduped"] >= 1

    def test_misses_on_one_payload_run_as_one_grouped_job(self, payload):
        # The async endpoint plans through the in-process solve_batch's
        # planner: three budgets of one payload are one executor job.
        items = [dict(payload, budget=b) for b in (52.0, 57.0, 64.0)]
        with SchedulingService(max_workers=1, queue_size=8, cache_size=8) as ref:
            in_process = [dumps(r) for r in ref.solve_batch([dict(i) for i in items])]
        with SchedulingService(max_workers=1, queue_size=8, cache_size=8) as ref:
            serial = [dumps(ref.solve(dict(i))) for i in items]

        async def body(svc, core):
            responses = await core.solve_batch([dict(i) for i in items])
            return [dumps(item) for item in responses], core.stats()

        served, stats = run(with_core(body))
        assert stats["batch"] == {"deduped": 0, "grouped_items": 3, "grouped_runs": 1}
        assert stats["executor"]["submitted"] == 1
        assert served == in_process == serial

    @pytest.mark.parametrize("degrade", [False, True])
    def test_item_held_past_its_timeout(self, payload, degrade):
        """A held grouped job times out on its own deadline: every item
        answers ``timeout``, or the degraded least-cost schedule —
        byte-identical to the in-process solve_batch under the same hold."""
        items = [dict(payload, budget=b, timeout=0.05) for b in (57.0, 64.0)]

        def held_service():
            svc = SchedulingService(
                max_workers=1, queue_size=8, cache_size=8, degrade_on_timeout=degrade
            )
            gate, solve = threading.Event(), svc.executor._fn

            def held(job):
                assert gate.wait(10)
                return solve(job)

            svc.executor._fn = held
            return svc, gate

        ref, ref_gate = held_service()
        try:
            in_process = [dumps(r) for r in ref.solve_batch([dict(i) for i in items])]
        finally:
            ref_gate.set()
            ref.close()

        svc, gate = held_service()

        async def body(svc, core):
            try:
                return await core.solve_batch([dict(i) for i in items]), core.stats()
            finally:
                gate.set()

        served, stats = run(with_core(body, service=svc))
        if degrade:
            assert all(r["degraded"] is True for r in served)
            assert all(r["result"]["engine"] == "degraded" for r in served)
            assert stats["degraded"] == 2
        else:
            assert [r["error"]["kind"] for r in served] == ["timeout", "timeout"]
        assert [dumps(r) for r in served] == in_process
        # The deadline is the job's, as in the in-process solve_batch.
        assert stats["executor"]["timeout"] == 1
        assert stats["batch"]["grouped_runs"] == 1

    def test_non_array_body_raises_before_streaming(self, payload):
        async def body(svc, core):
            with pytest.raises(Exception, match="must be an array"):
                await core.solve_batch({"oops": True})
            return svc.executor.stats()["submitted"] == 0

        assert run(with_core(body))


class TestStatsShape:
    def test_aio_section_and_executor_shape(self, payload):
        async def body(svc, core):
            await core.start()
            await core.solve(payload)
            await asyncio.sleep(0.3)  # let the lag monitor sample
            return core.stats()

        stats = run(with_core(body))
        aio = stats["aio"]
        for key in (
            "coalesced",
            "flights_started",
            "flights_inflight",
            "waiter_timeouts",
            "loop_lag_p50",
            "loop_lag_p95",
        ):
            assert key in aio
        assert not any(key.startswith("batch") for key in aio)
        assert aio["flights_inflight"] == 0
        assert aio["loop_lag_p95"] is not None
        assert stats["problems"] == {
            "entries": 1,
            "decoded": 1,
            "hash_hits": 0,
            "hash_misses": 1,
            "decode_hits": 0,
            "decode_misses": 1,
        }
        executor = stats["executor"]
        for key in (
            "submitted",
            "done",
            "failed",
            "timeout",
            "rejected",
            "cancelled",
            "active",
            "latency_p50",
            "latency_p95",
            "queue_capacity",
        ):
            assert key in executor


class TestInterleavingProperty:
    """Acceptance property: coalesced + pooled ≡ serial, byte for byte."""

    @given(
        data=st.data(),
        problem=medcc_problems(max_modules=5, max_types=3),
    )
    @settings(max_examples=8, deadline=None)
    def test_any_interleaving_matches_serial(self, data, problem):
        payload = problem_to_dict(problem)
        budgets = data.draw(
            st.lists(
                st.sampled_from([5.0, 50.0, 500.0, 5000.0]),
                min_size=2,
                max_size=6,
            )
        )
        requests = [{"problem": payload, "budget": b} for b in budgets]

        # Serial reference on a fresh, independent service.
        reference = []
        with SchedulingService(max_workers=1, queue_size=8, cache_size=32) as ref:
            for request in requests:
                try:
                    reference.append(("ok", dumps(ref.solve(dict(request))["result"])))
                except Exception as exc:
                    reference.append(("error", type(exc).__name__))

        async def body(svc, core):
            tasks = [
                asyncio.ensure_future(core.solve(dict(request)))
                for request in requests
            ]
            return await asyncio.gather(*tasks, return_exceptions=True)

        service = SchedulingService(max_workers=2, queue_size=32, cache_size=64)
        outcomes = run(with_core(body, service=service))
        for expected, outcome in zip(reference, outcomes):
            if expected[0] == "ok":
                assert isinstance(outcome, dict), outcome
                assert dumps(outcome["result"]) == expected[1]
            else:
                assert isinstance(outcome, Exception)
                assert type(outcome).__name__ == expected[1]
