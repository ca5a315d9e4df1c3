"""SchedulingService tests: parsing, memoization, batching, stats."""

import json
import threading
import time

import pytest

from repro.core.serialize import problem_to_dict
from repro.exceptions import ServiceError
from repro.service import app as app_module
from repro.service import codec
from repro.service.app import (
    DEFAULT_ALGORITHM,
    PROBLEM_MEMO_SIZE,
    SchedulingService,
    error_payload,
)
from repro.service.codec import dumps


@pytest.fixture
def request_payload(example_problem):
    return {"problem": problem_to_dict(example_problem), "budget": 57.0}


@pytest.fixture
def service():
    with SchedulingService(max_workers=2, queue_size=8, cache_size=32) as svc:
        yield svc


@pytest.fixture
def calls(monkeypatch):
    """Live counts of the service's problem decodes and problem hashes."""
    counts = {"decode": 0, "hash": 0}
    decode, digest = codec.decode_problem, app_module.problem_hash

    def counting_decode(payload):
        counts["decode"] += 1
        return decode(payload)

    def counting_hash(payload):
        counts["hash"] += 1
        return digest(payload)

    monkeypatch.setattr(codec, "decode_problem", counting_decode)
    monkeypatch.setattr(app_module, "problem_hash", counting_hash)
    return counts


class TestParseRequest:
    def test_defaults(self, service, request_payload):
        parsed = service.complete(service.parse_head(request_payload))
        assert parsed.algorithm == DEFAULT_ALGORITHM
        assert parsed.budget == 57.0
        assert parsed.timeout is None
        assert parsed.problem.workflow.num_modules == 8

    def test_missing_problem_rejected(self, service):
        with pytest.raises(ServiceError, match="problem"):
            service.parse_head({"budget": 57.0})

    def test_missing_budget_rejected(self, service, request_payload):
        del request_payload["budget"]
        with pytest.raises(ServiceError, match="budget"):
            service.parse_head(request_payload)

    def test_non_numeric_budget_rejected(self, service, request_payload):
        request_payload["budget"] = "plenty"
        with pytest.raises(ServiceError, match="budget must be a number"):
            service.parse_head(request_payload)

    def test_unknown_param_rejected(self, service, request_payload):
        request_payload["params"] = {"warp_factor": 9}
        with pytest.raises(ServiceError, match="warp_factor"):
            service.parse_head(request_payload)

    def test_explicit_default_param_hits_same_key(self, service, request_payload):
        bare = service.parse_head(request_payload)
        request_payload["params"] = {"candidate_scope": "critical"}
        explicit = service.parse_head(request_payload)
        assert bare.key == explicit.key

    def test_different_param_changes_key(self, service, request_payload):
        bare = service.parse_head(request_payload)
        request_payload["params"] = {"candidate_scope": "all"}
        other = service.parse_head(request_payload)
        assert bare.key != other.key

    def test_engine_param_rejected_with_declared_knobs(
        self, service, request_payload
    ):
        # Critical-Greedy has one production loop; ``engine`` is not a knob.
        request_payload["params"] = {"engine": "fast"}
        with pytest.raises(ServiceError) as info:
            service.parse_head(request_payload)
        message = str(info.value)
        assert "['engine']" in message
        assert "declared knobs: ['candidate_scope', 'transfer_aware']" in message


class TestMemoization:
    def test_second_solve_is_cache_hit(self, service, request_payload, calls):
        first = service.solve(request_payload)
        assert calls == {"decode": 1, "hash": 1}
        second = service.solve(request_payload)
        assert first["status"] == "ok" and first["cache_hit"] is False
        assert second["cache_hit"] is True
        assert dumps(first["result"]) == dumps(second["result"])
        # the hit is answered from the key alone, and the exact payload's
        # hash is memoized: neither re-hashed nor decoded
        assert calls == {"decode": 1, "hash": 1}

    def test_permuted_request_is_cache_hit(self, service, request_payload):
        first = service.solve(request_payload)
        permuted = json.loads(json.dumps(request_payload))
        permuted["problem"]["workflow"]["modules"].reverse()
        permuted["problem"]["workflow"]["edges"].reverse()
        permuted["problem"]["catalog"].reverse()
        second = service.solve(permuted)
        assert second["cache_hit"] is True
        assert dumps(first["result"]["schedule"]) == dumps(
            second["result"]["schedule"]
        )

    def test_different_budget_misses(self, service, request_payload):
        service.solve(request_payload)
        other = dict(request_payload, budget=100.0)
        assert service.solve(other)["cache_hit"] is False

    def test_result_respects_budget(self, service, request_payload):
        response = service.solve(request_payload)
        assert response["result"]["cost"] <= request_payload["budget"] + 1e-9

    def test_incremental_is_default_engine(self, service, request_payload):
        response = service.solve(request_payload)
        assert response["result"]["engine"] == "incremental"


class TestProblemMemo:
    """Hash and decode are memoized per exact problem payload."""

    def test_new_budgets_hash_and_decode_once(self, service, request_payload, calls):
        for budget in (52.0, 57.0, 64.0):
            # a JSON round trip per request, as each HTTP body gets
            body = json.loads(json.dumps(dict(request_payload, budget=budget)))
            assert service.solve(body)["cache_hit"] is False
        assert calls == {"decode": 1, "hash": 1}
        problems = service.stats()["problems"]
        assert problems == {
            "entries": 1,
            "decoded": 1,
            "hash_hits": 2,
            "hash_misses": 1,
            "decode_hits": 2,
            "decode_misses": 1,
        }

    def test_permuted_payload_hashes_and_decodes_separately(
        self, service, request_payload, calls
    ):
        permuted = json.loads(json.dumps(request_payload))
        permuted["problem"]["catalog"].reverse()
        first = service.solve(request_payload)
        second = service.solve(dict(permuted, budget=60.0))
        assert first["problem_hash"] == second["problem_hash"]
        assert calls == {"decode": 2, "hash": 2}
        assert service.stats()["problems"]["entries"] == 2

    def test_least_recently_used_entry_is_evicted(self, service, request_payload, calls):
        def variant(i):
            body = json.loads(json.dumps(request_payload))
            body["problem"]["workflow"]["modules"][1]["workload"] += i / 64.0
            return body

        for i in range(PROBLEM_MEMO_SIZE):
            service.parse_head(variant(i))
        service.parse_head(variant(0))  # a hit: variant 1 is now the oldest
        assert calls["hash"] == PROBLEM_MEMO_SIZE
        service.parse_head(variant(PROBLEM_MEMO_SIZE))  # the 33rd evicts variant 1
        assert service.stats()["problems"]["entries"] == PROBLEM_MEMO_SIZE
        service.parse_head(variant(0))
        assert calls["hash"] == PROBLEM_MEMO_SIZE + 1
        service.parse_head(variant(1))
        assert calls["hash"] == PROBLEM_MEMO_SIZE + 2

    def test_undecodable_payload_is_not_memoized(self, service, request_payload, calls):
        broken = json.loads(json.dumps(request_payload))
        broken["problem"]["workflow"]["edges"].append(
            {"src": "w1", "dst": "w9", "data_size": 1.0}
        )
        messages = []
        for _ in range(2):
            with pytest.raises(ServiceError) as info:
                service.solve(broken)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert "unknown module 'w9'" in messages[0]
        assert calls == {"decode": 2, "hash": 1}
        problems = service.stats()["problems"]
        assert (problems["decoded"], problems["decode_misses"]) == (0, 2)

    def test_unmarshallable_payload_hashes_every_time(self, service, request_payload, calls):
        # ``marshal`` cannot encode a tuple subclass, so there is no exact
        # fingerprint: the payload is hashed and decoded per request.
        class Pair(tuple):
            pass

        odd = json.loads(json.dumps(request_payload))
        odd["problem"]["workflow"]["modules"] = Pair(odd["problem"]["workflow"]["modules"])
        service.solve(odd)
        service.solve(dict(odd, budget=60.0))
        assert calls == {"decode": 2, "hash": 2}
        assert service.stats()["problems"]["entries"] == 0

    def test_threads_share_one_decoded_problem(self, wrf_problem):
        payload = {"problem": problem_to_dict(wrf_problem)}
        budgets = [130.0 + 13.5 * i for i in range(8)]
        with SchedulingService(max_workers=2, queue_size=8, cache_size=32) as solo:
            serial = [dumps(solo.solve(dict(payload, budget=b))) for b in budgets]

        with SchedulingService(max_workers=8, queue_size=8, cache_size=32) as svc:
            # decode once up front, leaving the lazy matrices and graph
            # index for the concurrent solves to build on the shared problem
            svc.complete(svc.parse_head(dict(payload, budget=0.0)))
            barrier = threading.Barrier(len(budgets))
            results = [None] * len(budgets)

            def run(i):
                barrier.wait()
                results[i] = dumps(svc.solve(dict(payload, budget=budgets[i])))

            threads = [threading.Thread(target=run, args=(i,)) for i in range(len(budgets))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            problems = svc.stats()["problems"]
        assert results == serial
        assert (problems["decode_misses"], problems["decode_hits"]) == (1, 8)

    def test_lower_budget_on_a_memoized_problem_replays_identically(
        self, service, request_payload
    ):
        # The second miss solves on the memoized problem, warm-started
        # from the first solve's trace; its bytes match a cold service.
        service.solve(dict(request_payload, budget=64.0))
        response = service.solve(dict(request_payload, budget=52.0))
        assert response["cache_hit"] is False
        assert service.stats()["problems"]["decode_hits"] == 1
        with SchedulingService(max_workers=1, queue_size=4, cache_size=8) as fresh:
            expected = fresh.solve(dict(request_payload, budget=52.0))
        assert dumps(response) == dumps(expected)

    def test_permuted_twin_catalog_solves_on_its_own_order(self, service, twin_catalogs):
        first, second = twin_catalogs
        service.solve({"problem": first, "budget": 57.0})
        response = service.solve({"problem": second, "budget": 60.0})
        with SchedulingService(max_workers=1, queue_size=4, cache_size=8) as fresh:
            expected = fresh.solve({"problem": second, "budget": 60.0})
        assert "zz_twin" in expected["result"]["schedule"]["assignment"].values()
        assert dumps(response) == dumps(expected)

    def test_permuted_twin_catalogs_in_one_batch(self, service, twin_catalogs):
        # Both items share a problem_hash but not a payload, so each is a
        # group of one and goes through the single path; each must be
        # solved, and encoded, on its own catalog order.
        payloads = [
            {"problem": problem, "budget": budget}
            for problem, budget in zip(twin_catalogs, (57.0, 60.0))
        ]
        batch = service.solve_batch(payloads)
        assert service.stats()["batch"]["grouped_runs"] == 0
        with SchedulingService(max_workers=1, queue_size=4, cache_size=8) as fresh:
            serial = [fresh.solve(p) for p in payloads]
        assert [dumps(b) for b in batch] == [dumps(s) for s in serial]


class TestBatch:
    def test_batch_isolates_errors(self, service, request_payload):
        bad = {"budget": 57.0}  # missing problem
        infeasible = dict(request_payload, budget=0.01)
        responses = service.solve_batch([request_payload, bad, infeasible])
        assert [r["status"] for r in responses] == ["ok", "error", "error"]
        assert responses[1]["error"]["kind"] == "bad_request"
        assert responses[2]["error"]["kind"] == "infeasible_budget"

    def test_batch_requires_array(self, service):
        with pytest.raises(ServiceError, match="array"):
            service.solve_batch({"not": "a list"})


class TestBatchDedupeAndGrouping:
    """The two batch-only optimizations: dedupe and budget-axis grouping."""

    def test_duplicates_answered_once(self, service, request_payload):
        other = dict(request_payload, budget=64.0)
        responses = service.solve_batch(
            [request_payload, request_payload, other, request_payload]
        )
        assert [r["status"] for r in responses] == ["ok"] * 4
        assert "deduped" not in responses[0]
        for idx in (1, 3):
            copy = dict(responses[idx])
            assert copy.pop("deduped") is True
            assert copy == responses[0]
        assert service.stats()["batch"]["deduped"] == 2

    def test_grouped_budgets_run_as_one_job(self, service, request_payload):
        budgets = [48.0, 52.0, 57.0, 60.0, 64.0, 1000.0]
        responses = service.solve_batch(
            [dict(request_payload, budget=b) for b in budgets]
        )
        assert [r["status"] for r in responses] == ["ok"] * 6
        assert [r["budget"] for r in responses] == budgets
        stats = service.stats()
        assert stats["executor"]["submitted"] == 1
        assert stats["batch"] == {
            "deduped": 0,
            "grouped_items": 6,
            "grouped_runs": 1,
        }

    def test_grouped_responses_identical_to_serial_service(
        self, service, request_payload, calls
    ):
        budgets = [48.0 + 16.0 * i / 15 for i in range(16)]  # over [Cmin, Cmax]
        # a JSON round trip gives each item its own (equal) problem dict,
        # as an HTTP body does
        batch = service.solve_batch(
            json.loads(json.dumps([dict(request_payload, budget=b) for b in budgets]))
        )
        assert calls == {"decode": 1, "hash": 1}
        with SchedulingService(max_workers=2, queue_size=8, cache_size=32) as solo:
            serial = [solo.solve(dict(request_payload, budget=b)) for b in budgets]
        assert [dumps(b) for b in batch] == [dumps(s) for s in serial]

    def test_two_workflow_batch_decodes_each_once(
        self, service, request_payload, wrf_problem, twin_catalogs, calls
    ):
        other = {"problem": problem_to_dict(wrf_problem)}
        payloads = [dict(request_payload, budget=b) for b in (52.0, 57.0, 64.0)]
        payloads += [dict(other, budget=b) for b in (150.0, 180.0, 240.0)]
        responses = service.solve_batch(payloads)
        assert [r["status"] for r in responses] == ["ok"] * 6
        assert calls == {"decode": 2, "hash": 2}
        assert service.stats()["batch"]["grouped_runs"] == 2

        # A permuted-catalog twin shares the problem_hash but is another
        # payload: its own group, solved on its own catalog order.  Its
        # budgets differ from its sibling's, so no item is a duplicate.
        first, second = twin_catalogs
        twins = [{"problem": first, "budget": b} for b in (52.0, 57.0, 64.0)]
        twins += [{"problem": second, "budget": b} for b in (53.0, 60.0, 63.0)]
        with SchedulingService(max_workers=2, queue_size=8, cache_size=32) as svc:
            batch = svc.solve_batch(twins)
            assert svc.stats()["batch"]["grouped_runs"] == 2
        with SchedulingService(max_workers=2, queue_size=8, cache_size=32) as fresh:
            serial = [fresh.solve(p) for p in twins]
        assert "zz_twin" in serial[4]["result"]["schedule"]["assignment"].values()
        assert [dumps(b) for b in batch] == [dumps(s) for s in serial]

    def test_int_valued_problem_keeps_its_own_hash(self, service, request_payload):
        # ``1`` and ``1.0`` are == in Python but render differently in the
        # canonical hash, so the neighbour's digest must not be reused.
        as_int = json.loads(json.dumps(request_payload))
        module = as_int["problem"]["workflow"]["modules"][1]
        module["workload"] = int(module["workload"])
        assert as_int["problem"] == request_payload["problem"]
        payloads = [dict(request_payload, budget=57.0), dict(as_int, budget=60.0)]
        batch = service.solve_batch(payloads)
        assert batch[0]["problem_hash"] != batch[1]["problem_hash"]
        with SchedulingService(max_workers=2, queue_size=8, cache_size=32) as solo:
            serial = [solo.solve(p) for p in payloads]
        assert [dumps(b) for b in batch] == [dumps(s) for s in serial]

    def test_undecodable_item_fails_alone(self, service, request_payload, calls):
        broken = json.loads(json.dumps(request_payload))
        broken["problem"]["workflow"]["edges"].append(
            {"src": "w1", "dst": "w9", "data_size": 1.0}
        )
        batch = [
            dict(request_payload, budget=52.0),
            dict(broken, budget=57.0),
            dict(request_payload, budget=60.0),
            dict(broken, budget=64.0),
        ]
        responses = service.solve_batch(batch)
        assert [r["status"] for r in responses] == ["ok", "error", "ok", "error"]
        assert responses[1]["error"]["kind"] == "bad_request"
        assert "unknown module 'w9'" in responses[3]["error"]["message"]
        assert calls == {"decode": 2, "hash": 2}

    def test_second_batch_is_all_cache_hits(self, service, request_payload):
        payloads = [dict(request_payload, budget=b) for b in (48.0, 57.0, 64.0)]
        service.solve_batch(payloads)
        submitted = service.stats()["executor"]["submitted"]
        again = service.solve_batch(payloads)
        assert all(r["cache_hit"] is True for r in again)
        assert service.stats()["executor"]["submitted"] == submitted
        # cache hits never count as grouped work
        assert service.stats()["batch"]["grouped_runs"] == 1

    def test_non_batching_algorithm_goes_through_singles(
        self, service, request_payload
    ):
        mixed = [
            dict(request_payload, budget=48.0),
            dict(request_payload, budget=57.0, algorithm="gain3"),
            dict(request_payload, budget=57.0),
            dict(request_payload, budget=64.0, algorithm="gain3"),
        ]
        responses = service.solve_batch(mixed)
        assert [r["status"] for r in responses] == ["ok"] * 4
        assert [r["algorithm"] for r in responses] == [
            "critical-greedy",
            "gain3",
            "critical-greedy",
            "gain3",
        ]
        stats = service.stats()["batch"]
        assert stats["grouped_items"] == 2
        assert stats["grouped_runs"] == 1

    def test_infeasible_member_cannot_fail_its_group(
        self, service, request_payload
    ):
        batch = [
            dict(request_payload, budget=57.0),
            dict(request_payload, budget=0.01),
            dict(request_payload, budget=64.0),
        ]
        responses = service.solve_batch(batch)
        assert [r["status"] for r in responses] == ["ok", "error", "ok"]
        assert responses[1]["error"]["kind"] == "infeasible_budget"

    def test_group_timeout_degrades_every_member(self, request_payload):
        with SchedulingService(
            max_workers=1, queue_size=8, cache_size=32, degrade_on_timeout=True
        ) as svc:
            original = svc.executor._fn

            def slowed(job):
                time.sleep(0.4)
                return original(job)

            svc.executor._fn = slowed
            batch = [
                dict(request_payload, budget=b, timeout=0.05)
                for b in (57.0, 60.0, 64.0)
            ]
            responses = svc.solve_batch(batch)
            assert all(r["status"] == "ok" for r in responses)
            assert all(r["degraded"] is True for r in responses)
            assert svc.stats()["degraded"] == 3


class TestStats:
    def test_stats_shape(self, service, request_payload):
        service.solve(request_payload)
        service.solve(request_payload)
        stats = service.stats()
        assert stats["requests"] == 2
        assert stats["cache"]["hits"] >= 1
        assert stats["cache"]["misses"] >= 1
        assert stats["request_latency_p50"] is not None
        assert stats["executor"]["queue_capacity"] == 8
        assert stats["uptime"] >= 0
        assert stats["problems"]["hash_hits"] == 1

    def test_hit_then_miss_probes_once_each(self, service, request_payload):
        service.solve(request_payload)  # miss
        service.solve(request_payload)  # hit
        service.solve(dict(request_payload, budget=64.0))  # miss
        payloads = [dict(request_payload, budget=b) for b in (57.0, 60.0, 60.0)]
        service.solve_batch(payloads)  # hit, miss, deduped
        cache = service.stats()["cache"]
        assert (cache["hits"], cache["misses"]) == (2, 3)


class TestErrorPayload:
    def test_kinds(self):
        from repro.exceptions import (
            InfeasibleBudgetError,
            ServiceOverloadedError,
            ServiceTimeoutError,
        )

        assert error_payload(ServiceOverloadedError(4))["error"]["kind"] == (
            "overloaded"
        )
        assert error_payload(ServiceTimeoutError(1.0))["error"]["kind"] == "timeout"
        assert error_payload(InfeasibleBudgetError(1.0, 2.0))["error"]["kind"] == (
            "infeasible_budget"
        )
        assert error_payload(ServiceError("x"))["error"]["kind"] == "bad_request"
        assert error_payload(RuntimeError("x"))["error"]["kind"] == "internal"
