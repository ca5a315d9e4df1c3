"""Content-hash tests: order invariance, sensitivity, key derivation."""

import json

import pytest

from repro.core.serialize import problem_to_dict
from repro.exceptions import ServiceError
from repro.service.keys import (
    RequestKey,
    canonical_problem_payload,
    params_hash,
    problem_hash,
    request_key,
)


def _reversed_payload(payload):
    permuted = json.loads(json.dumps(payload))
    permuted["workflow"]["modules"] = list(reversed(permuted["workflow"]["modules"]))
    permuted["workflow"]["edges"] = list(reversed(permuted["workflow"]["edges"]))
    permuted["catalog"] = list(reversed(permuted["catalog"]))
    # Measured execution-time vectors are indexed by catalog position, so
    # describing the same instance with a reversed catalog means the
    # vectors must be reversed in lockstep.
    if permuted.get("measured_te"):
        permuted["measured_te"] = {
            name: list(reversed(times))
            for name, times in permuted["measured_te"].items()
        }
    return permuted


class TestProblemHash:
    def test_stable_for_object_and_payload(self, example_problem):
        assert problem_hash(example_problem) == problem_hash(
            problem_to_dict(example_problem)
        )

    def test_invariant_under_listing_order(self, example_problem):
        payload = problem_to_dict(example_problem)
        assert problem_hash(payload) == problem_hash(_reversed_payload(payload))

    def test_invariant_under_display_name(self, example_problem):
        payload = problem_to_dict(example_problem)
        renamed = json.loads(json.dumps(payload))
        renamed["workflow"]["name"] = "something-else"
        assert problem_hash(payload) == problem_hash(renamed)

    def test_sensitive_to_workload_change(self, example_problem):
        payload = problem_to_dict(example_problem)
        changed = json.loads(json.dumps(payload))
        for mod in changed["workflow"]["modules"]:
            if mod.get("workload"):
                mod["workload"] = mod["workload"] + 1.0
                break
        assert problem_hash(payload) != problem_hash(changed)

    def test_measured_te_permuted_with_catalog(self, wrf_problem):
        """The WRF instance's measured-TE vectors follow the catalog order."""
        payload = problem_to_dict(wrf_problem)
        assert payload.get("measured_te"), "wrf instance should carry measured_te"
        assert problem_hash(payload) == problem_hash(_reversed_payload(payload))

    def test_malformed_payload_rejected(self):
        with pytest.raises(ServiceError, match="malformed problem payload"):
            problem_hash({"workflow": None, "catalog": []})


class TestCanonicalPayload:
    def test_modules_sorted_by_name(self, example_problem):
        canonical = canonical_problem_payload(example_problem)
        names = [m["name"] for m in canonical["workflow"]["modules"]]
        assert names == sorted(names)

    def test_catalog_sorted_by_name(self, example_problem):
        canonical = canonical_problem_payload(example_problem)
        names = [t["name"] for t in canonical["catalog"]]
        assert names == sorted(names)

    def test_display_name_dropped(self, example_problem):
        canonical = canonical_problem_payload(example_problem)
        assert "name" not in canonical["workflow"]


class TestParamsHash:
    def test_differs_by_budget(self):
        assert params_hash("cg", 10.0) != params_hash("cg", 20.0)

    def test_differs_by_params(self):
        assert params_hash("cg", 10.0, {"candidate_scope": "critical"}) != (
            params_hash("cg", 10.0, {"candidate_scope": "all"})
        )

    def test_param_order_irrelevant(self):
        assert params_hash("cg", 10.0, {"a": 1, "b": 2}) == params_hash(
            "cg", 10.0, {"b": 2, "a": 1}
        )

    def test_unserializable_params_rejected(self):
        with pytest.raises(ServiceError, match="not JSON-serializable"):
            params_hash("cg", 10.0, {"fn": object()})


class TestRequestKey:
    def test_triple_and_digest(self, example_problem):
        key = request_key(example_problem, "critical-greedy", 57.0)
        assert isinstance(key, RequestKey)
        assert key.algorithm == "critical-greedy"
        assert len(key.digest()) == 64
        # digest is stable and sensitive to each component
        assert key.digest() == key.digest()
        other = request_key(example_problem, "critical-greedy", 58.0)
        assert key.digest() != other.digest()
