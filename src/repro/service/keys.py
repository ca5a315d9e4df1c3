"""Content-addressed cache keys for scheduling requests.

The memoizing result store (:mod:`repro.service.cache`) is keyed by
``(problem_hash, algorithm, params_hash)``:

* :func:`problem_hash` — SHA-256 of a *canonical* instance payload.  The
  canonical form sorts modules by name, edges by ``(src, dst)`` and VM
  types by name (permuting any measured execution-time vectors along with
  the catalog so they stay aligned), and drops the cosmetic workflow
  display name.  Two requests that describe the same instance with their
  modules or VM types listed in any order therefore hash identically —
  the property that turns re-submissions into cache hits.
* :func:`params_hash` — SHA-256 over the algorithm name, the budget and
  the scheduler's declared knobs
  (:func:`repro.algorithms.base.declared_params`), so
  ``candidate_scope="critical"`` and ``candidate_scope="all"`` runs never
  share a cache slot.

Hashes are plain hex strings; :class:`RequestKey` bundles the triple and
derives the file name for the disk cache tier.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable, Mapping
from typing import Any, NamedTuple, TypeVar

from repro.core.problem import MedCCProblem
from repro.core.serialize import problem_to_dict
from repro.exceptions import ServiceError
from repro.service.codec import dumps

__all__ = [
    "RequestKey",
    "canonical_problem_payload",
    "problem_hash",
    "params_hash",
    "request_key",
    "workflow_id_digest",
    "derive_workflow_id",
    "once_per_object",
]

_T = TypeVar("_T")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical_problem_payload(
    problem: MedCCProblem | Mapping[str, Any],
) -> dict[str, Any]:
    """The order-invariant canonical form of an instance payload.

    Accepts a constructed problem or a ``problem_to_dict()``-shaped
    mapping.  The result is a plain dict whose rendering via
    :func:`repro.service.codec.dumps` is identical for any module/VM-type
    listing order of the same instance.
    """
    if isinstance(problem, MedCCProblem):
        payload: Mapping[str, Any] = problem_to_dict(problem)
    else:
        payload = problem
    try:
        workflow = payload["workflow"]
        modules = sorted(
            (dict(m) for m in workflow.get("modules", ())),
            key=lambda m: str(m.get("name", "")),
        )
        edges = sorted(
            (dict(e) for e in workflow.get("edges", ())),
            key=lambda e: (str(e.get("src", "")), str(e.get("dst", ""))),
        )
        types = [dict(t) for t in payload.get("catalog", ())]
    except (AttributeError, KeyError, TypeError) as exc:
        raise ServiceError(f"malformed problem payload: {exc}") from exc

    # Sort the catalog by type name, remembering the permutation so the
    # per-type measured execution-time vectors stay index-aligned.
    order = sorted(range(len(types)), key=lambda j: str(types[j].get("name", "")))
    canonical_types = [types[j] for j in order]

    measured = payload.get("measured_te")
    canonical_measured = None
    if measured:
        canonical_measured = {}
        for name in sorted(measured):
            times = list(measured[name])
            if len(times) != len(types):
                raise ServiceError(
                    f"measured_te[{name!r}] has {len(times)} entries for "
                    f"{len(types)} VM types"
                )
            canonical_measured[str(name)] = [float(times[j]) for j in order]

    return {
        "format_version": payload.get("format_version"),
        # The workflow display name is cosmetic: renaming an otherwise
        # identical instance must not defeat memoization.
        "workflow": {"modules": modules, "edges": edges},
        "catalog": canonical_types,
        "billing": payload.get("billing"),
        "transfers": payload.get("transfers"),
        "measured_te": canonical_measured,
    }


def problem_hash(problem: MedCCProblem | Mapping[str, Any]) -> str:
    """SHA-256 content hash of the canonical instance payload."""
    return _sha256(dumps(canonical_problem_payload(problem)))


def once_per_object(
    seen: dict[int, tuple[Any, _T]] | None, obj: Any, compute: Callable[[Any], _T]
) -> _T:
    """``compute(obj)``, run once per object identity within ``seen``.

    ``seen`` is an identity map scoped to one call (one batch): items
    that share a parsed problem object share its digest or memo entry
    instead of recomputing it.  It holds each object, so an id is never
    reused while the map lives.  ``None`` computes every time.
    """
    if seen is None:
        return compute(obj)
    held = seen.get(id(obj))
    if held is None:
        held = seen[id(obj)] = (obj, compute(obj))
    return held[1]


def params_hash(
    algorithm: str,
    budget: float,
    params: Mapping[str, Any] | None = None,
) -> str:
    """SHA-256 over the algorithm name, budget and declared knobs."""
    body = {
        "algorithm": str(algorithm),
        "budget": float(budget),
        "params": {str(k): params[k] for k in sorted(params)} if params else {},
    }
    try:
        return _sha256(dumps(body))
    except (TypeError, ValueError) as exc:
        raise ServiceError(f"scheduler params are not JSON-serializable: {exc}") from exc


class RequestKey(NamedTuple):
    """The cache key triple for one scheduling request."""

    problem_hash: str
    algorithm: str
    params_hash: str

    def digest(self) -> str:
        """A single stable hex digest (disk-cache file name)."""
        return _sha256("\x1f".join(self))


def request_key(
    problem: MedCCProblem | Mapping[str, Any],
    algorithm: str,
    budget: float,
    params: Mapping[str, Any] | None = None,
) -> RequestKey:
    """Build the full cache key for a (problem, algorithm, budget, params)."""
    return RequestKey(
        problem_hash=problem_hash(problem),
        algorithm=str(algorithm),
        params_hash=params_hash(algorithm, budget, params),
    )


def derive_workflow_id(
    problem: MedCCProblem | Mapping[str, Any],
    algorithm: str,
    budget: float,
    params: Mapping[str, Any] | None = None,
) -> str:
    """Deterministic live-workflow id for a registration request.

    Every party — the registering client, the shard router injecting the
    id before forwarding, and the node creating the state — derives the
    *same* id from the same canonical (problem, algorithm, budget,
    params) tuple, so a retried or re-routed registration lands on the
    existing workflow instead of forking a duplicate.  Truncated to 16
    hex chars: the namespace is one fleet's concurrently-live workflows,
    not a global content store.
    """
    key = request_key(problem, algorithm, budget, params)
    return _sha256("workflow\x1f" + key.digest())[:16]


def workflow_id_digest(workflow_id: str) -> str:
    """Routing digest for a workflow id (client-chosen ids may not be hex)."""
    return _sha256("workflow-route\x1f" + str(workflow_id))
