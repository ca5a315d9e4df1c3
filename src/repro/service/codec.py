"""Canonical, version-stamped JSON codecs for the service wire format.

Every payload that crosses the service boundary — requests, cached
results, HTTP responses — is produced by these encoders and read back by
the matching decoders.  Three properties hold by construction:

* **Deterministic**: :func:`dumps` renders with sorted keys and compact
  separators, so encoding the same object twice yields byte-identical
  text.  This is what makes "resubmitting the same problem returns a
  byte-identical schedule payload" testable.
* **Version-stamped**: every envelope carries ``{"kind": ..., "version":
  CODEC_VERSION}``; decoders reject unknown kinds and future versions
  with :class:`~repro.exceptions.ServiceError` instead of guessing.
* **Round-trippable**: ``decode(encode(x)) == x`` for
  :class:`~repro.core.workflow.Workflow`,
  :class:`~repro.core.vm.VMTypeCatalog`,
  :class:`~repro.core.problem.MedCCProblem` and (given the catalog)
  :class:`~repro.core.schedule.Schedule` — property-tested in
  ``tests/service/test_properties.py``.

Schedules are encoded by VM-type *name*, not index.  Names are invariant
under catalog reordering, so a cached result replayed for a permuted-but-
equivalent request (see :mod:`repro.service.keys`) is byte-identical and
still decodes correctly against the caller's own catalog order.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections.abc import Callable, Mapping
from typing import Any

from repro.core.problem import MedCCProblem
from repro.core.schedule import Schedule
from repro.core.serialize import problem_from_dict, problem_to_dict
from repro.core.vm import VMType, VMTypeCatalog
from repro.core.workflow import Workflow
from repro.exceptions import ReproError, ServiceError

__all__ = [
    "CODEC_VERSION",
    "dumps",
    "loads",
    "encode_workflow",
    "decode_workflow",
    "encode_catalog",
    "decode_catalog",
    "encode_problem",
    "decode_problem",
    "encode_schedule",
    "decode_schedule",
    "encode_result_fragment",
    "event_digest",
]

#: Wire-format version stamped into every envelope this module emits.
CODEC_VERSION = 1


def dumps(payload: Mapping[str, Any]) -> str:
    """Canonical JSON text: sorted keys, compact separators, no NaN.

    The single rendering function every service component uses; two calls
    on equal payloads produce byte-identical text, which is what the
    cache's "identical schedule payload on replay" guarantee rests on.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)


def loads(text: str | bytes) -> dict[str, Any]:
    """Parse JSON text into a dict, mapping parse errors to ServiceError.

    The result always equals ``json.loads(text)``.  One wire-format fact
    is used on the way: in a ``/v1/solve_batch`` body (an object whose
    first key is ``requests``), items of the top-level ``requests`` array
    whose ``problem`` values are byte-identical object texts get one
    shared parsed object, so a budget sweep over one workflow parses its
    problem once, not once per item.  The shared object must not be
    mutated; nothing in the service does.  Any other body, and any body
    the batch walker does not expect, is parsed by plain ``json.loads``,
    so every error message is ``json.loads``'s own.
    """
    payload = _loads_batch(text)
    if payload is None:
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise ServiceError(f"malformed JSON payload: {exc}") from exc
    if not isinstance(payload, dict):
        raise ServiceError(
            f"expected a JSON object at the top level, got {type(payload).__name__}"
        )
    return payload


_scan_value = json.JSONDecoder().scan_once
_scan_string = json.decoder.scanstring
_skip_space = json.decoder.WHITESPACE.match

#: The head of a batch body: an object whose first key is ``requests``.
_BATCH_HEAD = re.compile(r'[ \t\n\r]*\{[ \t\n\r]*"requests"')
_BATCH_HEAD_BYTES = re.compile(_BATCH_HEAD.pattern.encode())

#: Distinct ``problem`` texts one batch body compares later items against.
#: Bounds the compares per item; a body cycling through more problems
#: than this only parses the extra ones again.
_SHARED_PROBLEM_TEXTS = 8


def _loads_batch(raw: object) -> dict[str, Any] | None:
    """``json.loads(raw)`` for a batch body with shared problems, else ``None``.

    ``None`` means "parse it the plain way": the body's first key is not
    ``"requests"`` (a check that reads only the head, so a ``/v1/solve``
    body costs nothing extra), or the walker met something it does not
    expect (malformed JSON included, so ``json.loads`` reports the
    error).  Bytes are decoded as ``json.loads`` decodes them.
    """
    if isinstance(raw, (bytes, bytearray)):
        if _BATCH_HEAD_BYTES.match(raw) is None:
            return None
        try:
            text = raw.decode(json.detect_encoding(raw), "surrogatepass")
        except UnicodeDecodeError:
            return None
    elif isinstance(raw, str) and _BATCH_HEAD.match(raw) is not None:
        text = raw
    else:
        return None

    # An object text is prefix-free: a later item whose text starts with
    # a parsed problem's exact text holds the same value.
    seen: list[tuple[str, Any]] = []

    def problem(i: int) -> tuple[Any, int]:
        for known, value in seen:
            if text.startswith(known, i):
                return value, i + len(known)
        value, end = _scan_value(text, i)
        if len(seen) < _SHARED_PROBLEM_TEXTS:
            seen.append((text[i:end], value))
        return value, end

    def item_member(key: str, i: int) -> tuple[Any, int]:
        if key == "problem" and text.startswith("{", i):
            return problem(i)
        return _scan_value(text, i)

    def item(i: int) -> tuple[Any, int]:
        if text.startswith("{", i):
            return _scan_object(text, i, item_member)
        return _scan_value(text, i)

    def top_member(key: str, i: int) -> tuple[Any, int]:
        if key == "requests" and text.startswith("[", i):
            return _scan_array(text, i, item)
        return _scan_value(text, i)

    try:
        payload, end = _scan_object(text, _skip_space(text, 0).end(), top_member)
    except (ServiceError, ValueError, StopIteration, RecursionError):
        return None
    if _skip_space(text, end).end() != len(text):
        return None
    return payload


def _scan_object(
    text: str, i: int, member: Callable[[str, int], tuple[Any, int]]
) -> tuple[dict[str, Any], int]:
    """The object whose ``{`` is at ``text[i]``; ``member(key, j)`` scans each value.

    Duplicate keys keep the last value, as ``json.loads`` does.  Raises
    :class:`ServiceError` (or the scanner's ``ValueError`` or
    ``StopIteration``) on anything else.
    """
    obj: dict[str, Any] = {}
    i = _skip_space(text, i + 1).end()
    if text.startswith("}", i):
        return obj, i + 1
    while True:
        if not text.startswith('"', i):
            raise ServiceError("expected a key")
        key, i = _scan_string(text, i + 1)
        i = _skip_space(text, i).end()
        if not text.startswith(":", i):
            raise ServiceError("expected ':'")
        value, i = member(key, _skip_space(text, i + 1).end())
        obj[key] = value
        i = _skip_space(text, i).end()
        if text.startswith("}", i):
            return obj, i + 1
        if not text.startswith(",", i):
            raise ServiceError("expected ',' or '}'")
        i = _skip_space(text, i + 1).end()


def _scan_array(
    text: str, i: int, element: Callable[[int], tuple[Any, int]]
) -> tuple[list[Any], int]:
    """The array whose ``[`` is at ``text[i]``; ``element(j)`` scans each item."""
    items: list[Any] = []
    i = _skip_space(text, i + 1).end()
    if text.startswith("]", i):
        return items, i + 1
    while True:
        value, i = element(i)
        items.append(value)
        i = _skip_space(text, i).end()
        if text.startswith("]", i):
            return items, i + 1
        if not text.startswith(",", i):
            raise ServiceError("expected ',' or ']'")
        i = _skip_space(text, i + 1).end()


def _envelope(kind: str, body: Mapping[str, Any]) -> dict[str, Any]:
    payload: dict[str, Any] = {"kind": kind, "version": CODEC_VERSION}
    payload.update(body)
    return payload


def _open_envelope(payload: Mapping[str, Any], kind: str) -> Mapping[str, Any]:
    """Validate the ``kind``/``version`` stamp of a decoded payload."""
    got_kind = payload.get("kind")
    if got_kind != kind:
        raise ServiceError(f"expected a {kind!r} payload, got kind={got_kind!r}")
    version = payload.get("version")
    if version != CODEC_VERSION:
        raise ServiceError(
            f"unsupported {kind} payload version {version!r} "
            f"(this build reads version {CODEC_VERSION})"
        )
    return payload


# --------------------------------------------------------------------- #
# Workflow
# --------------------------------------------------------------------- #


def encode_workflow(workflow: Workflow) -> dict[str, Any]:
    """Encode a workflow (modules in topo order, edges sorted by key)."""
    return _envelope("workflow", {"workflow": workflow.to_dict()})


def decode_workflow(payload: Mapping[str, Any]) -> Workflow:
    """Inverse of :func:`encode_workflow`."""
    body = _open_envelope(payload, "workflow")
    try:
        return Workflow.from_dict(body["workflow"])
    except (ReproError, KeyError, TypeError, ValueError) as exc:
        raise ServiceError(f"cannot decode workflow payload: {exc}") from exc


# --------------------------------------------------------------------- #
# VM-type catalog
# --------------------------------------------------------------------- #


def encode_catalog(catalog: VMTypeCatalog) -> dict[str, Any]:
    """Encode a catalog preserving declaration order (indices are semantic)."""
    return _envelope(
        "catalog",
        {
            "types": [
                {
                    "name": t.name,
                    "power": t.power,
                    "rate": t.rate,
                    "startup_time": t.startup_time,
                    "startup_cost": t.startup_cost,
                }
                for t in catalog
            ]
        },
    )


def decode_catalog(payload: Mapping[str, Any]) -> VMTypeCatalog:
    """Inverse of :func:`encode_catalog`."""
    body = _open_envelope(payload, "catalog")
    try:
        return VMTypeCatalog(
            [
                VMType(
                    name=str(spec["name"]),
                    power=float(spec["power"]),
                    rate=float(spec["rate"]),
                    startup_time=float(spec.get("startup_time", 0.0)),
                    startup_cost=float(spec.get("startup_cost", 0.0)),
                )
                for spec in body["types"]
            ]
        )
    except (ReproError, KeyError, TypeError, ValueError) as exc:
        raise ServiceError(f"cannot decode catalog payload: {exc}") from exc


# --------------------------------------------------------------------- #
# Problem instance
# --------------------------------------------------------------------- #


def encode_problem(problem: MedCCProblem) -> dict[str, Any]:
    """Encode a full MED-CC instance.

    Delegates the instance body to :mod:`repro.core.serialize` (the
    ``repro generate``/``solve --file`` format) so on-disk instance files
    and service requests share one schema, and adds the service envelope.
    """
    return _envelope("problem", {"problem": problem_to_dict(problem)})


def decode_problem(payload: Mapping[str, Any]) -> MedCCProblem:
    """Inverse of :func:`encode_problem`.

    Also accepts a bare ``problem_to_dict()`` body (no envelope) so
    clients can POST instance files written by ``repro generate`` as-is.
    """
    if payload.get("kind") == "problem":
        body = dict(_open_envelope(payload, "problem").get("problem") or {})
    else:
        body = dict(payload)
    try:
        return problem_from_dict(body)
    except (ReproError, KeyError, TypeError, ValueError) as exc:
        raise ServiceError(f"cannot decode problem payload: {exc}") from exc


# --------------------------------------------------------------------- #
# Schedule
# --------------------------------------------------------------------- #


def encode_schedule(schedule: Schedule, catalog: VMTypeCatalog) -> dict[str, Any]:
    """Encode a schedule as module → VM-type *name* assignments.

    Name-based assignments survive catalog reordering (a permuted catalog
    yields the same bytes), which keeps cached responses replayable for
    any equivalent request ordering.
    """
    return _envelope(
        "schedule",
        {"assignment": schedule.as_type_names(catalog.names)},
    )


def decode_schedule(
    payload: Mapping[str, Any], catalog: VMTypeCatalog
) -> Schedule:
    """Inverse of :func:`encode_schedule`, resolved against ``catalog``."""
    body = _open_envelope(payload, "schedule")
    assignment = body.get("assignment")
    if not isinstance(assignment, Mapping):
        raise ServiceError("schedule payload carries no 'assignment' mapping")
    try:
        return Schedule(
            {
                str(module): catalog.index_of(str(type_name))
                for module, type_name in assignment.items()
            }
        )
    except ReproError as exc:
        raise ServiceError(f"cannot decode schedule payload: {exc}") from exc


# --------------------------------------------------------------------- #
# Result fragment
# --------------------------------------------------------------------- #


def encode_result_fragment(
    result: Any,
    catalog: VMTypeCatalog,
    *,
    engine: str = "default",
    degraded: bool = False,
    degraded_reason: str | None = None,
) -> dict[str, Any]:
    """Encode a ``SchedulerResult`` as the ``result`` response fragment.

    This is the one shape the cache stores and every response replays;
    ``repro solve --json`` emits it too, so offline and service outputs
    stay diffable.  The ``degraded``/``degraded_reason`` fields are only
    present on degraded fallback responses (a solve that blew its
    deadline and fell back to the least-cost schedule) — absent keys keep
    normal payloads byte-identical to pre-fabric builds.
    """
    fragment: dict[str, Any] = {
        "algorithm": result.algorithm,
        "engine": str(engine),
        "schedule": encode_schedule(result.schedule, catalog),
        "cost": result.total_cost,
        "makespan": result.med,
        "steps": len(result.steps),
    }
    if degraded:
        fragment["degraded"] = True
        fragment["degraded_reason"] = degraded_reason or "deadline exceeded"
    return fragment


def event_digest(payload: object) -> str:
    """Canonical SHA-256 digest of a live-workflow event payload.

    The idempotency contract of ``POST /v1/workflows/<id>/events`` keys
    replay detection on this digest: a retried event is *identical* iff
    its canonical rendering matches the one recorded at that sequence
    number (key order never matters; any value change does).  Raises
    :class:`~repro.exceptions.ServiceError` on non-JSON payloads so the
    HTTP layer reports 400, not 500.
    """
    if not isinstance(payload, Mapping):
        raise ServiceError("event payload must be a JSON object")
    try:
        text = dumps(payload)
    except (TypeError, ValueError) as exc:
        raise ServiceError(f"event payload is not JSON-serializable: {exc}") from exc
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
