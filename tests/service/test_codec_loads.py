"""``codec.loads``: equal to ``json.loads`` on every body, with one batch fact.

Inside a top-level ``requests`` array, items whose ``problem`` values are
byte-identical object texts share one parsed object.  Everything else —
values, key order, duplicate keys, errors — is ``json.loads``'s.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ServiceError
from repro.service.codec import dumps, loads


def plain_loads(text):
    """The body parser before batch sharing: ``json.loads`` plus the mapping."""
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise ServiceError(f"malformed JSON payload: {exc}") from exc
    if not isinstance(payload, dict):
        raise ServiceError(
            f"expected a JSON object at the top level, got {type(payload).__name__}"
        )
    return payload


def outcome(parse, raw):
    """A parse result as comparable text: its JSON rendering, or its error."""
    try:
        # json.dumps keeps key order and 1 vs 1.0, and renders NaN alike.
        return "ok", json.dumps(parse(raw))
    except Exception as exc:
        return "error", type(exc).__name__, str(exc)


# --------------------------------------------------------------------- #
# Generated batch bodies
# --------------------------------------------------------------------- #


class Obj(list):
    """A JSON object as its (key, value) pairs, so keys may repeat."""


class Raw(str):
    """JSON text placed into the body verbatim."""


SPACE = st.sampled_from(["", " ", "\n", "\t", "\r\n  "])
KEYS = st.sampled_from(["problem", "requests", "budget", "a", "é", "☃", "x y"])
LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-10**6, 10**6),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
)
VALUES = st.recursive(
    LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(st.tuples(KEYS, inner), max_size=3).map(Obj),
    ),
    max_leaves=8,
)


def render(data, value):
    """JSON text of ``value`` with drawn whitespace and escaping."""
    space = lambda: data.draw(SPACE)  # noqa: E731
    if isinstance(value, Raw):
        return str(value)
    if isinstance(value, Obj):
        members = [
            f"{space()}{json.dumps(k, ensure_ascii=data.draw(st.booleans()))}"
            f"{space()}:{space()}{render(data, v)}{space()}"
            for k, v in value
        ]
        return "{" + ",".join(members) + space() + "}"
    if isinstance(value, list):
        return "[" + ",".join(space() + render(data, v) + space() for v in value) + "]"
    return json.dumps(value, ensure_ascii=data.draw(st.booleans()))


def problem_texts(data):
    """Problem texts: repeats, a one-byte twin and a whitespace twin."""
    base = data.draw(st.lists(st.tuples(KEYS, VALUES), max_size=4).map(Obj))
    text = render(data, Obj([("n", Raw("@")), *base]))
    one, two = text.replace("@", "1"), text.replace("@", "2")
    spaced = render(data, Obj([("n", Raw("1")), *base]))  # may differ in spacing only
    return [one, one, two, spaced, render(data, data.draw(VALUES))]


def batch_item(data, texts):
    draw = data.draw
    if draw(st.integers(0, 3)) == 0:
        return draw(VALUES)  # not an object
    pairs = [("problem", Raw(draw(st.sampled_from(texts)))), ("budget", draw(LEAVES))]
    if draw(st.booleans()):  # a duplicate "problem" key: the last one wins
        pairs.append(("problem", Raw(draw(st.sampled_from(texts)))))
    if draw(st.booleans()):  # "problem" one level deeper is not an item's problem
        pairs.append(("params", Obj([("problem", Raw(draw(st.sampled_from(texts))))])))
    pairs += draw(st.lists(st.tuples(KEYS, VALUES), max_size=2))
    return Obj(draw(st.permutations(pairs)))


def batch_body(data):
    """A ``/v1/solve_batch``-shaped body, usually led by its ``requests`` key."""
    draw = data.draw
    texts = problem_texts(data)
    items = [batch_item(data, texts) for _ in range(draw(st.integers(0, 6)))]
    pairs = [("requests", items)]
    if draw(st.booleans()):  # a second "requests": the last one wins
        pairs.append(("requests", [batch_item(data, texts)]))
    pairs += draw(st.lists(st.tuples(KEYS, VALUES), max_size=2))
    if draw(st.integers(0, 3)) == 0:  # "requests" not the first key
        pairs = draw(st.permutations(pairs))
    if draw(st.booleans()):  # "requests" nested below the top level
        pairs.append(("params", Obj([("requests", items)])))
    return draw(SPACE) + render(data, Obj(pairs)) + draw(SPACE)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_loads_equals_json_loads_on_batch_bodies(data):
    body = batch_body(data)
    assert outcome(loads, body) == outcome(plain_loads, body)
    raw = body.encode("utf-8")
    assert outcome(loads, raw) == outcome(plain_loads, raw)


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_loads_equals_json_loads_on_damaged_bodies(data):
    body = batch_body(data)
    cut = data.draw(st.integers(0, len(body)))
    for damaged in (body[:cut], body + "x", body.replace(",", ",,", 1)):
        assert outcome(loads, damaged) == outcome(plain_loads, damaged)


# --------------------------------------------------------------------- #
# Errors: the same ServiceError message as plain json.loads gives
# --------------------------------------------------------------------- #

BATCH = '{"requests":[{"problem":{"a":1},"budget":2},{"problem":{"a":1},"budget":3}]}'


@pytest.mark.parametrize(
    "raw",
    [
        pytest.param(BATCH[:-9], id="truncated"),
        pytest.param(BATCH[:-1], id="truncated-envelope"),
        pytest.param(BATCH[:20], id="truncated-problem"),
        pytest.param(BATCH + " x", id="trailing-data"),
        pytest.param(BATCH + BATCH, id="two-bodies"),
        pytest.param("\ufeff" + BATCH, id="bom-str"),
        pytest.param(b"\xef\xbb\xbf" + BATCH.encode(), id="bom-bytes"),
        pytest.param(b"\xef\xbb\xbf\xef\xbb\xbf" + BATCH.encode(), id="two-boms"),
        pytest.param(BATCH.encode().replace(b'"a"', b'"\xff"', 1), id="invalid-utf8"),
        pytest.param(BATCH.encode().replace(b'"a"', b'"\xed\xa0\x80"', 1), id="lone-surrogate"),
        pytest.param(BATCH.encode("utf-16"), id="utf-16"),
        pytest.param("[" + BATCH + "]", id="top-level-array"),
        pytest.param('"requests"', id="top-level-string"),
        pytest.param('{"requests":[{"problem":{"a":1,}}]}', id="trailing-comma"),
        pytest.param('{"requests":[{"problem":{"a":NaN}},]}', id="trailing-item-comma"),
        pytest.param('{"requests":[{"problem":{"a":1}} {"problem":{}}]}', id="missing-comma"),
        pytest.param('{"requests":[{"problem" {"a":1}}]}', id="missing-colon"),
        pytest.param('{"requests":[{problem:{}}]}', id="bare-key"),
        pytest.param('{"requests":[{"problem":{"a":"\x01"}}]}', id="control-character"),
        pytest.param("", id="empty"),
        pytest.param(b"", id="empty-bytes"),
    ],
)
def test_errors_match_plain_json_loads(raw):
    assert outcome(loads, raw) == outcome(plain_loads, raw)


def test_error_is_a_service_error():
    with pytest.raises(ServiceError, match="malformed JSON payload: Extra data"):
        loads(BATCH + " x")
    with pytest.raises(ServiceError, match="top level, got list"):
        loads("[" + BATCH + "]")


# --------------------------------------------------------------------- #
# Sharing
# --------------------------------------------------------------------- #


class TestSharedProblems:
    def test_identical_texts_share_one_object(self, example_problem):
        from repro.core.serialize import problem_to_dict

        problem = problem_to_dict(example_problem)
        body = dumps({"requests": [{"problem": problem, "budget": b} for b in range(16)]})
        for raw in (body, body.encode()):
            items = loads(raw)["requests"]
            assert all(item["problem"] is items[0]["problem"] for item in items)
            assert items[0]["problem"] == problem

    def test_differing_texts_do_not_share(self):
        texts = ['{"a":1}', '{"a":2}', '{"a": 1}', '{"a":1.0}', '{"a":1}']
        body = '{"requests":[%s]}' % ",".join('{"problem":%s}' % t for t in texts)
        problems = [item["problem"] for item in loads(body)["requests"]]
        assert problems == [json.loads(t) for t in texts]
        assert problems[4] is problems[0]
        # one byte, or only whitespace, keeps the first four apart
        assert len({id(p) for p in problems[:4]}) == 4

    def test_only_object_problems_are_shared(self):
        body = '{"requests":[{"problem":[1]},{"problem":[1]},{"problem":"s"}]}'
        items = loads(body)["requests"]
        assert items[0]["problem"] is not items[1]["problem"]

    def test_problem_keys_outside_items_are_not_shared(self):
        body = (
            '{"requests":[{"params":{"problem":{"a":1}}},{"params":{"problem":{"a":1}}}],'
            '"problem":{"a":1}}'
        )
        payload = loads(body)
        first, second = (item["params"]["problem"] for item in payload["requests"])
        assert first is not second
        assert payload["problem"] is not first

    def test_a_body_without_leading_requests_parses_plainly(self):
        body = '{"budget":1,"requests":[{"problem":{"a":1}},{"problem":{"a":1}}]}'
        items = loads(body)["requests"]
        assert items == json.loads(body)["requests"]
        assert items[0]["problem"] is not items[1]["problem"]
