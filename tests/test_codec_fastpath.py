"""The codec's C fast path accepts and refuses exactly what the naming walk does.

``serialization._check`` is the oracle: the values drawn here mix plain JSON
with everything the C encoder refuses or coerces, and ``encode`` and
``roundtrip`` must accept the same values, refuse the rest with the walk's
message, and deliver on acceptance what a plain JSON decoder reads back.
"""

import json
import math
import sys
from collections import OrderedDict
from enum import IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msim import serialization
from msim.clock import RealClock
from msim.errors import SerializationError, default_registry
from msim.messaging import Command, CommandGateway


class Level(IntEnum):
    LOW = 1
    HIGH = 2


class Name(str):
    pass


class Items(list):
    pass


def mostly(common, rare):
    """``common`` nine draws in ten, else ``rare``, so about half the values pass."""
    return st.sampled_from(range(10)).flatmap(lambda i: rare if i == 0 else common)


names = st.text(max_size=4)
keys = mostly(names, names.map(Name) | st.integers() | st.floats() | st.booleans() | st.none())
scalars = mostly(
    st.none() | st.booleans() | st.integers() | names
    | st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(Level) | names.map(Name) | st.sampled_from([math.nan, math.inf, -math.inf]),
)
mixed = st.recursive(
    scalars,
    lambda children: mostly(
        st.lists(children, max_size=3) | st.dictionaries(keys, children, max_size=3),
        st.lists(children, max_size=3).map(Items)
        | st.dictionaries(keys, children, max_size=3).map(OrderedDict)
        | st.lists(children, max_size=3).map(tuple)
        | st.sets(st.integers() | names, max_size=3),
    ),
    max_leaves=12,
)


def _containers(value, ancestors=()):
    """Yield each list, tuple or dict in ``value`` with the containers above it."""
    if isinstance(value, (list, tuple, dict)):
        ancestors += (value,)
        yield value, ancestors
        for item in value.values() if isinstance(value, dict) else value:
            yield from _containers(item, ancestors)


@st.composite
def wire_values(draw):
    """A mixed value; sometimes a list or dict in it refers back to an enclosing one."""
    value = draw(mixed)
    targets = [found for found in _containers(value) if not isinstance(found[0], tuple)]
    if targets and draw(st.integers(0, 4)) == 0:
        target, ancestors = draw(st.sampled_from(targets))
        ancestor = draw(st.sampled_from(ancestors))
        if isinstance(target, list):
            target.append(ancestor)
        else:
            target["loop"] = ancestor
    return value


def _walk_verdict(value):
    try:
        serialization._check(value)
    except SerializationError as exc:
        return str(exc)
    return None


@settings(max_examples=200)
@given(wire_values())
def test_fast_path_agrees_with_the_walk(value):
    refusal = _walk_verdict(value)
    for codec in (serialization.encode, serialization.roundtrip):
        if refusal is None:
            codec(value)
        else:
            with pytest.raises(SerializationError) as excinfo:
                codec(value)
            assert str(excinfo.value) == refusal
    if refusal is None:
        assert serialization.roundtrip(value) == json.loads(serialization.encode(value))


@pytest.mark.parametrize("value, message", [
    ({"x": math.nan}, "non-finite float at $.x: nan"),
    ([1.5, math.inf], "non-finite float at $[1]: inf"),
    ({"a": {"b": [-math.inf]}}, "non-finite float at $.a.b[0]: -inf"),
])
def test_non_finite_float_rejected(value, message):
    for codec in (serialization.encode, serialization.roundtrip):
        with pytest.raises(SerializationError) as excinfo:
            codec(value)
        assert str(excinfo.value) == message


def test_cycle_rejected_where_it_closes():
    tournament = {"name": "t", "participants": [{"name": "bob"}]}
    tournament["participants"][0]["tournament"] = tournament
    for codec in (serialization.encode, serialization.roundtrip):
        with pytest.raises(SerializationError) as excinfo:
            codec(tournament)
        assert str(excinfo.value) == "reference cycle at $.participants[0].tournament"


def test_shared_or_deep_value_is_not_a_cycle():
    shared = {"name": "bob"}
    assert serialization.roundtrip({"a": shared, "b": [shared]}) == {
        "a": {"name": "bob"}, "b": [{"name": "bob"}]}
    # Whether a depth overflows the C codec depends on the interpreter
    # version; either way no RecursionError escapes and no cycle is reported.
    for depth in (sys.getrecursionlimit() + 100, 100_000):
        deep = nested = []
        for _ in range(depth):
            nested.append([])
            nested = nested[0]
        for codec in (serialization.encode, serialization.roundtrip):
            try:
                codec(deep)
            except SerializationError as exc:
                assert str(exc) == "value nested deeper than the recursion limit"


def test_encoder_overflow_the_walk_cannot_name_is_refused(monkeypatch):
    monkeypatch.setattr(serialization, "_check", lambda value: None)
    loop = []
    loop.append(loop)
    with pytest.raises(SerializationError, match="nested deeper than the recursion limit"):
        serialization.encode(loop)


@pytest.mark.parametrize("data, expected", [
    (b' {"a":1} \n', {"a": 1}),
    (b'\t[1,"x"]\r\n', [1, "x"]),
    (b'{"a":1} x', None),  # trailing data
    (b'{}{}', None),
    (b'"\xe9"', None),  # Latin-1, not UTF-8
    (b'\xff\xfe[]', None),
    (b'\xef\xbb\xbf{}', None),  # a byte-order mark, as json.loads refuses it
    (b'', None),
    pytest.param(b'[' * 100_000 + b']' * 100_000, None, id='deeper-than-the-decoder-recurses'),
])
def test_decode_accepts_what_json_loads_accepts(data, expected):
    if expected is None:
        with pytest.raises(SerializationError):
            serialization.decode(data)
    else:
        assert serialization.decode(data) == expected


@pytest.mark.parametrize("mode", ["local-serialized", "rpc", "broker"])
def test_accepted_send_never_walks(mode, monkeypatch):
    walked = []
    monkeypatch.setattr(serialization, "_check", walked.append)
    gateway = CommandGateway(clock=RealClock(), error_registry=default_registry())
    try:
        gateway.configure_transport(mode, one_way_ms=0, delivery_ms=0, poll_ms=1)
        gateway.register_handler(
            "svc", lambda command: {"seen": command.payload["student"], "level": Level.HIGH})
        payload = {"student": {"name": Name("bob"), "topics": [1, 2], "score": 0.5}}
        reply = gateway.send(Command("svc", "Echo", payload=payload))
    finally:
        gateway.close()
    assert reply == {"seen": {"name": "bob", "topics": [1, 2], "score": 0.5}, "level": 2}
    assert walked == []
