import pytest
from hypothesis import given
from hypothesis import strategies as st

from msim import serialization
from msim.errors import SerializationError

json_scalars = st.none() | st.booleans() | st.integers() | st.floats(
    allow_nan=False, allow_infinity=False) | st.text()
json_values = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=20,
)


@given(json_values)
def test_roundtrip_is_lossless(value):
    assert serialization.roundtrip(value) == value


def test_unserializable_object_fails_fast():
    class Opaque:
        pass

    with pytest.raises(SerializationError):
        serialization.encode({"payload": Opaque()})


def test_set_payload_rejected():
    with pytest.raises(SerializationError):
        serialization.encode({"topics": {1, 2}})


def test_non_string_keys_rejected():
    with pytest.raises(SerializationError):
        serialization.encode({1: "value"})


@pytest.mark.parametrize("value, message", [
    ({"a": [1, (2, 3)]}, "no serialization rule for tuple at $.a[1]"),
    ({"a": {1: "x"}}, "non-string dict key at $.a: 1"),
    ([{"topics": {1, 2}}], "no serialization rule for set at $[0].topics"),
])
def test_rejection_names_the_path(value, message):
    with pytest.raises(SerializationError) as excinfo:
        serialization.encode(value)
    assert str(excinfo.value) == message


def test_garbage_bytes_rejected():
    with pytest.raises(SerializationError):
        serialization.decode(b"\xff\xfe not json")


def test_encoding_is_canonical():
    a = serialization.encode({"b": 1, "a": 2})
    b = serialization.encode({"a": 2, "b": 1})
    assert a == b
