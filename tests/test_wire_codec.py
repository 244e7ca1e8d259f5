"""The one wire codec round-trips every message kind through the byte encoding."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from msim import serialization
from msim.errors import SimulatorError
from msim.messaging import (
    CausalCommandEnvelope,
    Command,
    CommandResponse,
    SagaCommandEnvelope,
    WireMessage,
)

names = st.text(max_size=8)
maybe_names = st.none() | names
maybe_ints = st.none() | st.integers()
plain = st.recursive(
    st.none() | st.booleans() | st.integers() | names,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(names, children, max_size=3),
    max_leaves=8,
)

commands = st.builds(
    Command,
    target_service=names,
    command_type=names,
    payload=st.dictionaries(names, plain, max_size=3),
    command_id=maybe_ints,
    unit_of_work_ref=maybe_ints,
    target_aggregate_id=maybe_ints,
    functionality=maybe_names,
    step=maybe_names,
    trace_parent=st.none() | st.tuples(st.integers(), st.integers()),
    infrastructure=st.booleans(),
)
saga_envelopes = st.builds(
    SagaCommandEnvelope,
    inner=commands,
    forbidden_states=st.lists(names, max_size=3),
    acquire_state=st.sampled_from(["IN_UPDATE_TOURNAMENT", "IN_ENROLL"]),
)
causal_envelopes = st.builds(
    CausalCommandEnvelope, inner=commands, snapshot_version=st.integers(),
    uow_id=st.integers())
responses = st.builds(
    CommandResponse, command_id=st.integers(), payload=plain,
    error_name=maybe_names, error_message=maybe_names)


def _through_bytes(message, cls):
    return cls.from_wire(serialization.decode(serialization.encode(message.to_wire())))


@given(commands | saga_envelopes | causal_envelopes)
def test_message_round_trips_as_its_kind(message):
    decoded = _through_bytes(message, WireMessage)
    # Dataclass equality also checks the nested inner's class, and a
    # trace_parent list never equals the tuple it was sent as.
    assert type(decoded) is type(message)
    assert decoded == message


@given(responses)
def test_response_round_trips_untagged(response):
    assert "kind" not in response.to_wire()
    assert _through_bytes(response, CommandResponse) == response


@pytest.mark.parametrize("wire", [
    {"kind": "telegram", "target_service": "svc", "command_type": "X"},
    {"target_service": "svc", "command_type": "X"},
])
def test_unknown_kind_is_rejected(wire):
    with pytest.raises(SimulatorError, match="unknown message kind"):
        WireMessage.from_wire(wire)


def test_decoding_leaves_the_wire_dict_as_it_was():
    wire = CausalCommandEnvelope(
        inner=Command("svc", "X", trace_parent=(1, 2)), snapshot_version=3, uow_id=4,
    ).to_wire()
    before = serialization.encode(wire)
    WireMessage.from_wire(wire)
    assert serialization.encode(wire) == before
