"""Pin the wire form of every message kind.

Each message is built with every field set, turned into its wire dict and
encoded. The dict's key order and the encoded bytes are compared with
literals, so a change to the codec that alters what crosses a serializing
transport fails here.
"""

import pytest

from msim import serialization
from msim.messaging import (
    CausalCommandEnvelope,
    Command,
    CommandResponse,
    SagaCommandEnvelope,
)

_COMMAND_KEYS = [
    "kind", "target_service", "command_type", "payload", "command_id",
    "unit_of_work_ref", "target_aggregate_id", "functionality", "step",
    "trace_parent", "infrastructure",
]
_RESPONSE_KEYS = ["command_id", "payload", "error_name", "error_message"]

_COMMAND_BYTES = (
    b'{"command_id":17,"command_type":"AddParticipant",'
    b'"functionality":"addParticipant","infrastructure":false,"kind":"command",'
    b'"payload":{"student":{"name":"bob","topics":[1,2]},"tournament_aggregate_id":5},'
    b'"step":"addParticipantStep","target_aggregate_id":5,"target_service":"tournament",'
    b'"trace_parent":[3,41],"unit_of_work_ref":7}'
)


def _command():
    return Command(
        "tournament", "AddParticipant",
        payload={"tournament_aggregate_id": 5, "student": {"name": "bob", "topics": [1, 2]}},
        command_id=17, unit_of_work_ref=7, target_aggregate_id=5,
        functionality="addParticipant", step="addParticipantStep", trace_parent=(3, 41),
    )


CASES = {
    "command": (
        _command,
        _COMMAND_KEYS,
        _COMMAND_BYTES,
    ),
    "infrastructure-command": (
        lambda: Command("versioning", "IncrementAndGetVersionNumber",
                        command_id=2, infrastructure=True),
        _COMMAND_KEYS,
        b'{"command_id":2,"command_type":"IncrementAndGetVersionNumber",'
        b'"functionality":null,"infrastructure":true,"kind":"command","payload":{},'
        b'"step":null,"target_aggregate_id":null,"target_service":"versioning",'
        b'"trace_parent":null,"unit_of_work_ref":null}',
    ),
    "saga": (
        lambda: SagaCommandEnvelope(
            inner=_command(), forbidden_states=["IN_UPDATE_TOURNAMENT"],
            acquire_state="IN_UPDATE_TOURNAMENT"),
        ["kind", "inner", "forbidden_states", "acquire_state"],
        b'{"acquire_state":"IN_UPDATE_TOURNAMENT",'
        b'"forbidden_states":["IN_UPDATE_TOURNAMENT"],"inner":' + _COMMAND_BYTES
        + b',"kind":"saga"}',
    ),
    "causal": (
        lambda: CausalCommandEnvelope(inner=_command(), snapshot_version=12, uow_id=9),
        ["kind", "inner", "snapshot_version", "uow_id"],
        b'{"inner":' + _COMMAND_BYTES + b',"kind":"causal","snapshot_version":12,"uow_id":9}',
    ),
    "success-response": (
        lambda: CommandResponse(17, payload={"version": 3, "names": ["a", "b"]}),
        _RESPONSE_KEYS,
        b'{"command_id":17,"error_message":null,"error_name":null,'
        b'"payload":{"names":["a","b"],"version":3}}',
    ),
    "error-response": (
        lambda: CommandResponse(17, error_name="TournamentFull",
                                error_message="tournament 5 is full"),
        _RESPONSE_KEYS,
        b'{"command_id":17,"error_message":"tournament 5 is full",'
        b'"error_name":"TournamentFull","payload":null}',
    ),
}


@pytest.mark.parametrize("case", list(CASES))
def test_wire_form_is_pinned(case):
    build, keys, encoded = CASES[case]
    wire = build().to_wire()
    assert list(wire) == keys
    assert serialization.encode(wire) == encoded


def test_response_decodes_from_pinned_bytes():
    for case in ("success-response", "error-response"):
        build, _, encoded = CASES[case]
        assert CommandResponse.from_wire(serialization.decode(encoded)) == build()
