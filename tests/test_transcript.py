"""Pin the messages every sample-application functionality sends.

The gateway's send is wrapped on the instance and every message it is
given is recorded as its class name plus its wire form, less the two
fields that differ between otherwise identical runs (command_id and
trace_parent). The recorded transcript for a fixed call sequence under each
transactional model is compared with a literal table, so any change to
which commands are sent, how they are wrapped for the model, or what they
carry shows up here.
"""

import pytest

from msim.sampleapp.domain import TournamentFull

_COMMAND_KEYS = (
    "kind", "target_service", "command_type", "payload", "unit_of_work_ref",
    "target_aggregate_id", "functionality", "step", "infrastructure",
)


def _line(name, wire):
    """One transcript line that carries every recorded field."""
    wire = dict(wire)
    inner = dict(wire.pop("inner", wire))
    envelope = ""
    if name != "Command":
        kind = wire.pop("kind")
        fields = ", ".join(f"{k}={v!r}" for k, v in sorted(wire.items()))
        envelope = f" {kind}({fields})"
    assert tuple(inner) == _COMMAND_KEYS, inner
    where = f"{inner['functionality']}/{inner['step']}"
    flags = " infra" if inner["infrastructure"] else ""
    return (
        f"{name} {inner['target_service']}/{inner['command_type']}"
        f" uow={inner['unit_of_work_ref']} agg={inner['target_aggregate_id']}"
        f" at={where}{flags}{envelope} {inner['payload']}"
    )


def _strip(wire):
    wire = {k: v for k, v in wire.items() if k not in ("command_id", "trace_parent")}
    if "inner" in wire:
        wire["inner"] = _strip(wire["inner"])
    return wire


def record_transcript(sim):
    recorded = []
    send = sim.gateway.send

    def recording_send(message):
        try:
            return send(message)
        finally:
            recorded.append(_line(type(message).__name__, _strip(message.to_wire())))

    sim.gateway.send = recording_send
    return recorded


def drive_every_functionality(sim):
    app = sim.app
    execution_id = app.create_execution("SE-101")
    creator_id = app.create_user("carol")
    app.enroll_student(execution_id, creator_id)
    alice = app.create_enrolled_student(execution_id, "alice")
    bob = app.create_enrolled_student(execution_id, "bob")
    tournament_id = app.create_tournament(
        execution_id, creator_id, start_time=0, end_time=100,
        max_participants=1, topics=("t1",))
    # Added, then undone: a saga compensates the added participant, a
    # causal transaction only discards its staged write.
    workflow, _ = app.functionalities.add_participant(
        tournament_id, execution_id, bob)
    workflow.execute_until("addParticipantStep")
    sim.transactions.abort(workflow.uow)
    app.add_participant(tournament_id, execution_id, alice)
    with pytest.raises(TournamentFull):
        app.add_participant(tournament_id, execution_id, bob)
    app.update_student_name(execution_id, alice, "alicia")
    app.anonymize_user(creator_id)
    sim.run_event_cycles(2)
    app.get_tournament(tournament_id)


SAGA_TRANSCRIPT = [
    "Command execution/CreateExecution uow=1 agg=None at=createExecution/createExecutionStep {'course_code': 'SE-101'}",
    'Command transaction/transaction.commit uow=1 agg=None at=None/None infra {}',
    "Command user/CreateUser uow=2 agg=None at=createUser/createUserStep {'name': 'carol', 'role': 'STUDENT'}",
    'Command transaction/transaction.commit uow=2 agg=None at=None/None infra {}',
    "Command user/GetUser uow=3 agg=2 at=enrollStudent/getUserStep {'user_aggregate_id': 2}",
    "Command execution/EnrollStudent uow=3 agg=1 at=enrollStudent/enrollStep {'execution_aggregate_id': 1, 'user_aggregate_id': 2, 'name': 'carol', 'role': 'STUDENT'}",
    'Command transaction/transaction.commit uow=3 agg=None at=None/None infra {}',
    "Command user/CreateUser uow=4 agg=None at=createEnrolledStudent/createUserStep {'name': 'alice', 'role': 'STUDENT'}",
    "Command execution/EnrollStudent uow=4 agg=1 at=createEnrolledStudent/enrollStep {'execution_aggregate_id': 1, 'user_aggregate_id': 3, 'name': 'alice', 'role': 'STUDENT'}",
    'Command transaction/transaction.commit uow=4 agg=None at=None/None infra {}',
    "Command user/CreateUser uow=5 agg=None at=createEnrolledStudent/createUserStep {'name': 'bob', 'role': 'STUDENT'}",
    "Command execution/EnrollStudent uow=5 agg=1 at=createEnrolledStudent/enrollStep {'execution_aggregate_id': 1, 'user_aggregate_id': 4, 'name': 'bob', 'role': 'STUDENT'}",
    'Command transaction/transaction.commit uow=5 agg=None at=None/None infra {}',
    "Command execution/GetStudent uow=6 agg=1 at=createTournament/getCreatorStep {'execution_aggregate_id': 1, 'user_aggregate_id': 2}",
    "Command tournament/CreateTournament uow=6 agg=None at=createTournament/createTournamentStep {'execution_aggregate_id': 1, 'creator': {'user_aggregate_id': 2, 'name': 'carol', 'as_of_execution_version': 7}, 'start_time': 0, 'end_time': 100, 'max_participants': 1, 'topics': ['t1']}",
    'Command transaction/transaction.commit uow=6 agg=None at=None/None infra {}',
    "Command execution/GetStudent uow=7 agg=1 at=addParticipant/getUserStep {'execution_aggregate_id': 1, 'user_aggregate_id': 4}",
    "SagaCommandEnvelope tournament/AddParticipant uow=7 agg=5 at=addParticipant/addParticipantStep saga(acquire_state='IN_UPDATE_TOURNAMENT', forbidden_states=['IN_UPDATE_TOURNAMENT']) {'tournament_aggregate_id': 5, 'student': {'user_aggregate_id': 4, 'name': 'bob', 'as_of_execution_version': 7}}",
    "Command tournament/RemoveParticipant uow=7 agg=5 at=None/None {'tournament_aggregate_id': 5, 'user_aggregate_id': 4}",
    'Command transaction/transaction.abort uow=7 agg=None at=None/None infra {}',
    "Command execution/GetStudent uow=8 agg=1 at=addParticipant/getUserStep {'execution_aggregate_id': 1, 'user_aggregate_id': 3}",
    "SagaCommandEnvelope tournament/AddParticipant uow=8 agg=5 at=addParticipant/addParticipantStep saga(acquire_state='IN_UPDATE_TOURNAMENT', forbidden_states=['IN_UPDATE_TOURNAMENT']) {'tournament_aggregate_id': 5, 'student': {'user_aggregate_id': 3, 'name': 'alice', 'as_of_execution_version': 7}}",
    'Command transaction/transaction.commit uow=8 agg=None at=None/None infra {}',
    "Command execution/GetStudent uow=9 agg=1 at=addParticipant/getUserStep {'execution_aggregate_id': 1, 'user_aggregate_id': 4}",
    "SagaCommandEnvelope tournament/AddParticipant uow=9 agg=5 at=addParticipant/addParticipantStep saga(acquire_state='IN_UPDATE_TOURNAMENT', forbidden_states=['IN_UPDATE_TOURNAMENT']) {'tournament_aggregate_id': 5, 'student': {'user_aggregate_id': 4, 'name': 'bob', 'as_of_execution_version': 7}}",
    'Command transaction/transaction.abort uow=9 agg=None at=None/None infra {}',
    "Command execution/UpdateStudentName uow=10 agg=1 at=updateStudentName/updateStudentNameStep {'execution_aggregate_id': 1, 'user_aggregate_id': 3, 'new_name': 'alicia'}",
    'Command transaction/transaction.commit uow=10 agg=None at=None/None infra {}',
    "Command user/AnonymizeUser uow=11 agg=2 at=anonymizeUser/anonymizeUserStep {'user_aggregate_id': 2}",
    'Command transaction/transaction.commit uow=11 agg=None at=None/None infra {}',
    "SagaCommandEnvelope tournament/ProcessStudentNameUpdate uow=12 agg=5 at=processStudentNameUpdate/processStudentNameUpdateStep saga(acquire_state='IN_UPDATE_TOURNAMENT', forbidden_states=['IN_UPDATE_TOURNAMENT']) {'tournament_aggregate_id': 5, 'sender_execution_id': 1, 'publisher_version': 18, 'user_aggregate_id': 3, 'new_name': 'alicia'}",
    'Command transaction/transaction.commit uow=12 agg=None at=None/None infra {}',
    "SagaCommandEnvelope tournament/ProcessAnonymizeUser uow=13 agg=5 at=processAnonymizeUser/processAnonymizeUserStep saga(acquire_state='IN_UPDATE_TOURNAMENT', forbidden_states=['IN_UPDATE_TOURNAMENT']) {'tournament_aggregate_id': 5, 'publisher_version': 19, 'user_aggregate_id': 2}",
    'Command transaction/transaction.commit uow=13 agg=None at=None/None infra {}',
    "Command tournament/GetTournament uow=14 agg=5 at=getTournamentById/getTournamentStep {'tournament_aggregate_id': 5}",
    'Command transaction/transaction.commit uow=14 agg=None at=None/None infra {}',
]

CAUSAL_TRANSCRIPT = [
    "CausalCommandEnvelope execution/CreateExecution uow=1 agg=None at=createExecution/createExecutionStep causal(snapshot_version=0, uow_id=1) {'course_code': 'SE-101'}",
    'Command transaction/transaction.commit uow=1 agg=None at=None/None infra {}',
    "CausalCommandEnvelope user/CreateUser uow=2 agg=None at=createUser/createUserStep causal(snapshot_version=1, uow_id=2) {'name': 'carol', 'role': 'STUDENT'}",
    'Command transaction/transaction.commit uow=2 agg=None at=None/None infra {}',
    "CausalCommandEnvelope user/GetUser uow=3 agg=2 at=enrollStudent/getUserStep causal(snapshot_version=2, uow_id=3) {'user_aggregate_id': 2}",
    "CausalCommandEnvelope execution/EnrollStudent uow=3 agg=1 at=enrollStudent/enrollStep causal(snapshot_version=2, uow_id=3) {'execution_aggregate_id': 1, 'user_aggregate_id': 2, 'name': 'carol', 'role': 'STUDENT'}",
    'Command transaction/transaction.commit uow=3 agg=None at=None/None infra {}',
    "CausalCommandEnvelope user/CreateUser uow=4 agg=None at=createEnrolledStudent/createUserStep causal(snapshot_version=3, uow_id=4) {'name': 'alice', 'role': 'STUDENT'}",
    "CausalCommandEnvelope execution/EnrollStudent uow=4 agg=1 at=createEnrolledStudent/enrollStep causal(snapshot_version=3, uow_id=4) {'execution_aggregate_id': 1, 'user_aggregate_id': 3, 'name': 'alice', 'role': 'STUDENT'}",
    'Command transaction/transaction.commit uow=4 agg=None at=None/None infra {}',
    "CausalCommandEnvelope user/CreateUser uow=5 agg=None at=createEnrolledStudent/createUserStep causal(snapshot_version=4, uow_id=5) {'name': 'bob', 'role': 'STUDENT'}",
    "CausalCommandEnvelope execution/EnrollStudent uow=5 agg=1 at=createEnrolledStudent/enrollStep causal(snapshot_version=4, uow_id=5) {'execution_aggregate_id': 1, 'user_aggregate_id': 4, 'name': 'bob', 'role': 'STUDENT'}",
    'Command transaction/transaction.commit uow=5 agg=None at=None/None infra {}',
    "CausalCommandEnvelope execution/GetStudent uow=6 agg=1 at=createTournament/getCreatorStep causal(snapshot_version=5, uow_id=6) {'execution_aggregate_id': 1, 'user_aggregate_id': 2}",
    "CausalCommandEnvelope tournament/CreateTournament uow=6 agg=None at=createTournament/createTournamentStep causal(snapshot_version=5, uow_id=6) {'execution_aggregate_id': 1, 'creator': {'user_aggregate_id': 2, 'name': 'carol', 'as_of_execution_version': 5}, 'start_time': 0, 'end_time': 100, 'max_participants': 1, 'topics': ['t1']}",
    'Command transaction/transaction.commit uow=6 agg=None at=None/None infra {}',
    "CausalCommandEnvelope execution/GetStudent uow=7 agg=1 at=addParticipant/getUserStep causal(snapshot_version=6, uow_id=7) {'execution_aggregate_id': 1, 'user_aggregate_id': 4}",
    "CausalCommandEnvelope tournament/AddParticipant uow=7 agg=5 at=addParticipant/addParticipantStep causal(snapshot_version=6, uow_id=7) {'tournament_aggregate_id': 5, 'student': {'user_aggregate_id': 4, 'name': 'bob', 'as_of_execution_version': 5}}",
    'Command transaction/transaction.abort uow=7 agg=None at=None/None infra {}',
    "CausalCommandEnvelope execution/GetStudent uow=8 agg=1 at=addParticipant/getUserStep causal(snapshot_version=6, uow_id=8) {'execution_aggregate_id': 1, 'user_aggregate_id': 3}",
    "CausalCommandEnvelope tournament/AddParticipant uow=8 agg=5 at=addParticipant/addParticipantStep causal(snapshot_version=6, uow_id=8) {'tournament_aggregate_id': 5, 'student': {'user_aggregate_id': 3, 'name': 'alice', 'as_of_execution_version': 5}}",
    'Command transaction/transaction.commit uow=8 agg=None at=None/None infra {}',
    "CausalCommandEnvelope execution/GetStudent uow=9 agg=1 at=addParticipant/getUserStep causal(snapshot_version=7, uow_id=9) {'execution_aggregate_id': 1, 'user_aggregate_id': 4}",
    "CausalCommandEnvelope tournament/AddParticipant uow=9 agg=5 at=addParticipant/addParticipantStep causal(snapshot_version=7, uow_id=9) {'tournament_aggregate_id': 5, 'student': {'user_aggregate_id': 4, 'name': 'bob', 'as_of_execution_version': 5}}",
    'Command transaction/transaction.abort uow=9 agg=None at=None/None infra {}',
    "CausalCommandEnvelope execution/UpdateStudentName uow=10 agg=1 at=updateStudentName/updateStudentNameStep causal(snapshot_version=7, uow_id=10) {'execution_aggregate_id': 1, 'user_aggregate_id': 3, 'new_name': 'alicia'}",
    'Command transaction/transaction.commit uow=10 agg=None at=None/None infra {}',
    "CausalCommandEnvelope user/AnonymizeUser uow=11 agg=2 at=anonymizeUser/anonymizeUserStep causal(snapshot_version=8, uow_id=11) {'user_aggregate_id': 2}",
    'Command transaction/transaction.commit uow=11 agg=None at=None/None infra {}',
    "CausalCommandEnvelope tournament/ProcessStudentNameUpdate uow=12 agg=5 at=processStudentNameUpdate/processStudentNameUpdateStep causal(snapshot_version=9, uow_id=12) {'tournament_aggregate_id': 5, 'sender_execution_id': 1, 'publisher_version': 8, 'user_aggregate_id': 3, 'new_name': 'alicia'}",
    'Command transaction/transaction.commit uow=12 agg=None at=None/None infra {}',
    "CausalCommandEnvelope tournament/ProcessAnonymizeUser uow=13 agg=5 at=processAnonymizeUser/processAnonymizeUserStep causal(snapshot_version=10, uow_id=13) {'tournament_aggregate_id': 5, 'publisher_version': 9, 'user_aggregate_id': 2}",
    'Command transaction/transaction.commit uow=13 agg=None at=None/None infra {}',
    "CausalCommandEnvelope tournament/GetTournament uow=14 agg=5 at=getTournamentById/getTournamentStep causal(snapshot_version=11, uow_id=14) {'tournament_aggregate_id': 5}",
    'Command transaction/transaction.commit uow=14 agg=None at=None/None infra {}',
]


@pytest.mark.parametrize("model, expected", [
    ("saga", SAGA_TRANSCRIPT),
    ("tcc", CAUSAL_TRANSCRIPT),
])
def test_functionalities_send_pinned_messages(make_sim, model, expected):
    sim = make_sim(transaction_model=model, tcc_commit_store_ms=0.0)
    recorded = record_transcript(sim)
    drive_every_functionality(sim)
    assert recorded == expected
