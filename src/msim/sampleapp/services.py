"""Domain services: the command handlers behind each simulated microservice.

One handler per aggregate type. Handlers are transactional-model agnostic:
they load working copies, apply the domain change, and register it with
whichever unit-of-work service is configured, so switching between sagas
and causal consistency never touches this code.
"""

from __future__ import annotations

from dataclasses import replace

from ..errors import SimulatorError
from ..notification import DomainEvent
from .domain import (
    ANONYMIZE_USER_EVENT,
    ANONYMOUS_TOKEN,
    UPDATE_STUDENT_NAME_EVENT,
    CourseExecution,
    MemberRef,
    NotAStudent,
    Role,
    StudentNotEnrolled,
    Tournament,
    TournamentFull,
    User,
)


def _replace_member(tournament, user_id, is_stale, **changes) -> bool:
    """Replace each of the user's member copies (creator and participant) for
    which is_stale holds with an updated one; return whether any was."""
    changed = False
    if tournament.creator.user_id == user_id and is_stale(tournament.creator):
        tournament.creator = replace(tournament.creator, **changes)
        changed = True
    member = tournament.participants.get(user_id)
    if member is not None and is_stale(member):
        tournament.participants[user_id] = replace(member, **changes)
        changed = True
    return changed


class _Service:
    def __init__(self, runtime):
        self._runtime = runtime

    @property
    def _txn(self):
        return self._runtime.transactions

    def _uow(self, command):
        return self._txn.lookup(command.unit_of_work_ref)

    def handle(self, command):
        op = self._ops.get(command.command_type)
        if op is None:
            raise SimulatorError(f"unknown command: {command.command_type}")
        return op(self, self._uow(command), command.payload)


class UserService(_Service):
    def create_user(self, uow, payload):
        user = User(
            self._runtime.ids.new_aggregate_id(),
            name=payload["name"],
            role=payload.get("role", Role.STUDENT.value),
        )
        self._txn.register_changed(uow, user)
        return {"user_aggregate_id": user.aggregate_id}

    def get_user(self, uow, payload):
        user = self._txn.aggregate_load(uow, payload["user_aggregate_id"])
        return {
            "user_aggregate_id": user.aggregate_id,
            "name": user.name,
            "role": user.role.value,
        }

    def anonymize_user(self, uow, payload):
        user = self._txn.aggregate_load(uow, payload["user_aggregate_id"])
        user.name = ANONYMOUS_TOKEN
        self._txn.register_changed(uow, user)
        self._txn.register_event(
            uow,
            DomainEvent(
                event_id=self._runtime.notification.event_ids.new_event_id(),
                event_type=ANONYMIZE_USER_EVENT,
                publisher_aggregate_id=user.aggregate_id,
                publisher_version=0,
                payload={"user_aggregate_id": user.aggregate_id},
            ),
        )
        return {}

    _ops = {
        "CreateUser": create_user,
        "GetUser": get_user,
        "AnonymizeUser": anonymize_user,
    }


class ExecutionService(_Service):
    def create_execution(self, uow, payload):
        execution = CourseExecution(
            self._runtime.ids.new_aggregate_id(), course_code=payload["course_code"]
        )
        self._txn.register_changed(uow, execution)
        return {"execution_aggregate_id": execution.aggregate_id}

    def enroll_student(self, uow, payload):
        if payload["role"] != Role.STUDENT.value:
            raise NotAStudent(f"user {payload['user_aggregate_id']} is not a student")
        execution = self._txn.aggregate_load(uow, payload["execution_aggregate_id"])
        execution.students[payload["user_aggregate_id"]] = MemberRef(
            user_id=payload["user_aggregate_id"], name=payload["name"]
        )
        self._txn.register_changed(uow, execution)
        return {}

    def get_student(self, uow, payload):
        execution = self._txn.aggregate_load(uow, payload["execution_aggregate_id"])
        student = execution.students.get(payload["user_aggregate_id"])
        if student is None:
            raise NotAStudent(
                f"user {payload['user_aggregate_id']} is not a student of "
                f"execution {execution.aggregate_id}"
            )
        return {
            "user_aggregate_id": student.user_id,
            "name": student.name,
            # Version of the execution state this copy reflects.
            "as_of_execution_version": execution.prev_version,
        }

    def update_student_name(self, uow, payload):
        execution = self._txn.aggregate_load(uow, payload["execution_aggregate_id"])
        student = execution.students.get(payload["user_aggregate_id"])
        if student is None:
            raise StudentNotEnrolled(
                f"user {payload['user_aggregate_id']} is not enrolled"
            )
        execution.students[payload["user_aggregate_id"]] = replace(
            student, name=payload["new_name"])
        self._txn.register_changed(uow, execution)
        self._txn.register_event(
            uow,
            DomainEvent(
                event_id=self._runtime.notification.event_ids.new_event_id(),
                event_type=UPDATE_STUDENT_NAME_EVENT,
                publisher_aggregate_id=execution.aggregate_id,
                publisher_version=0,
                payload={
                    "user_aggregate_id": payload["user_aggregate_id"],
                    "new_name": payload["new_name"],
                },
            ),
        )
        return {}

    _ops = {
        "CreateExecution": create_execution,
        "EnrollStudent": enroll_student,
        "GetStudent": get_student,
        "UpdateStudentName": update_student_name,
    }


class TournamentService(_Service):
    def create_tournament(self, uow, payload):
        creator = payload["creator"]
        tournament = Tournament(
            self._runtime.ids.new_aggregate_id(),
            execution_id=payload["execution_aggregate_id"],
            creator=MemberRef(
                user_id=creator["user_aggregate_id"],
                name=creator["name"],
                exec_version=creator["as_of_execution_version"] or 0,
            ),
            start_time=payload["start_time"],
            end_time=payload["end_time"],
            max_participants=payload["max_participants"],
            topics=payload.get("topics", ()),
        )
        self._txn.register_changed(uow, tournament)
        return {"tournament_aggregate_id": tournament.aggregate_id}

    def get_tournament(self, uow, payload):
        tournament = self._txn.aggregate_load(
            uow, payload["tournament_aggregate_id"]
        )
        return {
            "tournament_aggregate_id": tournament.aggregate_id,
            "as_of_version": tournament.prev_version,
            **tournament.domain_payload(),
        }

    def add_participant(self, uow, payload):
        tournament = self._txn.aggregate_load(uow, payload["tournament_aggregate_id"])
        student = payload["student"]
        if len(tournament.participants) + 1 > tournament.max_participants:
            raise TournamentFull(
                f"tournament {tournament.aggregate_id} is at capacity "
                f"{tournament.max_participants}"
            )
        tournament.participants[student["user_aggregate_id"]] = MemberRef(
            user_id=student["user_aggregate_id"],
            name=student["name"],
            exec_version=student["as_of_execution_version"] or 0,
        )
        self._txn.register_changed(uow, tournament)
        return {"added": student["user_aggregate_id"]}

    def remove_participant(self, uow, payload):
        tournament = self._txn.aggregate_load(uow, payload["tournament_aggregate_id"])
        tournament.participants.pop(payload["user_aggregate_id"], None)
        self._txn.register_changed(uow, tournament)
        return {}

    def process_student_name_update(self, uow, payload):
        """Event reaction: refresh member copies from an execution event."""
        tournament = self._txn.aggregate_load(uow, payload["tournament_aggregate_id"])
        version = payload["publisher_version"]
        if payload["sender_execution_id"] != tournament.execution_id:
            return {"changed": False}
        changed = _replace_member(
            tournament, payload["user_aggregate_id"],
            lambda member: member.exec_version < version,
            name=payload["new_name"], exec_version=version)
        if changed:
            self._txn.register_changed(uow, tournament)
        return {"changed": changed}

    def process_anonymize_user(self, uow, payload):
        """Event reaction: blank out one member's name with the fixed token."""
        tournament = self._txn.aggregate_load(uow, payload["tournament_aggregate_id"])
        version = payload["publisher_version"]
        changed = _replace_member(
            tournament, payload["user_aggregate_id"],
            lambda member: member.user_version < version,
            name=ANONYMOUS_TOKEN, user_version=version)
        if changed:
            self._txn.register_changed(uow, tournament)
        return {"changed": changed}

    _ops = {
        "CreateTournament": create_tournament,
        "GetTournament": get_tournament,
        "AddParticipant": add_participant,
        "RemoveParticipant": remove_participant,
        "ProcessStudentNameUpdate": process_student_name_update,
        "ProcessAnonymizeUser": process_anonymize_user,
    }
