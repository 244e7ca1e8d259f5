"""Workflow builders for the bundled functionalities.

A functionality is a list of named steps over the domain services. Each
step sends one command through `_send`, which lets the configured
unit-of-work service wrap it for its transactional model: a saga turns the
declared lock states into a semantic-lock envelope, causal consistency
attaches the caller's snapshot. A step may name a compensation; the
unit-of-work service decides whether it is ever kept and run. The builders
therefore name no transactional model, and switching models is purely a
configuration change.
"""

from __future__ import annotations

from ..coordination import Step, build_workflow
from ..messaging import Command
from .domain import IN_UPDATE_TOURNAMENT

_TOURNAMENT_LOCK = (IN_UPDATE_TOURNAMENT,)


class Functionalities:
    def __init__(self, runtime):
        self._runtime = runtime

    def _send(self, uow, service, command_type, payload, target=None, lock_states=None):
        command = Command(
            target_service=service,
            command_type=command_type,
            payload=payload,
            unit_of_work_ref=uow.uow_id,
            target_aggregate_id=target,
        )
        message = self._runtime.transactions.envelope(uow, command, lock_states)
        return self._runtime.gateway.send(message)

    def _workflow(self, name, result, steps):
        """A built workflow on a new unit of work, and the dict its steps fill."""
        transactions = self._runtime.transactions
        workflow = build_workflow(
            functionality_name=name,
            steps=steps,
            uow_service=transactions,
            uow=transactions.create_unit_of_work(),
            recorder=self._runtime.recorder,
        )
        return workflow, result

    def _one_step(self, name, step_name, service, command_type, payload,
                  target=None, lock_states=None):
        """A one-command functionality; its result is the handler's reply."""
        result = {}

        def step(u):
            result.update(
                self._send(u, service, command_type, payload, target, lock_states))

        return self._workflow(name, result, [Step(step_name, step)])

    # -- Type A: query ----------------------------------------------------

    def get_tournament_by_id(self, tournament_id):
        return self._one_step(
            "getTournamentById", "getTournamentStep", "tournament", "GetTournament",
            {"tournament_aggregate_id": tournament_id}, target=tournament_id)

    # -- Types B+D: single-aggregate write that publishes an event ---------

    def update_student_name(self, execution_id, user_id, new_name):
        return self._one_step(
            "updateStudentName", "updateStudentNameStep", "execution",
            "UpdateStudentName",
            {"execution_aggregate_id": execution_id, "user_aggregate_id": user_id,
             "new_name": new_name},
            target=execution_id)

    # -- Type C: distributed write across two aggregates ------------------

    def add_participant(self, tournament_id, execution_id, user_id):
        result = {}

        def get_user_step(u):
            result["student"] = self._send(
                u, "execution", "GetStudent",
                {"execution_aggregate_id": execution_id, "user_aggregate_id": user_id},
                target=execution_id)

        def add_participant_step(u):
            self._send(
                u, "tournament", "AddParticipant",
                {"tournament_aggregate_id": tournament_id, "student": result["student"]},
                target=tournament_id, lock_states=_TOURNAMENT_LOCK)

        def undo_add(u):
            self._send(
                u, "tournament", "RemoveParticipant",
                {"tournament_aggregate_id": tournament_id, "user_aggregate_id": user_id},
                target=tournament_id)

        return self._workflow("addParticipant", result, [
            Step("getUserStep", get_user_step),
            Step("addParticipantStep", add_participant_step,
                 dependencies=["getUserStep"], compensation=undo_add),
        ])

    # -- choreography-style Type D -----------------------------------------

    def anonymize_user_in_tournaments(self, user_id):
        return self._one_step(
            "anonymizeUser", "anonymizeUserStep", "user", "AnonymizeUser",
            {"user_aggregate_id": user_id}, target=user_id)

    # -- event-triggered processing functionalities -------------------------

    def process_student_name_update(self, tournament_id, event):
        return self._one_step(
            "processStudentNameUpdate", "processStudentNameUpdateStep", "tournament",
            "ProcessStudentNameUpdate",
            {"tournament_aggregate_id": tournament_id,
             "sender_execution_id": event.publisher_aggregate_id,
             "publisher_version": event.publisher_version, **event.payload},
            target=tournament_id, lock_states=_TOURNAMENT_LOCK)

    def process_anonymize_user(self, tournament_id, event):
        return self._one_step(
            "processAnonymizeUser", "processAnonymizeUserStep", "tournament",
            "ProcessAnonymizeUser",
            {"tournament_aggregate_id": tournament_id,
             "publisher_version": event.publisher_version, **event.payload},
            target=tournament_id, lock_states=_TOURNAMENT_LOCK)

    # -- seeding flows ------------------------------------------------------

    def create_user(self, name, role):
        return self._one_step(
            "createUser", "createUserStep", "user", "CreateUser",
            {"name": name, "role": role})

    def create_execution(self, course_code):
        return self._one_step(
            "createExecution", "createExecutionStep", "execution", "CreateExecution",
            {"course_code": course_code})

    def create_enrolled_student(self, execution_id, name, role="STUDENT"):
        """Create a user and enroll it in one functionality (two steps,
        one transaction): the seeding shape for bulk setups."""
        result = {}

        def create_user_step(u):
            result.update(
                self._send(u, "user", "CreateUser", {"name": name, "role": role}))

        def enroll_step(u):
            self._send(
                u, "execution", "EnrollStudent",
                {"execution_aggregate_id": execution_id,
                 "user_aggregate_id": result["user_aggregate_id"],
                 "name": name, "role": role},
                target=execution_id)

        return self._workflow("createEnrolledStudent", result, [
            Step("createUserStep", create_user_step),
            Step("enrollStep", enroll_step, dependencies=["createUserStep"]),
        ])

    def enroll_student(self, execution_id, user_id):
        result = {}

        def get_user_step(u):
            result["user"] = self._send(
                u, "user", "GetUser", {"user_aggregate_id": user_id}, target=user_id)

        def enroll_step(u):
            self._send(
                u, "execution", "EnrollStudent",
                {"execution_aggregate_id": execution_id, "user_aggregate_id": user_id,
                 "name": result["user"]["name"], "role": result["user"]["role"]},
                target=execution_id)

        return self._workflow("enrollStudent", result, [
            Step("getUserStep", get_user_step),
            Step("enrollStep", enroll_step, dependencies=["getUserStep"]),
        ])

    def create_tournament(self, execution_id, creator_user_id, start_time, end_time,
                          max_participants, topics=()):
        result = {}

        def get_creator_step(u):
            result["creator"] = self._send(
                u, "execution", "GetStudent",
                {"execution_aggregate_id": execution_id,
                 "user_aggregate_id": creator_user_id},
                target=execution_id)

        def create_step(u):
            result.update(self._send(
                u, "tournament", "CreateTournament",
                {"execution_aggregate_id": execution_id, "creator": result["creator"],
                 "start_time": start_time, "end_time": end_time,
                 "max_participants": max_participants, "topics": list(topics)}))

        return self._workflow("createTournament", result, [
            Step("getCreatorStep", get_creator_step),
            Step("createTournamentStep", create_step, dependencies=["getCreatorStep"]),
        ])
