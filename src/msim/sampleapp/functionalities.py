"""Workflow builders for the bundled functionalities.

Each functionality exists in a saga variant and a causal variant over the
same domain services: the builders only differ in how commands are wrapped
(semantic-lock envelopes vs. snapshot envelopes) and in whether steps
register compensations. Which variant runs is decided by the configured
transaction model, never by application code changes.
"""

from __future__ import annotations

from ..coordination import Step, build_workflow
from ..messaging import CausalCommandEnvelope, Command, SagaCommandEnvelope
from .domain import IN_UPDATE_TOURNAMENT


class _Builder:
    """Shared plumbing: wrap commands per the active transactional model."""

    def __init__(self, runtime):
        self._runtime = runtime

    @property
    def _model(self):
        return self._runtime.transactions.model

    def _new_uow(self):
        return self._runtime.transactions.create_unit_of_work()

    def _send(self, uow, command, lock_states=None):
        if self._model == "causal":
            message = CausalCommandEnvelope(
                inner=command, snapshot_version=uow.snapshot_version, uow_id=uow.uow_id
            )
        elif lock_states is not None:
            message = SagaCommandEnvelope(
                inner=command,
                forbidden_states=list(lock_states),
                acquire_state=lock_states[0],
            )
        else:
            message = command
        return self._runtime.gateway.send(message)

    def _workflow(self, name, steps, uow):
        return build_workflow(
            functionality_name=name,
            steps=steps,
            uow_service=self._runtime.transactions,
            uow=uow,
            recorder=self._runtime.recorder,
        )


class Functionalities(_Builder):
    # -- Type A: query ----------------------------------------------------

    def get_tournament_by_id(self, tournament_id):
        uow = self._new_uow()
        result = {}

        def get_step(u):
            result["view"] = self._send(
                u,
                Command(
                    target_service="tournament",
                    command_type="GetTournament",
                    payload={"tournament_aggregate_id": tournament_id},
                    unit_of_work_ref=u.uow_id,
                    target_aggregate_id=tournament_id,
                ),
            )

        workflow = self._workflow(
            "getTournamentById", [Step("getTournamentStep", get_step)], uow
        )
        return workflow, result

    # -- Types B+D: single-aggregate write that publishes an event ---------

    def update_student_name(self, execution_id, user_id, new_name):
        uow = self._new_uow()

        def update_step(u):
            self._send(
                u,
                Command(
                    target_service="execution",
                    command_type="UpdateStudentName",
                    payload={
                        "execution_aggregate_id": execution_id,
                        "user_aggregate_id": user_id,
                        "new_name": new_name,
                    },
                    unit_of_work_ref=u.uow_id,
                    target_aggregate_id=execution_id,
                ),
            )

        return self._workflow(
            "updateStudentName", [Step("updateStudentNameStep", update_step)], uow
        ), None

    # -- Type C: distributed write across two aggregates ------------------

    def add_participant(self, tournament_id, execution_id, user_id):
        uow = self._new_uow()
        state = {}

        def get_user_step(u):
            state["student"] = self._send(
                u,
                Command(
                    target_service="execution",
                    command_type="GetStudent",
                    payload={
                        "execution_aggregate_id": execution_id,
                        "user_aggregate_id": user_id,
                    },
                    unit_of_work_ref=u.uow_id,
                    target_aggregate_id=execution_id,
                ),
            )

        def add_participant_step(u):
            self._send(
                u,
                Command(
                    target_service="tournament",
                    command_type="AddParticipant",
                    payload={
                        "tournament_aggregate_id": tournament_id,
                        "student": state["student"],
                    },
                    unit_of_work_ref=u.uow_id,
                    target_aggregate_id=tournament_id,
                ),
                lock_states=[IN_UPDATE_TOURNAMENT],
            )

        def undo_add(u):
            self._runtime.gateway.send(
                Command(
                    target_service="tournament",
                    command_type="RemoveParticipant",
                    payload={
                        "tournament_aggregate_id": tournament_id,
                        "user_aggregate_id": user_id,
                    },
                    unit_of_work_ref=u.uow_id,
                    target_aggregate_id=tournament_id,
                )
            )

        steps = [
            Step("getUserStep", get_user_step),
            Step(
                "addParticipantStep",
                add_participant_step,
                dependencies=["getUserStep"],
                compensation=undo_add,
            ),
        ]
        return self._workflow("addParticipant", steps, uow), state

    # -- choreography-style Type D -----------------------------------------

    def anonymize_user_in_tournaments(self, user_id):
        uow = self._new_uow()

        def anonymize_step(u):
            self._send(
                u,
                Command(
                    target_service="user",
                    command_type="AnonymizeUser",
                    payload={"user_aggregate_id": user_id},
                    unit_of_work_ref=u.uow_id,
                    target_aggregate_id=user_id,
                ),
            )

        return self._workflow(
            "anonymizeUser", [Step("anonymizeUserStep", anonymize_step)], uow
        ), None

    # -- event-triggered processing functionalities -------------------------

    def process_student_name_update(self, tournament_id, event):
        uow = self._new_uow()

        def process_step(u):
            self._send(
                u,
                Command(
                    target_service="tournament",
                    command_type="ProcessStudentNameUpdate",
                    payload={
                        "tournament_aggregate_id": tournament_id,
                        "sender_execution_id": event.publisher_aggregate_id,
                        "publisher_version": event.publisher_version,
                        **event.payload,
                    },
                    unit_of_work_ref=u.uow_id,
                    target_aggregate_id=tournament_id,
                ),
                lock_states=[IN_UPDATE_TOURNAMENT],
            )

        return self._workflow(
            "processStudentNameUpdate",
            [Step("processStudentNameUpdateStep", process_step)],
            uow,
        ), None

    def process_anonymize_user(self, tournament_id, event):
        uow = self._new_uow()

        def process_step(u):
            self._send(
                u,
                Command(
                    target_service="tournament",
                    command_type="ProcessAnonymizeUser",
                    payload={
                        "tournament_aggregate_id": tournament_id,
                        "publisher_version": event.publisher_version,
                        **event.payload,
                    },
                    unit_of_work_ref=u.uow_id,
                    target_aggregate_id=tournament_id,
                ),
                lock_states=[IN_UPDATE_TOURNAMENT],
            )

        return self._workflow(
            "processAnonymizeUser",
            [Step("processAnonymizeUserStep", process_step)],
            uow,
        ), None

    # -- seeding flows ------------------------------------------------------

    def create_user(self, name, role):
        uow = self._new_uow()
        result = {}

        def create_step(u):
            result.update(
                self._send(
                    u,
                    Command(
                        target_service="user",
                        command_type="CreateUser",
                        payload={"name": name, "role": role},
                        unit_of_work_ref=u.uow_id,
                    ),
                )
            )

        return self._workflow("createUser", [Step("createUserStep", create_step)], uow), result

    def create_execution(self, course_code):
        uow = self._new_uow()
        result = {}

        def create_step(u):
            result.update(
                self._send(
                    u,
                    Command(
                        target_service="execution",
                        command_type="CreateExecution",
                        payload={"course_code": course_code},
                        unit_of_work_ref=u.uow_id,
                    ),
                )
            )

        return self._workflow(
            "createExecution", [Step("createExecutionStep", create_step)], uow
        ), result

    def create_enrolled_student(self, execution_id, name, role="STUDENT"):
        """Create a user and enroll it in one functionality (two steps,
        one transaction): the seeding shape for bulk setups."""
        uow = self._new_uow()
        result = {}

        def create_user_step(u):
            result.update(
                self._send(
                    u,
                    Command(
                        target_service="user",
                        command_type="CreateUser",
                        payload={"name": name, "role": role},
                        unit_of_work_ref=u.uow_id,
                    ),
                )
            )

        def enroll_step(u):
            self._send(
                u,
                Command(
                    target_service="execution",
                    command_type="EnrollStudent",
                    payload={
                        "execution_aggregate_id": execution_id,
                        "user_aggregate_id": result["user_aggregate_id"],
                        "name": name,
                        "role": role,
                    },
                    unit_of_work_ref=u.uow_id,
                    target_aggregate_id=execution_id,
                ),
            )

        steps = [
            Step("createUserStep", create_user_step),
            Step("enrollStep", enroll_step, dependencies=["createUserStep"]),
        ]
        return self._workflow("createEnrolledStudent", steps, uow), result

    def enroll_student(self, execution_id, user_id):
        uow = self._new_uow()
        state = {}

        def get_user_step(u):
            state["user"] = self._send(
                u,
                Command(
                    target_service="user",
                    command_type="GetUser",
                    payload={"user_aggregate_id": user_id},
                    unit_of_work_ref=u.uow_id,
                    target_aggregate_id=user_id,
                ),
            )

        def enroll_step(u):
            self._send(
                u,
                Command(
                    target_service="execution",
                    command_type="EnrollStudent",
                    payload={
                        "execution_aggregate_id": execution_id,
                        "user_aggregate_id": user_id,
                        "name": state["user"]["name"],
                        "role": state["user"]["role"],
                    },
                    unit_of_work_ref=u.uow_id,
                    target_aggregate_id=execution_id,
                ),
            )

        steps = [
            Step("getUserStep", get_user_step),
            Step("enrollStep", enroll_step, dependencies=["getUserStep"]),
        ]
        return self._workflow("enrollStudent", steps, uow), state

    def create_tournament(self, execution_id, creator_user_id, start_time, end_time,
                          max_participants, topics=()):
        uow = self._new_uow()
        state = {}
        result = {}

        def get_creator_step(u):
            state["creator"] = self._send(
                u,
                Command(
                    target_service="execution",
                    command_type="GetStudent",
                    payload={
                        "execution_aggregate_id": execution_id,
                        "user_aggregate_id": creator_user_id,
                    },
                    unit_of_work_ref=u.uow_id,
                    target_aggregate_id=execution_id,
                ),
            )

        def create_step(u):
            result.update(
                self._send(
                    u,
                    Command(
                        target_service="tournament",
                        command_type="CreateTournament",
                        payload={
                            "execution_aggregate_id": execution_id,
                            "creator": state["creator"],
                            "start_time": start_time,
                            "end_time": end_time,
                            "max_participants": max_participants,
                            "topics": list(topics),
                        },
                        unit_of_work_ref=u.uow_id,
                    ),
                )
            )

        steps = [
            Step("getCreatorStep", get_creator_step),
            Step("createTournamentStep", create_step, dependencies=["getCreatorStep"]),
        ]
        return self._workflow("createTournament", steps, uow), result
