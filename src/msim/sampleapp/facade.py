"""Convenience façade: build-and-execute for each bundled functionality."""

from __future__ import annotations

from .domain import ANONYMIZE_USER_EVENT, UPDATE_STUDENT_NAME_EVENT, Role
from .functionalities import Functionalities
from .services import ExecutionService, TournamentService, UserService


class SampleApp:
    def __init__(self, runtime):
        self._runtime = runtime
        self.functionalities = Functionalities(runtime)

    # -- seeding -----------------------------------------------------------

    def create_user(self, name: str, role: str = Role.STUDENT.value) -> int:
        workflow, result = self.functionalities.create_user(name, role)
        workflow.execute()
        return result["user_aggregate_id"]

    def create_execution(self, course_code: str) -> int:
        workflow, result = self.functionalities.create_execution(course_code)
        workflow.execute()
        return result["execution_aggregate_id"]

    def enroll_student(self, execution_id: int, user_id: int) -> None:
        workflow, _ = self.functionalities.enroll_student(execution_id, user_id)
        workflow.execute()

    def create_enrolled_student(self, execution_id: int, name: str,
                                role: str = Role.STUDENT.value) -> int:
        workflow, result = self.functionalities.create_enrolled_student(
            execution_id, name, role)
        workflow.execute()
        return result["user_aggregate_id"]

    def create_tournament(self, execution_id, creator_user_id, start_time, end_time,
                          max_participants, topics=()) -> int:
        workflow, result = self.functionalities.create_tournament(
            execution_id, creator_user_id, start_time, end_time,
            max_participants, topics)
        workflow.execute()
        return result["tournament_aggregate_id"]

    # -- functionalities ------------------------------------------------------

    def get_tournament(self, tournament_id: int) -> dict:
        workflow, result = self.functionalities.get_tournament_by_id(tournament_id)
        workflow.execute()
        return result

    def update_student_name(self, execution_id, user_id, new_name) -> None:
        workflow, _ = self.functionalities.update_student_name(
            execution_id, user_id, new_name)
        workflow.execute()

    def add_participant(self, tournament_id, execution_id, user_id) -> None:
        workflow, _ = self.functionalities.add_participant(
            tournament_id, execution_id, user_id)
        workflow.execute()

    def anonymize_user(self, user_id) -> None:
        workflow, _ = self.functionalities.anonymize_user_in_tournaments(user_id)
        workflow.execute()


def register_sample_app(runtime) -> SampleApp:
    """Wire handlers, model decorators, and event reactions into a runtime."""
    app = SampleApp(runtime)
    decorators = (runtime.transactions.decorator(),)
    runtime.gateway.register_handler(
        "user", UserService(runtime).handle, decorators)
    runtime.gateway.register_handler(
        "execution", ExecutionService(runtime).handle, decorators)
    runtime.gateway.register_handler(
        "tournament", TournamentService(runtime).handle, decorators)

    # A tournament's subscriptions already narrow each event by sender,
    # member and version, and the handler skips a stale one, so a reaction
    # only runs its processing functionality.
    def reaction(process):
        def react(tournament_id, event):
            workflow, _ = process(tournament_id, event)
            workflow.execute()
        return react

    runtime.events.register(
        "tournament", UPDATE_STUDENT_NAME_EVENT,
        reaction(app.functionalities.process_student_name_update))
    runtime.events.register(
        "tournament", ANONYMIZE_USER_EVENT,
        reaction(app.functionalities.process_anonymize_user))
    return app
