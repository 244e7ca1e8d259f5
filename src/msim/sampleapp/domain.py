"""Bundled domain: User, CourseExecution, and Tournament aggregates.

Tournaments sit downstream of course executions and users: member value
objects carry the upstream versions they reflect, which is what the
tournament's event subscriptions are derived from. Processing an event
advances those watermarks, so consumption is monotone per publisher.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ..aggregate import Aggregate, EventSubscription
from ..errors import DomainError, InvariantViolation, MergeConflictUnresolvable

ANONYMOUS_TOKEN = "ANONYMOUS"
IN_UPDATE_TOURNAMENT = "IN_UPDATE_TOURNAMENT"

UPDATE_STUDENT_NAME_EVENT = "UpdateStudentNameEvent"
ANONYMIZE_USER_EVENT = "AnonymizeUserEvent"


class Role(str, Enum):
    STUDENT = "STUDENT"
    TEACHER = "TEACHER"


class StudentNotEnrolled(DomainError):
    pass


class NotAStudent(DomainError):
    pass


class TournamentFull(InvariantViolation):
    def __init__(self, message: str = "participant limit exceeded"):
        super().__init__("participantLimit", message)


@dataclass(frozen=True, slots=True)
class MemberRef:
    """A user as seen by a tournament: copied data plus upstream watermarks.

    exec_version is the course-execution version the copy reflects;
    user_version the user-aggregate version (0 until a user event lands).
    An immutable value object: working copies share members with the record
    they were copied from, and a change replaces the member with
    ``dataclasses.replace``.
    """

    user_id: int
    name: str
    exec_version: int = 0
    user_version: int = 0

    def as_payload(self) -> dict:
        return {
            "user_id": self.user_id,
            "name": self.name,
            "exec_version": self.exec_version,
            "user_version": self.user_version,
        }


class User(Aggregate):
    aggregate_type = "user"

    def __init__(self, aggregate_id, name, role=Role.STUDENT):
        super().__init__(aggregate_id)
        self.name = name
        self.role = Role(role)

    def copy_for_write(self):
        dup = User(self.aggregate_id, self.name, self.role)
        dup.state = self.state
        dup.saga_state = self.saga_state
        dup.prev_version = self.version
        return dup

    def verify_invariants(self):
        if not self.name:
            raise InvariantViolation("userName", "user name must not be empty")

    def merge_fields(self, committed, ancestor):
        merged = self.copy_for_write()
        _merge_scalars(merged, committed, ancestor, "name", "role")
        return merged

    def domain_payload(self):
        return {"name": self.name, "role": self.role.value, "state": self.state.value}


class CourseExecution(Aggregate):
    aggregate_type = "execution"

    def __init__(self, aggregate_id, course_code):
        super().__init__(aggregate_id)
        self.course_code = course_code
        self.students: dict[int, MemberRef] = {}

    def copy_for_write(self):
        dup = CourseExecution(self.aggregate_id, self.course_code)
        dup.students = dict(self.students)
        dup.state = self.state
        dup.saga_state = self.saga_state
        dup.prev_version = self.version
        return dup

    def verify_invariants(self):
        for user_id, student in self.students.items():
            if student.user_id != user_id:
                raise InvariantViolation("enrollmentKey", "student keyed by wrong id")
            if not student.name:
                raise InvariantViolation("studentName", "enrolled name must not be empty")

    def merge_fields(self, committed, ancestor):
        merged = self.copy_for_write()
        _merge_scalars(merged, committed, ancestor, "course_code")
        merged.students = _merge_members(
            self.students, committed.students,
            ancestor.students if ancestor else {})
        return merged

    def domain_payload(self):
        return {
            "course_code": self.course_code,
            "students": {str(k): v.as_payload() for k, v in sorted(self.students.items())},
            "state": self.state.value,
        }


class Tournament(Aggregate):
    aggregate_type = "tournament"

    def __init__(self, aggregate_id, execution_id, creator: MemberRef,
                 start_time: int, end_time: int, max_participants: int, topics=()):
        super().__init__(aggregate_id)
        self.execution_id = execution_id
        self.creator = creator
        self.participants: dict[int, MemberRef] = {}
        self.start_time = start_time
        self.end_time = end_time
        self.max_participants = max_participants
        self.topics = set(topics)

    def copy_for_write(self):
        dup = Tournament(
            self.aggregate_id, self.execution_id, self.creator,
            self.start_time, self.end_time, self.max_participants, self.topics)
        dup.participants = dict(self.participants)
        dup.state = self.state
        dup.saga_state = self.saga_state
        dup.prev_version = self.version
        return dup

    def verify_invariants(self):
        if not self.start_time < self.end_time:
            raise InvariantViolation("startBeforeEnd", "start time must precede end time")
        if len(self.participants) > self.max_participants:
            raise TournamentFull(
                f"{len(self.participants)} participants exceed limit "
                f"{self.max_participants}"
            )

    def members(self):
        yield self.creator
        yield from self.participants.values()

    def get_event_subscriptions(self):
        subs = []
        for member in self.members():
            subs.append(EventSubscription(
                UPDATE_STUDENT_NAME_EVENT, self.execution_id, member.exec_version,
                payload_match=("user_aggregate_id", member.user_id)))
            subs.append(EventSubscription(
                ANONYMIZE_USER_EVENT, member.user_id, member.user_version))
        return subs

    def merge_fields(self, committed, ancestor):
        merged = self.copy_for_write()
        _merge_scalars(merged, committed, ancestor,
                       "start_time", "end_time", "max_participants", "state")
        merged.topics = set(_merge_scalar(
            "topics", tuple(sorted(self.topics)), tuple(sorted(committed.topics)),
            tuple(sorted(ancestor.topics)) if ancestor else None))
        merged.creator = _merge_member(self.creator, committed.creator,
                                       ancestor.creator if ancestor else None)
        merged.participants = _merge_members(
            self.participants, committed.participants,
            ancestor.participants if ancestor else {})
        return merged

    def domain_payload(self):
        return {
            "execution_id": self.execution_id,
            "creator": self.creator.as_payload(),
            "participants": {str(k): v.as_payload() for k, v in sorted(self.participants.items())},
            "start_time": self.start_time,
            "end_time": self.end_time,
            "max_participants": self.max_participants,
            "topics": sorted(self.topics),
            "state": self.state.value,
        }


# -- three-way merge helpers ------------------------------------------------


def _merge_scalar(field, local, committed, ancestor):
    """Side that changed relative to the ancestor wins; both changed
    differently is a declared conflict."""
    if local == committed:
        return local
    local_changed = local != ancestor
    committed_changed = committed != ancestor
    if local_changed and committed_changed:
        raise MergeConflictUnresolvable(
            f"both sides changed {field}: {local!r} vs {committed!r}"
        )
    return local if local_changed else committed


def _merge_scalars(local, committed, ancestor, *names):
    """Three-way merge of the named immutable fields, written onto local."""
    for name in names:
        setattr(local, name, _merge_scalar(
            name, getattr(local, name), getattr(committed, name),
            getattr(ancestor, name) if ancestor else None))


def _merge_member(local: MemberRef, committed: MemberRef, ancestor: MemberRef | None):
    """Per-field member merge. Watermarks take the maximum; names resolve
    three-way, with anonymization absorbing (privacy must stick). A result
    equal to one side is that side's object, so versions keep sharing it."""
    if local.user_id != committed.user_id:
        raise MergeConflictUnresolvable("member identity diverged")
    if ANONYMOUS_TOKEN in (local.name, committed.name):
        name = ANONYMOUS_TOKEN
    else:
        name = _merge_scalar(
            "member name", local.name, committed.name,
            ancestor.name if ancestor else None)
    merged = MemberRef(
        user_id=local.user_id,
        name=name,
        exec_version=max(local.exec_version, committed.exec_version),
        user_version=max(local.user_version, committed.user_version),
    )
    if merged == local:
        return local
    return committed if merged == committed else merged


def _merge_members(local: dict, committed: dict, ancestor: dict) -> dict:
    """Set-style merge: union of both sides' additions minus both sides'
    removals relative to the ancestor; common members merge per field.

    A member both sides share by identity is unchanged on both, so it is
    kept as is: a merge costs a lookup per member plus a field merge per
    member that either side replaced.
    """
    merged: dict[int, MemberRef] = {}
    for user_id, mine in local.items():
        theirs = committed.get(user_id)
        if theirs is mine:
            merged[user_id] = mine
        elif theirs is not None:
            merged[user_id] = _merge_member(mine, theirs, ancestor.get(user_id))
        elif user_id not in ancestor:  # added locally
            merged[user_id] = mine
        # else: removed by the committed side; stays removed
    for user_id, theirs in committed.items():
        if user_id not in local and user_id not in ancestor:  # added concurrently
            merged[user_id] = theirs
    return merged
