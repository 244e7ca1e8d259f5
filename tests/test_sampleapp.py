from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from msim.aggregate import LifecycleState
from msim.errors import (
    AggregateDeleted,
    InvariantViolation,
    MergeConflictUnresolvable,
)
from msim.sampleapp.domain import (
    ANONYMOUS_TOKEN,
    CourseExecution,
    MemberRef,
    NotAStudent,
    StudentNotEnrolled,
    Tournament,
    TournamentFull,
    _merge_members,
)
from tests.conftest import seed_basic


def bare_tournament(max_participants=10, start=0, end=100):
    return Tournament(
        1, execution_id=9, creator=MemberRef(user_id=2, name="carol"),
        start_time=start, end_time=end, max_participants=max_participants)


# -- invariants ---------------------------------------------------------------


def test_start_before_end_ok():
    bare_tournament(start=0, end=100).verify_invariants()


def test_start_equal_end_violates():
    with pytest.raises(InvariantViolation):
        bare_tournament(start=5, end=5).verify_invariants()


@pytest.mark.parametrize("count", range(5))
def test_participant_limit_against_direct_comparison(count):
    # Oracle: direct comparison of counts 0..4 against limit 2.
    t = bare_tournament(max_participants=2)
    for i in range(count):
        t.participants[100 + i] = MemberRef(user_id=100 + i, name=f"u{i}")
    if count <= 2:
        t.verify_invariants()
    else:
        with pytest.raises(TournamentFull):
            t.verify_invariants()


def test_capacity_error_is_an_invariant_violation():
    assert issubclass(TournamentFull, InvariantViolation)


# -- merge hook -----------------------------------------------------------------


def committed_pair(mutate_a, mutate_b):
    ancestor = bare_tournament()
    ancestor.version = 3
    side_a = ancestor.copy_for_write()
    mutate_a(side_a)
    side_a.version = 4  # the concurrently committed side
    side_b = ancestor.copy_for_write()
    mutate_b(side_b)
    return ancestor, side_a, side_b


def test_merge_unions_participant_additions():
    # Oracle: union of both sides' additions over an empty ancestor.
    ancestor, committed, staged = committed_pair(
        lambda t: t.participants.__setitem__(7, MemberRef(7, "p1")),
        lambda t: t.participants.__setitem__(8, MemberRef(8, "p2")),
    )
    merged = staged.merge_fields(committed, ancestor)
    assert set(merged.participants) == {7, 8}


def test_merge_respects_removals_on_either_side():
    ancestor = bare_tournament()
    ancestor.participants[7] = MemberRef(7, "p1")
    ancestor.participants[8] = MemberRef(8, "p2")
    ancestor.version = 3
    committed = ancestor.copy_for_write()
    del committed.participants[7]
    committed.version = 4
    staged = ancestor.copy_for_write()
    del staged.participants[8]
    merged = staged.merge_fields(committed, ancestor)
    assert merged.participants == {}


def test_merge_scalar_single_side_change_wins():
    ancestor, committed, staged = committed_pair(
        lambda t: setattr(t, "end_time", 500),
        lambda t: None,
    )
    merged = staged.merge_fields(committed, ancestor)
    assert merged.end_time == 500


def test_merge_conflicting_scalars_unresolvable():
    ancestor, committed, staged = committed_pair(
        lambda t: setattr(t, "max_participants", 20),
        lambda t: setattr(t, "max_participants", 30),
    )
    with pytest.raises(MergeConflictUnresolvable):
        staged.merge_fields(committed, ancestor)


def test_merge_anonymous_name_is_absorbing():
    ancestor, committed, staged = committed_pair(
        lambda t: setattr(t, "creator", replace(t.creator, name=ANONYMOUS_TOKEN)),
        lambda t: setattr(t, "creator", replace(t.creator, name="renamed")),
    )
    merged = staged.merge_fields(committed, ancestor)
    assert merged.creator.name == ANONYMOUS_TOKEN


# The member merge as it was before it kept members shared by identity:
# every common member is rebuilt field by field. The reference for the
# property test below.


def reference_merge_member(local, committed, ancestor):
    if local.user_id != committed.user_id:
        raise MergeConflictUnresolvable("member identity diverged")
    if ANONYMOUS_TOKEN in (local.name, committed.name):
        name = ANONYMOUS_TOKEN
    else:
        ancestor_name = ancestor.name if ancestor else None
        if local.name == committed.name:
            name = local.name
        elif local.name != ancestor_name and committed.name != ancestor_name:
            raise MergeConflictUnresolvable("both sides changed member name")
        else:
            name = local.name if local.name != ancestor_name else committed.name
    return MemberRef(
        user_id=local.user_id,
        name=name,
        exec_version=max(local.exec_version, committed.exec_version),
        user_version=max(local.user_version, committed.user_version),
    )


def reference_merge_members(local, committed, ancestor):
    merged = {}
    for user_id in set(local) | set(committed):
        in_local, in_committed, in_ancestor = (
            user_id in local, user_id in committed, user_id in ancestor)
        if in_local and in_committed:
            merged[user_id] = reference_merge_member(
                local[user_id], committed[user_id], ancestor.get(user_id))
        elif in_local:
            if not in_ancestor:
                merged[user_id] = local[user_id]
        else:
            if not in_ancestor:
                merged[user_id] = committed[user_id]
    return merged


_ANCESTOR_IDS = range(1, 7)
# What one side does to an ancestor member: keep the shared object, rename,
# anonymize, raise or lower a watermark, remove it, or replace it with an
# equal but distinct object.
_member_edits = st.sampled_from(
    ["keep", "rename", "anonymize", "raise", "lower", "remove", "copy"])


def _apply(edit, member, side):
    if edit == "keep":
        return member
    if edit == "rename":
        return replace(member, name=f"{member.name}-{side}")
    if edit == "anonymize":
        return replace(member, name=ANONYMOUS_TOKEN)
    if edit == "raise":
        return replace(member, exec_version=member.exec_version + 2,
                       user_version=member.user_version + 1)
    if edit == "lower":
        return replace(member, exec_version=max(0, member.exec_version - 2))
    if edit == "copy":
        return replace(member)
    return None  # remove


@st.composite
def _merge_inputs(draw):
    ancestor = {
        user_id: MemberRef(user_id, draw(st.sampled_from(["a", "b", ANONYMOUS_TOKEN])),
                           exec_version=draw(st.integers(0, 4)),
                           user_version=draw(st.integers(0, 4)))
        for user_id in _ANCESTOR_IDS if draw(st.booleans())
    }
    sides = []
    for side in ("local", "committed"):
        members = {}
        for user_id, member in ancestor.items():
            edited = _apply(draw(_member_edits), member, side)
            if edited is not None:
                members[user_id] = edited
        for user_id in draw(st.sets(st.integers(7, 9), max_size=2)):
            members[user_id] = MemberRef(user_id, f"new-{side}")
        sides.append(members)
    local, committed = sides
    # Sometimes one object added on both sides, as a replayed addition is.
    if draw(st.booleans()):
        shared = MemberRef(10, "shared")
        local[10] = committed[10] = shared
    return local, committed, ancestor


@given(_merge_inputs())
def test_member_merge_equals_reference_and_reuses_equal_sides(inputs):
    local, committed, ancestor = inputs
    try:
        expected = reference_merge_members(local, committed, ancestor)
    except MergeConflictUnresolvable:
        with pytest.raises(MergeConflictUnresolvable):
            _merge_members(local, committed, ancestor)
        return
    merged = _merge_members(local, committed, ancestor)
    assert merged == expected
    for user_id, member in merged.items():
        if member == local.get(user_id):
            assert member is local[user_id]
        elif member == committed.get(user_id):
            assert member is committed[user_id]


def test_merged_execution_shares_every_member_neither_side_changed():
    ancestor = CourseExecution(1, "SE-101")
    for user_id in range(1, 51):
        ancestor.students[user_id] = MemberRef(user_id, f"student-{user_id}")
    ancestor.version = 3
    committed = ancestor.copy_for_write()
    committed.students[1] = replace(committed.students[1], name="renamed-1",
                                    exec_version=4)
    committed.version = 4
    staged = ancestor.copy_for_write()
    staged.students[2] = replace(staged.students[2], name="renamed-2")
    merged = staged.merge_fields(committed, ancestor)
    assert merged.students[1] is committed.students[1]
    assert merged.students[2] is staged.students[2]
    for user_id in range(3, 51):
        assert merged.students[user_id] is ancestor.students[user_id]


# -- functionalities ----------------------------------------------------------------


def test_get_tournament_view(saga_sim):
    execution_id, tournament_id, creator_id, user_ids = seed_basic(saga_sim)
    view = saga_sim.app.get_tournament(tournament_id)
    assert view["tournament_aggregate_id"] == tournament_id
    assert view["creator"]["name"] == "creator"
    assert view["participants"] == {}


def test_get_deleted_tournament_raises(saga_sim):
    sim = saga_sim
    execution_id, tournament_id, _, _ = seed_basic(sim)
    tombstone = sim.store.latest(tournament_id).copy_for_write()
    tombstone.state = LifecycleState.DELETED
    tombstone.version = sim.versioning.increment_and_get_version_number()
    sim.store.install(records=[tombstone])
    with pytest.raises(AggregateDeleted):
        sim.app.get_tournament(tournament_id)


def test_add_participant_to_empty_tournament(saga_sim):
    execution_id, tournament_id, _, user_ids = seed_basic(saga_sim)
    saga_sim.app.add_participant(tournament_id, execution_id, user_ids[0])
    assert len(saga_sim.app.get_tournament(tournament_id)["participants"]) == 1


def test_add_participant_requires_enrollment(saga_sim):
    execution_id, tournament_id, _, _ = seed_basic(saga_sim)
    outsider = saga_sim.app.create_user("outsider")
    with pytest.raises(NotAStudent):
        saga_sim.app.add_participant(tournament_id, execution_id, outsider)


def test_add_participant_capacity_fast_path(saga_sim):
    sim = saga_sim
    app = sim.app
    execution_id = app.create_execution("SE")
    creator = app.create_user("creator")
    app.enroll_student(execution_id, creator)
    users = []
    for i in range(3):
        u = app.create_user(f"u{i}")
        app.enroll_student(execution_id, u)
        users.append(u)
    tournament_id = app.create_tournament(execution_id, creator, 0, 100, 2)
    app.add_participant(tournament_id, execution_id, users[0])
    app.add_participant(tournament_id, execution_id, users[1])
    with pytest.raises(TournamentFull):
        app.add_participant(tournament_id, execution_id, users[2])


def test_enroll_requires_student_role(saga_sim):
    sim = saga_sim
    execution_id = sim.app.create_execution("SE")
    teacher = sim.app.create_user("prof", role="TEACHER")
    with pytest.raises(NotAStudent):
        sim.app.enroll_student(execution_id, teacher)


def test_rename_unenrolled_student_rejected(saga_sim):
    execution_id, tournament_id, _, _ = seed_basic(saga_sim)
    stranger = saga_sim.app.create_user("stranger")
    with pytest.raises(StudentNotEnrolled):
        saga_sim.app.update_student_name(execution_id, stranger, "x")


def test_rename_with_no_subscribing_tournament_writes_nothing_downstream(saga_sim):
    sim = saga_sim
    execution_id, tournament_id, _, user_ids = seed_basic(sim)
    versions_before = sim.store.versions(tournament_id)
    # user_ids[0] is not a participant/creator: no tournament reacts
    sim.app.update_student_name(execution_id, user_ids[0], "renamed")
    sim.run_event_cycles(2)
    assert sim.store.versions(tournament_id) == versions_before


def test_two_renames_apply_in_publisher_order(saga_sim):
    # Oracle: sequential execution; the second name must win.
    sim = saga_sim
    execution_id, tournament_id, _, user_ids = seed_basic(sim)
    sim.app.add_participant(tournament_id, execution_id, user_ids[0])
    sim.app.update_student_name(execution_id, user_ids[0], "first")
    sim.app.update_student_name(execution_id, user_ids[0], "second")
    sim.run_event_cycles(2)
    view = sim.app.get_tournament(tournament_id)
    assert view["participants"][str(user_ids[0])]["name"] == "second"


def test_rename_updates_creator_too(saga_sim):
    sim = saga_sim
    execution_id, tournament_id, creator_id, _ = seed_basic(sim)
    sim.app.update_student_name(execution_id, creator_id, "new-creator-name")
    sim.run_event_cycles(2)
    assert sim.app.get_tournament(tournament_id)["creator"]["name"] == "new-creator-name"


def test_anonymize_reaches_tournaments(saga_sim):
    sim = saga_sim
    execution_id, tournament_id, creator_id, user_ids = seed_basic(sim)
    sim.app.add_participant(tournament_id, execution_id, user_ids[0])
    sim.app.anonymize_user(user_ids[0])
    sim.run_event_cycles(2)
    view = sim.app.get_tournament(tournament_id)
    assert view["participants"][str(user_ids[0])]["name"] == ANONYMOUS_TOKEN
    # the user aggregate itself was anonymized as well
    assert sim.store.latest(user_ids[0]).name == ANONYMOUS_TOKEN


def test_anonymize_user_in_no_tournament_writes_nothing_downstream(saga_sim):
    sim = saga_sim
    execution_id, tournament_id, _, user_ids = seed_basic(sim)
    versions_before = sim.store.versions(tournament_id)
    sim.app.anonymize_user(user_ids[1])
    sim.run_event_cycles(2)
    assert sim.store.versions(tournament_id) == versions_before


def test_anonymize_is_idempotent(saga_sim):
    # Business state is unchanged by a repeated anonymize; only the
    # upstream-version watermark may advance.
    sim = saga_sim
    execution_id, tournament_id, _, user_ids = seed_basic(sim)
    sim.app.add_participant(tournament_id, execution_id, user_ids[0])
    sim.app.anonymize_user(user_ids[0])
    sim.run_event_cycles(2)
    snapshot = strip_watermarks(sim.store.latest(tournament_id).domain_payload())
    sim.app.anonymize_user(user_ids[0])
    sim.run_event_cycles(2)
    assert strip_watermarks(
        sim.store.latest(tournament_id).domain_payload()) == snapshot


def strip_watermarks(payload):
    # Version watermarks are commit bookkeeping; the models assign version
    # numbers differently, so equivalence is judged on business state.
    out = dict(payload)
    out["creator"] = {
        k: v for k, v in payload["creator"].items()
        if k not in ("exec_version", "user_version")
    }
    out["participants"] = {
        key: {k: v for k, v in member.items()
              if k not in ("exec_version", "user_version")}
        for key, member in payload["participants"].items()
    }
    return out


def test_saga_and_causal_agree_on_sequential_history(make_sim):
    # Observational equivalence: identical call sequences, identical final
    # domain payloads.
    payloads = {}
    for model in ("saga", "tcc"):
        sim = make_sim(transaction_model=model, tcc_commit_store_ms=0.0)
        execution_id, tournament_id, _, user_ids = seed_basic(sim, students=3)
        sim.app.add_participant(tournament_id, execution_id, user_ids[0])
        sim.app.add_participant(tournament_id, execution_id, user_ids[1])
        sim.app.update_student_name(execution_id, user_ids[0], "renamed")
        sim.run_event_cycles(2)
        sim.app.anonymize_user(user_ids[1])
        sim.run_event_cycles(2)
        payloads[model] = strip_watermarks(
            sim.store.latest(tournament_id).domain_payload())
    assert payloads["saga"] == payloads["tcc"]
