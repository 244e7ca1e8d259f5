import threading
import time

import pytest

from msim import SimConfig, Simulator


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fail a test that leaves a thread it started alive 2 s after it ends.

    A simulator starts no thread of its own, so every thread a test leaves
    running is one the test started and did not see finish.
    """
    before = set(threading.enumerate())
    yield
    deadline = time.monotonic() + 2.0
    for thread in set(threading.enumerate()) - before:
        thread.join(max(0.0, deadline - time.monotonic()))
        assert not thread.is_alive(), f"{thread.name} still running after the test"


@pytest.fixture
def make_sim():
    """Factory for simulators that are closed on test teardown."""
    created = []

    def factory(**overrides):
        overrides.setdefault("clock_mode", "virtual")
        sim = Simulator(SimConfig(**overrides))
        created.append(sim)
        return sim

    yield factory
    for sim in created:
        sim.close()


@pytest.fixture
def saga_sim(make_sim):
    return make_sim(transaction_model="saga")


@pytest.fixture
def causal_sim(make_sim):
    return make_sim(transaction_model="tcc", tcc_commit_store_ms=0.0)


def seed_basic(sim, students=2, capacity=10):
    """One execution, one tournament, and `students` enrolled users.

    Returns (execution_id, tournament_id, creator_id, [user ids]).
    """
    app = sim.app
    execution_id = app.create_execution("SE-101")
    creator_id = app.create_user("creator")
    app.enroll_student(execution_id, creator_id)
    user_ids = []
    for i in range(students):
        user_id = app.create_user(f"student-{i}")
        app.enroll_student(execution_id, user_id)
        user_ids.append(user_id)
    tournament_id = app.create_tournament(
        execution_id, creator_id, start_time=0, end_time=1000,
        max_participants=capacity)
    return execution_id, tournament_id, creator_id, user_ids


def queue_waiter(gate, key, outcomes, name, call):
    """Run `call` on a thread named `name`; return once it waits at `gate`.

    The thread's outcome lands in outcomes[name]: "entered" when `call`
    returns, else the exception it raised.
    """
    queued = len(gate._queues.get(key, ()))

    def run():
        try:
            call()
            outcomes[name] = "entered"
        except Exception as exc:
            outcomes[name] = exc

    thread = threading.Thread(target=run, name=name)
    thread.start()
    deadline = time.monotonic() + 5
    while len(gate._queues.get(key, ())) <= queued:
        assert thread.is_alive(), f"{name} ended before it queued: {outcomes.get(name)}"
        assert time.monotonic() < deadline, f"{name} never queued"
        time.sleep(0.001)
    return thread
