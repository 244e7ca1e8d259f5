"""The benchmark's three workloads.

Each workload builds a fresh world on a new Simulator, hands each of the two
closed-loop clients a list of operations generated from the seed, and checks
the program's outputs after the storm. A round is one such world; the runner
repeats rounds until the run's time is spent, so every round has the same
shape and the same checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from msim.aggregate import NOT_IN_SAGA

READ = "read"
WRITE = "write"
CLIENTS = 2


@dataclass(frozen=True)
class Op:
    kind: str  # READ or WRITE
    target: int  # tournament id, or student id for a rename
    arg: object = None  # student to add, or the new name


@dataclass
class World:
    execution_id: int
    tournament_ids: list
    student_ids: list
    extra: dict = field(default_factory=dict)


def _mix(rng, reads: list, writes: list) -> list:
    ops = reads + writes
    rng.shuffle(ops)
    return ops


def _read(sim, op):
    view = sim.app.get_tournament(op.target)
    return view["tournament_aggregate_id"], len(view["participants"])


def _committed_adds(logs) -> dict:
    """tournament id -> set of students whose add committed."""
    adds: dict = {}
    for log in logs:
        for op, ok, _, _ in log:
            if ok and op.kind == WRITE:
                adds.setdefault(op.target, set()).add(op.arg)
    return adds


def _read_failures(logs) -> list[str]:
    """A read sees its tournament and every add its own client committed to it."""
    failures = []
    for log in logs:
        running_adds = {}
        for op, ok, _, observed in log:
            if ok and op.kind == READ:
                own = running_adds.get(op.target, 0)
                tournament_id, participants = observed
                if tournament_id != op.target:
                    failures.append(f"read of tournament {op.target} returned {tournament_id}")
                elif participants < own:
                    failures.append(
                        f"read of tournament {op.target} saw {participants} participants "
                        f"after its client added {own}")
            elif ok and op.kind == WRITE:
                running_adds[op.target] = running_adds.get(op.target, 0) + 1
    return failures


class _ReadsAndAdds:
    """Clients send getTournamentById (READ) and addParticipant (WRITE)."""

    def call(self, sim, world, op):
        if op.kind == READ:
            return _read(sim, op)
        sim.app.add_participant(op.target, world.execution_id, op.arg)
        return None

    def after_request(self, sim, world, client, index) -> None:
        pass


class HotspotSaga(_ReadsAndAdds):
    """Both clients enroll distinct students into one tournament that grows
    to about 800 members, and read it back."""

    name = "hotspot-saga"
    config = dict(transaction_model="saga", transport_mode="local",
                  versioning_strategy="centralized")
    students = 1000
    adds_per_client = 400
    reads_per_client = 100

    def build(self, sim, rng, workdir) -> World:
        app = sim.app
        execution_id = app.create_execution("HOT-101")
        creator = app.create_enrolled_student(execution_id, "creator")
        students = [app.create_enrolled_student(execution_id, f"student-{i}")
                    for i in range(self.students)]
        tournament_id = app.create_tournament(
            execution_id, creator, start_time=0, end_time=10_000,
            max_participants=self.students)
        return World(execution_id, [tournament_id], students)

    def plans(self, world, rng) -> list[list[Op]]:
        tournament_id = world.tournament_ids[0]
        students = rng.sample(world.student_ids, CLIENTS * self.adds_per_client)
        plans = []
        for client in range(CLIENTS):
            mine = students[client * self.adds_per_client:(client + 1) * self.adds_per_client]
            plans.append(_mix(rng,
                              [Op(READ, tournament_id)] * self.reads_per_client,
                              [Op(WRITE, tournament_id, s) for s in mine]))
        return plans

    def check(self, sim, world, logs) -> list[str]:
        failures = _read_failures(logs)
        tournament = sim.store.latest(world.tournament_ids[0])
        expected = _committed_adds(logs).get(tournament.aggregate_id, set())
        if set(tournament.participants) != expected:
            failures.append(f"tournament holds {len(tournament.participants)} participants, "
                            f"{len(expected)} adds committed")
        if tournament.saga_state != NOT_IN_SAGA:
            failures.append(f"tournament left in saga state {tournament.saga_state}")
        return failures

    def properties(self, sim, world, logs) -> dict:
        tournament = sim.store.latest(world.tournament_ids[0])
        return {"final_members": len(tournament.participants) + 1}


class MixedTcc:
    """Reads of 20 small tournaments and renames of students, all committed
    into one course execution, with event cycles run by client 0."""

    name = "mixed-tcc"
    config = dict(transaction_model="tcc", transport_mode="local-serialized",
                  versioning_strategy="centralized")
    students = 300
    tournaments = 20
    members = 10
    requests_per_client = 250
    read_share = 0.6
    cycle_every = 25

    def build(self, sim, rng, workdir) -> World:
        app = sim.app
        execution_id = app.create_execution("TCC-101")
        students = [app.create_enrolled_student(execution_id, f"student-{i}")
                    for i in range(self.students)]
        tournament_ids = []
        for _ in range(self.tournaments):
            creator, *participants = rng.sample(students, self.members)
            tournament_id = app.create_tournament(
                execution_id, creator, start_time=0, end_time=10_000,
                max_participants=self.members)
            for student in participants:
                app.add_participant(tournament_id, execution_id, student)
            tournament_ids.append(tournament_id)
        sim.run_event_cycles(1)
        return World(execution_id, tournament_ids, students, {"cycles": []})

    def plans(self, world, rng) -> list[list[Op]]:
        students = list(world.student_ids)
        rng.shuffle(students)
        half = len(students) // CLIENTS
        reads = round(self.requests_per_client * self.read_share)
        plans = []
        for client in range(CLIENTS):
            mine = students[client * half:(client + 1) * half]
            renames = [Op(WRITE, rng.choice(mine), f"c{client}-r{k}")
                       for k in range(self.requests_per_client - reads)]
            plans.append(_mix(rng,
                              [Op(READ, rng.choice(world.tournament_ids))
                               for _ in range(reads)],
                              renames))
        return plans

    def call(self, sim, world, op):
        if op.kind == READ:
            return _read(sim, op)
        sim.app.update_student_name(world.execution_id, op.target, op.arg)
        return None

    def after_request(self, sim, world, client, index) -> None:
        if client == 0 and index % self.cycle_every == 0:
            world.extra["cycles"].append(sim.run_event_cycles(1))

    def _drain(self, sim, world, limit=100) -> bool:
        """Run event cycles until one changes no tournament.

        Handler calls are not a drain signal: every cycle calls the handler
        for each event newer than any member's watermark, applicable or not.
        """
        for _ in range(limit):
            before = [sim.store.latest(t).version for t in world.tournament_ids]
            sim.run_event_cycles(1)
            if before == [sim.store.latest(t).version for t in world.tournament_ids]:
                return True
        return False

    def check(self, sim, world, logs) -> list[str]:
        failures = [f"read of tournament {op.target} saw {observed}"
                    for log in logs for op, ok, _, observed in log
                    if ok and op.kind == READ and observed != (op.target, self.members - 1)]
        if not self._drain(sim, world):
            failures.append("event cycles still changing tournaments after 100 cycles")
        execution = sim.store.latest(world.execution_id)
        names = {uid: ref.name for uid, ref in execution.students.items()}
        for tournament_id in world.tournament_ids:
            for member in sim.store.latest(tournament_id).members():
                if member.name != names.get(member.user_id):
                    failures.append(
                        f"tournament {tournament_id} member {member.user_id} is "
                        f"{member.name!r}, execution says {names.get(member.user_id)!r}")
        for log in logs:
            committed, attempted_after = {}, {}
            for op, ok, _, _ in log:
                if op.kind != WRITE:
                    continue
                if ok:
                    committed[op.target] = op.arg
                    attempted_after.pop(op.target, None)
                else:
                    attempted_after.setdefault(op.target, set()).add(op.arg)
            for student, name in committed.items():
                allowed = {name} | attempted_after.get(student, set())
                if names.get(student) not in allowed:
                    failures.append(f"student {student} is {names.get(student)!r}, "
                                    f"last committed rename was {name!r}")
        return failures

    def properties(self, sim, world, logs) -> dict:
        cycles = world.extra["cycles"]
        return {"event_cycles": len(cycles), "events_processed": sum(cycles)}


class RemoteBroker(_ReadsAndAdds):
    """Reads and adds on 16 small tournaments, every message through the
    broker and every version through a remote counter, with injected faults."""

    name = "remote-broker"
    config = dict(transaction_model="saga", transport_mode="broker",
                  versioning_strategy="centralized-remote")
    students = 40
    tournaments = 16
    requests_per_client = 200
    fault_every = 20
    fault_rules = 100
    functionality = "addParticipant"
    step = "addParticipantStep"

    def plan_file(self, workdir: Path) -> Path:
        path = workdir / "remote-broker-faults.csv"
        rows = ["functionality,step,invocation_index,action,value"]
        rows += [f"{self.functionality},{self.step},{self.fault_every * k},FAIL,"
                 f"SimulatedInfraFault" for k in range(1, self.fault_rules + 1)]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        return path

    def build(self, sim, rng, workdir) -> World:
        app = sim.app
        # Loading a plan resets the handler's invocation counters, so counting
        # from here matches the invocation index the rules are written against.
        sim.impairment.load_plan(self.plan_file(workdir))
        consults: dict = {}
        consult = sim.impairment.consult

        def counting_consult(functionality, step):
            key = (functionality, step)
            consults[key] = consults.get(key, 0) + 1
            return consult(functionality, step)

        sim.impairment.consult = counting_consult
        execution_id = app.create_execution("NET-101")
        students = [app.create_enrolled_student(execution_id, f"student-{i}")
                    for i in range(self.students)]
        tournament_ids, creators = [], {}
        for _ in range(self.tournaments):
            creator = rng.choice(students)
            tournament_id = app.create_tournament(
                execution_id, creator, start_time=0, end_time=10_000,
                max_participants=self.students)
            tournament_ids.append(tournament_id)
            creators[tournament_id] = creator
        return World(execution_id, tournament_ids, students,
                     {"consults": consults, "creators": creators})

    def plans(self, world, rng) -> list[list[Op]]:
        pairs = [(t, s) for t in world.tournament_ids for s in world.student_ids
                 if s != world.extra["creators"][t]]
        rng.shuffle(pairs)
        adds = self.requests_per_client // 2
        plans = []
        for client in range(CLIENTS):
            mine = pairs[client * adds:(client + 1) * adds]
            plans.append(_mix(rng,
                              [Op(READ, rng.choice(world.tournament_ids))
                               for _ in range(self.requests_per_client - adds)],
                              [Op(WRITE, t, s) for t, s in mine]))
        return plans

    def check(self, sim, world, logs) -> list[str]:
        failures = _read_failures(logs)
        committed = _committed_adds(logs)
        for tournament_id in world.tournament_ids:
            tournament = sim.store.latest(tournament_id)
            expected = committed.get(tournament_id, set())
            if set(tournament.participants) != expected:
                failures.append(f"tournament {tournament_id} holds "
                                f"{len(tournament.participants)} participants, "
                                f"{len(expected)} adds committed")
            if tournament.saga_state != NOT_IN_SAGA:
                failures.append(f"tournament {tournament_id} left in saga state "
                                f"{tournament.saga_state}")
        invocations = world.extra["consults"].get((self.functionality, self.step), 0)
        reached = [self.fault_every * k for k in range(1, invocations // self.fault_every + 1)]
        fired = [(e["functionality"], e["step"], e["invocation"], e["action"], e["value"])
                 for e in sim.impairment.report_entries()]
        expected_fired = [(self.functionality, self.step, i, "FAIL", "SimulatedInfraFault")
                          for i in reached]
        if fired != expected_fired:
            failures.append(f"faults fired at invocations {[f[2] for f in fired]}, plan rules "
                            f"reached at {reached} in {invocations} invocations")
        if invocations > self.fault_every * self.fault_rules:
            failures.append(f"{invocations} invocations outran the fault plan")
        return failures

    def properties(self, sim, world, logs) -> dict:
        return {"faults_fired": len(sim.impairment.report_entries())}


WORKLOADS = {w.name: w for w in (HotspotSaga(), MixedTcc(), RemoteBroker())}
