"""The benchmark's tracer wraps msim methods by name.

Installing it for each versioning strategy it supports checks that every
name it wraps still exists, so a rename inside msim fails here rather than
on the next traced benchmark run. One traced send on each transport checks
that no dispatch is wrapped twice.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from msim.clock import RealClock
from msim.errors import default_registry
from msim.messaging import Command, CommandGateway
from msim.transaction import SagaUnitOfWorkService

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("versioning", ["centralized", "centralized-remote"])
def test_tracer_installs_and_restores(versioning):
    tracer_module = _load_tracer()
    send = CommandGateway.send
    lock = SagaUnitOfWorkService.acquire_semantic_lock
    tracer = tracer_module.Tracer()
    try:
        tracer.install(versioning)
        assert CommandGateway.send is not send
        assert SagaUnitOfWorkService.acquire_semantic_lock is not lock
    finally:
        tracer.uninstall()
    assert CommandGateway.send is send
    assert SagaUnitOfWorkService.acquire_semantic_lock is lock


@pytest.mark.parametrize("mode, serializing", [
    ("local", False), ("local-serialized", True), ("rpc", True), ("broker", True),
])
def test_one_send_records_one_dispatch_span(mode, serializing):
    tracer = _load_tracer().Tracer()
    tracer.install("centralized")
    gateway = CommandGateway(clock=RealClock(), error_registry=default_registry())
    try:
        gateway.configure_transport(mode, one_way_ms=0, delivery_ms=0, poll_ms=1)
        gateway.register_handler("svc", lambda command: {"seen": command.payload["n"]})
        tracer.reset()
        assert gateway.send(Command("svc", "Echo", payload={"n": 1})) == {"seen": 1}
    finally:
        gateway.close()
        tracer.uninstall()
    names = Counter(span.name for span in tracer.spans)
    assert names["messaging.dispatch"] == 1
    calls = 2 if serializing else 0
    assert names["serialization.encode"] == calls
    assert names["serialization.decode"] == calls
