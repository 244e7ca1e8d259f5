"""The benchmark's tracer wraps msim methods by name.

Installing it for each versioning strategy it supports checks that every
name it wraps still exists, so a rename inside msim fails here rather than
on the next traced benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

from msim.messaging import CommandGateway
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
