"""Fixtures shared by the test modules."""

import multiprocessing.process

import pytest


@pytest.fixture
def started_processes(monkeypatch):
    """A list that gets every ``multiprocessing`` process this test starts."""
    started = []
    start = multiprocessing.process.BaseProcess.start

    def recording_start(process):
        started.append(process)
        start(process)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", recording_start)
    return started
