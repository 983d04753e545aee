"""Fixtures shared by the test modules."""

import multiprocessing.process
import os
import pathlib
import signal
import threading

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


@pytest.fixture
def fifo():
    """``fifo(path, data)`` makes ``path`` a named pipe and starts a thread
    that writes ``data`` into it once a reader opens it.  By the end of the
    test a reader must have taken every pipe's data.  A reader that opens a
    pipe again would wait for a writer for ever; after 10 s it gets a
    TimeoutError instead."""
    writers = []

    def waited(signum, frame):
        raise TimeoutError("a pipe was opened again after its data was read")

    def make(path, data):
        os.mkfifo(path)
        writer = threading.Thread(target=pathlib.Path(path).write_bytes, args=(data,), daemon=True)
        writer.start()
        writers.append(writer)
        return path

    previous = signal.signal(signal.SIGALRM, waited)
    signal.alarm(10)
    try:
        yield make
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    for writer in writers:
        writer.join(timeout=10)
        assert not writer.is_alive(), "a pipe was never read"
