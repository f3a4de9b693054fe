"""Fixtures shared by the test modules."""

import threading

import pytest

from interplab import numlin


class _Started(list):
    """The threads numlin.on_cores started; forked lists the pids of the
    workers numlin.on_processes forked. clear() empties both."""

    def __init__(self):
        super().__init__()
        self.forked = []

    def clear(self):
        super().clear()
        self.forked.clear()


@pytest.fixture
def force_cores(monkeypatch):
    """force_cores(n) makes numlin.core_count() report n cores, so that
    numlin.on_cores, numlin.on_processes and their callers split their
    work n ways on any machine. It returns the list into which every
    thread that on_cores starts is appended; its forked attribute gets
    the pid of every worker that on_processes forks. Both are for the
    test to count and check."""
    started = _Started()
    real_fork = numlin.os.fork

    class Thread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    def fork():
        pid = real_fork()
        if pid:
            started.forked.append(pid)
        return pid

    def force(cores):
        monkeypatch.setattr(numlin, "core_count", lambda: cores)
        monkeypatch.setattr(numlin.threading, "Thread", Thread)
        monkeypatch.setattr(numlin.os, "fork", fork)
        return started

    return force
