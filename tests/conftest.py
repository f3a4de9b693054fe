"""Fixtures shared by the test modules."""

import threading

import pytest

from interplab import numlin


@pytest.fixture
def force_cores(monkeypatch):
    """force_cores(n) makes numlin.core_count() report n cores, so that
    numlin.on_cores and its callers split their work n ways on any machine.
    It returns the list into which every thread that on_cores starts is
    appended, for the test to count and check."""
    started = []

    class Thread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    def force(cores):
        monkeypatch.setattr(numlin, "core_count", lambda: cores)
        monkeypatch.setattr(numlin.threading, "Thread", Thread)
        return started

    return force
