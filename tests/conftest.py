"""Fixtures shared by the test modules."""

import threading

import pytest

from fedqr import linalg


@pytest.fixture
def started_threads(monkeypatch) -> list:
    """Every thread started during the test; ``linalg`` starts all of the package's."""
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(linalg.threading, "Thread", Counted)
    return started
