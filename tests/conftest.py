from __future__ import annotations

import signal
from contextlib import contextmanager

import pytest


@contextmanager
def _time_limit(seconds):
    """Raise TimeoutError in the block once it has run for seconds."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def time_limit():
    """A context manager factory: a block that outlives it fails instead of hanging."""
    return _time_limit
