import contextlib
import signal

import pytest


@pytest.fixture
def deadline():
    """``with deadline(s):`` raises TimeoutError in its block after s seconds of wall time,
    so a call that would hang fails instead."""
    @contextlib.contextmanager
    def within(seconds):
        def expire(signum, frame):
            raise TimeoutError(f"still running after {seconds} s")
        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    return within
