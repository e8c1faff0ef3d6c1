import signal

import pytest


@pytest.fixture
def deadline():
    """Fail a test that runs past 30 s instead of letting it hang."""

    def expire(signum, frame):
        raise TimeoutError("the test ran past its 30 s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
