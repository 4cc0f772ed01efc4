"""A time limit on every test call, so that a loop that never ends fails
its test instead of hanging the run.

The limit is far above the slowest test (a few seconds).  It uses
``SIGALRM``, so it applies only where that signal exists (POSIX).  The
handler fails the test through ``pytest.fail``, whose exception is not an
``Exception``: a ``TimeoutError`` raised inside ``cli.main`` would be
caught there and turned into exit 3.
"""

import signal

import pytest

TIME_LIMIT_S = 120


def _expire(signum, frame):
    pytest.fail(f"test call ran past {TIME_LIMIT_S} s", pytrace=False)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    if not hasattr(signal, "SIGALRM"):
        yield
        return
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
