"""A time limit on every test call and on every module's collection, so
that a loop that never ends fails instead of hanging the run.

The limit is far above the slowest test (a few seconds).  It uses
``SIGALRM``, so it applies only where that signal exists (POSIX).  The
alarm fails the test, or the module's collection, through
``pytest.fail``, whose exception is not an ``Exception``: a
``TimeoutError`` raised inside ``cli.main`` would be caught there and
turned into exit 3.  Hypothesis, though, takes that failure for a
falsifying example and runs the test again to shrink it, so a call still
running ``GRACE_S`` later ends the whole run with a ``KeyboardInterrupt``
that names the test: neither ``cli.main`` nor hypothesis catches one, and
pytest stops at once and exits 2.
"""

import contextlib
import signal

import pytest

TIME_LIMIT_S = 120
GRACE_S = 5


@contextlib.contextmanager
def _alarm(handler):
    previous = signal.signal(signal.SIGALRM, handler)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        signal.signal(signal.SIGALRM, stop)
        signal.setitimer(signal.ITIMER_REAL, GRACE_S)
        pytest.fail(f"test call ran past {TIME_LIMIT_S} s", pytrace=False)

    def stop(signum, frame):
        raise KeyboardInterrupt(f"{item.nodeid} still ran {GRACE_S} s after its "
                                f"{TIME_LIMIT_S} s limit failed it; run stopped")

    with _alarm(expire):
        yield


@pytest.hookimpl(hookwrapper=True)
def pytest_make_collect_report(collector):
    # a module's top level (corpora, parameter lists) runs while it is collected
    if not (isinstance(collector, pytest.Module) and hasattr(signal, "SIGALRM")):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"collecting {collector.nodeid} ran past {TIME_LIMIT_S} s", pytrace=False)

    with _alarm(expire):
        yield
