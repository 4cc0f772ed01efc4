"""A time limit on every test and on every module's collection, so that a
loop that never ends stops the run instead of hanging it.

The limit is far above the slowest test (a few seconds).  It uses
``SIGALRM``, so it applies only where that signal exists (POSIX).  One
alarm covers a test's whole protocol: setup, call and teardown, so a
fixture's loop is caught too.  Another covers a module's collection, when
its top level (corpora, parameter lists) runs.  The alarm raises a
``KeyboardInterrupt`` that names the test or the module: neither
``cli.main``, which catches ``Exception``, nor hypothesis catches one, so
pytest stops at once and exits 2.  A time-out thus ends the run; a
looping mutant costs one limit, not one per test.  A loop that allocates
as it goes meets a capped address space first (``scripts/mutants.py``
sets one): its ``MemoryError`` fails the test like any other error, once
the frames that hold the allocations are cleared.
"""

import contextlib
import signal
import traceback

import pytest

TIME_LIMIT_S = 120


@contextlib.contextmanager
def _alarm(what):
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise KeyboardInterrupt(f"{what} ran past its {TIME_LIMIT_S} s limit; run stopped")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    with _alarm(item.nodeid):
        yield


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    # A loop that allocates until the address space runs out (scripts/mutants.py
    # caps it) ends in a MemoryError whose frames still hold what it built;
    # cleared, they leave room for pytest to report the test by name.
    outcome = yield
    chain, err = [], outcome.excinfo[1] if outcome.excinfo else None
    while err is not None:
        chain.append(err)
        err = err.__context__
    if any(isinstance(err, MemoryError) for err in chain):
        for err in chain:
            traceback.clear_frames(err.__traceback__)


@pytest.hookimpl(hookwrapper=True)
def pytest_make_collect_report(collector):
    if not isinstance(collector, pytest.Module):
        yield
        return
    with _alarm(f"collecting {collector.nodeid}"):
        yield
