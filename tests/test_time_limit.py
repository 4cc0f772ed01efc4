"""tests/conftest.py's time limit, on a copy of it with a one-second limit
run by a separate pytest over a module that never ends; and its report of
a loop that runs out of memory, in a pytest with a capped address space."""

import resource
import signal
import subprocess
import sys
from pathlib import Path

import pytest

CONFTEST = Path(__file__).with_name("conftest.py").read_text()
pytestmark = pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="the limit needs SIGALRM")
LOOP = "    while True:\n        pass\n"


def _pytest(tmp_path, module):
    conftest = CONFTEST.replace("TIME_LIMIT_S = 120", "TIME_LIMIT_S = 1")
    assert conftest != CONFTEST
    # hypothesis is imported with the conftest, so no import counts against
    # the one second that collecting the module may take
    (tmp_path / "conftest.py").write_text("import hypothesis\n" + conftest)
    (tmp_path / "test_loops.py").write_text(module)
    return subprocess.run([sys.executable, "-m", "pytest", "-v", "-p", "no:cacheprovider"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)


def _stopped_by(run, what):
    assert run.returncode == 2, run.stdout
    # scripts/mutants.py reads the test's name off this line
    assert f"! KeyboardInterrupt: {what} ran past its 1 s limit; run stopped !" in run.stdout.splitlines()


def test_a_loop_ends_the_run_before_the_next_test(tmp_path):
    run = _pytest(tmp_path, "def test_loop():\n" + LOOP + "def test_next():\n    pass\n")
    _stopped_by(run, "test_loops.py::test_loop")
    assert "test_next" not in run.stdout


def test_a_loop_under_hypothesis_ends_the_run(tmp_path):
    # hypothesis would take a failure for an example and run it again to shrink it
    run = _pytest(tmp_path, (
        "from hypothesis import given, settings, strategies as st\n"
        "@given(st.integers())\n@settings(deadline=None)\n"
        "def test_shrunk(x):\n" + LOOP))
    _stopped_by(run, "test_loops.py::test_shrunk")


def test_a_loop_in_a_fixture_ends_the_run(tmp_path):
    run = _pytest(tmp_path, (
        "import pytest\n"
        "@pytest.fixture(scope='module')\ndef looping():\n" + LOOP +
        "def test_uses(looping):\n    pass\n"))
    _stopped_by(run, "test_loops.py::test_uses")


def test_a_loop_at_a_modules_top_level_ends_the_run(tmp_path):
    run = _pytest(tmp_path, "while True:\n    pass\n")
    _stopped_by(run, "collecting test_loops.py")


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (320 << 20, 320 << 20))


def test_a_loop_that_runs_out_of_memory_is_named(tmp_path):
    # its frames still hold every block when the MemoryError reaches pytest,
    # here as the context of the one pytest.raises meets while it matches;
    # the conftest clears them, so the quiet report that scripts/mutants.py
    # reads has room to name the test
    (tmp_path / "conftest.py").write_text(CONFTEST)
    (tmp_path / "test_hoards.py").write_text(
        "import pytest\n"
        "def test_hoards():\n    held = []\n    with pytest.raises(ValueError):\n"
        "        while True:\n            held.append([0] * 1024)\n"
        "def test_next():\n    pass\n")
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"], cwd=tmp_path,
                         capture_output=True, text=True, timeout=60, preexec_fn=_cap_memory)
    assert run.returncode == 1, run.stdout
    assert "FAILED test_hoards.py::test_hoards - MemoryError" in run.stdout.splitlines()
    assert "1 failed, 1 passed" in run.stdout
