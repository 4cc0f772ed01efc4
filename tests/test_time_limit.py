"""tests/conftest.py's time limit, on a copy of it with one-second limits
run by a separate pytest over a module whose tests never end."""

import signal
import subprocess
import sys
from pathlib import Path

import pytest

CONFTEST = Path(__file__).with_name("conftest.py").read_text()
pytestmark = pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="the limit needs SIGALRM")


def _pytest(tmp_path, module):
    conftest = CONFTEST.replace("TIME_LIMIT_S = 120", "TIME_LIMIT_S = 1")
    assert conftest != CONFTEST
    # hypothesis is imported with the conftest, so no import counts against
    # the one second that collecting the module may take
    (tmp_path / "conftest.py").write_text(
        "import hypothesis\n" + conftest.replace("GRACE_S = 5", "GRACE_S = 1"))
    (tmp_path / "test_loops.py").write_text(module)
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)


def test_a_loop_fails_its_test_and_a_loop_under_hypothesis_ends_the_run(tmp_path):
    # hypothesis takes the first alarm's failure for an example and shrinks it
    run = _pytest(tmp_path, (
        "from hypothesis import given, settings, strategies as st\n"
        "def test_loop():\n    while True:\n        pass\n"
        "def test_next():\n    pass\n"
        "@given(st.integers())\n@settings(deadline=None)\n"
        "def test_shrunk(x):\n    while True:\n        pass\n"))
    assert run.returncode == 2, run.stdout
    assert "FAILED test_loops.py::test_loop - Failed: test call ran past 1 s" in run.stdout
    assert ("KeyboardInterrupt: test_loops.py::test_shrunk still ran 1 s after its 1 s "
            "limit failed it; run stopped") in run.stdout
    assert "1 failed, 1 passed" in run.stdout


def test_a_loop_at_a_modules_top_level_fails_its_collection(tmp_path):
    run = _pytest(tmp_path, "while True:\n    pass\n")
    assert run.returncode == 2, run.stdout
    assert "collecting test_loops.py ran past 1 s" in run.stdout
