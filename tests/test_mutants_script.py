"""scripts/mutants.py: argument checks and applying a mutant."""

import importlib.util
import json
import os
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "mutants.py"
spec = importlib.util.spec_from_file_location("mutants_script", SCRIPT)
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)

SIGN = ["src/nilmult/lie_core.py", "sign = -1 if a < t < b else 1", "sign = 1"]


def test_mutate_replaces_the_one_occurrence():
    assert mutants.mutate("a = 1\nb = 2\n", "b = 2", "b = 3") == "a = 1\nb = 3\n"


@pytest.mark.parametrize("text", ["a = 1\n", "b = 2\nb = 2\n"])
def test_mutate_refuses_an_absent_or_repeated_text(text):
    with pytest.raises(ValueError, match="not once"):
        mutants.mutate(text, "b = 2", "b = 3")


@pytest.mark.parametrize("content, extra", [
    (None, []), ("not json", []), ("[[1, 2]]", []), ('{"a": 1}', []),
    (json.dumps([SIGN]), ["0"]), (json.dumps([SIGN]), ["-1"]), (json.dumps([SIGN]), ["x"]),
    (json.dumps([SIGN]), ["1", "2"]),
    (json.dumps([["src/nilmult/no_such_module.py", "a", "b"]]), []),
    # the text must apply to the checkout: here it does not occur
    (json.dumps([[SIGN[0], "sign = 2", "sign = 1"]]), []),
])
def test_bad_arguments_exit_two(content, extra, tmp_path, capsys):
    argv = [] if content is None else [str(tmp_path / "mutants.json")]
    if content is not None:
        (tmp_path / "mutants.json").write_text(content)
    assert mutants.main(argv + extra) == 2
    assert capsys.readouterr().err.startswith("usage: ")


def test_a_mutant_runs_on_a_copy_and_leaves_the_checkout_alone():
    # one second is far too short for the suite, so the run times out
    source = (SCRIPT.parent.parent / SIGN[0]).read_text()
    assert mutants.run(*SIGN, timeout=1) == "timeout"
    assert (SCRIPT.parent.parent / SIGN[0]).read_text() == source


@pytest.mark.parametrize("code, stdout, verdict", [
    (0, "1 passed\n", "survived"),
    (1, "FAILED tests/test_x.py::test_y - AssertionError\n",
     "killed by FAILED tests/test_x.py::test_y - AssertionError"),
    (2, "! KeyboardInterrupt: tests/test_x.py::test_y ran past its 120 s limit; run stopped !\n",
     "killed by ! KeyboardInterrupt: tests/test_x.py::test_y ran past its 120 s limit; run stopped !"),
    (2, "!!!!!!! KeyboardInterrupt: test_y ran past its 120 s limit; run stopped !!!!!!!\n",
     "killed by !!!!!!! KeyboardInterrupt: test_y ran past its 120 s limit; run stopped !!!!!!!"),
    # pytest could not even start: nothing was killed
    (1, "", "error (exit 1)"),
])
def test_a_run_is_judged_by_its_failure_lines(code, stdout, verdict, monkeypatch):
    monkeypatch.setattr(subprocess, "run", lambda *a, **k: subprocess.CompletedProcess(a, code, stdout, ""))
    assert mutants.run(*SIGN, timeout=1) == verdict


@pytest.mark.parametrize("caller, expected", [(None, "src"), ("", "src"), ("/deps", f"src{os.pathsep}/deps")])
def test_src_goes_in_front_of_the_callers_pythonpath(caller, expected, monkeypatch):
    seen = []

    def fake_run(argv, **kwargs):
        seen.append(kwargs["env"]["PYTHONPATH"])
        return subprocess.CompletedProcess(argv, 0, "", "")
    if caller is None:
        monkeypatch.delenv("PYTHONPATH", raising=False)
    else:
        monkeypatch.setenv("PYTHONPATH", caller)
    monkeypatch.setattr(subprocess, "run", fake_run)
    assert mutants.run(*SIGN, timeout=1) == "survived"
    assert seen == [expected]


def test_each_mutant_runs_in_a_capped_address_space(monkeypatch):
    # the cap is set in the child, before pytest starts; here the child's
    # hook runs against a recording setrlimit, never the real one
    seen, limits = [], []

    def fake_run(argv, **kwargs):
        seen.append(kwargs["preexec_fn"])
        return subprocess.CompletedProcess(argv, 0, "", "")
    monkeypatch.setattr(subprocess, "run", fake_run)
    assert mutants.run(*SIGN, timeout=1) == "survived"
    monkeypatch.setattr(mutants.resource, "setrlimit", lambda *args: limits.append(args))
    seen[0]()
    assert limits == [(mutants.resource.RLIMIT_AS, (mutants.MEMORY_CAP, mutants.MEMORY_CAP))]
    assert mutants.MEMORY_CAP == 2 << 30
