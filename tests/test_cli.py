import contextlib
import csv
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    _betti_numbers,
    _change_basis,
    _seeded_unimodular,
    counted_calls,
    generated_algebras,
    lie_text,
    unimodular,
)

from nilmult import analysis, cli, free_lie, homology, lie_core
from nilmult.analysis import VerificationFailure, bound_report
from nilmult.catalog import build, default_manifest, serialize
from nilmult.cli import main
from nilmult.lie_core import LieAlgebra, direct_sum

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bounds_row_h3(capsys):
    code, out, err = run_cli(capsys, "bounds", "heisenberg:1")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.split() == ["name", "n", "m", "c", "dim_M", "batten",
                              "hardy_stitzinger", "yankosky_closed",
                              "niroomand_russo", "rai", "rai_refined",
                              "theorem"]
    assert row.split() == ["heisenberg:1", "3", "1", "2", "2", "3", "2", "2",
                           "2", "2", "2", "holds"]


def test_bounds_marks_refined_violation(capsys):
    code, out, err = run_cli(capsys, "bounds", "dirsum:heisenberg:1+abelian:1")
    assert code == 0
    assert "3!" in out
    assert "warning" in err and "refined" in err


def test_bounds_strict_remark_exit(capsys):
    code, _, _ = run_cli(capsys, "bounds", "dirsum:heisenberg:1+abelian:1",
                         "--strict-remark")
    assert code == 1


def test_bounds_json_schema(capsys):
    code, out, _ = run_cli(capsys, "bounds", "heisenberg:2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["name", "n", "m", "c", "dim_M", "batten",
                             "hardy_stitzinger", "yankosky_closed",
                             "niroomand_russo", "rai", "rai_refined", "slack",
                             "theorem_holds", "refined_holds"]
    assert payload["dim_M"] == 5
    assert payload["rai"] == 7
    assert payload["slack"]["rai"] == 2


def test_bounds_csv(capsys):
    code, out, _ = run_cli(capsys, "bounds", "heisenberg:1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("name,n,m,c,dim_M")
    assert lines[1].startswith("heisenberg:1,3,1,2,2")


def test_bounds_abelian_dashes(capsys):
    code, out, _ = run_cli(capsys, "bounds", "abelian:4")
    assert code == 0
    assert out.splitlines()[1].split()[-1] == "-"


def test_multiplier_command(capsys):
    code, out, _ = run_cli(capsys, "multiplier", "filiform:4", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"name": "filiform:4", "n": 4, "rank_d2": 2,
                               "rank_d3": 2, "dim_M": 2}


def test_info_command(capsys):
    code, out, _ = run_cli(capsys, "info", "heisenberg:1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["class"] == 2
    assert payload["m"] == 1
    assert payload["lower_series_dims"] == [3, 1, 0]
    assert payload["brackets"] == {"1,2": {"3": "1"}}


def test_kernel_command(capsys):
    code, out, _ = run_cli(capsys, "kernel", "filiform:4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [r["ker_lambda_i"] for r in payload["rows"]] == [0, 1]
    assert all(r["satisfied"] for r in payload["rows"])


def _no_upper_step(L, Z):
    raise AssertionError("_upper_step called")


@pytest.mark.parametrize("command", ["kernel", "multiplier"])
def test_commands_without_a_centre_skip_upper_step(capsys, monkeypatch, command):
    # Only info (upper series) and rai_refined (centre) call _upper_step.
    _, expected, _ = run_cli(capsys, command, "filiform:5")
    monkeypatch.setattr(lie_core, "_upper_step", _no_upper_step)
    monkeypatch.setattr(analysis, "_upper_step", _no_upper_step)
    assert run_cli(capsys, command, "filiform:5") == (0, expected, "")


def test_kernel_rejects_abelian(capsys):
    code, _, err = run_cli(capsys, "kernel", "abelian:3")
    assert code == 2
    assert err == "error: kernel bookkeeping requires a nonabelian algebra\n"


def test_verify_lemma_output(capsys):
    code, out, _ = run_cli(capsys, "verify", "lemma", "--arity-max", "4")
    assert code == 0
    lines = out.splitlines()
    assert "i=3: 0" in lines
    assert "i=4: 0" in lines
    assert any(line.strip().startswith("term 1: [[[x1, x2], x3], x4]")
               for line in lines)
    assert sum(1 for line in lines if "term" in line) == 4 + 5


def test_verify_lemma_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "lemma", "--arity-max", "3",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["arity"] == 3
    assert payload[0]["residual"] == "0"
    assert len(payload[0]["terms"]) == 4


def test_verify_lemma_csv_has_one_row_per_term(capsys):
    code, out, _ = run_cli(capsys, "verify", "lemma", "--arity-max", "4",
                           "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["arity", "term", "expression", "residual"]
    assert rows[1:5] == [
        ["3", "1", "[[[x1, x2], x3], x4]", "0"],
        ["3", "2", "[[x4, [x1, x2]], x3]", "0"],
        ["3", "3", "[[[x3, x4], x1], x2]", "0"],
        ["3", "4", "[[x2, [x3, x4]], x1]", "0"],
    ]
    assert [row[:2] for row in rows[5:]] == [["4", str(t)] for t in range(1, 6)]


def test_verify_lemma_prints_a_broken_residual_in_the_left_normed_basis(capsys, monkeypatch):
    # Without its last term [[x2, [x3, x4]], x1] the arity-3 sum is
    # x1·exp([x2, [x3, x4]]); each bracket of the residual is a word
    # x1 x_a x_b x_c naming the left-normed basis element [[[x1, x_a], x_b], x_c].
    broken = free_lie.lemma31_expression(3)[:-1]
    monkeypatch.setattr(free_lie, "lemma31_expression", lambda i: broken)
    residual = "[x1x2x3x4] - [x1x2x4x3] - [x1x3x4x2] + [x1x4x3x2]"
    assert run_cli(capsys, "verify", "lemma", "--arity-max", "3") == (
        1,
        f"i=3: {residual}\n"
        "  term 1: [[[x1, x2], x3], x4]\n"
        "  term 2: [[x4, [x1, x2]], x3]\n"
        "  term 3: [[[x3, x4], x1], x2]\n",
        f"check failed: arity 3 residual {residual}\n")


def test_verify_lemma_leaves_the_lyndon_cache_empty(capsys):
    # The lemma is checked without the Lyndon rewrite, so its P_w cache
    # stays empty however high the arity.
    free_lie._lyndon_tensor.cache_clear()
    code, _, _ = run_cli(capsys, "verify", "lemma", "--arity-max", "13")
    assert code == 0
    assert free_lie._lyndon_tensor.cache_info().currsize == 0


def test_verify_lemma_rejects_small_arity(capsys):
    code, _, err = run_cli(capsys, "verify", "lemma", "--arity-max", "2")
    assert code == 2


def test_verify_lemma_holds_at_every_accepted_arity(capsys):
    # the only run past arity 14: about 0.8 s and 52 MB
    code, out, err = run_cli(capsys, "verify", "lemma", "--arity-max", str(cli.ARITY_MAX))
    assert (code, err) == (0, "")
    assert [line for line in out.splitlines() if line.startswith("i=")] == [
        f"i={i}: 0" for i in range(3, 19)]


def test_verify_lemma_rejects_large_arity(capsys):
    # Rejected before any expansion: nothing reaches stdout.
    code, out, err = run_cli(capsys, "verify", "lemma", "--arity-max", "19")
    assert code == 2
    assert out == ""
    assert err == "error: --arity-max must be at most 18\n"


@pytest.mark.parametrize("max_dim", ["0", "-3"])
def test_verify_corpus_rejects_max_dim_below_one(capsys, max_dim):
    # Rejected before any algebra is built: nothing reaches stdout.
    code, out, err = run_cli(capsys, "verify", "corpus", "--max-dim", max_dim)
    assert code == 2
    assert out == ""
    assert err == "error: --max-dim must be at least 1\n"


def test_verify_corpus_small(capsys):
    code, out, err = run_cli(capsys, "verify", "corpus", "--max-dim", "5")
    assert code == 0
    assert "0 failures" in err
    assert "heisenberg:2" in out


def test_verify_corpus_json_schema(capsys):
    code, out, _ = run_cli(capsys, "verify", "corpus", "--max-dim", "4", "--json")
    assert code == 0
    payload = json.loads(out)
    names = [r["name"] for r in payload]
    assert names == sorted(names)
    nonabelian = [r for r in payload if not r["abelian"]]
    assert nonabelian, "corpus slice should have nonabelian members"
    for record in nonabelian:
        assert record["ok"] is True
        assert record["eq3_ok"] is True
        assert record["yankosky_step_ok"] is True
        for key in ("name", "n", "m", "c", "dim_M", "batten",
                    "hardy_stitzinger", "yankosky_closed", "niroomand_russo",
                    "rai", "rai_refined", "slack", "theorem_holds",
                    "refined_holds"):
            assert key in record["report"], key
        for row in record["kernel"]:
            assert row["satisfied"]


def test_verify_corpus_strict_remark(capsys):
    code, _, err = run_cli(capsys, "verify", "corpus", "--max-dim", "4",
                           "--strict-remark")
    assert code == 1
    assert "refined" in err


def test_verify_corpus_parallel_matches_serial(capsys):
    # --parallel is accepted for compatibility and changes nothing.
    for flags, code in (((), 0), (("--json",), 0), (("--strict-remark",), 1)):
        serial = run_cli(capsys, "verify", "corpus", *flags)
        assert serial[0] == code
        assert run_cli(capsys, "verify", "corpus", *flags, "--parallel") == serial


def test_verify_corpus_builds_one_bound_report_per_algebra(capsys, monkeypatch):
    calls = []

    def counted(L):
        calls.append(L.name)
        return bound_report(L)

    monkeypatch.setattr(analysis, "bound_report", counted)
    code, _, _ = run_cli(capsys, "verify", "corpus")
    assert code == 0
    assert sorted(calls) == sorted(build(spec).name for spec in default_manifest())


def _raise_witness_failure(L, i):
    raise VerificationFailure(f"{L.name}: Ψ_{i} witness for z=1 escapes the kernel")


@pytest.mark.parametrize("target,patch,failure", [
    ("_eq3_holds", lambda profile: False, "heisenberg:2: telescoping identity fails"),
    ("psi_witnesses", _raise_witness_failure,
     "heisenberg:2: Ψ_2 witness for z=1 escapes the kernel"),
])
def test_verify_corpus_failure_record(capsys, monkeypatch, target, patch, failure):
    # one check made to fail, with and without a verification payload
    report = bound_report(build("heisenberg:2"))
    monkeypatch.setattr(analysis, target, patch)
    expected = {"name": "heisenberg:2", "abelian": False, "ok": False,
                "failure": failure, "report": report.to_dict(), "kernel": [],
                "witness_ranks": [], "eq3_ok": None, "yankosky_step_ok": None,
                "refined_ok": report.refined_holds}
    assert json.dumps(cli._verify_spec("heisenberg:2")) == json.dumps(expected)
    code, out, err = run_cli(capsys, "verify", "corpus", "--max-dim", "5", "--json")
    assert code == 1
    assert expected in json.loads(out)
    assert f"check failed: {failure}" in err


def test_info_malformed_file_exit_two(capsys):
    code, _, err = run_cli(capsys, "info", f"file:{DATA / 'bad_pair_order.lie'}")
    assert code == 2
    assert "line 4" in err


# File stem -> (algebra name, dimension where [γ_i, L] stops shrinking).
# In sl2 ⊕ h3 and sl2 ⊕ r2 the brackets with the generator lifts alone
# reach 0 (h3's x, y) or stop at dimension 1 (r2's a), so these pin the
# message to the lower central series itself.
NOT_NILPOTENT = {"sl2": ("sl2", 3), "sl2_h3": ("sl2h3", 3), "sl2_r2": ("sl2r2", 4)}


@pytest.mark.parametrize("command, stem", [
    pytest.param(command, stem, id=command if stem == "sl2" else f"{command}-{stem}")
    for stem in NOT_NILPOTENT for command in ("info", "bounds", "kernel")])
def test_not_nilpotent_file_exit_two(capsys, command, stem):
    code, out, err = run_cli(capsys, command, f"file:{DATA / f'{stem}.lie'}")
    assert (code, out) == (2, "")
    name, dim = NOT_NILPOTENT[stem]
    assert err == f"error: {name}: lower central series stabilises at dimension {dim}\n"


@pytest.mark.parametrize("command", ["info", "bounds", "kernel"])
@pytest.mark.parametrize("stem", NOT_NILPOTENT)
def test_a_not_nilpotent_file_computes_its_series_once(monkeypatch, capsys, command, stem):
    # parsing finds the stall, and the algebra keeps it for the command
    lowers = counted_calls(monkeypatch, lie_core, "_lower_series")
    code, _, err = run_cli(capsys, command, f"file:{DATA / f'{stem}.lie'}")
    assert (code, len(lowers)) == (2, 1)
    assert err.endswith(f"stabilises at dimension {NOT_NILPOTENT[stem][1]}\n")


def _sl2_and_r2():  # built in the test, where a series that fails names it
    return (LieAlgebra(3, {(0, 1): {2: 1}, (0, 2): {0: -2}, (1, 2): {1: 2}}, name="sl2"),
            LieAlgebra(2, {(0, 1): {1: 1}}, name="r2"))


def _cli(*argv):  # run_cli for a hypothesis test, where capsys spans every example
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@given(generated_algebras(), st.data())
@settings(max_examples=50, deadline=None)
def test_a_generated_file_that_is_not_nilpotent(N, data):
    # sl2^a ⊕ r2^b ⊕ N, a + b ≥ 1, in a random unimodular basis: its lower
    # central series stabilises at sl2^a ⊕ ⟨b⟩^b, of dimension 3a + b
    a = data.draw(st.integers(0, (12 - N.dim) // 3))
    b = data.draw(st.integers(0 if a else 1, (12 - N.dim - 3 * a) // 2))
    sl2, r2 = _sl2_and_r2()
    L = direct_sum(*[r2] * b, *[sl2] * a, N)
    copy = _change_basis(L, data.draw(unimodular(L.dim)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "nonnil.lie"
        path.write_text(lie_text("nonnil", L.dim, copy.table))
        code, out, err = _cli("kernel", f"file:{path}")
        assert (code, out) == (2, "")
        assert err == f"error: nonnil: lower central series stabilises at dimension {3 * a + b}\n"
        code, out, err = _cli("multiplier", f"file:{path}", "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["dim_M"] == _betti_numbers(L)[2]


def test_dirsum_past_dimension_guard_exit_two(capsys):
    code, out, err = run_cli(capsys, "multiplier", "dirsum:abelian:40+abelian:40")
    assert (code, out) == (2, "")
    assert err == "error: dirsum:abelian:40+abelian:40 has dimension 80 > 64\n"


def test_malformed_spec_integer_exit_two(capsys):
    code, out, err = run_cli(capsys, "multiplier", "abelian:3_0")
    assert (code, out) == (2, "")
    assert err == "error: bad integer '3_0' in spec 'abelian:3_0'\n"


def test_unknown_spec_exit_two(capsys):
    code, _, err = run_cli(capsys, "bounds", "nonsense:9")
    assert code == 2
    assert "error" in err


def test_binary_file_exit_two(capsys, tmp_path):
    path = tmp_path / "binary.lie"
    path.write_bytes(b"\x9c\xff\x00algebra")
    code, _, err = run_cli(capsys, "info", f"file:{path}")
    assert code == 2
    assert err.startswith(f"error: cannot read {path}")


def test_zero_denominator_exit_two(capsys, tmp_path):
    path = tmp_path / "zero.lie"
    path.write_text("algebra a\ndim 3\nbracket 1 2 -> 1/0*3\nend\n")
    assert run_cli(capsys, "info", f"file:{path}") == (
        2, "", "error: line 3: non-rational coefficient '1/0'\n")


def test_huge_dim_exit_two(capsys, tmp_path):
    path = tmp_path / "huge.lie"
    path.write_text(f"algebra big\ndim {'9' * 5000}\nend\n")
    code, _, err = run_cli(capsys, "multiplier", f"file:{path}")
    assert code == 2
    assert err.startswith("error: line 2:")


def test_internal_error_exit_three(capsys, monkeypatch):
    def broken(L):
        raise ValueError("boom")

    monkeypatch.setattr(homology, "multiplier_dim", broken)
    code, out, err = run_cli(capsys, "multiplier", "heisenberg:1")
    assert code == 3
    assert out == ""
    assert err == "internal error: ValueError: boom\n"


def test_not_an_ideal_is_an_internal_error(capsys, monkeypatch):
    # No command builds a quotient by a user-given subspace, so a
    # NotAnIdeal reaching main is a fault of the program, not bad input.
    def broken(L):
        raise lie_core.NotAnIdeal("h3: subspace is not an ideal")

    monkeypatch.setattr(homology, "multiplier_dim", broken)
    code, out, err = run_cli(capsys, "multiplier", "heisenberg:1")
    assert (code, out) == (3, "")
    assert err == "internal error: NotAnIdeal: h3: subspace is not an ideal\n"


def _nilmult_env(**extra):
    """A child's environment: this checkout's sources, stdout buffered unless
    ``extra`` sets PYTHONUNBUFFERED."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return {**env, "PYTHONPATH": str(Path(__file__).parent.parent / "src"), **extra}


def test_reader_closing_the_pipe_exits_141_in_silence():
    # Unbuffered, every line is written as it is printed, so the lines of
    # the larger arities meet the closed pipe.
    proc = subprocess.Popen(
        [sys.executable, "-m", "nilmult", "verify", "lemma", "--arity-max", "14"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=_nilmult_env(PYTHONUNBUFFERED="1"))
    assert proc.stdout.readline() == b"i=3: 0\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_buffered_output_into_a_closed_pipe_exits_141_in_silence():
    # Buffered, the whole table is written by one flush, inside main.
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "nilmult", "kernel", "filiform:5"],
                              stdout=write, stderr=subprocess.PIPE, env=_nilmult_env())
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit) as info:
        main(["bounds", "heisenberg:1", "--frobnicate"])
    assert info.value.code == 2


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "nilmult", "bounds", "heisenberg:1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "heisenberg:1" in proc.stdout


def test_module_entry_point_error_exit():
    proc = subprocess.run(
        [sys.executable, "-m", "nilmult", "info",
         f"file:{DATA / 'bad_coefficient.lie'}"],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert "line 4" in proc.stderr


def test_cli_import_leaves_out_process_pool():
    # No command, verify corpus --parallel included, starts a process pool.
    proc = subprocess.run(
        [sys.executable, "-c",
         "import contextlib, io, sys\n"
         "from nilmult.cli import main\n"
         "pool = ('concurrent.futures', 'multiprocessing')\n"
         "print([m for m in pool if m in sys.modules])\n"
         "with contextlib.redirect_stdout(io.StringIO()):\n"
         "    code = main(['verify', 'corpus', '--parallel', '--max-dim', '3'])\n"
         "print(code, [m for m in pool if m in sys.modules])"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "[]\n0 []\n"


def test_cli_import_leaves_out_slow_modules():
    # -S keeps site hooks (.pth files) from loading any of these first and
    # hiding a regression; json and csv load only for those formats.
    slow = ("dataclasses", "inspect", "json", "csv", "typing")
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, nilmult.cli\n"
         f"print([m for m in {slow!r} if m in sys.modules])"],
        capture_output=True, text=True, env=_nilmult_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def _loaded_after(*argv, setup=""):
    """The nilmult modules and fractions/decimal loaded by importing the
    CLI and then by ``setup`` (a line of code) and main(argv), under -S in
    a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import contextlib, io, sys\n"
         "watched = lambda: sorted(m for m in sys.modules if m.startswith('nilmult')\n"
         "                         or m in ('fractions', 'decimal'))\n"
         "from nilmult.cli import main\n"
         "print(*watched())\n"
         f"{setup}\n"
         "with contextlib.redirect_stdout(io.StringIO()):\n"
         "    try:\n"
         f"        main({list(argv)!r})\n"
         "    except SystemExit:\n"
         "        pass\n"
         "print(*watched())"],
        capture_output=True, text=True, env=_nilmult_env())
    assert proc.returncode == 0, proc.stderr
    return [line.split() for line in proc.stdout.splitlines()]


def test_cli_import_and_help_load_no_layer():
    # The parser needs no layer, and no layer means no Fraction arithmetic.
    assert _loaded_after("--help") == [["nilmult", "nilmult.cli"]] * 2


def test_verify_lemma_loads_only_the_free_lie_layers():
    # the identity is checked in int words: no exactla, and no Fraction
    _, loaded = _loaded_after("verify", "lemma", "--arity-max", "3")
    assert loaded == ["nilmult", "nilmult.cli", "nilmult.free_lie", "nilmult.record"]


def test_a_broken_identity_loads_no_fractions():
    # without its last term the identity leaves a residual, integral too
    drop_last = ("import nilmult.free_lie as f; whole = f.lemma31_expression; "
                 "f.lemma31_expression = lambda i: whole(i)[:-1]; "
                 "assert not f.verify_lemma31(4).is_zero")
    _, loaded = _loaded_after("verify", "lemma", "--arity-max", "4", setup=drop_last)
    assert loaded == ["nilmult", "nilmult.cli", "nilmult.free_lie", "nilmult.record"]


def test_multiplier_skips_the_analysis_layers():
    _, loaded = _loaded_after("multiplier", "filiform:30")
    assert "nilmult.homology" in loaded
    assert "nilmult.analysis" not in loaded and "nilmult.free_lie" not in loaded


@pytest.mark.parametrize("command", ["kernel", "bounds"])
def test_kernel_and_bounds_skip_the_free_lie_layer(command):
    # only the witnesses evaluate bracket trees, and these commands build
    # none; the kernel bookkeeping lives in homology, so kernel skips analysis
    _, loaded = _loaded_after(command, "filiform:5")
    assert ("nilmult.analysis" in loaded) == (command == "bounds")
    assert "nilmult.free_lie" not in loaded


@pytest.mark.parametrize("command", ["info", "multiplier", "bounds", "kernel"])
def test_an_integer_spec_loads_no_fractions(command):
    _, loaded = _loaded_after(command, "dirsum:filiform:5+heisenberg:2")
    assert "fractions" not in loaded and "decimal" not in loaded


def _dense_heisenberg(tmp_path):
    # h5 in a dense unimodular basis: its adapted table is a rewrite
    path = tmp_path / "dense.lie"
    L = _change_basis(build("heisenberg:2"), _seeded_unimodular(5, random.Random(1)))
    path.write_text(serialize(L))
    return path


@pytest.mark.parametrize("dense", [False, True])
def test_kernel_of_an_integer_file_loads_neither_analysis_nor_fractions(dense, tmp_path):
    path = _dense_heisenberg(tmp_path) if dense else DATA / "good_heisenberg.lie"
    _, loaded = _loaded_after("kernel", f"file:{path}")
    assert "nilmult.homology" in loaded
    for module in ("nilmult.analysis", "nilmult.free_lie", "fractions"):
        assert module not in loaded


def test_a_rational_coefficient_loads_fractions(tmp_path):
    path = tmp_path / "half.lie"
    path.write_text("algebra half\ndim 3\nbracket 1 2 -> 1/2*3\nend\n")
    _, loaded = _loaded_after("kernel", f"file:{path}")
    assert "fractions" in loaded and "nilmult.analysis" not in loaded


def test_verify_corpus_loads_the_free_lie_layer_for_its_witnesses():
    _, loaded = _loaded_after("verify", "corpus", "--max-dim", "3")
    assert "nilmult.free_lie" in loaded


SINGLE_SPEC_COMMANDS = ("info", "multiplier", "bounds", "kernel")


def _help(capsys, *argv):
    with pytest.raises(SystemExit) as info:
        main([*argv, "--help"])
    assert info.value.code == 0
    return capsys.readouterr().out


def test_help_lists_subcommands_in_order(capsys):
    top = _help(capsys)
    helps = ("dimensions and central series of one algebra",
             "multiplier dimension of one algebra",
             "all bound values for one algebra",
             "kernel dimensions of the bracket maps",
             "run the checked properties")
    lines = [line.split() for line in top.splitlines()]
    listed = [words[0] for words in lines
              if words and words[0] in (*SINGLE_SPEC_COMMANDS, "verify")]
    assert listed == [*SINGLE_SPEC_COMMANDS, "verify"]
    for command, text in zip(listed, helps):
        assert [command, *text.split()] in lines
    # The four single-spec commands take the same arguments; the usage
    # line wraps after the command name, so whitespace is normalised.
    texts = {" ".join(_help(capsys, command).replace(command, "<command>").split())
             for command in SINGLE_SPEC_COMMANDS}
    assert len(texts) == 1
