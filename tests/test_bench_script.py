"""scripts/bench.py: argument checks and the paired-run tally."""

import importlib.util
import shutil
from pathlib import Path
from types import SimpleNamespace

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench.py"
spec = importlib.util.spec_from_file_location("bench_script", SCRIPT)
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)


RATIO = "lemma.homology.multiplier_dim.hit_ratio"


def _verdict(wall_s, hit_ratio):
    return {"correct": True, "attempted": 1, "failed": 0,
            "metrics": {"lemma.wall_s": {"value": wall_s, "unit": "s"},
                        RATIO: {"value": hit_ratio, "unit": "ratio"}}}


def test_tally_counts_strict_wins_by_direction():
    parent = [_verdict(0.6, 0.5), _verdict(0.2, 0.5), _verdict(0.5, 0.9)]
    change = [_verdict(0.2, 0.7), _verdict(0.2, 0.5), _verdict(0.1, 0.1)]
    old, new = bench.tally(parent, change, bench._higher_is_better())
    assert old["values"] == {"lemma.wall_s": [0.6, 0.2, 0.5], RATIO: [0.5, 0.5, 0.9]}
    assert new["values"] == {"lemma.wall_s": [0.2, 0.2, 0.1], RATIO: [0.7, 0.5, 0.1]}
    # lower wall_s wins, higher hit_ratio wins, ties count for neither side
    assert old["won"] == {"lemma.wall_s": 0, RATIO: 1}
    assert new["won"] == {"lemma.wall_s": 2, RATIO: 1}


@pytest.mark.parametrize("argv", [
    [], ["bad/label"], ["--pair"], ["--pair", "HEAD", "0", "x"],
    ["--pair", "HEAD", "two", "x"], ["--pair", "HEAD", "3"],
    ["--pair", "HEAD", "3", "bad label"],
    # a bare label: there is no single-run mode, every record is paired
    ["x"], ["x", "--workload", "lemma"],
])
def test_bad_arguments_exit_two(argv, capsys):
    assert bench.main(argv) == 2
    assert capsys.readouterr().err.startswith("usage: ")


def test_pair_rejects_an_unknown_revision(capsys):
    assert bench.main(["--pair", "no-such-revision-anywhere", "1", "x"]) == 2
    assert "names no commit" in capsys.readouterr().err


def test_pair_runs_two_temporary_sibling_trees(monkeypatch):
    # A copy of the checkout without .git (scripts/mutants.py makes one)
    # has no revision to export.
    if bench._git("rev-parse", "--verify", "HEAD") is None:
        pytest.skip("the checkout is not a git work tree")
    worktrees = bench._git("worktree", "list")
    roots = []

    def run(root, command):
        assert (root / "perfbench" / "run.py").is_file()
        assert (root / "src" / "nilmult" / "cli.py").is_file()
        roots.append(root)
        return _verdict(0.1, 0.5)

    # both sides are made by the same copy, the parent's from the exported
    # archive, so they differ in nothing but their files
    copies = []

    def copytree(source, target, ignore):
        copies.append((source, target, ignore))
        return shutil.copytree(source, target, ignore=ignore)

    monkeypatch.setattr(bench, "_run", run)
    monkeypatch.setattr(bench, "_write", lambda label, record: None)
    monkeypatch.setattr(bench, "shutil", SimpleNamespace(copytree=copytree))
    # HEAD, not HEAD~1: a CI checkout may hold a single commit
    assert bench.main(["--pair", "HEAD", "1", "x"]) == 0
    assert len(roots) == 2 and roots[0] != roots[1] and roots[0].parent == roots[1].parent
    assert copies == [(roots[0].parent / "archive", roots[0], bench.SKIP),
                      (bench.ROOT, roots[1], bench.SKIP)]
    assert not roots[0].parent.is_relative_to(bench.ROOT)
    assert not any(root.exists() for root in roots)
    assert bench._git("worktree", "list") == worktrees


@pytest.mark.parametrize("status, commit", [("", "abc"), ("?? src/nilmult/new.py", "abc+dirty"),
                                            (" M src/nilmult/cli.py", "abc+dirty")])
def test_commit_is_dirty_with_an_untracked_file(monkeypatch, status, commit):
    # the change tree is a copy of the checkout, untracked files and all
    calls = []

    def git(*args):
        calls.append(args)
        return "abc" if args[0] == "rev-parse" else status

    monkeypatch.setattr(bench, "_git", git)
    assert bench._commit() == commit
    assert calls == [("rev-parse", "HEAD"), ("status", "--porcelain")]


def test_pair_records_the_commit_the_copy_took(monkeypatch):
    # the parent's record lands in the checkout before the change's is
    # written, so a status read then would call a clean checkout dirty
    head = bench._git("rev-parse", "--verify", "HEAD")
    if head is None:
        pytest.skip("the checkout is not a git work tree")
    records = {}

    def git(*args):
        if args[0] == "status":
            return "?? BENCH_x-parent.json" if "x-parent" in records else ""
        return head  # rev-parse, of the parent or of HEAD

    monkeypatch.setattr(bench, "_run", lambda root, command: _verdict(0.1, 0.5))
    monkeypatch.setattr(bench, "_write", records.__setitem__)
    monkeypatch.setattr(bench, "_git", git)
    assert bench.main(["--pair", "HEAD", "1", "x"]) == 0
    assert records["x-parent"]["commit"] == records["x"]["commit"] == head
