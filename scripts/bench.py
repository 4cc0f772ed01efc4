"""Run the benchmark on a parent revision and this checkout, in pairs.

    python3 scripts/bench.py --pair PARENT N LABEL [run.py arguments ...]

Exports the revision PARENT with ``git archive`` into a staging directory,
then copies it and this checkout (without ``.git``, ``.bench_build`` and
the caches) the same way into two sibling trees of one temporary
directory, so the sides differ only in their files, and runs each tree's
own ``python3 perfbench/run.py`` N times, by default with ``--workload all --seed 1
--seconds 8 --trace 0``, the two alternating (pair k starts with the
parent when k is even), so that both sides see the same drift in host
load.  It writes ``BENCH_<LABEL>-parent.json`` and ``BENCH_<LABEL>.json``
at this checkout's root, each

    {"label", "commit", "python", "cpus", "argv", "pairs", "values", "won"}

where ``values`` maps every metric of the verdicts (run.py's final JSON
lines) to that side's N values in pair order, and ``won`` to the number
of pairs in which that side read strictly better (lower, or higher for
the metrics BENCHMARK.json marks ``"better": "higher"``); ties count for
neither.  ``commit`` is the checked-out commit, with ``+dirty`` when
a tracked file differs from it or an untracked file (which the copy
takes along) is not ignored, read before the trees are made, so that
it names what the copy took.  Exits 1, writing nothing, when a verdict
is missing or its ``correct`` is not ``true``.  The temporary directory
is removed afterwards.
"""

from __future__ import annotations

import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_ARGS = ["--workload", "all", "--seed", "1", "--seconds", "8", "--trace", "0"]
USAGE = ("usage: python3 scripts/bench.py --pair PARENT N LABEL [run.py arguments ...]\n"
         "LABEL: letters, digits, '.', '_' and '-' only; N: a positive integer")
SKIP = shutil.ignore_patterns(".git", ".bench_build", "__pycache__", ".hypothesis", ".pytest_cache")


def _git(*args: str) -> str | None:
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return proc.stdout.strip()


def _commit() -> str | None:
    head = _git("rev-parse", "HEAD")
    if head and _git("status", "--porcelain"):
        head += "+dirty"
    return head


def _result(stdout: str) -> dict | None:
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) else None


def _run(root: Path, command: list[str]) -> dict | None:
    """run.py's verdict in ``root``, or None (reported) unless it is correct."""
    proc = subprocess.run(command, cwd=root, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    result = _result(proc.stdout)
    if result is None:
        print(f"error: run.py printed no JSON verdict (exit {proc.returncode})",
              file=sys.stderr)
        return None
    if result.get("correct") is not True:
        print("error: run.py reports incorrect output; nothing written",
              file=sys.stderr)
        return None
    return result


def _write(label: str, record: dict) -> None:
    out = ROOT / f"BENCH_{label}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out.name}", file=sys.stderr)


def _higher_is_better() -> set[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["end_to_end"] + spec["per_layer"]
            if m["better"] == "higher"}


def tally(parent: list[dict], change: list[dict], higher: set[str]) -> tuple[dict, dict]:
    """Per side, {"values": {metric: [...]}, "won": {metric: count}} over
    the pairs (parent[k], change[k]).  A metric key is ``name`` or
    ``<workload>.<name>``; only names in ``higher`` read better when higher."""
    sides = ({"values": {}, "won": {}}, {"values": {}, "won": {}})
    for metric in (m for m in parent[0]["metrics"] if m in change[0]["metrics"]):
        sign = -1 if any(metric == h or metric.endswith("." + h) for h in higher) else 1
        pairs = [(p["metrics"][metric]["value"], c["metrics"][metric]["value"])
                 for p, c in zip(parent, change)]
        for side, mine in zip(sides, (0, 1)):
            side["values"][metric] = [pair[mine] for pair in pairs]
            side["won"][metric] = sum(sign * pair[mine] < sign * pair[1 - mine]
                                      for pair in pairs)
    return sides


def pair(parent: str, n: int, label: str, command: list[str]) -> int:
    sha = _git("rev-parse", "--verify", parent + "^{commit}")
    if sha is None:
        print(f"error: {parent!r} names no commit", file=sys.stderr)
        return 2
    commit = _commit()  # before the copy, and before _write adds the parent's file
    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "archive", "--prefix=archive/", sha], cwd=ROOT,
                                 stdout=subprocess.PIPE, check=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        for side, source in (("parent", tmp / "archive"), ("change", ROOT)):
            shutil.copytree(source, tmp / side, ignore=SKIP)
        for k in range(n):
            order = ["parent", "change"]
            for side in order if k % 2 == 0 else order[::-1]:
                print(f"# pair {k + 1}/{n}: {side}", file=sys.stderr)
                result = _run(tmp / side, command)
                if result is None:
                    return 1
                runs[side].append(result)
    common = {"python": platform.python_version(),
              "cpus": len(os.sched_getaffinity(0)), "argv": command, "pairs": n}
    old, new = tally(runs["parent"], runs["change"], _higher_is_better())
    _write(f"{label}-parent", {"label": f"{label}-parent", "commit": sha, **common, **old})
    _write(label, {"label": label, "commit": commit, **common, **new})
    for metric, values in new["values"].items():
        print(f"{metric:<32} {statistics.median(old['values'][metric]):>12.6g} -> "
              f"{statistics.median(values):<12.6g} won {new['won'][metric]}/{n}",
              file=sys.stderr)
    return 0


def main(argv: list[str]) -> int:
    if (argv[:1] != ["--pair"] or len(argv) < 4 or not re.fullmatch(r"[1-9][0-9]*", argv[2])
            or not re.fullmatch(r"[A-Za-z0-9._-]+", argv[3])):
        print(USAGE, file=sys.stderr)
        return 2
    parent, n, label, run_args = argv[1], int(argv[2]), argv[3], argv[4:] or DEFAULT_ARGS
    return pair(parent, n, label, ["python3", "perfbench/run.py", *run_args])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
