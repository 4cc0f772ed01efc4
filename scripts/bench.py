"""Run the benchmark once and record its verdict as BENCH_<LABEL>.json.

    python3 scripts/bench.py LABEL [run.py arguments ...]

Runs ``python3 perfbench/run.py`` in the checkout that holds this script,
by default with ``--workload all --seed 1 --seconds 8 --trace 0``, and
writes ``BENCH_<LABEL>.json`` at the checkout's root:

    {"label", "commit", "python", "cpus", "argv", "result"}

``result`` is run.py's final JSON line, unchanged.  ``commit`` is the
checked-out commit, with ``+dirty`` when tracked files differ from it.
Exits 1, writing nothing, when that line is missing or its ``correct``
is not ``true``.
"""

from __future__ import annotations

import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_ARGS = ["--workload", "all", "--seed", "1", "--seconds", "8", "--trace", "0"]


def _git(*args: str) -> str | None:
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return proc.stdout.strip()


def _commit() -> str | None:
    head = _git("rev-parse", "HEAD")
    if head and _git("status", "--porcelain", "--untracked-files=no"):
        head += "+dirty"
    return head


def _result(stdout: str) -> dict | None:
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) else None


def main(argv: list[str]) -> int:
    if not argv or not re.fullmatch(r"[A-Za-z0-9._-]+", argv[0]):
        print("usage: python3 scripts/bench.py LABEL [run.py arguments ...]\n"
              "LABEL: letters, digits, '.', '_' and '-' only", file=sys.stderr)
        return 2
    label, run_args = argv[0], argv[1:] or DEFAULT_ARGS
    command = ["python3", "perfbench/run.py", *run_args]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    result = _result(proc.stdout)
    if result is None:
        print(f"error: run.py printed no JSON verdict (exit {proc.returncode})",
              file=sys.stderr)
        return 1
    if result.get("correct") is not True:
        print("error: run.py reports incorrect output; nothing written",
              file=sys.stderr)
        return 1
    record = {"label": label, "commit": _commit(),
              "python": platform.python_version(),
              "cpus": len(os.sched_getaffinity(0)),
              "argv": command, "result": result}
    out = ROOT / f"BENCH_{label}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
