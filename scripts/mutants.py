"""Run one-line mutants of the source against the test suite.

    python3 scripts/mutants.py MUTANTS.json [TIMEOUT_S]

MUTANTS.json lists [file, old, new] triples, ``old`` found exactly once
in ``file``.  Each mutant goes into a fresh temporary copy of the checkout
(never the checkout), where ``pytest -x`` runs for at most TIMEOUT_S
seconds (600), with ``src`` put in front of the caller's PYTHONPATH, in
an address space capped at MEMORY_CAP bytes, so that a mutant that loops
while it allocates fails the test it is in with ``MemoryError``.
Prints ``killed by`` its first failure, ``survived``, ``timeout`` or, for a
nonzero exit that names no failure (pytest could not start, say),
``error (exit N)`` per mutant.
"""

import json, os, resource, shutil, subprocess, sys, tempfile  # noqa: E401
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
USAGE = "usage: python3 scripts/mutants.py MUTANTS.json [TIMEOUT_S]"
SKIP = shutil.ignore_patterns(".git", ".bench_build", "__pycache__", ".hypothesis", ".pytest_cache")
MEMORY_CAP = 2 << 30  # bytes; the unmutated suite passes under it


def cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def mutate(text: str, old: str, new: str) -> str:
    if text.count(old) != 1:
        raise ValueError(f"{old!r} occurs {text.count(old)} times, not once")
    return text.replace(old, new)


def run(file: str, old: str, new: str, timeout: float) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        copy = shutil.copytree(ROOT, Path(tmp) / "tree", ignore=SKIP)
        (copy / file).write_text(mutate((copy / file).read_text(), old, new))
        path = os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))
        try:
            proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
                                  cwd=copy, env={**os.environ, "PYTHONPATH": path}, preexec_fn=cap_memory,
                                  capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return "timeout"
    # a test the time limit stopped is named on the "!!! KeyboardInterrupt" line,
    # which pytest pads with as many "!" as the terminal width leaves (one at least)
    failed = [line for line in proc.stdout.splitlines()
              if line.startswith(("FAILED", "ERROR")) or line.lstrip("!").startswith(" KeyboardInterrupt")]
    if not proc.returncode:
        return "survived"
    return f"killed by {failed[0]}" if failed else f"error (exit {proc.returncode})"


def main(argv: list[str]) -> int:
    try:
        mutants = json.loads(Path(argv[0]).read_text())
        timeout = float(argv[1]) if len(argv) > 1 else 600.0
        if len(argv) > 2 or not timeout > 0 or not all(len(m) == 3 for m in mutants):
            raise ValueError("expected [file, old, new] triples and a positive timeout")
        for file, old, new in mutants:  # each applies to the checkout as it is
            mutate((ROOT / file).read_text(), old, new)
    except (IndexError, OSError, ValueError, TypeError) as err:
        print(f"{USAGE}\n{err}", file=sys.stderr)
        return 2
    for file, old, new in mutants:
        print(f"{file}: {old!r} -> {new!r}: {run(file, old, new, timeout)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
