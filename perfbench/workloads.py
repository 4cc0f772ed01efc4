"""The benchmark's workloads: the CLI commands of one pass and their checks.

Each workload is a list of ``nilmult`` commands that make up one pass.
A check takes a command's exit code, stdout and stderr and returns a
failure message, or None when the output is correct.  Every check
compares stdout with the digest recorded in ``expected.json`` (made by
``record.py`` on the commit that defined the benchmark) and adds an
oracle that does not depend on that record where one exists.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent

CORPUS_SUMMARY = ("verified 70 algebras (62 nonabelian), 0 failures, "
                  "25 refined-value violations")
LADDER = ("filiform:30", "heisenberg:15", "freenil:3,4", "freenil:2,7")
DENSE_SOURCES = ("freenil:2,4", "freenil:3,2", "heisenberg:5", "heisenberg:6",
                 "filiform:9", "filiform:10")
LEMMA_ARITY = 13

WHY = {
    "corpus": "the paper's 70-algebra check, serial: many tiny algebras, "
              "dominated by central-series work",
    "corpus-parallel": "the same check with --parallel over nproc workers, "
                       "what a user with several cores runs",
    "ladder": "four large sparse algebras (n = 30-41), one process each: "
              "boundary assembly and exact rank, no series work",
    "dense": "seeded unimodular basis changes give dense integer brackets: "
             "exact elimination on dense rational input",
    "lemma": "the free-Lie identity up to arity 13, the only workload "
             "that reaches free_lie.verify_lemma31",
}
NAMES = tuple(WHY)

Check = Callable[[int, str, str], "str | None"]


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]  # arguments after ``python -m nilmult``
    check: Check

    @property
    def text(self) -> str:
        return " ".join(self.argv)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_expected() -> dict:
    return json.loads((HERE / "expected.json").read_text())


def witt(d: int, k: int) -> int:
    """Number of Lyndon words of length k over d letters."""
    total = 0
    for e in range(1, k + 1):
        if k % e == 0:
            total += _moebius(k // e) * d ** e
    return total // k


def _moebius(n: int) -> int:
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


# dim M from Hopf's formula (free nilpotent) and the Heisenberg closed form.
CLOSED_FORM_DIM_M = {
    "freenil:2,7": witt(2, 8),
    "freenil:3,4": witt(3, 5),
    "heisenberg:15": 2 * 15 ** 2 - 15 - 1,
}


def _checked(expected_digest: str, extra: Check | None = None) -> Check:
    def check(code: int, out: str, err: str):
        if code != 0:
            return f"exit code {code}: {err.strip()[-300:]}"
        if extra is not None:
            problem = extra(code, out, err)
            if problem:
                return problem
        if digest(out) != expected_digest:
            return "stdout differs from the recorded output"
        return None
    return check


def _corpus_summary(code, out, err):
    lines = err.strip().splitlines()
    if not lines or lines[-1] != CORPUS_SUMMARY:
        return f"summary line reads {lines[-1] if lines else ''!r}"
    return None


def _ladder_check(spec: str, ranks: list[int]) -> Check:
    def check(code, out, err):
        lines = out.split("\n")
        if len(lines) != 3 or lines[0].split() != ["name", "n", "rank_d2",
                                                   "rank_d3", "dim_M"]:
            return "unexpected table layout"
        name, n, r2, r3, dim_m = lines[1].split()
        if name != spec:
            return f"name {name!r}"
        if [int(r2), int(r3)] != ranks:
            return f"ranks {r2}/{r3}, expected {ranks[0]}/{ranks[1]}"
        closed = CLOSED_FORM_DIM_M.get(spec)
        if closed is not None and int(dim_m) != closed:
            return f"dim_M {dim_m}, closed form gives {closed}"
        if int(dim_m) != int(n) * (int(n) - 1) // 2 - int(r2) - int(r3):
            return "dim_M != C(n,2) - rank_d2 - rank_d3"
        return None
    return check


def _dense_check(source: dict) -> Check:
    keys = ("n", "m", "c", "dim_M", "rows")

    def check(code, out, err):
        got = json.loads(out)
        for key in keys:
            if got[key] != source[key]:
                return f"{key} is {got[key]!r}, the source algebra has {source[key]!r}"
        return None
    return check


def _lemma_check(code, out, err):
    residuals = {}
    for line in out.splitlines():
        if line.startswith("i="):
            arity, _, residual = line[2:].partition(": ")
            residuals[int(arity)] = residual
    if sorted(residuals) != list(range(3, LEMMA_ARITY + 1)):
        return f"arities {sorted(residuals)}"
    bad = {i: r for i, r in residuals.items() if r != "0"}
    return f"nonzero residuals {bad}" if bad else None


def commands(name: str, seed: int, workdir: Path, expected: dict,
             pass_index: int) -> list[Command]:
    """The commands of pass ``pass_index`` of workload ``name``.

    Only ``dense`` uses the seed and the pass index: every pass draws new
    inputs from them and writes them under ``workdir``.
    """
    digests = expected["digests"]
    if name in ("corpus", "corpus-parallel"):
        argv = ("verify", "corpus") + (("--parallel",) if name == "corpus-parallel" else ())
        return [Command(argv, _checked(digests[" ".join(argv)], _corpus_summary))]
    if name == "ladder":
        return [Command(("multiplier", spec),
                        _checked(digests[f"multiplier {spec}"],
                                 _ladder_check(spec, expected["ladder_ranks"][spec])))
                for spec in LADDER]
    if name == "dense":
        cmds = []
        for index, spec in enumerate(DENSE_SOURCES):
            path = workdir / f"dense-{index}.lie"
            path.write_text(dense_copy(spec, random.Random(f"{seed}:{pass_index}:{spec}")))
            source = f"kernel {spec} --format json"
            cmds.append(Command(
                ("kernel", f"file:{path}", "--format", "json"),
                _checked(digests[source], _dense_check(expected["dense_sources"][spec]))))
        return cmds
    if name == "lemma":
        argv = ("verify", "lemma", "--arity-max", str(LEMMA_ARITY))
        return [Command(argv, _checked(digests[" ".join(argv)], _lemma_check))]
    raise ValueError(f"unknown workload {name!r}")


# -- dense inputs -------------------------------------------------------------

def _unimodular(n: int, rng: random.Random) -> list[list[int]]:
    """Lower- times upper-unitriangular, off-diagonal entries in {-1, 0, 1}.

    Exactly half of each triangle's entries are nonzero, so every draw
    starts from the same density; the cost of a copy still varies with
    the draw, which is why every pass draws afresh.
    """
    def triangle(cells):
        chosen = sorted(rng.sample(cells, len(cells) // 2))
        return {cell: rng.choice((-1, 1)) for cell in chosen}

    below = triangle([(i, j) for i in range(n) for j in range(i)])
    above = triangle([(i, j) for i in range(n) for j in range(i + 1, n)])
    lower = [[1 if i == j else below.get((i, j), 0) for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else above.get((i, j), 0) for j in range(n)] for i in range(n)]
    return [[sum(lower[i][k] * upper[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def _inverse(p: list[list[int]]) -> list[list[int]]:
    n = len(p)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(p)]
    for c in range(n):
        piv = next(r for r in range(c, n) if a[r][c])
        a[c], a[piv] = a[piv], a[c]
        lead = a[c][c]
        a[c] = [x / lead for x in a[c]]
        for r in range(n):
            f = a[r][c]
            if r != c and f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    inverse = [row[n:] for row in a]
    if any(x.denominator != 1 for row in inverse for x in row):
        raise ArithmeticError("basis change is not unimodular")
    return [[int(x) for x in row] for row in inverse]


def dense_copy(spec: str, rng: random.Random) -> str:
    """A .lie text of the algebra ``spec`` in a random unimodular basis.

    The new basis is f_a = sum_i P[a][i] e_i.  The file keeps the source's
    name, so the ``kernel`` output must be byte-identical to the source's.
    """
    from nilmult.catalog import build

    source = build(spec)
    n, table = source.dim, source.table
    p = _unimodular(n, rng)
    q = _inverse(p)
    lines = [f"algebra {spec}", f"dim {n}"]
    for a in range(n):
        for b in range(a + 1, n):
            image = [0] * n  # [f_a, f_b] over the old basis
            for (i, j), entry in table.items():
                w = p[a][i] * p[b][j] - p[a][j] * p[b][i]
                if w:
                    for k, c in entry.items():
                        image[k] += w * c
            coords = [sum(image[k] * q[k][t] for k in range(n)) for t in range(n)]
            terms = [f"{c}*{t + 1}" for t, c in enumerate(coords) if c]
            if terms:
                lines.append(f"bracket {a + 1} {b + 1} -> {' '.join(terms)}")
    lines.append("end")
    return "\n".join(lines) + "\n"
