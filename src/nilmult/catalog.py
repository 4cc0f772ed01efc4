"""Built-in algebra families, the .lie file format, and the corpus.

Spec strings name algebras:

    abelian:n                  zero bracket, dimension n
    heisenberg:k               dimension 2k+1, [x_j, y_j] = z
    filiform:n                 [e_1, e_i] = e_{i+1} for 2 <= i <= n-1
    freenil:d,c                free nilpotent, rank d, class c
    dirsum:<spec>+<spec>       direct sum of two or more non-sum specs
    file:<path>                .lie file on disk

A dirsum splits only at a ``+`` that starts a family name and ``:``, so a
``file:`` summand's path may itself contain ``+``.

The .lie text format is line-oriented, with ``#`` starting a comment:

    algebra <name>
    dim <n>
    bracket <i> <j> -> <c1>*<k1> [<c2>*<k2> ...]   # 1-based, i < j
    end

Unlisted pairs bracket to zero; coefficients are rationals written as
``p`` or ``p/q`` with an optional sign.  Numbers take ASCII digits only.
A parsed file is certified by ``LieAlgebra``'s one rule, as any table is;
``fractions`` and the patterns load on first use.
"""

from __future__ import annotations

import itertools
import re

from .exactla import rational
from .lie_core import LieAlgebra, direct_sum

DIM_GUARD = 64


class SpecError(ValueError):
    """Malformed or out-of-range algebra spec string."""


class ParseError(ValueError):
    """Syntax or consistency error in a .lie file, with line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


# -- families -----------------------------------------------------------------

def abelian(n: int) -> LieAlgebra:
    if not 0 <= n <= DIM_GUARD:
        raise SpecError(f"abelian dimension {n} outside 0..{DIM_GUARD}")
    return LieAlgebra(n, {}, name=f"abelian:{n}")


def heisenberg(k: int) -> LieAlgebra:
    """Dimension 2k+1: [e_j, e_{k+j}] = e_{2k} for j = 0..k-1."""
    if k < 1 or 2 * k + 1 > DIM_GUARD:
        raise SpecError(f"heisenberg parameter {k} outside range")
    table = {(j, k + j): {2 * k: 1} for j in range(k)}
    return LieAlgebra(2 * k + 1, table, name=f"heisenberg:{k}")


def filiform(n: int) -> LieAlgebra:
    """Maximal-class model: [e_0, e_i] = e_{i+1} for i = 1..n-2."""
    if not 3 <= n <= DIM_GUARD:
        raise SpecError(f"filiform dimension {n} outside 3..{DIM_GUARD}")
    table = {(0, i): {i + 1: 1} for i in range(1, n - 1)}
    return LieAlgebra(n, table, name=f"filiform:{n}")


def freenil(d: int, c: int) -> LieAlgebra:
    if d < 1 or c < 1:
        raise SpecError("freenil needs d >= 1 and c >= 1")
    # The dimension is at least d, and at least c once d >= 2.  freenil:1,c
    # is one-dimensional, but the Witt recursion below still runs over every
    # k <= c, so c is bounded for every d.
    if d > DIM_GUARD or c > DIM_GUARD:
        bounded = "dimension" if d > 1 else "class"
        raise SpecError(f"freenil:{d},{c} has {bounded} > {DIM_GUARD}")
    total = _freenil_dim(d, c)
    if total > DIM_GUARD:
        raise SpecError(f"freenil:{d},{c} has dimension {total} > {DIM_GUARD}")
    from .free_lie import free_nilpotent

    return free_nilpotent(d, c)


def _freenil_dim(d: int, c: int) -> int:
    """dim freenil:d,c: the Lyndon words over d letters of length at most c."""
    witt = [0]  # witt[k] of length k: d^k = sum over e | k of e * witt[e]
    for k in range(1, c + 1):
        witt.append((d ** k - sum(e * witt[e] for e in range(1, k) if k % e == 0)) // k)
    return sum(witt)


# -- spec strings ---------------------------------------------------------------

def _ascii_int(text: str) -> int:
    """int(text) for ASCII digits; other text raises a bare ValueError."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError
    return int(text)


def _int_param(text: str, spec: str) -> int:
    try:
        return _ascii_int(text)
    except ValueError as exc:  # a message means past int()'s digit limit
        raise SpecError(f"spec integer has {len(text)} digits" if exc.args
                        else f"bad integer {text!r} in spec {spec!r}") from None


_ONE_PARAMETER = {"abelian": abelian, "heisenberg": heisenberg, "filiform": filiform}
_SUMMAND_START = r"\+(?=(?:abelian|heisenberg|filiform|freenil|dirsum|file):)"


def build(spec: str) -> LieAlgebra:
    """Construct a new algebra from a spec string, on every call; nothing
    in the package keeps it but ``multiplier_dim``'s one entry."""
    spec = spec.strip()
    head, sep, rest = spec.partition(":")
    if not sep:
        raise SpecError(f"spec {spec!r} is missing ':'")
    if head == "file":
        return load_file(rest)
    if head in _ONE_PARAMETER:
        return _ONE_PARAMETER[head](_int_param(rest, spec))
    if head == "freenil":
        d, sep, c = rest.partition(",")
        if not sep:
            raise SpecError(f"freenil spec {spec!r} needs d,c")
        return freenil(_int_param(d, spec), _int_param(c, spec))
    if head == "dirsum":
        parts = re.split(_SUMMAND_START, rest)
        if len(parts) < 2:
            raise SpecError(f"dirsum spec {spec!r} needs at least two summands")
        summands = [build(part) for part in parts]
        if (dim := sum(summand.dim for summand in summands)) > DIM_GUARD:
            raise SpecError(f"{spec} has dimension {dim} > {DIM_GUARD}")
        return direct_sum(*summands, name=spec)
    raise SpecError(f"unknown family {head!r} in spec {spec!r}")


# -- corpus ---------------------------------------------------------------------

_SUM_COMPONENTS = (
    "abelian:1", "abelian:2", "abelian:3", "abelian:4", "abelian:5",
    "heisenberg:1", "heisenberg:2",
    "filiform:3", "filiform:4", "filiform:5",
    "freenil:2,2", "freenil:2,3", "freenil:3,2",
)


def default_manifest(max_dim: int | None = None) -> tuple[str, ...]:
    """Specs of the family members plus pairwise direct sums of total
    dimension <= 8, sorted by name.

    freenil:3,3 (dimension 14) is included deliberately even though every
    other member stays within dimension 8.  Sums of two abelian algebras
    are skipped as duplicates of plain abelian members.  ``max_dim``
    filters the final list by dimension.
    """
    # Each member's dimension in closed form; each sum component is a member.
    dims = {f"abelian:{n}": n for n in range(1, 9)}
    dims.update((f"heisenberg:{k}", 2 * k + 1) for k in (1, 2, 3))
    dims.update((f"filiform:{n}", n) for n in range(3, 8))
    dims.update((f"freenil:{d},{c}", _freenil_dim(d, c))
                for d, c in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3)))
    for a, b in itertools.combinations_with_replacement(_SUM_COMPONENTS, 2):
        if not (a.startswith("abelian") and b.startswith("abelian")) and dims[a] + dims[b] <= 8:
            dims[f"dirsum:{a}+{b}"] = dims[a] + dims[b]
    return tuple(sorted(spec for spec, dim in dims.items() if max_dim is None or dim <= max_dim))


# -- .lie files -------------------------------------------------------------------

# int() and Fraction() also read signs, '_', spaces and other scripts'
# digits (Fraction() reads '_' from Python 3.11 on); the format does not.
_COEFFICIENT = r"[-+]?[0-9]+(/[0-9]+)?"


def parse_file(text: str) -> LieAlgebra:
    """Parse the .lie format; raises ParseError with 1-based line numbers."""
    name: str | None = None
    dim: int | None = None
    table: dict[tuple[int, int], dict[int, int | Fraction]] = {}
    ended = False
    end_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ended:
            raise ParseError(lineno, f"content after 'end' (line {end_line})")
        fields = line.split()
        keyword = fields[0]
        if keyword == "algebra":
            if name is not None:
                raise ParseError(lineno, "duplicate 'algebra' line")
            if len(fields) < 2:
                raise ParseError(lineno, "'algebra' needs a name")
            name = line.split(None, 1)[1]
        elif keyword == "dim":
            if name is None:
                raise ParseError(lineno, "'dim' before 'algebra'")
            if dim is not None:
                raise ParseError(lineno, "duplicate 'dim' line")
            try:
                dim = _ascii_int(fields[1] if len(fields) == 2 else "")
            except ValueError as exc:  # a message means past int()'s digit limit
                raise ParseError(lineno, f"'dim' value has {len(fields[1])} digits" if exc.args
                                 else "'dim' needs one nonnegative integer") from None
            if dim > DIM_GUARD:
                raise ParseError(lineno, f"dimension {dim} exceeds guard {DIM_GUARD}")
        elif keyword == "bracket":
            if dim is None:
                raise ParseError(lineno, "'bracket' before 'dim'")
            pair, entry = _parse_bracket(fields, lineno, dim)
            if pair in table:
                raise ParseError(lineno, f"duplicate bracket pair {pair[0] + 1} {pair[1] + 1}")
            table[pair] = entry
        elif keyword == "end":
            if dim is None:
                raise ParseError(lineno, "'end' before 'dim'")
            ended = True
            end_line = lineno
        else:
            raise ParseError(lineno, f"unknown keyword {keyword!r}")
    if name is None or dim is None:
        raise ParseError(len(text.splitlines()) + 1, "missing 'algebra'/'dim' header")
    if not ended:
        raise ParseError(len(text.splitlines()) + 1, "missing 'end'")
    return LieAlgebra(dim, table, name)


def _parse_bracket(fields: list[str], lineno: int,
                   dim: int) -> tuple[tuple[int, int], dict[int, int | Fraction]]:
    if len(fields) < 5 or fields[3] != "->":
        raise ParseError(lineno, "expected 'bracket <i> <j> -> <c>*<k> ...'")
    try:
        i, j = _ascii_int(fields[1]), _ascii_int(fields[2])
    except ValueError:
        raise ParseError(lineno, "bracket indices must be integers") from None
    if not i < j:
        raise ParseError(lineno, f"bracket pair needs i < j, got {i} {j}")
    for index in (i, j):
        if not 1 <= index <= dim:
            raise ParseError(lineno, f"undeclared basis index {index} (dim {dim})")
    entry: dict[int, int | Fraction] = {}
    for term in fields[4:]:
        coeff_text, sep, target_text = term.partition("*")
        if not sep:
            raise ParseError(lineno, f"term {term!r} needs the form <c>*<k>")
        if not re.fullmatch(_COEFFICIENT, coeff_text):
            raise ParseError(lineno, f"non-rational coefficient {coeff_text!r}")
        try:
            coeff = rational(coeff_text) if "/" in coeff_text else int(coeff_text)
        except (ValueError, ZeroDivisionError):
            raise ParseError(lineno, f"non-rational coefficient {coeff_text!r}") from None
        try:
            target = _ascii_int(target_text)
        except ValueError:
            raise ParseError(lineno, f"bad basis index {target_text!r}") from None
        if not 1 <= target <= dim:
            raise ParseError(lineno, f"undeclared basis index {target} (dim {dim})")
        if target - 1 in entry:
            raise ParseError(lineno, f"repeated basis index {target} in one bracket")
        if coeff:
            entry[target - 1] = coeff
    return (i - 1, j - 1), entry


def serialize(L: LieAlgebra) -> str:
    """Emit the .lie format; parse(serialize(L)) equals L structurally."""
    lines = [f"algebra {L.name}", f"dim {L.dim}"]
    for (i, j), entry in sorted(L.table.items()):
        terms = " ".join(f"{coeff}*{k + 1}" for k, coeff in sorted(entry.items()))
        lines.append(f"bracket {i + 1} {j + 1} -> {terms}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def load_file(path: str) -> LieAlgebra:
    """Read and parse a .lie file from disk."""
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:  # a byte-order mark is dropped
            text = handle.read()
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in the path
        raise SpecError(f"cannot read {path}: {exc}") from None
    return parse_file(text)
