"""Exact linear algebra over the rationals.

No floating point ever enters a computation.  All elimination (rank,
RREF, subspace bases, kernels, residuals) runs through one sparse,
fraction-free kernel, ``_echelon``, on ``int`` rows held as ``{column:
value}`` dicts: rows are cross-multiplied (Bareiss style) and kept
primitive, so the cost follows the nonzeros rather than the matrix shape.
``Fraction`` values appear only at the edges: ``Matrix`` entries,
residuals and ``Subspace.basis``.  Matrices and subspaces are immutable; a
subspace is stored as the primitive integer rows of its span's reduced
row-echelon basis, which makes equality, membership and quotient lifts canonical.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from functools import cached_property

from .record import Record

_ZERO = Fraction(0)
_ONE = Fraction(1)


class DimensionMismatch(ValueError):
    """Operands disagree on dimensions."""


def rational(x) -> Fraction:
    """x as a Fraction; a float is refused, since Fraction(0.1) would be
    its binary approximation, not 1/10."""
    if isinstance(x, float):
        raise TypeError(f"float coefficient {x!r}: pass an int, Fraction or string")
    return x if isinstance(x, Fraction) else Fraction(x)


def vector(xs: Iterable) -> tuple[Fraction, ...]:
    """Coerce a sequence of scalars to an immutable rational vector."""
    return tuple(rational(x) for x in xs)


def basis_vector(n: int, k: int) -> tuple[Fraction, ...]:
    return tuple(_ONE if i == k else _ZERO for i in range(n))


def zero_vector(n: int) -> tuple[Fraction, ...]:
    return (_ZERO,) * n


class Matrix(Record):
    rows: int
    cols: int
    entries: tuple[tuple[Fraction, ...], ...]

    def __init__(self, rows, cols, entries):
        if len(entries) != rows:
            raise DimensionMismatch("row count does not match entries")
        if any(len(r) != cols for r in entries):
            raise DimensionMismatch("ragged rows")
        super().__init__(rows, cols, entries)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable], cols: int | None = None) -> "Matrix":
        data = tuple(vector(r) for r in rows)
        if cols is None:
            if not data:
                raise DimensionMismatch("cannot infer column count of empty matrix")
            cols = len(data[0])
        return cls(len(data), cols, data)


# A sparse integer row: a {column: value} dict or its item pairs.
_IntRow = Mapping[int, int] | Iterable[tuple[int, int]]


def _sparse(v: Sequence[Fraction]) -> dict[int, Fraction]:
    return {c: x for c, x in enumerate(v) if x}


def _integral(row: Mapping[int, Fraction]) -> dict[int, int]:
    """s · row in ints for a sparse rational row, s the lcm of its
    denominators."""
    s = math.lcm(*(x.denominator for x in row.values()))
    return {c: x.numerator * (s // x.denominator) for c, x in row.items()}


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """row divided by its content, signed so that its leading entry is positive."""
    g = math.gcd(*row.values()) * (-1 if row[min(row)] < 0 else 1)
    return row if g == 1 else {c: x // g for c, x in row.items()}


def _cancel(row: dict[int, int], p: int, prow: dict[int, int]) -> int:
    """row := a·row − b·prow in place, dropping the entries that cancel,
    where a = prow[p]/g > 0, b = row[p]/g and g is their gcd, so column p
    cancels.  Returns a."""
    x, lead = row[p], prow[p]
    g = math.gcd(x, lead)
    a, b = lead // g, x // g
    if a != 1:
        for c in row:
            row[c] *= a
    for c, y in prow.items():
        v = row.get(c, 0) - b * y
        if v:
            row[c] = v
        else:
            del row[c]
    return a


def _echelon(rows: Iterable[_IntRow]) -> dict[int, dict[int, int]]:
    """Row echelon form of sparse integer rows, keyed by pivot column.

    A row is a ``{col: value}`` dict (or its item pairs) without zero
    values; its pivot is its smallest column.  Each row is reduced
    against the pivot rows held so far by fraction-free cross
    multiplication (``_cancel``) until its pivot is new (it then joins
    them, primitive with a positive leading entry) or nothing is left.
    The input rows are not modified.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        row = dict(row)
        while row:
            p = min(row)
            prow = pivots.get(p)
            if prow is None:
                pivots[p] = _primitive(row)
                break
            _cancel(row, p, prow)
    return pivots


def _reduced(pivots: dict[int, dict[int, int]]) -> list[tuple[int, dict[int, int]]]:
    """(pivot, row) pairs of the reduced row-echelon form, pivots ascending,
    each RREF row as its primitive integer multiple; ``pivots`` is an
    ``_echelon`` result, reduced in place.

    A pivot row only holds columns at or right of its pivot, so clearing
    from the last pivot leftwards cancels against rows that are already
    zero on every other pivot column.
    """
    order = sorted(pivots)
    for k in range(len(order) - 2, -1, -1):
        row = pivots[order[k]]
        for q in order[k + 1:]:
            if q in row:
                _cancel(row, q, pivots[q])
        pivots[order[k]] = _primitive(row)
    return [(p, pivots[p]) for p in order]


def _dense(row: Mapping[int, int | Fraction], n: int, scale: int = 1) -> tuple[Fraction, ...]:
    """The sparse row divided by ``scale``, as a dense rational vector."""
    out = [_ZERO] * n
    for c, x in row.items():
        out[c] = Fraction(x, scale)
    return tuple(out)


def rref(m: Matrix) -> tuple[Matrix, int]:
    """Reduced row-echelon form and rank.

    Pivots are normalised to 1 and cleared above and below, so the result
    is the canonical RREF; zero rows come last.
    """
    reduced = _reduced(_echelon(_integral(_sparse(r)) for r in m.entries))
    rows = [_dense(row, m.cols, row[p]) for p, row in reduced]
    rows += [zero_vector(m.cols)] * (m.rows - len(rows))
    return Matrix(m.rows, m.cols, tuple(rows)), len(reduced)


def rank(m: Matrix) -> int:
    return len(_echelon(_integral(_sparse(r)) for r in m.entries))


class Subspace(Record):
    """A subspace of Q^n, held as the sparse rows of its RREF basis.

    ``rows`` are the primitive integer multiples of the RREF rows,
    ``{column: int}`` dicts without zero values, one per pivot, in
    ascending pivot order: each leads with a positive entry and is zero
    on the other pivots.  They are shared, not copied, so callers must
    not modify them.  ``basis`` is their dense view, each row divided by
    its leading entry.
    """

    ambient_dim: int
    rows: tuple[dict[int, int], ...]
    pivots: tuple[int, ...]

    def __init__(self, ambient_dim, rows, pivots):
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "pivots", pivots)

    # Equal subspaces have equal pivots; the rows are unhashable dicts.
    def __hash__(self):
        return hash((self.ambient_dim, self.pivots))

    @classmethod
    def from_rows(cls, ambient_dim: int, rows: Iterable[_IntRow]) -> "Subspace":
        """Span of sparse integer rows whose columns lie below ``ambient_dim``."""
        reduced = _reduced(_echelon(rows))
        return cls(ambient_dim, tuple(row for _, row in reduced), tuple(p for p, _ in reduced))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, (), ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, tuple({k: 1} for k in range(ambient_dim)),
                   tuple(range(ambient_dim)))

    @cached_property
    def basis(self) -> Matrix:
        return Matrix(self.dim, self.ambient_dim,
                      tuple(_dense(row, self.ambient_dim, row[p])
                            for p, row in zip(self.pivots, self.rows)))

    @property
    def dim(self) -> int:
        return len(self.pivots)

    @property
    def is_zero(self) -> bool:
        return self.dim == 0

    def residual(self, row: Mapping[int, Fraction]) -> dict[int, Fraction]:
        """The sparse rational row with this subspace's pivot coordinates
        cleared; each RREF row is zero on the other pivots."""
        s, w = math.lcm(*(x.denominator for x in row.values())), _integral(row)
        for p, prow in zip(self.pivots, self.rows):
            if p in w:
                s *= _cancel(w, p, prow)  # w is s times the residual so far
        return {c: Fraction(x, s) for c, x in w.items()}

    def reduce(self, v: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Residual of v after clearing this subspace's pivot coordinates."""
        if len(v) != self.ambient_dim:
            raise DimensionMismatch("vector length does not match ambient dimension")
        return _dense(self.residual(_sparse(vector(v))), self.ambient_dim)

    def quotient_basis_rows(self, sub: "Subspace") -> tuple[dict[int, int], ...]:
        """Canonical lifts of a basis of self/sub: the rows of self's RREF
        off sub's pivots, as primitive integer rows."""
        taken = set(sub.pivots)
        return tuple(r for r, p in zip(self.rows, self.pivots) if p not in taken)


def _null_rows(rows: Iterable[_IntRow], cols: int) -> list[dict[int, int]]:
    """Sparse integer rows spanning {x in Q^cols : row . x = 0 for every
    row}: one per free column f of the RREF, with s at f and −s·x/l at
    each pivot whose row holds x at f and leads with l, s the lcm of
    those leads."""
    reduced = _reduced(_echelon(rows))
    taken = {p for p, _ in reduced}
    out = []
    for f in range(cols):
        if f not in taken:
            hits = [(p, row[p], row[f]) for p, row in reduced if f in row]
            s = math.lcm(*(lead for _, lead, _ in hits))
            v = {f: s}
            v.update((p, -x * (s // lead)) for p, lead, x in hits)
            out.append(v)
    return out


def kernel_basis(m: Matrix) -> Subspace:
    """Null space {x : m x = 0} as a subspace of Q^cols."""
    rows = (_integral(_sparse(r)) for r in m.entries)
    return Subspace.from_rows(m.cols, _null_rows(rows, m.cols))
