"""Exact linear algebra over the rationals.

Every scalar is a ``fractions.Fraction`` (arbitrary precision, always in
lowest terms, positive denominator), so no floating point ever enters a
computation.  Matrices and subspaces are immutable; a subspace is stored
as the reduced row-echelon basis of its span, which makes equality,
membership and quotient lifts canonical.

All elimination (rank, RREF, subspace bases, kernels) runs through one
sparse kernel, ``_echelon``, on rows held as ``{column: value}`` dicts,
so its cost follows the nonzeros rather than the matrix shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

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


def is_zero_vector(v: Sequence[Fraction]) -> bool:
    return all(x == 0 for x in v)


@dataclass(frozen=True)
class Matrix:
    rows: int
    cols: int
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if len(self.entries) != self.rows:
            raise DimensionMismatch("row count does not match entries")
        if any(len(r) != self.cols for r in self.entries):
            raise DimensionMismatch("ragged rows")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable], cols: int | None = None) -> "Matrix":
        data = tuple(vector(r) for r in rows)
        if cols is None:
            if not data:
                raise DimensionMismatch("cannot infer column count of empty matrix")
            cols = len(data[0])
        return cls(len(data), cols, data)


def _sparse(v: Sequence[Fraction]) -> dict[int, Fraction]:
    return {c: x for c, x in enumerate(v) if x}


def _subtract(row: dict[int, Fraction], f: Fraction, prow: dict[int, Fraction]) -> None:
    """row -= f * prow in place, dropping the entries that cancel."""
    for c, y in prow.items():
        x = row.get(c, _ZERO) - f * y
        if x:
            row[c] = x
        else:
            del row[c]


def _echelon(rows: Iterable[dict[int, Fraction]]) -> dict[int, dict[int, Fraction]]:
    """Row echelon form of sparse rows, keyed by pivot column.

    A row is a ``{col: value}`` dict without zero values; its pivot is its
    smallest column.  Each row is reduced against the pivot rows held so
    far until its pivot is new (it then joins them, scaled to a leading 1)
    or nothing is left.  The input rows are not modified.
    """
    pivots: dict[int, dict[int, Fraction]] = {}
    for row in rows:
        row = dict(row)
        while row:
            p = min(row)
            prow = pivots.get(p)
            if prow is None:
                lead = row[p]
                if lead != 1:
                    row = {c: x / lead for c, x in row.items()}
                pivots[p] = row
                break
            _subtract(row, row[p], prow)
    return pivots


def _reduced(rows: Iterable[dict[int, Fraction]]) -> list[tuple[int, dict[int, Fraction]]]:
    """(pivot, row) pairs of the reduced row-echelon form, pivots ascending.

    Back-substitution on ``_echelon``: a pivot row only holds columns at or
    right of its pivot, so clearing from the last pivot leftwards subtracts
    rows that are already zero on every other pivot column.
    """
    pivots = _echelon(rows)
    order = sorted(pivots)
    for k in range(len(order) - 2, -1, -1):
        row = pivots[order[k]]
        for q in order[k + 1:]:
            f = row.get(q)
            if f:
                _subtract(row, f, pivots[q])
    return [(p, pivots[p]) for p in order]


def _dense(row: dict[int, Fraction], n: int) -> tuple[Fraction, ...]:
    out = [_ZERO] * n
    for c, x in row.items():
        out[c] = x
    return tuple(out)


def rref(m: Matrix) -> tuple[Matrix, int]:
    """Reduced row-echelon form and rank.

    Pivots are normalised to 1 and cleared above and below, so the result
    is the canonical RREF; zero rows come last.
    """
    reduced = _reduced(map(_sparse, m.entries))
    rows = [_dense(row, m.cols) for _, row in reduced]
    rows += [zero_vector(m.cols)] * (m.rows - len(rows))
    return Matrix(m.rows, m.cols, tuple(rows)), len(reduced)


def rank(m: Matrix) -> int:
    return len(_echelon(map(_sparse, m.entries)))


@dataclass(frozen=True)
class Subspace:
    """A subspace of Q^n, held as the sparse rows of its RREF basis.

    ``rows`` are ``{column: value}`` dicts without zero values, one per
    pivot, in ascending pivot order; they are shared, not copied, so
    callers must not modify them.  ``basis`` is their dense view.
    """

    ambient_dim: int
    rows: tuple[dict[int, Fraction], ...]
    pivots: tuple[int, ...]

    # Equal subspaces have equal pivots; the rows are unhashable dicts.
    def __hash__(self):
        return hash((self.ambient_dim, self.pivots))

    @classmethod
    def from_rows(cls, ambient_dim: int, rows: Iterable[dict[int, Fraction]]) -> "Subspace":
        """Span of sparse rows whose columns lie below ``ambient_dim``."""
        reduced = _reduced(rows)
        return cls(ambient_dim, tuple(row for _, row in reduced),
                   tuple(p for p, _ in reduced))

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Iterable[Iterable]) -> "Subspace":
        rows = [vector(v) for v in vectors]
        if any(len(r) != ambient_dim for r in rows):
            raise DimensionMismatch("vector length does not match ambient dimension")
        return cls.from_rows(ambient_dim, map(_sparse, rows))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, (), ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, tuple({k: _ONE} for k in range(ambient_dim)),
                   tuple(range(ambient_dim)))

    @cached_property
    def basis(self) -> Matrix:
        return Matrix(self.dim, self.ambient_dim,
                      tuple(_dense(row, self.ambient_dim) for row in self.rows))

    @property
    def dim(self) -> int:
        return len(self.pivots)

    @property
    def is_zero(self) -> bool:
        return self.dim == 0

    def residual(self, row: dict[int, Fraction]) -> dict[int, Fraction]:
        """A copy of the sparse row with this subspace's pivot coordinates
        cleared; each RREF row is zero on the other pivots."""
        w = dict(row)
        for p, prow in zip(self.pivots, self.rows):
            if p in w:
                _subtract(w, w[p], prow)
        return w

    def reduce(self, v: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Residual of v after clearing this subspace's pivot coordinates."""
        if len(v) != self.ambient_dim:
            raise DimensionMismatch("vector length does not match ambient dimension")
        return _dense(self.residual(_sparse(vector(v))), self.ambient_dim)

    def contains(self, v: Sequence[Fraction]) -> bool:
        return is_zero_vector(self.reduce(v))

    def contains_subspace(self, other: "Subspace") -> bool:
        return not any(self.residual(row) for row in other.rows)

    def quotient_basis_rows(self, sub: "Subspace") -> tuple[dict[int, Fraction], ...]:
        """Canonical lifts of a basis of self/sub: the rows of self's RREF
        off sub's pivots, sparse."""
        taken = set(sub.pivots)
        return tuple(r for r, p in zip(self.rows, self.pivots) if p not in taken)


def _null_rows(rows: Iterable[dict[int, Fraction]], cols: int) -> list[dict[int, Fraction]]:
    """Sparse rows spanning {x in Q^cols : row . x = 0 for every row}: one
    per free column f of the RREF, with 1 at f and minus column f of the
    pivot rows at their pivots."""
    reduced = _reduced(rows)
    taken = {p for p, _ in reduced}
    out = []
    for f in range(cols):
        if f not in taken:
            v = {f: _ONE}
            for p, row in reduced:
                x = row.get(f)
                if x:
                    v[p] = -x
            out.append(v)
    return out


def kernel_basis(m: Matrix) -> Subspace:
    """Null space {x : m x = 0} as a subspace of Q^cols."""
    return Subspace.from_rows(m.cols, _null_rows(map(_sparse, m.entries), m.cols))
