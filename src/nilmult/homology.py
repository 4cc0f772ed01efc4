"""Schur multiplier dimension via degree-2 homology.

For a nilpotent Lie algebra over the rationals, dim M(L) equals the
dimension of the second homology of the complex

    Λ³L --d3--> Λ²L --d2--> L

with trivial coefficients: dim M(L) = nullity(d2) - rank(d3).  Exterior
power bases are index tuples in lexicographic order, and both boundary
matrices are exact rational matrices, so the resulting dimensions are
exact integers.  The nonzero columns of d2 are the table entries and d3
is assembled once as sparse columns; both are ranked by the sparse
elimination kernel of ``exactla``, and the dense matrices are views.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb

from .exactla import Matrix, Record, _echelon
from .lie_core import LieAlgebra


def exterior_basis(n: int, k: int) -> list[tuple[int, ...]]:
    """Strictly increasing index k-tuples over 0..n-1, lex sorted."""
    return list(itertools.combinations(range(n), k))


class MultiplierResult(Record):
    """Multiplier dimension together with the two boundary ranks."""

    n: int
    rank_d2: int
    rank_d3: int
    dim_M: int

    def __init__(self, n, rank_d2, rank_d3, dim_M):
        if dim_M != comb(n, 2) - rank_d2 - rank_d3:
            raise ValueError("inconsistent multiplier bookkeeping")
        super().__init__(n, rank_d2, rank_d3, dim_M)


_Columns = dict[int, dict[int, Fraction]]


def _d3_columns(L: LieAlgebra) -> _Columns:
    """Nonzero columns of d3, x∧y∧z ↦ [x,y]∧z − [x,z]∧y + [y,z]∧x.

    Built from the nonzero brackets only: [e_a, e_b] with a < b enters the
    column of the triple {a, b, t} as ±[e_a, e_b] ∧ e_t, negated when t
    lies between a and b.
    """
    n = L.dim
    pair_index = {p: t for t, p in enumerate(exterior_basis(n, 2))}
    triple_index = {p: t for t, p in enumerate(exterior_basis(n, 3))}
    columns: _Columns = {}
    for (a, b), image in L._table.items():
        for t in range(n):
            if t == a or t == b:
                continue
            sign = -1 if a < t < b else 1
            col = columns.setdefault(triple_index[tuple(sorted((a, b, t)))], {})
            for s, x in image:
                if s != t:  # e_s ∧ e_t = −e_t ∧ e_s in the pair basis
                    key = pair_index[(min(s, t), max(s, t))]
                    col[key] = col.get(key, 0) + (sign * x if s < t else -sign * x)
    columns = {c: {r: x for r, x in col.items() if x} for c, col in columns.items()}
    return {c: col for c, col in columns.items() if col}


def _dense_view(columns: _Columns, rows: int, cols: int) -> Matrix:
    entries = [[Fraction(0)] * cols for _ in range(rows)]
    for c, col in columns.items():
        for r, x in col.items():
            entries[r][c] = x
    return Matrix(rows, cols, tuple(map(tuple, entries)))


def d2_matrix(L: LieAlgebra) -> Matrix:
    """Boundary Λ²L → L as a dense matrix; columns follow the pair basis."""
    pair_index = {p: t for t, p in enumerate(exterior_basis(L.dim, 2))}
    columns = {pair_index[pair]: dict(image) for pair, image in L._table.items()}
    return _dense_view(columns, L.dim, comb(L.dim, 2))


def d3_matrix(L: LieAlgebra) -> Matrix:
    """Boundary Λ³L → Λ²L as a dense matrix; columns follow the triple basis."""
    return _dense_view(_d3_columns(L), comb(L.dim, 2), comb(L.dim, 3))


@lru_cache(maxsize=None)
def multiplier_dim(L: LieAlgebra) -> MultiplierResult:
    """dim M(L) = C(n,2) − rank(d2) − rank(d3), all exact."""
    r2 = len(_echelon(dict(e) for e in L._table.values()))
    r3 = len(_echelon(_d3_columns(L).values()))
    return MultiplierResult(n=L.dim, rank_d2=r2, rank_d3=r3,
                            dim_M=comb(L.dim, 2) - r2 - r3)
