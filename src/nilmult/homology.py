"""Schur multiplier dimension via degree-2 homology.

For a nilpotent Lie algebra over the rationals, dim M(L) equals the
dimension of the second homology of the complex

    Λ³L --d3--> Λ²L --d2--> L

with trivial coefficients: dim M(L) = nullity(d2) - rank(d3).  Both maps
are built from the integer table, D times the rational one, which keeps
their ranks.  The columns of d2 are the table entries; those of d3 are
``lie_core._d3_columns``, keyed by triple, with e_s ∧ e_t (s < t) as row
C(t,2) + s, its colex index, built and checked (d2∘d3 = 0, the Jacobi
identity) when the algebra is constructed, kept as ``L._d3`` and read here,
never modified.  Each is echelonised once per algebra by the integer kernel
of ``exactla`` (``L._pivots``), and each rank is a pivot count.  Colex rows
make quotients by trailing ideals leading blocks (``_quotient_dims``).  The
dense rational matrices are views in lexicographic exterior bases."""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb

from .exactla import Matrix
from .lie_core import LieAlgebra
from .record import Record


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


def _dense_view(columns: dict[int, dict[int, int]], rows: int, cols: int, scale: int) -> Matrix:
    """The integer columns divided by ``scale``, as a dense rational matrix."""
    entries = [[Fraction(0)] * cols for _ in range(rows)]
    for c, col in columns.items():
        for r, x in col.items():
            entries[r][c] = Fraction(x, scale)
    return Matrix(rows, cols, tuple(map(tuple, entries)))


def d2_matrix(L: LieAlgebra) -> Matrix:
    """Boundary Λ²L → L as a dense matrix; columns follow the pair basis."""
    pair_index = {p: t for t, p in enumerate(exterior_basis(L.dim, 2))}
    columns = {pair_index[pair]: dict(image) for pair, image in L._ints.items()}
    return _dense_view(columns, L.dim, comb(L.dim, 2), L._scale)


def d3_matrix(L: LieAlgebra) -> Matrix:
    """Boundary Λ³L → Λ²L as a dense matrix; columns follow the triple basis."""
    row = {comb(t, 2) + s: r for r, (s, t) in enumerate(exterior_basis(L.dim, 2))}
    column = {p: c for c, p in enumerate(exterior_basis(L.dim, 3))}
    columns = {column[c]: {row[r]: x for r, x in col.items()} for c, col in L._d3.items()}
    return _dense_view(columns, len(row), len(column), L._scale)


def _quotient_dims(L: LieAlgebra, cuts: list[int]) -> list[int]:
    """dim M(L/⟨e_k, …, e_{n−1}⟩) for each k in ``cuts``, each span an ideal."""
    d2, d3 = L._pivots
    return [comb(k, 2) - sum(p < k for p in d2) - sum(p < comb(k, 2) for p in d3) for k in cuts]


# No analysis entry calls this; the cache stays for perfbench/run.py's cache_info().
@lru_cache(maxsize=None)
def multiplier_dim(L: LieAlgebra) -> MultiplierResult:
    """dim M(L) = C(n,2) − rank(d2) − rank(d3), all exact."""
    d2, d3 = L._pivots
    return MultiplierResult(n=L.dim, rank_d2=len(d2), rank_d3=len(d3),
                            dim_M=comb(L.dim, 2) - len(d2) - len(d3))
