"""Schur multiplier dimension via degree-2 homology, and the kernel rows.

For a nilpotent Lie algebra over the rationals, dim M(L) equals the
dimension of the second homology of the complex

    Λ³L --d3--> Λ²L --d2--> L

with trivial coefficients: dim M(L) = nullity(d2) - rank(d3).  Both maps
are built from the integer table, D times the rational one, which keeps
their ranks.  The columns of d2 are the table entries; those of d3 are
``lie_core._d3_columns``, keyed by triple, with e_s ∧ e_t (s < t) as row
C(t,2) + s, its colex index, built and checked (d2∘d3 = 0, the Jacobi
identity) where the algebra is certified, kept as ``_d3`` and read here,
never modified.  Each is echelonised once per algebra by the integer kernel
of ``exactla`` (``_pivots``), and each rank is a pivot count of the table
that was certified (``_certified``: the adapted one of a table that is not
triangular).  Colex rows make quotients by trailing ideals leading blocks
(``_quotient_dims``), so the kernel rows (``ker_lambda_dims``: dim ker λ_i,
λ_i : L/γ₂ ⊗ γ_i/γ_{i+1} → M(L/γ_{i+1}), u ⊗ w ↦ [u ∧ w]) are pivot counts
of the adapted table, on which each γ_i is a trailing span.  The dense
rational matrices are views in lexicographic exterior bases."""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb

from .exactla import Matrix, _dense
from .lie_core import LieAlgebra, series_profile
from .record import Record


class RangeError(ValueError):
    """Index argument outside its documented range."""


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
    by_row: list[dict[int, int]] = [{} for _ in range(rows)]
    for c, col in columns.items():
        for r, x in col.items():
            by_row[r][c] = x
    return Matrix(rows, cols, tuple(_dense(row, cols, scale) for row in by_row))


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


# Only the multiplier command calls this, once; one entry keeps perfbench/run.py's cache_info().
@lru_cache(maxsize=1)
def multiplier_dim(L: LieAlgebra) -> MultiplierResult:
    """dim M(L) = C(n,2) − rank(d2) − rank(d3), all exact."""
    d2, d3 = L._certified._pivots
    return MultiplierResult(n=L.dim, rank_d2=len(d2), rank_d3=len(d3),
                            dim_M=comb(L.dim, 2) - len(d2) - len(d3))


# -- kernel bookkeeping -------------------------------------------------------

class KernelRow(Record):
    """Kernel dimension of λ_i and the checks it must satisfy.

    ``satisfied`` demands both the required lower bound and membership
    in [0, domain_bound], where domain_bound = (n-m)·dim(γ_i/γ_{i+1})
    is the dimension of the λ_i domain.
    """

    i: int
    dim_gamma_i_mod_next: int
    dim_M_of_L_mod_gamma_i: int
    ker_lambda_i: int
    required_lower_bound: int
    domain_bound: int
    satisfied: bool


class KernelProfile(Record):
    """Rows for i = 2..c plus the surrounding dimensions."""

    name: str
    n: int
    m: int
    c: int
    dim_M: int
    rows: tuple[KernelRow, ...]

    @property
    def all_satisfied(self) -> bool:
        return all(row.satisfied for row in self.rows)


def ker_lambda_dims(L: LieAlgebra) -> KernelProfile:
    """dim ker(λ_i) for 2 <= i <= c by quotient-multiplier bookkeeping,
    λ_i : L/γ₂ ⊗ γ_i/γ_{i+1} → M(L/γ_{i+1}):

    dim ker(λ_i) = dim M(L/γ_i) + (n-m-1)·dim(γ_i/γ_{i+1}) − dim M(L/γ_{i+1}).
    """
    prof = series_profile(L)
    n, m, c = L.dim, prof.derived_dim, prof.nilpotency_class
    if m == 0:
        raise RangeError("kernel bookkeeping requires a nonabelian algebra")
    # dim M(L/γ_i) for i = 2..c+1 (the last is dim M(L)); on the adapted
    # table, L/γ_i is the first n − dim γ_i coordinates.
    quotient_dims = _quotient_dims(prof.adapted,
                                   [n - prof.gamma(i).dim for i in range(2, c + 2)])
    rows = []
    for i in range(2, c + 1):
        layer = prof.gamma(i).dim - prof.gamma(i + 1).dim
        ker = quotient_dims[i - 2] + (n - m - 1) * layer - quotient_dims[i - 1]
        required = max(0, n - m - i)
        domain = (n - m) * layer
        rows.append(KernelRow(
            i=i, dim_gamma_i_mod_next=layer,
            dim_M_of_L_mod_gamma_i=quotient_dims[i - 2],
            ker_lambda_i=ker, required_lower_bound=required,
            domain_bound=domain,
            satisfied=required <= ker <= domain))
    return KernelProfile(name=L.name, n=n, m=m, c=c,
                         dim_M=quotient_dims[-1], rows=tuple(rows))
