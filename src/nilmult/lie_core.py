"""Finite-dimensional Lie algebras given by rational structure constants.

A bracket table stores [e_i, e_j] for i < j only; the diagonal and the
lower triangle follow from antisymmetry.  Every live ``LieAlgebra`` is
an actual Lie algebra: the constructor and ``LieAlgebra._of`` call
``_certify``, which checks the Jacobi identity as d2∘d3 = 0 on the d3
columns of ``_certified``, the table ``homology`` ranks: L if its table
is triangular, each [e_i, e_j] (i < j) with targets past j only, else
its adapted table (the Jacobiator is trilinear, so an exact change of
basis is a Lie algebra exactly when the input is), unless that is L or
the series stalls.  If the adapted check fails, L's own columns name the
first failing triple.  The columns are built, checked and echelonised
in one step, and only the d2 and d3 pivots are kept (``_pivots``).  The
lower central series is computed by its definition, gamma_{i+1} =
[gamma_i, L]; the series profile (or the ``NotNilpotent`` of a stalled
series) is kept from first use (``_profile``).  The table is stored
once, as ``int`` numerators over D, the lcm of the denominators, read by
all, so ``Fraction`` (and ``fractions``) appears only in rational input,
non-integral constants of ``table``, ``bracket`` and ``JacobiViolation``;
``bracket``, ``product_space``, ``minimal_generators`` and
``quotient_algebra`` are references that no command calls.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Mapping, Sequence
from functools import cached_property

from .exactla import (
    DimensionMismatch,
    Subspace,
    _cancel,
    _dense,
    _echelon,
    _null_rows,
    _sparse,
    basis_vector,
    rational,
)
from .record import Record


class JacobiViolation(ValueError):
    """A bracket table that is not a Lie algebra."""

    def __init__(self, i: int, j: int, k: int, residual: tuple[Fraction, ...]):
        self.triple = (i, j, k)
        self.residual = residual
        rendered = ", ".join(str(entry) for entry in residual)
        super().__init__(
            f"Jacobi identity fails on basis triple ({i + 1},{j + 1},{k + 1}); "
            f"residual ({rendered})")


class NotNilpotent(ValueError):
    """Lower central series stabilises above zero."""


class NotAnIdeal(ValueError):
    """Attempted quotient by a subspace that is not an ideal."""


def _ratio(x: int, d: int) -> int | Fraction:
    """x/d for d > 0, an int when d divides x."""
    if x % d == 0:
        return x // d
    from fractions import Fraction
    return Fraction(x, d)


def _canonical_table(dim: int, table) -> tuple[dict, int]:
    """The nonzero entries of a rational table, checked, summed and sorted
    by target, in ints times D, the lcm of their denominators; and D."""
    out: dict[tuple[int, int], tuple[tuple[int, int | Fraction], ...]] = {}
    for (i, j), entry in table.items():
        if not (0 <= i < j < dim):
            raise DimensionMismatch(f"bracket pair ({i},{j}) outside 0 <= i < j < {dim}")
        summed: dict[int, int | Fraction] = {}
        for k, c in (entry.items() if isinstance(entry, Mapping) else entry):
            if not 0 <= k < dim:
                raise DimensionMismatch(f"bracket target index {k} outside basis")
            c = c if isinstance(c, int) else rational(c)
            # Only a pair list can repeat a target; a first sight needs no sum.
            summed[k] = summed[k] + c if k in summed else c
        cleaned = sorted((k, c) for k, c in summed.items() if c)
        if cleaned:
            out[(i, j)] = tuple(cleaned)
    scale = math.lcm(*(c.denominator for e in out.values() for _, c in e))
    return {pair: tuple((k, c.numerator * (scale // c.denominator)) for k, c in e)
            for pair, e in out.items()}, scale


class LieAlgebra:
    """Lie algebra on basis e_0..e_{n-1} with a sparse bracket table."""

    def __init__(self, dim: int, table, name: str = "L"):
        if dim < 0:
            raise DimensionMismatch("negative dimension")
        self.dim, self.name = dim, name
        self._ints, self._scale = _canonical_table(dim, table)
        self._certify()

    @classmethod
    def _of(cls, dim: int, ints: dict, scale: int, name: str) -> LieAlgebra:
        """The algebra of canonical integer entries over their least common denominator."""
        L = cls.__new__(cls)
        L.dim, L.name, L._ints, L._scale = dim, name, ints, scale
        L._certify()
        return L

    @property
    def _certified(self) -> LieAlgebra:  # the module's rule; not stored, so L is no cycle
        triangular = all(entry[0][0] > j for (_, j), entry in self._ints.items())
        return self if triangular else getattr(self._profile, "adapted", self)

    def _certify(self) -> None:
        """The Jacobi check, on the d3 columns of ``_certified``."""
        try:
            certified = self._certified
        except JacobiViolation:  # from the adapted table's own check
            certified = self  # L's own check names the failing triple
        certified._pivots  # building the columns checks them

    # Structural identity: the name is a label; entries over the least D fix the table.
    def __eq__(self, other):
        return (isinstance(other, LieAlgebra) and self.dim == other.dim
                and self._scale == other._scale and self._ints == other._ints)

    def __hash__(self):
        return hash((self.dim, self._scale, frozenset(self._ints.items())))

    def __repr__(self):
        return f"LieAlgebra({self.name!r}, dim={self.dim})"

    @property
    def table(self) -> dict[tuple[int, int], dict[int, int | Fraction]]:
        """Copy of the sparse table, an integral constant as an ``int``."""
        return {pair: {k: _ratio(c, self._scale) for k, c in e} for pair, e in self._ints.items()}

    @property
    def is_abelian(self) -> bool:
        return not self._ints

    @cached_property
    def _profile(self) -> SeriesProfile | NotNilpotent:  # series_profile raises the error
        try:
            lower = _lower_series(self)
        except NotNilpotent as err:
            return err
        m = lower[1].dim if len(lower) > 1 else 0
        return SeriesProfile(lower=lower, nilpotency_class=len(lower) - 1, derived_dim=m,
                             gen_count=self.dim - m, adapted=_adapted(self, lower))

    @cached_property
    def _pivots(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Pivot columns of the d2 and the d3 echelon, for ``homology``'s ranks;
        the d3 columns are built (so checked) here and not kept."""
        return tuple(_echelon(self._ints.values())), tuple(_echelon(_d3_columns(self).values()))

    # -- bracket ---------------------------------------------------------

    def _bracket(self, x: Mapping[int, int], y: Mapping[int, int]) -> dict[int, int]:
        """D·[x, y] on sparse {index: value} vectors, from the integer
        table entries [e_i, e_j] for i in the support of x and j in that
        of y; integer vectors give an integer result."""
        table, acc = self._ints, {}
        for i, a in x.items():
            for j, b in y.items():
                entry = table.get((i, j) if i < j else (j, i))  # none for i == j
                if entry:
                    f = a * b if i < j else -a * b
                    for k, c in entry:
                        acc[k] = acc.get(k, 0) + f * c
        return {k: c for k, c in acc.items() if c}

    def bracket(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Bilinear antisymmetric extension of the table, dense."""
        if len(x) != self.dim or len(y) != self.dim:
            raise DimensionMismatch("vector length does not match algebra dimension")
        return _dense(self._bracket(_sparse(x), _sparse(y)), self.dim, self._scale)


_Columns = dict[tuple[int, int, int], dict[int, int]]


def _d3_columns(L: LieAlgebra) -> _Columns:
    """Nonzero columns of D·d3, x∧y∧z ↦ [x,y]∧z − [x,z]∧y + [y,z]∧x, in
    ints, D the common denominator of the table; keyed by triple, with
    e_s ∧ e_t (s < t) as row C(t,2) + s, its colex index.

    Built from the nonzero brackets only: [e_a, e_b] with a < b enters the
    column of the triple {a, b, t} as ±[e_a, e_b] ∧ e_t, negated when t
    lies between a and b.

    Certified as they are returned: d2 (e_s ∧ e_t ↦ [e_s, e_t]) of the
    column of i < j < k is [[e_i,e_j],e_k] + [[e_j,e_k],e_i] +
    [[e_k,e_i],e_j] times D², and a triple without a column has no
    nonzero term.  Columns are taken in sorted triple order, so the first
    failing triple is the one ``JacobiViolation`` reports.  ``L._pivots``
    calls this once and keeps only the pivots of the echelon.
    """
    columns: _Columns = {}
    colex = [t * (t - 1) // 2 for t in range(L.dim)]  # C(t, 2)
    for (a, b), image in L._ints.items():
        for t in range(L.dim):
            if t == a or t == b:
                continue
            sign = -1 if a < t < b else 1
            col = columns.setdefault((t, a, b) if t < a else (a, t, b) if t < b else (a, b, t), {})
            for s, x in image:
                if s != t:  # e_s ∧ e_t = −e_t ∧ e_s, in row C(max, 2) + min
                    key, y = (colex[t] + s, sign * x) if s < t else (colex[s] + t, -sign * x)
                    col[key] = col.get(key, 0) + y
    columns = {c: kept for c, col in columns.items() if (kept := {r: x for r, x in col.items() if x})}
    pairs = [(s, t) for t in range(L.dim) for s in range(t)]  # colex rows
    for triple, column in sorted(columns.items()):
        res: dict[int, int] = {}
        for r, x in column.items():
            for m, c in L._ints.get(pairs[r], ()):
                res[m] = res.get(m, 0) + x * c
        if any(res.values()):
            raise JacobiViolation(*triple, _dense(res, L.dim, L._scale ** 2))
    return columns


class SeriesProfile(Record):
    """Lower central series data of a nilpotent algebra.

    ``lower`` is (gamma_1, ..., gamma_{c+1}) ending at the zero subspace.
    ``derived_dim`` is dim gamma_2 and ``gen_count`` the size of a
    minimal generating set.  ``adapted`` is the algebra rewritten in a
    basis adapted to the lower series: gamma_i is spanned by its last
    dim gamma_i basis vectors, so L/gamma_i is its table truncated to the
    first n - dim gamma_i indices; it is L itself if L's basis is adapted.
    """

    lower: tuple[Subspace, ...]
    nilpotency_class: int
    derived_dim: int
    gen_count: int
    adapted: LieAlgebra

    def gamma(self, i: int) -> Subspace:
        """gamma_i, extended by zero past the nilpotency class."""
        if i < 1:
            raise ValueError("lower central series starts at index 1")
        if i >= len(self.lower) + 1:
            return Subspace.zero(self.lower[0].ambient_dim)
        return self.lower[i - 1]


def product_space(L: LieAlgebra, A: Subspace, B: Subspace) -> Subspace:
    """Span of all [a, b] with a in A, b in B."""
    if A.ambient_dim != L.dim or B.ambient_dim != L.dim:
        raise DimensionMismatch("subspace ambient dimension does not match algebra")
    return Subspace.from_rows(L.dim, (L._bracket(a, b) for a in A.rows for b in B.rows))


def _lower_series(L: LieAlgebra) -> tuple[Subspace, ...]:
    """gamma_1, ..., gamma_{c+1} = 0 on integer echelon rows, by definition:
    gamma_2 spans the table entries, gamma_{i+1} = [gamma_i, L].  A row v is
    bracketed only with the e_x that share a nonzero entry with its support
    (every other [v, e_x] is 0).  Each term lies in the one before, so the
    first that does not shrink raises NotNilpotent, naming its dimension.
    """
    partners = [set() for _ in range(L.dim)]
    for i, j in L._ints:
        partners[i].add(j)
        partners[j].add(i)
    series = [{k: {k: 1} for k in range(L.dim)}]
    rows = _echelon(L._ints.values())
    while series[-1]:
        if len(rows) >= len(series[-1]):
            raise NotNilpotent(f"{L.name}: lower central series stabilises at dimension {len(series[-1])}")
        series.append(rows)
        rows = _echelon(L._bracket(row, {x: 1}) for row in rows.values()
                        for x in set().union(*(partners[s] for s in row)))
    return tuple(Subspace.from_rows(L.dim, echelon.values()) for echelon in series)


def _upper_step(L: LieAlgebra, Z: Subspace) -> Subspace:
    """{x : [x, e_j] in Z for all j}; from Z = 0 this is the centre.

    Reduction mod Z is linear, so coordinate r of the residual of
    [x, e_j] = sum_l x_l [e_l, e_j] is a row (j, r) in the x_l that must
    vanish; only the nonzero table entries contribute.
    """
    constraints: dict[tuple[int, int], dict[int, int]] = {}
    for (l, j), entry in L._ints.items():
        for r, x in Z.residual(dict(entry)).items():  # in ints, all times Z.scale
            constraints.setdefault((j, r), {})[l] = x
            constraints.setdefault((l, r), {})[j] = -x
    return Subspace.from_rows(L.dim, _null_rows(constraints.values(), L.dim))


def upper_series(L: LieAlgebra) -> tuple[Subspace, ...]:
    """(Z_0, ..., Z_c), from zero to the whole space; NotNilpotent if it
    stops below L."""
    series = [Subspace.zero(L.dim)]
    while series[-1].dim < L.dim:
        nxt = _upper_step(L, series[-1])
        if nxt.dim <= series[-1].dim:
            raise NotNilpotent(f"{L.name}: upper central series stabilises below L")
        series.append(nxt)
    return tuple(series)


def _adapted(L: LieAlgebra, lower: Sequence[Subspace]) -> LieAlgebra:
    """L rewritten in the basis of the RREF rows of each gamma_i lying off
    gamma_{i+1}'s pivots, layer by layer from i = 1.

    A subspace's pivots lie among the pivots of any space containing it,
    and ``lower`` shrinks strictly from L to 0, each term inside the one
    before for any bilinear table, so its rows are n rows with distinct
    pivots, each a leading 1: coordinates come from one sweep in pivot
    order on their primitive integer multiples, ``scale`` being the factor
    the integer image carries.  When every row is the unit vector of its
    own slot, L is returned itself; otherwise each constant x/d is reduced
    and the table, triangular ([e_a, e_b] lies in the term after b's), is
    built in ints over the lcm of the d.
    """
    rows = [row for outer, inner in zip(lower, lower[1:])
            for row in outer.quotient_basis_rows(inner)]
    slot = {min(row): t for t, row in enumerate(rows)}
    if all(row == {t: 1} for t, row in enumerate(rows)):
        return L  # the input basis is already adapted: the same table
    lead = [row[min(row)] for row in rows]
    reduced: dict[tuple[int, int], list[tuple[int, int, int]]] = {}  # (t, x, d) for x/d
    for a, b in itertools.combinations(range(L.dim), 2):
        image = L._bracket(rows[a], rows[b])
        scale = L._scale * lead[a] * lead[b]
        entry = []
        while image:
            p = min(image)
            g = math.gcd(image[p], scale)
            entry.append((slot[p], image[p] // g, scale // g))
            scale *= _cancel(image, p, rows[slot[p]])
        reduced[(a, b)] = sorted(entry)
    D = math.lcm(*(d for entry in reduced.values() for _, _, d in entry))
    ints = {pair: tuple((t, x * (D // d)) for t, x, d in e) for pair, e in reduced.items() if e}
    return LieAlgebra._of(L.dim, ints, D, "adapted")


def series_profile(L: LieAlgebra) -> SeriesProfile:
    """The lower central series, the (n, m, c) bookkeeping and the adapted
    table, computed on first use and kept on L as ``L._profile``;
    NotNilpotent, kept there too, if the series stalls."""
    if isinstance(profile := L._profile, NotNilpotent):
        raise profile.with_traceback(None)
    return profile


def minimal_generators(L: LieAlgebra) -> list[tuple[Fraction, ...]]:
    """Lifts of a basis of L/gamma_2: the non-pivot coordinate vectors.

    gamma_2 is spanned by the nonzero table entries [e_i, e_j], i < j (the
    columns of d2), so its pivots come from echelonising those alone.
    """
    taken = _echelon(L._ints.values())
    return [basis_vector(L.dim, k) for k in range(L.dim) if k not in taken]


def quotient_algebra(L: LieAlgebra, ideal: Subspace,
                     name: str | None = None) -> tuple[LieAlgebra, Callable[[Sequence[Fraction]], tuple[Fraction, ...]]]:
    """Quotient L/I with its projection map.

    The quotient basis is the canonical complement of I (non-pivot
    coordinates of I's RREF), so the resulting table is deterministic.
    """
    if ideal.ambient_dim != L.dim:
        raise DimensionMismatch("ideal ambient dimension does not match algebra")
    # [L, I] is spanned by the [v, e_j] over I's basis rows v and all j.
    if any(ideal.residual(L._bracket(row, {j: 1}))
           for row in ideal.rows for j in range(L.dim)):
        raise NotAnIdeal(f"{L.name}: subspace is not an ideal")
    taken = set(ideal.pivots)
    complement = [k for k in range(L.dim) if k not in taken]
    pos = {k: t for t, k in enumerate(complement)}

    def project(v: Sequence[Fraction]) -> tuple[Fraction, ...]:
        residual = ideal.reduce(v)
        return tuple(residual[k] for k in complement)

    ints, scale = {}, ideal.scale * L._scale
    for a, b in itertools.combinations(complement, 2):
        # A residual mod I lives on the complement's coordinates.
        if image := ideal.residual(dict(L._ints.get((a, b), ()))):
            ints[(pos[a], pos[b])] = tuple(sorted((pos[k], c) for k, c in image.items()))
    g = math.gcd(scale, *(c for entry in ints.values() for _, c in entry))  # to the least D
    ints = {pair: tuple((k, c // g) for k, c in entry) for pair, entry in ints.items()}
    return LieAlgebra._of(len(complement), ints, scale // g, f"{L.name}/I" if name is None else name), project


def direct_sum(*algebras: LieAlgebra, name: str | None = None) -> LieAlgebra:
    """Block-diagonal table on the concatenated bases, in ints over the lcm of the D."""
    scale, shift, ints = math.lcm(*(L._scale for L in algebras)), 0, {}
    for L in algebras:
        ints.update(((i + shift, j + shift), tuple((k + shift, x * (scale // L._scale)) for k, x in e))
                    for (i, j), e in L._ints.items())
        shift += L.dim
    return LieAlgebra._of(shift, ints, scale, "+".join(L.name for L in algebras) if name is None else name)
