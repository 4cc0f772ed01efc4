"""Results that must not depend on the basis an algebra is written in.

Every built-in family is graded, with γ₂ spanned by trailing basis
vectors, so the corpus alone never puts γ₂'s pivots or the minimal
generators in general position.  Here the corpus is rewritten in random
unimodular bases (lower- times upper-unitriangular, entries in {-1, 0, 1})
and in reversed bases, and every invariant is compared with the source's.

The quotient multipliers dim M(L/γ_i) are read off the d2 and d3
echelons of the table adapted to the lower central series
(``SeriesProfile.adapted``), on which every γ_i is a trailing coordinate
span; the reference is ``quotient_algebra`` on the input table.  The Ψ_i witnesses
are computed on the adapted table too; the reference builds them on the
input basis with RREF quotient coordinates.  Generated algebras,
quotients of free nilpotent algebras by random central subspaces in a
random basis, give that path non-graded tables with pivots in general
position.
"""

import itertools
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    _change_basis,
    _seeded_unimodular,
    _sympy_ads,
    central_extensions,
    contains,
    contains_subspace,
    generated_algebras,
    unimodular,
)

from nilmult.analysis import (
    _witness_tuple,
    psi_witnesses,
    rai_bound,
    rai_refined,
    verify_theorem,
)
from nilmult.catalog import build, default_manifest, parse_file, serialize
from nilmult.exactla import Matrix, Subspace, basis_vector, rref
from nilmult.free_lie import evaluate_in, lemma31_term_pairs
from nilmult.homology import _quotient_dims, d2_matrix, d3_matrix, multiplier_dim
from nilmult.lie_core import LieAlgebra, _d3_columns, minimal_generators, product_space, quotient_algebra, series_profile

SMALL_CORPUS = default_manifest(max_dim=8)
NONABELIAN_CORPUS = [spec for spec in default_manifest()
                     if not build(spec).is_abelian]


def _reversal(n):
    return [[int(i + j == n - 1) for j in range(n)] for i in range(n)]


@st.composite
def basis_changes(draw):
    L = build(draw(st.sampled_from(SMALL_CORPUS)))
    return L, _change_basis(L, draw(unimodular(L.dim)))


def _invariants(L):
    prof = series_profile(L)
    result = multiplier_dim(L)
    out = {"n": L.dim, "m": prof.derived_dim, "c": prof.nilpotency_class,
           "rank_d2": result.rank_d2, "rank_d3": result.rank_d3,
           "dim_M": result.dim_M}
    if not L.is_abelian:
        verification = verify_theorem(L)
        out["kernel"] = verification.kernel.rows
        out["rai_refined"] = verification.report.rai_refined
        out["witness_ranks"] = [(w.i, _reference_psi_witnesses(L, w.i)[3], len(w.z))
                                for w in verification.witnesses]
    return out


def _check_lower_series(L):
    """series_profile's lower series against gamma_{i+1} = [gamma_i, L],
    every gamma_i bracketed with the whole algebra."""
    full = Subspace.full(L.dim)
    reference = [full]
    while reference[-1].dim:
        reference.append(product_space(L, reference[-1], full))
    lower = series_profile(L).lower
    assert [(g.rows, g.pivots) for g in lower] == [(g.rows, g.pivots) for g in reference]


@pytest.mark.parametrize("spec", default_manifest())
def test_lower_series_oracle(spec):
    _check_lower_series(build(spec))


def _trailing_ideal_blocks(A, k):
    """Whether the brackets and d3 columns of A that reach e_k, …, e_{n−1}
    vanish on the first k coordinates and the first C(k,2) colex pairs:
    the block structure that makes the quotient by that span a leading
    block of d2 and d3."""
    return (all(t >= k for (a, b), entry in A.table.items() if b >= k for t in entry)
            and all(r >= k * (k - 1) // 2 for triple, col in _d3_columns(A).items()
                    if triple[2] >= k for r in col))


def _check_adapted(L):
    """The adapted table against L itself and against quotient_algebra,
    and every L/γ_i a leading block of its boundaries."""
    prof = series_profile(L)
    n, c = L.dim, prof.nilpotency_class
    adapted, aprof = prof.adapted, series_profile(prof.adapted)
    source, result = multiplier_dim(L), multiplier_dim(adapted)
    assert ((adapted.dim, aprof.derived_dim, aprof.nilpotency_class,
             result.rank_d2, result.rank_d3, result.dim_M)
            == (n, prof.derived_dim, c, source.rank_d2, source.rank_d3,
                source.dim_M))
    for i in range(1, c + 2):
        gamma = aprof.gamma(i)
        trailing = range(n - prof.gamma(i).dim, n)
        assert gamma.pivots == tuple(trailing)
        assert gamma.basis.entries == tuple(basis_vector(n, k) for k in trailing)
    reference = [multiplier_dim(quotient_algebra(L, prof.gamma(i))[0]).dim_M
                 for i in range(2, c + 2)]
    cuts = [n - prof.gamma(i).dim for i in range(2, c + 2)]
    assert _quotient_dims(adapted, cuts) == reference
    for i in range(2, c + 2):
        assert _trailing_ideal_blocks(adapted, n - prof.gamma(i).dim)


def _coords_in_quotient(space, sub, v):
    """Coordinates of v + sub in space/sub against space's RREF rows off
    sub's pivots."""
    assert contains_subspace(space, sub) and contains(space, v)
    residual = sub.reduce(v)
    taken = set(sub.pivots)
    return tuple(residual[p] for p in space.pivots if p not in taken)


def _reference_witness_tuple(L, i, prof, gens):
    for tup in itertools.product(range(1, len(gens) + 1), repeat=i):
        value = gens[tup[0] - 1]
        for t in tup[1:]:
            value = L.bracket(value, gens[t - 1])
        if not contains(prof.gamma(i + 1), value):
            return tup
    raise AssertionError(f"{L.name}: no weight-{i} witness commutator")


def _reference_psi_witnesses(L, i):
    """Ψ_i on L's own basis: minimal_generators(L) as generators and
    RREF quotient coordinates for every class.  Returns y, z, the dense
    rational tensors and their rank, and asserts that β kills each."""
    prof = series_profile(L)
    n, m = L.dim, prof.derived_dim
    gens = minimal_generators(L)
    y = _reference_witness_tuple(L, i, prof, gens)
    z = tuple(g for g in range(1, len(gens) + 1) if g not in set(y))[:n - m - i]
    gi, gi1, gi2 = prof.gamma(i), prof.gamma(i + 1), prof.gamma(i + 2)
    q = gi.dim - gi1.dim
    tensors = []
    for zj in z:
        slots = dict(enumerate(y, start=1))
        slots[i + 1] = zj
        values = {k: gens[g - 1] for k, g in slots.items()}
        tensor = [Fraction(0)] * ((n - m) * q)
        for w_expr, t_sym in lemma31_term_pairs(i):
            w_val = evaluate_in(w_expr, L.bracket, values)
            base = (slots[t_sym] - 1) * q
            for b, wb in enumerate(_coords_in_quotient(gi, gi1, w_val)):
                tensor[base + b] += wb
        tensors.append(tuple(tensor))
    lifts = [w for w, p in zip(gi.basis.entries, gi.pivots) if p not in gi1.pivots]
    beta_cols = [_coords_in_quotient(gi1, gi2, L.bracket(w, u))
                 for u in gens for w in lifts]
    for tensor in tensors:
        assert not any(sum((col[r] * x for col, x in zip(beta_cols, tensor)), Fraction(0))
                       for r in range(gi1.dim - gi2.dim))
    independence = rref(Matrix.from_rows(tensors, cols=(n - m) * q))[1] if tensors else 0
    return y, z, tensors, independence


def _check_witnesses(L):
    """The adapted-table witnesses against the input-basis reference:
    the reference Ψ_i times ``scale`` is the record's integer tensors."""
    prof = series_profile(L)
    n, m, c = L.dim, prof.derived_dim, prof.nilpotency_class
    gens = minimal_generators(L)
    for i in range(2, c + 1):
        assert _witness_tuple(L, i, prof) == _reference_witness_tuple(L, i, prof, gens)
    for i in range(2, min(n - m, c) + 1):
        w = psi_witnesses(L, i)
        y, z, tensors, independence = _reference_psi_witnesses(L, i)
        scaled = tuple(tuple((cell, x * w.scale) for cell, x in enumerate(t) if x)
                       for t in tensors)
        assert all(x.denominator == 1 for t in scaled for _, x in t)
        assert (w.y, w.z, w.tensors, len(w.z)) == (y, z, scaled, independence)


def test_witnesses_of_a_table_with_halves_carry_its_scale():
    # heisenberg:2 with both constants 1/2: Ψ_2 is the integer rows over 2
    L = build("heisenberg:2")
    halves = LieAlgebra(5, {pair: {k: Fraction(1, 2) for k in entry}
                            for pair, entry in L.table.items()}, name="halves")
    w = psi_witnesses(halves, 2)
    assert (w.z, w.scale, w.tensors) == ((2, 4), 2, (((1, 1),), ((3, 1),)))
    _check_witnesses(halves)


@given(basis_changes())
@settings(max_examples=100, deadline=None)
def test_invariants_under_unimodular_basis_change(pair):
    source, copy = pair
    assert _invariants(copy) == _invariants(source)
    _check_lower_series(copy)
    _check_adapted(copy)
    if not copy.is_abelian:
        _check_witnesses(copy)


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("spec", NONABELIAN_CORPUS + ["filiform:12", "freenil:2,5"])
def test_witnesses_match_input_basis_reference(spec, reverse):
    L = build(spec)
    if reverse:
        L = _change_basis(L, _reversal(L.dim))
    _check_witnesses(L)


@pytest.mark.parametrize("spec", NONABELIAN_CORPUS + ["filiform:12", "freenil:2,5"])
def test_adapted_table_oracle(spec):
    _check_adapted(build(spec))


@pytest.mark.parametrize("spec", NONABELIAN_CORPUS + ["filiform:12", "freenil:2,5"])
def test_multiplier_of_a_dense_file_equals_its_sources(spec):
    # A dense parsed file is not triangular, so it is certified, and ranked,
    # on its adapted table.  The dense views below build its own columns,
    # and sympy ranks them on the small copies.
    source = build(spec)
    p = _seeded_unimodular(source.dim, random.Random(1))
    copy = parse_file(serialize(_change_basis(source, p)))
    result = multiplier_dim(copy)
    assert copy._certified is series_profile(copy).adapted
    assert result == multiplier_dim(source)
    if source.dim <= 7:
        ranks = [sympy.Matrix(m.entries).rank() for m in (d2_matrix(copy), d3_matrix(copy))]
        assert ranks == [result.rank_d2, result.rank_d3]


def test_trailing_blocks_need_an_ideal():
    # In the reversed basis of filiform:5 the first basis vector spans γ₄
    # and the last is a generator, so the last coordinate is no ideal and
    # the quotient read would be wrong; in the adapted basis the same cut
    # is L/γ₄.
    L = _change_basis(build("filiform:5"), _reversal(5))
    prof = series_profile(L)
    assert _trailing_ideal_blocks(prof.adapted, 4)
    assert not _trailing_ideal_blocks(L, 4)
    quotient = multiplier_dim(quotient_algebra(L, prof.gamma(4))[0]).dim_M
    assert _quotient_dims(prof.adapted, [4]) == [quotient] != _quotient_dims(L, [4])


@given(generated_algebras())
@settings(max_examples=100, deadline=None)
def test_generated_algebras(L):
    _check_lower_series(L)
    _check_adapted(L)
    if L.is_abelian:
        return
    verification = verify_theorem(L)
    assert verification.report.theorem_holds
    assert verification.kernel.all_satisfied
    _check_witnesses(L)
    _check_rai_refined(L)


@given(central_extensions(), st.data())
@settings(max_examples=40, deadline=None)
def test_central_extensions(L, data):
    # The refined bound is only recorded: it is not claimed for every algebra.
    verify_theorem(L)
    copy = _change_basis(L, data.draw(unimodular(L.dim)))
    assert multiplier_dim(copy) == multiplier_dim(L)
    assert parse_file(serialize(L)) == L


def test_basis_change_leaves_graded_layout():
    # The check above only bites if the copies move γ₂ off the trailing
    # coordinates; this fixed change of filiform:5 does.
    L = build("filiform:5")
    p = [[1 if i == j else 1 if j == i - 1 else 0 for j in range(5)]
         for i in range(5)]
    copy = _change_basis(L, p)
    assert series_profile(copy).gamma(2).pivots != series_profile(L).gamma(2).pivots
    assert _invariants(copy) == _invariants(L)


def _check_rai_refined(L):
    """rai_refined against dim Z/(Z ∩ γ₂), with the centre and γ₂ taken
    by sympy on L's own basis."""
    prof = series_profile(L)
    n, m, c = L.dim, prof.derived_dim, prof.nilpotency_class
    # x is central iff ad(e_j) x = 0 for every j.
    center = sympy.Matrix.vstack(*_sympy_ads(L)).nullspace()
    gamma2 = [sympy.Matrix([sympy.Rational(entry.get(k, 0)) for k in range(n)])
              for entry in L.table.values()]
    # dim(Z ∩ γ₂) = dim Z + dim γ₂ − dim(Z + γ₂)
    meet = (len(center) + sympy.Matrix.hstack(*gamma2).rank()
            - sympy.Matrix.hstack(*center, *gamma2).rank())
    assert rai_refined(L) == rai_bound(n, m, c) - (len(center) - meet) * m


# The reversed and seeded dense copies keep γ₂ off the trailing input
# coordinates, where the adapted basis and the input basis differ.
@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("spec", NONABELIAN_CORPUS)
def test_rai_refined_oracle(spec, reverse):
    L = build(spec)
    if reverse:
        L = _change_basis(L, _reversal(L.dim))
    _check_rai_refined(L)
    p = _seeded_unimodular(L.dim, random.Random(f"{spec}:{reverse}"))
    _check_rai_refined(_change_basis(L, p))
