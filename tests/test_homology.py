import itertools
from math import comb

import pytest
import sympy
from hypothesis import given, settings
from test_invariance import central_extensions, generated_algebras

from nilmult.catalog import DIM_GUARD, build, default_manifest
from nilmult.exactla import _echelon, basis_vector
from nilmult.free_lie import evaluate_in, free_nilpotent, lyndon_bracketing, lyndon_words
from nilmult.homology import d2_matrix, d3_matrix, exterior_basis, multiplier_dim
from nilmult.lie_core import LieAlgebra, direct_sum, series_profile

SMALL_CORPUS = list(default_manifest(max_dim=6))


def _sympy(m):
    return sympy.Matrix(m.rows, m.cols, [sympy.Rational(x) for row in m.entries
                                         for x in row])


def _is_zero(m):
    return not any(x for row in m.entries for x in row)


def _sympy_rank(m):
    if m.rows == 0 or m.cols == 0:
        return 0
    return sympy.Matrix([[sympy.Rational(x) for x in row]
                         for row in m.entries]).rank()


def test_exterior_basis_shape():
    assert exterior_basis(4, 2) == list(itertools.combinations(range(4), 2))
    assert len(exterior_basis(5, 3)) == comb(5, 3)


def test_d2_abelian_is_zero():
    assert _is_zero(d2_matrix(LieAlgebra(4, {})))


def test_d2_h3_rank_one():
    m = d2_matrix(build("heisenberg:1"))
    assert _sympy_rank(m) == 1


def test_d2_filiform4_rank_two():
    m = d2_matrix(build("filiform:4"))
    assert _sympy_rank(m) == 2


def test_d3_abelian_is_zero():
    assert _is_zero(d3_matrix(LieAlgebra(4, {})))


def test_d3_h3_rank_zero():
    # the single triple maps to [e1,e2]^e3 = e3^e3 = 0
    assert _is_zero(d3_matrix(build("heisenberg:1")))


def test_d3_heisenberg2_rank_four():
    m = d3_matrix(build("heisenberg:2"))
    assert _sympy_rank(m) == 4


@pytest.mark.parametrize("spec", SMALL_CORPUS)
def test_chain_complex_property(spec):
    L = build(spec)
    composite = _sympy(d2_matrix(L)) * _sympy(d3_matrix(L))
    assert composite.is_zero_matrix


def _reference_boundaries(L):
    """Dense d2 and d3 assembled triple by triple from the basis brackets."""
    n = L.dim
    e = [basis_vector(n, k) for k in range(n)]
    pairs, triples = exterior_basis(n, 2), exterior_basis(n, 3)
    pair_index = {p: t for t, p in enumerate(pairs)}
    d2 = [[L.bracket(e[i], e[j])[r] for i, j in pairs] for r in range(n)]
    d3 = [[0] * len(triples) for _ in pairs]
    for col, (i, j, k) in enumerate(triples):
        for (a, b), t, sign in (((i, j), k, 1), ((i, k), j, -1), ((j, k), i, 1)):
            for s, x in enumerate(L.bracket(e[a], e[b])):
                if x and s != t:
                    row, value = (pair_index[(s, t)], sign * x) if s < t \
                        else (pair_index[(t, s)], -sign * x)
                    d3[row][col] += value
    return d2, d3


@pytest.mark.parametrize("spec", SMALL_CORPUS + ["freenil:3,3"])
def test_boundaries_match_reference_assembly(spec):
    L = build(spec)
    d2, d3 = _reference_boundaries(L)
    assert [list(row) for row in d2_matrix(L).entries] == d2
    assert [list(row) for row in d3_matrix(L).entries] == d3


@pytest.mark.parametrize("spec", SMALL_CORPUS)
def test_rank_d2_equals_derived_dim(spec):
    L = build(spec)
    assert multiplier_dim(L).rank_d2 == series_profile(L).derived_dim


@pytest.mark.parametrize("spec,expected", [
    ("heisenberg:1", 2),
    ("heisenberg:2", 5),
    ("filiform:4", 2),
    ("dirsum:heisenberg:1+abelian:1", 4),
])
def test_locked_multiplier_values(spec, expected):
    assert multiplier_dim(build(spec)).dim_M == expected


@pytest.mark.parametrize("spec", SMALL_CORPUS)
def test_multiplier_against_independent_ranks(spec):
    # full recomputation of both ranks through sympy
    L = build(spec)
    result = multiplier_dim(L)
    r2 = _sympy_rank(d2_matrix(L))
    r3 = _sympy_rank(d3_matrix(L))
    assert result.rank_d2 == r2
    assert result.rank_d3 == r3
    assert result.dim_M == comb(L.dim, 2) - r2 - r3


@pytest.mark.parametrize("n", range(0, 9))
def test_abelian_anchor(n):
    assert multiplier_dim(LieAlgebra(n, {})).dim_M == n * (n - 1) // 2


def test_nonabelian_strictly_below_abelian_value():
    for spec in default_manifest():
        L = build(spec)
        if not L.is_abelian:
            assert multiplier_dim(L).dim_M < L.dim * (L.dim - 1) // 2, spec


@pytest.mark.parametrize("a,b", [
    ("heisenberg:1", "abelian:2"),
    ("heisenberg:1", "filiform:4"),
    ("filiform:4", "abelian:1"),
    ("heisenberg:1", "heisenberg:1"),
])
def test_direct_sum_multiplier_formula(a, b):
    # dim M(A+B) = dim M(A) + dim M(B) + gen(A)*gen(B), both sides computed
    L1, L2 = build(a), build(b)
    total = multiplier_dim(direct_sum(L1, L2)).dim_M
    g1 = series_profile(L1).gen_count
    g2 = series_profile(L2).gen_count
    assert total == multiplier_dim(L1).dim_M + multiplier_dim(L2).dim_M + g1 * g2


@given(generated_algebras(), generated_algebras())
@settings(max_examples=30, deadline=None)
def test_direct_sum_multiplier_formula_on_generated_pairs(A, B):
    total = multiplier_dim(direct_sum(A, B)).dim_M
    gens = series_profile(A).gen_count * series_profile(B).gen_count
    assert total == multiplier_dim(A).dim_M + multiplier_dim(B).dim_M + gens


def _witt(d, k):
    """Number of Lyndon words of length k over d letters."""
    def moebius(n):
        result, p = 1, 2
        while p * p <= n:
            if n % p == 0:
                n //= p
                if n % p == 0:
                    return 0
                result = -result
            p += 1
        return -result if n > 1 else result
    return sum(moebius(k // e) * d ** e for e in range(1, k + 1) if k % e == 0) // k


FREENIL_WITHIN_GUARD = [
    (d, c) for d in range(2, DIM_GUARD + 1) for c in range(2, DIM_GUARD + 1)
    if sum(_witt(d, k) for k in range(1, c + 1)) <= DIM_GUARD]


@pytest.mark.parametrize("d,c", FREENIL_WITHIN_GUARD)
def test_freenil_multiplier_is_witt_number(d, c):
    # Hopf's formula: M(F/γ_{c+1}F) ≅ γ_{c+1}F/γ_{c+2}F, of dimension W(d, c+1)
    assert multiplier_dim(build(f"freenil:{d},{c}")).dim_M == _witt(d, c + 1)


@pytest.mark.parametrize("k", range(2, 32))
def test_heisenberg_multiplier_closed_form(k):
    assert multiplier_dim(build(f"heisenberg:{k}")).dim_M == 2 * k * k - k - 1


# -- Hopf's formula: an oracle that shares no code with homology ---------------

def _eliminate(rows, width):
    """Gaussian elimination of sparse Fraction rows on their columns below
    width: (rank there, the reduced rows with no entry left below width)."""
    pivots, rest = {}, []
    for row in rows:
        row = dict(row)
        while True:
            lead = min((k for k in row if k < width), default=None)
            if lead is None:
                rest.append(row)
                break
            if lead not in pivots:
                pivots[lead] = {k: x / row[lead] for k, x in row.items()}
                break
            f = row[lead]
            for k, x in pivots[lead].items():
                y = row.get(k, 0) - f * x
                if y:
                    row[k] = y
                else:
                    row.pop(k, None)
    return len(pivots), rest


def _hopf_dim_M(L):
    """dim M(L) = dim R - dim [F, R] for L = F/R, F free nilpotent of class
    c + 1 on d = n - m generators; F^{c+2} = 0 lies in [F, R].

    F maps onto the adapted table by sending each Lyndon basis element
    P_w to its value on the adapted generators; R is the kernel, read off
    the identity columns appended to the images, and [F, R] is spanned by
    the [x_j, r], since R is an ideal and the x_j generate F."""
    prof = series_profile(L)
    A, d, c, n = prof.adapted, prof.gen_count, prof.nilpotency_class, L.dim
    F = free_nilpotent(d, c + 1)
    gens = {j + 1: basis_vector(n, j) for j in range(d)}
    rows = []
    for t, w in enumerate(lyndon_words(d, c + 1)):
        image = evaluate_in(lyndon_bracketing(w), A.bracket, gens)
        rows.append({**{k: x for k, x in enumerate(image) if x}, n + t: 1})
    rank, kernel = _eliminate(rows, n)
    assert rank == n  # the generators generate A
    R = [tuple(row.get(n + t, 0) for t in range(F.dim)) for row in kernel]
    brackets = (F.bracket(basis_vector(F.dim, j), r) for j in range(d) for r in R)
    rank_FR, _ = _eliminate(({k: x for k, x in enumerate(v) if x} for v in brackets), F.dim)
    return len(R) - rank_FR


def _free_dim(spec):
    prof = series_profile(build(spec))
    return sum(_witt(prof.gen_count, k) for k in range(1, prof.nilpotency_class + 2))


# dim F grows fast with d and c (829 for dirsum:abelian:3+filiform:5), so
# the oracle runs where F has dimension at most 60: 40 corpus members.
HOPF_CORPUS = [spec for spec in default_manifest() if _free_dim(spec) <= 60]


@pytest.mark.parametrize("spec", HOPF_CORPUS)
def test_multiplier_matches_hopf_formula(spec):
    L = build(spec)
    assert multiplier_dim(L).dim_M == _hopf_dim_M(L)


def test_hopf_oracle_covers_forty_corpus_members():
    assert len(HOPF_CORPUS) == 40


@given(generated_algebras())
@settings(max_examples=30, deadline=None)
def test_multiplier_matches_hopf_formula_on_generated_algebras(L):
    # Quotients of freenil:2,3, 2,4 and 3,2 in dense unimodular bases: F has
    # dimension at most 14.
    assert multiplier_dim(L).dim_M == _hopf_dim_M(L)


@given(central_extensions())
@settings(max_examples=30, deadline=None)
def test_multiplier_matches_hopf_formula_on_central_extensions(L):
    # classes up to 6 on 2 to 4 generators: F is checked where it stays small
    prof = series_profile(L)
    if sum(_witt(prof.gen_count, k) for k in range(1, prof.nilpotency_class + 2)) > 60:
        return
    assert multiplier_dim(L).dim_M == _hopf_dim_M(L)


# -- The whole Chevalley–Eilenberg complex: an oracle with its own signs --------

def _betti_numbers(L):
    """[b_0, ..., b_n], b_k = dim H_k(L) = C(n,k) − rank d_k − rank d_{k+1}.

    Every boundary d_k(e_{a_1} ∧ … ∧ e_{a_k}) = Σ_{i<j} (−1)^{i+j}
    [e_{a_i}, e_{a_j}] ∧ (the other k − 2 factors) is assembled here from
    the integer table, D times L's, which keeps every rank, with its own
    sign code: homology's d3 columns, which also carry the Jacobi check,
    are not used.  The ranks are pivot counts of ``exactla._echelon``,
    which test_exactla checks against sympy.
    """
    n = L.dim
    ranks = [0] * (n + 2)
    for k in range(2, n + 1):
        row = {w: r for r, w in enumerate(itertools.combinations(range(n), k - 1))}
        columns = []
        for word in itertools.combinations(range(n), k):
            col = {}
            for (i, a), (j, b) in itertools.combinations(enumerate(word), 2):
                rest = word[:i] + word[i + 1:j] + word[j + 1:]
                for m, c in L._ints.get((a, b), ()):
                    if m not in rest:  # moving e_m into place past the smaller factors
                        sign = (-1) ** (i + j + sum(x < m for x in rest))
                        r = row[tuple(sorted(rest + (m,)))]
                        col[r] = col.get(r, 0) + sign * c
            if col := {r: x for r, x in col.items() if x}:
                columns.append(col)
        ranks[k] = len(_echelon(columns))
    return [comb(n, k) - ranks[k] - ranks[k + 1] for k in range(n + 1)]


@pytest.mark.parametrize("spec", default_manifest(max_dim=9))
def test_betti_numbers_of_the_whole_complex(spec):
    L = build(spec)
    b = _betti_numbers(L)
    assert (b[2] if L.dim >= 2 else 0) == multiplier_dim(L).dim_M
    assert b == b[::-1]  # Poincaré duality, L unimodular (Hazewinkel 1970)
    assert all(x >= 2 for x in b[1:-1])  # Dixmier 1955


@pytest.mark.parametrize("m", [1, 2, 3])
def test_heisenberg_betti_numbers(m):
    # Santharoubane (Proc. AMS 87, 1983): b_k = C(2m,k) − C(2m,k−2) for k ≤ m
    b = _betti_numbers(build(f"heisenberg:{m}"))
    assert b[:m + 1] == [comb(2 * m, k) - (comb(2 * m, k - 2) if k >= 2 else 0)
                         for k in range(m + 1)]
