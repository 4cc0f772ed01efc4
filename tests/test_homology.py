import functools
import itertools
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import comb

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    _betti_numbers,
    _change_basis,
    _reference_bracket,
    _seeded_unimodular,
    _witt,
    central_extensions,
    counted_calls,
    d3_weight_blocks,
    generated_algebras,
    h2_by_weight,
    lyndon_bracketing,
    nilpotent_classes,
    unimodular,
)

from nilmult import lie_core
from nilmult.analysis import verify_theorem
from nilmult.catalog import DIM_GUARD, build, default_manifest, serialize
from nilmult.cli import main
from nilmult.exactla import _echelon, basis_vector
from nilmult.free_lie import evaluate_in, free_nilpotent, lyndon_words
from nilmult.homology import d2_matrix, d3_matrix, exterior_basis, multiplier_dim
from nilmult.lie_core import JacobiViolation, LieAlgebra, direct_sum, series_profile

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
    d2 = [[_reference_bracket(L, e[i], e[j])[r] for i, j in pairs] for r in range(n)]
    d3 = [[0] * len(triples) for _ in pairs]
    for col, (i, j, k) in enumerate(triples):
        for (a, b), t, sign in (((i, j), k, 1), ((i, k), j, -1), ((j, k), i, 1)):
            for s, x in enumerate(_reference_bracket(L, e[a], e[b])):
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


@pytest.mark.parametrize("a,b", [spec.removeprefix("dirsum:").split("+")
                                 for spec in default_manifest() if spec.startswith("dirsum:")])
def test_direct_sum_multiplier_formula(a, b):
    # Künneth on all 49 corpus dirsum: specs, 29 of them past HOPF_CORPUS:
    # dim M(A+B) = dim M(A) + dim M(B) + gen(A)*gen(B), both sides computed,
    # and by weight, H₂(A+B) = H₂A ⊕ (H₁A ⊗ H₁B) ⊕ H₂B, the middle term in weight 2
    L1, L2, L = build(a), build(b), build(f"dirsum:{a}+{b}")
    total = multiplier_dim(L).dim_M
    g1 = series_profile(L1).gen_count
    g2 = series_profile(L2).gen_count
    assert total == multiplier_dim(L1).dim_M + multiplier_dim(L2).dim_M + g1 * g2
    expected = Counter(h2_by_weight(L1)) + Counter(h2_by_weight(L2))
    expected[2] += g1 * g2
    assert h2_by_weight(L) == dict(expected)


@given(generated_algebras(), generated_algebras())
@settings(max_examples=30, deadline=None)
def test_direct_sum_multiplier_formula_on_generated_pairs(A, B):
    total = multiplier_dim(direct_sum(A, B)).dim_M
    gens = series_profile(A).gen_count * series_profile(B).gen_count
    assert total == multiplier_dim(A).dim_M + multiplier_dim(B).dim_M + gens


def _freenil_within_guard():
    # dim freenil:d,c = Σ_{k ≤ c} W(d, k) grows with c: stop at the first c past the guard
    pairs = []
    for d in range(2, DIM_GUARD + 1):
        dim = d
        for c in range(2, DIM_GUARD + 1):
            dim += _witt(d, c)
            if dim > DIM_GUARD:
                break
            pairs.append((d, c))
    return pairs


FREENIL_WITHIN_GUARD = _freenil_within_guard()


@pytest.mark.parametrize("d,c", FREENIL_WITHIN_GUARD)
def test_freenil_multiplier_is_witt_number(d, c):
    # Hopf's formula: M(F/γ_{c+1}F) ≅ γ_{c+1}F/γ_{c+2}F, of dimension W(d, c+1)
    assert multiplier_dim(build(f"freenil:{d},{c}")).dim_M == _witt(d, c + 1)


@pytest.mark.parametrize("k", range(2, 32))
def test_heisenberg_multiplier_closed_form(k):
    assert multiplier_dim(build(f"heisenberg:{k}")).dim_M == 2 * k * k - k - 1


# -- H₂ by weight: each family's adapted table is graded by the lower central
# series, d2 and d3 preserve the grading, and so H₂ splits by weight ----------

@pytest.mark.parametrize("d,c", FREENIL_WITHIN_GUARD)
def test_freenil_h2_lies_in_weight_c_plus_one(d, c):
    # Hopf's formula by weight: M(F/γ_{c+1}F) ≅ γ_{c+1}F/γ_{c+2}F
    assert h2_by_weight(build(f"freenil:{d},{c}")) == {c + 1: _witt(d, c + 1)}


@pytest.mark.parametrize("k", range(1, 32))
def test_heisenberg_h2_lies_in_weight_two(k):
    expected = {3: 2} if k == 1 else {2: 2 * k * k - k - 1}
    assert h2_by_weight(build(f"heisenberg:{k}")) == expected


@pytest.mark.parametrize("n", range(3, DIM_GUARD + 1))
def test_filiform_h2_has_one_class_in_each_odd_weight(n):
    # and one more in weight n when n is odd: ⌊(n+1)/2⌋ in all
    expected = dict.fromkeys(range(3, n, 2), 1)
    expected[n] = 1 if n % 2 == 0 else 2
    L = build(f"filiform:{n}")
    assert h2_by_weight(L) == expected
    assert multiplier_dim(L).dim_M == (n + 1) // 2


@pytest.mark.parametrize("spec", ["filiform:30", "heisenberg:15", "freenil:3,4", "freenil:2,7",
                                  "filiform:64"])
def test_sympy_ranks_d3_weight_block_by_weight_block(spec):
    # sympy as an oracle at scale: no block is larger than 522 × 153, and
    # the blocks' exact ranks sum to the rank the kept d3 pivots count
    L = build(spec)
    blocks = d3_weight_blocks(L).values()
    assert sum(DomainMatrix.from_list(block, sympy.ZZ).rank() for block in blocks) == len(L._pivots[1])


def test_the_grading_check_refuses_a_dense_copy():
    # the adapted table of a dense copy of class >= 3 is filtered, not graded
    L = build("filiform:9")
    with pytest.raises(AssertionError, match="adapted"):  # names the bracket
        h2_by_weight(_change_basis(L, _seeded_unimodular(L.dim, random.Random(1))))


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
        image = evaluate_in(lyndon_bracketing(w), functools.partial(_reference_bracket, A), gens)
        rows.append({**{k: x for k, x in enumerate(image) if x}, n + t: 1})
    rank, kernel = _eliminate(rows, n)
    assert rank == n  # the generators generate A
    R = [tuple(row.get(n + t, 0) for t in range(F.dim)) for row in kernel]
    brackets = (_reference_bracket(F, basis_vector(F.dim, j), r) for j in range(d) for r in R)
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


@given(central_extensions(), st.data())
@settings(max_examples=20, deadline=None)
def test_betti_numbers_of_central_extensions(L, data):
    # the corpus checks above, on generated algebras and a dense copy of each
    b = _betti_numbers(L)
    assert b[2] == multiplier_dim(L).dim_M
    assert b == b[::-1]
    assert all(x >= 2 for x in b[1:-1])
    assert _betti_numbers(_change_basis(L, data.draw(unimodular(L.dim)))) == b


# de Graaf, J. Algebra 309 (2007): the nilpotent Lie algebras over ℚ of each
# dimension up to 5; from 6 on there are infinitely many.
CLASS_COUNTS = {1: 1, 2: 1, 3: 2, 4: 3, 5: 9}


def test_every_nilpotent_algebra_through_dimension_five():
    classes = nilpotent_classes(5)
    assert {n: len(found) for n, found in enumerate(classes) if n} == CLASS_COUNTS
    rng = random.Random(1)
    for L in itertools.chain(*classes[1:]):
        b, dim_M = _betti_numbers(L), multiplier_dim(L).dim_M
        assert (b[2] if L.dim >= 2 else 0) == dim_M
        assert b == b[::-1]
        assert multiplier_dim(_change_basis(L, _seeded_unimodular(L.dim, rng))).dim_M == dim_M
        if not L.is_abelian:
            verify_theorem(L)  # raises on any failed check


# -- The d3 columns, the pivots and the profile: built once per algebra, the
# columns not kept ---------------------------------------------------------------

def _fresh_caches():
    # build makes new algebras, but this cache is keyed by structure, so an
    # equal algebra would find the result of an earlier test
    multiplier_dim.cache_clear()


def _column_builds(monkeypatch):
    return counted_calls(monkeypatch, lie_core, "_d3_columns")


@pytest.mark.parametrize("spec", ["filiform:30", "heisenberg:15", "freenil:3,4", "freenil:2,7"])
def test_multiplier_builds_the_columns_once(spec, monkeypatch, capsys):
    # the constructor's Jacobi check builds them, and the rank reads the pivots it kept
    _fresh_caches()
    builds = _column_builds(monkeypatch)
    assert main(["multiplier", spec]) == 0
    assert len(builds) == 1


def test_kernel_of_a_dense_copy_builds_the_columns_once(tmp_path, monkeypatch, capsys):
    # for the adapted table, which certifies the parsed file and which
    # kernel ranks; the input's own columns are never built
    source = build("filiform:7")
    path = tmp_path / "copy.lie"
    path.write_text(serialize(_change_basis(source, _seeded_unimodular(7, random.Random(1)))))
    _fresh_caches()
    builds = _column_builds(monkeypatch)
    assert main(["kernel", f"file:{path}"]) == 0
    assert len(builds) == 1


def test_multiplier_of_a_triangular_file_computes_no_series(tmp_path, monkeypatch, capsys):
    # filiform:30's table is triangular, so the parsed file is its own
    # certificate: the rank reads the pivots its check kept, with no series
    path = tmp_path / "filiform30.lie"
    path.write_text(serialize(build("filiform:30")))
    _fresh_caches()
    builds = _column_builds(monkeypatch)
    lowers = counted_calls(monkeypatch, lie_core, "_lower_series")
    assert main(["multiplier", f"file:{path}"]) == 0
    assert len(builds) == 1 and lowers == []


@pytest.mark.parametrize("argv", [["verify", "corpus"], ["verify", "corpus", "--max-dim", "8"]])
def test_verify_corpus_builds_each_algebras_columns_once(argv, monkeypatch, capsys):
    # 187 algebras, since build makes a new one on every call: the 70
    # specs, the 98 summands of the 49 dirsum: specs and the 19 adapted
    # tables that differ from their source (the manifest reads its members'
    # dimensions in closed form and builds none); --max-dim 8 drops
    # freenil:3,3, 186
    _fresh_caches()
    builds = _column_builds(monkeypatch)
    assert main(argv) == 0
    assert len(builds) == len({id(L) for L in builds}) == (186 if "--max-dim" in argv else 187)


def test_verify_corpus_makes_no_fraction(monkeypatch, capsys):
    # every corpus table is integral, and the witnesses hold integer rows
    # over their scale (169 Fractions when they held dense rational tuples)
    _fresh_caches()
    made = counted_calls(monkeypatch, Fraction, "__new__")
    assert main(["verify", "corpus"]) == 0
    monkeypatch.undo()
    assert made == []


def test_verify_corpus_computes_each_specs_series_once(monkeypatch, capsys):
    _fresh_caches()
    lowers = counted_calls(monkeypatch, lie_core, "_lower_series")
    assert main(["verify", "corpus"]) == 0
    assert len(lowers) == len({id(L) for L in lowers}) == len(default_manifest()) == 70


def test_multiplier_dim_keeps_at_most_one_algebra():
    for spec in ("heisenberg:2", "filiform:5", "freenil:2,3", "abelian:4", "filiform:9"):
        multiplier_dim(build(spec))
    assert multiplier_dim.cache_info().currsize <= 1


def test_the_profile_is_kept_on_the_algebra():
    L = build("freenil:2,4")
    assert series_profile(L) is series_profile(L) is L._profile


def test_bounds_constructs_one_algebra(monkeypatch, capsys):
    # filiform:64's basis is adapted already, so its profile keeps L itself
    _fresh_caches()
    constructed = counted_calls(monkeypatch, LieAlgebra, "__init__")
    assert main(["bounds", "filiform:64"]) == 0
    assert len(constructed) == 1


def test_an_adapted_basis_is_kept():
    L = build("filiform:7")
    assert series_profile(L).adapted is L
    dense = _change_basis(L, _seeded_unimodular(7, random.Random(1)))
    adapted = series_profile(dense).adapted
    assert adapted is not dense and adapted != dense


def test_info_of_an_integer_algebra_makes_no_fraction(monkeypatch, capsys):
    made = counted_calls(monkeypatch, Fraction, "__new__")
    assert main(["info", "heisenberg:5"]) == 0
    monkeypatch.undo()
    assert made == []


@pytest.mark.parametrize("spec", ["freenil:2,4", "freenil:3,2", "heisenberg:5", "heisenberg:6",
                                  "filiform:9", "filiform:10"])
def test_a_dense_copy_makes_fractions_only_for_non_integral_adapted_entries(
        spec, tmp_path, monkeypatch, capsys):
    # an integer input in a dense basis: its rewritten table is built in
    # ints over the lcm of its denominators, so even the non-integral
    # constants make no Fraction (the table view would make one each)
    source = build(spec)
    path = tmp_path / "copy.lie"
    p = _seeded_unimodular(source.dim, random.Random(1))
    path.write_text(serialize(_change_basis(source, p)))
    made = counted_calls(monkeypatch, Fraction, "__new__")
    assert main(["kernel", f"file:{path}", "--format", "json"]) == 0
    monkeypatch.undo()
    assert made == []


@pytest.mark.parametrize("spec", ["filiform:64", "freenil:2,7", "heisenberg:31"])
def test_an_adapted_basis_is_kept_without_a_fraction(spec, monkeypatch):
    # the centrality certificate reads the integer entries of an adapted
    # input; no rewritten entry is built for a table that is kept
    L = build(spec)  # a new algebra, its profile not yet computed
    made = counted_calls(monkeypatch, Fraction, "__new__")
    assert series_profile(L).adapted is L
    monkeypatch.undo()
    assert made == []


def test_a_failed_check_is_not_memoised():
    table = {(0, 1): {2: 1}, (0, 2): {0: 1}}
    raised = []
    for _ in range(2):
        with pytest.raises(JacobiViolation) as info:
            LieAlgebra(3, table)
        raised.append((info.value.triple, info.value.residual, str(info.value)))
    assert raised[0] == raised[1]
    assert raised[0][0] == (0, 1, 2)


@pytest.mark.parametrize("seed", [1, 2])
def test_ranking_leaves_the_columns_as_built(seed):
    # _echelon does not modify its input rows; a dense copy, so the echelon
    # cancels inside the columns it is given
    source = build("freenil:2,4")
    L = _change_basis(source, _seeded_unimodular(source.dim, random.Random(seed)))
    columns = lie_core._d3_columns(L)
    ranked = _echelon(columns.values())
    assert columns == lie_core._d3_columns(L)
    assert tuple(ranked) == L._pivots[1]


def test_an_algebra_keeps_its_pivots_not_its_columns():
    _fresh_caches()
    L = build("filiform:64")
    multiplier_dim(L)
    assert sorted(vars(L)) == ["_ints", "_pivots", "_scale", "dim", "name"]


def test_a_ranked_algebra_holds_under_half_a_megabyte():
    # freenil:2,7 (dimension 41) held 0.69 MB while it kept its d3 columns
    build("freenil:2,2")  # the family's first build loads what it imports
    _fresh_caches()
    tracemalloc.start()
    try:
        L = build("freenil:2,7")
        multiplier_dim(L)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 0.5e6
