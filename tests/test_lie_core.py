import functools
import itertools
import random
import weakref
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    _central_vectors,
    _change_basis,
    _reference_bracket,
    _seeded_unimodular,
    _sympy_ads,
    basis,
    contains,
    contains_subspace,
    counted_calls,
    full_space,
    generated_algebras,
    is_zero_vector,
    reference_jacobi_failure,
    reference_residual,
    span,
    table_in_basis,
    unimodular,
)

from nilmult import lie_core
from nilmult.analysis import rai_bound, rai_refined
from nilmult.catalog import build, default_manifest
from nilmult.exactla import DimensionMismatch, Subspace, _dense, _sparse, basis_vector, vector
from nilmult.lie_core import (
    JacobiViolation,
    LieAlgebra,
    NotAnIdeal,
    NotNilpotent,
    _canonical_table,
    _lower_series,
    direct_sum,
    minimal_generators,
    product_space,
    quotient_algebra,
    series_profile,
    upper_series,
)


def h3():
    return LieAlgebra(3, {(0, 1): {2: 1}}, name="heisenberg:1")


def filiform4():
    return LieAlgebra(4, {(0, 1): {2: 1}, (0, 2): {3: 1}}, name="filiform:4")


def sl2():
    # [e,f]=h, [h,e]=2e, [h,f]=-2f
    return LieAlgebra(3, {
        (0, 1): {2: 1},          # [e, f] = h
        (0, 2): {0: -2},         # [e, h] = -2e
        (1, 2): {1: 2},          # [f, h] = 2f
    })


def test_abelian_table_is_valid():
    L = LieAlgebra(4, {})
    assert L.is_abelian
    assert L.dim == 4


def test_heisenberg_is_valid():
    L = h3()
    assert not L.is_abelian
    assert L._bracket({0: 1}, {1: 1}) == {2: 1}


def test_jacobi_violation_detected():
    # [[e1,e2],e3] + [[e2,e3],e1] + [[e3,e1],e2] = 0 + 0 - e3
    with pytest.raises(JacobiViolation) as info:
        LieAlgebra(3, {(0, 1): {2: 1}, (0, 2): {0: 1}})
    assert info.value.triple == (0, 1, 2)
    assert info.value.residual == vector([0, 0, -1])


@pytest.mark.parametrize("dim, table, triple, residual", [
    # the table above shifted onto e_1..e_3; e_0 is central
    (4, {(1, 2): {3: 1}, (1, 3): {1: 1}}, (1, 2, 3), [0, 0, 0, -1]),
    # two copies of it, failing on (0,1,2) and (3,4,5); the later copy is
    # listed first, so the column of (3,4,5) is built before that of (0,1,2)
    (6, {(3, 4): {5: 1}, (3, 5): {3: 1}, (0, 1): {2: 1}, (0, 2): {0: 1}},
     (0, 1, 2), [0, 0, -1, 0, 0, 0]),
], ids=["one-failure", "two-failures"])
def test_jacobi_violation_away_from_first_triple(dim, table, triple, residual):
    with pytest.raises(JacobiViolation) as info:
        LieAlgebra(dim, table)
    assert info.value.triple == triple
    assert info.value.residual == vector(residual)
    assert _reference_jacobi(dim, table) == (triple, vector(residual))


def test_jacobi_residual_keeps_its_denominator():
    # test_jacobi_violation_detected's table with constants 1/2 and 1/3:
    # the check scales them to integers over D = 6, so its integer
    # residual is 36 times the true one.
    with pytest.raises(JacobiViolation) as info:
        LieAlgebra(3, {(0, 1): {2: Fraction(1, 2)}, (0, 2): {0: Fraction(1, 3)}})
    assert info.value.triple == (0, 1, 2)
    assert info.value.residual == vector([0, 0, Fraction(-1, 6)])
    assert str(info.value).endswith("residual (0, 0, -1/6)")


def test_a_pair_list_entry_raises():
    # an entry is a {target: constant} mapping; a list of pairs is not read
    for entry in ([(2, 1)], [(2, 1), (2, -1)], []):
        with pytest.raises(AttributeError):
            LieAlgebra(3, {(0, 1): entry})


def test_a_table_entry_keeps_its_checks():
    with pytest.raises(DimensionMismatch):
        LieAlgebra(3, {(1, 0): {2: 1}})
    with pytest.raises(DimensionMismatch):
        LieAlgebra(3, {(0, 1): {3: 1}})
    with pytest.raises(DimensionMismatch):
        LieAlgebra(3, {(0, 1): {3: 0}})  # checked before zero entries are dropped
    L = LieAlgebra(3, {(0, 1): {2: 0, 1: Fraction(0)}, (0, 2): {}})
    assert L.is_abelian and L == LieAlgebra(3, {})


def test_float_coefficients_are_refused():
    with pytest.raises(TypeError):
        LieAlgebra(3, {(0, 1): {2: 0.5}})
    with pytest.raises(TypeError):
        LieAlgebra(3, {(0, 1): {2: 0.0}})  # refused before zero entries are dropped


def _reference_jacobi(dim, table):
    """The dense triple loop: (triple, residual) of the first failure, or None.

    ``table`` maps (i, j), i < j, to {k: coefficient}.  The unit vectors
    are ``int``, so an integer table is checked without ``Fraction``.
    """
    def bracket(x, y):
        acc = [0] * dim
        for (i, j), entry in table.items():
            w = x[i] * y[j] - x[j] * y[i]
            for k, c in entry.items():
                acc[k] += w * c
        return acc

    e = [[int(k == i) for k in range(dim)] for i in range(dim)]
    for i, j, k in itertools.combinations(range(dim), 3):
        res = [a + b + c for a, b, c in zip(bracket(bracket(e[i], e[j]), e[k]),
                                            bracket(bracket(e[j], e[k]), e[i]),
                                            bracket(bracket(e[k], e[i]), e[j]))]
        if not is_zero_vector(res):
            return (i, j, k), tuple(res)
    return None


coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=5)
JACOBI_SOURCES = ["heisenberg:1", "heisenberg:2", "filiform:5", "filiform:7",
                  "freenil:2,3", "freenil:2,4", "freenil:3,2",
                  "dirsum:heisenberg:1+filiform:4"]


@st.composite
def valid_tables(draw):
    """A family member, a quotient of it by a random central subspace, or
    either with its basis reversed."""
    L = build(draw(st.sampled_from(JACOBI_SOURCES)))
    count = draw(st.integers(min_value=0, max_value=upper_series(L)[1].dim))
    if count:
        L, _ = quotient_algebra(L, span(L.dim, _central_vectors(draw, L, count)))
    if draw(st.booleans()):
        L = _reversed_basis(L)
    return L.dim, L.table


@st.composite
def random_tables(draw):
    dim = draw(st.integers(min_value=3, max_value=5))
    pairs = draw(st.lists(st.sampled_from(list(itertools.combinations(range(dim), 2))),
                          unique=True, max_size=4))
    return dim, {pair: draw(st.dictionaries(st.integers(0, dim - 1), coefficients,
                                            min_size=1, max_size=2))
                 for pair in pairs}


@st.composite
def dense_tables(draw):
    """A JACOBI_SOURCES member in a seeded dense unimodular basis."""
    L = build(draw(st.sampled_from(JACOBI_SOURCES)))
    p = _seeded_unimodular(L.dim, random.Random(draw(st.integers(0, 2**16))))
    return L.dim, _change_basis(L, p).table


SCALES = [Fraction(a, b) for a in (1, -1, 2, 3, 5) for b in (1, 2, 3, 5)]


@st.composite
def rescaled_tables(draw):
    """A valid or dense table in the basis f_a = s_a e_a, so that its
    entries s_a s_b c / s_k carry different denominators."""
    dim, table = draw(st.one_of(valid_tables(), dense_tables()))
    s = draw(st.lists(st.sampled_from(SCALES), min_size=dim, max_size=dim))
    return dim, {(a, b): {k: s[a] * s[b] * c / s[k] for k, c in entry.items()}
                 for (a, b), entry in table.items()}


@st.composite
def perturbed_tables(draw):
    """A valid table, possibly dense or rescaled, with one coefficient
    changed or added."""
    dim, table = draw(st.one_of(valid_tables(), dense_tables(), rescaled_tables()))
    pair = draw(st.sampled_from(list(itertools.combinations(range(dim), 2))))
    k = draw(st.integers(0, dim - 1))
    entry = dict(table.get(pair, {}))
    entry[k] = entry.get(k, Fraction(0)) + draw(coefficients.filter(bool))
    table[pair] = entry
    return dim, table


@st.composite
def sparse_perturbed_tables(draw):
    """A sparse member past n = 16 with one constant changed or added on a
    pair in the upper half of the basis, so that the check passes many
    triples with no d3 column before any failing one."""
    L = build(draw(st.sampled_from(["filiform:18", "heisenberg:8"])))
    table = {pair: dict(entry) for pair, entry in L._ints.items()}  # D = 1
    pair = draw(st.sampled_from(list(itertools.combinations(range(L.dim // 2, L.dim), 2))))
    k = draw(st.integers(0, L.dim - 1))
    entry = table.setdefault(pair, {})
    entry[k] = entry.get(k, 0) + draw(coefficients.filter(bool))
    return L.dim, table


@given(st.one_of(valid_tables(), dense_tables(), rescaled_tables(), random_tables(),
                 perturbed_tables(), sparse_perturbed_tables()))
@settings(max_examples=300, deadline=None)
def test_jacobi_check_matches_dense_reference(case):
    # whichever table the constructor certifies, the input's own or its
    # adapted one, it raises what the input-basis check raises: the same
    # triple, residual and message
    dim, table = case
    expected = _reference_jacobi(dim, table)
    assert expected == reference_jacobi_failure(dim, table)
    if expected is None:
        assert LieAlgebra(dim, table).table == {p: e for p, e in _nonzero(table).items() if e}
        return
    with pytest.raises(JacobiViolation) as info:
        LieAlgebra(dim, table)
    triple, residual = expected
    assert (info.value.triple, info.value.residual, str(info.value)) == (
        triple, residual, str(JacobiViolation(*triple, residual)))


def _nonzero(table):
    return {pair: {k: c for k, c in entry.items() if c} for pair, entry in table.items()}


def _triangular(table):
    return all(k > j for (_, j), entry in _nonzero(table).items() for k in entry)


@st.composite
def not_nilpotent_tables(draw):
    """sl2, sl2 ⊕ h3 or sl2 ⊕ r2, in a random unimodular basis."""
    L = direct_sum(sl2(), *draw(st.sampled_from([(), (h3(),), (r2(),)])))
    return L.dim, table_in_basis(L.dim, L.table, draw(unimodular(L.dim)))


@given(st.one_of(valid_tables(), dense_tables(), rescaled_tables(), not_nilpotent_tables()))
@settings(max_examples=200, deadline=None)
def test_an_algebra_is_certified_on_its_own_table_by_the_rule(case):
    # its own columns exactly when the table is triangular, its adapted
    # table is L or its series stalls; else the adapted table's
    dim, table = case
    L = LieAlgebra(dim, table)
    profile = L._profile
    own = _triangular(table) or isinstance(profile, NotNilpotent) or profile.adapted is L
    assert (L._certified is L) == own
    assert own or L._certified is profile.adapted


@pytest.mark.parametrize("dense", [False, True])
def test_a_certified_algebra_is_no_reference_cycle(dense):
    # _certified is derived, not stored on L, so dropping the last reference
    # frees L at once, without the cycle collector
    L = build("freenil:2,4")
    if dense:
        L = _change_basis(L, _seeded_unimodular(L.dim, random.Random(1)))
    assert (L._certified is L) != dense
    ref = weakref.ref(L)
    del L
    assert ref() is None


@pytest.mark.parametrize("spec", ["dirsum:heisenberg:1+filiform:4", "freenil:2,3"])
def test_a_triangular_table_is_its_own_certificate(spec, monkeypatch):
    # h3 ⊕ filiform:4 is triangular but its basis is not adapted: its own
    # columns are checked, and no series is computed to do so
    series = counted_calls(monkeypatch, lie_core, "_lower_series")
    L = build(spec)
    assert series == [] and L._certified is L
    monkeypatch.undo()
    assert (series_profile(L).adapted is L) == (spec == "freenil:2,3")


def test_bracket_table_entry():
    assert h3()._bracket({0: 1}, {1: 1}) == {2: 1}


def test_bracket_absent_entry():
    assert h3()._bracket({0: 1}, {2: 1}) == {}


def test_bracket_alternating_on_random_vectors():
    rng = random.Random(7)
    L = filiform4()
    for _ in range(20):
        x = {k: rng.randint(-3, 3) for k in range(4)}
        y = {k: rng.randint(-3, 3) for k in range(4)}
        assert L._bracket(x, x) == {}
        assert L._bracket(y, x) == {k: -c for k, c in L._bracket(x, y).items()}


def vectors(n):
    """Sparse, dense (integer or p/q entries) and basis vectors of length n."""
    sparse = st.dictionaries(st.integers(0, n - 1), coefficients.filter(bool),
                             max_size=3).map(lambda d: [d.get(k, Fraction(0)) for k in range(n)])
    dense = st.lists(st.one_of(st.integers(-3, 3).map(Fraction), coefficients),
                     min_size=n, max_size=n)
    basis = st.integers(0, n - 1).map(lambda k: basis_vector(n, k))
    return st.one_of(sparse, dense, basis).map(tuple)


@functools.lru_cache(maxsize=None)
def _corpus_algebra(spec, reverse):
    return _reversed_basis(build(spec)) if reverse else build(spec)


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("spec", default_manifest())
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_bracket_matches_table_walk(spec, reverse, data):
    # _bracket returns D·[x, y] on the sparse support of dense vectors
    L = _corpus_algebra(spec, reverse)

    def bracket(x, y):
        return _dense(L._bracket(_sparse(x), _sparse(y)), L.dim, L._scale)

    x = data.draw(vectors(L.dim), label="x")
    y = data.draw(vectors(L.dim), label="y")
    assert bracket(x, y) == _reference_bracket(L, x, y)
    i = data.draw(st.integers(0, L.dim - 1), label="i")
    j = data.draw(st.integers(0, L.dim - 1), label="j")
    e = functools.partial(basis_vector, L.dim)
    assert bracket(x, e(j)) == _reference_bracket(L, x, e(j))
    for a, b in ((i, j), (j, i), (i, i)):
        assert bracket(e(a), e(b)) == _reference_bracket(L, e(a), e(b))


def test_product_space_of_h3():
    L = h3()
    full = full_space(3)
    assert product_space(L, full, full) == span(3, [[0, 0, 1]])


def test_product_space_with_zero():
    L = h3()
    assert product_space(L, Subspace.zero(3), full_space(3)).dim == 0


def test_product_space_abelian():
    L = LieAlgebra(3, {})
    full = full_space(3)
    assert product_space(L, full, full).dim == 0


def test_series_profile_abelian():
    prof = series_profile(LieAlgebra(4, {}))
    assert prof.nilpotency_class == 1
    assert prof.derived_dim == 0
    assert prof.gen_count == 4


def test_series_profile_h3():
    prof = series_profile(h3())
    assert prof.nilpotency_class == 2
    assert prof.derived_dim == 1
    assert prof.gamma(2) == span(3, [[0, 0, 1]])
    assert prof.gamma(3).dim == 0


def test_series_profile_filiform4():
    prof = series_profile(filiform4())
    assert prof.nilpotency_class == 3
    assert prof.derived_dim == 2
    assert prof.gamma(3) == span(4, [[0, 0, 0, 1]])


def test_upper_series_matches_lower_length():
    for L in (h3(), filiform4(), LieAlgebra(5, {})):
        upper = upper_series(L)
        assert len(upper) == len(series_profile(L).lower)
        assert upper[-1].dim == L.dim
        assert upper[0].dim == 0


def test_center_of_h3():
    assert upper_series(h3())[1] == span(3, [[0, 0, 1]])


def test_gamma_products_nest():
    # [gamma_i, gamma_j] lies inside gamma_{i+j}
    for L in (filiform4(), h3()):
        prof = series_profile(L)
        c = prof.nilpotency_class
        for i in range(1, c + 1):
            for j in range(1, c + 2 - i):
                prod = product_space(L, prof.gamma(i), prof.gamma(j))
                assert contains_subspace(prof.gamma(i + j), prod)


def test_not_nilpotent_detected():
    with pytest.raises(NotNilpotent):
        series_profile(sl2())
    # sl2 has zero centre, so its upper series stops at once
    with pytest.raises(NotNilpotent, match="upper central series stabilises below L"):
        upper_series(sl2())


def r2():
    return LieAlgebra(2, {(0, 1): {1: 1}})


# the summands are built in the test: r2, like sl2, is not triangular, so
# its construction computes a series, and a failure there names the test
@pytest.mark.parametrize("summands, stalls_at", [((), 3), ((h3,), 3), ((r2,), 4)])
def test_a_stalled_series_raises_within_n_steps(monkeypatch, summands, stalls_at):
    # sl2, sl2 ⊕ h3 and sl2 ⊕ r2: each echelon is one term of the series,
    # and a term that does not shrink raises at once, so n terms at most
    L = direct_sum(sl2(), *(summand() for summand in summands))
    terms, echelon = [], lie_core._echelon

    def bounded(rows):
        terms.append(rows)
        assert len(terms) <= L.dim, "the series ran past n terms"
        return echelon(rows)
    monkeypatch.setattr(lie_core, "_echelon", bounded)
    with pytest.raises(NotNilpotent, match=f"stabilises at dimension {stalls_at}$"):
        _lower_series(L)


# _bracket calls of the series on large sparse inputs: a row meets only the
# basis vectors it shares a table entry with
@pytest.mark.parametrize("spec, brackets", [
    ("filiform:64", 1891), ("freenil:2,7", 248), ("freenil:3,4", 63), ("heisenberg:31", 0)])
def test_the_lower_series_brackets_rows_with_their_partners_alone(monkeypatch, spec, brackets):
    L = build(spec)
    calls = counted_calls(monkeypatch, LieAlgebra, "_bracket")
    _lower_series(L)
    assert len(calls) == brackets


@st.composite
def nilpotent_tables(draw):
    """A random triangular table, Lie or not, so its series ends at 0, in a
    random unimodular basis."""
    dim = draw(st.integers(3, 6))
    table = {(i, j): draw(st.dictionaries(st.integers(j + 1, dim - 1), st.integers(-2, 2), max_size=2))
             for i, j in itertools.combinations(range(dim - 1), 2)}
    return dim, table_in_basis(dim, table, draw(unimodular(dim)))


@given(st.one_of(valid_tables(), dense_tables(), rescaled_tables(), random_tables(),
                 perturbed_tables(), nilpotent_tables()))
@settings(max_examples=300, deadline=None)
def test_a_series_that_ends_at_zero_yields_a_basis(case):
    # what _adapted's sweep needs, for any bilinear table: each term lies in
    # the one before, so where the series ends at 0 the rows of each term
    # off the next one's pivots are n rows with n distinct pivots
    dim, table = case
    L = object.__new__(LieAlgebra)  # uncertified, for the series alone
    L.dim, L.name = dim, "raw"
    L._ints, L._scale = _canonical_table(dim, table)
    try:
        lower = _lower_series(L)
    except NotNilpotent:
        return
    rows = [row for outer, inner in zip(lower, lower[1:]) for row in outer.quotient_basis_rows(inner)]
    assert len(rows) == dim
    assert sorted(min(row) for row in rows) == list(range(dim))


def _sympy_rows(rows):
    return sympy.Matrix([[sympy.Rational(x) for x in row] for row in rows])


def _reversed_basis(L):
    """The same algebra with e_k relabelled e_{n-1-k}."""
    n = L.dim
    table = {(n - 1 - j, n - 1 - i): {n - 1 - k: -c for k, c in entry.items()}
             for (i, j), entry in L.table.items()}
    return LieAlgebra(n, table, name=L.name)


# Every family puts a central element last; the reversed copies put one
# first, so neither end of the basis is exempt from the oracle.  Each
# input is also checked in a seeded dense basis.
@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("spec", list(default_manifest()) + ["filiform:12", "freenil:2,5"])
def test_upper_series_oracle(spec, reverse):
    L = _reversed_basis(build(spec)) if reverse else build(spec)
    _check_upper_series(L)
    p = _seeded_unimodular(L.dim, random.Random(f"{spec}:{reverse}"))
    _check_upper_series(_change_basis(L, p))


def _check_upper_series(L):
    n = L.dim
    prof = series_profile(L)
    c = prof.nilpotency_class
    upper = upper_series(L)
    assert len(upper) == c + 1
    ads = _sympy_ads(L)
    for k in range(c):
        zk, znext = upper[k], upper[k + 1]
        for x in basis(znext):
            for j in range(n):
                assert contains(zk, _reference_bracket(L, x, basis_vector(n, j))), (L.name, k, j)
        # x is in Z_{k+1} iff every functional vanishing on Z_k kills each [x, e_j]
        if zk.dim == 0:
            ann = sympy.eye(n)
        else:
            ann = sympy.Matrix.hstack(*_sympy_rows(basis(zk)).nullspace()).T
        stacked = sympy.Matrix.vstack(*(ann * ad for ad in ads))
        assert znext.dim == n - stacked.rank(), (L.name, k)
    for k in range(c + 1):
        assert contains_subspace(upper[k], prof.gamma(c + 1 - k)), (L.name, k)
    # info reads the dimensions off the adapted table
    assert [Z.dim for Z in upper_series(prof.adapted)] == [Z.dim for Z in upper], L.name


def _reference_upper_series(L):
    """Z_{k+1} = {x : [x, e_j] in Z_k for every j}: coordinate r of the
    Fraction reference residual of each dense [e_l, e_j] is one equation in
    the x_l, and sympy solves them."""
    n, series = L.dim, [Subspace.zero(L.dim)]
    while series[-1].dim < n:
        Z, equations = series[-1], []
        for j in range(n):
            images = [reference_residual(Z, dict(enumerate(_reference_bracket(
                          L, basis_vector(n, l), basis_vector(n, j)))))
                      for l in range(n)]
            equations += [[image[r] for image in images] for r in range(n)]
        solutions = _sympy_rows(equations).nullspace()
        series.append(span(n, [[Fraction(int(x.p), int(x.q)) for x in v] for v in solutions]))
        assert series[-1].dim > Z.dim, L.name
    return tuple(series)


@given(generated_algebras())
@settings(max_examples=40, deadline=None)
def test_upper_series_and_rai_refined_match_the_rational_reference(L):
    # both read integer residuals of the integer table, so once the
    # profile is known neither makes a Fraction, whatever the input
    prof = series_profile(L)
    with pytest.MonkeyPatch.context() as patch:
        made = counted_calls(patch, Fraction, "__new__")
        upper = upper_series(L)
        refined = rai_refined(L) if prof.derived_dim else None
    assert made == []
    reference = _reference_upper_series(L)
    assert upper == reference
    if refined is not None:
        n, m, c = L.dim, prof.derived_dim, prof.nilpotency_class
        # dim Z/(γ₂ ∩ Z) = dim(Z + γ₂) − dim γ₂
        central_gens = Subspace.from_rows(n, reference[1].rows + prof.gamma(2).rows).dim - m
        assert refined == rai_bound(n, m, c) - central_gens * m


def test_quotient_by_derived_subalgebra():
    L = h3()
    gamma2 = series_profile(L).gamma(2)
    Q, project = quotient_algebra(L, gamma2)
    assert Q.dim == 2
    assert Q.is_abelian
    assert project(vector([1, 2, 5])) == vector([1, 2])


def test_quotient_by_zero_is_same_table():
    L = filiform4()
    Q, project = quotient_algebra(L, Subspace.zero(4))
    assert Q == L
    assert project(vector([1, 2, 3, 4])) == vector([1, 2, 3, 4])


def test_quotient_filiform_by_gamma3():
    L = filiform4()
    Q, _ = quotient_algebra(L, series_profile(L).gamma(3))
    prof = series_profile(Q)
    assert (Q.dim, prof.derived_dim, prof.nilpotency_class) == (3, 1, 2)


def test_quotient_requires_ideal():
    L = h3()
    with pytest.raises(NotAnIdeal):
        quotient_algebra(L, span(3, [[1, 0, 0]]))


@st.composite
def candidate_ideals(draw):
    """(L, I): I central (always an ideal), a series term plus random
    vectors, or a random span (mostly not an ideal)."""
    L = _corpus_algebra(draw(st.sampled_from(JACOBI_SOURCES)), draw(st.booleans()))
    prof = series_profile(L)
    kind = draw(st.sampled_from(["central", "series", "random"]))
    ints = st.lists(st.integers(-2, 2), min_size=L.dim, max_size=L.dim)
    if kind == "central":
        vecs = _central_vectors(draw, L, draw(st.integers(0, 3)))
    elif kind == "series":
        term = draw(st.sampled_from(prof.lower + upper_series(L)))
        vecs = list(basis(term)) + draw(st.lists(ints, max_size=2))
    else:
        vecs = draw(st.lists(ints, min_size=1, max_size=L.dim))
    return L, kind, span(L.dim, vecs)


@given(candidate_ideals())
@settings(max_examples=300, deadline=None)
def test_quotient_ideal_check_matches_product_space(case):
    L, kind, ideal = case
    is_ideal = contains_subspace(ideal, product_space(L, full_space(L.dim), ideal))
    assert is_ideal or kind != "central"
    if is_ideal:
        Q, _ = quotient_algebra(L, ideal)
        assert Q.dim == L.dim - ideal.dim
    else:
        with pytest.raises(NotAnIdeal):
            quotient_algebra(L, ideal)


@given(candidate_ideals())
@settings(max_examples=100, deadline=None)
def test_a_quotient_is_the_projected_table(case):
    # [e_a, e_b] mod I on the complement, over the least common denominator
    L, _, ideal = case
    if not contains_subspace(ideal, product_space(L, full_space(L.dim), ideal)):
        return
    Q, project = quotient_algebra(L, ideal)
    complement = [k for k in range(L.dim) if k not in ideal.pivots]
    e = functools.partial(basis_vector, L.dim)
    reference = {(s, t): dict(enumerate(project(_reference_bracket(L, e(a), e(b)))))
                 for (s, a), (t, b) in itertools.combinations(enumerate(complement), 2)}
    assert Q == LieAlgebra(len(complement), reference)


@pytest.mark.parametrize("spec, vectors, table", [
    ("filiform:7", None, None), ("freenil:2,4", None, None),
    # [e_0, e_1] = e_2 ≡ −e_3/2 modulo ⟨2e_2 + e_3⟩: a constant over D = 2
    ("dirsum:heisenberg:1+abelian:1", [[0, 0, 2, 1]], {(0, 1): {2: Fraction(-1, 2)}}),
])
def test_an_integer_quotient_makes_no_fraction(spec, vectors, table, monkeypatch):
    L = build(spec)
    ideals = [span(L.dim, vectors)] if vectors else series_profile(L).lower[1:] + upper_series(L)[:-1]
    made = counted_calls(monkeypatch, Fraction, "__new__")
    quotients = [quotient_algebra(L, ideal)[0] for ideal in ideals]
    assert made == []
    monkeypatch.undo()
    assert [Q.dim for Q in quotients] == [L.dim - ideal.dim for ideal in ideals]
    assert table is None or quotients[0].table == table


def test_quotient_class_drops_by_one():
    L = filiform4()
    prof = series_profile(L)
    for i in range(2, prof.nilpotency_class + 1):
        Q, _ = quotient_algebra(L, prof.gamma(i))
        qprof = series_profile(Q)
        assert qprof.nilpotency_class == i - 1
        assert qprof.gen_count == prof.gen_count


def test_minimal_generators_abelian():
    gens = minimal_generators(LieAlgebra(3, {}))
    assert gens == [basis_vector(3, k) for k in range(3)]


def test_minimal_generators_h3():
    assert minimal_generators(h3()) == [basis_vector(3, 0), basis_vector(3, 1)]


def test_minimal_generators_filiform():
    assert minimal_generators(filiform4()) == [basis_vector(4, 0), basis_vector(4, 1)]


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("spec", default_manifest())
def test_minimal_generators_match_product_space(spec, reverse):
    L = _reversed_basis(build(spec)) if reverse else build(spec)
    full = full_space(L.dim)
    taken = set(product_space(L, full, full).pivots)
    assert minimal_generators(L) == [basis_vector(L.dim, k)
                                     for k in range(L.dim) if k not in taken]


def test_minimal_generators_perfect_algebra():
    # defined beyond nilpotent algebras: sl2 = [sl2, sl2] needs no lifts
    assert minimal_generators(sl2()) == []


def test_minimal_generators_regenerate():
    # brackets of the generators must span gamma_2 layer by layer
    for L in (h3(), filiform4()):
        prof = series_profile(L)
        gens = minimal_generators(L)
        assert len(gens) == prof.gen_count
        current = list(gens)
        spanning = list(gens)
        for _ in range(prof.nilpotency_class):
            current = [_reference_bracket(L, x, g) for x in current for g in gens]
            spanning += current
        assert span(L.dim, spanning).dim == L.dim


def test_direct_sum_h3_abelian():
    S = direct_sum(h3(), LieAlgebra(1, {}))
    prof = series_profile(S)
    assert (S.dim, prof.derived_dim, prof.nilpotency_class) == (4, 1, 2)


def test_direct_sum_abelian_abelian():
    S = direct_sum(LieAlgebra(2, {}), LieAlgebra(3, {}))
    assert S.is_abelian
    assert S.dim == 5


def test_direct_sum_h3_h3():
    S = direct_sum(h3(), h3())
    prof = series_profile(S)
    assert (S.dim, prof.derived_dim, prof.nilpotency_class) == (6, 2, 2)


def test_direct_sum_blocks_commute():
    S = direct_sum(h3(), filiform4())
    left = basis_vector(7, 0)
    right = basis_vector(7, 3)
    assert is_zero_vector(_reference_bracket(S, left, right))


def test_structural_equality_ignores_name():
    a = LieAlgebra(3, {(0, 1): {2: 1}}, name="one")
    b = LieAlgebra(3, {(0, 1): {2: 1}}, name="two")
    assert a == b
    assert hash(a) == hash(b)
    assert a != LieAlgebra(3, {(0, 1): {2: 2}})
    # The same numerators over another D are another algebra.
    assert LieAlgebra(3, {(0, 1): {2: Fraction(1, 2)}}) != a
    halves = [LieAlgebra(3, {(0, 1): entry}) for entry in ({2: "2/4"}, {2: Fraction(1, 2)})]
    assert len(set(halves)) == 1 and len({hash(h) for h in halves}) == 1
    pairs = [((0, 1), {3: 1}), ((1, 2), {3: Fraction(1, 3)})]
    forward, backward = (LieAlgebra(4, dict(order)) for order in (pairs, pairs[::-1]))
    assert forward == backward and hash(forward) == hash(backward)
    # table rebuilds the input Fractions (D = 6 here) as a fresh dict
    entries = {(0, 1): {3: Fraction(2, 3)}, (1, 2): {3: Fraction(-1, 6)}}
    L = LieAlgebra(4, entries)
    view = L.table
    assert view == entries and view is not L.table
    assert all(type(c) is Fraction for entry in view.values() for c in entry.values())
    view[(0, 1)][3] = Fraction(5)
    view[(0, 2)] = {3: Fraction(1)}
    assert L.table == entries and L == LieAlgebra(4, entries)


def test_all_jacobi_triples_vanish():
    # construction already validates; recheck explicitly on one algebra
    bracket = functools.partial(_reference_bracket, filiform4())
    e = [basis_vector(4, k) for k in range(4)]
    for i, j, k in itertools.combinations(range(4), 3):
        total = [a + b + c for a, b, c in zip(
            bracket(bracket(e[i], e[j]), e[k]),
            bracket(bracket(e[j], e[k]), e[i]),
            bracket(bracket(e[k], e[i]), e[j]))]
        assert is_zero_vector(total)
