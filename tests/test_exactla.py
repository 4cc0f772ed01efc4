import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import contains, contains_subspace, reference_residual, span

from nilmult.exactla import (
    DimensionMismatch,
    Matrix,
    Subspace,
    _sparse,
    basis_vector,
    kernel_basis,
    rref,
    vector,
)

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@st.composite
def matrices(draw, max_dim=5):
    rows = draw(st.integers(min_value=1, max_value=max_dim))
    cols = draw(st.integers(min_value=1, max_value=max_dim))
    entries = draw(st.lists(st.lists(rationals, min_size=cols, max_size=cols),
                            min_size=rows, max_size=rows))
    return Matrix.from_rows(entries, cols=cols)


@st.composite
def oracle_matrices(draw):
    """Shapes from 0x0 to 6x6: dense or mostly-zero p/q entries with mixed
    denominators in one row, some rows negated so that they lead with a
    negative entry, and some rows rational combinations of one or two
    others, which cancel to zero and make the rank fall short."""
    rows = draw(st.integers(min_value=0, max_value=6))
    cols = draw(st.integers(min_value=0, max_value=6))
    values = st.fractions(min_value=-9, max_value=9, max_denominator=7)
    if draw(st.booleans()):
        values = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)),
                           st.just(Fraction(0)), values)
    base = draw(st.integers(min_value=0, max_value=rows))
    entries = draw(st.lists(st.lists(values, min_size=cols, max_size=cols),
                            min_size=base, max_size=base))
    # Entries over 11, 13 and 30 next to those over 1..7.
    wide = st.sampled_from([Fraction(1, 11), Fraction(-5, 13), Fraction(7, 30)])
    entries = [[x * draw(wide) if draw(st.booleans()) else x for x in row]
               for row in entries]
    while len(entries) < rows:
        zero = [Fraction(0)] * cols
        a, b = (entries[draw(st.integers(0, len(entries) - 1))] if entries else zero
                for _ in range(2))
        fa, fb = draw(rationals), draw(rationals)
        entries.append([fa * x + fb * y for x, y in zip(a, b)])
    entries = [[-x for x in row] if draw(st.booleans()) else row for row in entries]
    order = draw(st.permutations(range(rows)))
    return Matrix(rows, cols, tuple(tuple(entries[i]) for i in order))


def _sympy(m):
    return sympy.Matrix(m.rows, m.cols, [sympy.Rational(x.numerator, x.denominator)
                                         for row in m.entries for x in row])


def _integer_rows(m):
    """m with each row times the lcm of its denominators: int entries, some
    rows with a common factor, and the same row space."""
    return Matrix(m.rows, m.cols, tuple(
        tuple((x * math.lcm(*(y.denominator for y in row))).numerator for x in row)
        for row in m.entries))


def _check_rows(space):
    """Each row of the subspace is primitive, in ints, leads at its pivot
    with a positive entry and is zero on the other pivots."""
    assert len(space.rows) == len(space.pivots)
    for p, row in zip(space.pivots, space.rows):
        assert all(type(x) is int and x for x in row.values())
        assert min(row) == p and row[p] > 0
        assert math.gcd(*row.values()) == 1
        assert not any(q in row for q in space.pivots if q != p)


def _check_against_sympy(m, space):
    """rref, rank, the span ``space`` of m's rows and the kernel against sympy."""
    expected, pivots = _sympy(m).rref()
    echelon, r = rref(m)
    assert (echelon.rows, echelon.cols) == (m.rows, m.cols)
    for i in range(m.rows):
        for j in range(m.cols):
            x = expected[i, j]
            assert echelon.entries[i][j] == Fraction(int(x.p), int(x.q)), (i, j)
    assert r == _sympy(m).rank() == len(pivots)
    assert space.pivots == tuple(pivots)
    _check_rows(space)
    assert space.basis.entries == echelon.entries[:r]
    kernel = kernel_basis(m)
    _check_rows(kernel)
    assert kernel.dim == m.cols - r
    for row in kernel.basis.entries:
        assert all(_dot(r, row) == 0 for r in m.entries)


@given(oracle_matrices())
@settings(max_examples=300)
def test_rref_and_rank_match_sympy(m):
    _check_against_sympy(m, span(m.cols, m.entries))


@given(oracle_matrices().map(_integer_rows))
@settings(max_examples=200)
def test_integer_rows_match_sympy(m):
    """Integer rows go to Subspace.from_rows as they are."""
    _check_against_sympy(m, Subspace.from_rows(m.cols, map(_sparse, m.entries)))


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


@given(oracle_matrices(), st.data())
@settings(max_examples=300)
def test_residual_is_scale_times_the_rational_reference(m, data):
    """residual takes an integer row and returns, in ints, the residual
    times ``scale``: the lcm of the leads of the primitive rows, which is
    the lcm of the denominators of the RREF basis.  reduce divides back."""
    space = span(m.cols, m.entries)
    dense = data.draw(st.lists(st.integers(-9, 9), min_size=m.cols, max_size=m.cols))
    if space.dim and data.draw(st.booleans()):  # a member of the space
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=space.dim, max_size=space.dim))
        dense = [sum(a * row.get(c, 0) for a, row in zip(coeffs, space.rows))
                 for c in range(m.cols)]
    row = {c: x for c, x in enumerate(dense) if x}
    given_row = dict(row)
    expected = reference_residual(space, row)
    scale = math.lcm(*(x.denominator for r in space.basis.entries for x in r))
    got = space.residual(row)
    assert row == given_row
    assert space.scale == scale
    assert all(type(x) is int and x for x in got.values())
    assert got == {c: x * scale for c, x in enumerate(expected) if x}
    assert space.reduce(dense) == tuple(expected)


@st.composite
def subspaces(draw, ambient=6):
    count = draw(st.integers(min_value=0, max_value=ambient))
    vecs = draw(st.lists(st.lists(rationals, min_size=ambient, max_size=ambient),
                         min_size=count, max_size=count))
    return span(ambient, vecs)


def test_rref_identity():
    m = Matrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    echelon, r = rref(m)
    assert r == 3
    assert echelon == m


def test_rref_zero():
    m = Matrix.from_rows([[0, 0], [0, 0]])
    echelon, r = rref(m)
    assert r == 0
    assert echelon == m


def test_rref_proportional_rows():
    m = Matrix.from_rows([[1, 2], [2, 4]])
    _, r = rref(m)
    assert r == 1


@given(matrices())
@settings(max_examples=60)
def test_rref_idempotent(m):
    echelon, r = rref(m)
    again, r2 = rref(echelon)
    assert again == echelon
    assert r2 == r


@given(matrices())
@settings(max_examples=60)
def test_rank_transpose(m):
    assert rref(m)[1] == rref(Matrix.from_rows(zip(*m.entries), cols=m.rows))[1]


@given(matrices())
@settings(max_examples=60)
def test_kernel_dimension(m):
    assert kernel_basis(m).dim + rref(m)[1] == m.cols


def test_kernel_of_identity_is_zero():
    assert kernel_basis(Matrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])).dim == 0


def test_kernel_of_zero_is_full():
    k = kernel_basis(Matrix.from_rows([[0, 0, 0], [0, 0, 0]]))
    assert k.dim == 3


def test_kernel_single_equation():
    k = kernel_basis(Matrix.from_rows([[1, 1, 0]]))
    assert k.dim == 2
    assert contains(k, vector([1, -1, 0]))


def test_kernel_vectors_annihilate():
    m = Matrix.from_rows([[1, 2, 3], [0, 1, 1]])
    k = kernel_basis(m)
    for row in k.basis.entries:
        assert all(_dot(r, row) == 0 for r in m.entries)


def test_float_entries_are_refused():
    # Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10.
    with pytest.raises(TypeError):
        span(2, [[1, 0.1]])
    with pytest.raises(TypeError):
        vector([0.5])
    assert span(2, [[1, "0.1"]]).rows == ({0: 10, 1: 1},)


def test_subspace_sum_of_axes():
    x = span(3, [basis_vector(3, 0)])
    y = span(3, [basis_vector(3, 1)])
    assert Subspace.from_rows(3, x.rows + y.rows).dim == 2


@given(subspaces(), subspaces())
@settings(max_examples=60)
def test_grassmann_identity(a, b):
    total = Subspace.from_rows(a.ambient_dim, a.rows + b.rows)
    assert max(a.dim, b.dim) <= total.dim <= a.dim + b.dim
    assert contains_subspace(total, a)
    assert contains_subspace(total, b)
