import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    _initial_words,
    _witt,
    expand_to_lyndon,
    is_zero_vector,
    left_normed,
    lyndon_bracketing,
    right_normed,
    tensor_expansion,
)

from nilmult import free_lie
from nilmult.catalog import SpecError, freenil
from nilmult.free_lie import (
    BracketExpr,
    FreeLieElement,
    NotALieElement,
    _lyndon_tensor,
    _lyndonize,
    _symbols,
    _tensor_add_into,
    br,
    evaluate_in,
    free_nilpotent,
    gen,
    is_lyndon,
    lemma31_expression,
    lemma31_term_pairs,
    lyndon_words,
    std_factorization,
    verify_lemma31,
)
from nilmult.lie_core import LieAlgebra, series_profile


def test_left_normed_shapes():
    assert left_normed([1]) == gen(1)
    assert left_normed([1, 2, 3]) == br(br(gen(1), gen(2)), gen(3))
    assert left_normed([1, 2, 3, 4]) == br(br(br(gen(1), gen(2)), gen(3)), gen(4))


def test_right_normed_shapes():
    assert right_normed([1]) == gen(1)
    assert right_normed([1, 2, 3]) == br(gen(1), br(gen(2), gen(3)))
    assert right_normed([2, 3, 4, 5]) == br(gen(2), br(gen(3), br(gen(4), gen(5))))


def test_normed_empty_rejected():
    with pytest.raises(ValueError):
        left_normed([])
    with pytest.raises(ValueError):
        right_normed([])


def test_expand_alternating():
    assert expand_to_lyndon(br(gen(1), gen(1))).is_zero


def test_expand_antisymmetry_on_pair():
    e = expand_to_lyndon(br(gen(2), gen(1)))
    assert dict(e.terms) == {(1, 2): Fraction(-1)}


def test_expand_jacobi_cyclic_sum():
    x, y, z = gen(1), gen(2), gen(3)
    total = [(Fraction(1), br(br(x, y), z)),
             (Fraction(1), br(br(y, z), x)),
             (Fraction(1), br(br(z, x), y))]
    assert expand_to_lyndon(total).is_zero


def _random_tree(rng, degree, alphabet=3):
    if degree == 1:
        return gen(rng.randint(1, alphabet))
    split = rng.randint(1, degree - 1)
    return br(_random_tree(rng, split, alphabet),
              _random_tree(rng, degree - split, alphabet))


def test_expand_antisymmetry_random_trees():
    rng = random.Random(11)
    for _ in range(30):
        e = _random_tree(rng, rng.randint(1, 3))
        f = _random_tree(rng, rng.randint(1, 3))
        left = dict(expand_to_lyndon(br(e, f)).terms)
        right = dict(expand_to_lyndon(br(f, e)).terms)
        assert left == {w: -c for w, c in right.items()}


def test_expand_jacobi_random_trees():
    rng = random.Random(13)
    for _ in range(25):
        e = _random_tree(rng, rng.randint(1, 2))
        f = _random_tree(rng, rng.randint(1, 2))
        g = _random_tree(rng, rng.randint(1, 2))
        total = [(Fraction(1), br(br(e, f), g)),
                 (Fraction(1), br(br(f, g), e)),
                 (Fraction(1), br(br(g, e), f))]
        assert expand_to_lyndon(total).is_zero


def test_expansion_is_linear_in_brackets():
    # [e, f] expands to ef - fe for single letters
    t = tensor_expansion(br(gen(1), gen(2)))
    assert t == {(1, 2): Fraction(1), (2, 1): Fraction(-1)}


def _brute_lyndon(word):
    rotations = [word[k:] + word[:k] for k in range(1, len(word))]
    return all(word < r for r in rotations)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_lyndon_counts_match_witt(d):
    words = lyndon_words(d, 6)
    for k in range(1, 7):
        of_degree = [w for w in words if len(w) == k]
        brute = [w for w in itertools.product(range(1, d + 1), repeat=k)
                 if _brute_lyndon(w)]
        assert sorted(of_degree) == sorted(brute)
        assert len(of_degree) == _witt(d, k)


def test_lyndon_word_example_2_3():
    assert lyndon_words(2, 3) == [(1,), (2,), (1, 2), (1, 1, 2), (1, 2, 2)]


def test_is_lyndon_basic():
    assert is_lyndon((1, 1, 2))
    assert not is_lyndon((2, 1))
    assert not is_lyndon((1, 2, 1, 2))


def test_std_factorization():
    assert std_factorization((1, 2)) == ((1,), (2,))
    assert std_factorization((1, 1, 2)) == ((1,), (1, 2))
    assert std_factorization((1, 2, 2)) == ((1, 2), (2,))
    assert std_factorization((1, 1, 2, 1, 2)) == ((1, 1, 2), (1, 2))


def test_lyndon_bracketing_triangular():
    # P_w = w + lexicographically larger words of the same degree
    for w in lyndon_words(3, 5):
        t = tensor_expansion(lyndon_bracketing(w))
        assert t[w] == 1
        assert all(u >= w for u in t)


def test_lyndon_tensor_is_the_expansion_of_the_standard_bracketing():
    # free_nilpotent brackets the cached expansions of P_w; the reference
    # expands the whole bracket tree of each word
    words = lyndon_words(3, 6)
    assert len(words) == sum(_witt(3, k) for k in range(1, 7))
    for w in words:
        assert _lyndon_tensor(w) == tensor_expansion(lyndon_bracketing(w)), w


def test_lyndonize_rejects_non_lie_input():
    with pytest.raises(NotALieElement):
        _lyndonize({(1, 1): Fraction(1)})


def test_expand_round_trips_lyndon_basis():
    for w in lyndon_words(2, 5):
        e = expand_to_lyndon(lyndon_bracketing(w))
        assert dict(e.terms) == {w: Fraction(1)}


def test_element_rendering():
    zero = FreeLieElement(())
    assert str(zero) == "0"
    e = expand_to_lyndon([(Fraction(2), br(gen(1), gen(2)))])
    assert str(e) == "2*[x1x2]"


def test_term_pairs_arity_two_is_jacobi():
    pairs = lemma31_term_pairs(2)
    rendered = [(str(w), t) for w, t in pairs]
    assert rendered == [("[x1, x2]", 3), ("[x3, x1]", 2), ("[x2, x3]", 1)]


@pytest.mark.parametrize("i", range(2, 19))
def test_term_pairs_match_the_formula_tree_by_tree(i):
    # the docstring's formula, every tree built on its own
    expected = [(left_normed(range(1, i + 1)), i + 1)]
    expected += [(br(right_normed(range(i - k + 3, i + 2)), left_normed(range(1, i - k + 2))),
                  i - k + 2) for k in range(2, i + 1)]
    expected.append((right_normed(range(2, i + 2)), 1))
    pairs = lemma31_term_pairs(i)
    assert pairs == expected
    assert [(str(w), t) for w, t in pairs] == [(str(w), t) for w, t in expected]
    assert lemma31_term_pairs(i) is not pairs
    if i >= 3:
        assert lemma31_expression(i) == [(1, br(w, gen(t))) for w, t in expected]


def test_expression_arity_three_matches_written_form():
    terms = [str(expr) for _, expr in lemma31_expression(3)]
    assert terms == [
        "[[[x1, x2], x3], x4]",
        "[[x4, [x1, x2]], x3]",
        "[[[x3, x4], x1], x2]",
        "[[x2, [x3, x4]], x1]",
    ]


@pytest.mark.parametrize("i", [3, 4, 5, 6])
def test_expression_term_count(i):
    assert len(lemma31_expression(i)) == i + 1
    for coeff, expr in lemma31_expression(i):
        assert coeff == 1
        assert len(_symbols(expr)) == i + 1


def test_expression_arity_below_three_rejected():
    with pytest.raises(ValueError):
        lemma31_expression(2)
    with pytest.raises(ValueError):
        lemma31_term_pairs(1)


@pytest.mark.parametrize("i", range(3, 16))
def test_identity_holds(i):
    residual = verify_lemma31(i)
    assert residual.is_zero
    assert str(residual) == "0"


def test_identity_drops_each_nodes_words_after_their_last_use():
    # Peak traced memory of the arity-13 sum, its terms already built: 0.87 MB
    # on 3.10-3.13.  Keeping every node's words to the end takes 1.59 MB, and
    # counting a shared node's children once per path to it (so their words
    # are never dropped) 1.02 MB; the sum is the same either way.
    lemma31_expression(13)
    tracemalloc.start()
    try:
        assert verify_lemma31(13).is_zero
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 950_000


def _broken_identities(i):
    """(dropped, doubled) for each term: the identity without it, and with
    its coefficient doubled."""
    terms = lemma31_expression(i)
    for k, (coeff, expr) in enumerate(terms):
        yield terms[:k] + terms[k + 1:], terms[:k] + [(2 * coeff, expr)] + terms[k + 1:]


def _residual(monkeypatch, i, combination):
    """verify_lemma31(i) with the identity replaced by ``combination``."""
    monkeypatch.setattr(free_lie, "lemma31_expression", lambda _: combination)
    return verify_lemma31(i)


# The zero residuals are not vacuous: each term is a nonzero Lie element, so
# a broken identity leaves the term's negative (dropped) or the term itself
# (doubled) behind.  Up to i = 7 the left-normed coordinates are expanded
# back by the rational reference below, which shares no code with the
# projection, and must give the whole tensor sum; up to i = 6 the Lyndon
# rewrite must agree on which sums vanish (at i = 8 one term's Lyndon form
# has 40320 coordinates and took 102 s).
@pytest.mark.parametrize("i", range(3, 14))
def test_identity_residual_detects_a_broken_term(i, monkeypatch):
    for k, (dropped, doubled) in enumerate(_broken_identities(i)):
        residual = _residual(monkeypatch, i, dropped)
        assert not residual.is_zero, (i, k)
        assert residual.terms == tuple(
            (w, -c) for w, c in _residual(monkeypatch, i, doubled).terms)
        if i <= 7:
            rebuilt, tensor = {}, {}
            for w, c in residual.terms:
                _ref_add_into(rebuilt, _ref_expansion(left_normed(w)), c)
            for coeff, expr in dropped:
                _ref_add_into(tensor, _ref_expansion(expr), Fraction(coeff))
            assert rebuilt == tensor, (i, k)
        if i <= 6:
            assert not expand_to_lyndon(dropped).is_zero, (i, k)
    if i <= 6:
        assert expand_to_lyndon(lemma31_expression(i)).is_zero


@pytest.mark.parametrize("e", [
    gen(2),                                   # no x1
    br(gen(2), br(gen(3), gen(4))),           # no x1
    br(gen(1), gen(1)),                       # x1 twice
    br(br(gen(1), gen(2)), gen(2)),           # x2 twice
    br(gen(3), br(gen(1), gen(3))),           # x3 twice, x1 in the right factor
    br(gen(1), gen(-2)),                      # a negative letter
])
def test_initial_words_reject_a_tree_they_cannot_determine(e):
    # a tree without x1 has no x1-initial word however nonzero it is, and
    # with a repeated generator the left-normed brackets are no basis, so
    # such a tree must raise rather than pass as a zero residual; a packed
    # letter is a nonnegative int, so a negative one is refused too
    with pytest.raises(ValueError):
        _initial_words(e)


def _relabel(e, letter):
    if e.is_generator:
        return gen(letter[e.symbol])
    return br(_relabel(e.left, letter), _relabel(e.right, letter))


@pytest.mark.parametrize("i", [3, 5])
def test_identity_residual_with_letters_past_five_bits(i, monkeypatch):
    # x2 becomes x0 and the others pass x63, so a packed letter takes 7 bits
    letter = {1: 1, 2: 0, **{k: 60 + k for k in range(3, i + 2)}}
    terms = [(coeff, _relabel(expr, letter)) for coeff, expr in lemma31_expression(i)]
    assert _residual(monkeypatch, i, terms).is_zero
    for k in range(len(terms)):
        dropped = terms[:k] + terms[k + 1:]
        rebuilt, tensor = {}, {}
        for w, c in _residual(monkeypatch, i, dropped).terms:
            _ref_add_into(rebuilt, _ref_expansion(left_normed(w)), c)
        for coeff, expr in dropped:
            _ref_add_into(tensor, _ref_expansion(expr), Fraction(coeff))
        assert rebuilt == tensor, k


@pytest.mark.parametrize("i", range(3, 14))
def test_residuals_on_shared_trees_equal_those_on_unshared_copies(i, monkeypatch):
    # the terms share their subtrees, and a node's packed words are made once
    # and dropped after their last use; copies share nothing
    terms = lemma31_expression(i)
    assert terms[-1][1].left.right is terms[-2][1].left.left
    same = {k: k for k in range(1, i + 2)}
    for k, (dropped, doubled) in enumerate(_broken_identities(i)):
        listed_twice = terms + [terms[k]]  # one tree object in two entries
        for combination in (dropped, doubled, listed_twice):
            shared = _residual(monkeypatch, i, combination)
            unshared = [(coeff, _relabel(expr, same)) for coeff, expr in combination]
            assert shared == _residual(monkeypatch, i, unshared), (i, k)
            assert shared == _residual(monkeypatch, i, combination), (i, k)
        assert _residual(monkeypatch, i, listed_twice) == _residual(monkeypatch, i, doubled)


@pytest.mark.parametrize("i", range(3, 9))
def test_identity_tensor_detects_a_broken_term(i):
    for k, broken in enumerate(itertools.chain(*_broken_identities(i))):
        tensor = {}
        for coeff, expr in broken:
            _tensor_add_into(tensor, tensor_expansion(expr), int(coeff))
        assert tensor, (i, k)


@pytest.mark.parametrize("i", [2, 3])
def test_identity_numerically_in_concrete_algebra(i):
    # independent route: substitute concrete vectors for the generators
    # and evaluate the terms with the algebra bracket
    L = free_nilpotent(2, i + 1)
    rng = random.Random(5)
    values = {}
    for k in range(1, i + 2):
        values[k] = tuple(Fraction(rng.randint(-2, 2)) for _ in range(L.dim))
    total = [Fraction(0)] * L.dim
    for w_expr, t_sym in lemma31_term_pairs(i):
        w_val = evaluate_in(w_expr, L.bracket, values)
        term = L.bracket(w_val, values[t_sym])
        total = [a + b for a, b in zip(total, term)]
    assert is_zero_vector(total)


def test_evaluate_in_substitution():
    L = LieAlgebra(3, {(0, 1): {2: 1}})
    values = {1: (Fraction(1), Fraction(0), Fraction(0)),
              2: (Fraction(0), Fraction(1), Fraction(0))}
    result = evaluate_in(br(gen(1), gen(2)), L.bracket, values)
    assert result == (Fraction(0), Fraction(0), Fraction(1))


def test_free_nilpotent_2_2_is_heisenberg():
    L = free_nilpotent(2, 2)
    assert L.dim == 3
    assert L.table == {(0, 1): {2: Fraction(1)}}


def test_free_nilpotent_2_3():
    L = free_nilpotent(2, 3)
    prof = series_profile(L)
    assert L.dim == 5
    assert prof.derived_dim == 3
    assert prof.nilpotency_class == 3
    assert prof.gen_count == 2


def test_free_nilpotent_3_2():
    L = free_nilpotent(3, 2)
    prof = series_profile(L)
    assert L.dim == 6
    assert prof.derived_dim == 3


@pytest.mark.parametrize("d,c", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)])
def test_free_nilpotent_profiles(d, c):
    L = free_nilpotent(d, c)  # construction itself validates the table
    prof = series_profile(L)
    assert prof.nilpotency_class == c
    assert prof.gen_count == d
    layer_dims = [prof.gamma(i).dim - prof.gamma(i + 1).dim
                  for i in range(1, c + 1)]
    words = lyndon_words(d, c)
    assert layer_dims == [sum(1 for w in words if len(w) == i)
                          for i in range(1, c + 1)]


# freenil:5,3 and freenil:10,2 (dimension 55) are the largest inside
# DIM_GUARD = 64 and freenil:2,7 (dimension 41) the deepest; each is the
# largest class its rank admits.
@pytest.mark.parametrize("d,c", [(5, 3), (10, 2), (2, 7)])
def test_free_nilpotent_bounds_the_lyndon_cache(d, c):
    with pytest.raises(SpecError):
        freenil(d, c + 1)
    _lyndon_tensor.cache_clear()
    L = freenil(d, c)
    assert _lyndon_tensor.cache_info().currsize <= len(lyndon_words(d, c)) == L.dim


def test_bracket_expr_guards():
    with pytest.raises(ValueError):
        BracketExpr(symbol=1, left=gen(1), right=gen(2))
    with pytest.raises(ValueError):
        BracketExpr(symbol=None, left=gen(1), right=None)


# -- the integer tensor core against the rational reference -----------------
#
# The reference does every bracket, sum and Lyndon rewrite in Fraction, so
# it shares no arithmetic with the integer tensor core.

def _ref_add_into(acc, p, c=Fraction(1)):
    for w, a in p.items():
        v = acc.get(w, Fraction(0)) + c * a
        if v:
            acc[w] = v
        else:
            acc.pop(w, None)


def _ref_bracket(p, q):
    out = {}
    for wp, cp in p.items():
        for wq, cq in q.items():
            _ref_add_into(out, {wp + wq: cp * cq})
            _ref_add_into(out, {wq + wp: -cp * cq})
    return out


def _ref_expansion(e):
    if e.is_generator:
        return {(e.symbol,): Fraction(1)}
    return _ref_bracket(_ref_expansion(e.left), _ref_expansion(e.right))


def _ref_lyndon_tensor(w):
    if len(w) == 1:
        return {w: Fraction(1)}
    u, v = std_factorization(w)
    return _ref_bracket(_ref_lyndon_tensor(u), _ref_lyndon_tensor(v))


def _ref_lyndon_form(combination):
    tensor = {}
    for coeff, expr in combination:
        _ref_add_into(tensor, _ref_expansion(expr), Fraction(coeff))
    coords = {}
    for degree in sorted({len(w) for w in tensor}):
        work = {w: c for w, c in tensor.items() if len(w) == degree}
        while work:
            w = min(work)
            assert is_lyndon(w), "reference input is a Lie element"
            coords[w] = work[w]
            _ref_add_into(work, _ref_lyndon_tensor(w), -work[w])
    return tuple(sorted(coords.items(), key=lambda t: (len(t[0]), t[0])))


@st.composite
def bracket_trees(draw, max_degree=7):
    """A bracket tree over x1..x_d (d <= 4) of degree <= max_degree."""
    d = draw(st.integers(1, 4))

    def tree(degree):
        if degree == 1:
            return gen(draw(st.integers(1, d)))
        split = draw(st.integers(1, degree - 1))
        return br(tree(split), tree(degree - split))

    return tree(draw(st.integers(1, max_degree)))


scalars = st.one_of(st.integers(-4, 4), st.just(0), st.just(Fraction(0)),
                    st.fractions(min_value=-4, max_value=4, max_denominator=7))


@given(st.one_of(bracket_trees(), st.lists(st.tuples(scalars, bracket_trees()), max_size=4)))
@settings(max_examples=300, deadline=None)
def test_expand_to_lyndon_matches_rational_reference(e):
    combination = [(1, e)] if isinstance(e, BracketExpr) else e
    result = expand_to_lyndon(e)
    assert result.terms == _ref_lyndon_form(combination)
    assert all(type(c) is Fraction for _, c in result.terms)
    for _, expr in combination:
        t = tensor_expansion(expr)
        assert t == _ref_expansion(expr)
        assert all(type(c) is int for c in t.values())


def test_expand_empty_combination_is_zero():
    assert expand_to_lyndon([]).is_zero
    assert expand_to_lyndon(iter([])).is_zero


def test_expand_keeps_rational_coefficients():
    e = expand_to_lyndon([(Fraction(1, 2), br(gen(1), gen(2))),
                          (Fraction(1, 3), br(gen(2), gen(1))),
                          (Fraction(-3, 4), br(gen(1), br(gen(1), gen(2))))])
    assert e.terms == (((1, 2), Fraction(1, 6)), ((1, 1, 2), Fraction(-3, 4)))


@given(bracket_trees().filter(lambda e: not e.is_generator), st.data())
@settings(max_examples=200, deadline=None)
def test_lyndonize_rejects_perturbed_lie_element(e, data):
    # a homogeneous Lie polynomial of degree >= 2 has coefficient sum 0
    # (send every generator to one commuting variable), so adding c*w with
    # c != 0 and len(w) = degree leaves the free Lie algebra
    tensor, degree = tensor_expansion(e), len(_symbols(e))
    w = tuple(data.draw(st.lists(st.integers(1, 4), min_size=degree, max_size=degree)))
    c = data.draw(st.integers(-3, 3).filter(bool))
    tensor[w] = tensor.get(w, 0) + c
    with pytest.raises(NotALieElement):
        _lyndonize(tensor)


@st.composite
def multilinear_trees(draw, max_degree=7):
    """A bracket tree holding x1 and no generator twice, over x0..x70, so
    that a packed letter takes from 1 up to 7 bits."""
    degree = draw(st.integers(1, max_degree))
    symbols = [1] + draw(st.lists(st.integers(0, 70).filter(lambda s: s != 1),
                                  min_size=degree - 1,
                                  max_size=degree - 1, unique=True))
    symbols = draw(st.permutations(symbols))

    def tree(lo, hi):
        if hi - lo == 1:
            return gen(symbols[lo])
        split = draw(st.integers(lo + 1, hi - 1))
        return br(tree(lo, split), tree(split, hi))

    return tree(0, degree)


@given(multilinear_trees())
@settings(max_examples=200, deadline=None)
def test_initial_words_are_the_x1_words_of_the_expansion(e):
    assert _initial_words(e) == {w: c for w, c in _ref_expansion(e).items() if w[0] == 1}
