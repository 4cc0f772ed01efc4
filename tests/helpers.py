"""Helpers that only the tests use: spans of dense vectors and
membership, the free-Lie references (normed brackets, tensor expansion,
x_1-initial words, Lyndon bracketing and normal form), basis changes,
generated algebras, the input-basis Jacobi check, the Witt numbers, the
Betti numbers of the whole complex and the small nilpotent algebras.  Every test module imports what
it shares from here, never from another test module."""

import itertools
import math
from collections import Counter
from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import comb

import sympy
from hypothesis import strategies as st

from nilmult.catalog import build, parse_file, serialize
from nilmult.exactla import DimensionMismatch, Subspace, _echelon, _integral, _null_rows, _sparse, rational, vector
from nilmult.free_lie import (BracketExpr, FreeLieElement, Word, _lyndonize, _packed,
                              _tensor_add_into, _tensor_bracket, _unpack, _width, br, gen,
                              is_lyndon, std_factorization)
from nilmult.lie_core import (LieAlgebra, _d3_columns, _lower_series, product_space, quotient_algebra,
                              series_profile, upper_series)


def is_zero_vector(v):
    return all(x == 0 for x in v)


def span(ambient_dim, vectors):
    """The subspace of Q^ambient_dim spanned by dense rational vectors."""
    rows = [vector(v) for v in vectors]
    if any(len(r) != ambient_dim for r in rows):
        raise DimensionMismatch("vector length does not match ambient dimension")
    return Subspace.from_rows(ambient_dim, (_integral(_sparse(r)) for r in rows))


def contains(space, v):
    return is_zero_vector(space.reduce(v))


def contains_subspace(space, other):
    return not any(space.residual(row) for row in other.rows)


def reference_residual(space, row):
    """A sparse row's residual mod ``space`` as a dense Fraction list, off
    the dense RREF basis: row[p] times the basis row of each pivot p is
    taken off, since each basis row is zero on the other pivots."""
    out = [rational(row.get(c, 0)) for c in range(space.ambient_dim)]
    for p, basis_row in zip(space.pivots, space.basis.entries):
        f = rational(row.get(p, 0))
        out = [x - f * y for x, y in zip(out, basis_row)]
    return out


# -- free-Lie references ------------------------------------------------------
#
# No command reaches these; the tests compare the free-Lie layer against them.

def _as_expr(x) -> BracketExpr:
    return x if isinstance(x, BracketExpr) else gen(int(x))


def left_normed(xs: Sequence) -> BracketExpr:
    """[...[[x1, x2], x3], ..., xk] — brackets nested to the left."""
    if not xs:
        raise ValueError("left_normed needs at least one factor")
    acc = _as_expr(xs[0])
    for x in xs[1:]:
        acc = br(acc, _as_expr(x))
    return acc


def right_normed(xs: Sequence) -> BracketExpr:
    """[x1, [x2, [..., [x_{k-1}, xk]]]] — brackets nested to the right."""
    if not xs:
        raise ValueError("right_normed needs at least one factor")
    acc = _as_expr(xs[-1])
    for x in reversed(xs[:-1]):
        acc = br(_as_expr(x), acc)
    return acc


def tensor_expansion(e: BracketExpr) -> dict[Word, int]:
    """Image of the expression in the tensor algebra (integer coefficients)."""
    if e.is_generator:
        return {(e.symbol,): 1}
    return _tensor_bracket(tensor_expansion(e.left), tensor_expansion(e.right))


def _initial_words(e: BracketExpr) -> dict[Word, int]:
    """The x_1-initial words of e's tensor expansion, as letter tuples: the
    packed words that ``verify_lemma31`` sums, unpacked."""
    width = _width(e)
    return {_unpack(w, width): c for w, c in _packed([(1, e)], width).items()}


def lyndon_bracketing(w: Word) -> BracketExpr:
    """Standard bracketing P_w of a Lyndon word."""
    if not is_lyndon(w):
        raise ValueError(f"{w} is not a Lyndon word")
    if len(w) == 1:
        return gen(w[0])
    u, v = std_factorization(w)
    return br(lyndon_bracketing(u), lyndon_bracketing(v))


Combination = Iterable[tuple[Fraction, BracketExpr]]


def expand_to_lyndon(e: "BracketExpr | Combination") -> FreeLieElement:
    """Lyndon normal form of a bracket expression or linear combination.

    The tensor sum is taken over the coefficients' common denominator
    ``scale``, so it stays integral.  Its cache of P_w expansions
    (``_lyndon_tensor``) is unbounded and lives as long as the process."""
    combination = [(Fraction(1), e)] if isinstance(e, BracketExpr) else [
        (rational(coeff), expr) for coeff, expr in e]
    scale = math.lcm(*(coeff.denominator for coeff, _ in combination))
    tensor: dict[Word, int] = {}
    for coeff, expr in combination:
        _tensor_add_into(tensor, tensor_expansion(expr),
                         coeff.numerator * (scale // coeff.denominator))
    return FreeLieElement.from_dict(
        {w: Fraction(c, scale) for w, c in _lyndonize(tensor).items()})


def counted_calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` for one test; the returned list gets the first
    argument of every call (``self`` for a method such as ``__init__``)."""
    calls, original = [], getattr(owner, name)

    def counted(first, *args, **kwargs):
        calls.append(first)
        return original(first, *args, **kwargs)
    monkeypatch.setattr(owner, name, counted)
    return calls


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


@st.composite
def unimodular(draw, n):
    cells = n * (n - 1) // 2
    below, above = (iter(draw(st.lists(st.integers(-1, 1), min_size=cells,
                                       max_size=cells))) for _ in range(2))
    lower = [[1 if i == j else next(below) if j < i else 0 for j in range(n)]
             for i in range(n)]
    upper = [[1 if i == j else next(above) if j > i else 0 for j in range(n)]
             for i in range(n)]
    return [[sum(lower[i][k] * upper[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def table_in_basis(n, table, p):
    """A bracket table on e_0..e_{n-1}, which need not be a Lie algebra's,
    rewritten in the basis f_a = Σ_i p[a][i] e_i, p unimodular."""
    # A row vector v over the e_i is v·p⁻¹ over the f_a.
    q = [[int(x) for x in row] for row in sympy.Matrix(p).inv().tolist()]
    out = {}
    for a, b in itertools.combinations(range(n), 2):
        image = [Fraction(0)] * n  # [f_a, f_b] over the e_i
        for (i, j), entry in table.items():
            w = p[a][i] * p[b][j] - p[a][j] * p[b][i]
            for k, c in entry.items():
                image[k] += w * c
        coords = {t: sum(image[k] * q[k][t] for k in range(n)) for t in range(n)}
        entry = {t: c for t, c in coords.items() if c}
        if entry:
            out[(a, b)] = entry
    return out


def _change_basis(L, p):
    """L rewritten in the basis f_a = Σ_i p[a][i] e_i, p unimodular."""
    return LieAlgebra(L.dim, table_in_basis(L.dim, L.table, p), name=L.name)


def lie_text(name, n, table):
    """The .lie text of a bracket table, which need not be a Lie algebra's."""
    lines = [f"algebra {name}", f"dim {n}"]
    for (i, j), entry in sorted(table.items()):
        if terms := " ".join(f"{c}*{k + 1}" for k, c in sorted(entry.items()) if c):
            lines.append(f"bracket {i + 1} {j + 1} -> {terms}")
    return "\n".join(lines + ["end"]) + "\n"


def reference_jacobi_failure(n, table):
    """The input-basis Jacobi check, by the C(n,3) walk in Fractions: the
    first triple i < j < k, in lexicographic order, whose Jacobiator
    [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j] is nonzero, with
    that Jacobiator as a dense tuple; None when every triple passes.  This
    is what ``JacobiViolation`` must report for a table, whichever basis
    the package certified it in."""
    def bracket(x, y):
        out = {}
        for a, u in x.items():
            for b, v in y.items():
                sign = 1 if a < b else -1
                for k, c in table.get((min(a, b), max(a, b)), {}).items() if a != b else ():
                    out[k] = out.get(k, 0) + sign * u * v * Fraction(c)
        return out

    for triple in itertools.combinations(range(n), 3):
        total = [Fraction(0)] * n
        for x, y, z in (triple, triple[1:] + triple[:1], triple[2:] + triple[:2]):
            for k, c in bracket(bracket({x: 1}, {y: 1}), {z: 1}).items():
                total[k] += c
        if any(total):
            return triple, tuple(total)
    return None


def _seeded_unimodular(n, rng):
    """A unimodular integer matrix: the product of random unitriangular
    lower and upper factors with entries in -1..1."""
    lower = [[1 if i == j else rng.randint(-1, 1) if j < i else 0 for j in range(n)]
             for i in range(n)]
    upper = [[1 if i == j else rng.randint(-1, 1) if j > i else 0 for j in range(n)]
             for i in range(n)]
    return [[sum(lower[i][k] * upper[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def _sympy_ads(L):
    """ad(e_j) for each j as a matrix acting on coordinate columns: column
    l is [e_l, e_j], read straight from the table."""
    n = L.dim
    ads = [sympy.zeros(n, n) for _ in range(n)]
    for (a, b), entry in L.table.items():
        for k, x in entry.items():
            ads[b][k, a] = sympy.Rational(x)
            ads[a][k, b] = -sympy.Rational(x)
    return ads


def _central_vectors(draw, L, count):
    """count random integer combinations of the centre's basis rows."""
    center = upper_series(L)[1]
    combos = draw(st.lists(st.lists(st.integers(-2, 2), min_size=center.dim,
                                    max_size=center.dim),
                           min_size=count, max_size=count))
    return [[sum(a * row[k] for a, row in zip(combo, center.basis.entries))
             for k in range(L.dim)] for combo in combos]


GENERATED_SOURCES = ("freenil:2,3", "freenil:2,4", "freenil:3,2")


@st.composite
def generated_algebras(draw):
    """A free nilpotent algebra modulo a random central subspace, in a
    random unimodular basis, round-tripped through the .lie format."""
    L = build(draw(st.sampled_from(GENERATED_SOURCES)))
    count = draw(st.integers(0, upper_series(L)[1].dim))
    if count:
        ideal = span(L.dim, _central_vectors(draw, L, count))
        L, _ = quotient_algebra(L, ideal, name=f"{L.name}/Z{ideal.dim}")
    L = _change_basis(L, draw(unimodular(L.dim)))
    return parse_file(serialize(L))


def _cocycle_basis(L):
    """A basis of the 2-cocycles of L, by sympy: functionals θ on the pairs
    i < j with θ([x, y], z) + θ([y, z], x) + θ([z, x], y) = 0 on every
    basis triple, the columns of d3 as written here."""
    pairs = {pair: t for t, pair in enumerate(itertools.combinations(range(L.dim), 2))}
    table = L.table
    rows = [[0] * len(pairs)]  # a matrix even where there is no triple
    for a, b, c in itertools.combinations(range(L.dim), 3):
        row = [0] * len(pairs)
        for x, y, z, sign in ((a, b, c, 1), (b, c, a, 1), (a, c, b, -1)):
            for k, coeff in table.get((x, y), {}).items():
                if k != z:
                    row[pairs[min(k, z), max(k, z)]] += sign * coeff * (1 if k < z else -1)
        rows.append(row)
    return list(pairs), sympy.Matrix(rows).nullspace()


@st.composite
def central_extensions(draw):
    """abelian:2..4 extended 1 to 9 − n times by ℚz, each time with
    [x, y]' = [x, y] + θ(x ∧ y)z for a random nonzero integer 2-cocycle θ:
    every nilpotent algebra arises so, and the class can grow by one a step."""
    L = build(f"abelian:{draw(st.integers(2, 4))}")
    for _ in range(draw(st.integers(1, 9 - L.dim))):
        pairs, basis = _cocycle_basis(L)
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(basis),
                               max_size=len(basis)).filter(any))
        theta = sum((x * v for x, v in zip(coeffs, basis)), sympy.zeros(len(pairs), 1))
        theta *= sympy.ilcm(1, *(x.q for x in theta))
        table = L.table
        for pair, x in zip(pairs, theta):
            if x:
                table.setdefault(pair, {})[L.dim] = int(x)
        L = LieAlgebra(L.dim + 1, table, name=f"ext{L.dim + 1}")
    return L


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
        # last-first is faster on dense tables; the rank is the same in any order
        ranks[k] = len(_echelon(reversed(columns)))
    return [comb(n, k) - ranks[k] - ranks[k + 1] for k in range(n + 1)]


def _invariants(L):
    """Dimensions of the lower and the upper central series, of [γ₂, γ₂]
    and of the centraliser of γ₂, and the Betti numbers: isomorphism
    invariants that tell apart the nilpotent algebras of dimension ≤ 5."""
    lower = _lower_series(L)
    derived = lower[1] if len(lower) > 1 else lower[0]  # γ₂, or 0 when n = 0
    # x centralises γ₂ when each coordinate m of [x, y] vanishes, y in γ₂
    ads = [[L._bracket({l: 1}, y) for l in range(L.dim)] for y in derived.rows]
    rows = ({l: ad[l][m] for l in range(L.dim) if m in ad[l]} for ad in ads for m in range(L.dim))
    return (tuple(S.dim for S in lower), tuple(Z.dim for Z in upper_series(L)),
            product_space(L, derived, derived).dim, L.dim - len(_echelon(rows)),
            tuple(_betti_numbers(L)))


def weights(A, prof):
    """The weight of each basis vector e_k of an adapted table A with
    series profile ``prof``: i when e_k lies in γ_i/γ_{i+1}, that is
    n − dim γ_i ≤ k < n − dim γ_{i+1}.  Asserts that A is graded by them:
    the targets of [e_a, e_b] lie in weight w_a + w_b."""
    n, w = A.dim, []
    for i in range(1, prof.nilpotency_class + 1):
        w += [i] * (prof.gamma(i).dim - prof.gamma(i + 1).dim)
    assert len(w) == n
    for (a, b), image in A.table.items():
        assert all(w[k] == w[a] + w[b] for k in image), (A.name, a, b, image)
    return w


def h2_by_weight(L):
    """{w: dim H₂ in weight w} of L, read off the d2 and d3 pivots of its
    adapted table with no new elimination: d2 and d3 preserve weight, so
    each weight's pivots are that weight's rank.  Holds only weights
    with a nonzero dimension."""
    prof = series_profile(L)
    A = prof.adapted
    w = weights(A, prof)
    pair = [w[s] + w[t] for t in range(A.dim) for s in range(t)]  # colex order
    d2, d3 = A._pivots
    dims = Counter(pair)
    dims.subtract(w[p] for p in d2)
    dims.subtract(pair[p] for p in d3)
    return {k: x for k, x in sorted(dims.items()) if x}


def nilpotent_classes(max_dim):
    """One nilpotent Lie algebra over ℚ per isomorphism class, for each
    dimension 0..max_dim, by Skjelbred–Sund central extensions.

    Each algebra of dimension n + 1 is a central extension of one of
    dimension n by ℚe_n: [x, y]' = [x, y] + θ(x ∧ y)e_n for a 2-cocycle
    θ, a cochain on the colex pair rows that vanishes on the d3 columns.
    Each representative is extended by every Σ c_j φ_j, c_j ∈ {−1, 0, 1},
    over the cocycle basis φ_j, the split extension (all c_j = 0) first,
    and the first algebra of each ``_invariants`` tuple is kept.  That
    those tuples count the classes is what the caller checks, against a
    known count.
    """
    classes = [[LieAlgebra(0, {})]]
    for n in range(max_dim):
        kept = {}
        for L in classes[-1]:
            pairs = [(s, t) for t in range(n) for s in range(t)]  # colex order
            basis = _null_rows(_d3_columns(L).values(), len(pairs))
            for coeffs in itertools.product((0, 1, -1), repeat=len(basis)):
                table = L.table
                for phi, c in zip(basis, coeffs):
                    for r, x in phi.items():
                        entry = table.setdefault(pairs[r], {})
                        entry[n] = entry.get(n, 0) + c * x
                E = LieAlgebra(n + 1, table, name=f"L{n + 1}.{len(kept) + 1}")
                kept.setdefault(_invariants(E), E)
        classes.append(list(kept.values()))
    return classes
