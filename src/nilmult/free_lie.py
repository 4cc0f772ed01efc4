"""Symbolic free Lie algebra over numbered generators.

Elements are handled in two forms.  A ``BracketExpr`` is a formal
bracket tree; expanding it into the tensor algebra (words with integer
coefficients, bracket = xy - yx on concatenation products) gives a
faithful representation, and rewriting against the standard bracketings
of Lyndon words produces the unique Lyndon-basis normal form
(``FreeLieElement``, with ``Fraction`` coefficients; the rational edge
is ``expand_to_lyndon``).  On top of this the module builds the
degree-(i+1) commutator identity used for kernel witnesses, and the
free-nilpotent algebras of given rank and class.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterable, Mapping, Sequence
from fractions import Fraction
from functools import lru_cache

from .exactla import Record, rational
from .lie_core import LieAlgebra

Word = tuple[int, ...]


class NotALieElement(ValueError):
    """A tensor polynomial that lies outside the free Lie algebra."""


class BracketExpr(Record):
    """A generator x_j (leaf) or the bracket [left, right]."""

    symbol: int | None
    left: BracketExpr | None
    right: BracketExpr | None

    def __init__(self, symbol, left=None, right=None):
        leaf = symbol is not None
        if leaf == (left is not None or right is not None):
            raise ValueError("BracketExpr is either a symbol or a pair, not both")
        if not leaf and (left is None or right is None):
            raise ValueError("bracket node needs both children")
        object.__setattr__(self, "symbol", symbol)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    @property
    def is_generator(self) -> bool:
        return self.symbol is not None

    @property
    def degree(self) -> int:
        if self.is_generator:
            return 1
        return self.left.degree + self.right.degree

    def __str__(self):
        if self.is_generator:
            return f"x{self.symbol}"
        return f"[{self.left}, {self.right}]"


def gen(j: int) -> BracketExpr:
    """Generator leaf x_j."""
    return BracketExpr(symbol=j)


def br(a: BracketExpr, b: BracketExpr) -> BracketExpr:
    """Formal bracket [a, b]."""
    return BracketExpr(symbol=None, left=a, right=b)


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


# -- tensor-algebra representation ----------------------------------------

def _tensor_add_into(acc: dict[Word, int], p: Mapping[Word, int], c: int = 1) -> None:
    for w, a in p.items():
        v = acc.get(w, 0) + c * a
        if v:
            acc[w] = v
        else:
            acc.pop(w, None)


def _tensor_bracket(p: Mapping[Word, int], q: Mapping[Word, int]) -> dict[Word, int]:
    """pq - qp on concatenation products."""
    out: dict[Word, int] = {}
    for wp, cp in p.items():
        for wq, cq in q.items():
            c = cp * cq
            for w, s in ((wp + wq, c), (wq + wp, -c)):
                v = out.get(w, 0) + s
                if v:
                    out[w] = v
                else:
                    out.pop(w, None)
    return out


def tensor_expansion(e: BracketExpr) -> dict[Word, int]:
    """Image of the expression in the tensor algebra (integer coefficients)."""
    if e.is_generator:
        return {(e.symbol,): 1}
    return _tensor_bracket(tensor_expansion(e.left), tensor_expansion(e.right))


# -- Lyndon words ----------------------------------------------------------

def is_lyndon(w: Word) -> bool:
    """Strictly smaller than every proper rotation."""
    if not w:
        return False
    return all(w < w[k:] + w[:k] for k in range(1, len(w)))


def lyndon_words(d: int, max_degree: int) -> list[Word]:
    """All Lyndon words over 1..d of length <= max_degree, by (length, word).

    Generation is Duval's algorithm, which emits the words in plain
    lexicographic order; the list is then re-sorted by degree first to
    serve as a graded basis.
    """
    if d < 1 or max_degree < 1:
        return []
    out: list[Word] = []
    w = [0]
    while w:
        w[-1] += 1
        out.append(tuple(w))
        m = len(w)
        while len(w) < max_degree:
            w.append(w[len(w) - m])
        while w and w[-1] == d:
            w.pop()
    out.sort(key=lambda u: (len(u), u))
    return out


def std_factorization(w: Word) -> tuple[Word, Word]:
    """Standard factorization w = uv, v the longest proper Lyndon suffix."""
    if len(w) < 2:
        raise ValueError("standard factorization needs length >= 2")
    for s in range(1, len(w)):
        if is_lyndon(w[s:]):
            return w[:s], w[s:]
    raise AssertionError("unreachable: single letters are Lyndon")


def lyndon_bracketing(w: Word) -> BracketExpr:
    """Standard bracketing P_w of a Lyndon word."""
    if not is_lyndon(w):
        raise ValueError(f"{w} is not a Lyndon word")
    if len(w) == 1:
        return gen(w[0])
    u, v = std_factorization(w)
    return br(lyndon_bracketing(u), lyndon_bracketing(v))


@lru_cache(maxsize=None)
def _lyndon_tensor(w: Word) -> dict[Word, int]:
    """Integer tensor expansion of P_w.  Cached; callers must not mutate."""
    if len(w) == 1:
        return {w: 1}
    u, v = std_factorization(w)
    return _tensor_bracket(_lyndon_tensor(u), _lyndon_tensor(v))


def _lyndonize(tensor: Mapping[Word, int]) -> dict[Word, int]:
    """Rewrite a Lie-element tensor polynomial in the Lyndon basis.

    Within each degree, P_w = w + (lexicographically larger words), so
    repeatedly stripping the smallest surviving word is triangular and
    terminates; as P_w is integral with leading coefficient 1, an integer
    tensor has integer Lyndon coordinates.  A smallest word that is not
    Lyndon certifies that the input was not a Lie element.
    """
    coords: dict[Word, int] = {}
    by_degree: dict[int, dict[Word, int]] = {}
    for w, c in tensor.items():
        if c:
            by_degree.setdefault(len(w), {})[w] = c
    for degree in sorted(by_degree):
        work = by_degree[degree]
        while work:
            w = min(work)
            if not is_lyndon(w):
                raise NotALieElement(f"word {w} obstructs Lyndon rewriting")
            c = work[w]
            coords[w] = c
            _tensor_add_into(work, _lyndon_tensor(w), -c)
    return coords


class FreeLieElement(Record):
    """Lyndon-basis normal form: sorted (word, coefficient) pairs."""

    terms: tuple[tuple[Word, Fraction], ...]

    @classmethod
    def from_dict(cls, coords: Mapping[Word, Fraction]) -> "FreeLieElement":
        items = sorted(((w, c) for w, c in coords.items() if c),
                       key=lambda t: (len(t[0]), t[0]))
        return cls(tuple(items))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def as_dict(self) -> dict[Word, Fraction]:
        return dict(self.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for w, c in self.terms:
            word = f"x{w[0]}" if len(w) == 1 else "[" + "".join(f"x{j}" for j in w) + "]"
            piece = word if abs(c) == 1 else f"{abs(c)}*{word}"
            parts.append(("- " if c < 0 else "+ ") + piece)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]


Combination = Iterable[tuple[Fraction, BracketExpr]]


def expand_to_lyndon(e: "BracketExpr | Combination") -> FreeLieElement:
    """Lyndon normal form of a bracket expression or linear combination.

    The tensor sum is taken over the coefficients' common denominator
    ``scale``, so it stays integral."""
    combination = [(Fraction(1), e)] if isinstance(e, BracketExpr) else [
        (rational(coeff), expr) for coeff, expr in e]
    scale = math.lcm(*(coeff.denominator for coeff, _ in combination))
    tensor: dict[Word, int] = {}
    for coeff, expr in combination:
        _tensor_add_into(tensor, tensor_expansion(expr),
                         coeff.numerator * (scale // coeff.denominator))
    return FreeLieElement.from_dict(
        {w: Fraction(c, scale) for w, c in _lyndonize(tensor).items()})


# -- the degree-(i+1) commutator identity ----------------------------------

def lemma31_term_pairs(i: int) -> list[tuple[BracketExpr, int]]:
    """The i+1 pairs (W_k, t_k) with sum_k [W_k, x_{t_k}] = 0.

    Each W_k is a weight-i bracket in x_1..x_{i+1} and t_k indexes the
    remaining generator:

      k = 1:        W = [x_1, ..., x_i]_l,                     t = i+1
      2 <= k <= i:  W = [[x_{i-k+3},...,x_{i+1}]_r,
                         [x_1,...,x_{i-k+1}]_l],               t = i-k+2
      k = i+1:      W = [x_2, ..., x_{i+1}]_r,                 t = 1

    For i = 2 the sum degenerates to the Jacobi identity.  Valid for
    i >= 2.
    """
    if i < 2:
        raise ValueError("identity defined for arity i >= 2")
    pairs: list[tuple[BracketExpr, int]] = [(left_normed(range(1, i + 1)), i + 1)]
    for k in range(2, i + 1):
        w = br(right_normed(range(i - k + 3, i + 2)),
               left_normed(range(1, i - k + 2)))
        pairs.append((w, i - k + 2))
    pairs.append((right_normed(range(2, i + 2)), 1))
    return pairs


def lemma31_expression(i: int) -> list[tuple[Fraction, BracketExpr]]:
    """The identity as a combination of full bracket trees (arity >= 3)."""
    if i < 3:
        raise ValueError("lemma31_expression requires arity i >= 3")
    return [(Fraction(1), br(w, gen(t))) for w, t in lemma31_term_pairs(i)]


def verify_lemma31(i: int) -> FreeLieElement:
    """Lyndon normal form of the identity sum; zero when the identity holds."""
    return expand_to_lyndon(lemma31_expression(i))


# -- evaluation and free-nilpotent quotients --------------------------------

def evaluate_in(e: BracketExpr, bracket: Callable, values: Mapping):
    """Evaluate a bracket tree under a substitution of the generators."""
    if e.is_generator:
        return values[e.symbol]
    return bracket(evaluate_in(e.left, bracket, values),
                   evaluate_in(e.right, bracket, values))


def free_nilpotent(d: int, c: int) -> LieAlgebra:
    """Free nilpotent Lie algebra of rank d and class c.

    Basis: Lyndon words over 1..d of degree <= c, ordered by (degree,
    word).  Brackets are computed in the tensor algebra, truncated past
    degree c, and rewritten into Lyndon coordinates.
    """
    if d < 1 or c < 1:
        raise ValueError("free_nilpotent requires d >= 1 and c >= 1")
    basis = lyndon_words(d, c)
    index = {w: t for t, w in enumerate(basis)}
    table: dict[tuple[int, int], dict[int, int]] = {}
    for a, b in itertools.combinations(range(len(basis)), 2):
        u, v = basis[a], basis[b]
        if len(u) + len(v) > c:
            continue
        coords = _lyndonize(_tensor_bracket(_lyndon_tensor(u), _lyndon_tensor(v)))
        entry = {index[w]: coeff for w, coeff in coords.items()}
        if entry:
            table[(a, b)] = entry
    return LieAlgebra(len(basis), table, name=f"freenil:{d},{c}")
