"""Symbolic free Lie algebra over numbered generators.

A ``BracketExpr`` is a formal bracket tree.  Expanding it into the tensor
algebra (words with integer coefficients, bracket = xy - yx on
concatenation products) gives a faithful representation, and rewriting
a tensor against the standard bracketings of Lyndon words
(``_lyndonize``) gives its unique Lyndon-basis coordinates, in integers.
The module builds the free-nilpotent algebras of given rank and class on
that basis, and checks the multilinear degree-(i+1) commutator identity
of the kernel witnesses by its x_1-initial words, each packed into one
int; its residual is an integral ``FreeLieElement``.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Mapping
from functools import lru_cache

from .record import Record

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
    """Sorted (word, coefficient) pairs in the Lyndon or left-normed basis."""

    terms: tuple[tuple[Word, int], ...]

    @classmethod
    def from_dict(cls, coords: Mapping[Word, int]) -> "FreeLieElement":
        items = sorted(((w, c) for w, c in coords.items() if c),
                       key=lambda t: (len(t[0]), t[0]))
        return cls(tuple(items))

    @property
    def is_zero(self) -> bool:
        return not self.terms

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


# -- the degree-(i+1) commutator identity ----------------------------------

@lru_cache(maxsize=None)
def _lemma31_trees(i: int) -> tuple[tuple[BracketExpr, BracketExpr], ...]:
    """(W_k, x_{t_k}) for the pairs of ``lemma31_term_pairs(i)``.  The W_k are made
    of the prefixes [x_1, ..., x_b]_l and suffixes [x_a, ..., x_{i+1}]_r, two chains
    of nodes that the terms share, so an arity holds O(i) nodes; unbounded."""
    x = [None, *map(gen, range(1, i + 2))]
    prefix = list(itertools.accumulate(x[2:i + 1], br, initial=x[1]))  # [x_1..x_b]_l at b-1
    pairs, suffix = [(prefix[-1], x[i + 1])], x[i + 1]  # suffix: [x_a, ..., x_{i+1}]_r
    for a in range(i + 1, 2, -1):
        pairs.append((br(suffix, prefix[a - 3]), x[a - 1]))
        suffix = br(x[a - 1], suffix)
    return (*pairs, (suffix, x[1]))


def lemma31_term_pairs(i: int) -> list[tuple[BracketExpr, int]]:
    """The i+1 pairs (W_k, t_k) with sum_k [W_k, x_{t_k}] = 0.

    Each W_k is a weight-i bracket in x_1..x_{i+1} and t_k indexes the
    remaining generator:

      k = 1:        W = [x_1, ..., x_i]_l,                     t = i+1
      2 <= k <= i:  W = [[x_{i-k+3},...,x_{i+1}]_r,
                         [x_1,...,x_{i-k+1}]_l],               t = i-k+2
      k = i+1:      W = [x_2, ..., x_{i+1}]_r,                 t = 1

    For i = 2 the sum degenerates to the Jacobi identity.  Valid for
    i >= 2.  The trees are built once per arity and share their subtrees;
    each call returns a new list of them.
    """
    if i < 2:
        raise ValueError("identity defined for arity i >= 2")
    return [(w, t.symbol) for w, t in _lemma31_trees(i)]


def lemma31_expression(i: int) -> list[tuple[int, BracketExpr]]:
    """The identity as a combination of full bracket trees (arity >= 3), each
    with coefficient 1; only the i+1 roots [W_k, x_{t_k}] are built per call."""
    if i < 3:
        raise ValueError("lemma31_expression requires arity i >= 3")
    return [(1, br(w, t)) for w, t in _lemma31_trees(i)]


def _symbols(e: BracketExpr) -> list[int]:
    return [e.symbol] if e.is_generator else _symbols(e.left) + _symbols(e.right)


def _width(e: BracketExpr) -> int:
    """Bits per packed letter, the bit length of e's largest letter; ``ValueError`` unless
    e holds x_1, no generator twice and none negative: the trees its packed words determine."""
    symbols = _symbols(e)
    if 1 not in symbols or len(set(symbols)) < len(symbols) or min(symbols) < 0:
        raise ValueError(f"{e} is not multilinear in x1 and other generators")
    return max(symbols).bit_length()


def _packed(combination: list[tuple[int, BracketExpr]], width: int) -> dict[int, int]:
    """sum c·words(e) over the (c, e) of the combination, each word one int, ``width``
    bits a letter and the first one highest: words(e) is init(e) if e holds x_1, else
    exp(e).  Only the factor holding x_1 opens a word with it, so init([p, q]) is
    init(p)·exp(q) or -init(q)·exp(p); no letter repeats, so the words of pq and qp
    differ.  The trees may share nodes: each node's words are made once, keyed on the
    node, and dropped when the last of its parents (or entries) has taken them."""
    uses: dict[int, int] = {}  # id(node) -> parents and entries yet to take its words
    pending = [e for _, e in combination]
    while pending:
        e = pending.pop()
        uses[id(e)] = uses.get(id(e), 0) + 1
        if uses[id(e)] == 1 and e.symbol is None:
            pending += (e.left, e.right)
    made: dict[int, tuple[BracketExpr, int, bool, dict[int, int]]] = {}

    def take(e: BracketExpr) -> tuple[int, bool, dict[int, int]]:
        key = id(e)
        if key not in made:
            made[key] = (e, *words(e))
        uses[key] -= 1
        return (made[key] if uses[key] else made.pop(key))[1:]

    def words(e: BracketExpr) -> tuple[int, bool, dict[int, int]]:
        if e.symbol is not None:
            return 1, e.symbol == 1, {e.symbol: 1}
        (dp, p_holds, p), (dq, q_holds, q) = take(e.left), take(e.right)
        if p_holds or q_holds:
            head, tail, shift, sign = (p, q, width * dq, 1) if p_holds else (q, p, width * dp, -1)
            return dp + dq, True, {u << shift | v: sign * c * a
                                   for u, c in head.items() for v, a in tail.items()}
        out = {u << width * dq | v: c * a for u, c in p.items() for v, a in q.items()}
        out.update({v << width * dp | u: -c * a for u, c in p.items() for v, a in q.items()})
        return dp + dq, False, out

    total: dict[int, int] = {}
    for c, e in combination:
        _tensor_add_into(total, take(e)[2], c)
    return total


def _unpack(w: int, width: int) -> Word:
    """The letters of a packed x_1-initial word; its leading x_1 fixes the length."""
    return tuple(w >> s & (1 << width) - 1 for s in reversed(range(0, w.bit_length(), width)))


def verify_lemma31(i: int) -> FreeLieElement:
    """The identity sum in the left-normed basis [x_1, x_s2, ..., x_sk], named by its
    x_1-initial word (Reutenauer, Free Lie Algebras); zero when the identity holds."""
    terms = lemma31_expression(i)
    width = max(_width(expr) for _, expr in terms)
    residual = _packed(terms, width)
    return FreeLieElement.from_dict({_unpack(w, width): c for w, c in residual.items()})


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
    from .lie_core import LieAlgebra

    return LieAlgebra(len(basis), table, name=f"freenil:{d},{c}")
