"""Reference probe: a fixed amount of pure-Python ``Fraction`` work.

The benchmark runs it just before and just after every sample and
divides the sample's wall time by the probe time, so that a shared
machine whose speed drifts between samples reads the same.  It does the
same kind of work as the program (exact rational elimination) but must
never import ``nilmult``: a change to the program may not move it.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from math import comb
from time import perf_counter

_N = 16
# Bottom-right entry of the inverse n x n Hilbert matrix, an integer.
_EXPECTED = (2 * _N - 1) * comb(2 * _N - 2, _N - 1) ** 2


def _invert_hilbert() -> Fraction:
    n = _N
    a = [[Fraction(1, i + j + 1) for j in range(n)]
         + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for c in range(n):
        lead = a[c][c]
        a[c] = [x / lead for x in a[c]]
        for r in range(n):
            f = a[r][c]
            if r != c and f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return a[n - 1][2 * n - 1]


def probe(repeats: int = 5) -> float:
    """Mean seconds of ``repeats`` Hilbert-matrix inversions."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        value = _invert_hilbert()
        times.append(perf_counter() - start)
        if value != _EXPECTED:
            raise RuntimeError(f"probe computed {value}, expected {_EXPECTED}")
    return statistics.mean(times)
