"""In-process per-layer trace of ``nilmult``, from the benchmark's side.

``Tracer.install`` wraps the public functions of each layer and
``LieAlgebra.__init__`` by replacing every module-level reference to
them across ``nilmult.*``, so from-imports (``analysis``, ``cli``,
``homology``) are caught as well.  Every call becomes a span with a
name, start, end and parent; a span's self time is its duration minus
its direct children's.  ``uninstall`` puts the original functions back.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

# module -> traced functions; each span is named "<module>.<function>".
TRACED = {
    "catalog": ("build", "parse_file", "default_manifest"),
    "lie_core": ("series_profile", "quotient_algebra", "product_space",
                 "minimal_generators", "direct_sum"),
    "homology": ("d2_matrix", "d3_matrix", "multiplier_dim"),
    "exactla": ("rref", "kernel_basis"),
    "analysis": ("bound_report", "ker_lambda_dims", "psi_witnesses",
                 "verify_theorem", "eq3_consistency", "rai_refined"),
    "free_lie": ("free_nilpotent", "verify_lemma31"),
    "cli": ("main",),
}
CONSTRUCT = "lie_core.construct"  # LieAlgebra.__init__, mostly the Jacobi check


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.counts: Counter = Counter()
        self.d3_shapes: list[tuple[int, int]] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._pending_d3: int | None = None

    # -- spans ------------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)  # reserve the id; filled in when the call ends
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[span_id] = (span_id, parent, name, start, end)
            if after is not None:
                after(args, result)
            return result
        return traced

    def _after_rref(self, args, result):
        m, (_, rank) = args[0], result
        self.counts["exactla.rref.cells"] += m.rows * m.cols
        if id(m) == self._pending_d3:
            self.counts["homology.rank_d3"] += rank
            self._pending_d3 = None

    def _after_d3(self, args, m):
        self.d3_shapes.append((m.rows, m.cols))
        self.counts["homology.d3_matrix.cells"] += m.rows * m.cols
        self.counts["homology.d3_matrix.nnz"] += sum(
            1 for row in m.entries for x in row if x)
        self._pending_d3 = id(m)  # multiplier_dim ranks it next

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        import nilmult.cli  # binds nilmult; the package does not import its CLI
        from nilmult import lie_core

        after = {"exactla.rref": self._after_rref,
                 "homology.d3_matrix": self._after_d3}
        modules = [m for key, m in sys.modules.items()
                   if key == "nilmult" or key.startswith("nilmult.")]
        for short, functions in TRACED.items():
            home = getattr(nilmult, short)
            for attr in functions:
                name = f"{short}.{attr}"
                original = getattr(home, attr)
                wrapper = self._wrap(name, original, after.get(name))
                for module in modules:
                    for key, value in vars(module).items():
                        if value is original:
                            self._patch(module, key, wrapper)
        init = lie_core.LieAlgebra.__init__
        self._patch(lie_core.LieAlgebra, "__init__", self._wrap(CONSTRUCT, init))

    def _patch(self, owner, key, value) -> None:
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    # -- aggregates -------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """calls, s (outermost calls only) and self_s for every span name."""
        child_time: dict[int, float] = defaultdict(float)
        by_id = {}
        for span_id, parent, name, start, end in self.spans:
            by_id[span_id] = (parent, name)
            if parent is not None:
                child_time[parent] += end - start
        stats: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for span_id, parent, name, start, end in self.spans:
            entry = stats[name]
            entry["calls"] += 1
            entry["self_s"] += end - start - child_time[span_id]
            ancestor = parent
            while ancestor is not None and by_id[ancestor][1] != name:
                ancestor = by_id[ancestor][0]
            if ancestor is None:
                entry["s"] += end - start
        return stats
