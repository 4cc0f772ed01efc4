"""Exact-arithmetic multiplier dimensions and bounds for nilpotent Lie algebras.

The package imports no layer when it loads.  ``nilmult.<name>`` imports
the layer that defines ``name`` on first use (PEP 562), and
``nilmult.<layer>`` the layer itself, so a caller pays only for the
layers it reaches; ``from nilmult import *`` loads them all.
"""

import importlib

__version__ = "0.1.0"

# layer -> the public names it defines.  Besides what the commands call,
# these are the benchmark tracer's names (rref, kernel_basis, d2_matrix,
# d3_matrix, eq3_consistency, minimal_generators, quotient_algebra) and
# serialize, the .lie writer.
_EXPORTS = {
    "analysis": ("BoundReport", "PsiWitness", "TheoremVerification",
                 "VerificationFailure", "batten", "bound_report",
                 "eq3_consistency", "hardy_stitzinger", "niroomand_russo",
                 "psi_witnesses", "rai_bound", "rai_refined", "verify_theorem",
                 "yankosky_closed"),
    "catalog": ("abelian", "build", "default_manifest", "filiform", "freenil",
                "heisenberg", "load_file", "parse_file", "serialize"),
    "cli": (),
    "exactla": ("Matrix", "Subspace", "kernel_basis", "rref"),
    "free_lie": ("BracketExpr", "FreeLieElement", "free_nilpotent",
                 "lemma31_expression", "lyndon_words", "verify_lemma31"),
    "homology": ("KernelProfile", "MultiplierResult", "d2_matrix", "d3_matrix",
                 "ker_lambda_dims", "multiplier_dim"),
    "lie_core": ("JacobiViolation", "LieAlgebra", "NotAnIdeal", "NotNilpotent",
                 "SeriesProfile", "direct_sum", "minimal_generators",
                 "product_space", "quotient_algebra", "series_profile",
                 "upper_series"),
    "record": (),
}
_HOME = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    layer = name if name in _EXPORTS else _HOME.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{layer}")
    return module if layer == name else getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
