"""Exact-arithmetic multiplier dimensions and bounds for nilpotent Lie algebras."""

from .analysis import (
    BoundReport,
    KernelProfile,
    PsiWitness,
    TheoremVerification,
    VerificationFailure,
    batten,
    bound_report,
    eq3_consistency,
    hardy_stitzinger,
    ker_lambda_dims,
    niroomand_russo,
    psi_witnesses,
    rai_bound,
    rai_refined,
    verify_theorem,
    witness_commutator,
    yankosky_closed,
)
from .catalog import (
    abelian,
    build,
    default_manifest,
    filiform,
    freenil,
    heisenberg,
    load_file,
    parse_file,
    serialize,
)
from .exactla import Matrix, Subspace, kernel_basis, rank, rref
from .free_lie import (
    BracketExpr,
    FreeLieElement,
    expand_to_lyndon,
    free_nilpotent,
    left_normed,
    lemma31_expression,
    lyndon_words,
    right_normed,
    verify_lemma31,
)
from .homology import MultiplierResult, d2_matrix, d3_matrix, multiplier_dim
from .lie_core import (
    JacobiViolation,
    LieAlgebra,
    NotAnIdeal,
    NotNilpotent,
    SeriesProfile,
    direct_sum,
    minimal_generators,
    product_space,
    quotient_algebra,
    series_profile,
    upper_series,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport", "BracketExpr", "FreeLieElement",
    "JacobiViolation", "KernelProfile", "LieAlgebra", "Matrix",
    "MultiplierResult", "NotAnIdeal", "NotNilpotent", "PsiWitness",
    "SeriesProfile", "Subspace", "TheoremVerification", "VerificationFailure",
    "abelian", "batten", "bound_report", "build", "d2_matrix", "d3_matrix",
    "default_manifest", "direct_sum", "eq3_consistency", "expand_to_lyndon",
    "filiform", "free_nilpotent", "freenil", "hardy_stitzinger",
    "heisenberg", "ker_lambda_dims", "kernel_basis", "left_normed",
    "lemma31_expression", "load_file", "lyndon_words", "minimal_generators",
    "multiplier_dim", "niroomand_russo", "parse_file", "product_space",
    "psi_witnesses", "quotient_algebra", "rai_bound", "rai_refined", "rank",
    "right_normed", "rref", "serialize", "series_profile", "upper_series",
    "verify_lemma31", "verify_theorem", "witness_commutator",
    "yankosky_closed",
]
