"""Multiplier bounds, kernel bookkeeping, and tensor witnesses.

For a nonabelian nilpotent algebra L with n = dim L, m = dim γ₂(L) and
class c, the bounds compared here are

    batten:            n(n-1)/2
    hardy_stitzinger:  n(n-1)/2 - m
    yankosky_closed:   (n+m)(n-m-1)/2
    niroomand_russo:   (n-m-1)(n+m-2)/2 + 1            (m >= 1)
    rai:               (n-m-1)(n+m)/2 - Σ_{i=2}^{min(n-m,c)} (n-m-i)

together with an informational refinement of the last one that
subtracts dim(Z(L)/(γ₂(L) ∩ Z(L))) · m.  The refinement is recorded but
never asserted: it fails on h₃ ⊕ abelian(1), where it gives 3 against
an actual multiplier dimension of 4.

The kernel rows (``ker_lambda_dims``) live in ``homology``, beside the
quotient multipliers they read, and are re-exported here.  The
witnesses Ψ_i (``psi_witnesses``) evaluate the degree-(i+1) commutator
identity at the first tuple of minimal generators whose left-normed
bracket leaves γ_{i+1}, a search on the adapted table (``_witness_tuple``).
"""

from __future__ import annotations

from math import comb

from .exactla import Subspace, _echelon
from .homology import KernelProfile, KernelRow, RangeError, _quotient_dims, ker_lambda_dims
from .lie_core import LieAlgebra, SeriesProfile, _upper_step, series_profile
from .record import Record


class VerificationFailure(Exception):
    """A checked property failed; signals an implementation bug."""


# -- bound formulas ----------------------------------------------------------

def batten(n: int) -> int:
    """n(n-1)/2."""
    if n < 0:
        raise ValueError("dimension must be nonnegative")
    return n * (n - 1) // 2


def hardy_stitzinger(n: int, m: int) -> int:
    """n(n-1)/2 - m."""
    return batten(n) - m


def yankosky_closed(n: int, m: int) -> int:
    """(n+m)(n-m-1)/2."""
    return (n + m) * (n - m - 1) // 2


def niroomand_russo(n: int, m: int) -> int:
    """(n-m-1)(n+m-2)/2 + 1, for m >= 1."""
    if m < 1:
        raise ValueError("bound requires m >= 1")
    return (n - m - 1) * (n + m - 2) // 2 + 1


def rai_bound(n: int, m: int, c: int) -> int:
    """(n-m-1)(n+m)/2 - Σ_{i=2}^{min(n-m,c)} (n-m-i), for m>=1, c>=2, n-m>=2."""
    if m < 1 or c < 2 or n - m < 2:
        raise ValueError("bound requires m >= 1, c >= 2 and n - m >= 2")
    correction = sum(n - m - i for i in range(2, min(n - m, c) + 1))
    return (n - m - 1) * (n + m) // 2 - correction


def rai_refined(L: LieAlgebra) -> int:
    """rai_bound minus dim(Z/(γ₂ ∩ Z))·m.  Informational only."""
    prof = series_profile(L)
    n, m, c = L.dim, prof.derived_dim, prof.nilpotency_class
    # On the adapted table γ₂ is the last m coordinates, so the RREF rows
    # of the centre with pivots below n − m span a complement of Z ∩ γ₂.
    center = _upper_step(prof.adapted, Subspace.zero(n))
    central_gens = sum(p < n - m for p in center.pivots)
    return rai_bound(n, m, c) - central_gens * m


# -- bound report -------------------------------------------------------------

class BoundReport(Record):
    """Every bound value for one algebra, with slacks against dim M(L).

    The fields niroomand_russo, rai, rai_refined and the two flags are
    None for abelian algebras (m = 0), where those bounds are not
    defined; ``to_dict`` omits them in that case.
    """

    name: str
    n: int
    m: int
    c: int
    dim_M: int
    batten: int
    hardy_stitzinger: int
    yankosky_closed: int
    niroomand_russo: int | None
    rai: int | None
    rai_refined: int | None
    slack: dict[str, int]
    theorem_holds: bool | None
    refined_holds: bool | None

    def to_dict(self) -> dict:
        return {k: v for k, v in vars(self).items() if v is not None}


def bound_report(L: LieAlgebra) -> BoundReport:
    """Assemble the full bound comparison for one algebra."""
    prof = series_profile(L)
    n, m, c = L.dim, prof.derived_dim, prof.nilpotency_class
    dim_m = _quotient_dims(prof.adapted, [n])[0]
    values: dict[str, int | None] = {
        "batten": batten(n),
        "hardy_stitzinger": hardy_stitzinger(n, m),
        "yankosky_closed": yankosky_closed(n, m),
        "niroomand_russo": None,
        "rai": None,
        "rai_refined": None,
    }
    if m >= 1:
        values["niroomand_russo"] = niroomand_russo(n, m)
        values["rai"] = rai_bound(n, m, c)
        values["rai_refined"] = rai_refined(L)
    slack = {key: v - dim_m for key, v in values.items() if v is not None}
    return BoundReport(
        name=L.name, n=n, m=m, c=c, dim_M=dim_m, **values, slack=slack,
        theorem_holds=None if m == 0 else dim_m <= values["rai"],
        refined_holds=None if m == 0 else dim_m <= values["rai_refined"],
    )


# -- telescoping --------------------------------------------------------------

def eq3_consistency(L: LieAlgebra) -> bool:
    """dim M(L) = dim M(L/γ₂) + (n-m-1)m − Σ_i dim ker(λ_i), exactly."""
    return _eq3_holds(ker_lambda_dims(L))


def _eq3_holds(profile: KernelProfile) -> bool:
    """eq3 on ``ker_lambda_dims`` rows.  Those define each kernel by the
    telescoping formula, so Σ_i ker λ_i = dim M(L/γ₂) − dim M(L) + (n-m-1)m
    identically, and the test reduces to dim M(L/γ₂) = C(n-m, 2).  Only a
    direct computation of the λ_i would give the sum test content."""
    n, m = profile.n, profile.m
    total_ker = sum(row.ker_lambda_i for row in profile.rows)
    abelian_part = comb(n - m, 2)
    if profile.rows and profile.rows[0].dim_M_of_L_mod_gamma_i != abelian_part:
        return False
    return profile.dim_M == abelian_part + (n - m - 1) * m - total_ker


# -- kernel witnesses ---------------------------------------------------------

class PsiWitness(Record):
    """Ψ_i tensors in (L/γ₂) ⊗ (γ_i/γ_{i+1}), checked.

    ``y`` and ``z`` hold 1-based positions into minimal_generators(L).
    A tensor is an integer row, its (cell, value) pairs with cells a·q + b
    ascending (L/γ₂ index a major), and Ψ_i is that row over ``scale``.
    The checks raise, so every record holds nonzero tensors of rank
    len(z) = n-m-i that the induced map into γ_{i+1}/γ_{i+2} kills; the
    rank is checked, not stored.

    Everything is computed on ``series_profile(L).adapted``, whose first
    n-m basis vectors are minimal_generators(L) and whose layer-i vectors
    are the RREF rows of γ_i off γ_{i+1}'s pivots, so the fields are the
    same as on L's own basis with those rows as quotient lifts.
    """

    i: int
    y: tuple[int, ...]
    z: tuple[int, ...]
    tensors: tuple[tuple[tuple[int, int], ...], ...]
    scale: int


def _witness_tuple(L: LieAlgebra, i: int, prof: SeriesProfile) -> tuple[int, ...]:
    """The first generator tuple whose left-normed bracket leaves γ_{i+1},
    2 <= i <= c, by a walk that brackets each prefix once on the adapted
    table: there the generators are the first n-m unit vectors and γ_k the
    last dim γ_k."""
    A, gens = prof.adapted, range(prof.gen_count - 1, -1, -1)
    stack = [((g,), {g: 1}) for g in gens]  # pops in lexicographic order
    while stack:
        tup, value = stack.pop()
        if all(k >= A.dim - prof.gamma(len(tup) + 1).dim for k in value):
            continue  # in γ_{j+1} at length j, so every extension is in γ_{i+1}
        if len(tup) == i:
            return tuple(t + 1 for t in tup)
        stack += [(tup + (t,), A._bracket(value, {t: 1})) for t in gens]
    # For i <= c, γ_i/γ_{i+1} is nonzero and spanned by these brackets.
    raise VerificationFailure(
        f"{L.name}: no weight-{i} generator bracket found outside γ_{i + 1}")


def psi_witnesses(L: LieAlgebra, i: int) -> PsiWitness:
    """Build and check the Ψ_i kernel witnesses.

    Takes the witness commutator (y_1..y_i), picks each z_j from the
    minimal generators outside {y_1..y_i}, and evaluates the i+1 terms
    of the degree-(i+1) identity: for a term [W, x_t], the class of the
    evaluated W goes into the γ_i/γ_{i+1} slot and the class of x_t
    into the L/γ₂ slot.  Verifies that every tensor is nonzero, that
    together they have rank n-m-i, and that the induced bracket map
    u̅ ⊗ w̅ ↦ [w, u] mod γ_{i+2} kills each of them.
    """
    from .free_lie import evaluate_in, lemma31_term_pairs

    prof = series_profile(L)
    n, m, c = L.dim, prof.derived_dim, prof.nilpotency_class
    if m < 1:
        raise RangeError("witnesses are defined for nonabelian algebras")
    if not 2 <= i <= min(n - m, c):
        raise RangeError(f"witness index {i} outside 2..min(n-m, c) = "
                         f"2..{min(n - m, c)}")
    y = _witness_tuple(L, i, prof)
    z = tuple(g for g in range(1, n - m + 1) if g not in set(y))[:n - m - i]

    # In the adapted basis γ_k is spanned by e_{n - dim γ_k}, ..., e_{n-1},
    # so γ_i/γ_{i+1} is the coordinate block lo..mid-1 and γ_{i+1}/γ_{i+2}
    # the block mid..hi-1; generator g is the unit vector e_{g-1}, its own
    # L/γ₂ representative.
    A = prof.adapted
    lo, mid, hi = (n - prof.gamma(k).dim for k in (i, i + 1, i + 2))
    q = mid - lo
    pairs = lemma31_term_pairs(i)

    # A tensor is a sparse row over the cells a·q + b: L/γ₂ slot a and
    # γ_i/γ_{i+1} coordinate lo + b.  Each W brackets i generators on
    # the integer table, so the integer tensors are D^(i-1) times Ψ_i.
    tensors = []
    for zj in z:
        slots = dict(enumerate(y, start=1))
        slots[i + 1] = zj
        values = {k: {g - 1: 1} for k, g in slots.items()}
        tensor: dict[int, int] = {}
        for w_expr, t_sym in pairs:
            w_val = evaluate_in(w_expr, A._bracket, values)
            base = (slots[t_sym] - 1) * q - lo
            for k, wb in w_val.items():
                if lo <= k < mid:
                    tensor[base + k] = tensor.get(base + k, 0) + wb
        tensor = tuple(sorted((cell, x) for cell, x in tensor.items() if x))
        if not tensor:
            raise VerificationFailure(f"{L.name}: Ψ_{i} tensor for z={zj} is zero")
        tensors.append(tensor)

    independence = len(_echelon(tensors))
    if independence != len(z):
        raise VerificationFailure(
            f"{L.name}: Ψ_{i} witnesses have rank {independence}, expected {len(z)}")

    # β sends u̅ ⊗ w̅ (cell a·q + b) to [w_b, u_a] mod γ_{i+2}, the block
    # mid..hi-1 of [e_{lo+b}, e_a].
    for zj, tensor in zip(z, tensors):
        image: dict[int, int] = {}
        for cell, x in tensor:
            a, b = divmod(cell, q)
            for k, v in A._bracket({lo + b: x}, {a: 1}).items():
                if mid <= k < hi:
                    image[k] = image.get(k, 0) + v
        if any(image.values()):
            raise VerificationFailure(
                f"{L.name}: Ψ_{i} witness for z={zj} escapes the kernel")
    return PsiWitness(i=i, y=y, z=z, tensors=tuple(tensors), scale=A._scale ** (i - 1))


# -- full verification --------------------------------------------------------

class TheoremVerification(Record):
    """What ``verify_theorem`` computed for one algebra; built only once every check passed."""

    report: BoundReport
    kernel: KernelProfile
    witnesses: tuple[PsiWitness, ...]
    yankosky_step_bound: int


def verify_theorem(L: LieAlgebra,
                   report: BoundReport | None = None) -> TheoremVerification:
    """Check every asserted property on one nonabelian algebra.

    Returns only when every check holds.  Raises VerificationFailure if
    a witness check fails, dim M(L) exceeds the rai bound, a kernel row
    misses its required range, eq3 fails, or the class-c quotient
    inequality fails, checked in that order.  A violated refined bound
    is recorded in the report, never raised.  ``report`` is
    ``bound_report(L)`` when the caller already holds it.
    """
    prof = series_profile(L)
    if prof.derived_dim == 0:
        raise RangeError("theorem applies to nonabelian algebras")
    if report is None:
        report = bound_report(L)
    kernel = ker_lambda_dims(L)
    n, m, c = report.n, report.m, report.c
    witnesses = tuple(psi_witnesses(L, i) for i in range(2, min(n - m, c) + 1))

    # The last kernel row is i = c, so it carries dim M(L/γ_c).
    dim_gc = prof.gamma(c).dim
    step = (kernel.rows[-1].dim_M_of_L_mod_gamma_i
            + (n - dim_gc) * dim_gc - dim_gc)

    if not report.theorem_holds:
        raise VerificationFailure(
            f"{L.name}: dim M = {report.dim_M} exceeds bound {report.rai}")
    if not kernel.all_satisfied:
        bad = [row.i for row in kernel.rows if not row.satisfied]
        raise VerificationFailure(
            f"{L.name}: kernel dimension check fails at i = {bad}")
    if not _eq3_holds(kernel):
        raise VerificationFailure(f"{L.name}: telescoping identity fails")
    if report.dim_M > step:
        raise VerificationFailure(
            f"{L.name}: class-c quotient inequality fails "
            f"({report.dim_M} > {step})")
    return TheoremVerification(report=report, kernel=kernel, witnesses=witnesses,
                               yankosky_step_bound=step)
