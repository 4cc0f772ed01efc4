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

The kernel bookkeeping tracks, for each 2 <= i <= c, the dimension of
the kernel of the bracket-induced map

    λ_i : L/γ₂ ⊗ γ_i/γ_{i+1}  -->  (section of weight i+1)

obtained from multiplier dimensions of the quotients L/γ_i: each is a
pivot count of the d2 and d3 echelons of the adapted table, on which γ_i
is a trailing coordinate span, so no quotient algebra is built.  The
witnesses Ψ_i (``psi_witnesses``) evaluate the degree-(i+1) commutator
identity at the first tuple of minimal generators whose left-normed
bracket leaves γ_{i+1}, a search on the adapted table (``_witness_tuple``).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .exactla import Subspace, _dense, _echelon
from .homology import _quotient_dims
from .lie_core import LieAlgebra, SeriesProfile, _upper_step, series_profile
from .record import Record

Vector = tuple[Fraction, ...]


class RangeError(ValueError):
    """Index argument outside its documented range."""


class VerificationFailure(Exception):
    """A checked property failed; signals an implementation bug."""

    def __init__(self, message: str, payload=None):
        super().__init__(message)
        self.payload = payload


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


# -- kernel bookkeeping -------------------------------------------------------

class KernelRow(Record):
    """Kernel dimension of λ_i and the checks it must satisfy.

    ``satisfied`` demands both the required lower bound and membership
    in [0, domain_bound], where domain_bound = (n-m)·dim(γ_i/γ_{i+1})
    is the dimension of the λ_i domain.
    """

    i: int
    dim_gamma_i_mod_next: int
    dim_M_of_L_mod_gamma_i: int
    ker_lambda_i: int
    required_lower_bound: int
    domain_bound: int
    satisfied: bool


class KernelProfile(Record):
    """Rows for i = 2..c plus the surrounding dimensions."""

    name: str
    n: int
    m: int
    c: int
    dim_M: int
    rows: tuple[KernelRow, ...]

    @property
    def all_satisfied(self) -> bool:
        return all(row.satisfied for row in self.rows)


def ker_lambda_dims(L: LieAlgebra) -> KernelProfile:
    """dim ker(λ_i) for 2 <= i <= c by quotient-multiplier bookkeeping.

    dim ker(λ_i) = dim M(L/γ_i) + (n-m-1)·dim(γ_i/γ_{i+1}) − dim M(L/γ_{i+1}).
    """
    prof = series_profile(L)
    n, m, c = L.dim, prof.derived_dim, prof.nilpotency_class
    if m == 0:
        raise RangeError("kernel bookkeeping requires a nonabelian algebra")
    # dim M(L/γ_i) for i = 2..c+1 (the last is dim M(L)); on the adapted
    # table, L/γ_i is the first n − dim γ_i coordinates.
    quotient_dims = _quotient_dims(prof.adapted,
                                   [n - prof.gamma(i).dim for i in range(2, c + 2)])
    rows = []
    for i in range(2, c + 1):
        layer = prof.gamma(i).dim - prof.gamma(i + 1).dim
        ker = quotient_dims[i - 2] + (n - m - 1) * layer - quotient_dims[i - 1]
        required = max(0, n - m - i)
        domain = (n - m) * layer
        rows.append(KernelRow(
            i=i, dim_gamma_i_mod_next=layer,
            dim_M_of_L_mod_gamma_i=quotient_dims[i - 2],
            ker_lambda_i=ker, required_lower_bound=required,
            domain_bound=domain,
            satisfied=required <= ker <= domain))
    return KernelProfile(name=L.name, n=n, m=m, c=c,
                         dim_M=quotient_dims[-1], rows=tuple(rows))


def eq3_consistency(L: LieAlgebra) -> bool:
    """dim M(L) = dim M(L/γ₂) + (n-m-1)m − Σ_i dim ker(λ_i), exactly."""
    return _eq3_holds(ker_lambda_dims(L))


def _eq3_holds(profile: KernelProfile) -> bool:
    n, m = profile.n, profile.m
    total_ker = sum(row.ker_lambda_i for row in profile.rows)
    abelian_part = comb(n - m, 2)
    if profile.rows and profile.rows[0].dim_M_of_L_mod_gamma_i != abelian_part:
        return False
    return profile.dim_M == abelian_part + (n - m - 1) * m - total_ker


# -- kernel witnesses ---------------------------------------------------------

class PsiWitness(Record):
    """Ψ_i tensors in (L/γ₂) ⊗ (γ_i/γ_{i+1}) and their checks.

    ``y`` and ``z`` hold 1-based positions into minimal_generators(L);
    tensor coordinates are flattened with the L/γ₂ index major.  Each
    bracket image is the image of the corresponding tensor under the
    induced map into γ_{i+1}/γ_{i+2} and must be the zero vector.

    Everything is computed on ``series_profile(L).adapted``, whose first
    n-m basis vectors are minimal_generators(L) and whose layer-i vectors
    are the RREF rows of γ_i off γ_{i+1}'s pivots, so the fields are the
    same as on L's own basis with those rows as quotient lifts.
    """

    i: int
    y: tuple[int, ...]
    z: tuple[int, ...]
    tensors: tuple[Vector, ...]
    independence_rank: int
    bracket_images: tuple[Vector, ...]


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
        tensor = {cell: x for cell, x in tensor.items() if x}
        if not tensor:
            raise VerificationFailure(f"{L.name}: Ψ_{i} tensor for z={zj} is zero")
        tensors.append(tensor)

    independence = len(_echelon(tensors))
    if independence != len(z):
        raise VerificationFailure(
            f"{L.name}: Ψ_{i} witnesses have rank {independence}, expected {len(z)}")

    # β sends u̅ ⊗ w̅ (cell a·q + b) to [w_b, u_a] mod γ_{i+2}, the block
    # mid..hi-1 of [e_{lo+b}, e_a].
    images = []
    for zj, tensor in zip(z, tensors):
        image: dict[int, int] = {}
        for cell, x in tensor.items():
            a, b = divmod(cell, q)
            for k, v in A._bracket({lo + b: x}, {a: 1}).items():
                if mid <= k < hi:
                    image[k - mid] = image.get(k - mid, 0) + v
        if any(image.values()):
            raise VerificationFailure(
                f"{L.name}: Ψ_{i} witness for z={zj} escapes the kernel")
        images.append(image)
    width = (n - m) * q
    return PsiWitness(i=i, y=y, z=z,
                      tensors=tuple(_dense(t, width, A._scale ** (i - 1)) for t in tensors),
                      independence_rank=independence,
                      bracket_images=tuple(_dense(im, hi - mid) for im in images))


# -- full verification --------------------------------------------------------

class TheoremVerification(Record):
    """Everything checked for one algebra, for reporting."""

    report: BoundReport
    kernel: KernelProfile
    witnesses: tuple[PsiWitness, ...]
    eq3_ok: bool
    yankosky_step_bound: int
    yankosky_step_ok: bool


def verify_theorem(L: LieAlgebra,
                   report: BoundReport | None = None) -> TheoremVerification:
    """Check every asserted property on one nonabelian algebra.

    Raises VerificationFailure if dim M(L) exceeds the rai bound, a
    kernel row misses its required range, eq3 fails, the class-c
    quotient inequality fails, or a witness check fails.  A violated
    refined bound is recorded in the report, never raised.  ``report``
    is ``bound_report(L)`` when the caller already holds it.
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
    verification = TheoremVerification(
        report=report, kernel=kernel, witnesses=witnesses,
        eq3_ok=_eq3_holds(kernel),
        yankosky_step_bound=step,
        yankosky_step_ok=report.dim_M <= step)

    if not report.theorem_holds:
        raise VerificationFailure(
            f"{L.name}: dim M = {report.dim_M} exceeds bound {report.rai}",
            verification)
    if not kernel.all_satisfied:
        bad = [row.i for row in kernel.rows if not row.satisfied]
        raise VerificationFailure(
            f"{L.name}: kernel dimension check fails at i = {bad}", verification)
    if not verification.eq3_ok:
        raise VerificationFailure(f"{L.name}: telescoping identity fails",
                                  verification)
    if not verification.yankosky_step_ok:
        raise VerificationFailure(
            f"{L.name}: class-c quotient inequality fails "
            f"({report.dim_M} > {step})", verification)
    return verification
