import gc
import random
import tracemalloc
import weakref

import pytest

from helpers import _change_basis, _seeded_unimodular, counted_calls

from nilmult import lie_core
from nilmult.catalog import build, default_manifest
from nilmult.analysis import (
    RangeError,
    VerificationFailure,
    _witness_tuple,
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
    yankosky_closed,
)
from nilmult.exactla import _echelon
from nilmult.free_lie import lemma31_term_pairs
from nilmult.homology import multiplier_dim
from nilmult.lie_core import LieAlgebra, SeriesProfile, quotient_algebra, series_profile

NONABELIAN_SMALL = [spec for spec in default_manifest(max_dim=6)
                    if not build(spec).is_abelian]
NONABELIAN_CORPUS = [spec for spec in default_manifest()
                     if not build(spec).is_abelian]


@pytest.mark.parametrize("n,expected", [(0, 0), (3, 3), (5, 10)])
def test_batten(n, expected):
    assert batten(n) == expected


@pytest.mark.parametrize("n,m,expected", [(3, 1, 2), (5, 1, 9), (4, 2, 4)])
def test_hardy_stitzinger(n, m, expected):
    assert hardy_stitzinger(n, m) == expected


@pytest.mark.parametrize("n,m,expected", [(3, 1, 2), (5, 1, 9), (4, 2, 3)])
def test_yankosky_closed(n, m, expected):
    assert yankosky_closed(n, m) == expected


@pytest.mark.parametrize("n,m,expected", [(3, 1, 2), (5, 1, 7), (4, 2, 3)])
def test_niroomand_russo(n, m, expected):
    assert niroomand_russo(n, m) == expected


def test_niroomand_russo_needs_derived():
    with pytest.raises(ValueError):
        niroomand_russo(4, 0)


@pytest.mark.parametrize("n,m,c,expected", [
    (3, 1, 2, 2), (5, 1, 2, 7), (5, 3, 3, 4), (4, 2, 3, 3),
])
def test_rai_bound(n, m, c, expected):
    assert rai_bound(n, m, c) == expected


@pytest.mark.parametrize("n,m,c", [(4, 0, 2), (4, 2, 1), (3, 2, 2)])
def test_rai_bound_preconditions(n, m, c):
    with pytest.raises(ValueError):
        rai_bound(n, m, c)


def _grid(max_n=12):
    for n in range(3, max_n + 1):
        for m in range(1, n - 1):
            for c in range(2, n):
                yield n, m, c


def test_dominance_chain():
    for n, m, c in _grid():
        r = rai_bound(n, m, c)
        nr = niroomand_russo(n, m)
        yk = yankosky_closed(n, m)
        assert r <= nr, (n, m, c)
        assert nr <= yk, (n, m)
        if n - m > 2:
            assert nr < yk, (n, m)
        assert yk <= batten(n), (n, m)


def test_dominance_equality_characterization():
    # rai equals niroomand_russo exactly when n-m <= 3 or c = 2; the
    # difference is sum_{i=3}^{min(n-m,c)} (n-m-i), which vanishes in
    # exactly those cases
    for n, m, c in _grid():
        equal = rai_bound(n, m, c) == niroomand_russo(n, m)
        assert equal == (n - m <= 3 or c == 2), (n, m, c)


def test_equality_cases_beyond_min_two():
    # witnesses that equality is not confined to min(n-m, c) = 2
    for n, m, c in [(5, 2, 3), (4, 1, 3), (6, 3, 3)]:
        assert min(n - m, c) > 2
        assert rai_bound(n, m, c) == niroomand_russo(n, m), (n, m, c)


def test_rai_refined_examples():
    assert rai_refined(build("heisenberg:1")) == 2
    assert rai_refined(build("heisenberg:2")) == 7
    assert rai_refined(build("dirsum:heisenberg:1+abelian:1")) == 3


def test_refined_value_counterexample_recorded():
    report = bound_report(build("dirsum:heisenberg:1+abelian:1"))
    assert report.dim_M == 4
    assert report.rai == 4
    assert report.rai_refined == 3
    assert report.theorem_holds is True
    assert report.refined_holds is False


def test_bound_report_slack_consistency():
    for spec in NONABELIAN_SMALL:
        report = bound_report(build(spec))
        for key, value in report.slack.items():
            assert value == getattr(report, key) - report.dim_M
        assert report.theorem_holds == (report.slack["rai"] >= 0)


def test_bound_report_abelian_omits_fields():
    report = bound_report(build("abelian:4"))
    assert report.niroomand_russo is None
    assert report.rai is None
    assert report.theorem_holds is None
    d = report.to_dict()
    assert "rai" not in d and "niroomand_russo" not in d
    assert d["dim_M"] == 6


def test_bound_report_dict_schema():
    d = bound_report(build("heisenberg:2")).to_dict()
    assert list(d) == ["name", "n", "m", "c", "dim_M", "batten",
                       "hardy_stitzinger", "yankosky_closed",
                       "niroomand_russo", "rai", "rai_refined", "slack",
                       "theorem_holds", "refined_holds"]


def test_kernel_rows_h3():
    profile = ker_lambda_dims(build("heisenberg:1"))
    assert len(profile.rows) == 1
    row = profile.rows[0]
    assert (row.i, row.ker_lambda_i, row.required_lower_bound) == (2, 0, 0)
    assert row.satisfied


def test_kernel_rows_filiform4():
    profile = ker_lambda_dims(build("filiform:4"))
    assert [(r.i, r.ker_lambda_i) for r in profile.rows] == [(2, 0), (3, 1)]
    assert profile.all_satisfied


def test_kernel_rows_heisenberg2():
    profile = ker_lambda_dims(build("heisenberg:2"))
    row = profile.rows[0]
    assert row.ker_lambda_i == 4
    assert row.required_lower_bound == 2
    assert row.domain_bound == 4
    assert row.satisfied


def test_kernel_requires_nonabelian():
    with pytest.raises(RangeError):
        ker_lambda_dims(build("abelian:3"))


@pytest.mark.parametrize("spec", NONABELIAN_SMALL)
def test_kernel_invariants(spec):
    profile = ker_lambda_dims(build(spec))
    n, m, c = profile.n, profile.m, profile.c
    for row in profile.rows:
        assert 0 <= row.ker_lambda_i <= row.domain_bound, spec
        if 2 <= row.i <= min(n - m, c):
            assert row.ker_lambda_i >= n - m - row.i, spec


@pytest.mark.parametrize("spec", NONABELIAN_SMALL)
def test_eq3_exact(spec):
    assert eq3_consistency(build(spec))


def test_witness_search_failure_is_a_check_failure():
    # An abelian adapted table has no bracket outside γ₃; only a bug in
    # the profile can get there, so it is a failed check, not bad input.
    L = build("heisenberg:2")
    prof = series_profile(L)
    prof = SeriesProfile(prof.lower, prof.nilpotency_class, prof.derived_dim,
                         prof.gen_count, adapted=LieAlgebra(5, {}))
    with pytest.raises(VerificationFailure,
                       match="^heisenberg:2: no weight-2 generator bracket"):
        _witness_tuple(L, 2, prof)


def test_witness_search_brackets_each_prefix_once(monkeypatch):
    # Most tuples of 11 generators of filiform:12 pass through a zero
    # prefix; bracketing each tuple from scratch takes 5,130 calls.
    L = build("filiform:12")
    prof = series_profile(L)
    calls = []
    bracket = LieAlgebra._bracket

    def counted(self, x, y):
        calls.append(None)
        return bracket(self, x, y)

    monkeypatch.setattr(LieAlgebra, "_bracket", counted)
    assert _witness_tuple(L, 11, prof) == (1, 2) + (1,) * 9
    assert len(calls) < 100


def test_psi_witnesses_heisenberg2():
    w = psi_witnesses(build("heisenberg:2"), 2)
    assert len(w.z) == 2
    assert len(_echelon(w.tensors)) == 2
    assert w.tensors == (((1, 1),), ((3, 1),)) and w.scale == 1


def test_psi_witnesses_h3_vacuous():
    w = psi_witnesses(build("heisenberg:1"), 2)
    assert w.z == ()
    assert w.tensors == ()


def test_psi_witnesses_freenil32():
    w = psi_witnesses(build("freenil:3,2"), 2)
    assert len(w.z) == 1
    assert len(_echelon(w.tensors)) == 1


def test_psi_witnesses_range_checks():
    with pytest.raises(RangeError):
        psi_witnesses(build("heisenberg:2"), 3)  # min(n-m, c) = 2
    with pytest.raises(RangeError):
        psi_witnesses(build("abelian:3"), 2)


def test_psi_without_terms_gives_a_zero_tensor(monkeypatch):
    monkeypatch.setattr("nilmult.free_lie.lemma31_term_pairs", lambda i: [])
    with pytest.raises(VerificationFailure,
                       match="^freenil:3,3: Ψ_2 tensor for z=3 is zero$"):
        psi_witnesses(build("freenil:3,3"), 2)


@pytest.mark.parametrize("dropped", range(3))
def test_psi_with_a_term_dropped_escapes_the_kernel(monkeypatch, dropped):
    pairs = lemma31_term_pairs(2)
    del pairs[dropped]
    monkeypatch.setattr("nilmult.free_lie.lemma31_term_pairs", lambda i: pairs)
    with pytest.raises(VerificationFailure,
                       match="^freenil:3,3: Ψ_2 witness for z=3 escapes the kernel$"):
        psi_witnesses(build("freenil:3,3"), 2)


def test_psi_with_one_term_in_a_y_slot_has_too_small_a_rank(monkeypatch):
    # ȳ_1 ⊗ [y_1, y_2] alone: the same nonzero tensor for z = 2 and z = 4,
    # which heisenberg:2's β (into γ₃ = 0) cannot tell apart
    w_expr, _ = lemma31_term_pairs(2)[0]
    monkeypatch.setattr("nilmult.free_lie.lemma31_term_pairs", lambda i: [(w_expr, 1)])
    with pytest.raises(VerificationFailure,
                       match="^heisenberg:2: Ψ_2 witnesses have rank 1, expected 2$"):
        psi_witnesses(build("heisenberg:2"), 2)


def test_psi_zs_avoid_ys():
    w = psi_witnesses(build("freenil:2,4"), 2)
    assert not set(w.z) & set(w.y)
    assert len(w.z) == len(set(w.z))


def test_verify_theorem_h3_equality():
    verification = verify_theorem(build("heisenberg:1"))
    assert verification.report.dim_M == verification.report.rai == 2
    assert verification.report.dim_M <= verification.yankosky_step_bound


def test_verify_theorem_rejects_abelian():
    with pytest.raises(RangeError):
        verify_theorem(build("abelian:4"))


def test_verify_theorem_records_refined_violation():
    verification = verify_theorem(build("dirsum:heisenberg:1+abelian:1"))
    assert verification.report.refined_holds is False


@pytest.mark.parametrize("spec", NONABELIAN_SMALL)
def test_verify_theorem_small_corpus(spec):
    verification = verify_theorem(build(spec))
    report = verification.report
    assert report.dim_M <= report.rai, spec
    assert verification.kernel.all_satisfied, spec
    assert report.dim_M <= verification.yankosky_step_bound, spec
    for w in verification.witnesses:
        assert len(_echelon(w.tensors)) == len(w.z), spec


def test_yankosky_step_value_h3():
    # dim M(L/gamma_c) + dim(L/gamma_c)*dim gamma_c - dim gamma_c = 1+2-1
    verification = verify_theorem(build("heisenberg:1"))
    assert verification.yankosky_step_bound == 2
    assert multiplier_dim(build("heisenberg:1")).dim_M <= 2


@pytest.mark.parametrize("spec", NONABELIAN_CORPUS)
def test_verify_theorem_reuses_kernel_rows(spec):
    L = build(spec)
    verification = verify_theorem(L)
    assert eq3_consistency(L), spec
    prof = series_profile(L)
    gamma_c = prof.gamma(prof.nilpotency_class)
    quotient, _ = quotient_algebra(L, gamma_c)
    g = gamma_c.dim
    expected = multiplier_dim(quotient).dim_M + (L.dim - g) * g - g
    assert verification.yankosky_step_bound == expected, spec


def test_verify_theorem_computes_series_once(monkeypatch):
    L = build("freenil:3,3")
    lowers = counted_calls(monkeypatch, lie_core, "_lower_series")
    verify_theorem(L)
    assert lowers == [L]


def test_analysed_algebras_are_freed_with_their_profiles():
    # the profile and the pivots live on the algebra and go with it; an
    # adapted input's profile holds the input itself, a cycle gc frees
    source = build("heisenberg:8")
    rng = random.Random(1)
    copies = [_change_basis(source, _seeded_unimodular(source.dim, rng)) for _ in range(10)]
    adapted = LieAlgebra(source.dim, source.table)
    assert series_profile(adapted).adapted is adapted
    freed = weakref.ref(adapted)
    gc.collect()
    tracemalloc.start()
    try:
        for L in copies:
            assert series_profile(L).adapted is not L
            bound_report(L)
            ker_lambda_dims(L)
        del copies, L, adapted
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert freed() is None
    assert kept < 0.25 * 2**20, f"{kept / 2**20:.2f} MB kept"


def test_built_algebras_are_freed_after_use():
    # build keeps no algebra, so one lives only as long as its caller holds it
    gc.collect()
    tracemalloc.start()
    try:
        for k in range(5, 25):
            bound_report(build(f"filiform:{k}"))
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 0.25 * 2**20, f"{kept / 2**20:.2f} MB kept"
