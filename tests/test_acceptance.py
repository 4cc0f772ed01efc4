"""End-to-end acceptance checks.

Each test covers one numbered acceptance criterion and prints a single
PASS/FAIL line (visible even under captured output) before asserting.
"""

import json
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import pytest

from helpers import is_zero_vector

from nilmult import (
    abelian,
    build,
    default_manifest,
    eq3_consistency,
    ker_lambda_dims,
    multiplier_dim,
    niroomand_russo,
    parse_file,
    psi_witnesses,
    quotient_algebra,
    rai_bound,
    series_profile,
    verify_lemma31,
)
from nilmult.cli import main
from nilmult.exactla import _echelon, basis_vector

DATA = Path(__file__).parent / "data"


def _report(capsys, num, ok, detail):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"\nacceptance criterion {num:2d}: {status} - {detail}")


@pytest.fixture(scope="module")
def corpus():
    return [build(spec) for spec in default_manifest()]


def test_criterion_01_lemma_residuals(capsys):
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "nilmult", "verify", "lemma", "--arity-max", "6"],
        capture_output=True, text=True, timeout=60)
    elapsed = time.monotonic() - start
    lines = proc.stdout.splitlines()
    residuals_ok = all(f"i={i}: 0" in lines for i in range(3, 7))
    library_ok = all(verify_lemma31(i).is_zero for i in range(3, 7))
    ok = proc.returncode == 0 and residuals_ok and library_ok and elapsed < 30
    _report(capsys, 1, ok,
            f"arity 3..6 residuals zero, cold CLI run in {elapsed:.2f}s")
    assert proc.returncode == 0, proc.stderr
    assert residuals_ok, proc.stdout
    assert library_ok
    assert elapsed < 30


def test_criterion_02_abelian_anchor(capsys, corpus):
    anchor_ok = all(
        multiplier_dim(abelian(n)).dim_M == n * (n - 1) // 2
        for n in range(9))
    below = [L for L in corpus if not L.is_abelian
             and multiplier_dim(L).dim_M < comb(L.dim, 2)]
    nonabelian = [L for L in corpus if not L.is_abelian]
    ok = anchor_ok and len(below) == len(nonabelian)
    _report(capsys, 2, ok,
            f"abelian dims 0..8 hit n(n-1)/2; all {len(nonabelian)} "
            "nonabelian members strictly below")
    assert anchor_ok
    assert len(below) == len(nonabelian)


def test_criterion_03_main_bound_on_corpus(capsys, corpus):
    nonabelian = [L for L in corpus if not L.is_abelian]
    violations = []
    for L in nonabelian:
        profile = series_profile(L)
        bound = rai_bound(L.dim, profile.derived_dim,
                          profile.nilpotency_class)
        if multiplier_dim(L).dim_M > bound:
            violations.append(L.name)
    ok = len(nonabelian) >= 20 and not violations
    _report(capsys, 3, ok,
            f"dim M <= bound on all {len(nonabelian)} nonabelian members "
            f"(need >= 20); violations: {violations or 'none'}")
    assert len(nonabelian) >= 20
    assert not violations


def test_criterion_04_kernel_inequality(capsys, corpus):
    checked = 0
    failures = []
    for L in corpus:
        if L.is_abelian:
            continue  # min(n-m, c) < 2: no admissible i
        profile = ker_lambda_dims(L)
        n, m = profile.n, profile.m
        assert [row.i for row in profile.rows] == list(range(2, profile.c + 1))
        for row in profile.rows:
            upper = (n - m) * row.dim_gamma_i_mod_next
            if not (0 <= row.ker_lambda_i <= upper and row.satisfied):
                failures.append((L.name, row.i))
            if row.i > min(n - m, profile.c):
                continue  # lower bound applies to 2 <= i <= min(n-m, c)
            checked += 1
            if row.ker_lambda_i < n - m - row.i:
                failures.append((L.name, row.i))
    ok = checked > 0 and not failures
    _report(capsys, 4, ok,
            f"{checked} kernel rows within [max(0, n-m-i), (n-m)*layer]; "
            f"failures: {failures or 'none'}")
    assert checked > 0
    assert not failures


def test_criterion_05_telescoping(capsys, corpus):
    failures = []
    for L in corpus:
        if L.is_abelian:
            # Degenerate telescoping: no kernel terms, dim M = C(n, 2).
            if multiplier_dim(L).dim_M != comb(L.dim, 2):
                failures.append(L.name)
        elif not eq3_consistency(L):
            failures.append(L.name)
    ok = not failures
    _report(capsys, 5, ok,
            f"telescoped multiplier identity exact on all {len(corpus)} "
            f"members; failures: {failures or 'none'}")
    assert not failures


def test_criterion_06_quotient_step_bound(capsys, corpus):
    # The quotient-step inequality presumes class >= 2 (for abelian L the
    # right side degenerates to -n), so it is checked on the nonabelian
    # members.
    checked = 0
    failures = []
    for L in corpus:
        if L.is_abelian:
            continue
        profile = series_profile(L)
        gamma_c = profile.gamma(profile.nilpotency_class)
        quotient, _ = quotient_algebra(L, gamma_c)
        bound = (multiplier_dim(quotient).dim_M
                 + quotient.dim * gamma_c.dim - gamma_c.dim)
        checked += 1
        if multiplier_dim(L).dim_M > bound:
            failures.append(L.name)
    ok = checked >= 20 and not failures
    _report(capsys, 6, ok,
            f"dim M(L) <= dim M(L/g_c) + dim(L/g_c)*dim(g_c) - dim(g_c) on "
            f"{checked} nonabelian members; failures: {failures or 'none'}")
    assert checked >= 20
    assert not failures


def _bracket_images(profile, witness):
    """Each tensor's image under u̅ ⊗ w̅ ↦ [w, u] mod γ_{i+2}, on the
    adapted table, where γ_k spans the last dim γ_k basis vectors."""
    A, i = profile.adapted, witness.i
    lo, mid, hi = (A.dim - profile.gamma(k).dim for k in (i, i + 1, i + 2))
    images = []
    for tensor in witness.tensors:
        image = [0] * (hi - mid)
        for cell, x in tensor:
            a, b = divmod(cell, mid - lo)
            value = A.bracket(basis_vector(A.dim, lo + b), basis_vector(A.dim, a))
            image = [s + x * v for s, v in zip(image, value[mid:hi])]
        images.append(image)
    return images


def test_criterion_07_psi_witnesses(capsys, corpus):
    checked = 0
    failures = []
    for L in corpus:
        if L.is_abelian:
            continue
        profile = series_profile(L)
        n, m, c = L.dim, profile.derived_dim, profile.nilpotency_class
        for i in range(2, min(n - m, c) + 1):
            witness = psi_witnesses(L, i)
            checked += 1
            images_zero = all(is_zero_vector(v) for v in _bracket_images(profile, witness))
            if not (len(_echelon(witness.tensors)) == n - m - i
                    and len(witness.tensors) == n - m - i
                    and images_zero):
                failures.append((L.name, i))
    ok = checked > 0 and not failures
    _report(capsys, 7, ok,
            f"{checked} witness sets with rank exactly n-m-i and vanishing "
            f"bracket images; failures: {failures or 'none'}")
    assert checked > 0
    assert not failures


def test_criterion_08_dominance_equality_grid(capsys):
    # Claim under test: on the grid below, bound <= niroomand_russo, and the
    # gap between them is sum_{i=3}^{min(n-m, c)} (n-m-i).  The i = 2 term of
    # the bound's correction cancels the -(n-m-1) + 1 that separates the two
    # leading terms, and the remaining terms are >= 0 with the i = 3 term
    # zero when n-m = 3.  So the bounds are equal exactly when n-m <= 3 or
    # c = 2, not only when min(n-m, c) = 2: (n, m, c) = (5, 2, 3) is equal.
    start = time.monotonic()
    inequality_failures = []
    gap_mismatches = []
    equality_mismatches = []
    for n in range(3, 13):
        for m in range(1, n - 1):
            for c in range(2, n):
                rai = rai_bound(n=n, m=m, c=c)
                nr = niroomand_russo(n=n, m=m)
                if rai > nr:
                    inequality_failures.append((n, m, c))
                gap = sum(n - m - i for i in range(3, min(n - m, c) + 1))
                if nr - rai != gap:
                    gap_mismatches.append((n, m, c))
                if (rai == nr) != (n - m <= 3 or c == 2):
                    equality_mismatches.append((n, m, c))
    elapsed = time.monotonic() - start
    failures = inequality_failures + gap_mismatches + equality_mismatches
    ok = not failures and elapsed < 5
    _report(capsys, 8, ok,
            f"grid n<=12 in {elapsed:.2f}s: bound <= NR, gap = "
            f"sum_{{i=3}}^{{min(n-m,c)}} (n-m-i), equality iff n-m <= 3 or "
            f"c = 2; failures: {failures[:3] or 'none'}"
            f"{'...' if len(failures) > 3 else ''}")
    assert elapsed < 5
    assert not inequality_failures, (
        "bound exceeds niroomand_russo at (n, m, c) = "
        f"{inequality_failures[0]}")
    assert not gap_mismatches, (
        "niroomand_russo - bound differs from sum_{i=3}^{min(n-m, c)} "
        f"(n-m-i) at (n, m, c) = {gap_mismatches[0]}")
    assert not equality_mismatches, (
        "bound == niroomand_russo does not match 'n-m <= 3 or c = 2' at "
        f"(n, m, c) = {equality_mismatches[0]}")


def test_criterion_09_locked_values(capsys):
    expected = {
        "heisenberg:1": 2,
        "heisenberg:2": 5,
        "filiform:4": 2,
        "dirsum:heisenberg:1+abelian:1": 4,
    }
    actual = {spec: multiplier_dim(build(spec)).dim_M for spec in expected}
    ok = actual == expected
    _report(capsys, 9, ok, f"locked multiplier dimensions {actual}")
    assert actual == expected


def test_criterion_10_refined_value_probe(capsys):
    code = main(["verify", "corpus", "--json"])
    captured = capsys.readouterr()
    records = json.loads(captured.out)
    violators = [r["name"] for r in records if r["refined_ok"] is False]
    strict_code = main(["verify", "corpus", "--strict-remark"])
    strict_err = capsys.readouterr().err
    ok = (code == 0 and "refined" in captured.err and violators
          and "dirsum:abelian:1+heisenberg:1" in violators
          and strict_code == 1)
    _report(capsys, 10, ok,
            f"{len(violators)} members have refined value below dim M "
            f"(exit 0 + warning; exit 1 under --strict-remark)")
    assert code == 0
    assert "refined" in captured.err
    assert "dirsum:abelian:1+heisenberg:1" in violators
    assert strict_code == 1
    assert "refined" in strict_err


def test_criterion_11_parser_round_trip(capsys, corpus):
    from nilmult import serialize

    mismatches = [L.name for L in corpus if parse_file(serialize(L)) != L]
    fixture_results = []
    for fixture, line in [("bad_pair_order.lie", 4),
                          ("bad_coefficient.lie", 4),
                          ("bad_index.lie", 3)]:
        code = main(["info", f"file:{DATA / fixture}"])
        err = capsys.readouterr().err
        fixture_results.append(code == 2 and f"line {line}" in err)
    ok = not mismatches and all(fixture_results)
    _report(capsys, 11, ok,
            f"round trip exact on {len(corpus)} members; 3 malformed files "
            "rejected with line numbers and exit 2")
    assert not mismatches
    assert all(fixture_results)
