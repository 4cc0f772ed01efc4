"""Value semantics of the immutable records.

Each record is built from a real computation and checked for positional
and keyword construction, field-only equality and hashing, read-only
fields, ``vars`` in declared field order, and its construction checks.
"""

from fractions import Fraction

import pytest

from helpers import expand_to_lyndon, span

from nilmult.analysis import (
    BoundReport,
    KernelProfile,
    KernelRow,
    PsiWitness,
    TheoremVerification,
    bound_report,
    ker_lambda_dims,
    psi_witnesses,
    verify_theorem,
)
from nilmult.catalog import build
from nilmult.exactla import DimensionMismatch, Matrix, Subspace
from nilmult.free_lie import BracketExpr, FreeLieElement, br, gen
from nilmult.homology import MultiplierResult, multiplier_dim
from nilmult.lie_core import SeriesProfile, series_profile

# Declared field order; the JSON payloads of multiplier, kernel and
# bounds are read off vars() in this order.
FIELDS = {
    Matrix: ("rows", "cols", "entries"),
    Subspace: ("ambient_dim", "rows", "pivots"),
    SeriesProfile: ("lower", "nilpotency_class", "derived_dim", "gen_count",
                    "adapted"),
    MultiplierResult: ("n", "rank_d2", "rank_d3", "dim_M"),
    BracketExpr: ("symbol", "left", "right"),
    FreeLieElement: ("terms",),
    BoundReport: ("name", "n", "m", "c", "dim_M", "batten", "hardy_stitzinger",
                  "yankosky_closed", "niroomand_russo", "rai", "rai_refined",
                  "slack", "theorem_holds", "refined_holds"),
    KernelRow: ("i", "dim_gamma_i_mod_next", "dim_M_of_L_mod_gamma_i",
                "ker_lambda_i", "required_lower_bound", "domain_bound",
                "satisfied"),
    KernelProfile: ("name", "n", "m", "c", "dim_M", "rows"),
    PsiWitness: ("i", "y", "z", "tensors", "scale"),
    TheoremVerification: ("report", "kernel", "witnesses", "yankosky_step_bound"),
}

# BoundReport holds its slacks in a dict, so it and the verification
# that carries it are unhashable, as before.
UNHASHABLE = (BoundReport, TheoremVerification)


def _sample(cls):
    L = build("filiform:5")
    return {
        Matrix: lambda: Matrix.from_rows([[1, 2], [3, 4]]),
        Subspace: lambda: span(3, [[1, 1, 0], [0, 0, 2]]),
        SeriesProfile: lambda: series_profile(L),
        MultiplierResult: lambda: multiplier_dim(L),
        BracketExpr: lambda: br(gen(1), br(gen(2), gen(3))),
        FreeLieElement: lambda: expand_to_lyndon(br(gen(2), gen(1))),
        BoundReport: lambda: bound_report(L),
        KernelRow: lambda: ker_lambda_dims(L).rows[0],
        KernelProfile: lambda: ker_lambda_dims(L),
        PsiWitness: lambda: psi_witnesses(L, 2),
        TheoremVerification: lambda: verify_theorem(L),
    }[cls]()


RECORDS = list(FIELDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_vars_lists_the_fields_in_declared_order(cls):
    assert list(vars(_sample(cls))) == list(FIELDS[cls])


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_positional_and_keyword_construction_give_equal_records(cls):
    record = _sample(cls)
    values = [getattr(record, name) for name in FIELDS[cls]]
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(FIELDS[cls], values)))
    mixed = cls(values[0], **dict(zip(FIELDS[cls][1:], values[1:])))
    assert by_position == by_keyword == mixed == record
    assert by_position is not record
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(by_position) == hash(by_keyword) == hash(record)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_fields_are_read_only(cls):
    record = _sample(cls)
    first = FIELDS[cls][0]
    before = getattr(record, first)
    with pytest.raises(AttributeError):
        setattr(record, first, None)
    with pytest.raises(AttributeError):
        delattr(record, first)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    assert getattr(record, first) is before
    assert list(vars(record)) == list(FIELDS[cls])


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_repr_names_every_field(cls):
    record = _sample(cls)
    text = repr(record)
    assert text.startswith(f"{cls.__name__}(") and text.endswith(")")
    for name in FIELDS[cls]:
        assert f"{name}=" in text


def test_repr_matches_the_keyword_form():
    result = MultiplierResult(3, 1, 0, 2)
    assert repr(result) == "MultiplierResult(n=3, rank_d2=1, rank_d3=0, dim_M=2)"
    assert repr(gen(4)) == "BracketExpr(symbol=4, left=None, right=None)"


def test_equality_is_by_value_and_by_class():
    assert MultiplierResult(3, 1, 0, 2) == MultiplierResult(3, 1, 0, 2)
    assert MultiplierResult(3, 1, 0, 2) != MultiplierResult(4, 2, 0, 4)
    assert gen(1) != gen(2)
    assert br(gen(1), gen(2)) == br(gen(1), gen(2))
    assert Matrix(1, 1, ((Fraction(1),),)) != (1, 1, ((Fraction(1),),))
    assert FreeLieElement(()) != Matrix(0, 0, ())
    assert len({gen(1), gen(1), gen(2)}) == 2


def test_subspace_hash_and_equality_leave_out_the_cached_basis():
    a = span(3, [[1, 1, 0], [0, 0, 2]])
    b = span(3, [[2, 2, 4], [1, 1, 0]])
    assert a.basis is a.basis  # cached in the instance dict
    assert "basis" in vars(a) and "basis" not in vars(b)
    assert a == b
    assert hash(a) == hash(b) == hash((3, (0, 2)))
    assert a != span(3, [[1, 0, 0], [0, 0, 1]])


@pytest.mark.parametrize("build_bad", [
    lambda: MultiplierResult(),
    lambda: MultiplierResult(3, 1, 0),
    lambda: MultiplierResult(3, 1, 0, 2, 5),
    lambda: MultiplierResult(3, 1, 0, dim_Q=2),
    lambda: MultiplierResult(3, 1, 0, 2, n=3),
    lambda: FreeLieElement(terms=(), extra=1),
    lambda: BracketExpr(),
    lambda: Subspace(3, ()),
], ids=["none", "missing", "too-many", "unknown", "repeated", "extra", "bracket",
        "subspace"])
def test_malformed_construction_is_a_type_error(build_bad):
    with pytest.raises(TypeError):
        build_bad()


def test_construction_checks_still_raise():
    with pytest.raises(DimensionMismatch, match="ragged rows"):
        Matrix(2, 2, ((1, 2), (3,)))
    with pytest.raises(DimensionMismatch, match="row count"):
        Matrix(3, 2, ((1, 2), (3, 4)))
    with pytest.raises(DimensionMismatch, match="ragged rows"):
        Matrix.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError, match="inconsistent multiplier bookkeeping"):
        MultiplierResult(n=3, rank_d2=1, rank_d3=0, dim_M=1)
    with pytest.raises(ValueError, match="either a symbol or a pair"):
        BracketExpr(1, gen(2), gen(3))
    with pytest.raises(ValueError, match="either a symbol or a pair"):
        BracketExpr(None)
    with pytest.raises(ValueError, match="needs both children"):
        BracketExpr(None, gen(2))
