import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (_seeded_unimodular, _witt, counted_calls, generated_algebras, lie_text,
                     reference_jacobi_failure, table_in_basis, unimodular)

from nilmult import free_lie, homology, lie_core
from nilmult.analysis import bound_report, ker_lambda_dims
from nilmult.catalog import (
    DIM_GUARD,
    ParseError,
    SpecError,
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
from nilmult.cli import main
from nilmult.exactla import basis_vector
from nilmult.lie_core import (JacobiViolation, LieAlgebra, NotNilpotent, _canonical_table, _lower_series,
                              direct_sum, series_profile, upper_series)

DATA = Path(__file__).parent / "data"


def test_build_heisenberg_table():
    L = build("heisenberg:1")
    assert L.table == {(0, 1): {2: Fraction(1)}}
    assert L.name == "heisenberg:1"


def test_build_filiform_table():
    L = build("filiform:4")
    assert L.table == {(0, 1): {2: Fraction(1)}, (0, 2): {3: Fraction(1)}}


def test_build_dirsum():
    L = build("dirsum:heisenberg:1+abelian:1")
    assert L.dim == 4
    assert L.name == "dirsum:heisenberg:1+abelian:1"
    assert L.table == {(0, 1): {2: Fraction(1)}}


def test_build_nested_sum_of_three():
    L = build("dirsum:abelian:1+heisenberg:1+abelian:2")
    assert L.dim == 6


def test_dirsum_of_three_keeps_name_and_table():
    spec = "dirsum:heisenberg:1+abelian:1+filiform:4"
    L = build(spec)
    assert L.name == spec
    assert L.dim == 8
    assert L.table == {(0, 1): {2: 1}, (4, 5): {6: 1}, (4, 6): {7: 1}}


def test_dirsum_of_built_summands_checks_jacobi_once(monkeypatch):
    # each summand is built and certified, then the sum: three tables, each once
    certified = counted_calls(monkeypatch, lie_core, "_d3_columns")  # builds and certifies
    L = build("dirsum:heisenberg:1+filiform:4")
    assert len(certified) == len(set(certified)) == 3 and certified[-1] is L


def test_a_dirsum_of_three_builds_one_sum(monkeypatch):
    # one construction beyond the three summands, equal to the pairwise fold
    made = counted_calls(monkeypatch, LieAlgebra, "_of")
    certified = counted_calls(monkeypatch, lie_core, "_d3_columns")
    L = build("dirsum:heisenberg:1+abelian:1+filiform:4")
    assert len(made) == 1 and len(certified) == len(set(certified)) == 4 and certified[-1] is L
    monkeypatch.undo()
    parts = [build(spec) for spec in ("heisenberg:1", "abelian:1", "filiform:4")]
    assert L == direct_sum(direct_sum(parts[0], parts[1]), parts[2])
    assert direct_sum(*parts).name == "heisenberg:1+abelian:1+filiform:4"


@pytest.mark.parametrize("spec", [
    "heisenberg:2", "freenil:2,3", "dirsum:heisenberg:1+filiform:4",
    pytest.param(f"file:{DATA / 'good_heisenberg.lie'}", id="file:good_heisenberg.lie"),
])
def test_build_makes_a_new_equal_algebra_on_every_call(spec):
    assert build(spec) == build(spec)
    assert build(spec) is not build(spec)


@pytest.mark.parametrize("bad", [
    "abelian", "abelian:x", "heisenberg:0", "filiform:2", "unknown:3",
    "freenil:2", "freenil:0,2", "dirsum:abelian:1", "abelian:200",
    "freenil:4,4", "freenil:70,1", "freenil:2,16000", f"freenil:2,{10 ** 40}",
    "freenil:1,65", f"freenil:1,{10 ** 40}",
    "dirsum:abelian:40+abelian:40", "dirsum:abelian:30+abelian:30+abelian:30",
    # spec integers are ASCII digits only: no separators, signs, spaces
    # or other scripts' digits
    "abelian:3_0", "heisenberg:0_1", "freenil:2, 3", "abelian:+3",
    "abelian:\u0663", "dirsum:abelian:1_0+heisenberg:1",
    # past int()'s digit limit (4300 digits, from Python 3.10.7 and 3.11)
    pytest.param(f"abelian:{'9' * 5000}", id="abelian:<5000 nines>"),
    pytest.param(f"freenil:2,{'9' * 5000}", id="freenil:2,<5000 nines>"),
])
def test_bad_specs_rejected(bad):
    with pytest.raises(SpecError) as info:
        build(bad)
    # the CLI prints one short line, naming a past-limit integer by its digit count
    assert len(f"error: {info.value}".encode()) < 200
    if "9" * 5000 in bad:
        assert str(info.value) == "spec integer has 5000 digits"


def test_dirsum_at_the_dimension_guard_builds():
    # The guard bounds the total dimension, so a sum of exactly 64 passes.
    assert build("dirsum:abelian:32+abelian:32").dim == 64


def test_freenil_rank_one_class_guard():
    # freenil:1,c is one-dimensional for every c; only its class is bounded.
    assert build("freenil:1,64") == abelian(1)
    with pytest.raises(SpecError, match="class > 64"):
        build("freenil:1,65")


def test_freenil_guard_totals_match_the_moebius_sum():
    # The guard counts the dimension by the divisor recursion; this oracle
    # is the Moebius sum over the divisors of each degree.
    for d in range(1, DIM_GUARD + 1):
        for c in range(1, DIM_GUARD + 1):
            total = sum(_witt(d, k) for k in range(1, c + 1))
            if total <= DIM_GUARD:
                assert build(f"freenil:{d},{c}").dim == total, (d, c)
                continue
            with pytest.raises(SpecError) as info:
                freenil(d, c)
            assert str(info.value) == f"freenil:{d},{c} has dimension {total} > {DIM_GUARD}"
    for spec, message in [("freenil:4,4", "freenil:4,4 has dimension 90 > 64"),
                          ("freenil:11,2", "freenil:11,2 has dimension 66 > 64")]:
        with pytest.raises(SpecError) as info:
            build(spec)
        assert str(info.value) == message


@pytest.mark.parametrize("k", [1, 2, 3])
def test_heisenberg_profile(k):
    prof = series_profile(heisenberg(k))
    assert (2 * k + 1, prof.derived_dim, prof.nilpotency_class) == (2 * k + 1, 1, 2)


@pytest.mark.parametrize("n", range(3, 8))
def test_filiform_profile(n):
    prof = series_profile(filiform(n))
    assert prof.derived_dim == n - 2
    assert prof.nilpotency_class == n - 1


@pytest.mark.parametrize("d,c", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)])
def test_freenil_profile(d, c):
    prof = series_profile(freenil(d, c))
    assert prof.gen_count == d
    assert prof.nilpotency_class == c


def test_abelian_profile():
    prof = series_profile(abelian(5))
    assert prof.derived_dim == 0
    assert prof.gen_count == 5


def test_corpus_composition():
    specs = default_manifest()
    algebras = [build(spec) for spec in specs]
    nonabelian = [L for L in algebras if not L.is_abelian]
    assert len(nonabelian) >= 20
    assert list(specs) == sorted(specs)
    assert "freenil:3,3" in specs
    big = [L for L in algebras if L.dim > 8]
    assert [L.name for L in big] == ["freenil:3,3"]


def test_corpus_max_dim_filter():
    assert all(build(s).dim <= 5 for s in default_manifest(max_dim=5))


def test_corpus_deterministic():
    assert default_manifest() == default_manifest()


def test_manifest_dimensions_in_closed_form_match_the_built_algebras(monkeypatch):
    """The manifest builds no algebra: it reads its members' dimensions in
    closed form.  Its filter agrees with the built dimension of every spec
    at every bound up to 15, which fixes each spec's dimension (at most 14)."""
    constructed = counted_calls(monkeypatch, lie_core.LieAlgebra, "__init__")
    manifests = {k: default_manifest(k) for k in (None, *range(16))}
    monkeypatch.undo()
    assert constructed == []
    dims = {spec: build(spec).dim for spec in manifests[None]}
    for k, specs in manifests.items():
        assert specs == tuple(s for s in dims if k is None or dims[s] <= k), k
    assert [len(manifests[k]) for k in (None, 8, 5, 0)] == [70, 69, 19, 0]


def test_parse_good_file():
    L = load_file(str(DATA / "good_heisenberg.lie"))
    assert L.name == "h3-from-file"
    assert L == build("heisenberg:1")


def test_a_byte_order_mark_is_dropped(tmp_path, capsys):
    plain = DATA / "good_heisenberg.lie"
    marked = tmp_path / "bom.lie"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    L = load_file(str(marked))
    assert (L, L.name) == (load_file(str(plain)), "h3-from-file")
    printed = []
    for path in (plain, marked):
        assert main(["multiplier", f"file:{path}"]) == 0
        printed.append(capsys.readouterr())
    assert printed[0] == printed[1]


@pytest.mark.parametrize("name,lineno,fragment", [
    ("bad_pair_order.lie", 4, "i < j"),
    ("bad_coefficient.lie", 4, "non-rational"),
    ("bad_index.lie", 3, "undeclared basis index"),
])
def test_malformed_files(name, lineno, fragment):
    text = (DATA / name).read_text()
    with pytest.raises(ParseError) as info:
        parse_file(text)
    assert info.value.line == lineno
    assert fragment in str(info.value)
    assert f"line {lineno}:" in str(info.value)


def test_parse_rejects_jacobi_failure():
    text = "algebra bad\ndim 3\nbracket 1 2 -> 1*3\nbracket 1 3 -> 1*1\nend\n"
    with pytest.raises(JacobiViolation):
        parse_file(text)


def _violation(expected):
    triple, residual = expected
    return triple, residual, str(JacobiViolation(*triple, residual))


def _perturbed(L, data):
    """L's table with one constant perturbed: in L's adapted basis at a
    target past the layer after b's, then in a random unimodular basis (an
    abelian L anywhere, in its own basis).  The perturbed bracket keeps a
    central filtration, so the series often succeeds, and then only the
    adapted table's own check can catch a Jacobi failure."""
    n, prof = L.dim, series_profile(L)
    table = prof.adapted.table
    a, b = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True).map(sorted))
    # in the adapted basis, b lies in the layer γ_i/γ_{i+1} with n - dim γ_{i+1} > b
    past = min((n - g.dim for g in prof.lower if n - g.dim > b), default=n)
    k = data.draw(st.sampled_from(range(past, n) if past < n else range(n)))
    entry = table.setdefault((a, b), {})
    entry[k] = entry.get(k, 0) + data.draw(st.sampled_from([-2, -1, 1, 2]))
    table = {pair: e for pair, e in table.items() if any(e.values())}
    return table if L.is_abelian else table_in_basis(n, table, data.draw(unimodular(n)))


def _violation(expected):
    triple, residual = expected
    return triple, residual, str(JacobiViolation(*triple, residual))


def _parses_as_the_input_check_says(n, table):
    """parse_file raises what the input-basis check raises, triple, residual
    and message, or certifies the table as it stands."""
    expected = reference_jacobi_failure(n, table)
    if expected is None:
        assert parse_file(lie_text("perturbed", n, table)).table == table
    else:
        with pytest.raises(JacobiViolation) as info:
            parse_file(lie_text("perturbed", n, table))
        assert (info.value.triple, info.value.residual, str(info.value)) == _violation(expected)
    return expected


@given(generated_algebras(), st.data())
@settings(max_examples=100, deadline=None)
def test_a_file_is_certified_as_its_input_basis_check_would(L, data):
    # generated algebras are in random bases already; unperturbed, each is certified
    assert reference_jacobi_failure(L.dim, L.table) is None
    assert parse_file(lie_text(L.name, L.dim, L.table)) == L
    _parses_as_the_input_check_says(L.dim, _perturbed(L, data))


@pytest.mark.parametrize("spec", ["filiform:6", "dirsum:heisenberg:1+filiform:4"])
def test_the_adapted_check_catches_what_the_series_lets_through(spec):
    # every +1 perturbation past the layer after b's, in one dense basis:
    # where the series succeeds and the input is no Lie algebra, the adapted
    # table's own check is what fails, and parse_file reports the input's
    # first failing triple all the same
    L = build(spec)
    n, prof = L.dim, series_profile(L)
    p = _seeded_unimodular(n, random.Random(1))
    caught = 0
    for a, b in itertools.combinations(range(n), 2):
        past = min((n - g.dim for g in prof.lower if n - g.dim > b), default=n)
        for k in range(past, n):
            table = L.table
            entry = table.setdefault((a, b), {})
            entry[k] = entry.get(k, 0) + 1
            table = table_in_basis(n, table, p)
            if _parses_as_the_input_check_says(n, table) is not None:
                raw = object.__new__(LieAlgebra)  # uncertified, for the series alone
                raw.dim, raw.name = n, "raw"
                raw._ints, raw._scale = _canonical_table(n, table)
                with pytest.raises(JacobiViolation):
                    raw._profile  # the adapted table's construction raises
                caught += 1
    assert caught > 0


def test_a_file_neither_lie_nor_nilpotent_reports_the_jacobi_failure():
    # sl2 with [e, h] = -3e, [f, h] = 2f: the Jacobiator of (e, f, h) is h,
    # and γ₂ is the whole space
    table = {(0, 1): {2: 1}, (0, 2): {0: -3}, (1, 2): {1: 2}}
    raw = object.__new__(LieAlgebra)  # uncertified, for the series alone
    raw.dim, raw.name = 3, "raw"
    raw._ints, raw._scale = _canonical_table(3, table)
    with pytest.raises(NotNilpotent):
        _lower_series(raw)
    with pytest.raises(JacobiViolation) as info:
        parse_file(lie_text("bad", 3, table))
    expected = reference_jacobi_failure(3, table)
    assert expected[0] == (0, 1, 2)
    assert (info.value.triple, info.value.residual, str(info.value)) == _violation(expected)


@pytest.mark.parametrize("name", ["sl2", "sl2_h3", "sl2_r2"])
def test_a_lie_file_that_is_not_nilpotent_is_certified_on_its_own_columns(name):
    L = load_file(str(DATA / f"{name}.lie"))
    assert L._certified is L
    with pytest.raises(NotNilpotent):
        series_profile(L)


@pytest.mark.parametrize("text,fragment", [
    ("dim 3\nend\n", "'dim' before 'algebra'"),
    ("algebra a\ndim 3\n", "missing 'end'"),
    ("algebra a\ndim 3\nend\nbracket 1 2 -> 1*3\n", "after 'end'"),
    ("algebra a\ndim 3\nbracket 1 2 -> 1*3 2*3\nend\n", "repeated basis index"),
    ("algebra a\ndim 3\nbracket 1 2 -> 1*3\nbracket 1 2 -> 1*3\nend\n",
     "duplicate bracket pair"),
    ("algebra a\ndim 3\nwibble\nend\n", "unknown keyword"),
    ("algebra a\ndim 3\nbracket 1 2 -> 1/0*3\nend\n", "non-rational"),
    ("algebra a\ndim ²\nend\n", "'dim' needs one nonnegative integer"),
    ("algebra a\ndim\nend\n", "line 2: 'dim' needs one nonnegative integer"),
    ("algebra a\ndim 3 4\nend\n", "line 2: 'dim' needs one nonnegative integer"),
    pytest.param(f"algebra a\ndim {'9' * 5000}\nend\n", "line 2: 'dim' value has 5000 digits",
                 id="dim-5000-nines"),
    # int() and Fraction() read these; the format takes ASCII digits only.
    ("algebra a\ndim ٣\nend\n", "line 2: 'dim' needs one nonnegative integer"),
    ("algebra a\ndim 3\nbracket 1 0_2 -> 1*3\nend\n", "line 3: bracket indices must be integers"),
    ("algebra a\ndim 3\nbracket +1 2 -> 1*3\nend\n", "line 3: bracket indices must be integers"),
    ("algebra a\ndim 3\nbracket 1 ٢ -> 1*3\nend\n", "line 3: bracket indices must be integers"),
    ("algebra a\ndim 3\nbracket 1 2 -> 1*٣\nend\n", "line 3: bad basis index '٣'"),
    ("algebra a\ndim 3\nbracket 1 2 -> 1*+3\nend\n", "line 3: bad basis index '+3'"),
    ("algebra a\ndim 3\nbracket 1 2 -> 1_0*3\nend\n", "line 3: non-rational coefficient '1_0'"),
    ("algebra a\ndim 3\nbracket 1 2 -> 1/2_0*3\nend\n", "line 3: non-rational coefficient"),
    ("algebra a\ndim 3\nbracket 1 2 -> 1.5*3\nend\n", "line 3: non-rational coefficient '1.5'"),
    ("algebra a\ndim 3\nbracket 1 2 -> 1e2*3\nend\n", "line 3: non-rational coefficient '1e2'"),
    ("algebra a\ndim 3\nbracket 1 2 -> ١*3\nend\n", "line 3: non-rational coefficient '١'"),
    ("algebra a\ndim 3\nbracket 1 2 -> -/2*3\nend\n", "line 3: non-rational coefficient"),
])
def test_more_malformed_cases(text, fragment):
    with pytest.raises(ParseError) as info:
        parse_file(text)
    assert fragment in str(info.value)


@pytest.mark.parametrize("integral, rational", [("2", "2/1"), ("-1", "-2/2")])
def test_integer_and_rational_coefficients_parse_alike(integral, rational):
    """An integer coefficient is read as an int and p/q as a Fraction; the
    two spellings of one value give equal algebras with equal hashes."""
    text = "algebra a\ndim 3\nbracket 1 2 -> {}*3\nend\n"
    a, b = parse_file(text.format(integral)), parse_file(text.format(rational))
    assert a == b and hash(a) == hash(b)
    assert a.table == {(0, 1): {2: Fraction(int(integral))}}


def test_integer_inputs_create_no_fraction(monkeypatch):
    """Integer tables reach every record without a Fraction: building the
    families, parsing an integer .lie text and summing algebras, then
    ranking d2 and d3, the lower and upper central series, the adapted
    table, the bound report and the kernel rows, with the caches bypassed."""
    text = "algebra ints\ndim 5\nbracket 1 2 -> 2*3 -1*4\nbracket 1 3 -> +3*5\nbracket 2 4 -> -2*5\nend\n"
    calls = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        calls.append(args)
        return new(cls, *args, **kwargs)

    free_lie._lyndon_tensor.cache_clear()
    monkeypatch.setattr(Fraction, "__new__", counting)
    algebras = [freenil(2, 5), filiform(12), heisenberg(4), parse_file(text)]
    algebras += [direct_sum(algebras[2], algebras[3]),
                 build("dirsum:heisenberg:2+filiform:5+freenil:2,3")]
    for L in algebras:
        homology.multiplier_dim.__wrapped__(L)
        _lower_series(L)
        upper_series(L)
        bound_report(L)
        ker_lambda_dims(L)
    monkeypatch.undo()
    assert calls == []


def test_round_trip_whole_corpus():
    for spec in default_manifest():
        L = build(spec)
        again = parse_file(serialize(L))
        assert again == L, spec
        assert again.name == L.name, spec


def test_round_trip_rational_coefficients():
    text = "algebra q\ndim 3\nbracket 1 2 -> 1/2*3 -2/7*1\nend\n"
    L = parse_file(text)
    assert parse_file(serialize(L)) == L
    assert L.bracket(basis_vector(3, 0), basis_vector(3, 1)) == (
        Fraction(-2, 7), Fraction(0), Fraction(1, 2))


def test_signed_coefficients():
    signed = parse_file("algebra q\ndim 3\nbracket 1 2 -> +1/2*3 -2*1\nend\n")
    assert signed == parse_file("algebra q\ndim 3\nbracket 1 2 -> 1/2*3 -2*1\nend\n")


def test_file_spec_reads_from_disk():
    L = build(f"file:{DATA / 'good_heisenberg.lie'}")
    assert L.dim == 3


def test_dirsum_file_summand_is_reread(tmp_path):
    path = tmp_path / "x.lie"
    spec = f"dirsum:file:{path}+abelian:1"
    path.write_text(serialize(build("heisenberg:1")))
    before = build(spec)
    path.write_text(serialize(build("abelian:3")))
    after = build(spec)
    assert not before.is_abelian
    assert after.is_abelian
    assert after.dim == 4


def test_dirsum_file_path_with_plus(tmp_path):
    folder = tmp_path / "a+b"
    folder.mkdir()
    path = folder / "h.lie"
    path.write_text(serialize(build("filiform:4")))
    spec = f"dirsum:file:{path}+abelian:1+heisenberg:1"
    L = build(spec)
    parts = direct_sum(direct_sum(build("filiform:4"), build("abelian:1")),
                       build("heisenberg:1"))
    assert L == parts
    assert L.name == spec


def test_file_spec_missing_path():
    with pytest.raises(SpecError):
        build("file:/nonexistent/nowhere.lie")


def test_binary_file_is_spec_error(tmp_path):
    path = tmp_path / "binary.lie"
    path.write_bytes(b"\x9c\xff\x00algebra")
    with pytest.raises(SpecError, match="cannot read"):
        load_file(str(path))


def test_dim_past_int_digit_limit():
    text = f"algebra big\ndim {'9' * 5000}\nend\n"
    with pytest.raises(ParseError) as info:
        parse_file(text)
    assert info.value.line == 2


def test_trailing_newline_optional():
    text = "algebra t\ndim 2\nend"
    assert parse_file(text).dim == 2
