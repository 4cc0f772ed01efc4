from fractions import Fraction
from pathlib import Path

import pytest

from helpers import _witt, counted_calls

from nilmult import catalog, free_lie, homology, lie_core
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
from nilmult.lie_core import JacobiViolation, _lower_series, direct_sum, series_profile

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
    for summand in ("heisenberg:1", "filiform:4"):
        build(summand)  # cached from here on
    certified = counted_calls(monkeypatch, lie_core, "_d3_columns")  # builds and certifies
    spec = "dirsum:heisenberg:1+filiform:4"
    L = catalog._build(spec)  # the uncached builder, so the sum itself is built
    assert len(certified) == 1 and certified[0] is L  # the one table certified is the sum's


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
    """Integer tables reach the echelon without a Fraction: building the
    families and parsing an integer .lie text, then ranking d2 and d3 and
    the lower central series, all with their caches bypassed."""
    text = "algebra ints\ndim 5\nbracket 1 2 -> 2*3 -1*4\nbracket 1 3 -> +3*5\nbracket 2 4 -> -2*5\nend\n"
    calls = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        calls.append(args)
        return new(cls, *args, **kwargs)

    free_lie._lyndon_tensor.cache_clear()
    monkeypatch.setattr(Fraction, "__new__", counting)
    algebras = [freenil(2, 5), filiform(12), heisenberg(4), parse_file(text)]
    for L in algebras:
        homology.multiplier_dim.__wrapped__(L)
        _lower_series(L)
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
