"""Text formats: frozen examples, error locations, round-trip properties."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superberezin.errors import ParseError
from superberezin.grassmann import GrassmannElement, Scalar
from superberezin.lie_super import gl11_algebra
from superberezin.suites import random_grassmann, random_superfunction
from superberezin.superdomain import (
    Interval,
    POSITIVE,
    REALLINE,
    Polynomial,
    SuperDomainShape,
    SuperFunction,
)
from superberezin.textio import (
    format_structure_constants,
    format_superfunction,
    format_supermatrix,
    parse_grassmann,
    parse_scalar,
    parse_structure_constants,
    parse_superfunction,
    parse_supermatrix,
)

DIAG_6_3 = """# block-diagonal example
1 1 0
6
0
0
3
"""


def test_diagonal_supermatrix_berezinian():
    matrix = parse_supermatrix(DIAG_6_3)
    assert str(matrix.berezinian()) == "2"


def test_supermatrix_with_odd_entries():
    text = """1 1 2
1 + xi1 xi2
xi1
xi2
2
"""
    matrix = parse_supermatrix(text)
    assert matrix.p == 1 and matrix.q == 1
    assert str(matrix.block("B")[0][0]) == "xi1"
    again = parse_supermatrix(format_supermatrix(matrix))
    assert again.entries == matrix.entries


def test_supermatrix_wrong_count_reports_header_line():
    with pytest.raises(ParseError) as info:
        parse_supermatrix("1 1 0\n1\n0\n0\n")
    assert info.value.line == 1


def test_element_error_column_is_exact():
    # the bogus token starts at column 5 of line 2
    with pytest.raises(ParseError) as info:
        parse_supermatrix("1 0 1\n1 + zeta\n")
    assert (info.value.line, info.value.column) == (2, 5)


def test_unsorted_odd_monomial_rejected():
    with pytest.raises(ParseError):
        parse_grassmann("xi2 xi1", 2)


def test_duplicate_odd_generator_rejected():
    with pytest.raises(ParseError):
        parse_grassmann("xi1 xi1", 2)


def test_dangling_sign_rejected():
    with pytest.raises(ParseError):
        parse_grassmann("1 +", 1)


def test_exponents_are_bounded_per_term():
    assert parse_scalar("s^1000") == Scalar(1, 1000)
    assert parse_scalar("s^-1000") == Scalar(1, -1000)
    with pytest.raises(ParseError) as info:
        parse_scalar("2 s^600 s^401")
    assert (info.value.line, info.value.column) == (1, 9)
    f = parse_superfunction("1 0 0\naxis R\nx1^600 x1^400 + x1^-1000 : 1\n")
    assert f.coefficient(()).coefficient((1000,)) == Scalar(1)
    with pytest.raises(ParseError) as info:
        parse_superfunction("1 0 0\naxis R\nx1 + x1^-600 x1^-401 : 1\n")
    assert (info.value.line, info.value.column) == (3, 14)


def test_overlong_numbers_are_parse_errors():
    digits = "7" * 5000
    for text in (digits, f"x{digits}", f"xi{digits}", f"s^{digits}"):
        with pytest.raises(ParseError) as info:
            parse_grassmann(text, 1)
        assert "number too long" in str(info.value)


def test_indices_start_at_one():
    for text in ("x0 : 1", "1 : xi0"):
        with pytest.raises(ParseError) as info:
            parse_superfunction(f"1 1 0\naxis R\n{text}\n")
        assert "start at 1" in str(info.value)
        assert info.value.line == 3


def test_repeated_terms_are_summed_and_cancelled():
    assert parse_grassmann("xi1 + 2 - xi1 + 1/2 xi1 xi2 - 2", 2) == \
        parse_grassmann("1/2 xi1 xi2", 2)
    assert str(parse_grassmann("xi1 - xi1", 1)) == "0"
    f = parse_superfunction("1 2 0\naxis R\n"
                            "x1 + 3 - x1 : xi1\n"
                            "2 x1^2 : 1\n"
                            "-3 : xi1\n"
                            "-2 x1^2 : 1\n"
                            "x1 - x1 : xi1 xi2\n")
    assert f.is_zero()
    g = parse_superfunction("1 1 0\naxis R\nx1 : xi1\n2 x1 + 1 : xi1\n")
    assert str(g.coefficient((0,))) == "1 + 3 x1"
    # terms whose powers of s differ are a sum, printed highest power first
    mixed = parse_grassmann("xi1 + s xi1 - 1 + 2 s^-1", 1)
    assert mixed == GrassmannElement(1, {(0,): Scalar(1, 1) + 1,
                                         (): Scalar(2, -1) - 1})
    assert str(mixed) == "-1 + 2 s^-1 + s xi1 + xi1"


def test_scalar_parsing():
    assert parse_scalar("3/4 s^2") == Scalar(Fraction(3, 4), 2)
    assert parse_scalar("-2") == Scalar(-2)
    assert parse_scalar("s") == Scalar(1, 1)
    assert parse_scalar("0") == Scalar.zero()
    assert parse_scalar("2 s - 1") == Scalar(2, 1) - 1
    assert str(parse_scalar("-1 + s 2/3 + s^-2")) == "2/3 s - 1 + s^-2"
    with pytest.raises(ParseError):
        parse_scalar("2 x1")


def test_superfunction_frozen_example():
    text = """2 2 1
axis 0 1
axis R
3 x1^2 - 1/2 x2 : 1
x1 : xi1 xi2
2 : xi3
"""
    f = parse_superfunction(text)
    assert f.shape == SuperDomainShape(
        2, (Interval(Fraction(0), Fraction(1)), REALLINE), 2, aux=1)
    assert f.coefficient((0, 1)).coefficient((1, 0)) == Scalar(1)
    assert f.coefficient((2,)).coefficient((0, 0)) == Scalar(2)


def test_superfunction_axis_forms():
    text = "1 0 0\naxis R+\n2 x1^-3 : 1\n"
    f = parse_superfunction(text)
    assert f.shape.box == (POSITIVE,)
    assert parse_superfunction(format_superfunction(f)) == f


def test_superfunction_bad_axis():
    with pytest.raises(ParseError):
        parse_superfunction("1 0 0\naxis 2 1\nx1 : 1\n")
    with pytest.raises(ParseError):
        parse_superfunction("1 0 0\naxis [0,1]\nx1 : 1\n")


def test_superfunction_sector_out_of_range():
    with pytest.raises(ParseError):
        parse_superfunction("1 1 0\naxis R\nx1 : xi2\n")


def test_structure_constants_gl11_round_trip():
    g = gl11_algebra()
    again = parse_structure_constants(format_structure_constants(g))
    assert again.names == g.names
    assert again.parities == g.parities
    for i in range(g.dim):
        for j in range(g.dim):
            assert again.bracket_basis(i, j) == g.bracket_basis(i, j)


def test_structure_constants_mirror_completion():
    text = """generators Z:even Q1:odd Q2:odd
1 2 -> 2 0 0
"""
    g = parse_structure_constants(text)
    # odd-odd antisymmetry has the + sign
    assert g.bracket_basis(2, 1) == (Fraction(2), Fraction(0), Fraction(0))


def test_structure_constants_duplicate_pair():
    text = """generators a:even b:even
0 1 -> 0 0
0 1 -> 1 0
"""
    with pytest.raises(ParseError) as info:
        parse_structure_constants(text)
    assert info.value.line == 3


def test_structure_constants_bad_parity():
    with pytest.raises(ParseError):
        parse_structure_constants("generators a:sideways\n")


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.integers(0, 4))
def test_grassmann_round_trip(seed, n):
    rng = random.Random(seed)
    element = random_grassmann(rng, n, max_terms=4)
    assert parse_grassmann(str(element), n) == element


_MIXED_COEFFS = st.lists(
    st.builds(Scalar, st.sampled_from([1, -1, 2, Fraction(-3, 2)]),
              st.integers(-2, 2)), min_size=1, max_size=3).map(
    lambda parts: sum(parts, Scalar.zero()))


@settings(max_examples=100, deadline=None)
@given(_MIXED_COEFFS, st.data())
def test_values_mixing_powers_of_s_round_trip(value, data):
    assert parse_scalar(str(value)) == value
    n = data.draw(st.integers(0, 3))
    element = GrassmannElement(n, data.draw(st.dictionaries(
        st.sets(st.integers(0, n - 1)).map(lambda s: tuple(sorted(s)))
        if n else st.just(()), _MIXED_COEFFS, max_size=4)))
    assert parse_grassmann(str(element), n) == element
    shape = SuperDomainShape(1, (POSITIVE,), n)
    f = SuperFunction(shape, {(): Polynomial(1, data.draw(st.dictionaries(
        st.tuples(st.integers(-2, 2)), _MIXED_COEFFS, min_size=1, max_size=3)))})
    assert parse_superfunction(format_superfunction(f)) == f


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.integers(0, 2), st.integers(0, 3))
def test_superfunction_round_trip(seed, m, n):
    rng = random.Random(seed)
    axes = tuple(rng.choice([REALLINE, POSITIVE,
                             Interval(Fraction(-1), Fraction(2))])
                 for _ in range(m))
    shape = SuperDomainShape(m, axes, n)
    f = random_superfunction(rng, shape, max_terms=5, max_deg=3)
    assert parse_superfunction(format_superfunction(f)) == f
