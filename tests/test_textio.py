"""Text formats: frozen examples, error locations, round-trip properties,
and the reader against the token-based reader it replaced."""

import random
import re
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superberezin.errors import ParseError
from superberezin.grassmann import GrassmannElement, Scalar
from superberezin.lie_super import EVEN, ODD, LieSuperAlgebra, gl11_algebra
from superberezin.suites import (
    random_even_supermatrix,
    random_grassmann,
    random_superfunction,
)
from superberezin.superdomain import (
    Interval,
    POSITIVE,
    REALLINE,
    Polynomial,
    SuperDomainShape,
    SuperFunction,
)
from superberezin.supermatrix import SuperMatrix
from superberezin.textio import (
    MAX_EXPONENT,
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
    # a (0|0) matrix has no entry to read N from: the header keeps it, and
    # its Berezinian is the empty product
    empty = parse_supermatrix("0 0 5\n")
    assert format_supermatrix(empty) == "0 0 5\n"
    assert str(empty.berezinian()) == "1"


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
    with pytest.raises(ParseError, match="line 1, column 1: empty scalar"):
        parse_scalar("")


def test_superfunction_frozen_example():
    text = """2 3 0
axis 0 1
axis R
3 x1^2 - 1/2 x2 : 1
x1 : xi1 xi2
2 : xi3
"""
    f = parse_superfunction(text)
    assert f.shape == SuperDomainShape(
        2, (Interval(Fraction(0), Fraction(1)), REALLINE), 3)
    assert f.coefficient((0, 1)).coefficient((1, 0)) == Scalar(1)
    assert f.coefficient((2,)).coefficient((0, 0)) == Scalar(2)


def test_superfunction_header_reserved_field():
    # the third header field is reserved: written as 0, refused otherwise
    shape = SuperDomainShape(1, (REALLINE,), 2)
    text = format_superfunction(SuperFunction.odd_gen(shape, 1))
    assert text == "1 2 0\naxis R\n1 : xi2\n"
    with pytest.raises(ParseError) as info:
        parse_superfunction(text.replace("1 2 0", "1 2 -1"))
    assert (info.value.line, info.value.column) == (1, 5)


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


# ---------------------------------------------------------------------------
# the token-based reader, kept as the oracle of the one-pass reader: every
# word becomes a _Token with its line and column, every term a _Term, and
# values are built through the public constructors

_RATIONAL = re.compile(r"-?\d+(/\d+)?\Z")
_FACTOR = re.compile(
    r"(?:xi(\d+)|(-?\d+(?:/\d+)?)|(s)(?:\^(-?\d+))?|x(\d+)(?:\^(-?\d+))?)\Z")
_WORD = re.compile(r"\S+")


class _Token:
    """A word of the input and its 1-based line and column."""

    __slots__ = ("text", "line", "column")

    def __init__(self, text: str, line: int, column: int):
        self.text = text
        self.line = line
        self.column = column


def _content_lines(text: str):
    """(line_number, tokens) for every line with content; comments stripped."""
    out = []
    for no, raw in enumerate(text.splitlines(), 1):
        body = raw.split("#", 1)[0]
        tokens = [_Token(m.group(), no, m.start() + 1)
                  for m in _WORD.finditer(body)]
        if tokens:
            out.append((no, tokens))
    return out


def _fail(token: _Token, message: str):
    raise ParseError(message, token.line, token.column)


def _int(token: _Token) -> int:
    try:
        return int(token.text)
    except ValueError:
        _fail(token, f"expected an integer, got {token.text!r}")


def _fraction(token: _Token) -> Fraction:
    if not _RATIONAL.match(token.text):
        _fail(token, f"expected a rational number, got {token.text!r}")
    try:
        return Fraction(token.text)
    except ZeroDivisionError:
        _fail(token, f"zero denominator in rational {token.text!r}")
    except ValueError:  # more digits than the interpreter converts
        _fail(token, "number too long")


def _digits(token: _Token, text: str) -> int:
    """A number written inside a factor token (index or exponent)."""
    try:
        return int(text)
    except ValueError:  # more digits than the interpreter converts
        _fail(token, "number too long")


def _index(token: _Token, text: str) -> int:
    """The 0-based position of a 1-based variable or generator index."""
    i = _digits(token, text) - 1
    if i < 0:
        _fail(token, "variable and generator indices start at 1")
    return i


def _exponent(token: _Token, total: int, text: str) -> int:
    """total plus the exponent text, within the grammar's bound."""
    total += _digits(token, text)
    if abs(total) > MAX_EXPONENT:
        _fail(token, f"exponent {total} exceeds the bound "
                     f"|e| <= {MAX_EXPONENT}")
    return total


@dataclass
class _Term:
    coefficient: Scalar
    even: dict[int, int]       # 0-based variable -> exponent
    odd: tuple[int, ...]       # 0-based generators, strictly increasing


def _parse_terms(tokens: list[_Token]) -> list[_Term]:
    """Split a token run at '+'/'-' separators and read each term."""
    groups: list[list[_Token]] = []
    signs: list[int] = []
    current: list[_Token] = []
    sign = 1
    for tok in tokens:
        if tok.text in ("+", "-"):
            if not current:
                _fail(tok, "dangling sign")
            groups.append(current)
            signs.append(sign)
            current, sign = [], (1 if tok.text == "+" else -1)
        else:
            current.append(tok)
    if not current:
        _fail(tokens[-1], "expression ends with a sign")
    groups.append(current)
    signs.append(sign)

    terms = []
    for sgn, group in zip(signs, groups):
        coeff = sgn
        gauss = 0
        even: dict[int, int] = {}
        odd: list[int] = []
        saw_coefficient = False
        lead = group[0]
        if (lead.text.startswith("-") and len(lead.text) > 1
                and not _RATIONAL.match(lead.text)):
            # a suppressed unit coefficient fuses its minus onto the factor
            coeff = -coeff
            group = [_Token(lead.text[1:], lead.line, lead.column + 1),
                     *group[1:]]
        for tok in group:
            m = _FACTOR.match(tok.text)
            if m is None:
                _fail(tok, f"unrecognised factor {tok.text!r}")
            j, number, gauss_mark, k, i, e = m.groups()
            if j is not None:
                j = _index(tok, j)
                if odd and j <= odd[-1]:
                    _fail(tok, "odd generators must be distinct and "
                               "listed in increasing order")
                odd.append(j)
            elif number is not None:
                if saw_coefficient:
                    _fail(tok, "two coefficients in one term")
                saw_coefficient = True
                # an integral coefficient stays an int
                coeff *= _fraction(tok) if "/" in number else _digits(tok, number)
            elif gauss_mark:
                gauss = _exponent(tok, gauss, k or "1")
            else:
                i = _index(tok, i)
                even[i] = _exponent(tok, even.get(i, 0), e or "1")
        terms.append(_Term(Scalar(coeff, gauss), even, tuple(odd)))
    return terms


def old_parse_scalar(text: str) -> Scalar:
    tokens = [t for _, toks in _content_lines(text) for t in toks]
    if not tokens:
        raise ParseError("empty scalar", 1, 1)
    total = Scalar.zero()
    for term in _parse_terms(tokens):
        if term.even or term.odd:
            raise ParseError("scalar may not contain variables",
                             tokens[0].line, tokens[0].column)
        total = total + term.coefficient
    return total


def _element_from_tokens(tokens: list[_Token], n: int) -> GrassmannElement:
    terms = []
    for term in _parse_terms(tokens):
        if term.even:
            _fail(tokens[0], "even variables are not allowed in an "
                             "algebra element")
        for j in term.odd:
            if j >= n:
                _fail(tokens[0], f"generator xi{j + 1} exceeds the "
                                 f"declared count {n}")
        terms.append((term.odd, term.coefficient))
    return GrassmannElement(n, terms)


def old_parse_grassmann(text: str, n: int) -> GrassmannElement:
    tokens = [t for _, toks in _content_lines(text) for t in toks]
    if not tokens:
        raise ParseError("empty element", 1, 1)
    return _element_from_tokens(tokens, n)


def _polynomial_from_tokens(tokens: list[_Token], m: int) -> Polynomial:
    terms = []
    for term in _parse_terms(tokens):
        if term.odd:
            _fail(tokens[0], "odd generators belong after the colon")
        exps = [0] * m
        for i, e in term.even.items():
            if i >= m:
                _fail(tokens[0], f"variable x{i + 1} exceeds the declared "
                                 f"count {m}")
            exps[i] = e
        terms.append((tuple(exps), term.coefficient))
    return Polynomial(m, terms)


def old_parse_supermatrix(text: str) -> SuperMatrix:
    lines = _content_lines(text)
    if not lines:
        raise ParseError("empty supermatrix file", 1, 1)
    _, header = lines[0]
    if len(header) != 3:
        _fail(header[0], "header must be 'p q N'")
    p, q, n = (_int(t) for t in header)
    if p < 0 or q < 0 or n < 0:
        _fail(header[0], "header entries must be nonnegative")
    size = p + q
    if len(lines) - 1 != size * size:
        _fail(header[0],
              f"expected {size * size} element lines, found {len(lines) - 1}")
    entries = []
    flat = [_element_from_tokens(tokens, n) for _, tokens in lines[1:]]
    for r in range(size):
        entries.append(flat[r * size:(r + 1) * size])
    return SuperMatrix(p, q, entries, zero=GrassmannElement.zero(n),
                       one=GrassmannElement.scalar(n, 1))


def _parse_axis(tokens: list[_Token]):
    if tokens[0].text != "axis":
        _fail(tokens[0], "expected an 'axis' line")
    rest = tokens[1:]
    if len(rest) == 1 and rest[0].text == "R":
        return REALLINE
    if len(rest) == 1 and rest[0].text == "R+":
        return POSITIVE
    if len(rest) == 2:
        lo, hi = _fraction(rest[0]), _fraction(rest[1])
        if lo >= hi:
            _fail(rest[0], "interval bounds must be increasing")
        return Interval(lo, hi)
    _fail(tokens[0], "axis must be 'R', 'R+' or two rational bounds")


def old_parse_superfunction(text: str) -> SuperFunction:
    lines = _content_lines(text)
    if not lines:
        raise ParseError("empty superfunction file", 1, 1)
    _, header = lines[0]
    if len(header) != 3:
        _fail(header[0], "header must be 'm n 0'")
    m, n, reserved = (_int(t) for t in header)
    if m < 0 or n < 0:
        _fail(header[0], "header entries must be nonnegative")
    if reserved != 0:
        _fail(header[2], "the aux field is reserved and must be 0")
    if len(lines) - 1 < m:
        _fail(header[0], f"expected {m} axis lines")
    axes = tuple(_parse_axis(tokens) for _, tokens in lines[1:1 + m])
    shape = SuperDomainShape(m, axes, n)

    sectors = []
    for _, tokens in lines[1 + m:]:
        split = [k for k, t in enumerate(tokens) if t.text == ":"]
        if len(split) != 1:
            _fail(tokens[0], "term line must be '<polynomial> : <xi-monomial>'")
        k = split[0]
        left, right = tokens[:k], tokens[k + 1:]
        if not left or not right:
            _fail(tokens[k], "missing polynomial or xi-monomial")
        poly = _polynomial_from_tokens(left, m)
        if len(right) == 1 and right[0].text == "1":
            idx: tuple[int, ...] = ()
        else:
            sector = _parse_terms(right)
            if len(sector) != 1 or sector[0].even \
                    or sector[0].coefficient != Scalar(1):
                _fail(right[0], "the sector must be a plain xi-monomial")
            idx = sector[0].odd
            for j in idx:
                if j >= n:
                    _fail(right[0], f"generator xi{j + 1} exceeds the "
                                    f"declared count {n}")
        sectors.append((idx, poly))
    return SuperFunction(shape, sectors)


def old_parse_structure_constants(text: str) -> LieSuperAlgebra:
    lines = _content_lines(text)
    if not lines:
        raise ParseError("empty structure-constant file", 1, 1)
    _, header = lines[0]
    if header[0].text != "generators" or len(header) < 2:
        _fail(header[0], "header must be 'generators name:parity ...'")
    names, parities = [], []
    for tok in header[1:]:
        if ":" not in tok.text:
            _fail(tok, "generator must be written name:parity")
        name, _, parity = tok.text.partition(":")
        if parity not in ("even", "odd") or not name:
            _fail(tok, "parity must be 'even' or 'odd'")
        names.append(name)
        parities.append(EVEN if parity == "even" else ODD)
    dim = len(names)

    brackets: dict[tuple[int, int], tuple[Fraction, ...]] = {}
    for _, tokens in lines[1:]:
        if len(tokens) != 3 + dim or tokens[2].text != "->":
            _fail(tokens[0], f"bracket line must be 'i j -> {dim} rationals'")
        i, j = _int(tokens[0]), _int(tokens[1])
        if not (0 <= i < dim and 0 <= j < dim):
            _fail(tokens[0], "generator index out of range")
        if (i, j) in brackets:
            _fail(tokens[0], f"duplicate bracket line for pair ({i}, {j})")
        brackets[(i, j)] = tuple(_fraction(t) for t in tokens[3:])
    return LieSuperAlgebra(names, parities, brackets)




# ---------------------------------------------------------------------------
# the reader against the oracle


def _exact(value):
    """A value with the type of every stored coefficient, so that an int
    and an equal Fraction, or a non-canonical term, tell the readers apart."""
    if isinstance(value, SuperMatrix):
        return (value.p, value.q, value.parity,
                tuple(_exact(e) for row in value.entries for e in row))
    if isinstance(value, LieSuperAlgebra):
        return (tuple(value.names), tuple(value.parities),
                tuple(value.bracket_basis(i, j) for i in range(value.dim)
                      for j in range(value.dim)))
    if isinstance(value, SuperFunction):
        return (value.shape, {mask: _exact(poly)
                              for mask, poly in value.coeffs.items()})
    size = getattr(value, "generator_count", getattr(value, "nvars", None))
    return (type(value), size,
            {key: (type(c), c) for key, c in value.terms.items()})


def _outcome(parse, text):
    try:
        return "value", _exact(parse(text))
    except ParseError as exc:
        return "parse error", str(exc), exc.line, exc.column
    except Exception as exc:  # noqa: BLE001 - the type is compared
        return "raised", type(exc)


_AXES = [REALLINE, POSITIVE, Interval(Fraction(-1), Fraction(2)),
         Interval(Fraction(1, 3), Fraction(5, 2))]


@st.composite
def _printed(draw):
    """(new reader, oracle, text) for a printed random value of a format."""
    kind = draw(st.sampled_from(["supermatrix", "grassmann", "scalar",
                                 "superfunction", "structure"]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if kind == "supermatrix":
        n = draw(st.integers(0, 8))
        p = draw(st.integers(0, 2))
        # over Lambda_0 there are no odd entries for the off-diagonal blocks
        q = draw(st.integers(0, 2 if n or not p else 0))
        return (parse_supermatrix, old_parse_supermatrix,
                format_supermatrix(random_even_supermatrix(rng, p, q, n)))
    if kind == "scalar":
        return (parse_scalar, old_parse_scalar,
                str(draw(_MIXED_COEFFS)))
    if kind == "grassmann":
        n = draw(st.integers(0, 4))
        monomials = st.sets(st.integers(0, n - 1)).map(
            lambda s: tuple(sorted(s))) if n else st.just(())
        element = GrassmannElement(n, draw(st.dictionaries(
            monomials, _MIXED_COEFFS, max_size=4)))
        return (lambda t: parse_grassmann(t, n),
                lambda t: old_parse_grassmann(t, n), str(element))
    if kind == "superfunction":
        m, n = draw(st.integers(0, 2)), draw(st.integers(0, 3))
        shape = SuperDomainShape(
            m, tuple(draw(st.sampled_from(_AXES)) for _ in range(m)), n)
        f = random_superfunction(rng, shape, max_terms=4, max_deg=3) \
            * draw(_MIXED_COEFFS)
        return (parse_superfunction, old_parse_superfunction,
                format_superfunction(f))
    evens = draw(st.integers(0, 3))
    parities = [EVEN] * evens + [ODD] * draw(st.integers(int(not evens), 3))
    dim = len(parities)
    lines = ["generators " + " ".join(
        f"g{k}:{parity}" for k, parity in enumerate(parities))]
    for i in range(dim):
        for j in range(i, dim):
            if rng.random() < 0.5:
                continue
            odd = (parities[i] is ODD) != (parities[j] is ODD)
            lines.append(f"{i} {j} -> " + " ".join(
                str(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
                if (parities[k] is ODD) == odd else "0" for k in range(dim)))
    return (parse_structure_constants, old_parse_structure_constants,
            "\n".join(lines) + "\n")


# the edits: grammar marks, digits, blanks, a line separator that is also
# a blank to str.split (\x1c), a non-ASCII blank, a non-ASCII line break
_EDIT_PIECES = ["+", "-", "/", "^", "#", "xi", "x", "s", "0", "9", " ", "\t",
                "\x1c", "\xa0", "\u2028", "\r\n"]


@settings(max_examples=300, deadline=None)
@given(_printed())
def test_reader_matches_token_oracle_on_printed_values(case):
    parse, oracle, text = case
    outcome = _outcome(parse, text)
    assert outcome[0] == "value"
    assert outcome == _outcome(oracle, text)


@settings(max_examples=600, deadline=None)
@given(_printed(), st.data())
def test_reader_matches_token_oracle_on_edited_texts(case, data):
    parse, oracle, text = case
    for _ in range(data.draw(st.integers(1, 4))):
        at = data.draw(st.integers(0, len(text)))
        piece = data.draw(st.sampled_from(_EDIT_PIECES))
        edit = data.draw(st.sampled_from(["insert", "delete", "replace"]))
        if edit == "insert":
            text = text[:at] + piece + text[at:]
        elif edit == "delete":
            text = text[:at] + text[at + 1:]
        else:
            text = text[:at] + piece + text[at + 1:]
    assert _outcome(parse, text) == _outcome(oracle, text)


_LONG = "7" * 5000
_EDGE_TEXTS = [
    "2 s^600 s^401", "x1^-600 x1^-401", f"x{_LONG}", f"xi{_LONG}",
    f"s^{_LONG}", _LONG, f"1/{_LONG}", "-xi0", "--1/0", "-1/0", "1/0 1/0",
    "2 1/0", "xi1 + zeta +", "zeta + + 1", "- xi1", "xi1 -", "-", "+ -",
    "xi2 xi1 + zeta", "xi5 + zeta", "xi5 + x1", "x1 x1^-1", "0 x1",
    "-x1 xi2", "xi1\nxi2 -\n# note\n xi1 xi2 zeta", "1 -\n\n+ 2",
]


@pytest.mark.parametrize("text", _EDGE_TEXTS, ids=range(len(_EDGE_TEXTS)))
def test_reader_matches_token_oracle_on_edge_cases(text):
    # bounds, overlong numbers, fused minus signs, error precedence within
    # an expression, and positions in an expression over several lines
    for n in (0, 2, -1):
        assert _outcome(lambda t: parse_grassmann(t, n), text) == \
            _outcome(lambda t: old_parse_grassmann(t, n), text)
    assert _outcome(parse_scalar, text) == _outcome(old_parse_scalar, text)
    line = text.replace("\n", " ")
    for term_line in (line, f"{line} : xi1", f"1 : {line}"):
        sf = f"1 2 0\naxis R\n{term_line}\n"
        assert _outcome(parse_superfunction, sf) == \
            _outcome(old_parse_superfunction, sf)
    sm = f"1 0 2\n{line}\n"
    assert _outcome(parse_supermatrix, sm) == _outcome(old_parse_supermatrix, sm)
