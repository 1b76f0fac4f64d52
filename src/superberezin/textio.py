"""Line-oriented text formats for exact values.

One token grammar is shared by every format: an expression is a sum of
terms, a term is an optional rational coefficient followed by factors
``s``/``s^k`` (the Gaussian normalisation unit), ``x<i>``/``x<i>^<e>``
(even variables, 1-based, integer exponents of either sign) and
``xi<j>`` (odd generators, 1-based, listed in increasing order).  ``#``
starts a comment anywhere.  Everything the package prints in these
formats re-parses to an equal value.

Exponents are bounded: in every term, the total exponent of each ``x<i>``
and of ``s`` (summed over repeated factors) must satisfy
|e| <= MAX_EXPONENT = 1000.  A larger one is a ParseError at its token, and
so is a number with more digits than the interpreter converts
(``sys.get_int_max_str_digits()``, 4300 by default).

The concrete files:

* supermatrix:        header ``p q N``, then (p+q)^2 element lines, row-major;
* superfunction:      header ``m n aux``, then m axis lines (``axis R``,
                      ``axis R+`` or ``axis <lo> <hi>``), then term lines
                      ``<polynomial> : <xi-monomial>`` (``1`` for the even
                      sector);
* structure constants: ``generators <name>:<parity> ...``, then bracket
                      lines ``i j -> c1 ... cn``; omitted pairs are zero
                      and graded antisymmetry fills missing mirrors.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError
from .grassmann import GrassmannElement, Scalar
from .lie_super import EVEN, ODD, LieSuperAlgebra
from .superdomain import (
    Interval,
    POSITIVE,
    REALLINE,
    Polynomial,
    SuperDomainShape,
    SuperFunction,
)
from .supermatrix import SuperMatrix

_RATIONAL = re.compile(r"-?\d+(/\d+)?\Z")
_EVEN_VAR = re.compile(r"x(\d+)(\^(-?\d+))?\Z")
_ODD_VAR = re.compile(r"xi(\d+)\Z")
_GAUSS = re.compile(r"s(\^(-?\d+))?\Z")

MAX_EXPONENT = 1000


@dataclass(frozen=True)
class _Token:
    text: str
    line: int
    column: int


def _content_lines(text: str):
    """(line_number, tokens) for every line with content; comments stripped."""
    out = []
    for no, raw in enumerate(text.splitlines(), 1):
        body = raw.split("#", 1)[0]
        tokens = [_Token(m.group(), no, m.start() + 1)
                  for m in re.finditer(r"\S+", body)]
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
        coeff = Fraction(sgn)
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
            if _RATIONAL.match(tok.text):
                if saw_coefficient:
                    _fail(tok, "two coefficients in one term")
                saw_coefficient = True
                coeff *= _fraction(tok)
                continue
            m = _GAUSS.match(tok.text)
            if m:
                gauss = _exponent(tok, gauss, m.group(2) or "1")
                continue
            m = _EVEN_VAR.match(tok.text)
            if m:
                i = _index(tok, m.group(1))
                even[i] = _exponent(tok, even.get(i, 0), m.group(3) or "1")
                continue
            m = _ODD_VAR.match(tok.text)
            if m:
                j = _index(tok, m.group(1))
                if odd and j <= odd[-1]:
                    _fail(tok, "odd generators must be distinct and "
                               "listed in increasing order")
                odd.append(j)
                continue
            _fail(tok, f"unrecognised factor {tok.text!r}")
        terms.append(_Term(Scalar(coeff, gauss), even, tuple(odd)))
    return terms


def parse_scalar(text: str, *, line: int = 1) -> Scalar:
    tokens = [t for _, toks in _content_lines(text) for t in toks]
    if not tokens:
        raise ParseError("empty scalar", line, 1)
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


def parse_grassmann(text: str, n: int) -> GrassmannElement:
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


# ---------------------------------------------------------------------------
# supermatrix files


def parse_supermatrix(text: str) -> SuperMatrix:
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


def format_supermatrix(matrix: SuperMatrix) -> str:
    n = matrix.entries[0][0].generator_count if matrix.p + matrix.q else 0
    out = [f"{matrix.p} {matrix.q} {n}"]
    for row in matrix.entries:
        out.extend(str(entry) for entry in row)
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# superfunction files


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


def _axis_text(axis) -> str:
    if axis is REALLINE:
        return "axis R"
    if axis is POSITIVE:
        return "axis R+"
    return f"axis {axis.lo} {axis.hi}"


def parse_superfunction(text: str) -> SuperFunction:
    lines = _content_lines(text)
    if not lines:
        raise ParseError("empty superfunction file", 1, 1)
    _, header = lines[0]
    if len(header) != 3:
        _fail(header[0], "header must be 'm n aux'")
    m, n, aux = (_int(t) for t in header)
    if m < 0 or n < 0 or aux < 0:
        _fail(header[0], "header entries must be nonnegative")
    if len(lines) - 1 < m:
        _fail(header[0], f"expected {m} axis lines")
    axes = tuple(_parse_axis(tokens) for _, tokens in lines[1:1 + m])
    shape = SuperDomainShape(m, axes, n, aux=aux)

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
                if j >= n + aux:
                    _fail(right[0], f"generator xi{j + 1} exceeds the "
                                    f"declared count {n + aux}")
        sectors.append((idx, poly))
    return SuperFunction(shape, sectors)


def format_superfunction(f: SuperFunction) -> str:
    shape = f.shape
    out = [f"{shape.m} {shape.n} {shape.aux}"]
    out.extend(_axis_text(axis) for axis in shape.box)
    for idx in sorted(f.coeffs, key=lambda t: (len(t), t)):
        poly = f.coeffs[idx]
        if poly.is_zero():
            continue
        sector = " ".join(f"xi{j + 1}" for j in idx) if idx else "1"
        out.append(f"{poly} : {sector}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# structure-constant files


def parse_structure_constants(text: str) -> LieSuperAlgebra:
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


def format_structure_constants(g: LieSuperAlgebra) -> str:
    head = " ".join(
        f"{name}:{'even' if parity is EVEN else 'odd'}"
        for name, parity in zip(g.names, g.parities))
    out = [f"generators {head}"]
    for i in range(g.dim):
        for j in range(i, g.dim):
            vec = g.bracket_basis(i, j)
            if any(vec):
                out.append(f"{i} {j} -> " + " ".join(str(c) for c in vec))
    return "\n".join(out) + "\n"
