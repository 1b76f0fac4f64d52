"""Line-oriented text formats for exact values.

One term grammar is shared by every format: an expression is a sum of
terms, a term is an optional rational coefficient followed by factors
``s``/``s^k`` (the Gaussian normalisation unit), ``x<i>``/``x<i>^<e>``
(even variables, 1-based, integer exponents of either sign) and
``xi<j>`` (odd generators, 1-based, listed in increasing order).  ``#``
starts a comment anywhere.  Everything the package prints in these
formats re-parses to an equal value.

Exponents are bounded: in every term, the total exponent of each ``x<i>``
and of ``s`` (summed over repeated factors) must satisfy
|e| <= MAX_EXPONENT = 1000.  So is a header's generator count (N of a
supermatrix, n of a superfunction): N <= MAX_GENERATORS = 1000, and a
superfunction's even variable count: m <= MAX_VARIABLES = 1000.  A larger
one is a ParseError at its word, and so is a number with more digits than
the interpreter converts (``sys.get_int_max_str_digits()``, 4300 by
default).

The concrete files:

* supermatrix:        header ``p q N``, then (p+q)^2 element lines, row-major;
* superfunction:      header ``m n 0`` (the third field is reserved), then
                      m axis lines (``axis R``, ``axis R+`` or
                      ``axis <lo> <hi>``), then term lines
                      ``<polynomial> : <xi-monomial>`` (``1`` for the even
                      sector);
* structure constants: ``generators <name>:<parity> ...``, then bracket
                      lines ``i j -> c1 ... cn``; omitted pairs are zero
                      and graded antisymmetry fills missing mirrors.

Reading is one pass over the ``str.split()`` words of each content line.
``_terms`` reads an expression's words into term tuples, classifying each
distinct word of a file once, and the callers add the terms straight into
the key dict of a ``Scalar``, ``GrassmannElement`` or ``Polynomial``
(``_add_terms``) and build the value with the trusted ``_stored``, after
``_over_one_denominator`` puts the terms over one denominator.  No position
is kept on the way: a misread word raises ``_Bad`` with its index among
the words of its line, and only then does ``_error`` re-scan that one line
for the word's column (one more for a minus fused onto a factor) to raise
the ``ParseError``.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

from .errors import DimensionError, ParseError
from .grassmann import (
    GrassmannElement,
    Scalar,
    _MAX_GENERATORS,
    _MAX_VARIABLES,
    _add_terms,
    _indices,
    _layout,
    _over_one_denominator,
    _stored,
    _sum_text,
)
from .lie_super import EVEN, ODD, LieSuperAlgebra
from .superdomain import (
    Interval,
    POSITIVE,
    REALLINE,
    Polynomial,
    SuperDomainShape,
    SuperFunction,
    _print_sectors,
)
from .supermatrix import SuperMatrix

_RATIONAL = re.compile(r"-?\d+(/\d+)?\Z")
# one factor of a term, its kinds tried in one match: xi<j>, a rational,
# s or s^k, x<i> or x<i>^e; groups (j, rational, s, k, i, e)
_FACTOR = re.compile(
    r"(?:xi(\d+)|(-?\d+(?:/\d+)?)|(s)(?:\^(-?\d+))?|x(\d+)(?:\^(-?\d+))?)\Z")
# the words of a line, as str.split() finds them; used to find a column
_WORD = re.compile(r"\S+")
_SIGNS = frozenset(("+", "-"))

MAX_EXPONENT = 1000
MAX_GENERATORS = _MAX_GENERATORS  # the bounds of every key layout
MAX_VARIABLES = _MAX_VARIABLES

# factor kinds, as _factor classifies a word: (kind, value)
_ODD, _NUMBER, _EVEN, _GAUSS, _BAD_NUMBER = range(5)


class _Bad(Exception):
    """A misread word: the message, the word's index among the words of its
    line, and ``shift`` 1 where a fused minus was read off the word."""

    def __init__(self, message: str, k: int, shift: int = 0):
        super().__init__(message)
        self.message = message
        self.k = k
        self.shift = shift


def _error(text: str, no: int, bad: _Bad) -> ParseError:
    """The ParseError of ``bad`` on line ``no`` of ``text``."""
    body = text.splitlines()[no - 1].split("#", 1)[0]
    word = next(itertools.islice(_WORD.finditer(body), bad.k, None))
    return ParseError(bad.message, no, word.start() + 1 + bad.shift)


def _content_lines(text: str) -> list[tuple[int, list[str]]]:
    """(line_number, words) for every line with content; comments stripped."""
    out = []
    for no, raw in enumerate(text.splitlines(), 1):
        words = raw.split("#", 1)[0].split()
        if words:
            out.append((no, words))
    return out


def _int(word: str, k: int) -> int:
    try:
        return int(word)
    except ValueError:
        raise _Bad(f"expected an integer, got {word!r}", k) from None


def _fraction(word: str, k: int, shift: int = 0) -> Fraction:
    if not _RATIONAL.match(word):
        raise _Bad(f"expected a rational number, got {word!r}", k, shift)
    try:
        return Fraction(word)
    except ZeroDivisionError:
        raise _Bad(f"zero denominator in rational {word!r}", k, shift) from None
    except ValueError:  # more digits than the interpreter converts
        raise _Bad("number too long", k, shift) from None


def _digits(text: str, k: int, shift: int) -> int:
    """A number written inside a factor word (index or exponent)."""
    try:
        return int(text)
    except ValueError:  # more digits than the interpreter converts
        raise _Bad("number too long", k, shift) from None


def _index(text: str, k: int, shift: int) -> int:
    """The 0-based position of a 1-based variable or generator index."""
    i = _digits(text, k, shift) - 1
    if i < 0:
        raise _Bad("variable and generator indices start at 1", k, shift)
    return i


def _factor(word: str, k: int, shift: int):
    """(kind, value) of one factor word, which does not depend on where it
    stands.  A coefficient that cannot be read is (_BAD_NUMBER, its _Bad),
    raised only after the term is known to have no coefficient yet."""
    m = _FACTOR.match(word)
    if m is None:
        raise _Bad(f"unrecognised factor {word!r}", k, shift)
    j, number, gauss_mark, e_s, i, e = m.groups()
    if j is not None:
        return _ODD, _index(j, k, shift)
    if number is not None:
        try:
            # an integral coefficient stays an int
            return _NUMBER, (_fraction(number, k, shift) if "/" in number
                             else _digits(number, k, shift))
        except _Bad as bad:
            return _BAD_NUMBER, bad
    if gauss_mark:
        return _GAUSS, _digits(e_s or "1", k, shift)
    return _EVEN, (_index(i, k, shift), _digits(e or "1", k, shift))


def _exponent(total: int, k: int, shift: int) -> int:
    if abs(total) > MAX_EXPONENT:
        raise _Bad(f"exponent {total} exceeds the bound "
                   f"|e| <= {MAX_EXPONENT}", k, shift)
    return total


def _check_generators(n: int, k: int) -> None:
    # the key layouts refuse it too; here it is a parse error at its word
    if n > MAX_GENERATORS:
        raise _Bad(f"generator count {n} exceeds the bound "
                   f"N <= {MAX_GENERATORS}", k)


def _sign_error(words: list[str], at: int) -> _Bad | None:
    """The first misplaced '+'/'-' of an expression, or None.  A misplaced
    sign is reported before any factor error of the same expression."""
    after_sign = True
    for k, word in enumerate(words):
        if word in _SIGNS:
            if after_sign:
                return _Bad("dangling sign", at + k)
            after_sign = True
        else:
            after_sign = False
    if after_sign:
        return _Bad("expression ends with a sign", at + len(words) - 1)
    return None


def _terms(words: list[str], at: int, count: int, memo: dict) -> list:
    """The terms of an expression: (coefficient, power of s, mask, out,
    even) for each, in order.

    ``mask`` holds the generators below ``count``, ``out`` is the first one
    at or above it (None if there is none), and ``even`` maps each 0-based
    variable to its exponent in the order they first appear (None if the
    term has none).  ``words`` are the expression's words, the first at
    index ``at`` of its line; ``memo`` keeps each factor word's
    classification for the rest of the file.
    """
    terms = []
    sign, opened = 1, False
    try:
        for k, word in enumerate(words, at):
            shift = 0
            if word in _SIGNS:
                if not opened:
                    raise _Bad("dangling sign", k)
                terms.append((coeff, gauss, mask, out, even))
                sign, opened = (1 if word == "+" else -1), False
                continue
            if not opened:
                opened, saw = True, False
                coeff, gauss, mask, top, out, even = sign, 0, 0, -1, None, None
                if word[0] == "-" and len(word) > 1 \
                        and not _RATIONAL.match(word):
                    # a suppressed unit coefficient fuses its minus onto
                    # the factor
                    coeff, word, shift = -sign, word[1:], 1
            f = memo.get(word)
            if f is None:
                f = memo[word] = _factor(word, k, shift)
            kind, value = f
            if kind == _ODD:
                if value <= top:
                    raise _Bad("odd generators must be distinct and listed "
                               "in increasing order", k, shift)
                top = value
                if value < count:
                    mask |= 1 << value
                elif out is None:
                    out = value
            elif kind == _NUMBER:
                if saw:
                    raise _Bad("two coefficients in one term", k, shift)
                saw = True
                coeff *= value
            elif kind == _EVEN:
                i, e = value
                if even is None:
                    even = {}
                even[i] = _exponent(even.get(i, 0) + e, k, shift)
            elif kind == _GAUSS:
                gauss = _exponent(gauss + value, k, shift)
            else:
                if saw:
                    raise _Bad("two coefficients in one term", k, shift)
                raise value
    except _Bad as bad:
        raise _sign_error(words, at) or bad
    if not opened:
        raise _Bad("expression ends with a sign", at + len(words) - 1)
    terms.append((coeff, gauss, mask, out, even))
    return terms


def _grassmann(words: list[str], n: int, memo: dict) -> GrassmannElement:
    """The GrassmannElement over n generators written by ``words``."""
    terms = _terms(words, 0, n, memo)
    for _, _, _, out, even in terms:
        if even is not None:
            raise _Bad("even variables are not allowed in an algebra "
                       "element", 0)
        if out is not None:
            raise _Bad(f"generator xi{out + 1} exceeds the declared "
                       f"count {n}", 0)
    if n < 0:
        raise DimensionError("generator count must be nonnegative")
    key = _layout(n, 0).key
    return _stored(GrassmannElement, n, *_over_one_denominator(_add_terms(
        {}, [(key(mask, (), gauss), c) for c, gauss, mask, _, _ in terms])))


def _polynomial(words: list[str], m: int, memo: dict):
    """The Polynomial in m variables written by ``words``."""
    terms = _terms(words, 0, 0, memo)
    for _, _, _, out, even in terms:
        if out is not None:
            raise _Bad("odd generators belong after the colon", 0)
        for i in even or ():
            if i >= m:
                raise _Bad(f"variable x{i + 1} exceeds the declared "
                           f"count {m}", 0)
    zeros = (0,) * m
    key = _layout(0, m).key
    return _stored(Polynomial, m, *_over_one_denominator(_add_terms({}, [
        (key(0, [even.get(i, 0) for i in range(m)] if even else zeros, gauss), c)
        for c, gauss, _, _, even in terms])))


def _expression(text: str, empty: str, read):
    """``read`` applied to all words of a one-expression text, which may
    span several lines."""
    lines = _content_lines(text)
    words = [word for _, line in lines for word in line]
    if not words:
        raise ParseError(empty, 1, 1)
    try:
        return read(words)
    except _Bad as bad:
        for no, line in lines:  # the line of the bad word
            if bad.k < len(line):
                raise _error(text, no, bad) from None
            bad.k -= len(line)
        raise


def _scalar(words: list[str]) -> Scalar:
    terms = _terms(words, 0, 0, {})
    if any(even is not None or out is not None
           for _, _, _, out, even in terms):
        raise _Bad("scalar may not contain variables", 0)
    return _stored(Scalar, 0, *_over_one_denominator(
        _add_terms({}, [(gauss, c) for c, gauss, _, _, _ in terms])))


def parse_scalar(text: str) -> Scalar:
    return _expression(text, "empty scalar", _scalar)


def parse_grassmann(text: str, n: int) -> GrassmannElement:
    return _expression(text, "empty element",
                       lambda words: _grassmann(words, n, {}))


# ---------------------------------------------------------------------------
# supermatrix files


def parse_supermatrix(text: str) -> SuperMatrix:
    lines = _content_lines(text)
    if not lines:
        raise ParseError("empty supermatrix file", 1, 1)
    no, header = lines[0]
    try:
        if len(header) != 3:
            raise _Bad("header must be 'p q N'", 0)
        p, q, n = (_int(word, k) for k, word in enumerate(header))
        if p < 0 or q < 0 or n < 0:
            raise _Bad("header entries must be nonnegative", 0)
        _check_generators(n, 2)
        size = p + q
        if len(lines) - 1 != size * size:
            raise _Bad(f"expected {size * size} element lines, "
                       f"found {len(lines) - 1}", 0)
        memo: dict = {}
        flat = []
        for no, words in lines[1:]:
            flat.append(_grassmann(words, n, memo))
    except _Bad as bad:
        raise _error(text, no, bad) from None
    entries = [flat[r * size:(r + 1) * size] for r in range(size)]
    return SuperMatrix(p, q, entries, zero=GrassmannElement.zero(n),
                       one=GrassmannElement.scalar(n, 1))


def format_supermatrix(matrix: SuperMatrix) -> str:
    # the header's N is the algebra's, which a (0|0) matrix has no entry for
    n = matrix.one.generator_count
    out = [f"{matrix.p} {matrix.q} {n}"]
    for row in matrix.entries:
        out.extend(str(entry) for entry in row)
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# superfunction files


_NAMED_AXES = {axis._text: axis for axis in (REALLINE, POSITIVE)}


def _interval(words: list[str], k: int) -> Interval:
    """The interval of the bounds at words k and k + 1."""
    lo, hi = _fraction(words[k], k), _fraction(words[k + 1], k + 1)
    if lo >= hi:
        raise _Bad("interval bounds must be increasing", k)
    return Interval(lo, hi)


def _axis(words: list[str]):
    if words[0] != "axis":
        raise _Bad("expected an 'axis' line", 0)
    if len(words) == 2 and words[1] in _NAMED_AXES:
        return _NAMED_AXES[words[1]]
    if len(words) == 3:
        return _interval(words, 1)
    raise _Bad("axis must be 'R', 'R+' or two rational bounds", 0)


def _sector(words: list[str], m: int, n: int, memo: dict):
    """(idx, polynomial) of a term line ``<polynomial> : <xi-monomial>``."""
    colons = [k for k, word in enumerate(words) if word == ":"]
    if len(colons) != 1:
        raise _Bad("term line must be '<polynomial> : <xi-monomial>'", 0)
    k = colons[0]
    left, right = words[:k], words[k + 1:]
    if not left or not right:
        raise _Bad("missing polynomial or xi-monomial", k)
    poly = _polynomial(left, m, memo)
    if right == ["1"]:
        return (), poly
    terms = _terms(right, k + 1, n, memo)
    coeff, gauss, mask, out, even = terms[0]
    if len(terms) != 1 or even is not None or coeff != 1 or gauss:
        raise _Bad("the sector must be a plain xi-monomial", k + 1)
    if out is not None:
        raise _Bad(f"generator xi{out + 1} exceeds the declared count {n}",
                   k + 1)
    return _indices(mask), poly


def parse_superfunction(text: str) -> SuperFunction:
    lines = _content_lines(text)
    if not lines:
        raise ParseError("empty superfunction file", 1, 1)
    no, header = lines[0]
    try:
        if len(header) != 3:
            raise _Bad("header must be 'm n 0'", 0)
        m, n, reserved = (_int(word, k) for k, word in enumerate(header))
        if m < 0 or n < 0:
            raise _Bad("header entries must be nonnegative", 0)
        if m > MAX_VARIABLES:
            raise _Bad(f"even variable count {m} exceeds the bound "
                       f"m <= {MAX_VARIABLES}", 0)
        _check_generators(n, 1)
        if reserved != 0:
            raise _Bad("the aux field is reserved and must be 0", 2)
        if len(lines) - 1 < m:
            raise _Bad(f"expected {m} axis lines", 0)
        axes = []
        for no, words in lines[1:1 + m]:
            axes.append(_axis(words))
        shape = SuperDomainShape(m, tuple(axes), n)
        memo: dict = {}
        sectors = []
        for no, words in lines[1 + m:]:
            sectors.append(_sector(words, m, n, memo))
    except _Bad as bad:
        raise _error(text, no, bad) from None
    return SuperFunction(shape, sectors)


def format_superfunction(f: SuperFunction) -> str:
    shape = f.shape
    out = [f"{shape.m} {shape.n} 0"]
    out.extend(f"axis {axis._text}" for axis in shape.box)
    for odd, terms in _print_sectors(f):
        out.append(f"{_sum_text(f.den, terms)} : {odd or '1'}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# structure-constant files


def parse_structure_constants(text: str) -> LieSuperAlgebra:
    lines = _content_lines(text)
    if not lines:
        raise ParseError("empty structure-constant file", 1, 1)
    no, header = lines[0]
    names, parities = [], []
    brackets: dict[tuple[int, int], tuple[Fraction, ...]] = {}
    try:
        if header[0] != "generators" or len(header) < 2:
            raise _Bad("header must be 'generators name:parity ...'", 0)
        for k, word in enumerate(header[1:], 1):
            if ":" not in word:
                raise _Bad("generator must be written name:parity", k)
            name, _, parity = word.partition(":")
            if parity not in ("even", "odd") or not name:
                raise _Bad("parity must be 'even' or 'odd'", k)
            names.append(name)
            parities.append(EVEN if parity == "even" else ODD)
        dim = len(names)
        for no, words in lines[1:]:
            if len(words) != 3 + dim or words[2] != "->":
                raise _Bad(f"bracket line must be 'i j -> {dim} rationals'", 0)
            i, j = _int(words[0], 0), _int(words[1], 1)
            if not (0 <= i < dim and 0 <= j < dim):
                raise _Bad("generator index out of range", 0)
            if (i, j) in brackets:
                raise _Bad(f"duplicate bracket line for pair ({i}, {j})", 0)
            brackets[(i, j)] = tuple(_fraction(word, k)
                                     for k, word in enumerate(words[3:], 3))
    except _Bad as bad:
        raise _error(text, no, bad) from None
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
