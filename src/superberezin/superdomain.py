"""Superfunctions on coordinate superdomains, morphisms, and Jacobians.

A superdomain here is a box in R^m together with n odd coordinates.
Functions are finite sums Σ_α ξ^α f_α where the f_α are Laurent
polynomials with rational coefficients in the even coordinates and
s = sqrt(2π) — integer exponents may be negative, which is how the
multiplicative-group densities like a^{-1} stay exact.  A coefficient is
stored as an int when integral and as a Fraction otherwise.  Each sector
ξ^α is keyed by its generator mask, as in ``grassmann``.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from operator import add

from .errors import (
    DimensionError,
    DomainBoxError,
    NonInvertibleError,
    ParityError,
)
from .grassmann import EVEN, ODD, Parity, Scalar
from .grassmann import (
    _Products,
    _add_terms,
    _canonical,
    _checked_mask,
    _in_s,
    _indices,
    _inverse_series,
    _lookup_mask,
    _monomial_text,
    _odd_swaps,
    _parity,
    _quotient,
    _rational,
    _signed_sum,
)
from .supermatrix import SuperMatrix


# -- boxes ----------------------------------------------------------------


@dataclass(frozen=True)
class Interval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", Fraction(_rational(self.lo)))
        object.__setattr__(self, "hi", Fraction(_rational(self.hi)))
        if self.lo >= self.hi:
            raise DomainBoxError(f"empty interval [{self.lo}, {self.hi}]")

    def contains(self, x: Fraction) -> bool:
        return self.lo <= x <= self.hi

    def samples(self) -> list[Fraction]:
        return [self.lo, (self.lo + self.hi) / 2, self.hi]

    def __str__(self) -> str:
        return f"{self.lo}:{self.hi}"


class _WholeLine:
    def contains(self, x: Fraction) -> bool:
        return True

    def samples(self) -> list[Fraction]:
        return [Fraction(-1), Fraction(0), Fraction(1)]

    def __repr__(self) -> str:
        return "REALLINE"

    def __str__(self) -> str:
        return "R"


class _PositiveHalfLine:
    """(0, ∞), the natural home of multiplicative even coordinates."""

    def contains(self, x: Fraction) -> bool:
        return x > 0

    def samples(self) -> list[Fraction]:
        return [Fraction(1, 2), Fraction(1), Fraction(2)]

    def __repr__(self) -> str:
        return "POSITIVE"

    def __str__(self) -> str:
        return "R+"


REALLINE = _WholeLine()
POSITIVE = _PositiveHalfLine()

Axis = object  # Interval | REALLINE | POSITIVE
Box = tuple


def box_samples(box: Sequence[Axis]) -> list[tuple[Fraction, ...]]:
    """Grid of 3 rational points per axis, corners included for intervals."""
    points = [()]
    for axis in box:
        points = [pt + (x,) for pt in points for x in axis.samples()]
    return points


def box_contains(box: Sequence[Axis], point: Sequence[Fraction]) -> bool:
    return all(axis.contains(x) for axis, x in zip(box, point))


# -- shapes ---------------------------------------------------------------


@dataclass(frozen=True)
class SuperDomainShape:
    m: int
    box: Box
    n: int

    def __post_init__(self):
        if self.m < 0 or self.n < 0:
            raise DimensionError("dimensions must be nonnegative")
        box = tuple(self.box)
        if len(box) != self.m:
            raise DimensionError("box must give one axis per even coordinate")
        for axis in box:
            if not (isinstance(axis, Interval) or axis is REALLINE or axis is POSITIVE):
                raise DomainBoxError(f"bad axis {axis!r}")
        object.__setattr__(self, "box", box)

    def __str__(self) -> str:
        return f"({self.m}|{self.n})"


def shape_product(s1: SuperDomainShape, s2: SuperDomainShape) -> SuperDomainShape:
    """Product superdomain: evens of s1 then s2, odd coords of s1 then s2."""
    return SuperDomainShape(s1.m + s2.m, s1.box + s2.box, s1.n + s2.n)


# -- Laurent polynomials ---------------------------------------------------


class Polynomial:
    """Laurent polynomial in m even variables and s, rational coefficients.

    ``terms`` maps each key ``(e_1, ..., e_m, k)``, the exponents of the
    variables and then the power of s, to its nonzero coefficient: int
    when integral, Fraction otherwise.
    The public constructor takes ``{(e_1, ..., e_m): coefficient}`` with
    Scalar, int or Fraction coefficients.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping = ()):
        checked = []
        for exps, coeff in terms.items() if isinstance(terms, Mapping) else terms:
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars:
                raise DimensionError("exponent tuple has wrong length")
            if isinstance(coeff, (int, Fraction)):
                checked.append((exps + (0,), _canonical(coeff)))
            else:
                checked.extend((exps + (k,), c)
                               for k, c in Scalar.coerce(coeff).terms.items())
        normalized = _add_terms({}, checked)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", normalized)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @staticmethod
    def zero(nvars: int) -> "Polynomial":
        return Polynomial(nvars)

    @staticmethod
    def constant(nvars: int, value) -> "Polynomial":
        return Polynomial(nvars, {(0,) * nvars: value})

    @staticmethod
    def one(nvars: int) -> "Polynomial":
        return Polynomial.constant(nvars, 1)

    @staticmethod
    def variable(nvars: int, i: int, power: int = 1) -> "Polynomial":
        if not 0 <= i < nvars:
            raise DimensionError("variable index out of range")
        exps = tuple(power if k == i else 0 for k in range(nvars))
        return Polynomial(nvars, {exps: 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _coerce(self, value) -> "Polynomial":
        if isinstance(value, Polynomial):
            return value
        if isinstance(value, (int, Fraction, Scalar)):
            return Polynomial.constant(self.nvars, value)
        raise TypeError(f"cannot interpret {value!r} as a Polynomial")

    def __add__(self, other) -> "Polynomial":
        if not isinstance(other, (Polynomial, int, Fraction, Scalar)):
            return NotImplemented
        other = self._coerce(other)
        if self.nvars != other.nvars:
            raise DimensionError("polynomials in different variable counts")
        return _poly(self.nvars, _add_terms(dict(self.terms), other.terms.items()))

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return _poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Polynomial":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, (Polynomial, int, Fraction, Scalar)):
            return NotImplemented
        other = self._coerce(other)
        if self.nvars != other.nvars:
            raise DimensionError("polynomials in different variable counts")
        return _poly(self.nvars,
                     _settled(_poly_accumulate({}, self.terms, other.terms, False)))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            return self.monomial_inverse() ** (-k)
        out = Polynomial.one(self.nvars)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def monomial_inverse(self) -> "Polynomial":
        """Inverse of c·s^k·x^e, the only invertible Laurent shapes."""
        if len(self.terms) != 1:
            raise NonInvertibleError(
                "only monomials are invertible in the Laurent polynomial ring"
            )
        (exps, coeff), = self.terms.items()
        return _poly(self.nvars, {tuple(-e for e in exps): _quotient(1, coeff)})

    def derive(self, i: int) -> "Polynomial":
        if not 0 <= i < self.nvars:
            raise DimensionError("variable index out of range")
        terms = {}
        for exps, coeff in self.terms.items():
            e = exps[i]
            if e == 0:
                continue
            new = exps[:i] + (e - 1,) + exps[i + 1:]
            terms[new] = _canonical(coeff * e)
        return _poly(self.nvars, terms)

    def evaluate(self, point: Sequence[Fraction]) -> Scalar:
        """The value at a rational point, a value in s."""
        if len(point) != self.nvars:
            raise DimensionError("evaluation point has wrong length")
        point = [_rational(x) for x in point]
        pieces = []
        for exps, coeff in self.terms.items():
            for x, e in zip(point, exps):
                if e == 0:
                    continue
                if x == 0 and e < 0:
                    raise ZeroDivisionError("negative exponent at zero")
                coeff *= x ** e if e > 0 else Fraction(1, x ** -e)
            pieces.append((exps[-1], coeff))
        return _in_s(_add_terms({}, pieces))

    def coefficient(self, exps: Sequence[int]) -> Scalar:
        """The coefficient of x^exps, a value in s."""
        exps = tuple(exps)
        return _in_s({e[-1]: c for e, c in self.terms.items() if e[:-1] == exps})

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, Scalar)):
            other = self._coerce(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __str__(self) -> str:
        return _signed_sum([
            (self.terms[exps], _monomial_text(exps[-1], (
                f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
                for i, e in enumerate(exps[:-1]) if e != 0)))
            for exps in sorted(self.terms, key=lambda e: (e[:-1], -e[-1]))])

    def __repr__(self) -> str:
        return f"Polynomial({self.nvars}, {self!s})"


def _poly_accumulate(acc: dict, a: dict, b: dict, negative: bool) -> dict:
    """Add a*b, negated if ``negative``, into ``acc`` and return it.

    ``a`` and ``b`` are Polynomial term dicts.  Sums are left as they
    fall: a key may end on a zero or on a Fraction whose denominator is 1
    until ``_settled``.
    """
    get = acc.get
    right = b.items()
    for e1, c1 in a.items():
        if negative:
            c1 = -c1
        for e2, c2 in right:
            key = tuple(map(add, e1, e2))
            prev = get(key)
            acc[key] = c1 * c2 if prev is None else prev + c1 * c2
    return acc


def _settled(acc: dict) -> dict:
    """The canonical terms of a sum: zeros dropped, integral values ints."""
    return {key: c.numerator if type(c) is Fraction and c.denominator == 1
            else c for key, c in acc.items() if c}


def _poly(nvars: int, terms: dict) -> Polynomial:
    """Trusted constructor for the results of closed Polynomial operations.

    ``terms`` must map int tuples of length ``nvars + 1`` (the power of s
    last) to nonzero coefficients, int when integral and Fraction
    otherwise, and is kept, not copied; the public
    constructor checks all of this, this one assumes it.
    """
    out = object.__new__(Polynomial)
    object.__setattr__(out, "nvars", nvars)
    object.__setattr__(out, "terms", terms)
    return out


def binomial_coefficient(e: int, j: int) -> Fraction:
    """Generalized C(e, j) = e(e-1)...(e-j+1)/j!; exact for negative e too."""
    num = Fraction(1)
    for t in range(j):
        num *= Fraction(e - t)
    return Fraction(num, math.factorial(j))


# -- superfunctions --------------------------------------------------------


class SuperFunction:
    """Finite sum Σ_α ξ^α f_α(x) over a fixed superdomain shape.

    ``coeffs`` maps the generator mask of each α (bit j for ξ_{j+1}) to
    the nonzero Polynomial f_α; the constructor, ``coefficient`` and
    ``str`` speak in index tuples.  ``self + _Products(pairs)``, the fused
    base + sum a*b of the supermatrix ring protocol, and ``*`` share one
    product loop, ``_graded_accumulate``.
    """

    __slots__ = ("shape", "coeffs")

    def __init__(self, shape: SuperDomainShape, coeffs: Mapping = ()):
        checked = []
        for idx, poly in coeffs.items() if isinstance(coeffs, Mapping) else coeffs:
            mask = _checked_mask(idx, shape.n)
            if not isinstance(poly, Polynomial):
                poly = Polynomial.constant(shape.m, poly)
            if poly.nvars != shape.m:
                raise DimensionError("coefficient polynomial has wrong arity")
            checked.append((mask, poly))
        normalized = _add_terms({}, checked)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "coeffs", normalized)

    def __setattr__(self, name, value):
        raise AttributeError("SuperFunction is immutable")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(shape: SuperDomainShape) -> "SuperFunction":
        return SuperFunction(shape)

    @staticmethod
    def one(shape: SuperDomainShape) -> "SuperFunction":
        return SuperFunction(shape, {(): Polynomial.one(shape.m)})

    @staticmethod
    def constant(shape: SuperDomainShape, value) -> "SuperFunction":
        return SuperFunction(shape, {(): Polynomial.constant(shape.m, value)})

    @staticmethod
    def coordinate(shape: SuperDomainShape, i: int, power: int = 1) -> "SuperFunction":
        return SuperFunction(shape, {(): Polynomial.variable(shape.m, i, power)})

    @staticmethod
    def odd_gen(shape: SuperDomainShape, j: int) -> "SuperFunction":
        if not 0 <= j < shape.n:
            raise DimensionError("odd generator index out of range")
        return SuperFunction(shape, {(j,): Polynomial.one(shape.m)})

    @staticmethod
    def from_polynomial(shape: SuperDomainShape, poly: Polynomial) -> "SuperFunction":
        return SuperFunction(shape, {(): poly})

    # -- structure ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def parity(self) -> Parity | None:
        return _parity(self.coeffs)

    def body_polynomial(self) -> Polynomial:
        return self.coeffs.get(0, Polynomial.zero(self.shape.m))

    def _select(self, keep) -> "SuperFunction":
        return _sf(self.shape, {mask: p for mask, p in self.coeffs.items()
                                if keep(mask)})

    def soul(self) -> "SuperFunction":
        return self._select(bool)

    def even_part(self) -> "SuperFunction":
        return self._select(lambda mask: not mask.bit_count() & 1)

    def odd_part(self) -> "SuperFunction":
        return self._select(lambda mask: mask.bit_count() & 1)

    def coefficient(self, odd_index: Iterable[int]) -> Polynomial:
        return self.coeffs.get(_lookup_mask(odd_index, self.shape.n),
                               Polynomial.zero(self.shape.m))

    def evaluate_body(self, point: Sequence[Fraction]) -> Scalar:
        return self.body_polynomial().evaluate(point)

    # -- arithmetic -----------------------------------------------------

    def _coerce(self, value) -> "SuperFunction":
        if isinstance(value, SuperFunction):
            return value
        if isinstance(value, Polynomial):
            return SuperFunction.from_polynomial(self.shape, value)
        if isinstance(value, (int, Fraction, Scalar)):
            return SuperFunction.constant(self.shape, value)
        raise TypeError(f"cannot interpret {value!r} as a SuperFunction")

    def _check_shape(self, other: "SuperFunction"):
        if self.shape != other.shape:
            raise DimensionError(
                f"superfunctions on different shapes: {self.shape} vs {other.shape}"
            )

    def __add__(self, other) -> "SuperFunction":
        if type(other) is _Products:
            acc = {mask: dict(poly.terms) for mask, poly in self.coeffs.items()}
            for a, b in other:
                self._check_shape(a)
                self._check_shape(b)
                _graded_accumulate(acc, a.coeffs, b.coeffs)
            return _settled_sf(self.shape, acc)
        other = self._coerce(other)
        self._check_shape(other)
        return _sf(self.shape, _add_terms(dict(self.coeffs), other.coeffs.items()))

    __radd__ = __add__

    def __neg__(self) -> "SuperFunction":
        return _sf(self.shape, {mask: -p for mask, p in self.coeffs.items()})

    def __sub__(self, other) -> "SuperFunction":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "SuperFunction":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "SuperFunction":
        other = self._coerce(other)
        self._check_shape(other)
        return _settled_sf(self.shape,
                           _graded_accumulate({}, self.coeffs, other.coeffs))

    def __rmul__(self, other) -> "SuperFunction":
        # even coefficients are central; odd SuperFunctions must use *
        return self._coerce(other) * self

    def inv_even(self) -> "SuperFunction":
        """Inverse of an even superfunction with invertible (monomial) body."""
        if any(mask.bit_count() & 1 for mask in self.coeffs):
            raise ParityError("inv_even requires an even superfunction")
        binv = self.body_polynomial().monomial_inverse()
        return _inverse_series(_sf(self.shape, {0: binv}),
                               self.soul()._scaled(-binv), self.shape.n // 2)

    def _scaled(self, unit: Polynomial) -> "SuperFunction":
        """This superfunction times the one-term polynomial unit, term by term."""
        (shift, c), = unit.terms.items()
        return _sf(self.shape, {
            mask: _poly(poly.nvars, {tuple(map(add, exps, shift)): _canonical(cc * c)
                                     for exps, cc in poly.terms.items()})
            for mask, poly in self.coeffs.items()})

    # -- derivatives ------------------------------------------------------

    def derive_even(self, i: int) -> "SuperFunction":
        coeffs = {}
        for mask, poly in self.coeffs.items():
            d = poly.derive(i)
            if d:
                coeffs[mask] = d
        return _sf(self.shape, coeffs)

    def derive_odd(self, j: int) -> "SuperFunction":
        """Left derivative: ∂_j(ξ_{a1}…ξ_{ak}) drops ξ_j with sign (-1)^{pos}."""
        if not 0 <= j < self.shape.n:
            raise DimensionError("odd index out of range")
        # distinct sectors holding xi_j stay distinct without it: no sums
        bit = 1 << j
        coeffs = {}
        for mask, poly in self.coeffs.items():
            if mask & bit:
                pos = (mask & (bit - 1)).bit_count()
                coeffs[mask ^ bit] = -poly if pos & 1 else poly
        return _sf(self.shape, coeffs)

    # -- reshaping --------------------------------------------------------

    def embed(self, shape: SuperDomainShape, even_offset: int, odd_offset: int) -> "SuperFunction":
        """View on a larger shape, own coordinates starting at the offsets.

        The odd coordinates keep their order, so no signs appear.
        """
        if even_offset + self.shape.m > shape.m:
            raise DimensionError("even offset out of range")
        if odd_offset + self.shape.n > shape.n:
            raise DimensionError("odd offset out of range")
        left = (0,) * even_offset
        right = (0,) * (shape.m - even_offset - self.shape.m)
        coeffs = {}
        for mask, poly in self.coeffs.items():
            coeffs[mask << odd_offset] = _poly(shape.m, {
                left + exps[:-1] + right + exps[-1:]: coeff
                for exps, coeff in poly.terms.items()})
        return _sf(shape, coeffs)

    # -- comparison / printing ---------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, Scalar, Polynomial)):
            other = self._coerce(other)
        if not isinstance(other, SuperFunction):
            return NotImplemented
        return self.shape == other.shape and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.shape, frozenset(
            (mask, frozenset(p.terms.items())) for mask, p in self.coeffs.items()
        )))

    def __str__(self) -> str:
        parts = []
        for idx, poly in _sectors(self):
            mono = " ".join(f"xi{j + 1}" for j in idx)
            p = str(poly)
            if mono:
                if len(poly.terms) > 1:
                    parts.append(f"({p}) {mono}")
                elif p == "1":
                    parts.append(mono)
                else:
                    parts.append(f"{p} {mono}")
            else:
                parts.append(p)
        return " + ".join(parts) or "0"

    def __repr__(self) -> str:
        return f"SuperFunction({self.shape}, {self!s})"


def _sf(shape: SuperDomainShape, coeffs: dict) -> SuperFunction:
    """Trusted constructor for the results of closed SuperFunction operations.

    ``coeffs`` must map masks of in-range odd generators to nonzero
    Polynomials in ``shape.m`` variables and is kept, not copied; the
    public constructor checks all of this, this one assumes it.
    """
    out = object.__new__(SuperFunction)
    object.__setattr__(out, "shape", shape)
    object.__setattr__(out, "coeffs", coeffs)
    return out


def _sectors(f: SuperFunction) -> list[tuple[tuple[int, ...], Polynomial]]:
    """f's (index tuple, coefficient) sectors in print order."""
    return sorted(((_indices(mask), poly) for mask, poly in f.coeffs.items()),
                  key=lambda sector: (len(sector[0]), sector[0]))


def _graded_accumulate(acc: dict, a: dict, b: dict) -> dict:
    """Add a*b into ``acc`` and return it.

    ``a`` and ``b`` are SuperFunction coefficient dicts; ``acc`` maps masks
    to Polynomial term dicts, unsettled until ``_settled_sf``.  The loop is
    ``grassmann._accumulate``'s, with one ``_poly_accumulate`` per pair.
    """
    right = b.items()
    for ma, pa in a.items():
        swaps = _odd_swaps(ma)
        for mb, pb in right:
            if ma & mb:
                continue
            key = ma | mb
            sector = acc.get(key)
            if sector is None:
                sector = acc[key] = {}
            _poly_accumulate(sector, pa.terms, pb.terms,
                             (swaps & mb).bit_count() & 1)
    return acc


def _settled_sf(shape: SuperDomainShape, acc: dict) -> SuperFunction:
    """The superfunction of an accumulated sum, each sector ``_settled``."""
    coeffs = {}
    for mask, terms in acc.items():
        terms = _settled(terms)
        if terms:
            coeffs[mask] = _poly(shape.m, terms)
    return _sf(shape, coeffs)


# -- morphisms --------------------------------------------------------------


class SuperMorphism:
    """Map between superdomains, given by its coordinate pullbacks.

    even_components[k] is the superfunction on the source that the k-th
    even target coordinate pulls back to, and likewise for odd ones.
    """

    __slots__ = ("source", "target", "even_components", "odd_components")

    def __init__(self, source: SuperDomainShape, target: SuperDomainShape,
                 even_components: Sequence[SuperFunction],
                 odd_components: Sequence[SuperFunction]):
        even_components = tuple(even_components)
        odd_components = tuple(odd_components)
        if len(even_components) != target.m or len(odd_components) != target.n:
            raise DimensionError("component count must match target dimensions")
        for comp in even_components:
            if comp.shape != source:
                raise DimensionError("even component on wrong shape")
            if comp.parity() not in (None, EVEN):
                raise ParityError("even component must be even")
        for comp in odd_components:
            if comp.shape != source:
                raise DimensionError("odd component on wrong shape")
            if comp.parity() not in (None, ODD):
                raise ParityError("odd component must be odd")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "even_components", even_components)
        object.__setattr__(self, "odd_components", odd_components)

    def __setattr__(self, name, value):
        raise AttributeError("SuperMorphism is immutable")

    @staticmethod
    def identity(shape: SuperDomainShape) -> "SuperMorphism":
        evens = [SuperFunction.coordinate(shape, i) for i in range(shape.m)]
        odds = [SuperFunction.odd_gen(shape, j) for j in range(shape.n)]
        return SuperMorphism(shape, shape, evens, odds)

    @staticmethod
    def constant_point(source: SuperDomainShape, target: SuperDomainShape,
                       point: Sequence[Fraction]) -> "SuperMorphism":
        """Collapse onto a rational point with zero odd part."""
        if len(point) != target.m:
            raise DimensionError("point has wrong length")
        point = [_rational(x) for x in point]
        if not box_contains(target.box, point):
            raise DomainBoxError("point lies outside the target box")
        evens = [SuperFunction.constant(source, x) for x in point]
        odds = [SuperFunction.zero(source) for _ in range(target.n)]
        return SuperMorphism(source, target, evens, odds)

    def component(self, k: int) -> SuperFunction:
        """Target coordinate image, evens first then odds."""
        if k < self.target.m:
            return self.even_components[k]
        return self.odd_components[k - self.target.m]

    def check_body_box(self) -> str:
        """Sample the body map; return a caveat string or raise on escape.

        Any value lies on a whole-line axis.  On a bounded or half-line
        axis a value carrying a power of s is not compared, and raises.
        """
        for pt in box_samples(self.source.box):
            for k, comp in enumerate(self.even_components):
                try:
                    val = comp.evaluate_body(pt)
                except ZeroDivisionError:
                    raise DomainBoxError(
                        f"body component {k} undefined at sample {pt}"
                    )
                if self.target.box[k] is REALLINE:
                    continue
                try:
                    val = val.rational
                except ValueError:
                    raise DomainBoxError(
                        f"body component {k} is {val} at sample {pt}: a power "
                        f"of s, not compared with target axis {k}") from None
                if not self.target.box[k].contains(val):
                    raise DomainBoxError(
                        f"body image of sample {pt} escapes target axis {k}"
                    )
        return "box containment sampled on a 3-per-axis grid"

    def __eq__(self, other) -> bool:
        if not isinstance(other, SuperMorphism):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.even_components == other.even_components
                and self.odd_components == other.odd_components)

    def __repr__(self) -> str:
        return f"SuperMorphism({self.source} -> {self.target})"


def _linear_combination(shape: SuperDomainShape, triples) -> SuperFunction:
    """Σ c·s^k·F over (k, rational c, SuperFunction F), summed term by term."""
    acc: dict[int, dict] = {}
    for k, c, func in triples:
        for mask, poly in func.coeffs.items():
            _add_terms(acc.setdefault(mask, {}), [
                (exps[:-1] + (exps[-1] + k,) if k else exps, c * coeff)
                for exps, coeff in poly.terms.items()])
    return _sf(shape, {mask: _poly(shape.m, terms)
                       for mask, terms in acc.items() if terms})


def pullback(phi: SuperMorphism, f: SuperFunction) -> SuperFunction:
    """Substitute phi's components into f, Taylor-expanding around bodies.

    A power of an even component is a repeated product of the component or,
    for a negative exponent, of its inverse, which needs the body to be an
    invertible monomial.  This is an exact algebra morphism.

    Each odd sector ρ_α is substituted by grouping: its terms are grouped by
    the exponent of the first even variable and the rest is substituted
    recursively, so the last variable gives a linear combination of cached
    powers and each group costs one product.  The power of s of a term is
    a constant factor and passes through unchanged.
    """
    if f.shape != phi.target:
        raise DimensionError("function does not live on the morphism target")
    src = phi.source
    m = phi.target.m
    one = SuperFunction.one(src)
    power_cache: dict[tuple[int, int], SuperFunction] = {}

    def even_power(k: int, e: int) -> SuperFunction:
        # one product per power, from the nearest cached power of that sign
        step = 1 if e > 0 else -1
        if (k, step) not in power_cache:
            comp = phi.even_components[k]
            power_cache[(k, step)] = comp if e > 0 else comp.inv_even()
        low = e
        while (k, low) not in power_cache:
            low -= step
        acc, base = power_cache[(k, low)], power_cache[(k, step)]
        for p in range(low + step, e + step, step):
            acc = acc * base
            power_cache[(k, p)] = acc
        return acc

    def expand(terms: list, k: int) -> SuperFunction:
        """Σ c·s^t·Π_{i≥k} φ_i^{e_i} over the (key (e, t), c) in terms."""
        if k >= m - 1:
            return _linear_combination(src, [
                (exps[-1], c, even_power(k, exps[k]) if m and exps[k] else one)
                for exps, c in terms])
        groups: dict[int, list] = {}
        for term in terms:
            groups.setdefault(term[0][k], []).append(term)
        acc = None
        for e, group in groups.items():
            part = expand(group, k + 1)
            if e:
                part = even_power(k, e) * part
            acc = part if acc is None else acc + part
        return acc

    parts = []
    for alpha, poly in f.coeffs.items():
        odd_factor = one
        for j in _indices(alpha):
            odd_factor = odd_factor * phi.odd_components[j]
        if odd_factor.is_zero():
            continue
        image = expand(list(poly.terms.items()), 0)
        parts.append(image * odd_factor if alpha else image)
    return sum(parts, SuperFunction.zero(src))


def compose(first: SuperMorphism, then: SuperMorphism) -> SuperMorphism:
    """The morphism doing `first`, then `then` (components pulled back)."""
    if first.target != then.source:
        raise DimensionError("middle shapes do not match")
    evens = [pullback(first, c) for c in then.even_components]
    odds = [pullback(first, c) for c in then.odd_components]
    return SuperMorphism(first.source, then.target, evens, odds)


def pair(phi: SuperMorphism, psi: SuperMorphism) -> SuperMorphism:
    """(φ, ψ): S → T1×T2 for morphisms sharing the source."""
    if phi.source != psi.source:
        raise DimensionError("paired morphisms must share their source")
    target = shape_product(phi.target, psi.target)
    return SuperMorphism(
        phi.source, target,
        list(phi.even_components) + list(psi.even_components),
        list(phi.odd_components) + list(psi.odd_components))


def projection(s1: SuperDomainShape, s2: SuperDomainShape, factor: int) -> SuperMorphism:
    """Projection of S1×S2 onto the chosen factor (1 or 2)."""
    prod_shape = shape_product(s1, s2)
    if factor == 1:
        evens = [SuperFunction.coordinate(prod_shape, i) for i in range(s1.m)]
        odds = [SuperFunction.odd_gen(prod_shape, j) for j in range(s1.n)]
        return SuperMorphism(prod_shape, s1, evens, odds)
    if factor == 2:
        evens = [SuperFunction.coordinate(prod_shape, s1.m + i) for i in range(s2.m)]
        odds = [SuperFunction.odd_gen(prod_shape, s1.n + j) for j in range(s2.n)]
        return SuperMorphism(prod_shape, s2, evens, odds)
    raise ValueError("factor must be 1 or 2")


def morphism_product(phi: SuperMorphism, psi: SuperMorphism) -> SuperMorphism:
    """φ×ψ: S1×S2 → T1×T2."""
    src = shape_product(phi.source, psi.source)
    tgt = shape_product(phi.target, psi.target)
    evens = [c.embed(src, 0, 0) for c in phi.even_components]
    evens += [c.embed(src, phi.source.m, phi.source.n) for c in psi.even_components]
    odds = [c.embed(src, 0, 0) for c in phi.odd_components]
    odds += [c.embed(src, phi.source.m, phi.source.n) for c in psi.odd_components]
    return SuperMorphism(src, tgt, evens, odds)


def jacobian(phi: SuperMorphism) -> SuperMatrix:
    """Block matrix J_{ik} = ∂_i(component k), sources in rows.

    Rows run over the source's even then odd coordinates,
    columns over the target components; with left odd derivatives this is
    the matrix whose Berezinian is the change-of-variables factor, and it
    composes as J^{ψ∘φ} = J^φ · φ*(J^ψ).
    """
    if (phi.source.m, phi.source.n) != (phi.target.m, phi.target.n):
        raise DimensionError("jacobian needs equal graded dimensions")
    src = phi.source
    rows = jacobian_rows(phi, [("even", i) for i in range(src.m)]
                         + [("odd", j) for j in range(src.n)])
    return SuperMatrix(src.m, src.n, rows,
                       zero=SuperFunction.zero(src), one=SuperFunction.one(src))


def jacobian_rows(phi: SuperMorphism, row_vars: Sequence[tuple[str, int]]) -> list[list[SuperFunction]]:
    """Partial Jacobian: rows restricted to chosen source variables.

    row_vars entries are ("even", i) or ("odd", j); used for derivatives of
    translated coordinates with respect to the translation parameters held
    fixed.
    """
    total = phi.target.m + phi.target.n
    out = []
    for kind, i in row_vars:
        if kind == "even":
            out.append([phi.component(k).derive_even(i) for k in range(total)])
        elif kind == "odd":
            out.append([phi.component(k).derive_odd(i) for k in range(total)])
        else:
            raise ValueError("row kind must be 'even' or 'odd'")
    return out


def split_product_function(f: SuperFunction, left: SuperDomainShape,
                           right: SuperDomainShape) -> list[tuple[SuperFunction, SuperFunction]]:
    """Write f on left×right as Σ f_left·f_right, left factors leftmost.

    With the global ordering (left coords before right coords, both even
    and odd) the split introduces no signs.
    """
    if f.shape != shape_product(left, right):
        raise DimensionError("function does not live on the stated product")
    # (left exponents, left odd mask) -> right odd mask -> right terms;
    # the power of s stays with the right factor
    low = (1 << left.n) - 1
    grouped: dict[tuple, dict] = {}
    for mask, poly in f.coeffs.items():
        for exps, coeff in poly.terms.items():
            bucket = grouped.setdefault((exps[:left.m], mask & low), {})
            bucket.setdefault(mask >> left.n, {})[exps[left.m:]] = coeff
    return [(_sf(left, {left_odd: _poly(left.m, {left_exps + (0,): 1})}),
             _sf(right, {r_odd: _poly(right.m, terms)
                         for r_odd, terms in bucket.items()}))
            for (left_exps, left_odd), bucket in sorted(
                grouped.items(), key=lambda item: (item[0][0], _indices(item[0][1])))]
