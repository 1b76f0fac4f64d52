"""Superfunctions on coordinate superdomains, morphisms, and Jacobians.

A superdomain here is a box in R^m together with n odd coordinates.
Each kind of axis of the box (``Interval``, ``REALLINE``, ``POSITIVE``)
owns its containment test, samples, moments and spelling in a file.
Functions are finite sums Σ_α ξ^α f_α where the f_α are Laurent
polynomials with rational coefficients in the even coordinates and
s = sqrt(2π) — integer exponents may be negative, which is how the
multiplicative-group densities like a^{-1} stay exact.  A polynomial and
a superfunction store their coefficients in the one form of
``grassmann._Exact``, int numerators over one shared denominator in
lowest terms, so products, the pullback's linear combinations and box
integrals run on ints; a coefficient becomes an int or Fraction only
where it is read (``terms``), and printing reads the stored terms
(``grassmann._print_rows``).  Each term is stored under one
int key in the layout of ``grassmann._Layout``, read and written only
through its helpers: a polynomial's holds the exponents of the even
coordinates and the power of s, a superfunction's the generator mask of
ξ^α joined to its even part's key, over one denominator for the whole
function; ``terms`` keeps the tuple keys ``(e_1, ..., e_m, k)`` and
``(mask, e_1, ..., e_m, k)``.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction
from functools import cache
from itertools import groupby
from math import lcm
from operator import attrgetter, itemgetter

from .errors import DimensionError, DomainBoxError, NonIntegrableError, ParityError
from .grassmann import EVEN, ODD, Scalar, fused_sum
from .grassmann import (
    _Exact,
    _Graded,
    _Immutable,
    _Layout,
    _checked_mask,
    _constant,
    _embedded,
    _layout,
    _power,
    _print_rows,
    _quotient,
    _rational,
    _reduced,
    _stored,
    _sum_text,
)
from .supermatrix import SuperMatrix, _trusted


# -- boxes ----------------------------------------------------------------


class Axis(_Immutable):
    """An even axis; its kind owns ``_inside(n, d)``, the test of n/d in
    ints (d > 0; None: nothing to test), ``samples``, its Lebesgue and
    Gaussian moments of x^e in stored form (None where absent) and
    ``_text``, its spelling in a file."""

    __slots__ = ()

    _inside = _lebesgue = _gaussian = None

    def contains(self, x: Fraction) -> bool:
        x = _rational(x)  # TypeError on a float, as every exact input
        return self._inside is None or self._inside(x.numerator, x.denominator)

    def __str__(self) -> str:
        return self._text


class Interval(Axis):
    __slots__ = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction):
        lo, hi = Fraction(_rational(lo)), Fraction(_rational(hi))
        if lo >= hi:
            raise DomainBoxError(f"empty interval [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __repr__(self) -> str:
        return f"Interval(lo={self.lo!r}, hi={self.hi!r})"

    def _inside(self, n: int, d: int) -> bool:
        lo, hi = self.lo, self.hi
        return (lo.numerator * d <= n * lo.denominator
                and n * hi.denominator <= hi.numerator * d)

    def _lebesgue(self, e: int):
        if e == -1:
            raise NonIntegrableError("exponent -1 has no rational antiderivative")
        if e < 0 and self.lo <= 0 <= self.hi:
            raise NonIntegrableError(f"pole at 0 inside the box {self}")
        # (hi^k - lo^k) / (e + 1) in ints, hi = a/b and lo = c/d; a negative
        # k is the same formula on the inverted ends 1/hi and 1/lo
        (a, b), (c, d), k = (self.hi.as_integer_ratio(),
                             self.lo.as_integer_ratio(), e + 1)
        if k < 0:
            (a, b), (c, d), k = (b, a), (d, c), -k
        return _quotient((a * d) ** k - (c * b) ** k, (b * d) ** k * (e + 1))

    def samples(self) -> list[Fraction]:
        return [self.lo, (self.lo + self.hi) / 2, self.hi]

    @property
    def _text(self) -> str:
        return f"{self.lo} {self.hi}"

    def __str__(self) -> str:
        return f"{self.lo}:{self.hi}"


class _WholeLine(Axis):
    _text = "R"

    def _gaussian(self, e: int) -> int:
        """Moment of x^e against exp(-x^2/2) dx, over s."""
        if e < 0:
            raise NonIntegrableError(
                f"negative exponent {e} under the gaussian weight")
        if e % 2:
            return 0
        value = 1
        for odd in range(1, e, 2):
            value *= odd
        return value

    def samples(self) -> list[Fraction]:
        return [Fraction(-1), Fraction(0), Fraction(1)]

    def __repr__(self) -> str:
        return "REALLINE"


class _PositiveHalfLine(Axis):
    """(0, ∞), the natural home of multiplicative even coordinates."""

    _text = "R+"

    def _inside(self, n: int, d: int) -> bool:
        return n > 0

    def samples(self) -> list[Fraction]:
        return [Fraction(1, 2), Fraction(1), Fraction(2)]

    def __repr__(self) -> str:
        return "POSITIVE"


REALLINE = _WholeLine()
POSITIVE = _PositiveHalfLine()


def box_samples(box: Sequence[Axis]) -> list[tuple[Fraction, ...]]:
    """Grid of 3 rational points per axis, corners included for intervals."""
    points = [()]
    for axis in box:
        points = [pt + (x,) for pt in points for x in axis.samples()]
    return points


def box_contains(box: Sequence[Axis], point: Sequence[Fraction]) -> bool:
    return all(axis.contains(x) for axis, x in zip(box, point))


# -- shapes ---------------------------------------------------------------


class SuperDomainShape(_Immutable):
    __slots__ = ("m", "box", "n", "_key_layout")

    def __init__(self, m: int, box: tuple, n: int):
        if m < 0 or n < 0:
            raise DimensionError("dimensions must be nonnegative")
        box = tuple(box)
        if len(box) != m:
            raise DimensionError("box must give one axis per even coordinate")
        for axis in box:
            if not isinstance(axis, Axis):
                raise DomainBoxError(f"bad axis {axis!r}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "n", n)
        # the key layout of the superfunctions on this shape, read by every
        # product; == and hash ignore it, as it follows from m and n
        object.__setattr__(self, "_key_layout", _layout(n, m))

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self.m == other.m and self.n == other.n and self.box == other.box

    def __hash__(self):
        return hash((self.m, self.box, self.n))

    def __repr__(self) -> str:
        return f"SuperDomainShape(m={self.m}, box={self.box!r}, n={self.n})"

    def __str__(self) -> str:
        return f"({self.m}|{self.n})"


def shape_product(s1: SuperDomainShape, s2: SuperDomainShape) -> SuperDomainShape:
    """Product superdomain: evens of s1 then s2, odd coords of s1 then s2."""
    return SuperDomainShape(s1.m + s2.m, s1.box + s2.box, s1.n + s2.n)


# -- Laurent polynomials ---------------------------------------------------


@cache
def _polynomial_layout(nvars: int) -> _Layout:
    return _layout(0, nvars)


class Polynomial(_Exact):
    """Laurent polynomial in m even variables and s, rational coefficients.

    Stored as ``grassmann._Exact`` describes, each key holding the
    exponents of the variables and then the power of s (``terms`` keys
    them ``(e_1, ..., e_m, k)``), so the product loop,
    ``grassmann._anticommuting`` with no odd generators, the pullback's
    linear combinations and the box integrals multiply and add only ints.
    The public constructor takes ``{(e_1, ..., e_m): coefficient}`` with
    int exponents and Scalar, int or Fraction coefficients.  The inverse
    of a monomial, ``p ** -1``, any power (``grassmann._power``) and
    printing are the exact base's, as its arithmetic is.
    """

    __slots__ = ()
    nvars = _Exact._count
    _layout = staticmethod(_polynomial_layout)

    @staticmethod
    def _head(exps, nvars: int) -> tuple[int, tuple[int, ...]]:
        exps = tuple(exps)
        for e in exps:
            if not isinstance(e, int):
                raise TypeError("exponents must be integers")
        if len(exps) != nvars:
            raise DimensionError("exponent tuple has wrong length")
        return 0, exps

    # The named constructors make the public constructor's checks on their
    # arguments, with its errors, and then build the value in stored form.

    @staticmethod
    def zero(nvars: int) -> "Polynomial":
        if nvars < 0:
            raise DimensionError("generator count must be nonnegative")
        return _stored(Polynomial, nvars, 1, {})

    @staticmethod
    def constant(nvars: int, value) -> "Polynomial":
        () * nvars  # a non-int count raises as {(0,) * nvars: value} does
        if nvars < 0:
            raise DimensionError("generator count must be nonnegative")
        return _constant(Polynomial, nvars, value)

    @staticmethod
    def one(nvars: int) -> "Polynomial":
        return Polynomial.constant(nvars, 1)

    @staticmethod
    def variable(nvars: int, i: int, power: int = 1) -> "Polynomial":
        return _stored(Polynomial, nvars, 1, {_variable_key(nvars, i, power): 1})

    # ``_Exact``'s, bound here for the tracer, as in ``grassmann.Scalar``
    __add__ = __radd__ = _Exact.__add__
    __mul__ = _Exact.__mul__

    __pow__ = _power

    def derive(self, i: int) -> "Polynomial":
        if not 0 <= i < self.nvars:
            raise DimensionError("variable index out of range")
        return _reduced(Polynomial, self.nvars, self.den,
                        _layout(0, self.nvars).derivative(self.nums, i))

    def evaluate(self, point: Sequence[Fraction]) -> Scalar:
        """The value at a rational point, a value in s."""
        return _evaluate(self.den, _unpacked(_layout(0, self.nvars), self.nums),
                         _exact_point(self.nvars, point))

    def coefficient(self, exps: Sequence[int]) -> Scalar:
        """The coefficient of x^exps, a value in s."""
        exps = tuple(exps)
        return _reduced(Scalar, 0, self.den, {
            k: c for _, e, k, c in _layout(0, self.nvars).unpacked(self.nums)
            if e == exps})

    def __repr__(self) -> str:
        return f"Polynomial({self.nvars}, {self!s})"


def _variable_key(nvars: int, i: int, power) -> int:
    """The key of x_i^power among nvars variables, s^0, with the public
    constructor's errors for ``Polynomial(nvars, {exps: 1})``: the index
    range first, then the exponent's type and range."""
    if not 0 <= i < nvars:
        raise DimensionError("variable index out of range")
    layout = _layout(0, nvars)  # its bound on nvars before an nvars-tuple
    head = Polynomial._head((power if k == i else 0 for k in range(nvars)), nvars)
    return layout.key(*head, 0)


def _unpacked(layout: _Layout, nums: dict, mask: int | None = None) -> list:
    """The (exponents + (k,), numerator) pairs of ``nums`` keyed in
    ``layout``, those of generator mask ``mask`` only when it is given."""
    return [(exps + (k,), c) for odd, exps, k, c in layout.unpacked(nums)
            if mask is None or odd == mask]


def _exact_point(nvars: int, point: Sequence[Fraction]) -> list:
    """A point from outside in stored form: its length checked and each
    coordinate an int or Fraction (``_rational``)."""
    if len(point) != nvars:
        raise DimensionError("evaluation point has wrong length")
    return [_rational(x) for x in point]


def _evaluate(den: int, terms, point: Sequence) -> Scalar:
    """The value at ``point`` of the (exps, int numerator) ``terms`` over
    ``den``, exps the exponents of the variables and then the power of s;
    ``point`` is in stored form, as ``_exact_point`` gives it, so a caller
    that evaluates many values at one point converts it once.

    Each term's value is an int numerator over an int denominator, the
    terms of one power of s are summed as such, and the sums are put over
    one denominator and reduced once.  It stays apart from
    ``berezin._grid_body``, which evaluates a body over its whole 3^m
    sample grid, because at a single point it is the faster: on 4 axes
    5.0 µs against 14.6 µs through a one-point grid for one term, and 15.3
    against 36.7 µs for 5 terms (CPython 3.11, a 2-vCPU host).
    """
    sums = {}
    for exps, c in terms:
        d = 1
        for x, e in zip(point, exps):
            if e > 0:
                c *= x.numerator ** e
                d *= x.denominator ** e
            elif e:
                if x == 0:
                    raise ZeroDivisionError("negative exponent at zero")
                c *= x.denominator ** -e
                d *= x.numerator ** -e
        k = exps[-1]
        prev = sums.get(k)
        sums[k] = (c, d) if prev is None else (prev[0] * d + c * prev[1],
                                               prev[1] * d)
    common = lcm(*map(itemgetter(1), sums.values()))
    return _reduced(Scalar, 0, common * den, {
        k: c * (common // d) for k, (c, d) in sums.items()})


# -- superfunctions --------------------------------------------------------


class SuperFunction(_Graded):
    """Finite sum Σ_α ξ^α f_α(x) over a fixed superdomain shape.

    Stored as ``grassmann._Exact`` describes, over one denominator for the
    whole function, each key the generator mask of α (bit j for ξ_{j+1})
    joined to the key of the even coordinates' exponents and the power of
    s (``terms`` keys them ``(mask, e_1, ..., e_m, k)``); ``shape`` is the
    base's count slot.  On a (0|N) shape this is a ``GrassmannElement``'s
    form.  The constructor takes
    ``{α: f_α}`` with α an index tuple and f_α a Polynomial or a constant,
    and ``coefficient`` and ``str`` speak in index tuples too, a sector
    f_α being ``coefficient(α)``.  ``*`` and ``grassmann.fused_sum``, the
    fused base + sum a*b of the supermatrix ring protocol, run one product
    loop, ``grassmann._anticommuting``.
    ``inv_even``, ``coefficient`` and ``body_polynomial`` are the ones of
    ``grassmann._Graded``, as for a ``GrassmannElement``, with Polynomial
    sectors; only the printer, by sector, is this class's own.
    """

    __slots__ = ()
    shape = _Exact._count
    _layout = staticmethod(attrgetter("_key_layout"))
    _kind = "superfunction"
    _even_type = Polynomial

    def __new__(cls, shape: SuperDomainShape, coeffs: Mapping = ()):
        sectors = []
        for idx, poly in coeffs.items() if isinstance(coeffs, Mapping) else coeffs:
            mask = _checked_mask(idx, shape.n)
            if not isinstance(poly, Polynomial):
                poly = Polynomial.constant(shape.m, poly)
            if poly.nvars != shape.m:
                raise DimensionError("coefficient polynomial has wrong arity")
            sectors.append((mask, poly))
        den = lcm(*(poly.den for _, poly in sectors))
        join = shape._key_layout.join
        acc = {}
        for mask, poly in sectors:
            scale = den // poly.den
            for key, c in poly.nums.items():
                key = join(mask, key)
                acc[key] = acc.get(key, 0) + c * scale
        return _reduced(cls, shape, den, acc)

    # -- constructors ---------------------------------------------------

    # As Polynomial's: the public constructor's argument checks, then the
    # value in stored form.

    @staticmethod
    def zero(shape: SuperDomainShape) -> "SuperFunction":
        return _stored(SuperFunction, shape, 1, {})

    @staticmethod
    def one(shape: SuperDomainShape) -> "SuperFunction":
        return _constant(SuperFunction, shape, 1)

    @staticmethod
    def constant(shape: SuperDomainShape, value) -> "SuperFunction":
        return _constant(SuperFunction, shape, value)

    @staticmethod
    def coordinate(shape: SuperDomainShape, i: int, power: int = 1) -> "SuperFunction":
        return _stored(SuperFunction, shape, 1, {
            shape._key_layout.join(0, _variable_key(shape.m, i, power)): 1})

    @staticmethod
    def odd_gen(shape: SuperDomainShape, j: int) -> "SuperFunction":
        if not 0 <= j < shape.n:
            raise DimensionError("odd generator index out of range")
        mask = _checked_mask((j,), shape.n)
        return _stored(SuperFunction, shape, 1,
                       {shape._key_layout.key(mask, (0,) * shape.m, 0): 1})

    @staticmethod
    def from_polynomial(shape: SuperDomainShape, poly: Polynomial) -> "SuperFunction":
        if not isinstance(poly, Polynomial):
            return SuperFunction.constant(shape, poly)
        return _lifted(shape, poly)

    # -- structure ------------------------------------------------------

    def body_polynomial(self) -> Polynomial:
        return self._sector(0)

    def evaluate_body(self, point: Sequence[Fraction]) -> Scalar:
        return _evaluate_body(self, _exact_point(self.shape.m, point))

    # -- arithmetic -----------------------------------------------------

    # ``_Exact``'s, bound here for the tracer, as in ``grassmann.Scalar``
    __add__ = __radd__ = _Exact.__add__
    __mul__ = _Exact.__mul__

    def _coerce(self, value):
        # a Polynomial is lifted, as ``from_polynomial`` does
        if isinstance(value, Polynomial):
            return _lifted(self.shape, value)
        return _Exact._coerce(self, value)

    # -- derivatives ------------------------------------------------------

    def derive_even(self, i: int) -> "SuperFunction":
        if not 0 <= i < self.shape.m:
            raise DimensionError("variable index out of range")
        return _reduced(SuperFunction, self.shape, self.den,
                        self.shape._key_layout.derivative(self.nums, i))

    def derive_odd(self, j: int) -> "SuperFunction":
        """Left derivative: ∂_j(ξ_{a1}…ξ_{ak}) drops ξ_j with sign (-1)^{pos}."""
        if not 0 <= j < self.shape.n:
            raise DimensionError("odd index out of range")
        return _reduced(SuperFunction, self.shape, self.den,
                        self.shape._key_layout.odd_derivative(self.nums, j))

    # -- reshaping --------------------------------------------------------

    def embed(self, shape: SuperDomainShape, even_offset: int, odd_offset: int) -> "SuperFunction":
        """View on a larger shape, own coordinates starting at the offsets.

        The odd coordinates keep their order, so no signs appear.
        """
        if not 0 <= even_offset <= shape.m - self.shape.m:
            raise DimensionError("even offset out of range")
        if not 0 <= odd_offset <= shape.n - self.shape.n:
            raise DimensionError("odd offset out of range")
        return _stored(SuperFunction, shape, self.den, _embedded(
            self.nums, self.shape._key_layout, shape._key_layout, even_offset,
            odd_offset))

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        """By sector, each odd monomial after its coefficient, parenthesized
        when that has several terms, and the sectors joined by " + ":
        ``x1 + (2 - s) xi1 + -6 xi1 xi2``; printed straight from the stored
        terms (``_print_sectors``)."""
        parts = []
        for odd, terms in _print_sectors(self):
            p = _sum_text(self.den, terms)
            if not odd:
                parts.append(p)
            elif len(terms) > 1:
                parts.append(f"({p}) {odd}")
            else:
                parts.append(odd if p == "1" else f"{p} {odd}")
        return " + ".join(parts) or "0"

    def __repr__(self) -> str:
        return f"SuperFunction({self.shape}, {self!s})"


def _print_sectors(f: SuperFunction) -> list:
    """(odd text, rows) per sector of f in print order, the rows the
    sector's ``grassmann._print_rows`` with the odd text left out, as the
    sector printers print it after the sum."""
    out = []
    for odd, rows in groupby(_print_rows(f), itemgetter(0)):
        out.append((odd, [("", even, c) for _, even, c in rows]))
    return out


def _lifted(shape: SuperDomainShape, poly: Polynomial) -> SuperFunction:
    """poly as a superfunction on ``shape`` with no odd part, in stored
    form; DimensionError if poly's arity is not shape.m, as the public
    constructor says."""
    if poly.nvars != shape.m:
        raise DimensionError("coefficient polynomial has wrong arity")
    join = shape._key_layout.join
    return _stored(SuperFunction, shape, poly.den,
                   {join(0, key): c for key, c in poly.nums.items()})


def _evaluate_body(f: SuperFunction, point: Sequence) -> Scalar:
    """f's body at a point in stored form (``_exact_point``)."""
    return _evaluate(f.den, _unpacked(f.shape._key_layout, f.nums, 0), point)


# -- morphisms --------------------------------------------------------------


class SuperMorphism(_Immutable):
    """Map between superdomains, given by its coordinate pullbacks.

    even_components[k] is the superfunction on the source that the k-th
    even target coordinate pulls back to, and likewise for odd ones.  Every
    key of a component must have the component's parity (zero has none).
    """

    __slots__ = ("source", "target", "even_components", "odd_components")

    def __init__(self, source: SuperDomainShape, target: SuperDomainShape,
                 even_components: Sequence[SuperFunction],
                 odd_components: Sequence[SuperFunction]):
        even_components = tuple(even_components)
        odd_components = tuple(odd_components)
        if len(even_components) != target.m or len(odd_components) != target.n:
            raise DimensionError("component count must match target dimensions")
        for comps, odd, kind in ((even_components, 0, "even"),
                                 (odd_components, 1, "odd")):
            for comp in comps:
                if comp.shape != source:
                    raise DimensionError(f"{kind} component on wrong shape")
                if comp.nums and comp.parity() is not (ODD if odd else EVEN):
                    raise ParityError(f"{kind} component must be {kind}")
        _fill(self, source, target, even_components, odd_components)

    @staticmethod
    def identity(shape: SuperDomainShape) -> "SuperMorphism":
        evens = [SuperFunction.coordinate(shape, i) for i in range(shape.m)]
        odds = [SuperFunction.odd_gen(shape, j) for j in range(shape.n)]
        return _trusted_morphism(shape, shape, evens, odds)

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
        return _trusted_morphism(source, target, evens, odds)

    def component(self, k: int) -> SuperFunction:
        """Target coordinate image, evens first then odds."""
        if k < self.target.m:
            return self.even_components[k]
        return self.odd_components[k - self.target.m]

    def __eq__(self, other) -> bool:
        if not isinstance(other, SuperMorphism):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.even_components == other.even_components
                and self.odd_components == other.odd_components)

    def __repr__(self) -> str:
        return f"SuperMorphism({self.source} -> {self.target})"


def _fill(out: SuperMorphism, *slots) -> None:
    for name, value in zip(SuperMorphism.__slots__, slots):
        object.__setattr__(out, name, value)


def _trusted_morphism(source: SuperDomainShape, target: SuperDomainShape,
                      evens, odds) -> SuperMorphism:
    """The morphism of these components without the public constructor's
    checks: the trusted constructor, as ``supermatrix._trusted``, of the
    morphisms the program builds, right by construction."""
    out = object.__new__(SuperMorphism)
    _fill(out, source, target, tuple(evens), tuple(odds))
    return out


def _linear_combination(shape: SuperDomainShape, den: int, triples) -> SuperFunction:
    """Σ c·s^k·F / den over (k, int c, SuperFunction F), summed term by term
    over den times the lcm of the F's denominators."""
    common = lcm(*(func.den for _, _, func in triples))
    s = shape._key_layout.s  # what a factor s adds to a key
    acc = {}
    get = acc.get
    for k, c, func in triples:
        scale, shift = c * (common // func.den), k * s
        for key, num in func.nums.items():
            key += shift
            acc[key] = get(key, 0) + scale * num
    return _reduced(SuperFunction, shape, den * common, acc)


def pullback(phi: SuperMorphism, f: SuperFunction) -> SuperFunction:
    """Substitute phi's components into f: ``_puller(phi)(f)``.  Every
    function of a ``compose`` or a ``_differential`` goes through one
    puller of its morphism, sharing its caches, and the morphisms the
    program builds are built trusted (``_trusted_morphism``)."""
    return _puller(phi)(f)


def _puller(phi: SuperMorphism):
    """The map f -> phi^*f, an exact algebra morphism, and its caches,
    shared by every function it pulls back: the powers of the even
    components, each inverted once and only for a negative exponent (its
    body must be an invertible monomial), the odd products psi^alpha in
    generator order, and the images psi^alpha phi_1^e_1 ... phi_{m-1}^e_{m-1}
    of the prefixes of f's terms, each one product from a shorter one.  The
    last variable gives each prefix a linear combination of cached powers,
    the power of s of a term a constant factor in it (Horner's last level),
    and f's image is one ``grassmann.fused_sum(base, pairs)``.  A sector
    whose psi^alpha is zero is skipped before any power is taken.
    """
    src, m, layout = phi.source, phi.target.m, phi.target._key_layout
    one, zero = SuperFunction.one(src), SuperFunction.zero(src)
    powers: dict[tuple[int, int], SuperFunction] = {}
    prefixes: dict[tuple[int, tuple], SuperFunction] = {(0, ()): one}

    def power(k: int, e: int) -> SuperFunction:
        # one product per power, from the nearest cached power of that sign
        step = 1 if e > 0 else -1
        if (k, step) not in powers:
            comp = phi.even_components[k]
            powers[(k, step)] = comp if e > 0 else comp.inv_even()
        low = e
        while (k, low) not in powers:
            low -= step
        acc, base = powers[(k, low)], powers[(k, step)]
        for p in range(low + step, e + step, step):
            acc = acc * base
            powers[(k, p)] = acc
        return acc

    def prefix(alpha: int, head: tuple) -> SuperFunction:
        image = prefixes.get((alpha, head))
        if image is None:
            if head:
                image, e = prefix(alpha, head[:-1]), head[-1]
                factor = power(len(head) - 1, e) if e else one
            else:
                top = alpha.bit_length() - 1
                image = prefix(alpha ^ (1 << top), ())
                factor = phi.odd_components[top]
            if factor is not one:
                image = factor if image is one else image * factor
            prefixes[(alpha, head)] = image
        return image

    def pull(f: SuperFunction) -> SuperFunction:
        if f.shape != phi.target:
            raise DimensionError("function does not live on the morphism target")
        groups: dict[tuple[int, tuple], list] = {}
        for alpha, exps, k, c in layout.unpacked(f.nums):
            groups.setdefault((alpha, exps[:-1]), []).append(
                (exps[-1] if m else 0, k, c))
        base, pairs = zero, []
        for (alpha, head), terms in groups.items():
            if prefix(alpha, ()).is_zero():
                continue
            image = prefix(alpha, head)
            combination = _linear_combination(src, f.den, [
                (k, c, power(m - 1, e) if e else one) for e, k, c in terms])
            if image is one:
                base = combination
            else:
                pairs.append((image, combination))
        return fused_sum(base, pairs)

    return pull


def compose(first: SuperMorphism, then: SuperMorphism) -> SuperMorphism:
    """The morphism doing `first`, then `then`: `then`'s components pulled
    back through one ``_puller(first)``, built trusted."""
    if first.target != then.source:
        raise DimensionError("middle shapes do not match")
    pull = _puller(first)
    return _trusted_morphism(first.source, then.target,
                             map(pull, then.even_components),
                             map(pull, then.odd_components))


def pair(phi: SuperMorphism, psi: SuperMorphism) -> SuperMorphism:
    """(φ, ψ): S → T1×T2 for morphisms sharing the source."""
    if phi.source != psi.source:
        raise DimensionError("paired morphisms must share their source")
    target = shape_product(phi.target, psi.target)
    return _trusted_morphism(
        phi.source, target, phi.even_components + psi.even_components,
        phi.odd_components + psi.odd_components)


def projection(s1: SuperDomainShape, s2: SuperDomainShape, factor: int) -> SuperMorphism:
    """Projection of S1×S2 onto the chosen factor (1 or 2)."""
    prod_shape = shape_product(s1, s2)
    if factor == 1:
        evens = [SuperFunction.coordinate(prod_shape, i) for i in range(s1.m)]
        odds = [SuperFunction.odd_gen(prod_shape, j) for j in range(s1.n)]
        return _trusted_morphism(prod_shape, s1, evens, odds)
    if factor == 2:
        evens = [SuperFunction.coordinate(prod_shape, s1.m + i) for i in range(s2.m)]
        odds = [SuperFunction.odd_gen(prod_shape, s1.n + j) for j in range(s2.n)]
        return _trusted_morphism(prod_shape, s2, evens, odds)
    raise ValueError("factor must be 1 or 2")


def morphism_product(phi: SuperMorphism, psi: SuperMorphism) -> SuperMorphism:
    """φ×ψ: S1×S2 → T1×T2."""
    src = shape_product(phi.source, psi.source)
    tgt = shape_product(phi.target, psi.target)
    evens = [c.embed(src, 0, 0) for c in phi.even_components]
    evens += [c.embed(src, phi.source.m, phi.source.n) for c in psi.even_components]
    odds = [c.embed(src, 0, 0) for c in phi.odd_components]
    odds += [c.embed(src, phi.source.m, phi.source.n) for c in psi.odd_components]
    return _trusted_morphism(src, tgt, evens, odds)


def jacobian(phi: SuperMorphism) -> SuperMatrix:
    """Block matrix J_{ik} = ∂_i(component k), sources in rows.

    Rows run over the source's even then odd coordinates,
    columns over the target components; with left odd derivatives this is
    the matrix whose Berezinian is the change-of-variables factor, and it
    composes as J^{ψ∘φ} = J^φ · φ*(J^ψ).
    """
    if (phi.source.m, phi.source.n) != (phi.target.m, phi.target.n):
        raise DimensionError("jacobian needs equal graded dimensions")
    return _differential(phi, directions(phi.source))


def _differential(phi: SuperMorphism, dirs: Sequence[tuple[str, int]],
                  at: SuperMorphism | None = None) -> SuperMatrix:
    """The even (target.m | target.n) supermatrix ``jacobian_rows(phi,
    dirs)``, target.m even directions then target.n odd ones, its entries
    pulled back along ``at`` when given, all through one ``_puller(at)``,
    over the ring of ``at`` or else ``phi``'s source: the differential of
    every chart Berezinian.  Built by ``supermatrix._trusted``, as a
    morphism's components are homogeneous and derivatives and pullbacks
    keep the parities the check asks for.
    """
    rows = jacobian_rows(phi, dirs)
    if at is not None:
        pull = _puller(at)
        rows = [[pull(entry) for entry in row] for row in rows]
    shape = (at or phi).source
    return _trusted(phi.target.m, phi.target.n, rows, EVEN,
                    SuperFunction.zero(shape), SuperFunction.one(shape))


def directions(shape: SuperDomainShape, even_offset: int = 0,
               odd_offset: int = 0) -> list[tuple[str, int]]:
    """`shape`'s directions for `jacobian_rows`, evens then odds; for it as
    the second factor of ``shape_product(f, shape)``, offset by f.m, f.n."""
    return [("even", even_offset + i) for i in range(shape.m)] \
        + [("odd", odd_offset + j) for j in range(shape.n)]


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
