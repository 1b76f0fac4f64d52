"""Superfunctions on coordinate superdomains, morphisms, and Jacobians.

A superdomain here is a box in R^m together with n odd coordinates.
Functions are finite sums Σ_α ξ^α f_α where the f_α are Laurent
polynomials with rational coefficients in the even coordinates and
s = sqrt(2π) — integer exponents may be negative, which is how the
multiplicative-group densities like a^{-1} stay exact.  A polynomial and
a superfunction store their coefficients in the one form of
``grassmann._Exact``, int numerators over one shared denominator in
lowest terms, so products, the pullback's linear combinations and box
integrals run on ints; a coefficient becomes an int or Fraction only
where it is read (``terms``, printing).  A polynomial's key is
``(e_1, ..., e_m, k)``, the exponents of the even coordinates and the
power of s; a superfunction's is ``(mask, e_1, ..., e_m, k)``, the
generator mask of ξ^α first, as in ``grassmann``, over one denominator
for the whole function.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add, itemgetter
from types import MappingProxyType

from .errors import (
    DimensionError,
    DomainBoxError,
    NonInvertibleError,
    ParityError,
)
from .grassmann import EVEN, Scalar
from .grassmann import (
    _BYTE_SWAPS,
    _Exact,
    _Graded,
    _checked_mask,
    _constant,
    _indices,
    _lookup_mask,
    _monomial_text,
    _odd_swaps,
    _rational,
    _reduced,
    _series_inverse,
    _signed_sum,
    _stored,
)
from .supermatrix import SuperMatrix, _trusted


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


def _poly_accumulate(acc: dict, a: dict, b: dict, scale: int) -> dict:
    """Add scale*a*b into ``acc`` and return it.

    ``a`` and ``b`` are numerator dicts as ``Polynomial.nums``, so every
    product and sum is of ints.  Sums are left as they fall: a key may end
    on zero until ``_reduced``.
    """
    get = acc.get
    right = b.items()
    for e1, c1 in a.items():
        c1 *= scale
        for e2, c2 in right:
            key = tuple(map(add, e1, e2))
            prev = get(key)
            acc[key] = c1 * c2 if prev is None else prev + c1 * c2
    return acc


class Polynomial(_Exact):
    """Laurent polynomial in m even variables and s, rational coefficients.

    Stored as ``grassmann._Exact`` describes, keyed ``(e_1, ..., e_m, k)``:
    the exponents of the variables and then the power of s, so the product
    loop, the pullback's linear combinations and the box integrals multiply
    and add only ints.  The public constructor takes
    ``{(e_1, ..., e_m): coefficient}`` with int exponents and Scalar, int
    or Fraction coefficients.
    """

    __slots__ = ()
    nvars = _Exact._count
    _accumulate = staticmethod(_poly_accumulate)

    @staticmethod
    def _head(exps, nvars: int) -> tuple[int, ...]:
        exps = tuple(exps)
        for e in exps:
            if not isinstance(e, int):
                raise TypeError("exponents must be integers")
        if len(exps) != nvars:
            raise DimensionError("exponent tuple has wrong length")
        return exps

    @staticmethod
    def _zeros(nvars: int) -> tuple[int, ...]:
        return (0,) * nvars

    # The named constructors make the public constructor's checks on their
    # arguments, with its errors, and then build the value in stored form.

    @staticmethod
    def zero(nvars: int) -> "Polynomial":
        if nvars < 0:
            raise DimensionError("generator count must be nonnegative")
        return _stored(Polynomial, nvars, 1, {})

    @staticmethod
    def constant(nvars: int, value) -> "Polynomial":
        Polynomial._zeros(nvars)  # a non-int count raises as in Polynomial()
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
        return len(self.nums) == 1

    def monomial_inverse(self) -> "Polynomial":
        """Inverse of c·s^k·x^e, the only invertible Laurent shapes: the
        series inverse of both ``inv_even``s with no soul, den/c."""
        if len(self.nums) != 1:
            raise NonInvertibleError(
                "only monomials are invertible in the Laurent polynomial ring"
            )
        (exps, c), = self.nums.items()
        return _series_inverse(Polynomial, self.nvars, self.den, exps, c, (), 0)

    def derive(self, i: int) -> "Polynomial":
        if not 0 <= i < self.nvars:
            raise DimensionError("variable index out of range")
        nums = {}
        for exps, c in self.nums.items():
            e = exps[i]
            if e:
                nums[exps[:i] + (e - 1,) + exps[i + 1:]] = c * e
        return _reduced(Polynomial, self.nvars, self.den, nums)

    def evaluate(self, point: Sequence[Fraction]) -> Scalar:
        """The value at a rational point, a value in s."""
        return _evaluate(self.den, self.nums.items(),
                         _exact_point(self.nvars, point))

    def coefficient(self, exps: Sequence[int]) -> Scalar:
        """The coefficient of x^exps, a value in s."""
        exps = tuple(exps)
        return _reduced(Scalar, 0, self.den, {
            e[-1]: c for e, c in self.nums.items() if e[:-1] == exps})

    def __str__(self) -> str:
        terms = self.terms
        return _signed_sum([
            (terms[exps], _monomial_text(exps[-1], (
                f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
                for i, e in enumerate(exps[:-1]) if e != 0)))
            for exps in sorted(terms, key=lambda e: (e[:-1], -e[-1]))])

    def __repr__(self) -> str:
        return f"Polynomial({self.nvars}, {self!s})"


def _variable_key(nvars: int, i: int, power) -> tuple[int, ...]:
    """The key of x_i^power among nvars variables, s^0, with the public
    constructor's errors for ``Polynomial(nvars, {exps: 1})``: the index
    range first, then the exponent's type."""
    if not 0 <= i < nvars:
        raise DimensionError("variable index out of range")
    exps = Polynomial._head((power if k == i else 0 for k in range(nvars)), nvars)
    return exps + (0,)


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
    one denominator and reduced once.
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


def _super_accumulate(acc: dict, a: dict, b: dict, scale: int) -> dict:
    """Add scale*a*b into ``acc`` and return it.

    ``a`` and ``b`` are numerator dicts keyed as ``SuperFunction.nums``, so
    every product and sum is of ints.  The loop is
    ``grassmann._accumulate``'s, its sign rule ``_odd_swaps`` read straight
    from the table ``_BYTE_SWAPS`` for a left mask below 256; a product's
    key is the entrywise sum of its factors' keys, the masks included,
    since for disjoint masks ma + mb = ma | mb.  Sums are left as they
    fall: a key may end on zero until ``_reduced``.
    """
    get = acc.get
    right = b.items()
    table = _BYTE_SWAPS
    for ka, ca in a.items():
        ma = ka[0]
        ca *= scale
        swaps = table[ma] if ma < 256 else _odd_swaps(ma)
        for kb, cb in right:
            mb = kb[0]
            if ma & mb:
                continue
            key = tuple(map(add, ka, kb))
            prev = get(key)
            if (swaps & mb).bit_count() & 1:
                acc[key] = -ca * cb if prev is None else prev - ca * cb
            else:
                acc[key] = ca * cb if prev is None else prev + ca * cb
    return acc


class SuperFunction(_Graded):
    """Finite sum Σ_α ξ^α f_α(x) over a fixed superdomain shape.

    Stored as ``grassmann._Exact`` describes, over one denominator for the
    whole function, keyed ``(mask, e_1, ..., e_m, k)``: the generator mask
    of α (bit j for ξ_{j+1}), the exponents of the even coordinates and the
    power of s; ``shape`` is the base's count slot.  On a (0|N) shape this
    is a ``GrassmannElement``'s form.  The constructor takes
    ``{α: f_α}`` with α an index tuple and f_α a Polynomial or a constant,
    and ``coefficient`` and ``str`` speak in index tuples too; ``coeffs`` is
    the read-only view ``{mask: f_α}``, each sector reduced on its own,
    built on first read.  ``self + _Products(pairs)``, the fused base +
    sum a*b of the supermatrix ring protocol (``grassmann._fused``), and
    ``*`` run one product loop, ``_super_accumulate``.
    """

    __slots__ = ("_coeffs",)
    shape = _Exact._count
    _accumulate = staticmethod(_super_accumulate)

    @staticmethod
    def _zeros(shape: SuperDomainShape) -> tuple[int, ...]:
        return (0,) * (shape.m + 1)

    def __new__(cls, shape: SuperDomainShape, coeffs: Mapping = ()):
        sectors = []
        for idx, poly in coeffs.items() if isinstance(coeffs, Mapping) else coeffs:
            mask = _checked_mask(idx, shape.n)
            if not isinstance(poly, Polynomial):
                poly = Polynomial.constant(shape.m, poly)
            if poly.nvars != shape.m:
                raise DimensionError("coefficient polynomial has wrong arity")
            sectors.append(((mask,), poly))
        den = lcm(*(poly.den for _, poly in sectors))
        acc = {}
        for head, poly in sectors:
            scale = den // poly.den
            for key, c in poly.nums.items():
                key = head + key
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
        return _stored(SuperFunction, shape, 1,
                       {(0,) + _variable_key(shape.m, i, power): 1})

    @staticmethod
    def odd_gen(shape: SuperDomainShape, j: int) -> "SuperFunction":
        if not 0 <= j < shape.n:
            raise DimensionError("odd generator index out of range")
        mask = _checked_mask((j,), shape.n)
        return _stored(SuperFunction, shape, 1, {(mask,) + (0,) * (shape.m + 1): 1})

    @staticmethod
    def from_polynomial(shape: SuperDomainShape, poly: Polynomial) -> "SuperFunction":
        if not isinstance(poly, Polynomial):
            return SuperFunction.constant(shape, poly)
        return _lifted(shape, poly)

    # -- structure ------------------------------------------------------

    @property
    def coeffs(self) -> Mapping:
        """The read-only view ``{mask: f_α}`` of the nonzero sectors, each
        Polynomial reduced on its own; built once, on first read."""
        try:
            return self._coeffs
        except AttributeError:
            sectors = {}
            for key, c in self.nums.items():
                sectors.setdefault(key[0], {})[key[1:]] = c
            m, den = self.shape.m, self.den
            view = MappingProxyType({mask: _reduced(Polynomial, m, den, nums)
                                     for mask, nums in sectors.items()})
            object.__setattr__(self, "_coeffs", view)
            return view

    def _sector(self, mask: int | None) -> Polynomial:
        """f_α for the generator mask of α, reduced on its own."""
        return _reduced(Polynomial, self.shape.m, self.den, {
            key[1:]: c for key, c in self.nums.items() if key[0] == mask})

    def body_polynomial(self) -> Polynomial:
        return self._sector(0)

    def coefficient(self, odd_index: Iterable[int]) -> Polynomial:
        return self._sector(_lookup_mask(odd_index, self.shape.n))

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

    def inv_even(self) -> "SuperFunction":
        """Inverse of an even superfunction with invertible (monomial) body."""
        if any(key[0].bit_count() & 1 for key in self.nums):
            raise ParityError("inv_even requires an even superfunction")
        body = [(key, c) for key, c in self.nums.items() if not key[0]]
        if len(body) != 1:
            raise NonInvertibleError(
                "only monomials are invertible in the Laurent polynomial ring")
        (head, c), = body
        return _series_inverse(
            SuperFunction, self.shape, self.den, head, c,
            [(key, n) for key, n in self.nums.items() if key[0]],
            self.shape.n // 2, _super_accumulate)

    # -- derivatives ------------------------------------------------------

    def derive_even(self, i: int) -> "SuperFunction":
        if not 0 <= i < self.shape.m:
            raise DimensionError("variable index out of range")
        nums = {}
        for key, c in self.nums.items():
            e = key[i + 1]
            if e:
                nums[key[:i + 1] + (e - 1,) + key[i + 2:]] = c * e
        return _reduced(SuperFunction, self.shape, self.den, nums)

    def derive_odd(self, j: int) -> "SuperFunction":
        """Left derivative: ∂_j(ξ_{a1}…ξ_{ak}) drops ξ_j with sign (-1)^{pos}."""
        if not 0 <= j < self.shape.n:
            raise DimensionError("odd index out of range")
        # distinct terms holding xi_j stay distinct without it: no sums
        bit = 1 << j
        nums = {}
        for key, c in self.nums.items():
            mask = key[0]
            if mask & bit:
                pos = (mask & (bit - 1)).bit_count()
                nums[(mask ^ bit,) + key[1:]] = -c if pos & 1 else c
        return _reduced(SuperFunction, self.shape, self.den, nums)

    # -- reshaping --------------------------------------------------------

    def embed(self, shape: SuperDomainShape, even_offset: int, odd_offset: int) -> "SuperFunction":
        """View on a larger shape, own coordinates starting at the offsets.

        The odd coordinates keep their order, so no signs appear.
        """
        if not 0 <= even_offset <= shape.m - self.shape.m:
            raise DimensionError("even offset out of range")
        if not 0 <= odd_offset <= shape.n - self.shape.n:
            raise DimensionError("odd offset out of range")
        left = (0,) * even_offset
        right = (0,) * (shape.m - even_offset - self.shape.m)
        return _stored(SuperFunction, shape, self.den, {
            (key[0] << odd_offset,) + left + key[1:-1] + right + key[-1:]: c
            for key, c in self.nums.items()})

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        parts = []
        for idx, poly in _sectors(self):
            mono = " ".join(f"xi{j + 1}" for j in idx)
            p = str(poly)
            if mono:
                if len(poly.nums) > 1:
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


def _lifted(shape: SuperDomainShape, poly: Polynomial) -> SuperFunction:
    """poly as a superfunction on ``shape`` with no odd part, in stored
    form; DimensionError if poly's arity is not shape.m, as the public
    constructor says."""
    if poly.nvars != shape.m:
        raise DimensionError("coefficient polynomial has wrong arity")
    return _stored(SuperFunction, shape, poly.den,
                   {(0,) + key: c for key, c in poly.nums.items()})


def _evaluate_body(f: SuperFunction, point: Sequence) -> Scalar:
    """f's body at a point in stored form (``_exact_point``)."""
    return _evaluate(f.den, [(key[1:], c) for key, c in f.nums.items()
                             if not key[0]], point)


def _sectors(f: SuperFunction) -> list[tuple[tuple[int, ...], Polynomial]]:
    """f's (index tuple, coefficient) sectors in print order."""
    return sorted(((_indices(mask), poly) for mask, poly in f.coeffs.items()),
                  key=lambda sector: (len(sector[0]), sector[0]))


# -- morphisms --------------------------------------------------------------


class SuperMorphism:
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
                if any(key[0].bit_count() & 1 != odd for key in comp.nums):
                    raise ParityError(f"{kind} component must be {kind}")
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

    def __eq__(self, other) -> bool:
        if not isinstance(other, SuperMorphism):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.even_components == other.even_components
                and self.odd_components == other.odd_components)

    def __repr__(self) -> str:
        return f"SuperMorphism({self.source} -> {self.target})"


def _linear_combination(shape: SuperDomainShape, den: int, triples) -> SuperFunction:
    """Σ c·s^k·F / den over (k, int c, SuperFunction F), summed term by term
    over den times the lcm of the F's denominators."""
    common = lcm(*(func.den for _, _, func in triples))
    acc = {}
    get = acc.get
    for k, c, func in triples:
        scale = c * (common // func.den)
        for key, num in func.nums.items():
            if k:
                key = key[:-1] + (key[-1] + k,)
            acc[key] = get(key, 0) + scale * num
    return _reduced(SuperFunction, shape, den * common, acc)


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

    def expand(terms: list, k: int, den: int) -> SuperFunction:
        """Σ c·s^t·Π_{i≥k} φ_i^{e_i} / den over the (key (e, t), int c) in
        terms."""
        if k >= m - 1:
            return _linear_combination(src, den, [
                (exps[-1], c, even_power(k, exps[k]) if m and exps[k] else one)
                for exps, c in terms])
        groups: dict[int, list] = {}
        for term in terms:
            groups.setdefault(term[0][k], []).append(term)
        acc = None
        for e, group in groups.items():
            part = expand(group, k + 1, den)
            if e:
                part = even_power(k, e) * part
            acc = part if acc is None else acc + part
        return acc

    sectors: dict[int, list] = {}
    for key, c in f.nums.items():
        sectors.setdefault(key[0], []).append((key[1:], c))
    parts = []
    for alpha, terms in sectors.items():
        odd_factor = one
        for j in _indices(alpha):
            odd_factor = odd_factor * phi.odd_components[j]
        if odd_factor.is_zero():
            continue
        image = expand(terms, 0, f.den)
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
    return _differential(phi, directions(phi.source))


def _differential(phi: SuperMorphism, dirs: Sequence[tuple[str, int]],
                  at: SuperMorphism | None = None) -> SuperMatrix:
    """The even (target.m | target.n) supermatrix ``jacobian_rows(phi,
    dirs)``, target.m even directions then target.n odd ones, its entries
    pulled back along ``at`` when given, over the ring of ``at`` or else
    ``phi``'s source: the differential of every chart Berezinian.  Built
    by ``supermatrix._trusted``, as a morphism's components are homogeneous
    and derivatives and pullbacks keep the parities the check asks for.
    """
    rows = jacobian_rows(phi, dirs)
    if at is not None:
        rows = [[pullback(at, entry) for entry in row] for row in rows]
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
