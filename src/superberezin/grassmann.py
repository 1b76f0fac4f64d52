"""Exact supercommutative algebra on finitely many anticommuting generators.

Exact values are Laurent polynomials in the formal symbol
``s = sqrt(2*pi)`` with rational coefficients; keeping s symbolic makes
Gaussian-moment integration exact, and since s is transcendental the
model is faithful.  Algebra elements are finite sums of terms
``c s^k xi_{i1}...xi_{ik}`` with strictly increasing indices.  Every exact
value, a ``Scalar``, an element, a ``superdomain.Polynomial`` or a
``superdomain.SuperFunction``, stores its coefficients as int numerators
over one shared denominator in lowest terms, in the one form of
``_Exact``, as FLINT's ``fmpq_poly`` does: the pivot inverses 1/c of a
Berezinian would spread Fractions through every later product, and over
one denominator the product loop multiplies and adds only ints, with one
gcd per result.  A coefficient becomes an ``int`` (when integral) or a
``Fraction`` only where it is read (``terms``, ``rational``).  Printing
reads the stored terms in one pass (``_print_rows``): one sort by odd
monomial, even exponents and power of s, each coefficient printed as
c/den over one gcd, and each odd monomial's indices and ``xi1 xi2`` text
taken from a bounded per-mask cache (``_odd_text``); the sector printers
of ``superdomain`` group the same rows by odd monomial.
Their arithmetic is written once, on ``_Exact``: ``+``, ``-``, ``*``, the
fused base + sum a*b (``fused_sum``), the coercion of constants, the
inverse, powers (``_power``) and printing, each class giving only its
layout, and an operand a class cannot take is handed to the other
operand's reflected method, as ``fractions.Fraction`` does.
An element's or a superfunction's sector, the coefficient of one odd
monomial, is read once too, on ``_Graded``.

Each term is stored under one int key, in the one layout of ``_Layout``,
which only this module reads: the odd generator mask (bit i set when
xi_{i+1} is a factor) in the low n bits, one 32-bit lane e + 2^30 per even
exponent e, and the power k of s in the unbounded top bits, so a Scalar's
key is k and an element's is ``mask + (k << n)``.  A product of two
monomials is then one sum of their keys less the lanes' bias, with one
test of the lanes' guard bits (the packed exponent vectors of Monagan and
Pearce, "Polynomial division using dynamic arrays, heaps, and packed
exponent vectors", CASC 2007), and one loop, ``_anticommuting``, serves
every class: a commutative ring is the purely even case of a
supercommutative one, so with no odd generators, as for Scalars and
polynomials, every mask is 0 and it is the commuting product.  The mask
is the package's one odd-monomial key, also of Koszul monomials, and
``_odd_swaps`` its one sign rule, read from the 256-entry table
``_BYTE_SWAPS`` one byte of the mask at a time: a product of two monomials
is a test, a sum, a lookup and a popcount.  Index tuples appear only where
a value is built from ``{idx: coefficient}``, asked for a coefficient or
printed (once per mask), and ``terms`` keeps the tuple keys of
``_Exact``'s docstring.

One rule says which values are checked.  Input from outside the program
goes through a public constructor, ``Scalar(...)``, ``GrassmannElement``,
``superdomain.Polynomial``/``SuperFunction``/``SuperMorphism`` (whose
components must each have one parity) or ``supermatrix.SuperMatrix(...)``,
which checks every index, exponent, coefficient type and parity.  A value
the program builds itself is built in stored form with
``_stored``/``_reduced`` (``_constant`` for constants): the results of
closed operations, the named constructors (``Polynomial.constant``,
``SuperFunction.coordinate``, ...) once their arguments pass the public
checks, and the random draws of ``suites``; supermatrix products, sums,
negations, drawn test matrices and the differentials of morphisms
(``superdomain._differential``) likewise skip the per-entry parity check,
as the program's own morphisms (``superdomain._trusted_morphism``) skip
the component checks.
"""

from __future__ import annotations

import enum
import functools
from collections.abc import Iterable, Mapping
from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType

from .errors import (DimensionError, NonInvertibleError, ParityError,
                     SuperBerezinError)


class Parity(enum.Enum):
    EVEN = 0
    ODD = 1

    def __add__(self, other: "Parity") -> "Parity":
        return Parity((self.value + other.value) % 2)

    def flip(self) -> "Parity":
        return Parity(1 - self.value)

    def __str__(self) -> str:
        return "even" if self is Parity.EVEN else "odd"


EVEN = Parity.EVEN
ODD = Parity.ODD


def koszul_sign(a: Parity, b: Parity) -> int:
    """Sign picked up when homogeneous elements of these parities swap."""
    return -1 if (a is ODD and b is ODD) else 1


# -- the key layout -----------------------------------------------------------

_LANE = 32          # bits per even exponent
_OFFSET = 1 << 30   # a lane stores e + _OFFSET, so it reads 0 for e = -2^30
_TOP = 1 << 31      # a lane's top bit, its guard bit
_FIELD = _TOP - 1   # the bits of a lane below its guard bit
_MAX_GENERATORS = 1000  # the most odd generators a layout takes
_MAX_VARIABLES = 1000   # the most even variables a layout takes


class _Layout:
    """The one int key of a term over n odd generators and m even
    variables: the generator mask in the low n bits, then one 32-bit lane
    per even exponent e_i holding e_i + 2^30, its top bit the lane's guard
    bit, and then the power k of s, unbiased, in the unbounded top bits.
    So an exponent lies in [-2^30, 2^30): a lane of e + 2^30 in [0, 2^31).

    Under it a Scalar's key is k, a GrassmannElement's ``mask + (k << n)``
    and a Polynomial's the n = 0 case; a SuperFunction's is its generator
    mask joined to the key of its even part, a Polynomial's key
    (``join``), so on (0|N) it is the element's.  The key of a product of
    two monomials with disjoint masks is the sum of their keys less
    ``bias``, the lanes of the exponents 0: a lane sum leaves [0, 2^31)
    exactly when its guard bit, or a lower lane's after a borrow, is set,
    so one test of ``guard`` finds it.  ``s`` is what multiplying a term
    by s adds to its key.  Only this module reads the bits; the other
    modules go through ``key``, ``unpacked`` and the helpers below.  n is
    at most ``_MAX_GENERATORS`` and m at most ``_MAX_VARIABLES``, checked
    before any mask or lane is built.
    """

    __slots__ = ("n", "m", "low", "bias", "guard", "top", "below", "s", "_lanes")

    def __init__(self, n: int, m: int):
        if n > _MAX_GENERATORS:
            raise DimensionError(f"generator count {n} exceeds the bound "
                                 f"N <= {_MAX_GENERATORS}")
        if m > _MAX_VARIABLES:
            raise DimensionError(f"even variable count {m} exceeds the bound "
                                 f"m <= {_MAX_VARIABLES}")
        self._lanes = tuple(range(n, n + _LANE * m, _LANE))
        self.n, self.m = n, m
        self.low = (1 << n) - 1
        self.bias = sum(_OFFSET << lane for lane in self._lanes)
        self.guard = sum(_TOP << lane for lane in self._lanes)
        self.top = n + _LANE * m
        self.below = (1 << self.top) - 1
        self.s = 1 << self.top

    def key(self, mask: int, exps: Iterable[int], k: int) -> int:
        """The key of xi^mask x^exps s^k; SuperBerezinError for an
        exponent outside [-2^30, 2^30)."""
        key = mask + (k << self.top)
        lane = self.n
        for e in exps:
            if not -_OFFSET <= e < _OFFSET:
                raise _lane_error()
            key += (e + _OFFSET) << lane
            lane += _LANE
        return key

    def unpacked(self, nums: dict, having: int = 0) -> list:
        """The split keys and the numerators, (mask, exponents, power of
        s, numerator), of the terms of ``nums`` whose masks hold every
        generator of the mask ``having``, in stored order."""
        low, top, lanes = self.low, self.top, self._lanes
        out = []
        for key, c in nums.items():
            if key & having == having:
                exps = []  # a loop: faster than a comprehension per key
                for lane in lanes:
                    exps.append(((key >> lane) & _FIELD) - _OFFSET)
                out.append((key & low, tuple(exps), key >> top, c))
        return out

    def join(self, mask: int, even: int) -> int:
        """The key of xi^mask times the (0|m) term keyed ``even``."""
        return mask + (even << self.n)

    def derivative(self, nums: dict, i: int) -> dict:
        """The numerators of d/dx_i of the numerators ``nums``: distinct
        terms with x_i stay distinct, so no sums arise; SuperBerezinError
        where an exponent leaves its lane."""
        lane = self.n + _LANE * i
        one, guard = 1 << lane, self.guard
        out = {}
        for key, c in nums.items():
            e = ((key >> lane) & _FIELD) - _OFFSET
            if e:
                key -= one
                if key & guard:
                    raise _lane_error()
                out[key] = c * e
        return out

    def odd_derivative(self, nums: dict, j: int) -> dict:
        """The numerators of the left derivative d/dxi_{j+1} of the
        numerators ``nums``: a term with xi_{j+1} loses it, with sign
        (-1)^(generators before it), and distinct terms stay distinct."""
        bit = 1 << j
        below = bit - 1
        out = {}
        for key, c in nums.items():
            if key & bit:
                out[key ^ bit] = -c if (key & below).bit_count() & 1 else c
        return out

    def checked(self, key: int) -> int:
        if key & self.guard:
            raise _lane_error()
        return key


@functools.cache
def _layout(n: int, m: int) -> _Layout:
    """The shared ``_Layout`` of n odd generators and m even variables."""
    return _Layout(n, m)


def _lane_error() -> SuperBerezinError:
    return SuperBerezinError(
        "an exponent leaves the stored range [-2^30, 2^30)")


class _Immutable:
    """Base of the package's immutable values: a subclass names its fields
    in ``__slots__`` and sets each once, where it is built, through
    ``object.__setattr__``; assigning or deleting one raises."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class _Exact(_Immutable):
    """An exact value stored as int numerators over one denominator.

    ``nums`` maps each key to a nonzero int and ``den`` is an int >= 1, the
    coefficient under a key being ``nums[key] / den``, as FLINT's
    ``fmpq_poly`` stores a polynomial.  The form is canonical:
    ``gcd(den, *nums.values()) == 1`` and zero has ``den == 1``, so equal
    values are stored alike, and ``==`` and ``hash`` read the stored form;
    a constant, of any type and count, compares and hashes by its value.
    A stored key is one int in the ``_Layout`` of the class's
    ``_layout(count)``, and ``(_count, den, nums)`` is all a value holds.
    ``terms`` is the read-only canonical view ``{key: coefficient}`` in
    tuple keys, the coefficient an int when integral and a Fraction
    otherwise, built on each read: a key is the power of s for a
    ``Scalar``, ``(mask, k)`` for a ``GrassmannElement``,
    ``(e_1, ..., e_m, k)`` for a ``superdomain.Polynomial`` and
    ``(mask, e_1, ..., e_m, k)`` for a ``superdomain.SuperFunction``, k
    the power of s; ``_count`` is the
    element's generator count, the polynomial's variable count or the
    superfunction's shape, 0 for a Scalar.  Values are immutable: closed
    operations build their results with the trusted constructor
    ``_stored`` or the one reduction ``_reduced``, and the public
    constructor takes ``{head: coefficient}`` pairs, each head checked by
    the subclass's ``_head`` and each coefficient a Scalar, int or
    Fraction (``SuperFunction`` has its own, taking Polynomials).

    The base owns the arithmetic: ``+``, ``-``, ``*``, their reflected
    forms and the coercion of operands, ``_coerce``, and every product, as
    every ``fused_sum``, runs the one loop ``_anticommuting``.  It also
    owns the inverse, ``_inverse`` (the one place a body that is not a
    monomial, a rational one, would be taught), the powers of ``_power``
    and printing.  A subclass gives its
    ``_layout``, and at most its own ``_not_invertible`` message;
    ``SuperFunction`` also lifts a Polynomial and prints by sector.
    ``Scalar`` is the (0|0) case, whose layout keys a term by its bare
    power of s.
    """

    __slots__ = ("_count", "den", "nums")

    def __new__(cls, count: int, terms: Mapping = ()):
        if count < 0:
            raise DimensionError("generator count must be nonnegative")
        checked = []
        for head, coeff in terms.items() if isinstance(terms, Mapping) else terms:
            mask, exps = cls._head(head, count)
            layout = cls._layout(count)  # after _head's checks of the count
            key = layout.key(mask, exps, 0)
            if isinstance(coeff, (int, Fraction)):
                checked.append((key, _canonical(coeff)))
            else:
                coeff = Scalar.coerce(coeff)
                checked.extend((key + k * layout.s, _quotient(c, coeff.den))
                               for k, c in coeff.nums.items())
        return _stored(cls, count, *_over_one_denominator(_add_terms({}, checked)))

    @property
    def terms(self) -> Mapping:
        """The canonical view ``{tuple key: coefficient}`` of ``nums/den``,
        built on each read."""
        den, view = self.den, self._view
        return MappingProxyType({
            view(mask, exps, k): c if den == 1 else _quotient(c, den)
            for mask, exps, k, c in self._layout(self._count).unpacked(self.nums)})

    @staticmethod
    def _view(mask: int, exps: tuple, k: int):
        """The ``terms`` key of a split stored key: a Polynomial's."""
        return exps + (k,)

    def is_zero(self) -> bool:
        return not self.nums

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __neg__(self):
        return _stored(type(self), self._count, self.den,
                       {key: -c for key, c in self.nums.items()})

    # -- arithmetic, written once (see the class docstring) --------------

    def _coerce(self, value):
        """``value`` as an operand over this type and count: a value of
        this type as it is (DimensionError over another count), a constant
        (int, Fraction or Scalar) built in stored form, anything else
        NotImplemented, so that Python asks the other operand's reflected
        method, as for ``fractions.Fraction`` (PEP 3141)."""
        if isinstance(value, type(self)):
            if value._count != self._count:
                raise _mismatch(self._count, value)
            return value
        if isinstance(value, (int, Fraction, Scalar)):
            return _constant(type(self), self._count, value)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return _reduced(type(self), self._count, *_add_into(
            dict(self.nums), self.den, other.nums, other.den))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return other if other is NotImplemented else self + -other

    def __rsub__(self, other):
        other = self._coerce(other)
        return other if other is NotImplemented else -self + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        count = self._count
        return _reduced(type(self), count, self.den * other.den, _anticommuting(
            {}, self.nums, other.nums, 1, self._layout(count)))

    def __rmul__(self, other):
        other = self._coerce(other)
        return other if other is NotImplemented else other * self

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Scalar(other)
        elif not isinstance(other, _Exact):
            return NotImplemented
        if type(other) is type(self) and self._count == other._count:
            return self.den == other.den and self.nums == other.nums
        # constants of any type and count compare by value, as they hash
        powers = self._powers()
        return (self.den == other.den and powers is not None
                and powers == other._powers())

    def __hash__(self):
        # a constant equals the int, Fraction or Scalar it holds, so it
        # hashes as that value does
        powers = self._powers()
        if powers is None:
            return hash((self._count, self.den, frozenset(self.nums.items())))
        if powers.keys() - {0}:
            return hash((0, self.den, frozenset(powers.items())))
        n = powers.get(0, 0)
        return hash(n if self.den == 1 else Fraction(n, self.den))

    def _powers(self) -> dict | None:
        """``{k: numerator}`` by power of s of a constant (every generator
        or variable exponent zero); None otherwise."""
        layout = self._layout(self._count)
        below, one, top = layout.below, layout.bias, layout.top
        nums = self.nums
        if any(key & below != one for key in nums):
            return None
        return {key >> top: c for key, c in nums.items()}

    # -- inverse and printing, written once ------------------------------

    def _inverse(self):
        """The inverse of an even value whose body, its terms with no odd
        generator, is one monomial: the series of ``_series_inverse`` up to
        n // 2 steps, n the layout's odd generator count, so none for a
        Scalar or a Polynomial, whose inverse is den/c times the inverse
        monomial.  ParityError for an odd term, else NonInvertibleError for
        a body of any other shape, with the class's ``_not_invertible``
        message.  The one inverse of every exact type."""
        layout = self._layout(self._count)
        low = layout.low
        body, soul = [], []
        for key, c in self.nums.items():
            mask = key & low
            if not mask:
                body.append((key, c))
            elif mask.bit_count() & 1:
                raise ParityError(
                    f"inv_even requires an even {self._kind}")
            else:
                soul.append((key, c))
        if len(body) != 1:
            raise NonInvertibleError(self._not_invertible(body))
        (head, c), = body
        return _series_inverse(type(self), self._count, self.den, head, c,
                               soul, layout.n // 2)

    def _not_invertible(self, body) -> str:
        return "only monomials are invertible in the Laurent polynomial ring"

    def __str__(self) -> str:
        """The terms as a signed sum, ordered by the size of their odd
        monomial, then its generator indices, then the even exponents, then
        the power of s downward: ``2 s - 1``, ``2 + xi1 xi2``; each term's
        even factors, then its odd ones (``_print_rows``)."""
        return _sum_text(self.den, _print_rows(self))


def _power(value, k: int):
    """``value ** k`` for an int k by repeated squaring, a negative k as
    the -k-th power of the inverse, ``_Exact._inverse``.  No square is
    taken past the last bit of k: it is not needed, and its exponents could
    leave their lanes."""
    if k < 0:
        value, k = value._inverse(), -k
    out = _constant(type(value), value._count, 1)
    while k:
        if k & 1:
            out = out * value
        k >>= 1
        if k:
            value = value * value
    return out


def _stored(cls, count: int, den: int, nums: dict):
    """The ``cls`` value ``nums / den`` over ``count`` generators or
    variables: the trusted constructor for every value the program builds
    itself, the results of closed operations, the named constructors after
    their argument checks and the suites' random draws (the rule of the
    module docstring); input from outside goes through the public one.

    ``nums`` must map keys of ``cls`` to nonzero ints, with ``den`` >= 1
    and ``gcd(den, *nums.values()) == 1`` (``den`` 1 when ``nums`` is
    empty), and is kept, not copied; the public constructor checks all of
    this, this one assumes it.  A module function rather than a
    classmethod: every product builds a value, and a classmethod binds a
    new method object on each call.
    """
    out = _new(cls)
    _set_count(out, count)
    _set_den(out, den)
    _set_nums(out, nums)
    return out


def _reduced(cls, count: int, den: int, acc: dict):
    """``_stored`` of ``acc / den`` in canonical form, for any den >= 1
    and int values: zeros dropped, numerators and den over their gcd, so
    an empty sum has den 1.  ``acc`` may be kept, so it must be the
    caller's own new dict.  The one reduction of every exact value."""
    if 0 in acc.values():  # rare: a cancellation; a scan beats a copy
        acc = {key: c for key, c in acc.items() if c}
    if den != 1:
        g = gcd(den, *acc.values())
        if g != 1:
            return _stored(cls, count, den // g,
                           {key: c // g for key, c in acc.items()})
    return _stored(cls, count, den, acc)


def _constant(cls, count, value):
    """The constant ``cls`` value over ``count`` of an int, Fraction or
    Scalar, keyed by the layout's key of 1 (``bias``) with each power of s
    added, built in stored form: what the public constructors give for
    ``{zeros: value}``, with their TypeError for any other value (a float
    included)."""
    layout = cls._layout(count)
    one = layout.bias
    if isinstance(value, Scalar):
        return _stored(cls, count, value.den,
                       {one + k * layout.s: c for k, c in value.nums.items()})
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"cannot interpret {value!r} as a Scalar")
    nums = {one: value.numerator} if value else {}
    return _stored(cls, count, value.denominator, nums)


# The slot setters themselves: every product and fused sum builds a value,
# thousands per Berezinian, and these skip the attribute lookup of
# object.__setattr__.
_new = object.__new__
_set_count = _Exact._count.__set__
_set_den = _Exact.den.__set__
_set_nums = _Exact.nums.__set__


@functools.cache
def _no_lanes(count) -> _Layout:
    return _layout(0, 0)


class Scalar(_Exact):
    """An exact value in s = sqrt(2*pi): a Laurent polynomial in s over Q.

    Stored as ``_Exact`` describes, keyed by the power of s, so ``terms``
    maps each power of s to its nonzero coefficient and zero has no terms.
    s is transcendental, so this models the values of integrals over
    Gaussian axes faithfully: every sum is a value, and only a single
    power of s times a nonzero rational is invertible.  Algebra elements
    keep the power of s in their term keys; a Scalar is only what
    integrals, evaluations, bodies and coefficients return.
    """

    __slots__ = ()
    _layout = staticmethod(_no_lanes)

    def __new__(cls, rational=0, power: int = 0):
        q = _rational(rational)
        return _stored(cls, 0, q.denominator, {int(power): q.numerator} if q else {})

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "Scalar":
        return Scalar(0)

    @staticmethod
    def one() -> "Scalar":
        return Scalar(1)

    @staticmethod
    def coerce(value) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        if isinstance(value, (int, Fraction)):
            return Scalar(value)
        raise TypeError(f"cannot interpret {value!r} as a Scalar")

    @staticmethod
    def _view(mask: int, exps: tuple, k: int) -> int:
        return k

    @property
    def rational(self) -> Fraction:
        """The value as a rational; ValueError if it carries a power of s."""
        if not self.nums:
            return Fraction(0)
        if len(self.nums) > 1 or 0 not in self.nums:
            raise ValueError(f"{self} is not rational: it carries a power of s")
        return Fraction(self.nums[0], self.den)

    # -- arithmetic ---------------------------------------------------

    # ``_Exact``'s, bound again in this class's own dict: the outside
    # tracer (bench/tracer.py) wraps ``cls.__dict__[name]``, so it times
    # this class's sums and products apart from the other classes'
    __add__ = __radd__ = _Exact.__add__
    __mul__ = _Exact.__mul__

    def __truediv__(self, other) -> "Scalar":
        """Division by c s^k through the one inverse, ``_Exact._inverse``;
        a sum of several powers of s has no inverse.
        """
        other = Scalar.coerce(other)
        if not other.nums:
            raise ZeroDivisionError("division by zero Scalar")
        return self * other._inverse()

    def _not_invertible(self, body) -> str:
        return f"{self} mixes powers of s and has no inverse in Q[s, 1/s]"

    def __pow__(self, n: int) -> "Scalar":
        if not isinstance(n, int):
            raise TypeError("Scalar powers must be integers")
        return _power(self if n >= 0 else Scalar.one() / self, abs(n))

    def __repr__(self) -> str:
        return f"Scalar({self!s})"


def _canonical(q):
    """The stored form of a rational: its numerator when integral, else q.

    The one normalisation of every coefficient: an int stays an int, and a
    Fraction whose denominator is 1 becomes its int.
    """
    return q.numerator if q.denominator == 1 else q


def _rational(value):
    """An input coefficient in stored form; TypeError unless int or Fraction.

    A float is refused: its binary value is not the rational it was
    written as.
    """
    if isinstance(value, (int, Fraction)):
        return _canonical(value)
    raise TypeError(f"{value!r} is not an exact rational (int or Fraction)")


def _quotient(a, b):
    """a / b for rationals, in stored form; never a float."""
    return _canonical(Fraction(a, b))


def _mask(idx: tuple[int, ...]) -> int:
    mask = 0
    for i in idx:
        mask |= 1 << i
    return mask


def _indices(mask: int) -> tuple[int, ...]:
    """The strictly increasing generator indices of a mask."""
    idx = []
    while mask:
        low = mask & -mask
        idx.append(low.bit_length() - 1)
        mask ^= low
    return tuple(idx)


def _odd_swaps(ma: int) -> int:
    """The generators that pass an odd number of the letters of xi^ma.

    Bit i is set when an odd number of the generators in ``ma`` lie above
    i.  This is the one sign rule of every anticommuting product: for masks
    ma and mb that share no generator, xi^ma xi^mb is xi^(ma | mb) times
    (-1)^popcount(_odd_swaps(ma) & mb), since each letter of xi^mb moves
    left past the letters of xi^ma above it.

    Read from ``_BYTE_SWAPS`` one byte at a time, low byte first (the
    table method for prefix parity, Warren, *Hacker's Delight*, 2nd ed.,
    5-2): a byte's entry is the rule within that byte, complemented when
    the bytes above it hold an odd number of generators.
    """
    if ma < 256:
        return _BYTE_SWAPS[ma]
    swaps = shift = 0
    while ma:
        rest = ma >> 8
        byte = _BYTE_SWAPS[ma & 0xFF]
        if rest.bit_count() & 1:
            byte ^= 0xFF
        swaps |= byte << shift
        ma = rest
        shift += 8
    return swaps


def _byte_table() -> tuple[int, ...]:
    """``_odd_swaps`` of every mask below 256, the bit loop run once: the
    entry of m is that of m without its lowest generator, XORed with the
    bits below that generator, which it passes."""
    table = [0]
    for m in range(1, 256):
        low = m & -m
        table.append(table[m ^ low] ^ (low - 1))
    return tuple(table)


_BYTE_SWAPS = _byte_table()


def _add_terms(acc: dict, items) -> dict:
    """Add the (key, value) pairs of ``items`` into the sparse sum ``acc``.

    Pairs are added in order, a repeated key as ``acc[key] + value``, and a
    key whose value is zero (false) is dropped.  A Fraction is stored in
    ``_canonical`` form; an int passes unchanged.
    Returns ``acc``, which is updated in place.
    """
    for key, value in items:
        prev = acc.get(key)
        if prev is not None:
            value = prev + value
        if value:
            if type(value) is Fraction:
                value = _canonical(value)
            acc[key] = value
        else:
            acc.pop(key, None)
    return acc


def _anticommuting(acc: dict, a: dict, b: dict, scale: int,
                   layout: _Layout) -> dict:
    """Add scale*a*b into ``acc`` and return it: the one product loop of
    every exact type, ``a`` and ``b`` numerator dicts keyed in ``layout``,
    so every product and sum is of ints.  Monomials whose masks share a
    generator give nothing; otherwise the key is the sum of the keys less
    ``bias``, since the disjoint masks add to their union, and
    SuperBerezinError where an exponent leaves its lane.  The sign is
    ``_odd_swaps``'s, read straight from the table for a left mask below
    256.  The left mask and its swaps hold bits below n
    only, so they are tested against the right key itself, whose low n
    bits are its mask.  Sums are left as they fall: a key may end on zero
    until ``_reduced``.

    On a layout with no odd generators (n = 0), a ``Scalar``'s or a
    ``superdomain.Polynomial``'s, it is the commuting product: every mask
    is 0 and ``_BYTE_SWAPS[0]`` is 0, so no pair is skipped and no sign
    applied.
    """
    low, bias, guard = layout.low, layout.bias, layout.guard
    get = acc.get
    right = b.items()
    table = _BYTE_SWAPS
    for ka, ca in a.items():
        ma = ka & low
        ca *= scale
        swaps = table[ma] if ma < 256 else _odd_swaps(ma)
        ka -= bias
        for kb, cb in right:
            if ma & kb:
                continue
            key = ka + kb
            if key & guard:
                raise _lane_error()
            prev = get(key)
            if (swaps & kb).bit_count() & 1:
                acc[key] = -ca * cb if prev is None else prev - ca * cb
            else:
                acc[key] = ca * cb if prev is None else prev + ca * cb
    return acc


def _series_inverse(cls, count, den: int, head: int, c: int, soul,
                    steps: int):
    """The inverse of the even ``cls`` value u = (c X + soul) / den over
    ``count``, X the monomial keyed ``head``, with no odd generator, and
    ``soul`` the (key, int numerator) pairs of its nilpotent part, in
    stored order.

    With b = c X / den and n = soul / den, u^-1 = b^-1 sum_j (-b^-1 n)^j
    for j up to ``steps``, stopping at a zero power.  Over |c|, b^-1 is
    the numerator dict {1/X: ±den} and -b^-1 n is {Y/X: ∓n} over the soul's
    monomials Y, their keys ``2 bias - head`` and ``key + bias - head`` in
    the class's layout (SuperBerezinError where an exponent leaves its
    lane), so the j-th term is an int dict over |c|^(j+1), one product
    loop from the last.  The terms are summed over |c|^(J+1), J the last
    nonzero one, straight into one dict and reduced once.  A key keeps its
    place of first appearance and leaves the sum where the sum so far
    cancels, so the keys come in the order of adding the terms one at a
    time.
    """
    layout = cls._layout(count)
    checked = layout.checked
    sign = -1 if c < 0 else 1
    over = layout.bias - head
    power = {checked(layout.bias + over): sign * den}
    factor = {checked(key + over): -sign * n for key, n in soul}
    powers = [power]
    for _ in range(steps):
        power = _anticommuting({}, power, factor, 1, layout)
        if 0 in power.values():
            power = {key: n for key, n in power.items() if n}
        if not power:
            break
        powers.append(power)
    c *= sign
    acc = {}
    get = acc.get
    last = len(powers) - 1
    for j, power in enumerate(powers):
        scale = c ** (last - j)
        for key, n in power.items():
            acc[key] = get(key, 0) + n * scale
        if 0 in acc.values():
            acc = {key: n for key, n in acc.items() if n}
            get = acc.get
    return _reduced(cls, count, c ** len(powers), acc)


# -- printing, in one pass over the stored terms -------------------------------

_ODD_TEXTS: dict = {}  # mask -> ((size, indices), "xi1 xi2"), see _odd_text
_ODD_TEXTS_BOUND = 1 << 12


def _odd_text(mask: int) -> tuple:
    """((size, indices), text) of the odd monomial xi^mask: its place in
    print order and its ``xi1 xi2`` text, from a cache keyed by the mask
    alone, which any generator count shares and which is emptied when it
    holds ``_ODD_TEXTS_BOUND`` masks, so it stays bounded however many
    generators a value has."""
    entry = _ODD_TEXTS.get(mask)
    if entry is None:
        if len(_ODD_TEXTS) >= _ODD_TEXTS_BOUND:
            _ODD_TEXTS.clear()
        idx = _indices(mask)
        entry = _ODD_TEXTS[mask] = (
            (len(idx), idx), " ".join([f"xi{i + 1}" for i in idx]))
    return entry


def _print_rows(value: _Exact) -> list:
    """(odd text, even text, numerator) of each stored term of ``value``
    in print order: by the size of the odd monomial, then its generator
    indices, then the even exponents, then the power of s downward.  An
    even text is the term's power of s (none for 0, ``s`` for 1, ``s^k``)
    and then its variable factors (``x1``, ``x2^-2``); an odd text is
    ``_odd_text``'s, empty for the mask 0.  One pass over ``nums`` and one
    sort: no ``terms`` view and no per-term tuple of indices is built."""
    layout = value._layout(value._count)
    low, top, lanes = layout.low, layout.top, layout._lanes
    known = _ODD_TEXTS.get
    rows = []
    for key, c in value.nums.items():
        mask = key & low
        order, odd = known(mask) or _odd_text(mask)
        # within a mask, a key without lanes orders by its power of s
        rows.append((order, [(key >> lane) & _FIELD for lane in lanes]
                     + [-(key >> top)] if lanes else -key, odd, key, c))
    rows.sort()
    out = []
    for _, _, odd, key, c in rows:
        k = key >> top
        even = "" if not k else "s" if k == 1 else f"s^{k}"
        if lanes:
            factors = [even] if even else []
            for i, lane in enumerate(lanes, 1):
                e = ((key >> lane) & _FIELD) - _OFFSET
                if e:
                    factors.append(f"x{i}" if e == 1 else f"x{i}^{e}")
            even = " ".join(factors)
        out.append((odd, even, c))
    return out


def _sum_text(den: int, rows) -> str:
    """The (odd text, even text, numerator) ``rows`` over ``den`` as a
    signed sum of monomials, even factors first, "0" if none: each
    coefficient c/den over ``gcd(c, den)``, a unit one left out before a
    monomial and a negative one the sign between terms: ``2 s - 1/2 x1``."""
    parts = []
    for odd, even, c in rows:
        negative = c < 0
        if negative:
            c = -c
        if den == 1:
            coeff = str(c)
        else:
            g = gcd(c, den)
            coeff = str(c // g) if g == den else f"{c // g}/{den // g}"
        mono = f"{even} {odd}" if even and odd else even or odd
        if mono:
            body = mono if coeff == "1" else f"{coeff} {mono}"
        else:
            body = coeff
        if parts:
            parts.append(f"- {body}" if negative else f"+ {body}")
        else:
            parts.append(f"-{body}" if negative else body)
    return " ".join(parts) or "0"


def _checked_mask(idx: tuple[int, ...], count: int) -> int:
    """The mask of a strictly increasing tuple of generators below count."""
    idx = tuple(idx)
    for i in idx:
        if not isinstance(i, int):
            raise TypeError("generator indices must be integers")
    if idx and (min(idx) < 0 or max(idx) >= count):
        raise DimensionError(f"generator index out of range for count {count}: {idx}")
    mask = 0
    for i in idx:
        bit = 1 << i
        if bit <= mask:  # not above every generator so far
            raise ParityError(f"index tuple not strictly increasing: {idx}")
        mask |= bit
    return mask


def _lookup_mask(indices: Iterable[int], count: int) -> int | None:
    """``_checked_mask``, or None where it raises: a mask forgets order and
    repetition, so (2, 0) and (0, 0, 2) name no monomial."""
    indices = tuple(indices)
    try:
        return _checked_mask(indices, count)
    except (TypeError, DimensionError, ParityError):
        return None


class _Graded(_Exact):
    """An exact value whose keys hold an odd generator mask: a
    ``GrassmannElement`` or a ``superdomain.SuperFunction``, with the
    parts, parity, inverse and sector reads that read the mask.  A sector,
    the coefficient of one odd monomial, is a value of the class's
    ``_even_type``: a ``Scalar`` for an element, a ``superdomain.Polynomial``
    for a superfunction."""

    __slots__ = ()

    @staticmethod
    def _view(mask: int, exps: tuple, k: int) -> tuple:
        return (mask,) + exps + (k,)

    def _select(self, keep):
        low = self._layout(self._count).low
        return _reduced(type(self), self._count, self.den, {
            key: c for key, c in self.nums.items() if keep(key & low)})

    def soul(self):
        return self._select(bool)

    def even_part(self):
        return self._select(lambda mask: not mask.bit_count() & 1)

    def odd_part(self):
        return self._select(lambda mask: mask.bit_count() & 1)

    def _twisted(self):
        """``even_part() - odd_part()`` in one pass, already in stored form."""
        low = self._layout(self._count).low
        return _stored(type(self), self._count, self.den, {
            key: -c if (key & low).bit_count() & 1 else c
            for key, c in self.nums.items()})

    def parity(self) -> Parity | None:
        """Parity if homogeneous; None for 0 or mixed values."""
        low = self._layout(self._count).low
        keys = iter(self.nums)
        first = next(keys, None)
        if first is None:
            return None
        odd = (first & low).bit_count() & 1
        for key in keys:
            if (key & low).bit_count() & 1 != odd:
                return None
        return ODD if odd else EVEN

    def _sector(self, mask: int | None):
        """The coefficient of xi^mask, reduced on its own: the even parts,
        ``key >> n``, of the terms of that mask, as an ``_even_type`` value
        over the layout's even variables; zero for the mask None."""
        layout = self._layout(self._count)
        low, n = layout.low, layout.n
        return _reduced(self._even_type, layout.m, self.den, {
            key >> n: c for key, c in self.nums.items() if key & low == mask})

    def coefficient(self, indices: Iterable[int]):
        """The coefficient of xi^indices, an ``_even_type`` value.

        Zero unless ``indices`` is a strictly increasing tuple of this
        value's generators: a mask forgets order and repetition.
        """
        return self._sector(
            _lookup_mask(indices, self._layout(self._count).n))

    def inv_even(self):
        """Inverse of an even value whose body is one monomial, c != 0.

        Uses sum_j b^-1 (-b^-1 * soul)^j with b the body
        (``_series_inverse``), which terminates because every term of the
        even soul has degree >= 2, so soul^j = 0 for j > n/2.
        """
        return self._inverse()


@functools.cache
def _element_layout(generator_count: int) -> _Layout:
    return _layout(generator_count, 0)


class GrassmannElement(_Graded):
    """Finite sum of terms c s^k xi^idx over N generators, c rational.

    Stored as ``_Exact`` describes, keyed ``mask + (k << N)`` in its
    ``_Layout``: ``mask`` is the int whose bit i is set when xi_{i+1} is a
    factor of the odd monomial, and k is the power of s; ``terms`` keys
    them ``(mask, k)``.  The public constructor still takes
    ``{idx: coefficient}``, idx a strictly increasing generator tuple, with
    Scalar, int or Fraction coefficients; ``coefficient`` and ``str`` speak
    in index tuples too.  ``*`` and ``fused_sum``, the fused base + sum a*b
    of the supermatrix ring protocol, run one int product loop,
    ``_anticommuting``.
    """

    __slots__ = ()
    generator_count = _Exact._count
    _layout = staticmethod(_element_layout)
    _kind = "element"
    _even_type = Scalar

    @staticmethod
    def _head(idx: tuple[int, ...], generator_count: int) -> tuple[int, tuple]:
        return _checked_mask(idx, generator_count), ()

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(generator_count: int) -> "GrassmannElement":
        return GrassmannElement(generator_count)

    @staticmethod
    def one(generator_count: int) -> "GrassmannElement":
        return GrassmannElement(generator_count, {(): 1})

    @staticmethod
    def scalar(generator_count: int, value) -> "GrassmannElement":
        return GrassmannElement(generator_count, {(): value})

    # -- basic structure ----------------------------------------------

    def body(self) -> Scalar:
        return self._sector(0)

    # -- arithmetic ---------------------------------------------------

    # ``_Exact``'s and ``_Graded``'s, bound here for the tracer, as in
    # ``Scalar``
    __add__ = __radd__ = _Exact.__add__
    __mul__ = _Exact.__mul__
    inv_even = _Graded.inv_even

    def _not_invertible(self, body) -> str:
        if not body:
            return "body is zero; element is not invertible"
        return f"{self.body()} mixes powers of s and has no inverse in Q[s, 1/s]"

    # -- reshaping ----------------------------------------------------

    def embed(self, new_count: int) -> "GrassmannElement":
        """View this element inside a larger algebra; indices unchanged."""
        if new_count < self.generator_count:
            raise DimensionError("cannot embed into a smaller algebra")
        return _stored(GrassmannElement, new_count, self.den, _embedded(
            self.nums, _layout(self.generator_count, 0),
            _layout(new_count, 0), 0, 0))

    def __repr__(self) -> str:
        return f"GrassmannElement({self.generator_count}, {self!s})"


def _embedded(nums: dict, layout: _Layout, into: _Layout, even_offset: int,
              odd_offset: int) -> dict:
    """``nums`` moved from ``layout`` into the larger ``into``, its
    generators and variables starting at the offsets there: each key's
    mask, lanes and power of s moved whole, the lanes of the other
    variables at exponent 0.  The order of the generators is kept, so no
    sign arises, and no exponent changes, so none leaves its lane."""
    n, low, below, top = layout.n, layout.low, layout.below, layout.top
    at = into.n + _LANE * even_offset
    pad = into.bias - ((layout.bias >> n) << at)
    into_top = into.top
    return {((key & low) << odd_offset) + (((key & below) >> n) << at) + pad
            + ((key >> top) << into_top): c for key, c in nums.items()}


def _over_one_denominator(terms: dict) -> tuple[int, dict]:
    """(den, nums) of canonical terms (nonzero int or Fraction values, as
    ``_add_terms`` leaves them), ``terms`` itself when all are ints: den
    is the lcm of their reduced denominators, so no prime divides den and
    every numerator."""
    den = 1
    for c in terms.values():
        if type(c) is not int:
            den = lcm(den, c.denominator)
    if den == 1:
        return 1, terms
    return den, {key: c.numerator * (den // c.denominator)
                 for key, c in terms.items()}


def fused_sum(base: _Exact, pairs) -> _Exact:
    """base + sum a*b over the (a, b) of the iterable ``pairs``, canonical,
    of base's type: the fused sum of the supermatrix ring protocol, a
    difference taking its left factors negated.  Every pair is checked
    (DimensionError unless both factors are over base's count or shape),
    and one with a zero factor is then skipped.

    The products are summed first, over L = lcm(a.den b.den, ...), each
    pair's left factor times L // (a.den b.den), so the one product loop,
    ``_anticommuting``, sums ints.  Where no product term arises (every
    two monomials share a generator, as between sparse entries over many
    generators), the sum is ``base``; otherwise base joins the products
    over lcm(base.den, L) and the sum is reduced once.  The name is public
    because the outside tracer (``bench/tracer.py``) times the public
    functions of each layer module, so this time counts as ``grassmann``'s.
    """
    cls, count = type(base), base._count
    common, live = 1, []
    for a, b in pairs:
        if (a._count, b._count) != (count, count):  # an identity test first
            raise _mismatch(count, b if a._count == count else a)
        if a.nums and b.nums:
            live.append((a, b))
            d = a.den * b.den
            if common % d:
                common = lcm(common, d)
    acc = {}
    layout = cls._layout(count)
    for a, b in live:
        _anticommuting(acc, a.nums, b.nums,
                       1 if common == 1 else common // (a.den * b.den), layout)
    if not acc:
        return base
    if base.nums:
        common, acc = _add_into(acc, common, base.nums, base.den)
    return _reduced(cls, count, common, acc)


def _add_into(acc: dict, den: int, nums: dict, nums_den: int) -> tuple[int, dict]:
    """(denominator, numerators) of acc/den + nums/nums_den over the lcm of
    the two denominators; ``acc`` is the caller's own dict, changed in
    place unless it must be scaled."""
    common = lcm(den, nums_den)
    if common != den:
        scale = common // den
        acc = {key: c * scale for key, c in acc.items()}
    scale = common // nums_den
    get = acc.get
    for key, c in nums.items():
        acc[key] = get(key, 0) + c * scale
    return common, acc


def _mismatch(count, other: _Exact) -> DimensionError:
    return DimensionError(
        "values live over different generator counts or shapes "
        f"({count} vs {other._count}); embed first")
