"""Exact supercommutative algebra on finitely many anticommuting generators.

Exact values are Laurent polynomials in the formal symbol
``s = sqrt(2*pi)`` with rational coefficients; keeping s symbolic makes
Gaussian-moment integration exact, and since s is transcendental the
model is faithful.  Algebra elements are finite sums of terms
``c s^k xi_{i1}...xi_{ik}`` with strictly increasing indices.  Each term is
stored under the key ``(mask, k)``: ``mask`` is the int whose bit i is set
when xi_{i+1} is a factor, and k is the power of s, so every coefficient
is a plain rational.  An element stores its coefficients as int
numerators over one shared denominator in lowest terms, as FLINT's
``fmpq_poly`` does: the pivot inverses 1/c of a Berezinian would spread
Fractions through every later product, and over one denominator the
product loop multiplies and adds only ints, with one gcd per result.  A
coefficient becomes an ``int`` or ``Fraction`` only where it is read
(``terms``, ``coefficient``, ``body``, printing); ``Scalar`` and the
superfunction layer keep such coefficients throughout, an ``int`` when
integral and a ``Fraction`` only when its denominator exceeds 1.  The
mask is the package's one odd-monomial key, also of ``SuperFunction``
sectors and Koszul monomials, and ``_odd_swaps`` its one sign rule: a
product of two monomials is a test, an or and a popcount on their masks.
Index tuples appear only where a value is built from ``{idx: coefficient}``,
asked for a coefficient or printed.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Mapping
from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType

from .errors import DimensionError, NonInvertibleError, ParityError


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


class Scalar:
    """An exact value in s = sqrt(2*pi): a Laurent polynomial in s over Q.

    ``terms`` maps each power of s to its nonzero coefficient, an int when
    integral and a Fraction otherwise, so zero has no terms.  s is
    transcendental, so this models the values of integrals over Gaussian
    axes faithfully: every sum is a value, and only a single power of s
    times a nonzero rational is invertible.  Algebra
    elements keep the power of s in their term keys; a Scalar is only what
    integrals, evaluations, bodies and coefficients return.
    """

    __slots__ = ("terms",)

    def __init__(self, rational=0, power: int = 0):
        q = _rational(rational)
        object.__setattr__(self, "terms", {int(power): q} if q else {})

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

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

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def rational(self) -> Fraction:
        """The value as a rational; ValueError if it carries a power of s."""
        if not self.terms:
            return Fraction(0)
        if len(self.terms) > 1 or 0 not in self.terms:
            raise ValueError(f"{self} is not rational: it carries a power of s")
        return Fraction(self.terms[0])

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other) -> "Scalar":
        if not isinstance(other, (Scalar, int, Fraction)):
            return NotImplemented
        return _in_s(_add_terms(dict(self.terms),
                                Scalar.coerce(other).terms.items()))

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return _in_s({k: -c for k, c in self.terms.items()})

    def __sub__(self, other) -> "Scalar":
        return self + (-other)

    def __rsub__(self, other) -> "Scalar":
        return -self + other

    def __mul__(self, other) -> "Scalar":
        if not isinstance(other, (Scalar, int, Fraction)):
            return NotImplemented
        return _in_s(_add_terms({}, [
            (ka + kb, ca * cb) for ka, ca in self.terms.items()
            for kb, cb in Scalar.coerce(other).terms.items()]))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Scalar":
        """Division by c s^k; a sum of several powers of s has no inverse."""
        other = Scalar.coerce(other)
        if not other.terms:
            raise ZeroDivisionError("division by zero Scalar")
        if len(other.terms) > 1:
            raise NonInvertibleError(
                f"{other} mixes powers of s and has no inverse in Q[s, 1/s]")
        (k, c), = other.terms.items()
        return self * _in_s({-k: _quotient(1, c)})

    def __pow__(self, n: int) -> "Scalar":
        if not isinstance(n, int):
            raise TypeError("Scalar powers must be integers")
        base = self if n >= 0 else Scalar.one() / self
        out = Scalar.one()
        for _ in range(abs(n)):
            out = out * base
        return out

    # -- comparison ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- printing -----------------------------------------------------

    def __str__(self) -> str:
        """Highest power of s first: ``2 s - 1``."""
        return _signed_sum([(self.terms[k], _monomial_text(k, ()))
                            for k in sorted(self.terms, reverse=True)])

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


def _in_s(terms: dict) -> Scalar:
    """The Scalar whose terms are ``terms``, which must map ints to nonzero
    coefficients in stored form and is kept, not copied."""
    out = object.__new__(Scalar)
    object.__setattr__(out, "terms", terms)
    return out


def _monomial_text(power: int, factors) -> str:
    """s^power (none for 0, ``s`` for 1), then the printed variable factors."""
    mark = [] if power == 0 else ["s" if power == 1 else f"s^{power}"]
    return " ".join(mark + list(factors))


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
    """
    swaps = 0
    while ma:
        low = ma & -ma
        swaps ^= low - 1
        ma ^= low
    return swaps


def _add_terms(acc: dict, items) -> dict:
    """Add the (key, value) pairs of ``items`` into the sparse sum ``acc``.

    Pairs are added in order, a repeated key as ``acc[key] + value``, and a
    key whose value is zero (false) is dropped.  A Fraction is stored in
    ``_canonical`` form; other values (ints, Polynomials) pass unchanged.
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


def _accumulate(acc: dict, a: dict, b: dict, scale: int) -> dict:
    """Add scale*a*b into ``acc`` and return it.

    ``a`` and ``b`` are numerator dicts keyed ``(mask, k)`` as
    ``GrassmannElement.nums``, so every product and sum is of ints.  Sums
    are left as they fall: a key may end on zero until ``_reduced``.
    """
    get = acc.get
    right = b.items()
    for (ma, ka), ca in a.items():
        ca *= scale
        swaps = _odd_swaps(ma)
        for (mb, kb), cb in right:
            if ma & mb:
                continue
            key = (ma | mb, ka + kb)
            prev = get(key)
            if (swaps & mb).bit_count() & 1:
                acc[key] = -ca * cb if prev is None else prev - ca * cb
            else:
                acc[key] = ca * cb if prev is None else prev + ca * cb
    return acc


class _Products(tuple):
    """The pairs (a, b) of a sum of products sum a*b, as an addend.

    The fused operation of the supermatrix ring protocol is
    ``base + _Products(pairs)``, the pairs holding elements of the base's
    own ring: ``GrassmannElement.__add__`` and ``SuperFunction.__add__``
    sum every product straight into one copy of the base's terms and
    canonicalise once, so no product or partial sum is built as an
    element.  A difference base - sum a*b is written with the factors a
    negated.
    """

    __slots__ = ()


def _inverse_series(start, factor, steps: int):
    """start (1 + factor + ... + factor^steps), stopping at a zero power.

    With u = b + n even, b an invertible body and n a nilpotent soul,
    start = b^-1 and factor = -b^-1 n give u^-1 once factor^(steps+1)
    vanishes.
    """
    acc = power = start
    for _ in range(steps):
        power = power * factor
        if power.is_zero():
            break
        acc = acc + power
    return acc


def _signed_sum(pieces) -> str:
    """Print (coefficient, monomial text) pairs as a signed sum, "0" if none.

    A unit coefficient is left out before a monomial and a negative one
    becomes the sign between terms.
    """
    parts = []
    for coeff, mono in pieces:
        body = str(coeff)
        negative = body.startswith("-")
        if negative:
            body = body[1:]
        if mono:
            body = mono if body == "1" else f"{body} {mono}"
        if parts:
            parts.append(f"- {body}" if negative else f"+ {body}")
        else:
            parts.append(f"-{body}" if negative else body)
    return " ".join(parts) or "0"


def _parity(masks) -> Parity | None:
    """The parity all odd monomials of these masks share; None if they mix
    or there are none."""
    masks = iter(masks)
    first = next(masks, None)
    if first is None:
        return None
    odd = first.bit_count() & 1
    for mask in masks:
        if mask.bit_count() & 1 != odd:
            return None
    return ODD if odd else EVEN


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


class GrassmannElement:
    """Finite sum of terms c s^k xi^idx over N generators, c rational.

    A value is stored as integer numerators over one shared denominator:
    ``nums`` maps each key ``(mask, k)`` to a nonzero int and ``den`` is an
    int >= 1, the coefficient of the term being ``nums[key] / den``.
    ``mask`` is the int whose bit i is set when xi_{i+1} is a factor of the
    odd monomial, and k is the power of s.  The form is canonical:
    ``gcd(den, *nums.values()) == 1`` and zero has ``den == 1``, so equal
    values are stored alike.  ``terms`` is the read-only canonical view
    ``{(mask, k): coefficient}``, the coefficient an int when integral and
    a Fraction otherwise, built from them when read (its Fractions once).
    The public constructor still takes ``{idx: coefficient}``, idx a
    strictly increasing generator tuple, with Scalar, int or Fraction
    coefficients; ``coefficient`` and ``str`` speak in index tuples too.
    ``self + _Products(pairs)`` is the fused base + sum a*b of the
    supermatrix ring protocol; it and ``*`` are one operation, ``_fused``,
    around one int product loop, ``_accumulate``.
    """

    __slots__ = ("generator_count", "den", "nums", "_terms")

    def __init__(self, generator_count: int, terms: Mapping[tuple[int, ...], object] = ()):
        if generator_count < 0:
            raise DimensionError("generator count must be nonnegative")
        checked = []
        for idx, coeff in terms.items() if isinstance(terms, Mapping) else terms:
            mask = _checked_mask(idx, generator_count)
            if isinstance(coeff, (int, Fraction)):
                checked.append(((mask, 0), _canonical(coeff)))
            else:
                checked.extend(((mask, k), c)
                               for k, c in Scalar.coerce(coeff).terms.items())
        den, nums = _over_one_denominator(_add_terms({}, checked))
        _set_count(self, generator_count)
        _set_den(self, den)
        _set_nums(self, nums)

    def __setattr__(self, name, value):
        raise AttributeError("GrassmannElement is immutable")

    @property
    def terms(self) -> Mapping[tuple[int, int], object]:
        """The canonical view ``{(mask, k): coefficient}`` of ``nums/den``;
        its Fractions are built once, on first read."""
        if self.den == 1:
            return MappingProxyType(self.nums)
        try:
            return self._terms
        except AttributeError:
            den = self.den
            view = MappingProxyType({key: _quotient(c, den)
                                     for key, c in self.nums.items()})
            object.__setattr__(self, "_terms", view)
            return view

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

    @staticmethod
    def generator(generator_count: int, index: int) -> "GrassmannElement":
        return GrassmannElement(generator_count, {(index,): 1})

    @staticmethod
    def monomial(generator_count: int, indices: Iterable[int], coeff=1) -> "GrassmannElement":
        return GrassmannElement(generator_count, {tuple(indices): coeff})

    # -- basic structure ----------------------------------------------

    def is_zero(self) -> bool:
        return not self.nums

    def __bool__(self) -> bool:
        return bool(self.nums)

    def _select(self, keep) -> "GrassmannElement":
        return _reduced(self.generator_count, self.den,
                        {key: c for key, c in self.nums.items() if keep(key[0])})

    def _values(self, keep) -> Scalar:
        """The Scalar sum of c s^k over the terms whose mask ``keep`` takes."""
        den = self.den
        return _in_s({k: c if den == 1 else _quotient(c, den)
                      for (mask, k), c in self.nums.items() if keep(mask)})

    def body(self) -> Scalar:
        return self._values(lambda mask: not mask)

    def soul(self) -> "GrassmannElement":
        return self._select(bool)

    def even_part(self) -> "GrassmannElement":
        return self._select(lambda mask: not mask.bit_count() & 1)

    def odd_part(self) -> "GrassmannElement":
        return self._select(lambda mask: mask.bit_count() & 1)

    def parity(self) -> Parity | None:
        """Parity if homogeneous; None for 0 or mixed elements."""
        return _parity(mask for mask, _ in self.nums)

    def coefficient(self, indices: Iterable[int]) -> Scalar:
        """The coefficient of xi^indices, a value in s.

        Zero unless ``indices`` is a strictly increasing tuple of this
        algebra's generators: a mask forgets order and repetition.
        """
        mask = _lookup_mask(indices, self.generator_count)
        return self._values(lambda m: m == mask)

    # -- arithmetic ---------------------------------------------------

    def _check_compatible(self, other: "GrassmannElement"):
        if self.generator_count != other.generator_count:
            raise _mismatch(self.generator_count, other)

    def __add__(self, other) -> "GrassmannElement":
        if type(other) is _Products:
            return _fused(self.generator_count, self.den, self.nums, other)
        other = self._coerce(other)
        self._check_compatible(other)
        return _reduced(self.generator_count,
                        *_add_into(dict(self.nums), self.den, other.nums, other.den))

    __radd__ = __add__

    def __neg__(self) -> "GrassmannElement":
        return _element(self.generator_count, self.den,
                        {key: -c for key, c in self.nums.items()})

    def __sub__(self, other) -> "GrassmannElement":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "GrassmannElement":
        return self._coerce(other) + (-self)

    def _coerce(self, value) -> "GrassmannElement":
        if isinstance(value, GrassmannElement):
            return value
        if isinstance(value, (int, Fraction, Scalar)):
            return GrassmannElement.scalar(self.generator_count, value)
        raise TypeError(f"cannot interpret {value!r} as a GrassmannElement")

    def __mul__(self, other) -> "GrassmannElement":
        return _fused(self.generator_count, 1, {}, ((self, self._coerce(other)),))

    def __rmul__(self, other) -> "GrassmannElement":
        # scalars are even and central, so this is safe
        return self._coerce(other) * self

    def inv_even(self) -> "GrassmannElement":
        """Inverse of an even element whose body is c s^k, c != 0.

        Uses sum_j b^-1 (-b^-1 * soul)^j with b the body, which terminates
        because every term of the even soul has degree >= 2, so soul^j = 0
        for j > N/2.  With the body's numerator c over den, b^-1 is den / c
        and -b^-1 * soul the soul's numerators over -c.
        """
        body, soul = {}, {}
        for key, c in self.nums.items():
            mask = key[0]
            if not mask:
                body[key[1]] = c
            elif mask.bit_count() & 1:
                raise ParityError("inv_even requires an even element")
            else:
                soul[key] = c
        if not body:
            raise NonInvertibleError("body is zero; element is not invertible")
        if len(body) > 1:
            raise NonInvertibleError(
                f"{self.body()} mixes powers of s and has no inverse in Q[s, 1/s]")
        (k, c), = body.items()
        sign = -1 if c < 0 else 1
        n = self.generator_count
        return _inverse_series(
            _reduced(n, sign * c, {(0, -k): sign * self.den}),
            _reduced(n, sign * c, {(mask, j - k): -sign * cj
                                   for (mask, j), cj in soul.items()}),
            n // 2)

    # -- reshaping ----------------------------------------------------

    def embed(self, new_count: int) -> "GrassmannElement":
        """View this element inside a larger algebra; indices unchanged."""
        if new_count < self.generator_count:
            raise DimensionError("cannot embed into a smaller algebra")
        return _element(new_count, self.den, dict(self.nums))

    # -- comparison / printing ----------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, Scalar)):
            other = self._coerce(other)
        if not isinstance(other, GrassmannElement):
            return NotImplemented
        return (self.generator_count == other.generator_count
                and self.den == other.den and self.nums == other.nums)

    def __hash__(self):
        return hash((self.generator_count, self.den, frozenset(self.nums.items())))

    def __str__(self) -> str:
        den = self.den
        printed = sorted(((_indices(mask), k, c if den == 1 else _quotient(c, den))
                          for (mask, k), c in self.nums.items()),
                         key=lambda t: (len(t[0]), t[0], -t[1]))
        return _signed_sum([(c, _monomial_text(k, (f"xi{i + 1}" for i in idx)))
                            for idx, k, c in printed])

    def __repr__(self) -> str:
        return f"GrassmannElement({self.generator_count}, {self!s})"


def _element(generator_count: int, den: int, nums: dict) -> GrassmannElement:
    """Trusted constructor for the results of closed operations.

    ``nums`` must map keys ``(mask, k)``, mask the int bitmask of in-range
    generators (bit i for xi_{i+1}) and k an int, to nonzero ints, with
    ``den`` >= 1 and ``gcd(den, *nums.values()) == 1`` (``den`` 1 when
    ``nums`` is empty), and is kept, not copied; the public constructor,
    which takes ``{idx: coefficient}``, checks all of this, this one
    assumes it.  The ``terms`` view is left unset until first read.
    """
    out = _new(GrassmannElement)
    _set_count(out, generator_count)
    _set_den(out, den)
    _set_nums(out, nums)
    return out


# The slot setters themselves: every product and fused sum builds an
# element, thousands per Berezinian, and these skip the attribute lookup
# of object.__setattr__.
_new = object.__new__
_set_count = GrassmannElement.generator_count.__set__
_set_den = GrassmannElement.den.__set__
_set_nums = GrassmannElement.nums.__set__


def _reduced(count: int, den: int, acc: dict, build=_element):
    """``build(count, den, nums)`` of ``acc / den`` in canonical form, for
    any den >= 1 and int values: zeros dropped, numerators and den over
    their gcd, so an empty sum has den 1.  ``acc`` may be kept, so it must
    be the caller's own new dict.  The one reduction of both
    representations: ``build`` is ``_element`` (count the generator count)
    or ``superdomain._poly`` (count the variable count)."""
    if 0 in acc.values():  # rare: a cancellation; a scan beats a copy
        acc = {key: c for key, c in acc.items() if c}
    if den != 1:
        g = gcd(den, *acc.values())
        if g != 1:
            return build(count, den // g, {key: c // g for key, c in acc.items()})
    return build(count, den, acc)


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


def _fused(generator_count: int, den: int, nums: dict, pairs) -> GrassmannElement:
    """nums/den + sum a*b over the (a, b) of ``pairs``, canonical.

    The products are summed first, over L = lcm(a.den b.den, ...), each
    pair's left factor times L // (a.den b.den), so the one product loop
    sums ints.  Where no product term arises (every two monomials share a
    generator, as between sparse entries over many generators), the base
    is the sum unchanged; otherwise it joins the products over
    lcm(den, L) and the sum is reduced once.  Raises DimensionError unless
    every factor has ``generator_count`` generators.
    """
    common = 1
    for a, b in pairs:
        if a.generator_count != generator_count or b.generator_count != generator_count:
            raise _mismatch(generator_count,
                            b if a.generator_count == generator_count else a)
        d = a.den * b.den
        if common % d:
            common = lcm(common, d)
    acc = {}
    for a, b in pairs:
        _accumulate(acc, a.nums, b.nums,
                    1 if common == 1 else common // (a.den * b.den))
    if not acc:
        return _element(generator_count, den, nums)
    if nums:
        common, acc = _add_into(acc, common, nums, den)
    return _reduced(generator_count, common, acc)


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


def _mismatch(generator_count: int, other: GrassmannElement) -> DimensionError:
    return DimensionError(
        "elements live over different generator counts "
        f"({generator_count} vs {other.generator_count}); embed first")
