"""Exact supercommutative algebra on finitely many anticommuting generators.

Exact values are Laurent polynomials in the formal symbol
``s = sqrt(2*pi)`` with rational coefficients; keeping s symbolic makes
Gaussian-moment integration exact, and since s is transcendental the
model is faithful.  Algebra elements are finite sums of terms
``c s^k xi_{i1}...xi_{ik}`` with strictly increasing indices.  Each term is
stored under the key ``(mask, k)``: ``mask`` is the int whose bit i is set
when xi_{i+1} is a factor, and k is the power of s, so every coefficient
is a plain rational.  Every exact value, a ``Scalar``, an element, a
``superdomain.Polynomial`` or a ``superdomain.SuperFunction`` (keyed
``(mask, e_1, ..., e_m, k)``: the odd generator mask, the even exponents,
the power of s), stores its coefficients as int numerators over one
shared denominator in lowest terms, in the one form of ``_Exact``, as
FLINT's ``fmpq_poly`` does: the pivot inverses 1/c of a Berezinian would
spread Fractions through every later product, and over one denominator
the product loop multiplies and adds only ints, with one gcd per result.
A coefficient becomes an ``int`` (when integral) or a ``Fraction`` only
where it is read (``terms``, ``rational``, printing).  Their arithmetic
is written once, on ``_Exact``: ``+``, ``-``, ``*`` and the coercion of
constants, each class giving only its product loop, and an operand a
class cannot take is handed to the other operand's reflected method, as
``fractions.Fraction`` does.
The mask is the package's one odd-monomial key, also of superfunctions
and Koszul monomials, and ``_odd_swaps`` its one sign rule, read from the
256-entry table ``_BYTE_SWAPS`` one byte of the mask at a time: a product
of two monomials is a test, an or, a lookup and a popcount on their masks.
Index tuples appear only where a value is built from ``{idx: coefficient}``,
asked for a coefficient or printed.

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
(``superdomain._differential``) likewise skip the per-entry parity check.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Mapping
from fractions import Fraction
from math import gcd, lcm
from operator import sub
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


class _Exact:
    """An exact value stored as int numerators over one denominator.

    ``nums`` maps each key to a nonzero int and ``den`` is an int >= 1, the
    coefficient under a key being ``nums[key] / den``, as FLINT's
    ``fmpq_poly`` stores a polynomial.  The form is canonical:
    ``gcd(den, *nums.values()) == 1`` and zero has ``den == 1``, so equal
    values are stored alike, and ``==`` and ``hash`` read the stored form;
    a constant, of any type and count, compares and hashes by its value.
    ``terms`` is the read-only canonical view ``{key: coefficient}``, the
    coefficient an int when integral and a Fraction otherwise, built when
    read (its Fractions once).  A key is the power of s for a ``Scalar``,
    ``(mask, k)`` for a ``GrassmannElement``, ``(e_1, ..., e_m, k)`` for
    a ``superdomain.Polynomial`` and ``(mask, e_1, ..., e_m, k)`` for a
    ``superdomain.SuperFunction``, k the power of s; ``_count`` is the
    element's generator count, the polynomial's variable count or the
    superfunction's shape, 0 for a Scalar.  Values are immutable: closed
    operations build their results with the trusted constructor
    ``_stored`` or the one reduction ``_reduced``, and the public
    constructor takes ``{head: coefficient}`` pairs, each head checked by
    the subclass's ``_head`` and each coefficient a Scalar, int or
    Fraction (``SuperFunction`` has its own, taking Polynomials).

    The base owns the arithmetic: ``+``, ``-``, ``*``, their reflected
    forms, the fused ``base + _Products(pairs)`` and the coercion of
    operands, ``_coerce``.  A subclass gives its product loop
    ``_accumulate(acc, a, b, scale)`` and the key head of a constant
    ``_zeros(count)``; ``Scalar``, keyed by bare powers of s, builds its
    own constants, and ``SuperFunction`` also lifts a Polynomial.
    """

    __slots__ = ("_count", "den", "nums", "_terms")

    def __new__(cls, count: int, terms: Mapping = ()):
        if count < 0:
            raise DimensionError("generator count must be nonnegative")
        checked = []
        for head, coeff in terms.items() if isinstance(terms, Mapping) else terms:
            head = cls._head(head, count)
            if isinstance(coeff, (int, Fraction)):
                checked.append((head + (0,), _canonical(coeff)))
            else:
                checked.extend((head + (k,), c)
                               for k, c in Scalar.coerce(coeff).terms.items())
        return _stored(cls, count, *_over_one_denominator(_add_terms({}, checked)))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def terms(self) -> Mapping:
        """The canonical view ``{key: coefficient}`` of ``nums/den``; its
        Fractions are built once, on first read."""
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
        if type(other) is _Products:
            return _fused(type(self), self._count, self.den, self.nums, other,
                          self._accumulate)
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
        return _reduced(type(self), self._count, self.den * other.den,
                        self._accumulate({}, self.nums, other.nums, 1))

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
        or variable exponent zero, the key's last entry k); None otherwise."""
        nums = self.nums
        if any(any(key[:-1]) for key in nums):
            return None
        return {key[-1]: c for key, c in nums.items()}


def _stored(cls, count: int, den: int, nums: dict):
    """The ``cls`` value ``nums / den`` over ``count`` generators or
    variables: the trusted constructor for every value the program builds
    itself, the results of closed operations, the named constructors after
    their argument checks and the suites' random draws (the rule of the
    module docstring); input from outside goes through the public one.

    ``nums`` must map keys of ``cls`` to nonzero ints, with ``den`` >= 1
    and ``gcd(den, *nums.values()) == 1`` (``den`` 1 when ``nums`` is
    empty), and is kept, not copied; the public constructor checks all of
    this, this one assumes it.  The ``terms`` view is left unset until
    first read.  A module function rather than a classmethod: every
    product builds a value, and a classmethod binds a new method object
    on each call.
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
    Scalar, keyed ``cls._zeros(count)`` and then the power of s, built in
    stored form: what the public constructors give for ``{zeros: value}``,
    with their TypeError for any other value (a float included)."""
    zeros = cls._zeros(count)
    if isinstance(value, Scalar):
        return _stored(cls, count, value.den,
                       {zeros + (k,): c for k, c in value.nums.items()})
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"cannot interpret {value!r} as a Scalar")
    nums = {zeros + (0,): value.numerator} if value else {}
    return _stored(cls, count, value.denominator, nums)


# The slot setters themselves: every product and fused sum builds a value,
# thousands per Berezinian, and these skip the attribute lookup of
# object.__setattr__.
_new = object.__new__
_set_count = _Exact._count.__set__
_set_den = _Exact.den.__set__
_set_nums = _Exact.nums.__set__


def _scalar_accumulate(acc: dict, a: dict, b: dict, scale: int) -> dict:
    """Add scale*a*b into ``acc`` and return it: ``Scalar``'s product loop,
    ``a`` and ``b`` numerator dicts keyed by the power of s as
    ``Scalar.nums``.  Sums are left as they fall, zeros included."""
    get = acc.get
    for ka, ca in a.items():
        ca *= scale
        for kb, cb in b.items():
            acc[ka + kb] = get(ka + kb, 0) + ca * cb
    return acc


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
    _accumulate = staticmethod(_scalar_accumulate)

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

    def _coerce(self, value):
        # its own, since a Scalar's key is the bare power of s
        if isinstance(value, Scalar):
            return value
        if isinstance(value, (int, Fraction)):
            return Scalar(value)
        return NotImplemented

    def _powers(self) -> dict:
        return self.nums

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
        """Division by c s^k; a sum of several powers of s has no inverse.

        With c = n / den in lowest terms, 1/c = den / n is too.
        """
        other = Scalar.coerce(other)
        if not other.nums:
            raise ZeroDivisionError("division by zero Scalar")
        if len(other.nums) > 1:
            raise NonInvertibleError(
                f"{other} mixes powers of s and has no inverse in Q[s, 1/s]")
        (k, c), = other.nums.items()
        sign = -1 if c < 0 else 1
        return self * _stored(Scalar, 0, sign * c, {-k: sign * other.den})

    def __pow__(self, n: int) -> "Scalar":
        if not isinstance(n, int):
            raise TypeError("Scalar powers must be integers")
        base = self if n >= 0 else Scalar.one() / self
        out = Scalar.one()
        for _ in range(abs(n)):
            out = out * base
        return out

    # -- printing -----------------------------------------------------

    def __str__(self) -> str:
        """Highest power of s first: ``2 s - 1``."""
        terms = self.terms
        return _signed_sum([(terms[k], _monomial_text(k, ()))
                            for k in sorted(terms, reverse=True)])

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


def _accumulate(acc: dict, a: dict, b: dict, scale: int) -> dict:
    """Add scale*a*b into ``acc`` and return it.

    ``a`` and ``b`` are numerator dicts keyed ``(mask, k)`` as
    ``GrassmannElement.nums``, so every product and sum is of ints.  Sums
    are left as they fall: a key may end on zero until ``_reduced``.  A
    left mask below 256 reads its ``_odd_swaps`` straight from the table.
    """
    get = acc.get
    right = b.items()
    table = _BYTE_SWAPS
    for (ma, ka), ca in a.items():
        ca *= scale
        swaps = table[ma] if ma < 256 else _odd_swaps(ma)
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
    own ring: ``_Exact.__add__`` sums every product straight into one copy
    of the base's terms and canonicalises once, so no product or partial
    sum is built as an element.  A difference base - sum a*b is written
    with the factors a negated.
    """

    __slots__ = ()


def _series_inverse(cls, count, den: int, head: tuple, c: int, soul,
                    steps: int, accumulate=_accumulate):
    """The inverse of the even ``cls`` value u = (c X + soul) / den over
    ``count``, X the monomial keyed ``head`` and ``soul`` the (key, int
    numerator) pairs of its nilpotent part, in stored order.

    With b = c X / den and n = soul / den, u^-1 = b^-1 sum_j (-b^-1 n)^j
    for j up to ``steps``, stopping at a zero power.  Over |c|, b^-1 is
    the numerator dict {-head: ±den} and -b^-1 n is {key - head: ∓n}, so
    the j-th term is an int dict over |c|^(j+1), one ``accumulate`` from
    the last.  The terms are summed over |c|^(J+1), J the last nonzero
    one, straight into one dict and reduced once.  A key keeps its place
    of first appearance and leaves the sum where the sum so far cancels,
    so the keys come in the order of adding the terms one at a time.
    """
    sign = -1 if c < 0 else 1
    power = {tuple(-e for e in head): sign * den}
    factor = {tuple(map(sub, key, head)): -sign * n for key, n in soul}
    powers = [power]
    for _ in range(steps):
        power = accumulate({}, power, factor, 1)
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
    """An exact value whose keys start with an odd generator mask: a
    ``GrassmannElement`` or a ``superdomain.SuperFunction``."""

    __slots__ = ()

    def _select(self, keep):
        return _reduced(type(self), self._count, self.den, {
            key: c for key, c in self.nums.items() if keep(key[0])})

    def soul(self):
        return self._select(bool)

    def even_part(self):
        return self._select(lambda mask: not mask.bit_count() & 1)

    def odd_part(self):
        return self._select(lambda mask: mask.bit_count() & 1)

    def _twisted(self):
        """``even_part() - odd_part()`` in one pass, already in stored form."""
        return _stored(type(self), self._count, self.den, {
            key: -c if key[0].bit_count() & 1 else c for key, c in self.nums.items()})

    def parity(self) -> Parity | None:
        """Parity if homogeneous; None for 0 or mixed values."""
        keys = iter(self.nums)
        first = next(keys, None)
        if first is None:
            return None
        odd = first[0].bit_count() & 1
        for key in keys:
            if key[0].bit_count() & 1 != odd:
                return None
        return ODD if odd else EVEN


class GrassmannElement(_Graded):
    """Finite sum of terms c s^k xi^idx over N generators, c rational.

    Stored as ``_Exact`` describes, keyed ``(mask, k)``: ``mask`` is the
    int whose bit i is set when xi_{i+1} is a factor of the odd monomial,
    and k is the power of s.  The public constructor still takes
    ``{idx: coefficient}``, idx a strictly increasing generator tuple, with
    Scalar, int or Fraction coefficients; ``coefficient`` and ``str`` speak
    in index tuples too.  ``self + _Products(pairs)`` is the fused base +
    sum a*b of the supermatrix ring protocol, ``_fused``; it and ``*`` run
    one int product loop, ``_accumulate``.
    """

    __slots__ = ()
    generator_count = _Exact._count
    _accumulate = staticmethod(_accumulate)

    @staticmethod
    def _head(idx: tuple[int, ...], generator_count: int) -> tuple[int]:
        return (_checked_mask(idx, generator_count),)

    @staticmethod
    def _zeros(generator_count: int) -> tuple[int]:
        return (0,)

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

    def _values(self, keep) -> Scalar:
        """The Scalar sum of c s^k over the terms whose mask ``keep`` takes."""
        return _reduced(Scalar, 0, self.den, {
            k: c for (mask, k), c in self.nums.items() if keep(mask)})

    def body(self) -> Scalar:
        return self._values(lambda mask: not mask)

    def coefficient(self, indices: Iterable[int]) -> Scalar:
        """The coefficient of xi^indices, a value in s.

        Zero unless ``indices`` is a strictly increasing tuple of this
        algebra's generators: a mask forgets order and repetition.
        """
        mask = _lookup_mask(indices, self.generator_count)
        return self._values(lambda m: m == mask)

    # -- arithmetic ---------------------------------------------------

    # ``_Exact``'s, bound here for the tracer, as in ``Scalar``
    __add__ = __radd__ = _Exact.__add__
    __mul__ = _Exact.__mul__

    def inv_even(self) -> "GrassmannElement":
        """Inverse of an even element whose body is c s^k, c != 0.

        Uses sum_j b^-1 (-b^-1 * soul)^j with b the body
        (``_series_inverse``), which terminates because every term of the
        even soul has degree >= 2, so soul^j = 0 for j > N/2.
        """
        body, soul = [], []
        for key, c in self.nums.items():
            mask = key[0]
            if not mask:
                body.append((key, c))
            elif mask.bit_count() & 1:
                raise ParityError("inv_even requires an even element")
            else:
                soul.append((key, c))
        if not body:
            raise NonInvertibleError("body is zero; element is not invertible")
        if len(body) > 1:
            raise NonInvertibleError(
                f"{self.body()} mixes powers of s and has no inverse in Q[s, 1/s]")
        (head, c), = body
        n = self.generator_count
        return _series_inverse(GrassmannElement, n, self.den, head, c, soul,
                               n // 2)

    # -- reshaping ----------------------------------------------------

    def embed(self, new_count: int) -> "GrassmannElement":
        """View this element inside a larger algebra; indices unchanged."""
        if new_count < self.generator_count:
            raise DimensionError("cannot embed into a smaller algebra")
        return _stored(GrassmannElement, new_count, self.den, dict(self.nums))

    # -- printing -----------------------------------------------------

    def __str__(self) -> str:
        den = self.den
        printed = sorted(((_indices(mask), k, c if den == 1 else _quotient(c, den))
                          for (mask, k), c in self.nums.items()),
                         key=lambda t: (len(t[0]), t[0], -t[1]))
        return _signed_sum([(c, _monomial_text(k, (f"xi{i + 1}" for i in idx)))
                            for idx, k, c in printed])

    def __repr__(self) -> str:
        return f"GrassmannElement({self.generator_count}, {self!s})"


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


def _fused(cls, count, den: int, nums: dict, pairs, accumulate):
    """The ``cls`` value nums/den + sum a*b over the (a, b) of ``pairs``,
    canonical.

    The products are summed first, over L = lcm(a.den b.den, ...), each
    pair's left factor times L // (a.den b.den), so the one product loop,
    ``accumulate`` (``_accumulate`` for keys ``(mask, k)``), sums ints.
    Where no product term arises (every two monomials share a generator,
    as between sparse entries over many generators), the base is the sum
    unchanged; otherwise it joins the products over lcm(den, L) and the
    sum is reduced once.  Raises DimensionError unless every factor is
    over ``count``, a generator count or a shape.
    """
    common = 1
    for a, b in pairs:
        if (a._count, b._count) != (count, count):  # an identity test first
            raise _mismatch(count, b if a._count == count else a)
        d = a.den * b.den
        if common % d:
            common = lcm(common, d)
    acc = {}
    for a, b in pairs:
        accumulate(acc, a.nums, b.nums,
                   1 if common == 1 else common // (a.den * b.den))
    if not acc:
        return _stored(cls, count, den, nums)
    if nums:
        common, acc = _add_into(acc, common, nums, den)
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
