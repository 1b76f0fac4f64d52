"""Exact supercommutative algebra on finitely many anticommuting generators.

Exact values are Laurent polynomials in the formal symbol
``s = sqrt(2*pi)`` with rational coefficients; keeping s symbolic makes
Gaussian-moment integration exact, and since s is transcendental the
model is faithful.  Algebra elements are finite sums of terms
``c s^k xi_{i1}...xi_{ik}`` with strictly increasing indices: the power
of s sits in the term key beside the odd monomial, so every coefficient
is a plain rational.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Iterable, Mapping

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

    ``terms`` maps each power of s to its nonzero Fraction coefficient, so
    zero has no terms.  s is transcendental, so this models the values of
    integrals over Gaussian axes faithfully: every sum is a value, and only
    a single power of s times a nonzero rational is invertible.  Algebra
    elements keep the power of s in their term keys; a Scalar is only what
    integrals, evaluations, bodies and coefficients return.
    """

    __slots__ = ("terms",)

    def __init__(self, rational=0, power: int = 0):
        q = Fraction(rational)
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
        return self.terms[0]

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
        return self * _in_s({-k: 1 / c})

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


def _in_s(terms: dict) -> Scalar:
    """The Scalar whose terms are ``terms``, which must map ints to nonzero
    Fractions and is kept, not copied."""
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


def _masked(pairs) -> list:
    """(generator mask, index, value) for (index tuple, value) pairs."""
    return [(_mask(idx), idx, value) for idx, value in pairs]


def _graded_products(a: list, b: list):
    """Yield (index, negative, va, vb) for the monomial pairs of a*b.

    ``a`` and ``b`` are ``_masked`` items of strictly increasing index
    tuples.  For every pair xi^ia (value va) and xi^ib (vb) that shares no
    generator, xi^ia xi^ib = (-1 if negative else 1) xi^index.  A pair whose
    masks meet is skipped before any merging; a pair's sign is the parity
    of the letters of ia that each letter of ib moves past.
    """
    for ma, ia, va in a:
        for mb, ib, vb in b:
            if ma & mb:
                continue
            if not (ia and ib):
                yield ia or ib, False, va, vb
                continue
            hops = 0
            for i in ib:
                hops += (ma >> i).bit_count()
            yield tuple(sorted(ia + ib)), bool(hops & 1), va, vb


def _add_terms(acc: dict, items) -> dict:
    """Add the (key, value) pairs of ``items`` into the sparse sum ``acc``.

    Pairs are added in order, a repeated key as ``acc[key] + value``, and a
    key whose value is zero (false) is dropped.  Returns ``acc``, which is
    updated in place.
    """
    for key, value in items:
        prev = acc.get(key)
        if prev is not None:
            value = prev + value
        if value:
            acc[key] = value
        else:
            acc.pop(key, None)
    return acc


def _inverse_series(one, factor, binv, steps: int):
    """binv * (1 + factor + ... + factor^steps), stopping at a zero power.

    With u = b + n even, b an invertible body and n a nilpotent soul,
    factor = -b^-1 n and binv = b^-1 make this u^-1 once factor^(steps+1)
    vanishes.
    """
    acc = power = one
    for _ in range(steps):
        power = power * factor
        if power.is_zero():
            break
        acc = acc + power
    return acc * binv


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


def _parity(indices) -> Parity | None:
    """The parity all these odd monomials share; None if they mix or there
    are none."""
    parities = {len(idx) % 2 for idx in indices}
    return Parity(parities.pop()) if len(parities) == 1 else None


def _validate_index(idx: tuple[int, ...], count: int) -> tuple[int, ...]:
    idx = tuple(idx)
    if any(not isinstance(i, int) for i in idx):
        raise TypeError("generator indices must be integers")
    if any(i < 0 or i >= count for i in idx):
        raise DimensionError(f"generator index out of range for count {count}: {idx}")
    if any(idx[k] >= idx[k + 1] for k in range(len(idx) - 1)):
        raise ParityError(f"index tuple not strictly increasing: {idx}")
    return idx


class GrassmannElement:
    """Finite sum of terms c s^k xi^idx over N generators, c rational.

    ``terms`` maps each key ``(idx, k)`` (a strictly increasing generator
    tuple and a power of s) to its nonzero Fraction coefficient.  The
    public constructor takes ``{idx: coefficient}`` with Scalar, int or
    Fraction coefficients.
    """

    __slots__ = ("generator_count", "terms")

    def __init__(self, generator_count: int, terms: Mapping[tuple[int, ...], object] = ()):
        if generator_count < 0:
            raise DimensionError("generator count must be nonnegative")
        checked = []
        for idx, coeff in terms.items() if isinstance(terms, Mapping) else terms:
            idx = _validate_index(idx, generator_count)
            checked.extend(((idx, k), c) for k, c in Scalar.coerce(coeff).terms.items())
        normalized = _add_terms({}, checked)
        object.__setattr__(self, "generator_count", generator_count)
        object.__setattr__(self, "terms", normalized)

    def __setattr__(self, name, value):
        raise AttributeError("GrassmannElement is immutable")

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
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _select(self, keep) -> "GrassmannElement":
        return _element(self.generator_count,
                        {key: c for key, c in self.terms.items() if keep(key[0])})

    def body(self) -> Scalar:
        return self.coefficient(())

    def soul(self) -> "GrassmannElement":
        return self._select(bool)

    def even_part(self) -> "GrassmannElement":
        return self._select(lambda idx: len(idx) % 2 == 0)

    def odd_part(self) -> "GrassmannElement":
        return self._select(lambda idx: len(idx) % 2 == 1)

    def parity(self) -> Parity | None:
        """Parity if homogeneous; None for 0 or mixed elements."""
        return _parity(idx for idx, _ in self.terms)

    def coefficient(self, indices: Iterable[int]) -> Scalar:
        """The coefficient of xi^indices, a value in s."""
        idx = tuple(indices)
        return _in_s({k: c for (i, k), c in self.terms.items() if i == idx})

    # -- arithmetic ---------------------------------------------------

    def _check_compatible(self, other: "GrassmannElement"):
        if self.generator_count != other.generator_count:
            raise DimensionError(
                "elements live over different generator counts "
                f"({self.generator_count} vs {other.generator_count}); embed first"
            )

    def __add__(self, other) -> "GrassmannElement":
        other = self._coerce(other)
        self._check_compatible(other)
        return _element(self.generator_count,
                        _add_terms(dict(self.terms), other.terms.items()))

    __radd__ = __add__

    def __neg__(self) -> "GrassmannElement":
        return _element(
            self.generator_count, {key: -c for key, c in self.terms.items()}
        )

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

    def _masked_terms(self) -> list:
        return _masked((idx, (k, c)) for (idx, k), c in self.terms.items())

    def __mul__(self, other) -> "GrassmannElement":
        other = self._coerce(other)
        self._check_compatible(other)
        return _element(self.generator_count, _add_terms({}, [
            ((idx, ka + kb), -ca * cb if negative else ca * cb)
            for idx, negative, (ka, ca), (kb, cb)
            in _graded_products(self._masked_terms(), other._masked_terms())]))

    def __rmul__(self, other) -> "GrassmannElement":
        # scalars are even and central, so this is safe
        return self._coerce(other) * self

    def inv_even(self) -> "GrassmannElement":
        """Inverse of an even element whose body is c s^k, c != 0.

        Uses body^-1 * sum_k (-body^-1 * soul)^k, which terminates because
        every term of the even soul has degree >= 2, so soul^k = 0 for
        k > N/2.
        """
        if self.odd_part():
            raise ParityError("inv_even requires an even element")
        b = self.body()
        if b.is_zero():
            raise NonInvertibleError("body is zero; element is not invertible")
        binv = self._coerce(Scalar.one() / b)
        return _inverse_series(GrassmannElement.one(self.generator_count),
                               -(self.soul() * binv), binv,
                               self.generator_count // 2)

    # -- reshaping ----------------------------------------------------

    def embed(self, new_count: int) -> "GrassmannElement":
        """View this element inside a larger algebra; indices unchanged."""
        if new_count < self.generator_count:
            raise DimensionError("cannot embed into a smaller algebra")
        return _element(new_count, dict(self.terms))

    # -- comparison / printing ----------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, Scalar)):
            other = self._coerce(other)
        if not isinstance(other, GrassmannElement):
            return NotImplemented
        return (self.generator_count == other.generator_count
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.generator_count, frozenset(self.terms.items())))

    def __str__(self) -> str:
        return _signed_sum([
            (self.terms[key], _monomial_text(key[1], (f"xi{i + 1}" for i in key[0])))
            for key in sorted(self.terms, key=lambda t: (len(t[0]), t[0], -t[1]))])

    def __repr__(self) -> str:
        return f"GrassmannElement({self.generator_count}, {self!s})"


def _element(generator_count: int, terms: dict) -> GrassmannElement:
    """Trusted constructor for the results of closed operations.

    ``terms`` must map keys ``(idx, k)``, idx a strictly increasing in-range
    index tuple and k an int, to nonzero Fractions and is kept, not copied;
    the public constructor checks all of this, this one assumes it.
    """
    out = object.__new__(GrassmannElement)
    object.__setattr__(out, "generator_count", generator_count)
    object.__setattr__(out, "terms", terms)
    return out
