"""Exact supercommutative algebra on finitely many anticommuting generators.

Scalars are rationals times an integer power of the formal symbol
``s = sqrt(2*pi)``; keeping the power symbolic makes Gaussian-moment
integration exact.  Algebra elements are finite sums of odd monomials
``xi_{i1}...xi_{ik}`` with strictly increasing indices and Scalar
coefficients.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import (
    DimensionError,
    NonInvertibleError,
    ParityError,
    ScalarExponentError,
)


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
    """An exact value ``rational * s**gauss_exponent`` with s = sqrt(2*pi).

    Zero normalises its exponent to 0 and is the additive identity for
    every exponent.  Adding two nonzero scalars with different exponents
    is an error, never a silent coercion.
    """

    __slots__ = ("rational", "gauss_exponent")

    def __init__(self, rational, gauss_exponent: int = 0):
        q = Fraction(rational)
        object.__setattr__(self, "rational", q)
        object.__setattr__(self, "gauss_exponent", 0 if q == 0 else int(gauss_exponent))

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
        return self.rational == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other) -> "Scalar":
        if not isinstance(other, Scalar):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Scalar(other)
        if not self.rational:
            return other
        if not other.rational:
            return self
        if self.gauss_exponent != other.gauss_exponent:
            raise ScalarExponentError(
                f"cannot add s^{self.gauss_exponent} and s^{other.gauss_exponent} terms"
            )
        q = self.rational + other.rational
        return _scalar(q, self.gauss_exponent if q else 0)

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return _scalar(-self.rational, self.gauss_exponent)

    def __sub__(self, other) -> "Scalar":
        if not isinstance(other, (Scalar, int, Fraction)):
            return NotImplemented
        return self + (-Scalar.coerce(other))

    def __rsub__(self, other) -> "Scalar":
        if not isinstance(other, (Scalar, int, Fraction)):
            return NotImplemented
        return Scalar.coerce(other) + (-self)

    def __mul__(self, other) -> "Scalar":
        if not isinstance(other, Scalar):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Scalar(other)
        q = self.rational * other.rational
        return _scalar(q, self.gauss_exponent + other.gauss_exponent if q else 0)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Scalar":
        other = Scalar.coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero Scalar")
        return Scalar(self.rational / other.rational,
                      self.gauss_exponent - other.gauss_exponent)

    def __pow__(self, n: int) -> "Scalar":
        if not isinstance(n, int):
            raise TypeError("Scalar powers must be integers")
        if n < 0 and self.is_zero():
            raise ZeroDivisionError("negative power of zero Scalar")
        return Scalar(self.rational ** n, self.gauss_exponent * n)

    # -- comparison ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return (self.rational == other.rational
                and self.gauss_exponent == other.gauss_exponent)

    def __hash__(self):
        return hash((self.rational, self.gauss_exponent))

    # -- printing -----------------------------------------------------

    def __str__(self) -> str:
        if self.gauss_exponent == 0:
            return str(self.rational)
        if self.gauss_exponent == 1:
            mark = "s"
        else:
            mark = f"s^{self.gauss_exponent}"
        if self.rational == 1:
            return mark
        if self.rational == -1:
            return f"-{mark}"
        return f"{self.rational} {mark}"

    def __repr__(self) -> str:
        return f"Scalar({self.rational!r}, {self.gauss_exponent})"


def _scalar(rational: Fraction, gauss_exponent: int) -> Scalar:
    """Trusted constructor for the results of closed Scalar operations.

    ``rational`` must already be a Fraction and a zero must carry exponent
    0; the public constructor establishes both, this one assumes them.
    """
    out = object.__new__(Scalar)
    object.__setattr__(out, "rational", rational)
    object.__setattr__(out, "gauss_exponent", gauss_exponent)
    return out


def _mask(idx: tuple[int, ...]) -> int:
    mask = 0
    for i in idx:
        mask |= 1 << i
    return mask


def _graded_products(a: dict, b: dict):
    """Yield (index, negative, ca, cb) for the monomial pairs of a*b.

    ``a`` and ``b`` map strictly increasing index tuples to coefficients.
    For every pair xi^ia (coefficient ca) and xi^ib (cb) that shares no
    generator, xi^ia xi^ib = (-1 if negative else 1) xi^index.  Each term's
    generator mask is taken once per call, and a pair whose masks meet is
    skipped before any merging; a pair's sign is the parity of the letters
    of ia that each letter of ib moves past.
    """
    b_items = [(_mask(ib), ib, cb) for ib, cb in b.items()]
    for ia, ca in a.items():
        ma = _mask(ia)
        for mb, ib, cb in b_items:
            if ma & mb:
                continue
            if not (ia and ib):
                yield ia or ib, False, ca, cb
                continue
            hops = 0
            for i in ib:
                hops += (ma >> i).bit_count()
            yield tuple(sorted(ia + ib)), bool(hops & 1), ca, cb


def _add_terms(acc: dict, items) -> dict:
    """Add the (key, value) pairs of ``items`` into the sparse sum ``acc``.

    Pairs are added in order, a repeated key as ``acc[key] + value``, and a
    key whose value is zero is dropped.  Values need ``+`` and ``is_zero``.
    Returns ``acc``, which is updated in place.
    """
    for key, value in items:
        prev = acc.get(key)
        if prev is not None:
            value = prev + value
        if value.is_zero():
            acc.pop(key, None)
        else:
            acc[key] = value
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
    """Finite Scalar-linear combination of odd monomials over N generators."""

    __slots__ = ("generator_count", "terms")

    def __init__(self, generator_count: int, terms: Mapping[tuple[int, ...], object] = ()):
        if generator_count < 0:
            raise DimensionError("generator count must be nonnegative")
        items = terms.items() if isinstance(terms, Mapping) else terms
        normalized = _add_terms({}, [
            (_validate_index(tuple(idx), generator_count), Scalar.coerce(coeff))
            for idx, coeff in items])
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
        return GrassmannElement(generator_count, {(): Scalar.one()})

    @staticmethod
    def scalar(generator_count: int, value) -> "GrassmannElement":
        return GrassmannElement(generator_count, {(): Scalar.coerce(value)})

    @staticmethod
    def generator(generator_count: int, index: int) -> "GrassmannElement":
        return GrassmannElement(generator_count, {(index,): Scalar.one()})

    @staticmethod
    def monomial(generator_count: int, indices: Iterable[int], coeff=1) -> "GrassmannElement":
        return GrassmannElement(generator_count, {tuple(indices): Scalar.coerce(coeff)})

    # -- basic structure ----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def body(self) -> Scalar:
        return self.terms.get((), Scalar.zero())

    def soul(self) -> "GrassmannElement":
        return _element(
            self.generator_count,
            {i: c for i, c in self.terms.items() if i},
        )

    def even_part(self) -> "GrassmannElement":
        return _element(
            self.generator_count,
            {i: c for i, c in self.terms.items() if len(i) % 2 == 0},
        )

    def odd_part(self) -> "GrassmannElement":
        return _element(
            self.generator_count,
            {i: c for i, c in self.terms.items() if len(i) % 2 == 1},
        )

    def parity(self) -> Parity | None:
        """Parity if homogeneous; None for 0 or mixed elements."""
        if not self.terms:
            return None
        parities = {len(i) % 2 for i in self.terms}
        if len(parities) > 1:
            return None
        return Parity(parities.pop())

    def coefficient(self, indices: Iterable[int]) -> Scalar:
        return self.terms.get(tuple(indices), Scalar.zero())

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
            self.generator_count, {i: -c for i, c in self.terms.items()}
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

    def __mul__(self, other) -> "GrassmannElement":
        other = self._coerce(other)
        self._check_compatible(other)
        return _element(self.generator_count, _add_terms({}, [
            (idx, _scalar(-q if negative else q,
                          ca.gauss_exponent + cb.gauss_exponent))
            for idx, negative, ca, cb in _graded_products(self.terms, other.terms)
            for q in (ca.rational * cb.rational,)]))

    def __rmul__(self, other) -> "GrassmannElement":
        # scalars are even and central, so this is safe
        return self._coerce(other) * self

    def inv_even(self) -> "GrassmannElement":
        """Inverse of an even element with invertible body.

        Uses body^-1 * sum_k (-body^-1 * soul)^k, which terminates because
        every term of the even soul has degree >= 2, so soul^k = 0 for
        k > N/2.
        """
        if self.odd_part():
            raise ParityError("inv_even requires an even element")
        b = self.body()
        if b.is_zero():
            raise NonInvertibleError("body is zero; element is not invertible")
        binv = Scalar.one() / b
        return _inverse_series(GrassmannElement.one(self.generator_count),
                               -(self.soul() * binv), binv,
                               self.generator_count // 2)

    # -- reshaping ----------------------------------------------------

    def embed(self, new_count: int) -> "GrassmannElement":
        """View this element inside a larger algebra; indices unchanged."""
        if new_count < self.generator_count:
            raise DimensionError("cannot embed into a smaller algebra")
        return GrassmannElement(new_count, dict(self.terms))

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
            (self.terms[idx], " ".join(f"xi{i + 1}" for i in idx))
            for idx in sorted(self.terms, key=lambda i: (len(i), i))])

    def __repr__(self) -> str:
        return f"GrassmannElement({self.generator_count}, {self!s})"


def _element(generator_count: int, terms: dict) -> GrassmannElement:
    """Trusted constructor for the results of closed operations.

    ``terms`` must map strictly increasing in-range index tuples to nonzero
    Scalars and is kept, not copied; the public constructor checks all of
    this, this one assumes it.
    """
    out = object.__new__(GrassmannElement)
    object.__setattr__(out, "generator_count", generator_count)
    object.__setattr__(out, "terms", terms)
    return out
