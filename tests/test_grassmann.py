"""Core algebra checks: exact coefficients frozen by hand.

The worked inverses below were computed by expanding the geometric series
by hand and multiplying back; the tests keep those coefficients literal.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from superberezin.grassmann import (
    EVEN,
    ODD,
    GrassmannElement,
    Parity,
    Scalar,
    koszul_sign,
)
from superberezin.errors import DimensionError, NonInvertibleError, ParityError
from superberezin.superdomain import (
    REALLINE,
    Polynomial,
    SuperDomainShape,
    SuperFunction,
)


def G(n, terms):
    return GrassmannElement(n, terms)


class TestScalar:
    def test_zero_normalizes_exponent(self):
        assert Scalar(0, 5) == Scalar(0)
        assert Scalar(0, 5).terms == {}

    def test_zero_adds_to_anything(self):
        assert Scalar(0) + Scalar(3, 2) == Scalar(3, 2)
        assert Scalar(3, 2) + Scalar(0) == Scalar(3, 2)

    def test_mismatched_exponent_addition_is_a_sum(self):
        total = Scalar(1, 1) + Scalar(1, 2)
        assert total.terms == {1: 1, 2: 1}
        assert str(total) == "s^2 + s"
        assert total - Scalar(1, 2) == Scalar(1, 1)
        assert str(Scalar(2, 1) - 1) == "2 s - 1"

    def test_only_a_single_power_of_s_is_invertible(self):
        assert Scalar(1) / Scalar(Fraction(1, 2), -1) == Scalar(2, 1)
        with pytest.raises(NonInvertibleError):
            Scalar(1) / (Scalar(1, 1) + 1)
        with pytest.raises(ZeroDivisionError):
            Scalar(1) / Scalar(0)
        with pytest.raises(NonInvertibleError):
            GrassmannElement(2, {(): Scalar(1, 1) + 1, (0, 1): 1}).inv_even()

    def test_rational_refuses_a_power_of_s(self):
        assert Scalar(Fraction(3, 2)).rational == Fraction(3, 2)
        assert Scalar(0, 4).rational == 0
        for value in (Scalar(1, 1), Scalar(1, 1) + 1):
            with pytest.raises(ValueError):
                value.rational

    def test_mul_adds_exponents(self):
        assert Scalar(2, 1) * Scalar(3, 2) == Scalar(6, 3)

    def test_div_subtracts_exponents(self):
        assert Scalar(6, 3) / Scalar(3, 2) == Scalar(2, 1)

    def test_pow(self):
        assert Scalar(Fraction(1, 2), 1) ** 3 == Scalar(Fraction(1, 8), 3)
        assert Scalar(2, 1) ** 0 == Scalar(1)

    def test_str(self):
        assert str(Scalar(Fraction(3, 2))) == "3/2"
        assert str(Scalar(-2, 3)) == "-2 s^3"
        assert str(Scalar(1, 1)) == "s"
        assert str(Scalar(-1, 1)) == "-s"


class TestParity:
    def test_addition_mod_two(self):
        assert EVEN + EVEN is EVEN
        assert EVEN + ODD is ODD
        assert ODD + ODD is EVEN

    def test_koszul_sign(self):
        assert koszul_sign(ODD, ODD) == -1
        assert koszul_sign(EVEN, ODD) == 1
        assert koszul_sign(ODD, EVEN) == 1
        assert koszul_sign(EVEN, EVEN) == 1


class TestGrassmannBasics:
    def test_generators_anticommute(self):
        x1 = GrassmannElement.generator(3, 0)
        x2 = GrassmannElement.generator(3, 1)
        assert x1 * x2 == -(x2 * x1)
        assert (x1 * x1).is_zero()

    def test_merge_sign_hand_case(self):
        # xi2 xi3 * xi1 = + xi1 xi2 xi3 (xi1 hops past two letters)
        a = GrassmannElement.monomial(3, (1, 2))
        b = GrassmannElement.generator(3, 0)
        assert a * b == GrassmannElement.monomial(3, (0, 1, 2))
        # xi2 * xi1 = - xi1 xi2
        assert (GrassmannElement.generator(3, 1) * b
                == GrassmannElement.monomial(3, (0, 1), -1))

    def test_product_of_binomials(self):
        n = 2
        one = GrassmannElement.one(n)
        x1 = GrassmannElement.generator(n, 0)
        x2 = GrassmannElement.generator(n, 1)
        prod = (one + x1) * (one + x2)
        assert prod == G(n, {(): 1, (0,): 1, (1,): 1, (0, 1): 1})

    def test_mixed_index_addition_requires_same_count(self):
        with pytest.raises(DimensionError):
            GrassmannElement.one(2) + GrassmannElement.one(3)

    def test_embed(self):
        a = G(2, {(0, 1): 5})
        b = a.embed(4)
        assert b.generator_count == 4
        assert b.coefficient((0, 1)) == Scalar(5)

    def test_parity(self):
        assert G(2, {(0,): 1}).parity() is ODD
        assert G(2, {(): 1, (0, 1): 1}).parity() is EVEN
        assert G(2, {(): 1, (0,): 1}).parity() is None
        assert GrassmannElement.zero(2).parity() is None

    def test_str(self):
        e = G(3, {(): Scalar(-1), (0, 2): Scalar(Fraction(3, 2))})
        assert str(e) == "-1 + 3/2 xi1 xi3"


class TestInverse:
    def test_inverse_of_one_plus_top(self):
        n = 2
        a = G(n, {(): 1, (0, 1): 1})
        assert a.inv_even() == G(n, {(): 1, (0, 1): -1})

    def test_inverse_hand_frozen(self):
        # (3 + 6 xi1 xi2 + xi1 xi2 xi3 xi4)^-1
        #   = 1/3 - 2/3 xi1 xi2 - 1/9 xi1 xi2 xi3 xi4   (soul^2 term vanishes:
        #   (6 xi1 xi2)^2 = 0 and cross terms with the top monomial die too)
        n = 4
        a = G(n, {(): 3, (0, 1): 6, (0, 1, 2, 3): 1})
        inv = a.inv_even()
        assert inv == G(n, {(): Fraction(1, 3), (0, 1): Fraction(-2, 3),
                            (0, 1, 2, 3): Fraction(-1, 9)})
        assert a * inv == GrassmannElement.one(n)

    def test_inverse_requires_even(self):
        with pytest.raises(ParityError):
            G(2, {(): 1, (0,): 1}).inv_even()

    def test_inverse_requires_unit_body(self):
        with pytest.raises(NonInvertibleError):
            G(2, {(0, 1): 1}).inv_even()


# -- property tests -----------------------------------------------------

N_GEN = 4


def elements(max_terms=4, parity=None):
    all_indices = []
    for size in range(N_GEN + 1):
        if parity is not None and size % 2 != parity.value:
            continue
        from itertools import combinations
        all_indices.extend(combinations(range(N_GEN), size))
    coeffs = st.integers(min_value=-5, max_value=5).map(Fraction)
    pairs = st.tuples(st.sampled_from(all_indices), coeffs)
    return st.lists(pairs, max_size=max_terms).map(
        lambda items: GrassmannElement(N_GEN, items)
    )


@settings(max_examples=150, deadline=None)
@given(elements(), elements(), elements())
def test_associativity(a, b, c):
    assert (a * b) * c == a * (b * c)


@settings(max_examples=150, deadline=None)
@given(elements(), elements(), elements())
def test_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c


@settings(max_examples=150, deadline=None)
@given(elements(parity=EVEN), elements())
def test_even_elements_are_central(a, b):
    assert a * b == b * a


@settings(max_examples=150, deadline=None)
@given(elements(parity=ODD), elements(parity=ODD))
def test_odd_elements_anticommute(a, b):
    assert a * b == -(b * a)


@settings(max_examples=100, deadline=None)
@given(elements())
def test_soul_is_nilpotent(a):
    power = GrassmannElement.one(N_GEN)
    for _ in range(N_GEN + 1):
        power = power * a.soul()
    assert power.is_zero()


@settings(max_examples=100, deadline=None)
@given(elements(parity=EVEN))
def test_inv_even_multiplies_back(a):
    if a.body().is_zero():
        a = a + GrassmannElement.scalar(N_GEN, 1)
    inv = a.inv_even()
    assert a * inv == GrassmannElement.one(N_GEN)
    assert inv * a == GrassmannElement.one(N_GEN)


# Elements whose terms mix powers of s: every sum is a value, the ring laws
# hold, and an even element is invertible exactly when its body is a single
# power of s.

def mixed_elements(max_terms=5, parity=None):
    from itertools import combinations
    indices = [c for size in range(N_GEN + 1)
               for c in combinations(range(N_GEN), size)
               if parity is None or size % 2 == parity.value]
    coeffs = st.builds(Scalar, st.sampled_from([1, -1, 2, Fraction(1, 2)]),
                       st.integers(-2, 2))
    return st.lists(st.tuples(st.sampled_from(indices), coeffs),
                    max_size=max_terms).map(
        lambda items: GrassmannElement(N_GEN, items))


@settings(max_examples=150, deadline=None)
@given(mixed_elements(), mixed_elements(), mixed_elements(),
       mixed_elements(parity=EVEN))
def test_ring_laws_mixing_powers_of_s(a, b, c, e):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) - b == a
    assert e * a == a * e
    body = e.body()
    if len(body.terms) == 1:
        assert e * e.inv_even() == GrassmannElement.one(N_GEN)
    else:
        with pytest.raises(NonInvertibleError):
            e.inv_even()


# Closed operations build their results through a trusted constructor that
# skips validation; each result must equal what the validating one builds.

scalars = st.lists(st.builds(Scalar, st.integers(-3, 3).map(Fraction),
                             st.integers(-1, 1)), max_size=3).map(
    lambda parts: sum(parts, Scalar.zero()))


def _public_terms(element):
    """The {index: Scalar} pairs of an element, as its public constructor
    takes them."""
    return [(idx, Scalar(c, k)) for (idx, k), c in element.terms.items()]


@settings(max_examples=150, deadline=None)
@given(scalars, scalars)
def test_closed_scalar_operations_are_canonical(a, b):
    for r in [a * b, -a, a + (-a), a - a, a + b, a - b]:
        assert sum((Scalar(c, k) for k, c in r.terms.items()), Scalar(0)) == r
        for k, c in r.terms.items():
            assert type(k) is int and type(c) is Fraction and c != 0


@settings(max_examples=150, deadline=None)
@given(elements(), elements())
def test_closed_operations_are_canonical(a, b):
    for r in (a * b, a + b, a - b, -a, a.soul(), a.even_part(), a.odd_part()):
        assert r == GrassmannElement(N_GEN, _public_terms(r))
        for (idx, k), coeff in r.terms.items():
            assert type(idx) is tuple and type(k) is int
            assert type(coeff) is Fraction and coeff != 0


# The sparse product runs on generator bitmasks; the oracle below merges the
# index tuples of every pair of monomials directly, as products were first
# written.


def _merge_indices(a, b):
    """Merge two increasing index tuples; return (sign, merged) or None.

    The sign is that of sorting the concatenation a+b; a repeated index
    annihilates the product.
    """
    out = []
    i = j = 0
    sign = 1
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return None
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            # b[j] moves left past the len(a)-i remaining odd letters of a
            if (len(a) - i) % 2:
                sign = -sign
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return sign, tuple(out)


def _merged_product(a_terms, b_terms, zero):
    acc = {}
    for ia, ca in a_terms:
        for ib, cb in b_terms:
            merged = _merge_indices(ia, ib)
            if merged is not None:
                sign, idx = merged
                acc[idx] = acc.get(idx, zero) + Fraction(sign) * (ca * cb)
    return acc


@settings(max_examples=150, deadline=None)
@given(elements(max_terms=12), elements(max_terms=12))
def test_product_matches_index_merging(a, b):
    expected = _merged_product(_public_terms(a), _public_terms(b), Scalar.zero())
    assert a * b == GrassmannElement(N_GEN, expected)


def superfunctions(max_terms=10):
    from itertools import combinations
    shape = SuperDomainShape(1, (REALLINE,), 2, aux=2)
    indices = [c for size in range(5) for c in combinations(range(4), size)]
    term = st.tuples(st.sampled_from(indices), st.integers(-1, 2),
                     st.integers(-3, 3))
    return st.lists(term, max_size=max_terms).map(lambda items: SuperFunction(
        shape, [(idx, Polynomial(1, {(e,): c})) for idx, e, c in items]))


@settings(max_examples=150, deadline=None)
@given(superfunctions(), superfunctions())
def test_superfunction_product_matches_index_merging(f, g):
    expected = _merged_product(f.coeffs.items(), g.coeffs.items(),
                               Polynomial.zero(1))
    assert f * g == SuperFunction(f.shape, expected)
