"""Core algebra checks: exact coefficients frozen by hand.

The worked inverses below were computed by expanding the geometric series
by hand and multiplying back; the tests keep those coefficients literal.
"""

import tracemalloc
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd
from operator import add

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from superberezin import grassmann, superdomain, supermatrix, textio
from superberezin.grassmann import (
    EVEN,
    ODD,
    GrassmannElement,
    Scalar,
    _BYTE_SWAPS,
    _canonical,
    _indices,
    _layout,
    _lookup_mask,
    _odd_swaps,
    _quotient,
    _reduced,
    fused_sum,
    koszul_sign,
)
from superberezin.berezin import GAUSSIAN, BerezinSection, box_backend, integrate
from superberezin.errors import (DimensionError, NonInvertibleError, ParityError,
                               SuperBerezinError)
from superberezin.superdomain import (
    REALLINE,
    Interval,
    Polynomial,
    SuperDomainShape,
    SuperFunction,
    SuperMorphism,
    _lifted,
    pullback,
)
from superberezin.textio import (
    format_superfunction,
    parse_grassmann,
    parse_scalar,
    parse_superfunction,
    parse_supermatrix,
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

    def test_floats_are_refused(self):
        # a float's binary value is not the rational it was written as
        for build in (lambda: Scalar(0.1), lambda: Scalar(1) + 0.5,
                      lambda: Scalar(1) * 0.5, lambda: Scalar(1) / 0.5,
                      lambda: GrassmannElement(2, {(): 0.5}),
                      lambda: GrassmannElement.one(2) * 0.5):
            with pytest.raises(TypeError):
                build()

    def test_integral_values_are_stored_as_ints(self):
        for value, want in ((Scalar(Fraction(4, 2)), 2), (Scalar(True), 1),
                            (Scalar(3) / Scalar(3), 1),
                            (Scalar(Fraction(1, 2)) * 4, 2),
                            (Scalar(Fraction(1, 2)) + Fraction(1, 2), 1)):
            assert value.terms == {0: want}
            assert type(value.terms[0]) is int
        assert Scalar(1) / Scalar(2) == Scalar(Fraction(1, 2))
        assert type((Scalar(1) / Scalar(2)).terms[0]) is Fraction
        assert type(Scalar(2).rational) is Fraction

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

    def test_coefficient_of_a_non_canonical_index_is_zero(self):
        # terms are stored by generator mask, which forgets order and
        # repetition: (1, 0) has the mask of (0, 1), (1, 1) that of (1,)
        a = G(4, {(0, 1): 2, (1,): 3})
        assert a.coefficient((0, 1)) == Scalar(2)
        assert a.coefficient((1,)) == Scalar(3)
        for idx in [(1, 0), (1, 1), (9,), (-1,)]:
            assert a.coefficient(idx) == Scalar(0)

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

    def test_inverse_errors_and_their_messages(self):
        # supermatrix._pivot skips an entry on NonInvertibleError, so a body
        # that mixes powers of s must refuse with it, not with another error
        for odd in (G(2, {(): 1, (0,): 1}), G(2, {(0,): 1}),
                    G(2, {(): Scalar(1, 1) + 1, (1,): 1})):
            with pytest.raises(ParityError,
                               match="^inv_even requires an even element$"):
                odd.inv_even()
        with pytest.raises(NonInvertibleError,
                           match="^body is zero; element is not invertible$"):
            G(2, {(0, 1): 1}).inv_even()
        with pytest.raises(NonInvertibleError, match=(
                r"^2 s - 1 mixes powers of s and has no inverse in Q\[s, 1/s\]$")):
            G(2, {(): Scalar(2, 1) - 1, (0, 1): 1}).inv_even()


# -- property tests -----------------------------------------------------

N_GEN = 4


# ints and Fractions, integral ones included, as a caller may pass them
rationals = st.one_of(st.integers(-5, 5),
                      st.fractions(-5, 5, max_denominator=4))


def elements(max_terms=4, parity=None):
    all_indices = []
    for size in range(N_GEN + 1):
        if parity is not None and size % 2 != parity.value:
            continue
        from itertools import combinations
        all_indices.extend(combinations(range(N_GEN), size))
    pairs = st.tuples(st.sampled_from(all_indices), rationals)
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

scalars = st.lists(st.builds(Scalar, rationals, st.integers(-1, 1)),
                   max_size=3).map(lambda parts: sum(parts, Scalar.zero()))


def assert_stored(coeff):
    """A stored coefficient is nonzero and in canonical form: an int, or a
    Fraction whose denominator exceeds 1; never a float or a bool."""
    assert type(coeff) is int or (type(coeff) is Fraction
                                  and coeff.denominator > 1), repr(coeff)
    assert coeff != 0


def _indices_of(mask):
    """The increasing generator indices whose bits are set in a term mask."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _public_terms(element):
    """The {index: Scalar} pairs of an element, as its public constructor
    takes them."""
    return [(_indices_of(mask), Scalar(c, k))
            for (mask, k), c in element.terms.items()]


@settings(max_examples=150, deadline=None)
@given(scalars, scalars)
def test_closed_scalar_operations_are_canonical(a, b):
    results = [a * b, -a, a + (-a), a - a, a + b, a - b, a * a * a]
    if len(b.terms) == 1:
        results += [a / b, b ** -2]
    for r in results:
        assert sum((Scalar(c, k) for k, c in r.terms.items()), Scalar(0)) == r
        for k, c in r.terms.items():
            assert type(k) is int
            assert_stored(c)
    if list(a.terms) in ([], [0]):
        assert type(a.rational) is Fraction


@settings(max_examples=150, deadline=None)
@given(elements(), elements())
def test_closed_operations_are_canonical(a, b):
    results = [a * b, a + b, a - b, -a, a.soul(), a.even_part(), a.odd_part(),
               a * a * b]
    if a.body():
        results.append(a.even_part().inv_even())
    for r in results:
        assert r == GrassmannElement(N_GEN, _public_terms(r))
        for (mask, k), coeff in r.terms.items():
            assert type(mask) is int and type(k) is int
            assert 0 <= mask < 2 ** N_GEN
            assert_stored(coeff)


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


# The Berezinian benchmark runs over Lambda_6 and Lambda_8, where a sign can
# depend on letters more than four places apart; every element below is
# drawn with a nonzero term on the top generator xi8.

N_BIG = 8


def big_elements(max_terms=8):
    def term(indices, coeffs):
        return st.tuples(indices.map(lambda ids: tuple(sorted(ids))),
                         st.builds(Scalar, coeffs, st.integers(-1, 1)))
    top = term(st.sets(st.integers(0, N_BIG - 2)).map(lambda ids: ids | {N_BIG - 1}),
               rationals.filter(bool))
    rest = st.lists(term(st.sets(st.integers(0, N_BIG - 1)), rationals),
                    max_size=max_terms)
    return st.tuples(top, rest).map(
        lambda parts: GrassmannElement(N_BIG, [parts[0]] + parts[1]))


@settings(max_examples=150, deadline=None)
@given(big_elements(), big_elements())
def test_product_matches_index_merging_on_eight_generators(a, b):
    expected = _merged_product(_public_terms(a), _public_terms(b), Scalar.zero())
    assert a * b == GrassmannElement(N_BIG, expected)


def _sectors_of(f):
    """The nonzero (index tuple, Polynomial) sectors of a superfunction,
    read through its public ``coefficient``."""
    n = f.shape.n
    return [(idx, f.coefficient(idx)) for size in range(n + 1)
            for idx in combinations(range(n), size) if f.coefficient(idx)]


def superfunctions(n=4, max_terms=10):
    """Superfunctions on (1|n); on eight generators each has a term on the
    top generator xi8, as ``big_elements`` do."""
    shape = SuperDomainShape(1, (REALLINE,), n)
    indices = [c for size in range(n + 1) for c in combinations(range(n), size)]
    term = st.tuples(st.sampled_from(indices), st.integers(-1, 2),
                     st.integers(-3, 3))
    terms = st.lists(term, max_size=max_terms)
    if n == N_BIG:
        top = st.tuples(st.sampled_from([c for c in indices if N_BIG - 1 in c]),
                        st.integers(-1, 2), st.sampled_from([-3, -2, -1, 1, 2, 3]))
        terms = st.tuples(top, terms).map(lambda parts: [parts[0]] + parts[1])
    return terms.map(lambda items: SuperFunction(
        shape, [(idx, Polynomial(1, {(e,): c})) for idx, e, c in items]))


@settings(max_examples=250, deadline=None)
@given(st.sampled_from([4, N_BIG]).flatmap(
    lambda n: st.tuples(superfunctions(n), superfunctions(n))))
def test_superfunction_product_matches_index_merging(operands):
    f, g = operands
    expected = _merged_product(_sectors_of(f), _sectors_of(g),
                               Polynomial.zero(1))
    assert f * g == SuperFunction(f.shape, expected)


def test_coefficient_of_an_unsorted_or_repeated_index_is_zero():
    # x1 xi1 xi3: a bare mask lookup would read (2, 0) and (0, 0, 2) as
    # xi1 xi3, and (0, 7) names a generator the shape does not have
    shape = SuperDomainShape(1, (REALLINE,), 3)
    x1 = Polynomial.variable(1, 0)
    f = SuperFunction(shape, {(0, 2): x1})
    a = G(3, {(0, 2): Scalar(1, 1)})
    assert f.coefficient((0, 2)) == x1
    assert a.coefficient((0, 2)) == Scalar(1, 1)
    for idx in [(2, 0), (0, 0, 2), (0, 7)]:
        assert f.coefficient(idx) == Polynomial.zero(1)
        assert a.coefficient(idx) == Scalar(0)


# The supermatrix code builds each entry with one fused sum, base + sum a*b,
# a difference taking its left factors negated.  The oracle below sums the
# same products by index merging, independently of the product loop that
# the fused sum shares with __mul__, and adds or subtracts them one at a time.


def _fused_oracle(base, pairs, subtract):
    acc = base
    for a, b in pairs:
        product = GrassmannElement(base.generator_count, _merged_product(
            _public_terms(a), _public_terms(b), Scalar.zero()))
        acc = acc - product if subtract else acc + product
    return acc


@st.composite
def fused_operands(draw, elements):
    """(base, pairs) whose sums often cancel: a pair (a, -b) undoes a pair
    (a, b), and a base equal to the sum of the products cancels it all."""
    pairs = draw(st.lists(st.tuples(elements, elements), max_size=4))
    if pairs and draw(st.booleans()):
        a, b = draw(st.sampled_from(pairs))
        pairs.append((a, -b))
    base = draw(elements)
    if draw(st.booleans()):
        base = _fused_oracle(base - base, pairs, False)
    return base, pairs


@settings(max_examples=150, deadline=None)
@given(fused_operands(big_elements(4)), st.booleans())
def test_fused_products_match_merged_products(operands, subtract):
    base, pairs = operands
    got = fused_sum(base, [(-a, b) for a, b in pairs] if subtract else pairs)
    assert got == _fused_oracle(base, pairs, subtract)
    for (mask, k), coeff in got.terms.items():
        assert type(mask) is int and type(k) is int
        assert_stored(coeff)


def test_fused_products_cancel_to_canonical_terms():
    half = Scalar(Fraction(1, 2))
    x = G(N_BIG, {(0,): half, (0, 7): Scalar(Fraction(1, 2), 1)})
    one = GrassmannElement.one(N_BIG)
    doubled = fused_sum(x, [(one, x)])
    assert doubled.terms == {(0b1, 0): 1, (0b10000001, 1): 1}
    assert all(type(c) is int for c in doubled.terms.values())
    assert fused_sum(x, [(-x, one)]).terms == {}
    assert fused_sum(x, [(x, one), (one, -x)]) == x
    assert fused_sum(x, []) == x
    with pytest.raises(DimensionError):
        fused_sum(x, [(GrassmannElement.one(2), x)])


def test_sums_of_products_go_through_the_one_named_fused_sum(monkeypatch):
    # every LU fold, 2 x 2 tail, matrix-product entry, adjugate solve and
    # pullback calls grassmann.fused_sum by the name its module imports
    calls = []

    def counted(base, pairs):
        calls.append(base)
        return fused_sum(base, pairs)

    monkeypatch.setattr(supermatrix, "fused_sum", counted)
    monkeypatch.setattr(superdomain, "fused_sum", counted)

    def calls_of(run):
        calls.clear()
        return run(), len(calls)

    m21 = parse_supermatrix("2 1 4\n2 + xi1 xi2\n1\nxi3\n1\n3 + xi2 xi4\n"
                            "xi1\nxi4\nxi2\n-2 + xi3 xi4\n")
    ber, n = calls_of(m21.berezinian)
    assert n > 0 and str(ber) == ("-5/2 - 2 xi1 xi2 + 1/4 xi1 xi4 - 1/4 xi2 xi3 "
                                  "- xi2 xi4 - 2 xi3 xi4 - 3/2 xi1 xi2 xi3 xi4")
    product, n = calls_of(lambda: m21 * m21)
    assert n == 9  # one per entry
    # D = [[1 + s, 1], [2 + s, 1]] has no invertible entry in its first
    # column, so its Berezinian takes the adjugate solve
    stalled = parse_supermatrix("1 2 2\n1\nxi1\n0\n0\n1 + s\n1\nxi2\n2 + s\n1\n")
    ber, n = calls_of(stalled.berezinian)
    assert n > 0 and str(ber) == "-1 + xi1 xi2"
    shape = SuperDomainShape(1, (REALLINE,), 2)
    x = SuperFunction.coordinate(shape, 0)
    xi1, xi2 = (SuperFunction.odd_gen(shape, j) for j in range(2))
    images = [x + xi1 * xi2, xi1 * 2, xi2 + x * xi1]
    phi = SuperMorphism(shape, shape, images[:1], images[1:])
    pulled, n = calls_of(lambda: pullback(phi, x * x + x * xi1 + xi1 * xi2))
    assert n == 1  # a pullback ends in one fused sum
    y, eta1, eta2 = images
    assert pulled == y * y + y * eta1 + eta1 * eta2

    # a pair with a zero factor adds nothing, wherever it stands, and any
    # iterable of pairs is read once
    a = G(N_BIG, {(0,): Fraction(1, 2), (0, 7): Scalar(Fraction(1, 3), 1)})
    b = G(N_BIG, {(): 3, (1, 7): Fraction(2, 5)})
    zero = GrassmannElement.zero(N_BIG)
    pairs = [(a, b), (b, a), (-b, b)]
    padded = [(zero, a), pairs[0], (b, zero), pairs[1], (zero, zero), pairs[2]]
    assert_stored_alike(fused_sum(b, padded), fused_sum(b, pairs))
    assert_stored_alike(fused_sum(b, iter(padded)), fused_sum(b, pairs))
    assert fused_sum(b, [(zero, a), (a, zero)]) == b

    # a zero factor over another count is still a mismatch
    for other in (GrassmannElement.zero(2), GrassmannElement.zero(N_BIG + 1)):
        for bad in ([(other, a)], [(a, other)], pairs + [(other, other)]):
            with pytest.raises(DimensionError):
                fused_sum(b, bad)
    with pytest.raises(DimensionError):
        fused_sum(x, [(SuperFunction.zero(SuperDomainShape(0, (), 2)), x)])


@settings(max_examples=100, deadline=None)
@given(big_elements())
def test_inv_even_matches_the_series_written_with_mul(a):
    # b^-1 sum_j (-b^-1 soul)^j, every step through the public operations
    a = a.even_part()
    body = a.body()
    if len(body.terms) != 1:
        a = a - GrassmannElement(N_BIG, {(): body}) + GrassmannElement.one(N_BIG)
        body = a.body()
    binv = GrassmannElement(N_BIG, {(): Scalar(1) / body})
    factor = -(binv * a.soul())
    acc = power = GrassmannElement.one(N_BIG)
    for _ in range(N_BIG // 2):
        power = power * factor
        acc = acc + power
    got = a.inv_even()
    assert got == binv * acc
    assert a * got == GrassmannElement.one(N_BIG)
    for coeff in got.terms.values():
        assert_stored(coeff)


# On a shape with no even coordinates a superfunction is an element of the
# Grassmann algebra whose coefficients are values in s: built from the same
# terms, SuperFunction and GrassmannElement must agree on every operation.

R08 = SuperDomainShape(0, (), N_BIG)


def _as_superfunction(a):
    return SuperFunction(R08, [(idx, Polynomial(0, {(): c}))
                               for idx, c in _public_terms(a)])


@settings(max_examples=100, deadline=None)
@given(big_elements(), big_elements(), fused_operands(big_elements(4)))
def test_superfunctions_on_odd_coordinates_match_grassmann_elements(
        a, b, operands):
    f, g = _as_superfunction(a), _as_superfunction(b)
    product = f * g
    assert product == _as_superfunction(a * b)
    assert all(type(key) is int for key in product.coeffs)
    base, pairs = operands
    assert (fused_sum(_as_superfunction(base),
                      [(_as_superfunction(x), _as_superfunction(y))
                       for x, y in pairs])
            == _as_superfunction(fused_sum(base, pairs)))
    assert f.soul() == _as_superfunction(a.soul())
    assert f.even_part() == _as_superfunction(a.even_part())
    assert f.odd_part() == _as_superfunction(a.odd_part())
    assert f.parity() is a.parity()
    even = a.even_part()
    body = even.body()
    if len(body.terms) != 1:
        even = even - G(N_BIG, {(): body}) + GrassmannElement.one(N_BIG)
    assert _as_superfunction(even).inv_even() == _as_superfunction(
        even.inv_even())


# The inverse series as it was written before one pass replaced it: every
# power and every partial sum a value of its own, reduced on its own.  The
# one-pass sum must store the same value alike, keys in the same order.


def _inverse_series(start, factor, steps: int):
    """start (1 + factor + ... + factor^steps), stopping at a zero power."""
    acc = power = start
    for _ in range(steps):
        power = power * factor
        if power.is_zero():
            break
        acc = acc + power
    return acc


def _reference_element_inverse(a):
    """b^-1 sum_j (-b^-1 soul)^j for a GrassmannElement with body c s^k,
    its keys split and built again through the layout's helpers."""
    n = a.generator_count
    layout = _layout(n, 0)
    terms = [(mask, j, c) for mask, _, j, c in layout.unpacked(a.nums)]
    (k, c), = ((j, c) for mask, j, c in terms if not mask)
    sign = -1 if c < 0 else 1
    return _inverse_series(
        _reduced(GrassmannElement, n, sign * c,
                 {layout.key(0, (), -k): sign * a.den}),
        _reduced(GrassmannElement, n, sign * c, {
            layout.key(mask, (), j - k): -sign * cj
            for mask, j, cj in terms if mask}),
        n // 2)


def _reference_superfunction_inverse(f):
    """The same series for a SuperFunction with a one-term body."""
    binv = f.body_polynomial().monomial_inverse()
    (shift, c), = binv.nums.items()
    poly, layout = _layout(0, f.shape.m), f.shape._key_layout
    _, shift_exps, shift_k = poly.split(shift)
    soul = f.soul()
    factor = _reduced(SuperFunction, f.shape, soul.den * binv.den, {
        layout.key(mask, tuple(map(add, exps, shift_exps)), k + shift_k): -cc * c
        for mask, exps, k, cc in ((*layout.split(key), cc)
                                  for key, cc in soul.nums.items())})
    return _inverse_series(_lifted(f.shape, binv), factor, f.shape.n // 2)


@settings(max_examples=150, deadline=None)
@given(big_elements())
def test_inv_even_stores_what_the_series_stores(a):
    a = _invertible_even(a)
    got, want = a.inv_even(), _reference_element_inverse(a)
    assert got.den == want.den
    assert list(got.nums.items()) == list(want.nums.items())


def test_inv_even_keeps_the_key_order_where_a_partial_sum_cancels():
    # soul = xi12 + xi34 + xi56 + xi1234 + 2 xi123456: the first two terms
    # of the series cancel on xi123456 and the third brings it back, last
    a = G(6, {(): 1, (0, 1): 1, (2, 3): 1, (4, 5): 1, (0, 1, 2, 3): 1,
              (0, 1, 2, 3, 4, 5): 2})
    got, want = a.inv_even(), _reference_element_inverse(a)
    assert list(got.nums.items()) == list(want.nums.items())
    assert list(got.nums)[-1] == _layout(6, 0).key(0b111111, (), 0)


@st.composite
def _even_units(draw):
    """An even superfunction on (m|n), m in 1..2 and n in 2..6, with body
    c s^k x^e (e of either sign) and soul sectors whose coefficients are
    Laurent polynomials in x."""
    m, n = draw(st.integers(1, 2)), draw(st.integers(2, 6))
    shape = SuperDomainShape(m, (REALLINE,) * m, n)
    exps = st.tuples(*[st.integers(-2, 2)] * m)
    values = st.builds(Scalar, rationals, st.integers(-1, 1))
    body = Scalar(draw(rationals.filter(bool)), draw(st.integers(-1, 1)))
    coeffs = {(): Polynomial(m, {draw(exps): body})}
    sectors = [idx for size in range(2, n + 1, 2)
               for idx in combinations(range(n), size)]
    for idx in draw(st.lists(st.sampled_from(sectors), max_size=6, unique=True)):
        coeffs[idx] = Polynomial(m, draw(st.dictionaries(exps, values,
                                                         min_size=1, max_size=3)))
    return SuperFunction(shape, coeffs)


@settings(max_examples=150, deadline=None)
@given(_even_units())
def test_superfunction_inv_even_stores_what_the_series_stores(f):
    got, want = f.inv_even(), _reference_superfunction_inverse(f)
    assert got.den == want.den
    assert list(got.nums.items()) == list(want.nums.items())
    assert f * got == SuperFunction.one(f.shape)


# An element stores int numerators over one denominator in lowest terms,
# and ``terms`` is the int/Fraction view of them; equal values must be
# stored alike, whichever route built them.


def tuple_key(value, key):
    """The ``terms`` key of a stored key of value: the layout's split of
    it, as the value's class writes it."""
    mask, exps, k = value._layout(value._count).split(key)
    if type(value) is Scalar:
        return k
    if type(value) is Polynomial:
        return exps + (k,)
    return (mask,) + exps + (k,)


def assert_canonical(r):
    assert type(r.den) is int and r.den >= 1
    assert all(type(c) is int and c != 0 for c in r.nums.values())
    assert gcd(r.den, *r.nums.values()) == 1  # so zero has den 1
    assert r.terms == {tuple_key(r, key): _canonical(Fraction(c, r.den))
                       for key, c in r.nums.items()}
    for coeff in r.terms.values():
        assert_stored(coeff)


def assert_stored_alike(x, y):
    assert (x.generator_count, x.den, x.nums) == (y.generator_count, y.den, y.nums)
    assert hash(x) == hash(y)


def _invertible_even(a):
    """a's even part with its body replaced by 2/3 s when it is not a
    single power of s."""
    even = a.even_part()
    body = even.body()
    if len(body.terms) != 1:
        even = (even - GrassmannElement(N_BIG, {(): body})
                + GrassmannElement(N_BIG, {(): Scalar(Fraction(2, 3), 1)}))
    return even


@settings(max_examples=150, deadline=None)
@given(big_elements(), big_elements(), big_elements(),
       fused_operands(big_elements(4)))
def test_stored_form_is_canonical(a, b, c, operands):
    base, pairs = operands
    unit = _invertible_even(a)
    inverse = unit.inv_even()
    results = [a + b, a - b, a - a, a * b, -a, a * 3, Fraction(1, 6) - a,
               fused_sum(base, pairs),
               fused_sum(base, [(-x, y) for x, y in pairs]),
               inverse, a.soul(), a.even_part(), a.odd_part(),
               a.embed(N_BIG + 2), GrassmannElement(N_BIG, _public_terms(a))]
    for r in results:
        assert_canonical(r)
        read = parse_grassmann(str(r), r.generator_count)
        assert_canonical(read)
        assert_stored_alike(read, r)
    assert_stored_alike((a * b) * c, a * (b * c))
    assert_stored_alike(unit * inverse, GrassmannElement.one(N_BIG))
    assert_stored_alike((a + b) - b, a)
    assert_stored_alike(a - a, GrassmannElement.zero(N_BIG))


@settings(max_examples=150, deadline=None)
@given(big_elements(), st.sampled_from([4, N_BIG]).flatmap(superfunctions),
       rationals)
def test_twisted_is_even_part_minus_odd_part(a, f, c):
    # the grading automorphism in one pass, on elements and on
    # superfunctions over a denominator
    for x in (a, f * c):
        twisted = x._twisted()
        assert_canonical(twisted)
        assert type(twisted) is type(x)
        assert twisted == x.even_part() - x.odd_part()
        assert twisted._twisted() == x


def test_dropping_terms_can_shrink_the_denominator():
    def key(mask):  # the stored key of xi^mask s^0 over two generators
        return _layout(2, 0).key(mask, (), 0)
    x = G(2, {(): 1, (0,): Fraction(1, 2)})
    assert (x.den, x.nums) == (2, {key(0): 2, key(0b1): 1})
    assert x.terms == {(0, 0): 1, (0b1, 0): Fraction(1, 2)}
    assert x.body() == Scalar(1)
    assert (x.even_part().den, x.even_part().nums) == (1, {key(0): 1})
    assert ((x + x).den, (x + x).nums) == (1, {key(0): 2, key(0b1): 1})
    assert ((x - x).den, (x - x).nums) == (1, {})
    y = G(2, {(): 1, (0, 1): Fraction(1, 2)}).inv_even()
    assert (y.den, y.nums) == (2, {key(0): 2, key(0b11): -1})
    assert (y.soul().den, y.soul().nums) == (2, {key(0b11): -1})
    z = G(2, {(): Fraction(2, 3), (0, 1): 2}).inv_even()  # 3/2 - 9/2 xi1 xi2
    assert (z.den, z.nums) == (2, {key(0): 3, key(0b11): -9})
    with pytest.raises(TypeError):
        x.terms[(0, 0)] = 5


# A Scalar is stored as elements and polynomials are: int numerators keyed
# by the power of s over one denominator in lowest terms, whichever
# operation built it.

def assert_scalar_stored_alike(x, y):
    assert type(x) is type(y) is Scalar
    assert (x.den, x.nums) == (y.den, y.nums)
    assert hash(x) == hash(y)


LINE1 = SuperDomainShape(1, (REALLINE,), 0)

# box exponents avoid -1, whose antiderivative is not rational
box_terms = st.lists(st.tuples(st.sampled_from([-2, 0, 1, 2, 3]),
                               rationals, st.integers(-1, 1)), max_size=4)


@settings(max_examples=150, deadline=None)
@given(scalars, scalars, scalars, rationals, st.integers(-2, 2), box_terms,
       big_elements())
def test_scalar_stored_form_is_canonical(a, b, c, q, k, terms, g):
    unit = b if len(b.terms) == 1 else Scalar(Fraction(2, 3), 1)
    poly = Polynomial(1, [((e,), Scalar(coeff, j)) for e, coeff, j in terms])
    line = Polynomial(1, [((abs(e),), Scalar(coeff, j)) for e, coeff, j in terms])
    box = SuperDomainShape(1, (Interval(Fraction(1, 2), 2),), 0)
    results = [a + b, a - b, a - a, a * b, -a, a * 3, Fraction(1, 6) - a,
               a / unit, unit ** -2, a ** 3, Scalar(q, k), g.body(),
               g.coefficient((0, 7)), poly.evaluate((Fraction(2, 3),)),
               poly.coefficient((2,)),
               integrate(BerezinSection.make(box, poly), box_backend()),
               integrate(BerezinSection.make(LINE1, line), GAUSSIAN)]
    for r in results:
        assert type(r) is Scalar
        assert_canonical(r)
        read = parse_scalar(str(r))
        assert_canonical(read)
        assert_scalar_stored_alike(read, r)
    assert_scalar_stored_alike((a * b) * c, a * (b * c))
    assert_scalar_stored_alike(unit / unit, Scalar.one())
    assert_scalar_stored_alike((a + b) - b, a)
    assert_scalar_stored_alike(a - a, Scalar.zero())


# Scalar arithmetic and printing as they were first written, on a dict from
# each power of s to its nonzero int or Fraction coefficient: the oracle of
# the stored form.

def _dict_sum(pairs):
    acc = {}
    for k, coeff in pairs:
        acc[k] = acc.get(k, 0) + coeff
    return _DictScalar({k: _canonical(coeff) for k, coeff in acc.items() if coeff})


class _DictScalar:
    def __init__(self, terms):
        self.terms = terms

    def __add__(self, other):
        return _dict_sum([*self.terms.items(), *other.terms.items()])

    def __neg__(self):
        return _DictScalar({k: -coeff for k, coeff in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return _dict_sum([(ka + kb, ca * cb) for ka, ca in self.terms.items()
                          for kb, cb in other.terms.items()])

    def inverse(self):
        (k, coeff), = self.terms.items()
        return _DictScalar({-k: _canonical(Fraction(1, coeff))})

    def __str__(self):
        parts = []
        for k in sorted(self.terms, reverse=True):
            coeff = self.terms[k]
            body = str(abs(coeff))
            mono = "" if k == 0 else "s" if k == 1 else f"s^{k}"
            if mono:
                body = mono if body == "1" else f"{body} {mono}"
            if parts:
                parts.append(f"- {body}" if coeff < 0 else f"+ {body}")
            else:
                parts.append(f"-{body}" if coeff < 0 else body)
        return " ".join(parts) or "0"


scalar_pairs = st.lists(st.tuples(rationals, st.integers(-2, 2)), max_size=4)


@settings(max_examples=200, deadline=None)
@given(scalar_pairs, scalar_pairs)
def test_scalar_arithmetic_matches_the_dict_oracle(p, q):
    a, b = (sum((Scalar(coeff, k) for coeff, k in pairs), Scalar.zero())
            for pairs in (p, q))
    da, db = (_dict_sum([(k, coeff) for coeff, k in pairs]) for pairs in (p, q))
    cases = [(a, da), (a + b, da + db), (a - b, da - db), (a * b, da * db),
             (-a, -da), (a * a * b, da * da * db),
             (a * 3, da * _DictScalar({0: 3})), (1 - a, _DictScalar({0: 1}) - da)]
    if len(b.terms) == 1:
        inverse = db.inverse()
        cases += [(a / b, da * inverse), (b ** -2, inverse * inverse)]
    for got, want in cases:
        assert dict(got.terms) == want.terms
        assert ({k: type(coeff) for k, coeff in got.terms.items()}
                == {k: type(coeff) for k, coeff in want.terms.items()})
        assert str(got) == str(want)


# Every exact value is immutable, its ``terms`` view is read-only, and equal
# values compare and hash alike whichever route built them.

def _scalar_routes(q):
    return [Scalar(q), Scalar(2 * q) / 2, Scalar(q, 1) * Scalar(1, -1),
            Scalar(q + 1) - 1, parse_scalar(str(Scalar(q)))]


def _element_routes(q):
    top = G(2, {(0, 1): 1})
    return [GrassmannElement.scalar(2, q), G(2, {(): 2 * q}) * Fraction(1, 2),
            G(2, {(): q, (0, 1): 1}) - top, G(2, {(): Scalar(q, 1)}) * G(2, {(): Scalar(1, -1)}),
            parse_grassmann(str(GrassmannElement.scalar(2, q)), 2)]


def _polynomial_routes(q):
    x = Polynomial.variable(1, 0)
    return [Polynomial.constant(1, q), Polynomial.constant(1, 2 * q) * Fraction(1, 2),
            Polynomial(1, {(0,): q, (1,): 1}) - x, x * Polynomial(1, {(-1,): q})]


def _superfunction_routes(q):
    shape = SuperDomainShape(1, (REALLINE,), 2)
    xi = SuperFunction.odd_gen(shape, 0)
    x = SuperFunction.coordinate(shape, 0)
    return [SuperFunction.constant(shape, q),
            SuperFunction.constant(shape, 2 * q) * Fraction(1, 2),
            SuperFunction(shape, {(): q, (0,): 1}) - xi,
            x * SuperFunction(shape, {(): Polynomial(1, {(-1,): q})}),
            parse_superfunction(format_superfunction(SuperFunction.constant(shape, q)))]


@pytest.mark.parametrize("routes", [_scalar_routes, _element_routes, _polynomial_routes,
                                    _superfunction_routes],
                         ids=["Scalar", "GrassmannElement", "Polynomial", "SuperFunction"])
def test_exact_values_are_immutable_and_compare_by_value(routes):
    value = routes(Fraction(3, 2))[0] + routes(Fraction(1, 2))[0] * Scalar(1, 1)
    printed, hashed = str(value), hash(value)
    name = type(value).__name__
    for attr in ("den", "nums", "terms", "generator_count", "nvars", "shape", "coeffs"):
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            setattr(value, attr, 5)
    # a SuperFunction's coeffs is a read-only view as well
    for view in (value.terms, getattr(value, "coeffs", value.terms)):
        with pytest.raises(TypeError):
            view[next(iter(view))] = 5
    assert str(value) == printed and hash(value) == hashed
    for q in (Fraction(3, 2), 2, 0):
        built = routes(q)
        assert all(x == q and q == x for x in built)
        assert all(x == built[0] and hash(x) == hash(built[0]) for x in built)
        assert all(x != q + 1 for x in built)


# A constant element, polynomial or superfunction equals the Scalar it
# holds, and a Scalar without powers of s equals its int or Fraction, so
# each must hash alike: sets and dict keys treat them as one value.

@settings(max_examples=150, deadline=None)
@given(rationals, st.integers(-2, 2), st.integers(0, 4), st.integers(0, 3))
def test_constants_hash_as_the_value_they_hold(q, k, n, m):
    value = Scalar(q, k)
    shape = SuperDomainShape(m, (REALLINE,) * m, n)
    constants = [value, GrassmannElement.scalar(n, value),
                 Polynomial.constant(m, value), SuperFunction.constant(shape, value),
                 GrassmannElement(n, {(): q, (0,): 1}) - G(n, {(0,): 1}) if n and not k
                 else GrassmannElement.scalar(n, Scalar(2 * q, k)) * Fraction(1, 2),
                 # the same value over other counts and another shape
                 GrassmannElement.scalar(n + 3, value),
                 Polynomial.constant(m + 1, value),
                 SuperFunction.constant(SuperDomainShape(m + 1, (REALLINE,) * (m + 1), n + 1),
                                        value)]
    plain = [q, _canonical(q)] if k == 0 or q == 0 else []
    for ref in [value] + plain:
        for c in constants:
            assert c == ref and ref == c and hash(c) == hash(ref)
            assert len({ref, c}) == 1 and c in {ref} and ref in {c}
            assert {ref: "ref"}.get(c) == "ref" and {c: "c"}.get(ref) == "c"
    # equality is an equivalence on them: every pair, both ways, and a set
    # of them has one element whatever the insertion order
    for a, b in permutations(constants + plain, 2):
        assert a == b and not a != b and hash(a) == hash(b)
        assert len({a, b}) == 1
    for ordered in (constants + plain, (constants + plain)[::-1]):
        assert len(set(ordered)) == 1
    # a function with an odd sector, or a variable, is no constant
    x = Polynomial.variable(m + 1, 0)
    assert {x + q: 1}.get(q) is None and {q: 1}.get(x + q) is None
    if n:
        xi = GrassmannElement.generator(n, 0)
        assert {xi + value: 1}.get(value) is None


@pytest.mark.parametrize("build", [
    lambda: GrassmannElement(-1), lambda: GrassmannElement(-1, {(0,): 1}),
    lambda: Polynomial(-1), lambda: Polynomial(-1, {(): 1}),
    lambda: GrassmannElement.zero(-1), lambda: Polynomial.zero(-1)],
    ids=["element", "element-term", "polynomial", "polynomial-term",
         "element-zero", "polynomial-zero"])
def test_a_negative_count_is_refused(build):
    with pytest.raises(DimensionError, match="^generator count must be nonnegative$"):
        build()


# ``_odd_swaps`` reads its 256-entry table one byte at a time.  The plain
# bit loop below is its oracle, and products over Lambda_9 to Lambda_16
# whose masks straddle bit 8 are checked against the index-merging oracle
# above.


def _bit_loop_swaps(ma):
    swaps = 0
    while ma:
        low = ma & -ma
        swaps ^= low - 1
        ma ^= low
    return swaps


def test_odd_swaps_matches_the_bit_loop_on_every_mask_below_4096():
    assert len(_BYTE_SWAPS) == 256
    for ma in range(1 << 12):
        assert _odd_swaps(ma) == _bit_loop_swaps(ma), bin(ma)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, (1 << 64) - 1))
def test_odd_swaps_matches_the_bit_loop_on_wide_masks(ma):
    assert _odd_swaps(ma) == _bit_loop_swaps(ma)


def _straddling(n):
    """Index sets holding generators on both sides of bit 8 over Lambda_n."""
    return st.tuples(st.sets(st.integers(0, 7), min_size=1, max_size=3),
                     st.sets(st.integers(8, n - 1), min_size=1, max_size=3)).map(
        lambda sides: sides[0] | sides[1])


def wide_elements(n, max_terms=5):
    """Elements over Lambda_n, 9 <= n <= 16, whose first term straddles bit
    8, so its mask is read from two bytes of the table; the other terms are
    monomials of at most four generators, so that many pairs are disjoint."""
    def term(indices):
        return st.tuples(indices.map(lambda ids: tuple(sorted(ids))),
                         st.builds(Scalar, rationals.filter(bool), st.integers(-1, 1)))
    rest = st.lists(term(st.sets(st.integers(0, n - 1), max_size=4)),
                    max_size=max_terms)
    return st.tuples(term(_straddling(n)), rest).map(
        lambda parts: GrassmannElement(n, [parts[0]] + parts[1]))


WIDE = st.integers(9, 16)


@settings(max_examples=200, deadline=None)
@given(WIDE.flatmap(lambda n: st.tuples(wide_elements(n), wide_elements(n))))
def test_products_straddling_bit_8_match_index_merging(operands):
    a, b = operands
    for x, y in ((a, b), (b, a)):
        expected = _merged_product(_public_terms(x), _public_terms(y), Scalar.zero())
        assert x * y == GrassmannElement(x.generator_count, expected)


@settings(max_examples=150, deadline=None)
@given(WIDE.flatmap(lambda n: fused_operands(wide_elements(n, 3))), st.booleans())
def test_fused_products_straddling_bit_8_match_merged_products(operands, subtract):
    base, pairs = operands
    got = fused_sum(base, [(-a, b) for a, b in pairs] if subtract else pairs)
    assert got == _fused_oracle(base, pairs, subtract)


def wide_superfunctions(n, max_terms=5):
    """Superfunctions on (1|n), 9 <= n <= 16, whose first sector straddles
    bit 8, as ``wide_elements`` do."""
    shape = SuperDomainShape(1, (REALLINE,), n)
    def term(indices):
        return st.tuples(indices.map(lambda ids: tuple(sorted(ids))),
                         st.integers(-1, 2), st.sampled_from([-3, -2, -1, 1, 2, 3]))
    rest = st.lists(term(st.sets(st.integers(0, n - 1), max_size=4)),
                    max_size=max_terms)
    return st.tuples(term(_straddling(n)), rest).map(lambda parts: SuperFunction(
        shape, [(idx, Polynomial(1, {(e,): c})) for idx, e, c in [parts[0]] + parts[1]]))


def _stored_sectors(f):
    """f's (index tuple, Polynomial) sectors, read from its masks: reading
    all 2^n through ``coefficient`` is slow over sixteen generators."""
    return [(_indices_of(mask), poly) for mask, poly in f.coeffs.items()]


@settings(max_examples=150, deadline=None)
@given(WIDE.flatmap(lambda n: st.tuples(*[wide_superfunctions(n)] * 4)))
def test_superfunction_products_straddling_bit_8_match_index_merging(operands):
    f, g, base, h = operands
    for x, y in ((f, g), (g, f)):
        expected = _merged_product(_stored_sectors(x), _stored_sectors(y),
                                   Polynomial.zero(1))
        assert x * y == SuperFunction(x.shape, expected)
    expected = dict(_stored_sectors(base))
    for x, y in ((f, g), (h, f)):
        for idx, poly in _merged_product(_stored_sectors(x), _stored_sectors(y),
                                         Polynomial.zero(1)).items():
            expected[idx] = expected.get(idx, Polynomial.zero(1)) + poly
    assert fused_sum(base, [(f, g), (h, f)]) == SuperFunction(base.shape, expected)



# -- the key layout ------------------------------------------------------
#
# Every key is one int (``_Layout``): the generator mask in the low n bits,
# one 32-bit lane e + 2^30 per even exponent, its top bit a guard bit, and
# the power of s in the top bits.  An exponent therefore lies in
# [-2^30, 2^30) (the range one guard bit bounds exactly); a result that
# leaves it raises SuperBerezinError and never aliases into the next lane.

EDGE = 1 << 30
_edge_exponents = st.one_of(
    st.sampled_from([-EDGE, -EDGE + 1, -1, 0, 1, EDGE - 2, EDGE - 1]),
    st.integers(-EDGE, EDGE - 1))


def _in_lane(e):
    return -EDGE <= e < EDGE


def _with(place, e, others):
    """The exponent tuple with e at ``place`` among ``others``."""
    exps = list(others)
    exps.insert(place, e)
    return tuple(exps)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 12).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, (1 << n) - 1),
    st.lists(_edge_exponents, max_size=3), st.integers(-10 ** 12, 10 ** 12))))
def test_layout_round_trips_every_exponent_in_its_lane(case):
    n, mask, exps, k = case
    layout = _layout(n, len(exps))
    key = layout.key(mask, exps, k)
    assert layout.split(key) == (mask, tuple(exps), k)
    assert layout.unpacked({key: 7}) == [(mask, tuple(exps), k, 7)]
    assert layout.mask(key) == mask
    assert layout.even(key) == _layout(0, len(exps)).key(0, exps, k)
    assert layout.join(mask, layout.even(key)) == key


def test_layout_edges_are_stored_and_one_past_raises():
    layout = _layout(2, 2)
    for e in (EDGE - 1, -(EDGE - 1), -EDGE):
        for exps in ((e, 0), (0, e), (e, e)):
            assert layout.split(layout.key(0b11, exps, -3)) == (0b11, exps, -3)
    for e in (EDGE, -EDGE - 1, 1 << 40):
        for exps in ((e, 0), (0, e)):
            with pytest.raises(SuperBerezinError,
                               match=r"^an exponent leaves the stored range "
                                     r"\[-2\^30, 2\^30\)$"):
                layout.key(0b11, exps, 0)
    # the public constructors keep exactly this range
    assert Polynomial(1, {(EDGE - 1,): 1}).terms == {(EDGE - 1, 0): 1}
    assert Polynomial(1, {(-EDGE,): 1}).terms == {(-EDGE, 0): 1}
    for e in (EDGE, -EDGE - 1):
        with pytest.raises(SuperBerezinError):
            Polynomial(1, {(e,): 1})
        with pytest.raises(SuperBerezinError):
            SuperFunction.coordinate(LINE1, 0, e)


R32 = SuperDomainShape(3, (REALLINE,) * 3, 2)


@settings(max_examples=300, deadline=None)
@given(_edge_exponents, _edge_exponents, st.integers(0, 2), st.integers(-3, 3),
       st.tuples(_edge_exponents, _edge_exponents))
def test_a_product_raises_exactly_when_an_exponent_leaves_its_lane(a, b, place, k,
                                                                   others):
    # x^a (other exponents any in range) times x^b: the other lanes must
    # come through unchanged, and only a + b may leave its lane
    x = Polynomial(3, {_with(place, a, others): Scalar(1, k)})
    y = Polynomial(3, {_with(place, b, (0, 0)): 1})
    f, g = SuperFunction(R32, {(0,): x}), SuperFunction(R32, {(1,): y})
    if _in_lane(a + b):
        exps = _with(place, a + b, others)
        assert (x * y).terms == {exps + (k,): 1}
        assert (f * g).terms == {(0b11,) + exps + (k,): 1}
        assert (g * f).terms == {(0b11,) + exps + (k,): -1}
    else:
        for u, v in ((x, y), (y, x), (f, g), (g, f)):
            with pytest.raises(SuperBerezinError):
                u * v


def test_squaring_twice_raises_on_the_second_square():
    shape = SuperDomainShape(1, (REALLINE,), 1)
    for x in (Polynomial.variable(1, 0, 1 << 28),
              SuperFunction.coordinate(shape, 0, 1 << 28)):
        square = x * x
        assert {key[-2]: c for key, c in square.terms.items()} == {1 << 29: 1}
        with pytest.raises(SuperBerezinError):
            square * square  # x^(2^30)
    x = Polynomial.variable(1, 0, 1 << 28)
    assert x ** 2 == x * x and x ** 3 == x * x * x  # no square past the last
    with pytest.raises(SuperBerezinError):
        x ** 4


@settings(max_examples=200, deadline=None)
@given(_edge_exponents, st.integers(0, 1), st.integers(-2, 2))
def test_a_derivative_raises_exactly_when_an_exponent_leaves_its_lane(e, place, k):
    shape = SuperDomainShape(2, (REALLINE,) * 2, 1)
    exps = _with(place, e, (5,))
    p = Polynomial(2, {exps: Scalar(3, k)})
    f = SuperFunction(shape, {(0,): p})
    if not e:
        assert p.derive(place).is_zero() and f.derive_even(place).is_zero()
    elif _in_lane(e - 1):
        lowered = _with(place, e - 1, (5,))
        assert p.derive(place).terms == {lowered + (k,): 3 * e}
        assert f.derive_even(place).terms == {(0b1,) + lowered + (k,): 3 * e}
    else:
        with pytest.raises(SuperBerezinError):
            p.derive(place)
        with pytest.raises(SuperBerezinError):
            f.derive_even(place)


@settings(max_examples=300, deadline=None)
@given(_edge_exponents, _edge_exponents, st.integers(-2, 2))
def test_an_inverse_raises_exactly_when_an_exponent_leaves_its_lane(a, b, k):
    # u = 2 s^k x^a + x^b xi1 xi2 has the inverse
    # 1/2 s^-k x^-a - 1/4 s^-2k x^(b - 2a) xi1 xi2; with a and b in range
    # the series' factor x^(b - a) leaves its lane only where b - 2a does
    p = Polynomial(1, {(a,): Scalar(2, k)})
    if _in_lane(-a):
        assert p.monomial_inverse().terms == {(-a, -k): Fraction(1, 2)}
    else:
        with pytest.raises(SuperBerezinError):
            p.monomial_inverse()
    shape = SuperDomainShape(1, (REALLINE,), 2)
    u = SuperFunction(shape, {(): p, (0, 1): Polynomial(1, {(b,): 1})})
    if _in_lane(-a) and _in_lane(b - 2 * a):
        assert u.inv_even().terms == {(0, -a, -k): Fraction(1, 2),
                                      (0b11, b - 2 * a, -2 * k): Fraction(-1, 4)}
    else:
        with pytest.raises(SuperBerezinError):
            u.inv_even()


# The product loops as they were before the packed keys, on tuple keys:
# (e_1, ..., e_m, k) for polynomials, (mask, e_1, ..., e_m, k) for
# superfunctions.  The packed loops must store what they store, in the
# same order.


def _poly_accumulate(acc, a, b, scale):
    get = acc.get
    for e1, c1 in a.items():
        c1 *= scale
        for e2, c2 in b.items():
            key = tuple(map(add, e1, e2))
            prev = get(key)
            acc[key] = c1 * c2 if prev is None else prev + c1 * c2
    return acc


def _super_accumulate(acc, a, b, scale):
    get = acc.get
    for ka, ca in a.items():
        ma = ka[0]
        ca *= scale
        swaps = _odd_swaps(ma)
        for kb, cb in b.items():
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


def _tuple_nums(value):
    """value's numerators under tuple keys, in stored order."""
    return {tuple_key(value, key): c for key, c in value.nums.items()}


def _oracle_product(x, y, accumulate):
    """(den, [(tuple key, numerator)]) of x * y by the tuple-key loop."""
    acc = accumulate({}, _tuple_nums(x), _tuple_nums(y), 1)
    items = [(key, c) for key, c in acc.items() if c]
    den = x.den * y.den
    g = gcd(den, *(c for _, c in items))
    return den // g, [(key, c // g) for key, c in items]


@st.composite
def _laurent_operands(draw):
    """Two superfunctions on (m|n), m in 0..3 and n in 0..12, with Laurent
    exponents, powers of s and Fraction coefficients, whose masks reach
    past bit 8 when n does."""
    n, m = draw(st.integers(0, 12)), draw(st.integers(0, 3))
    shape = SuperDomainShape(m, (REALLINE,) * m, n)
    term = st.tuples(st.integers(0, (1 << n) - 1),
                     st.tuples(*[st.integers(-3, 3)] * m), st.integers(-2, 2),
                     rationals.filter(bool))

    def operand():
        return SuperFunction(shape, [
            (_indices_of(mask), Polynomial(m, {exps: Scalar(c, k)}))
            for mask, exps, k, c in draw(st.lists(term, max_size=6))])
    return operand(), operand()


@settings(max_examples=300, deadline=None)
@given(_laurent_operands())
def test_packed_loops_store_what_the_tuple_key_loops_store(operands):
    f, g = operands
    for x, y in ((f, g), (g, f)):
        got = x * y
        assert (got.den, list(_tuple_nums(got).items())) == \
            _oracle_product(x, y, _super_accumulate)
        p, q = x.body_polynomial(), y.body_polynomial()
        got = p * q
        assert (got.den, list(_tuple_nums(got).items())) == \
            _oracle_product(p, q, _poly_accumulate)
    if not f.shape.m:  # on (0|N), the element's loop and stored form
        a, b = (GrassmannElement(f.shape.n, _public_terms(h)) for h in (f, g))
        assert (a.den, a.nums) == (f.den, f.nums)
        assert ((a * b).den, (a * b).nums) == ((f * g).den, (f * g).nums)


def test_every_exact_type_multiplies_through_the_one_loop():
    # a commutative ring is the purely even case of a supercommutative one:
    # Scalars and Polynomials run the anticommuting loop on n = 0 layouts
    loop = grassmann._anticommuting
    odd_counts = []

    def counted(acc, a, b, scale, layout):
        odd_counts.append(layout.n)
        return loop(acc, a, b, scale, layout)

    p = Polynomial(2, {(1, -1): Fraction(1, 2), (0, 2): Scalar(-3, 1)})
    a = G(3, {(0,): 1, (1, 2): Scalar(Fraction(2, 3), -1), (): 5})
    shape = SuperDomainShape(1, (REALLINE,), 2)
    x, xi1, xi2 = (SuperFunction.coordinate(shape, 0),
                   SuperFunction.odd_gen(shape, 0),
                   SuperFunction.odd_gen(shape, 1))
    f = x * x + xi1 * xi2 * Fraction(1, 2)
    cases = {
        "Scalar * Scalar": (lambda: Scalar(Fraction(6, 5), 3) * Scalar(-3, 2), 0),
        "Scalar / Scalar": (lambda: Scalar(Fraction(6, 5), 3) / Scalar(-3, 2), 0),
        "Polynomial * Polynomial": (lambda: p * p, 0),
        "Polynomial ** 3": (lambda: p ** 3, 0),
        "GrassmannElement * GrassmannElement": (lambda: a * a, 3),
        "SuperFunction * SuperFunction": (lambda: f * (f + xi1), 2),
    }
    for name, (product, n) in cases.items():
        expected = product()
        odd_counts.clear()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(grassmann, "_anticommuting", counted)
            got = product()
        assert odd_counts and set(odd_counts) == {n}, name
        assert got == expected, name


def test_every_exact_type_inverts_through_the_one_routine():
    # Scalar division and negative powers, Polynomial monomial inverses and
    # negative powers, and both inv_evens run _Exact._inverse once
    inverse = grassmann._Exact._inverse
    inverted = []

    def counted(self):
        inverted.append(type(self))
        return inverse(self)

    p = Polynomial(2, {(1, -1): Scalar(Fraction(3, 2), -1)})
    a = G(4, {(): Scalar(2, 1), (0, 1): Fraction(1, 3), (2, 3): -1})
    f = SuperFunction(SuperDomainShape(2, (REALLINE, REALLINE), 2),
                      {(): p, (0, 1): 1})
    cases = {
        "Scalar / Scalar": (lambda: Scalar(Fraction(6, 5), 3) / Scalar(-3, 2),
                            Scalar),
        "Scalar ** -1": (lambda: Scalar(Fraction(1, 2), -1) ** -1, Scalar),
        "Polynomial.monomial_inverse()": (p.monomial_inverse, Polynomial),
        "Polynomial ** -2": (lambda: p ** -2, Polynomial),
        "GrassmannElement.inv_even()": (a.inv_even, GrassmannElement),
        "SuperFunction.inv_even()": (f.inv_even, SuperFunction),
    }
    for name, (invert, cls) in cases.items():
        expected = invert()
        inverted.clear()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(grassmann._Exact, "_inverse", counted)
            got = invert()
        assert inverted == [cls], name
        assert got == expected, name


# The printers that the one-pass printer (grassmann._print_rows) replaced,
# kept as its oracle: a signed sum of (coefficient, monomial text) pairs,
# each coefficient an int or Fraction read through _quotient, the exact
# base's printer over the split keys, and the sector printers over the
# ``coeffs`` view of Polynomials reduced sector by sector.

def _signed_sum(pieces):
    """Print (coefficient, monomial text) pairs as a signed sum, "0" if
    none: a unit coefficient left out before a monomial and a negative one
    the sign between terms."""
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


def _monomial_text(power, factors):
    """s^power (none for 0, ``s`` for 1), then the printed variable factors."""
    mark = [] if power == 0 else ["s" if power == 1 else f"s^{power}"]
    return " ".join(mark + list(factors))


def _exact_text(value):
    """The terms by odd monomial size, indices, even exponents and then the
    power of s downward, each coefficient a Fraction over den."""
    den = value.den
    printed = sorted(
        (mask.bit_count(), _indices(mask), exps, -k, c)
        for mask, exps, k, c in value._layout(value._count).unpacked(value.nums))
    return _signed_sum([
        (c if den == 1 else _quotient(c, den), _monomial_text(-minus_k, [
            *(f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
              for i, e in enumerate(exps) if e),
            *(f"xi{i + 1}" for i in idx)]))
        for _, idx, exps, minus_k, c in printed])


def _coeffs_sectors(f):
    """f's (index tuple, sector Polynomial) pairs in print order."""
    return sorted(((_indices(mask), poly) for mask, poly in f.coeffs.items()),
                  key=lambda sector: (len(sector[0]), sector[0]))


def _superfunction_text(f):
    parts = []
    for idx, poly in _coeffs_sectors(f):
        mono = " ".join(f"xi{j + 1}" for j in idx)
        p = _exact_text(poly)
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


def _superfunction_file(f):
    shape = f.shape
    out = [f"{shape.m} {shape.n} 0"]
    out.extend(f"axis {axis._text}" for axis in shape.box)
    for idx, poly in _coeffs_sectors(f):
        sector = " ".join(f"xi{j + 1}" for j in idx) if idx else "1"
        out.append(f"{_exact_text(poly)} : {sector}")
    return "\n".join(out) + "\n"


@st.composite
def _printed_values(draw):
    """A Scalar with powers of s, a Laurent polynomial on m <= 3 variables
    with negative exponents, an element on n <= 6 generators and a
    superfunction on (m|n) <= (3|3), their coefficients Fractions and
    Scalars with powers of s."""
    coefficients = st.one_of(rationals, st.builds(
        Scalar, rationals, st.integers(-3, 3)))
    scalar = sum((Scalar(q, k) for q, k in draw(st.lists(
        st.tuples(rationals, st.integers(-3, 3)), max_size=5))), Scalar(0))

    def polynomials(m):
        return st.lists(st.tuples(st.tuples(*[st.integers(-3, 3)] * m),
                                  coefficients),
                        max_size=5).map(lambda items: Polynomial(m, items))

    poly = draw(st.integers(0, 3).flatmap(polynomials))
    n = draw(st.integers(0, 6))
    element = G(n, draw(st.lists(st.tuples(
        st.sampled_from(_all_indices(n)), coefficients), max_size=8)))
    m = draw(st.integers(0, 3))
    shape = SuperDomainShape(m, (REALLINE,) * m, draw(st.integers(0, 3)))
    f = SuperFunction(shape, draw(st.lists(st.tuples(
        st.sampled_from(_all_indices(shape.n)), polynomials(shape.m)),
        max_size=5)))
    return scalar, poly, element, f


@settings(max_examples=400, deadline=None)
@given(_printed_values())
def test_the_one_pass_printer_matches_the_printers_it_replaced(values):
    scalar, poly, element, f = values
    for value in (scalar, poly, element):
        assert str(value) == _exact_text(value)
    assert str(f) == _superfunction_text(f)
    assert format_superfunction(f) == _superfunction_file(f)


def test_the_odd_text_cache_stays_bounded():
    # the 6,435 odd monomials of size 7 over 15 generators, printed once:
    # the cache is emptied when full, and the text is unchanged
    n = 15
    layout = _layout(n, 0)
    nums = {layout.key(grassmann._mask(idx), (), k): k or 7
            for k, idx in enumerate(combinations(range(n), 7))}
    value = grassmann._stored(GrassmannElement, n, 3, nums)
    assert str(value) == _exact_text(value)
    assert len(grassmann._ODD_TEXTS) <= grassmann._ODD_TEXTS_BOUND < len(nums)


# The per-type printers and sector readers that the one printer,
# _Exact.__str__, and the one sector reader, _Graded._sector, replaced: the
# oracle they must match.

def _scalar_text(a):
    """Highest power of s first: ``2 s - 1``."""
    terms = a.terms
    return _signed_sum([(terms[k], _monomial_text(k, ()))
                        for k in sorted(terms, reverse=True)])


def _polynomial_text(p):
    terms = p.terms
    return _signed_sum([
        (terms[exps], _monomial_text(exps[-1], (
            f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
            for i, e in enumerate(exps[:-1]) if e != 0)))
        for exps in sorted(terms, key=lambda e: (e[:-1], -e[-1]))])


def _element_text(a):
    den = a.den
    printed = sorted(((_indices(mask), k, c if den == 1 else _quotient(c, den))
                      for mask, _, k, c in _layout(a.generator_count, 0)
                      .unpacked(a.nums)),
                     key=lambda t: (len(t[0]), t[0], -t[1]))
    return _signed_sum([(c, _monomial_text(k, (f"xi{i + 1}" for i in idx)))
                        for idx, k, c in printed])


def _element_values(a, keep):
    """The Scalar sum of c s^k over the terms whose mask ``keep`` takes."""
    layout = _layout(a.generator_count, 0)
    low, top = layout.low, layout.top
    return _reduced(Scalar, 0, a.den, {
        key >> top: c for key, c in a.nums.items() if keep(key & low)})


def _superfunction_sector(f, mask):
    """f_alpha for the generator mask of alpha, reduced on its own."""
    layout = f.shape._key_layout
    odd, even = layout.mask, layout.even
    return _reduced(Polynomial, f.shape.m, f.den, {
        even(key): c for key, c in f.nums.items() if odd(key) == mask})


_coefficients = st.one_of(rationals,
                          st.builds(Scalar, rationals, st.integers(-2, 2)))


def _all_indices(n):
    return [c for size in range(n + 1) for c in combinations(range(n), size)]


@st.composite
def _read_values(draw):
    """A Scalar, a Polynomial on m <= 3 variables, an element on n <= 6
    generators and a superfunction on (m|n) <= (2|3), each with one index
    tuple of its generators."""
    scalar = sum((Scalar(q, k) for q, k in draw(st.lists(
        st.tuples(rationals, st.integers(-2, 2)), max_size=4))), Scalar(0))

    def polynomials(m):
        return st.lists(st.tuples(st.tuples(*[st.integers(-3, 3)] * m),
                                  _coefficients),
                        max_size=4).map(lambda items: Polynomial(m, items))

    poly = draw(st.integers(0, 3).flatmap(polynomials))
    n = draw(st.integers(0, 6))
    element = G(n, draw(st.lists(st.tuples(
        st.sampled_from(_all_indices(n)), _coefficients), max_size=5)))
    m = draw(st.integers(0, 2))
    shape = SuperDomainShape(m, (REALLINE,) * m, draw(st.integers(0, 3)))
    f = SuperFunction(shape, draw(st.lists(st.tuples(
        st.sampled_from(_all_indices(shape.n)), polynomials(shape.m)),
        max_size=4)))
    return (scalar, poly, (element, draw(st.sampled_from(_all_indices(n)))),
            (f, draw(st.sampled_from(_all_indices(shape.n)))))


def _assert_read_alike(got, want):
    assert type(got) is type(want)
    assert (got._count, got.den, list(got.nums.items())) == (
        want._count, want.den, list(want.nums.items()))


@settings(max_examples=300, deadline=None)
@given(_read_values())
def test_the_one_printer_and_sector_reader_match_the_per_type_oracles(values):
    scalar, poly, (a, idx), (f, f_idx) = values
    assert str(scalar) == _scalar_text(scalar)
    assert str(poly) == _polynomial_text(poly)
    assert str(a) == _element_text(a)
    _assert_read_alike(a.body(), _element_values(a, lambda mask: not mask))
    _assert_read_alike(f.body_polynomial(), _superfunction_sector(f, 0))
    # a repeated and an out-of-order tuple name no monomial: zero
    for indices in (idx, (0, 0), (1, 0)):
        mask = _lookup_mask(indices, a.generator_count)
        _assert_read_alike(a.coefficient(indices),
                           _element_values(a, lambda m: m == mask))
    for indices in (f_idx, (0, 0), (1, 0)):
        _assert_read_alike(f.coefficient(indices), _superfunction_sector(
            f, _lookup_mask(indices, f.shape.n)))
    for value in (a, f):
        assert value.coefficient((0, 0)).is_zero()
        assert value.coefficient((1, 0)).is_zero()


# -- the bound on the generator count ------------------------------------------
#
# A key layout of n odd generators builds an n-bit mask, so the layout
# refuses n over grassmann._MAX_GENERATORS before it builds anything, and
# the text reader's header bound is that same one.


def test_a_generator_count_over_the_bound_raises_before_any_mask():
    assert textio.MAX_GENERATORS == grassmann._MAX_GENERATORS == 1000
    message = "^generator count 100000000000 exceeds the bound N <= 1000$"
    tracemalloc.start()
    try:
        for build in (lambda: GrassmannElement.one(10**11),
                      lambda: SuperDomainShape(0, (), 10**11),
                      lambda: GrassmannElement.zero(10**11) + 1,
                      lambda: _layout(10**11, 2)):
            with pytest.raises(DimensionError, match=message):
                build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a 10**11-bit mask alone would be 12.5 GB
    assert peak < 1 << 20
    assert GrassmannElement.one(1000).generator_count == 1000
    assert SuperDomainShape(0, (), 1000).n == 1000


# A layout of m even variables builds one 32-bit lane per variable, and the
# named constructors an m-tuple of exponents: both wait for the layout's
# bound on m, grassmann._MAX_VARIABLES, also the text reader's.


def test_an_even_variable_count_over_the_bound_raises_before_any_lane():
    assert textio.MAX_VARIABLES == grassmann._MAX_VARIABLES == 1000
    tracemalloc.start()
    try:
        for m in (1001, 10**9):
            message = f"^even variable count {m} exceeds the bound m <= 1000$"
            for build in (lambda: Polynomial.constant(m, 1),
                          lambda: Polynomial.one(m),
                          lambda: Polynomial.variable(m, 0),
                          lambda: Polynomial.zero(m) * Polynomial.zero(m),
                          lambda: Polynomial(m, {}) + 1,
                          lambda: _layout(2, m)):
                with pytest.raises(DimensionError, match=message):
                    build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a 10**9-tuple of exponents alone would be 8 GB
    assert peak < 1 << 20
    with pytest.raises(DimensionError, match="^even variable count 1001 "):
        SuperDomainShape(1001, (REALLINE,) * 1001, 0)
    x = Polynomial.variable(1000, 999) * Polynomial.variable(1000, 0, 2)
    assert x.nvars == 1000 and str(x) == "x1^2 x1000"
    assert Polynomial.one(1000) * x == x
    assert SuperDomainShape(1000, (REALLINE,) * 1000, 1).m == 1000
