"""Superfunction algebra, derivatives, pullbacks, Jacobians."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from superberezin.errors import (
    DimensionError,
    DomainBoxError,
    NonInvertibleError,
    ParityError,
)
from superberezin.grassmann import EVEN, ODD, Scalar
from superberezin.superdomain import (
    Interval,
    POSITIVE,
    REALLINE,
    Polynomial,
    SuperDomainShape,
    SuperFunction,
    SuperMorphism,
    binomial_coefficient,
    box_samples,
    compose,
    jacobian,
    morphism_product,
    pair,
    projection,
    pullback,
    shape_product,
    split_product_function,
)

R12 = SuperDomainShape(1, (REALLINE,), 2)


def sf(shape, coeffs):
    return SuperFunction(shape, {
        idx: Polynomial(shape.m, terms) for idx, terms in coeffs.items()
    })


X = SuperFunction.coordinate(R12, 0)
XI1 = SuperFunction.odd_gen(R12, 0)
XI2 = SuperFunction.odd_gen(R12, 1)


class TestPolynomial:
    def test_laurent_product(self):
        p = Polynomial(1, {(-1,): 1}) * Polynomial(1, {(2,): 3})
        assert p == Polynomial(1, {(1,): 3})

    def test_monomial_inverse(self):
        p = Polynomial(1, {(2,): Fraction(3)})
        assert p.monomial_inverse() == Polynomial(1, {(-2,): Fraction(1, 3)})
        with pytest.raises(NonInvertibleError):
            (Polynomial.one(1) + Polynomial.variable(1, 0)).monomial_inverse()

    def test_derive_laurent(self):
        p = Polynomial(1, {(-1,): 1})
        assert p.derive(0) == Polynomial(1, {(-2,): -1})

    def test_evaluate(self):
        p = Polynomial(2, {(1, -1): 6})
        assert p.evaluate([Fraction(1, 2), Fraction(3)]) == Scalar(1)
        with pytest.raises(ZeroDivisionError):
            p.evaluate([1, 0])

    def test_binomial_coefficient(self):
        assert binomial_coefficient(4, 2) == 6
        assert binomial_coefficient(4, 5) == 0
        assert binomial_coefficient(-1, 3) == -1
        assert binomial_coefficient(-2, 2) == 3
        assert binomial_coefficient(Fraction(-1), 0) == 1


class TestSuperFunctionAlgebra:
    def test_product_even_odd(self):
        assert X * XI1 == sf(R12, {(0,): {(1,): 1}})

    def test_odd_square_vanishes(self):
        assert (XI1 * XI1).is_zero()

    def test_nilpotent_difference_of_squares(self):
        f = X + XI1 * XI2
        g = X - XI1 * XI2
        assert f * g == sf(R12, {(): {(2,): 1}})

    def test_parity(self):
        assert (X * XI1).parity() is ODD
        assert (X + XI1 * XI2).parity() is EVEN
        assert (X + XI1).parity() is None

    def test_inv_even(self):
        f = SuperFunction.one(R12) + XI1 * XI2
        finv = f.inv_even()
        assert f * finv == SuperFunction.one(R12)
        # Laurent body: x + xi1 xi2 inverts to x^-1 - x^-2 xi1 xi2
        g = X + XI1 * XI2
        ginv = g.inv_even()
        assert ginv == sf(R12, {(): {(-1,): 1}, (0, 1): {(-2,): -1}})
        assert g * ginv == SuperFunction.one(R12)

    def test_inv_even_requires_even(self):
        with pytest.raises(ParityError):
            (SuperFunction.one(R12) + XI1).inv_even()


class TestDerivatives:
    def test_even_derivative(self):
        f = sf(R12, {(0,): {(2,): 1}})  # x^2 xi1
        assert f.derive_even(0) == sf(R12, {(0,): {(1,): 2}})

    def test_left_odd_derivative(self):
        f = XI1 * XI2
        assert f.derive_odd(0) == XI2
        assert f.derive_odd(1) == -XI1

    def test_odd_derivatives_anticommute(self):
        shape = SuperDomainShape(1, (REALLINE,), 3)
        rng = random.Random(2)
        f = _random_function(rng, shape)
        for i in range(3):
            for j in range(3):
                assert (f.derive_odd(i).derive_odd(j)
                        == -(f.derive_odd(j).derive_odd(i)))

    def test_graded_leibniz(self):
        rng = random.Random(4)
        for _ in range(12):
            f = _random_function(rng, R12, homogeneous=True)
            g = _random_function(rng, R12)
            assert (f * g).derive_even(0) == f.derive_even(0) * g + f * g.derive_even(0)
            sign = -1 if f.parity() is ODD else 1
            lhs = (f * g).derive_odd(1)
            rhs = f.derive_odd(1) * g + Fraction(sign) * (f * g.derive_odd(1))
            assert lhs == rhs


def _random_function(rng, shape, homogeneous=False, max_terms=4):
    from itertools import combinations
    indices = []
    for size in range(shape.total_odd + 1):
        indices.extend(combinations(range(shape.total_odd), size))
    if homogeneous:
        par = rng.choice([0, 1])
        indices = [i for i in indices if len(i) % 2 == par]
    coeffs = {}
    for _ in range(rng.randint(1, max_terms)):
        idx = rng.choice(indices)
        exps = tuple(rng.randint(0, 2) for _ in range(shape.m))
        poly = coeffs.setdefault(idx, {})
        poly[exps] = poly.get(exps, 0) + rng.randint(-3, 3)
    return sf(shape, coeffs)


def _random_automorphism(rng, shape=R12):
    """Invertible-looking morphism: affine body, unit-triangular odd part."""
    a = rng.choice([1, 2, -1, Fraction(1, 2)])
    b = Fraction(rng.randint(-2, 2))
    c = Fraction(rng.randint(-2, 2))
    k = rng.randint(0, 2)
    even = (Fraction(a) * X + b
            + c * SuperFunction.coordinate(shape, 0, k) * XI1 * XI2)
    d = Fraction(rng.randint(-2, 2))
    odd1 = XI1 + d * SuperFunction.coordinate(shape, 0, rng.randint(0, 2)) * XI2
    e = rng.choice([1, -1, 2])
    odd2 = Fraction(e) * XI2
    return SuperMorphism(shape, shape, [even], [odd1, odd2])


class TestPullback:
    def test_identity(self):
        f = _random_function(random.Random(7), R12)
        assert pullback(SuperMorphism.identity(R12), f) == f

    def test_nilpotent_taylor(self):
        phi = SuperMorphism(R12, R12, [X + XI1 * XI2], [XI1, XI2])
        f = sf(R12, {(): {(2,): 1}})  # x^2
        assert pullback(phi, f) == sf(R12, {(): {(2,): 1}, (0, 1): {(1,): 2}})

    def test_odd_swap_sign(self):
        phi = SuperMorphism(R12, R12, [X], [XI2, XI1])
        f = XI1 * XI2
        assert pullback(phi, f) == -(XI1 * XI2)

    def test_negative_exponent_taylor(self):
        # pull x^-1 back along x -> 2x
        shape = SuperDomainShape(1, (POSITIVE,), 0)
        x = SuperFunction.coordinate(shape, 0)
        phi = SuperMorphism(shape, shape, [Fraction(2) * x], [])
        f = SuperFunction(shape, {(): Polynomial(1, {(-1,): 1})})
        assert pullback(phi, f) == SuperFunction(
            shape, {(): Polynomial(1, {(-1,): Fraction(1, 2)})})

    def test_negative_exponent_with_soul(self):
        # (x + xi1 xi2)^-1 via pullback of x^-1 along x -> x + xi1 xi2
        phi = SuperMorphism(R12, R12, [X + XI1 * XI2], [XI1, XI2])
        f = sf(R12, {(): {(-1,): 1}})
        assert pullback(phi, f) == sf(R12, {(): {(-1,): 1}, (0, 1): {(-2,): -1}})

    def test_algebra_morphism(self):
        rng = random.Random(9)
        for _ in range(10):
            phi = _random_automorphism(rng)
            f = _random_function(rng, R12)
            g = _random_function(rng, R12)
            assert pullback(phi, f * g) == pullback(phi, f) * pullback(phi, g)
            assert pullback(phi, f + g) == pullback(phi, f) + pullback(phi, g)

    def test_functoriality(self):
        rng = random.Random(11)
        for _ in range(8):
            phi = _random_automorphism(rng)
            psi = _random_automorphism(rng)
            f = _random_function(rng, R12)
            assert (pullback(compose(phi, psi), f)
                    == pullback(phi, pullback(psi, f)))

    def test_aux_parameters_pass_through(self):
        src = SuperDomainShape(1, (REALLINE,), 1, aux=2)
        tgt = SuperDomainShape(1, (REALLINE,), 1, aux=2)
        x = SuperFunction.coordinate(src, 0)
        xi = SuperFunction.odd_gen(src, 0)
        theta1 = SuperFunction.odd_gen(src, 1)  # first aux gen
        phi = SuperMorphism(src, tgt, [x], [xi + theta1])
        f = SuperFunction(tgt, {(0, 1): Polynomial.one(1)})  # xi*theta1 on target
        got = pullback(phi, f)
        # (xi + theta1)·theta1 = xi·theta1
        assert got == SuperFunction(src, {(0, 1): Polynomial.one(1)})


class TestCompose:
    def test_shift_then_scale(self):
        line = SuperDomainShape(1, (REALLINE,), 0)
        x = SuperFunction.coordinate(line, 0)
        shift = SuperMorphism(line, line, [x + 1], [])
        scale = SuperMorphism(line, line, [Fraction(2) * x], [])
        both = compose(shift, scale)
        assert both.even_components[0] == Fraction(2) * x + 2

    def test_compose_with_identity(self):
        rng = random.Random(13)
        phi = _random_automorphism(rng)
        assert compose(phi, SuperMorphism.identity(R12)) == phi
        assert compose(SuperMorphism.identity(R12), phi) == phi


class TestJacobian:
    def test_identity(self):
        J = jacobian(SuperMorphism.identity(R12))
        assert J == jacobian(SuperMorphism.identity(R12))
        assert J.berezinian() == SuperFunction.one(R12)

    def test_linear_scaling(self):
        shape = SuperDomainShape(1, (REALLINE,), 1)
        x = SuperFunction.coordinate(shape, 0)
        xi = SuperFunction.odd_gen(shape, 0)
        phi = SuperMorphism(shape, shape, [Fraction(3) * x], [xi])
        assert jacobian(phi).berezinian() == SuperFunction.constant(shape, 3)

    def test_shear_has_unit_berezinian(self):
        phi = SuperMorphism(R12, R12, [X + XI1 * XI2], [XI1, XI2])
        assert jacobian(phi).berezinian() == SuperFunction.one(R12)

    def test_chain_rule(self):
        rng = random.Random(17)
        for _ in range(8):
            phi = _random_automorphism(rng)
            psi = _random_automorphism(rng)
            lhs = jacobian(compose(phi, psi))
            rhs = jacobian(phi) * jacobian(psi).map_entries(lambda f: pullback(phi, f))
            assert lhs == rhs

    def test_berezinian_chain_rule(self):
        rng = random.Random(19)
        for _ in range(8):
            phi = _random_automorphism(rng)
            psi = _random_automorphism(rng)
            lhs = jacobian(compose(phi, psi)).berezinian()
            rhs = pullback(phi, jacobian(psi).berezinian()) * jacobian(phi).berezinian()
            assert lhs == rhs


class TestProductsAndSplits:
    def test_split_reassembles(self):
        left = SuperDomainShape(1, (REALLINE,), 1)
        right = SuperDomainShape(1, (REALLINE,), 1)
        prod = shape_product(left, right)
        rng = random.Random(23)
        f = _random_function(rng, prod)
        total = SuperFunction.zero(prod)
        for fl, fr in split_product_function(f, left, right):
            total = total + fl.embed(prod, 0, 0) * fr.embed(prod, left.m, left.n)
        assert total == f

    def test_projection_and_pair(self):
        s = SuperDomainShape(1, (REALLINE,), 1)
        prod = shape_product(s, s)
        p1 = projection(s, s, 1)
        p2 = projection(s, s, 2)
        both = pair(p1, p2)
        assert both == SuperMorphism.identity(prod)

    def test_morphism_product_of_identities(self):
        s = SuperDomainShape(1, (REALLINE,), 1)
        ident = SuperMorphism.identity(s)
        assert morphism_product(ident, ident) == SuperMorphism.identity(
            shape_product(s, s))


class TestBoxes:
    def test_box_samples_interval(self):
        pts = box_samples((Interval(0, 1),), 3)
        assert pts == [(Fraction(0),), (Fraction(1, 2),), (Fraction(1),)]

    def test_containment_check_passes(self):
        shape = SuperDomainShape(1, (Interval(0, 1),), 0)
        x = SuperFunction.coordinate(shape, 0)
        half = SuperMorphism(shape, shape, [Fraction(1, 2) * x], [])
        assert "sampled" in half.check_body_box()

    def test_containment_check_fails(self):
        shape = SuperDomainShape(1, (Interval(0, 1),), 0)
        x = SuperFunction.coordinate(shape, 0)
        double = SuperMorphism(shape, shape, [Fraction(2) * x], [])
        with pytest.raises(DomainBoxError):
            double.check_body_box()

    def test_power_of_s_is_not_in_a_bounded_box(self):
        # x -> s x on [0, 1]: s ~ 2.507 puts the image of 1 outside
        shape = SuperDomainShape(1, (Interval(0, 1),), 0)
        x = SuperFunction.coordinate(shape, 0)
        stretch = SuperMorphism(shape, shape, [Scalar(1, 1) * x], [])
        with pytest.raises(DomainBoxError, match="component 0"):
            stretch.check_body_box()
        line = SuperDomainShape(1, (REALLINE,), 0)
        onto_line = SuperMorphism(shape, line, [
            SuperFunction(shape, {(): Polynomial(1, {(1,): Scalar(1, 1)})})], [])
        assert "sampled" in onto_line.check_body_box()

    def test_positive_axis(self):
        shape = SuperDomainShape(1, (POSITIVE,), 0)
        x = SuperFunction.coordinate(shape, 0)
        inv = SuperMorphism(shape, shape, [SuperFunction(
            shape, {(): Polynomial(1, {(-1,): 1})})], [])
        assert inv.check_body_box() is not None


# -- pullback against the term-by-term oracle --------------------------------
#
# pullback substitutes by grouping terms on their even exponents; the oracle
# below expands f one monomial at a time, as pullback was first written.


def oracle_pullback(phi, f):
    src = phi.source
    power_cache = {}

    def even_power(k, e):
        got = power_cache.get((k, e))
        if got is not None:
            return got
        comp = phi.even_components[k]
        body = comp.body_polynomial()
        soul = comp.soul()
        acc = SuperFunction.zero(src)
        soul_power = SuperFunction.one(src)
        for j in range(src.total_odd + 1):
            c = binomial_coefficient(e, j)
            if c != 0:
                if e - j >= 0:
                    base = SuperFunction.from_polynomial(src, body ** (e - j))
                else:
                    base = SuperFunction.from_polynomial(
                        src, body.monomial_inverse() ** (j - e))
                acc = acc + Scalar(c) * (base * soul_power)
            soul_power = soul_power * soul
            if soul_power.is_zero():
                break
        power_cache[(k, e)] = acc
        return acc

    def odd_image(j):
        if j < phi.target.n:
            return phi.odd_components[j]
        return SuperFunction.odd_gen(src, src.n + (j - phi.target.n))

    result = SuperFunction.zero(src)
    for alpha, poly in f.coeffs.items():
        odd_factor = SuperFunction.one(src)
        for j in alpha:
            odd_factor = odd_factor * odd_image(j)
        if odd_factor.is_zero():
            continue
        for exps, coeff in poly.terms.items():
            # the key holds the even exponents, then the power of s
            term = SuperFunction.constant(src, Scalar(coeff, exps[-1]))
            for k, e in enumerate(exps[:-1]):
                if e:
                    term = term * even_power(k, e)
            result = result + term * odd_factor
    return result


def _outcome(fn, *args):
    """The value of fn(*args), or the type of the package error it raises."""
    try:
        return fn(*args)
    except NonInvertibleError as exc:
        return type(exc)


def _assert_same_outcome(got, want):
    assert got == want
    if isinstance(want, SuperFunction):
        assert str(got) == str(want)


_COEFFS = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])


@st.composite
def _polynomials(draw, m, laurent, power_of_s, max_terms=3, max_exp=2):
    """Nonzero polynomial; negative exponents only on the `laurent` axes.

    power_of_s(exps) gives the power of s carried by the term x^exps.
    """
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        exps = tuple(draw(st.integers(-max_exp if k in laurent else 0, max_exp))
                     for k in range(m))
        terms[exps] = Scalar(draw(_COEFFS), power_of_s(exps))
    return Polynomial(m, terms)


@st.composite
def _morphisms(draw, mixed=False):
    """(phi, weights) with every component carrying one power of s, or with
    each term carrying its own when mixed.

    Shapes run over m, n in 0..2 with up to 2 aux parameters; POSITIVE axes
    take Laurent exponents; bodies are monomials (invertible) or short
    polynomials, with souls drawn from the even sectors.  weights[k] is the
    power of s of the k-th component (evens, then odds).
    """
    m, n, aux = (draw(st.integers(0, 2)) for _ in range(3))
    box = tuple(draw(st.sampled_from([POSITIVE, REALLINE, Interval(0, 1)]))
                for _ in range(m))
    shape = SuperDomainShape(m, box, n, aux)
    laurent = {k for k, axis in enumerate(box) if axis is POSITIVE}
    sectors = [c for size in range(n + aux + 1)
               for c in combinations(range(n + aux), size)]
    weights = [draw(st.integers(-1, 1)) for _ in range(m + n)]

    def component(weight, parity):
        def poly(max_terms):
            return draw(_polynomials(
                m, laurent,
                lambda _: draw(st.integers(-1, 1)) if mixed else weight,
                max_terms=max_terms, max_exp=1))
        coeffs = {}
        if parity == 0:
            coeffs[()] = poly(draw(st.sampled_from([1, 1, 2])))
        candidates = [c for c in sectors if c and len(c) % 2 == parity]
        for _ in range(draw(st.integers(parity, 2)) if candidates else 0):
            coeffs[draw(st.sampled_from(candidates))] = poly(1)
        return SuperFunction(shape, coeffs)

    evens = [component(weights[k], 0) for k in range(m)]
    odds = [component(weights[m + j], 1) for j in range(n)]
    return SuperMorphism(shape, shape, evens, odds), weights


def _image_power_of_s(phi, weights, alpha, exps, power):
    """Power of s on the image of s^power x^exps xi^alpha under phi."""
    m, n = phi.target.m, phi.target.n
    return (power + sum(e * w for e, w in zip(exps, weights[:m]))
            + sum(weights[m + j] for j in alpha if j < n))


@st.composite
def _functions(draw, shape, power_of_term=None):
    """Function on shape; power_of_term(alpha, exps) gives each term's power
    of s, which is drawn from -1..1 when it is None."""
    if power_of_term is None:
        def power_of_term(alpha, exps):
            return draw(st.integers(-1, 1))
    laurent = {k for k, axis in enumerate(shape.box) if axis is POSITIVE}
    sectors = [c for size in range(shape.total_odd + 1)
               for c in combinations(range(shape.total_odd), size)]
    coeffs = {}
    for _ in range(draw(st.integers(1, 4))):
        alpha = draw(st.sampled_from(sectors))
        coeffs[alpha] = draw(_polynomials(
            shape.m, laurent, lambda exps: power_of_term(alpha, exps),
            max_terms=4, max_exp=3))
    return SuperFunction(shape, coeffs)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_pullback_matches_term_by_term_oracle(data):
    # f is homogeneous for phi: every term's image carries the same power
    # of s (test_pullback_mixing_powers_of_s draws the mixed cases)
    phi, weights = data.draw(_morphisms())
    total = data.draw(st.integers(-1, 1))
    f = data.draw(_functions(phi.target, lambda alpha, exps: total - (
        _image_power_of_s(phi, weights, alpha, exps, 0))))
    _assert_same_outcome(_outcome(pullback, phi, f),
                         _outcome(oracle_pullback, phi, f))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_pullback_mixing_powers_of_s(data):
    # the components and f's terms carry arbitrary powers of s.  The
    # pullback equals the term-by-term oracle, and the sum of the pullbacks
    # of f's parts of one power of s each.
    phi, _ = data.draw(_morphisms(mixed=True))
    f = data.draw(_functions(phi.target))
    parts = {}
    for alpha, poly in f.coeffs.items():
        for exps, c in poly.terms.items():
            parts.setdefault(exps[-1], {}).setdefault(alpha, {})[exps[:-1]] = \
                Scalar(c, exps[-1])

    def by_parts():
        return sum((pullback(phi, SuperFunction(phi.target, {
            alpha: Polynomial(phi.target.m, terms)
            for alpha, terms in part.items()})) for part in parts.values()),
            SuperFunction.zero(phi.source))

    got = _outcome(pullback, phi, f)
    _assert_same_outcome(got, _outcome(oracle_pullback, phi, f))
    _assert_same_outcome(got, _outcome(by_parts))


def test_pullback_mixing_powers_that_cancel():
    # the images of s (x1^2 - 2 x1 + 1) and x2 meet at the constant term,
    # where the s parts cancel: s - 2s + s + 1 = 1
    shape = SuperDomainShape(2, (REALLINE, REALLINE), 0)
    x1 = SuperFunction.coordinate(shape, 0)
    x2 = SuperFunction.coordinate(shape, 1)
    phi = SuperMorphism(shape, shape, [x1 + 1, x2 + 1], [])
    f = SuperFunction(shape, {(): Polynomial(2, {
        (0, 1): 1, (2, 0): Scalar(1, 1), (1, 0): Scalar(-2, 1),
        (0, 0): Scalar(1, 1)})})
    want = SuperFunction(shape, {(): Polynomial(2, {
        (0, 1): 1, (0, 0): 1, (2, 0): Scalar(1, 1)})})
    assert pullback(phi, f) == oracle_pullback(phi, f) == want


def test_pullback_where_the_result_mixes_powers_of_s():
    shape = SuperDomainShape(1, (REALLINE,), 0)
    x = SuperFunction.coordinate(shape, 0)
    phi = SuperMorphism(shape, shape, [x + 1], [])
    f = SuperFunction(shape, {(): Polynomial(1, {(1,): Scalar(1, 1),
                                                 (0,): 1})})
    got = pullback(phi, f)
    assert got == oracle_pullback(phi, f)
    assert got == SuperFunction(shape, {(): Polynomial(1, {
        (1,): Scalar(1, 1), (0,): Scalar(1, 1) + 1})})
    assert str(got) == "s + 1 + s x1"


# -- closed operations build canonical results --------------------------------
#
# Polynomial and SuperFunction build the results of closed operations through
# trusted constructors; each result must equal what the validating public
# constructor builds from its data, and store no zero.


def _assert_canonical(value):
    if isinstance(value, SuperFunction):
        assert value == SuperFunction(value.shape, value.coeffs)
        for idx, poly in value.coeffs.items():
            assert type(idx) is tuple and list(idx) == sorted(set(idx))
            assert poly.nvars == value.shape.m
            _assert_canonical(poly)
        return
    # a key holds the even exponents, then the power of s
    assert value == Polynomial(value.nvars, [
        (exps[:-1], Scalar(coeff, exps[-1])) for exps, coeff in value.terms.items()])
    assert value.terms, "zero polynomial stored"
    for exps, coeff in value.terms.items():
        assert type(exps) is tuple and len(exps) == value.nvars + 1
        assert all(type(e) is int for e in exps)
        assert type(coeff) is Fraction and coeff != 0


def _canonical_or_zero(value):
    if isinstance(value, SuperFunction) or value:
        _assert_canonical(value)
    else:
        assert value.terms == {}


@st.composite
def _laurent_functions(draw, shape):
    sectors = [c for size in range(shape.total_odd + 1)
               for c in combinations(range(shape.total_odd), size)]
    coeffs = {}
    for _ in range(draw(st.integers(0, 5))):
        alpha = draw(st.sampled_from(sectors))
        coeffs[alpha] = draw(_polynomials(shape.m, set(range(shape.m)),
                                          lambda _: draw(st.integers(-1, 1)),
                                          max_exp=2))
    return SuperFunction(shape, coeffs)


R22_AUX = SuperDomainShape(2, (POSITIVE, REALLINE), 2, aux=1)


@settings(max_examples=150, deadline=None)
@given(_laurent_functions(R22_AUX), _laurent_functions(R22_AUX))
def test_closed_superfunction_operations_are_canonical(f, g):
    results = [f + g, f - g, f * g, -f, f.soul(), f.even_part(),
               f.odd_part(), f - f]
    results += [f.derive_even(i) for i in range(2)]
    results += [f.derive_odd(j) for j in range(3)]
    for r in results:
        _canonical_or_zero(r)
    p, q = f.body_polynomial(), g.body_polynomial()
    polys = [p + q, p - q, p * q, -p, p - p, p.derive(0), p.derive(1), p ** 2]
    if p.is_monomial():
        polys += [p.monomial_inverse(), p ** -2]
    for r in polys:
        _canonical_or_zero(r)
    if p.is_monomial():
        _canonical_or_zero(f.even_part().inv_even())


R13_AUX2 = SuperDomainShape(1, (POSITIVE,), 3, aux=2)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_superfunction_inv_even_multiplies_back(data):
    # a monomial body is what makes an even superfunction invertible; with
    # five odd generators the series reaches soul^2
    w = data.draw(st.integers(-1, 1))
    even_sectors = [c for size in (2, 4) for c in combinations(range(5), size)]
    coeffs = {(): data.draw(_polynomials(1, {0}, lambda _: w, max_terms=1))}
    for _ in range(data.draw(st.integers(0, 4))):
        coeffs[data.draw(st.sampled_from(even_sectors))] = data.draw(
            _polynomials(1, {0}, lambda _: w))
    f = SuperFunction(R13_AUX2, coeffs)
    inv = f.inv_even()
    assert f * inv == SuperFunction.one(R13_AUX2)
    assert inv * f == SuperFunction.one(R13_AUX2)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_pullback_results_are_canonical(data):
    phi, weights = data.draw(_morphisms())
    f = data.draw(_functions(phi.target, lambda alpha, exps: 0))
    got = _outcome(pullback, phi, f)
    if isinstance(got, SuperFunction):
        _canonical_or_zero(got)
