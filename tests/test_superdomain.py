"""Superfunction algebra, derivatives, pullbacks, Jacobians."""

import random
from fractions import Fraction
from itertools import combinations
from math import factorial, gcd
from operator import add, mul, sub

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from superberezin import suites
from superberezin.berezin import BerezinSection, pullback_section
from superberezin.errors import (
    DimensionError,
    DomainBoxError,
    NonInvertibleError,
    OrientationError,
    ParityError,
)
from superberezin.grassmann import (EVEN, ODD, GrassmannElement, Scalar,
                                    _canonical, _layout, _power, fused_sum)
from superberezin.groups import (axb_even_subgroup, axb_odd_subgroup,
                                 builtin_groups, fubini_builtins,
                                 heisenberg_center, line_odd_subgroup,
                                 product_builtins)
from superberezin.superdomain import (
    Interval,
    POSITIVE,
    REALLINE,
    Polynomial,
    SuperDomainShape,
    SuperFunction,
    SuperMorphism,
    box_samples,
    compose,
    directions,
    jacobian,
    jacobian_rows,
    morphism_product,
    pair,
    projection,
    pullback,
    shape_product,
)
from superberezin.superdomain import _differential
from superberezin.supergroup import full_subgroup, trivialization
from superberezin.supermatrix import SuperMatrix
from superberezin.textio import format_superfunction, parse_superfunction

R12 = SuperDomainShape(1, (REALLINE,), 2)


def sf(shape, coeffs):
    return SuperFunction(shape, {
        idx: Polynomial(shape.m, terms) for idx, terms in coeffs.items()
    })


def _sectors_of(f):
    """The nonzero (index tuple, Polynomial) sectors of f, read through its
    public ``coefficient``."""
    n = f.shape.n
    return [(idx, f.coefficient(idx)) for size in range(n + 1)
            for idx in combinations(range(n), size) if f.coefficient(idx)]


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

    def test_only_a_constant_compares_across_shapes(self):
        # a constant is its value on every shape and as a polynomial; x on
        # (1|2) over R, x on (1|0) over R+ and the polynomial x are three
        # values, so == on functions still tells their shapes apart
        x = Polynomial.variable(1, 0)
        pos = SuperDomainShape(1, (POSITIVE,), 0)
        x_pos = SuperFunction.coordinate(pos, 0)
        three = [SuperFunction.constant(R12, 3), SuperFunction.constant(pos, 3),
                 Polynomial.constant(1, 3), 3]
        for a in three:
            assert all(a == b and b == a for b in three)
        assert len(set(three)) == len(set(three[::-1])) == 1
        for a, b in [(X, x), (X, x_pos), (x_pos, x), (X + XI1 * XI2, x_pos),
                     (X, Polynomial.variable(2, 0))]:
            assert a != b and b != a and not a == b
        assert len({X, x, x_pos}) == len({x_pos, x, X}) == 3
        assert X == SuperFunction.coordinate(R12, 0)


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

    def test_even_derivative_checks_its_index_on_any_function(self):
        # the range is checked up front, not by the first sector's
        # polynomial: the zero function refuses a bad index too
        for f in (SuperFunction.zero(R12), X * XI1):
            for i in (5, 1, -1):
                with pytest.raises(DimensionError):
                    f.derive_even(i)
        assert SuperFunction.zero(R12).derive_even(0).is_zero()

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
    for size in range(shape.n + 1):
        indices.extend(combinations(range(shape.n), size))
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
            inner = jacobian(psi)
            pulled = SuperMatrix(inner.p, inner.q,
                                 [[pullback(phi, f) for f in row]
                                  for row in inner.entries],
                                 zero=inner.zero, one=inner.one)
            rhs = jacobian(phi) * pulled
            assert lhs == rhs

    def test_berezinian_chain_rule(self):
        rng = random.Random(19)
        for _ in range(8):
            phi = _random_automorphism(rng)
            psi = _random_automorphism(rng)
            lhs = jacobian(compose(phi, psi)).berezinian()
            rhs = pullback(phi, jacobian(psi).berezinian()) * jacobian(phi).berezinian()
            assert lhs == rhs


class TestMorphismParity:
    # on R^(1|1), x the even coordinate and xi the odd one
    S = SuperDomainShape(1, (REALLINE,), 1)
    x, xi = SuperFunction.coordinate(S, 0), SuperFunction.odd_gen(S, 0)

    def test_a_mixed_even_component_is_refused(self):
        # once accepted: x^2 then pulled back to the mixed x1^2 + 2 x1 xi1
        with pytest.raises(ParityError, match="^even component must be even$"):
            SuperMorphism(self.S, self.S, [self.x + self.xi], [self.xi])

    def test_a_mixed_odd_component_is_refused(self):
        with pytest.raises(ParityError, match="^odd component must be odd$"):
            SuperMorphism(self.S, self.S, [self.x], [self.xi + self.x])

    def test_a_component_of_the_other_parity_is_refused(self):
        with pytest.raises(ParityError, match="^even component must be even$"):
            SuperMorphism(self.S, self.S, [self.xi], [self.xi])
        with pytest.raises(ParityError, match="^odd component must be odd$"):
            SuperMorphism(self.S, self.S, [self.x], [self.x])


class TestProductsAndSplits:
    def test_embed_refuses_a_negative_even_offset(self):
        # x1 at even offset -1 would store a key one exponent too long
        R22 = SuperDomainShape(2, (REALLINE, REALLINE), 2)
        with pytest.raises(DimensionError):
            X.embed(R22, -1, 0)
        assert X.embed(R22, 1, 0) == SuperFunction.coordinate(R22, 1)

    def test_embed_refuses_a_negative_odd_offset(self):
        R22 = SuperDomainShape(2, (REALLINE, REALLINE), 2)
        with pytest.raises(DimensionError):
            XI1.embed(R22, 0, -1)
        assert XI2.embed(R22, 0, 0) == SuperFunction.odd_gen(R22, 1)

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
        pts = box_samples((Interval(0, 1),))
        assert pts == [(Fraction(0),), (Fraction(1, 2),), (Fraction(1),)]

    # box containment is the first phase of pullback_section's sampled
    # check; a morphism that passes it may still stop in the orientation
    # phase, which names the Jacobian rather than a component

    def test_containment_check_passes(self):
        shape = SuperDomainShape(1, (Interval(0, 1),), 0)
        x = SuperFunction.coordinate(shape, 0)
        half = SuperMorphism(shape, shape, [Fraction(1, 2) * x], [])
        assert "box containment sampled on a 3-per-axis grid" in \
            _pulled_back(half).caveats

    def test_containment_check_fails(self):
        shape = SuperDomainShape(1, (Interval(0, 1),), 0)
        x = SuperFunction.coordinate(shape, 0)
        double = SuperMorphism(shape, shape, [Fraction(2) * x], [])
        with pytest.raises(DomainBoxError):
            _pulled_back(double)

    def test_floats_are_refused(self):
        # a float's binary value is not the rational it was written as
        shape = SuperDomainShape(1, (Interval(0, 1),), 0)
        x = SuperFunction.coordinate(shape, 0)
        for build in (lambda: Interval(0.1, 1), lambda: Interval(0, 0.5),
                      lambda: x.evaluate_body((0.5,)),
                      lambda: Polynomial(1, {(1,): 0.5}),
                      lambda: SuperMorphism.constant_point(shape, shape, (0.5,)),
                      lambda: shape.box[0].contains(0.5),
                      lambda: POSITIVE.contains(0.5),
                      lambda: REALLINE.contains(0.5)):
            with pytest.raises(TypeError):
                build()
        assert Interval(Fraction(1, 2), 1).samples() == [
            Fraction(1, 2), Fraction(3, 4), 1]

    def test_power_of_s_is_not_in_a_bounded_box(self):
        # x -> s x on [0, 1]: s ~ 2.507 puts the image of 1 outside
        shape = SuperDomainShape(1, (Interval(0, 1),), 0)
        x = SuperFunction.coordinate(shape, 0)
        stretch = SuperMorphism(shape, shape, [Scalar(1, 1) * x], [])
        with pytest.raises(DomainBoxError, match="component 0"):
            _pulled_back(stretch)
        # on a whole-line axis the box phase takes the value; the Jacobian
        # body s is then not compared
        line = SuperDomainShape(1, (REALLINE,), 0)
        onto_line = SuperMorphism(shape, line, [
            SuperFunction(shape, {(): Polynomial(1, {(1,): Scalar(1, 1)})})], [])
        with pytest.raises(OrientationError) as err:
            _pulled_back(onto_line)
        assert str(err.value) == (
            "Jacobian body at sample (Fraction(0, 1),) not compared: "
            "s is not rational: it carries a power of s")

    def test_positive_axis(self):
        # x -> 1/x stays on R+, so the box phase passes; it reverses the
        # orientation
        shape = SuperDomainShape(1, (POSITIVE,), 0)
        x = SuperFunction.coordinate(shape, 0)
        inv = SuperMorphism(shape, shape, [SuperFunction(
            shape, {(): Polynomial(1, {(-1,): 1})})], [])
        with pytest.raises(OrientationError) as err:
            _pulled_back(inv)
        assert str(err.value) == (
            "body Jacobian not positive at sample (Fraction(1, 2),)")


def _pulled_back(phi):
    """pullback_section of the unit density on phi's target."""
    return pullback_section(phi, BerezinSection.make(phi.target, 1))


# -- pullback against the term-by-term oracle --------------------------------
#
# pullback substitutes by grouping terms on their even exponents; the oracle
# below expands f one monomial at a time, as pullback was first written.


def binomial_coefficient(e, j):
    """Generalized C(e, j) = e(e-1)...(e-j+1)/j!; exact for negative e too."""
    num = Fraction(1)
    for t in range(j):
        num *= Fraction(e - t)
    return Fraction(num, factorial(j))


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
        for j in range(src.n + 1):
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
    for alpha, poly in _sectors_of(f):
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

    Shapes run over m in 0..2 and n in 0..3; POSITIVE axes
    take Laurent exponents; bodies are monomials (invertible) or short
    polynomials, with souls drawn from the even sectors.  weights[k] is the
    power of s of the k-th component (evens, then odds).
    """
    m, n = draw(st.integers(0, 2)), draw(st.integers(0, 3))
    box = tuple(draw(st.sampled_from([POSITIVE, REALLINE, Interval(0, 1)]))
                for _ in range(m))
    shape = SuperDomainShape(m, box, n)
    laurent = {k for k, axis in enumerate(box) if axis is POSITIVE}
    sectors = [c for size in range(n + 1)
               for c in combinations(range(n), size)]
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
    m = phi.target.m
    return (power + sum(e * w for e, w in zip(exps, weights[:m]))
            + sum(weights[m + j] for j in alpha))


@st.composite
def _functions(draw, shape, power_of_term=None):
    """Function on shape; power_of_term(alpha, exps) gives each term's power
    of s, which is drawn from -1..1 when it is None."""
    if power_of_term is None:
        def power_of_term(alpha, exps):
            return draw(st.integers(-1, 1))
    laurent = {k for k, axis in enumerate(shape.box) if axis is POSITIVE}
    sectors = [c for size in range(shape.n + 1)
               for c in combinations(range(shape.n), size)]
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
    for alpha, poly in _sectors_of(f):
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


def _assert_stored(coeff):
    """A stored coefficient is nonzero and in canonical form: an int, or a
    Fraction whose denominator exceeds 1; never a float or a bool."""
    assert type(coeff) is int or (type(coeff) is Fraction
                                  and coeff.denominator > 1), repr(coeff)
    assert coeff != 0


def _assert_canonical(value):
    if isinstance(value, Scalar):
        for k, coeff in value.terms.items():
            assert type(k) is int
            _assert_stored(coeff)
        return
    if isinstance(value, SuperFunction):
        # every stored sector is reachable by its index tuple
        assert value == SuperFunction(value.shape, _sectors_of(value))
        for mask, poly in value.coeffs.items():
            assert type(mask) is int and 0 <= mask < 2 ** value.shape.n
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
        _assert_stored(coeff)


def _canonical_or_zero(value):
    if isinstance(value, (Scalar, SuperFunction)) or value:
        _assert_canonical(value)
    else:
        assert value.terms == {}


@st.composite
def _laurent_functions(draw, shape):
    sectors = [c for size in range(shape.n + 1)
               for c in combinations(range(shape.n), size)]
    coeffs = {}
    for _ in range(draw(st.integers(0, 5))):
        alpha = draw(st.sampled_from(sectors))
        coeffs[alpha] = draw(_polynomials(shape.m, set(range(shape.m)),
                                          lambda _: draw(st.integers(-1, 1)),
                                          max_exp=2))
    return SuperFunction(shape, coeffs)


R23 = SuperDomainShape(2, (POSITIVE, REALLINE), 3)


@settings(max_examples=150, deadline=None)
@given(_laurent_functions(R23), _laurent_functions(R23))
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
    # both axes take Laurent exponents: sample off zero
    for point in [(1, 1), (2, -1), (Fraction(1, 2), 3),
                  (Fraction(-2, 3), Fraction(3, 2))]:
        _canonical_or_zero(p.evaluate(point))
        _canonical_or_zero(f.evaluate_body(point))


R15 = SuperDomainShape(1, (POSITIVE,), 5)


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
    f = SuperFunction(R15, coeffs)
    inv = f.inv_even()
    assert f * inv == SuperFunction.one(R15)
    assert inv * f == SuperFunction.one(R15)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_pullback_results_are_canonical(data):
    phi, weights = data.draw(_morphisms())
    f = data.draw(_functions(phi.target, lambda alpha, exps: 0))
    got = _outcome(pullback, phi, f)
    if isinstance(got, SuperFunction):
        _canonical_or_zero(got)


@st.composite
def _homogeneous(draw, shape, parity):
    """Zero, or a function on shape with terms only in sectors of parity."""
    sectors = [c for size in range(parity, shape.n + 1, 2)
               for c in combinations(range(shape.n), size)]
    if not sectors or draw(st.booleans()):
        return SuperFunction.zero(shape)
    return SuperFunction(shape, {
        draw(st.sampled_from(sectors)): draw(_polynomials(
            shape.m, (), lambda _: draw(st.integers(-1, 1))))
        for _ in range(draw(st.integers(1, 3)))})


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_morphism_parity_is_checked_exactly(data):
    # homogeneous or zero components are accepted as given; one term of the
    # other parity added to any component is refused
    source = data.draw(_shapes)
    target = data.draw(_shapes)
    evens = [data.draw(_homogeneous(source, 0)) for _ in range(target.m)]
    odds = [data.draw(_homogeneous(source, 1)) for _ in range(target.n)]
    phi = SuperMorphism(source, target, evens, odds)
    assert (phi.even_components, phi.odd_components) == (tuple(evens), tuple(odds))
    if not target.m + target.n:
        return
    k = data.draw(st.integers(0, target.m + target.n - 1))
    kind, other = ("even", 1) if k < target.m else ("odd", 0)
    stray = data.draw(_homogeneous(source, other))
    if stray:
        comps = evens + odds
        comps[k] = comps[k] + stray
        with pytest.raises(ParityError, match=f"^{kind} component must be {kind}$"):
            SuperMorphism(source, target, comps[:target.m], comps[target.m:])


def _public_differential(phi, dirs, at=None):
    """_differential through the checked public constructor."""
    rows = jacobian_rows(phi, dirs)
    if at is not None:
        rows = [[pullback(at, entry) for entry in row] for row in rows]
    shape = (at or phi).source
    return SuperMatrix(phi.target.m, phi.target.n, rows,
                       zero=SuperFunction.zero(shape), one=SuperFunction.one(shape))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_differentials_pass_the_public_check(data):
    # every trusted differential is what SuperMatrix(...) accepts and builds:
    # the Jacobian, at a point, along the morphism itself, and in the second
    # factor of a doubled chart, as the ansatz takes it, and there at that
    # factor's point, over the first factor's ring, as the Haar density does
    phi, _ = data.draw(_morphisms())
    S = phi.source
    point = SuperMorphism.constant_point(
        S, S, [axis.samples()[1] for axis in S.box])
    doubled = compose(projection(S, S, 2), phi)
    cases = [(phi, directions(S), None),
             (phi, directions(S), point),
             (phi, directions(S), phi),
             (doubled, directions(S, S.m, S.n), None),
             (doubled, directions(S, S.m, S.n),
              pair(SuperMorphism.identity(S), point))]
    for psi, dirs, at in cases:
        try:
            want = _public_differential(psi, dirs, at)
        except NonInvertibleError:
            continue  # a Laurent entry pulled back along a non-monomial body
        got = _differential(psi, dirs, at)
        assert (got.p, got.q, got.parity) == (S.m, S.n, EVEN)
        assert got == want
        assert (got.zero.shape, got.one.shape) == (want.zero.shape, want.one.shape)
        assert (got.zero, got.one) == (want.zero, want.one)
    assert jacobian(phi) == _differential(phi, directions(S))


# -- one puller per morphism -------------------------------------------------
#
# pullback, compose and _differential pull every function along one morphism
# through one puller, whose powers, odd products and prefix images outlive
# each function.  The oracle substitutes each term alone, with no cache.


def uncached_pullback(phi, f):
    """phi^*f one term at a time: c s^k prod phi_i^e_i, each power by
    ``grassmann._power``, times psi_j in index order; a term whose odd
    product is zero is skipped before any power is taken."""
    src = phi.source
    result = SuperFunction.zero(src)
    for (mask, *exps, k), c in f.terms.items():
        odd = SuperFunction.one(src)
        for j, psi in enumerate(phi.odd_components):
            if mask >> j & 1:
                odd = odd * psi
        if odd.is_zero():
            continue
        term = SuperFunction.constant(src, Scalar(c, k))
        for comp, e in zip(phi.even_components, exps):
            term = term * _power(comp, e)
        result = result + term * odd
    return result


@st.composite
def _morphisms_with_a_dead_sector(draw):
    """A morphism of ``_morphisms``, mixed powers of s or not, and at times
    one odd component set to zero, so that every sector holding its
    generator has a zero odd product."""
    phi, _ = draw(_morphisms(mixed=draw(st.booleans())))
    if phi.target.n and draw(st.booleans()):
        odds = list(phi.odd_components)
        odds[draw(st.integers(0, len(odds) - 1))] = SuperFunction.zero(phi.source)
        phi = SuperMorphism(phi.source, phi.target, phi.even_components, odds)
    return phi


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_pullback_matches_the_uncached_oracle(data):
    # Laurent exponents on the POSITIVE axes, powers of s on every term
    phi = data.draw(_morphisms_with_a_dead_sector())
    f = data.draw(_functions(phi.target))
    _assert_same_outcome(_outcome(pullback, phi, f),
                         _outcome(uncached_pullback, phi, f))


def test_a_dead_sector_is_skipped_before_any_inverse():
    # x -> x + 1 has no inverse in the Laurent ring, but x^-1 xi1 lies in a
    # sector whose odd product is psi_1 = 0: it pulls back to 0 untouched
    S = SuperDomainShape(1, (POSITIVE,), 1)
    x, xi = SuperFunction.coordinate(S, 0), SuperFunction.odd_gen(S, 0)
    phi = SuperMorphism(S, S, [x + 1], [SuperFunction.zero(S)])
    inverse = SuperFunction.coordinate(S, 0, -1)
    f = inverse * xi + x * x
    assert pullback(phi, f) == uncached_pullback(phi, f) == (x + 1) * (x + 1)
    with pytest.raises(NonInvertibleError):
        pullback(phi, inverse)


def _assert_each_pulled_alone(got, at, functions):
    """got is the outcome of pulling ``functions`` back along ``at`` by
    one puller: NonInvertibleError where the oracle raises on one of them,
    else each of its functions the oracle's image of that function alone."""
    want = [_outcome(uncached_pullback, at, f) for f in functions]
    if got is NonInvertibleError:
        assert NonInvertibleError in want
        return
    assert len(got) == len(want)
    for g, w in zip(got, want):
        _assert_same_outcome(g, w)


def _components(phi):
    if phi is NonInvertibleError:
        return phi
    return phi.even_components + phi.odd_components


def _entries(matrix):
    if matrix is NonInvertibleError:
        return matrix
    return [entry for row in matrix.entries for entry in row]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_compose_and_differentials_pull_each_function_alone(data):
    # one puller serves every component of a compose and every entry of a
    # differential; each must be the oracle's image of that function alone,
    # so no cached prefix of one function leaks into another
    phi = data.draw(_morphisms_with_a_dead_sector())
    S, T = phi.source, data.draw(_shapes)
    drawn = SuperMorphism(S, T, [data.draw(_homogeneous(S, 0)) for _ in range(T.m)],
                          [data.draw(_homogeneous(S, 1)) for _ in range(T.n)])
    for then in (phi, drawn):
        _assert_each_pulled_alone(_components(_outcome(compose, phi, then)),
                                  phi, _components(then))
    point = SuperMorphism.constant_point(
        S, S, [axis.samples()[1] for axis in S.box])
    doubled = compose(projection(S, S, 2), phi)
    for psi, dirs, at in [(phi, directions(S), phi),
                          (phi, directions(S), point),
                          (doubled, directions(S, S.m, S.n),
                           pair(SuperMorphism.identity(S), point))]:
        entries = [entry for row in jacobian_rows(psi, dirs) for entry in row]
        _assert_each_pulled_alone(_entries(_outcome(_differential, psi, dirs, at)),
                                  at, entries)


# The morphisms the program builds itself, the results of compose, pair,
# projection, morphism_product, identity and constant_point, skip the
# public constructor's checks; each must be what SuperMorphism(...) accepts
# as it is.


def _assert_passes_the_public_checks(phi):
    again = SuperMorphism(phi.source, phi.target, phi.even_components,
                          phi.odd_components)
    assert again == phi
    assert type(phi.even_components) is type(phi.odd_components) is tuple


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_program_built_morphisms_pass_the_public_checks(data):
    phi = data.draw(_morphisms_with_a_dead_sector())
    S = phi.source
    point = SuperMorphism.constant_point(
        S, S, [axis.samples()[1] for axis in S.box])
    built = [SuperMorphism.identity(S), point, projection(S, S, 1),
             projection(S, S, 2), pair(phi, point), morphism_product(phi, phi),
             compose(projection(S, S, 2), phi)]
    composed = _outcome(compose, phi, phi)
    if composed is not NonInvertibleError:
        built.append(composed)
    for psi in built:
        _assert_passes_the_public_checks(psi)
    if S.m and S.n:
        # a morphism built from outside keeps every check
        mixed = SuperFunction.coordinate(S, 0) + SuperFunction.odd_gen(S, 0)
        with pytest.raises(ParityError, match="^even component must be even$"):
            SuperMorphism(S, S, (mixed,) + phi.even_components[1:],
                          phi.odd_components)


def _chart_morphisms(G, H):
    """What the group checks build on the chart G and its subgroup H: the
    group-law morphisms, the translation and conjugation of the Haar
    density and the modular Berezinian, and their composites with mul."""
    s, Hsh = G.shape, H.subgroup.shape
    ident, e = SuperMorphism.identity(s), G.unit_morphism()
    emb_h = compose(projection(Hsh, s, 1), H.embedding)
    laws = [morphism_product(G.mul, ident), morphism_product(ident, G.mul),
            pair(e, ident), pair(G.inv, ident),
            pair(projection(s, s, 2), projection(s, s, 1)),
            morphism_product(H.embedding, H.embedding),
            pair(emb_h, projection(Hsh, s, 2))]
    return [ident, e, emb_h, compose(emb_h, G.inv),
            pair(SuperMorphism.identity(Hsh),
                 SuperMorphism.constant_point(Hsh, s, G.unit)),
            *laws, *(compose(law, G.mul) for law in laws)]


_SPECS = [axb_even_subgroup(), axb_odd_subgroup(), heisenberg_center(),
          line_odd_subgroup()]


@pytest.mark.parametrize("G, H", [(spec.parent, spec) for spec in _SPECS]
                         + [(G, full_subgroup(G)) for G in builtin_groups()],
                         ids=lambda x: getattr(x, "name", None))
def test_chart_morphisms_pass_the_public_checks(G, H):
    for phi in _chart_morphisms(G, H):
        _assert_passes_the_public_checks(phi)


def test_quotient_morphisms_pass_the_public_checks():
    # the trivializations of the Fubini examples and the multiplication
    # maps of the product examples
    for ex in fubini_builtins():
        _assert_passes_the_public_checks(
            trivialization(ex.group, ex.subgroup, ex.section))
    for ex in product_builtins():
        _assert_passes_the_public_checks(compose(
            morphism_product(ex.left.embedding, ex.right.embedding),
            ex.group.mul))


# The supermatrix code builds each entry of a Jacobian's Berezinian with one
# fused sum, base + sum a*b, a difference taking its left factors negated;
# the oracle writes the same sum with __mul__ and __add__/__sub__, one
# operation at a time.


def _fused_oracle(base, pairs, subtract):
    acc = base
    for a, b in pairs:
        acc = acc - a * b if subtract else acc + a * b
    return acc


@settings(max_examples=150, deadline=None)
@given(st.data(), st.booleans())
def test_fused_products_match_mul_and_add(data, subtract):
    functions = _laurent_functions(R23)
    pairs = data.draw(st.lists(st.tuples(functions, functions), max_size=4))
    if pairs and data.draw(st.booleans()):
        a, b = data.draw(st.sampled_from(pairs))
        pairs.append((a, -b))  # undoes the product of (a, b)
    base = data.draw(functions)
    if data.draw(st.booleans()):
        base = _fused_oracle(base - base, pairs, False)  # cancels every product
    got = fused_sum(base, [(-a, b) for a, b in pairs] if subtract else pairs)
    assert got == _fused_oracle(base, pairs, subtract)
    _canonical_or_zero(got)


def test_fused_products_cancel_to_canonical_terms():
    half = sf(R12, {(0,): {(1,): Scalar(Fraction(1, 2), 1)}})
    one = SuperFunction.one(R12)
    doubled = fused_sum(half, [(one, half)])
    assert doubled.coefficient((0,)).terms == {(1, 1): 1}
    assert type(doubled.coefficient((0,)).terms[(1, 1)]) is int
    assert _sectors_of(doubled) == [((0,), doubled.coefficient((0,)))]
    assert fused_sum(half, [(-half, one)]).is_zero()
    assert fused_sum(X * XI1, [(-XI1, X)]).is_zero()
    with pytest.raises(DimensionError):
        fused_sum(half, [(SuperFunction.one(R23), half)])


# -- stored form: int numerators over one denominator ------------------------
#
# A Polynomial stores int numerators over one denominator in lowest terms,
# and ``terms`` is the int/Fraction view of them; equal values must be
# stored alike, whichever route built them.


def assert_stored_form(p):
    assert type(p.den) is int and p.den >= 1
    assert all(type(c) is int and c != 0 for c in p.nums.values())
    assert gcd(p.den, *p.nums.values()) == 1  # so zero has den 1
    layout = p._layout(p._count)
    view = {}
    for key, c in p.nums.items():
        mask, exps, k = layout.split(key)  # the tuple key terms must show
        view[exps + (k,) if type(p) is Polynomial else (mask, k)] = \
            _canonical(Fraction(c, p.den))
    assert p.terms == view
    for coeff in p.terms.values():
        _assert_stored(coeff)


def assert_sectors_stored(f):
    for poly in f.coeffs.values():
        assert poly, "zero sector stored"
        assert_stored_form(poly)


def assert_stored_alike(p, q):
    assert (p.nvars, p.den, p.nums) == (q.nvars, q.den, q.nums)
    assert hash(p) == hash(q)


def _public_terms(p):
    return [(exps[:-1], Scalar(c, exps[-1])) for exps, c in p.terms.items()]


def _round_trip(f):
    """f read back from its superfunction file."""
    return parse_superfunction(format_superfunction(f))


R23_WIDE = SuperDomainShape(3, (REALLINE, POSITIVE, REALLINE), 5)


@settings(max_examples=150, deadline=None)
@given(_laurent_functions(R23), _laurent_functions(R23),
       st.lists(st.tuples(_laurent_functions(R23), _laurent_functions(R23)),
                max_size=3))
def test_stored_form_is_canonical(f, g, pairs):
    p, q = f.body_polynomial(), g.body_polynomial()
    polys = [p + q, p - q, p - p, p * q, -p, p * 3, Fraction(1, 6) - p,
             p.derive(0), p.derive(1), Polynomial(2, _public_terms(p))]
    functions = [f + g, f - g, f - f, f * g, -f,
                 fused_sum(f, pairs), fused_sum(f, [(-a, b) for a, b in pairs]),
                 f.embed(R23_WIDE, 1, 2)]
    if p.is_monomial():
        polys += [p.monomial_inverse(), p ** -2]
        functions += [g * SuperFunction.from_polynomial(R23, p),
                      g * SuperFunction.from_polynomial(R23, -p.monomial_inverse())]
    for r in polys:
        assert_stored_form(r)
        read = _round_trip(SuperFunction.from_polynomial(R23, r))
        assert_stored_alike(read.body_polynomial(), r)
    for r in functions:
        assert_sectors_stored(r)
        read = _round_trip(r)
        assert read.coeffs.keys() == r.coeffs.keys()
        for mask, poly in r.coeffs.items():
            assert_stored_alike(read.coeffs[mask], poly)
    assert_stored_alike((p * q) * p, p * (q * p))
    assert_stored_alike((p + q) - q, p)
    assert_stored_alike(p - p, Polynomial.zero(2))
    if p.is_monomial():
        assert_stored_alike(p * p.monomial_inverse(), Polynomial.one(2))


def test_dropping_terms_can_shrink_the_polynomial_denominator():
    def key(e, k=0):  # the stored key of x1^e s^k
        return _layout(0, 1).key(0, (e,), k)
    p = Polynomial(1, {(0,): 1, (1,): Fraction(1, 2)})
    assert (p.den, p.nums) == (2, {key(0): 2, key(1): 1})
    assert p.terms == {(0, 0): 1, (1, 0): Fraction(1, 2)}
    assert ((p + p).den, (p + p).nums) == (1, {key(0): 2, key(1): 1})
    assert ((p - p).den, (p - p).nums) == (1, {})
    d = Polynomial(1, {(2,): Fraction(3, 2), (0,): Fraction(1, 3)}).derive(0)
    assert (d.den, d.nums) == (1, {key(1): 3})  # 3/2 * 2 = 3
    inv = Polynomial(1, {(2,): Scalar(Fraction(-2, 3), 1)}).monomial_inverse()
    assert (inv.den, inv.nums) == (2, {key(-2, -1): -3})
    with pytest.raises(TypeError):
        p.terms[(0, 0)] = 5


# The product loop from before Polynomials stored int numerators: it
# multiplies and sums the int/Fraction ``terms`` one pair at a time and
# settles the sums at the end.  It is kept here as the oracle of the
# int product loop, on its own and inside superfunction products and
# fused sums; the graded oracle takes each pair's sign from its index
# tuples.


def _fraction_product(a, b, acc=None, sign=1):
    acc = {} if acc is None else acc
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(map(add, e1, e2))
            acc[key] = acc.get(key, 0) + sign * c1 * c2
    return acc


def _settled(acc):
    return {key: _canonical(Fraction(c)) for key, c in acc.items() if c}


def _crossings(alpha, beta):
    return sum(1 for i in alpha for j in beta if i > j)


def _graded_fraction_sum(base, pairs):
    """base + sum a*b as {index tuple: settled terms}."""
    acc = {idx: dict(poly.terms) for idx, poly in _sectors_of(base)}
    for a, b in pairs:
        for alpha, pa in _sectors_of(a):
            for beta, pb in _sectors_of(b):
                if set(alpha) & set(beta):
                    continue
                _fraction_product(pa.terms, pb.terms,
                                  acc.setdefault(tuple(sorted(alpha + beta)), {}),
                                  -1 if _crossings(alpha, beta) % 2 else 1)
    out = {idx: _settled(terms) for idx, terms in acc.items()}
    return {idx: terms for idx, terms in out.items() if terms}


_HALVES_AND_THIRDS = st.sampled_from([Fraction(1, 2), Fraction(2, 3),
                                      Fraction(-1, 2), Fraction(-2, 3), 1, -3])


@st.composite
def _mixed_polynomials(draw, m=2):
    """Laurent polynomials whose terms carry 1/2 and 2/3 and powers of s
    from -1 to 1."""
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        exps = tuple(draw(st.integers(-2, 2)) for _ in range(m))
        terms[exps] = Scalar(draw(_HALVES_AND_THIRDS), draw(st.integers(-1, 1)))
    return Polynomial(m, terms)


@st.composite
def _mixed_functions(draw, shape=R23):
    sectors = [c for size in range(shape.n + 1)
               for c in combinations(range(shape.n), size)]
    return SuperFunction(shape, {
        draw(st.sampled_from(sectors)): draw(_mixed_polynomials(shape.m))
        for _ in range(draw(st.integers(0, 4)))})


@settings(max_examples=150, deadline=None)
@given(_mixed_polynomials(), _mixed_polynomials(), _mixed_functions(),
       st.lists(st.tuples(_mixed_functions(), _mixed_functions()), max_size=3))
def test_products_match_the_fraction_product_loop(p, q, base, pairs):
    assert (p * q).terms == _settled(_fraction_product(p.terms, q.terms))
    for a, b in pairs:
        got = a * b
        assert {idx: dict(poly.terms) for idx, poly in _sectors_of(got)} \
            == _graded_fraction_sum(SuperFunction.zero(R23), [(a, b)])
    got = fused_sum(base, pairs)
    assert {idx: dict(poly.terms) for idx, poly in _sectors_of(got)} \
        == _graded_fraction_sum(base, pairs)


def test_exponents_must_be_integers():
    for bad in (1.5, Fraction(3, 2), Fraction(2), "2"):
        with pytest.raises(TypeError):
            Polynomial(1, {(bad,): 1})
        with pytest.raises(TypeError):
            Polynomial(2, {(0, bad): 1})
    assert str(Polynomial(1, {(2,): 1})) == "x1^2"


# Arithmetic with an int, Fraction or Scalar operand builds the constant in
# stored form directly; it must be the constant the public constructors
# build.

@settings(max_examples=150, deadline=None)
@given(st.fractions(-5, 5, max_denominator=6), st.integers(-2, 2), st.integers(0, 3))
def test_scalar_operands_coerce_to_the_public_constant(q, k, m):
    shape = SuperDomainShape(m, (REALLINE,) * m, 2)
    f = SuperFunction.odd_gen(shape, 1) + Fraction(2, 3)
    p = Polynomial(m, {(1,) * m: Fraction(1, 2)})
    e = GrassmannElement.generator(2, 1) + Fraction(2, 3)
    for value in (q, _canonical(q), Scalar(q, k)):
        want_e = GrassmannElement.scalar(2, value)
        got_e = e._coerce(value)
        assert_stored_form(got_e)
        assert (got_e.generator_count, got_e.den, got_e.nums) \
            == (2, want_e.den, want_e.nums)
        assert hash(got_e) == hash(want_e)
        assert e * value == e * want_e and value * e == want_e * e
        assert e + value == e + want_e and value - e == want_e - e
        want = SuperFunction.constant(shape, value)
        got = f._coerce(value)
        assert got.coeffs.keys() == want.coeffs.keys()
        for mask, poly in got.coeffs.items():
            assert_stored_form(poly)
            assert_stored_alike(poly, want.coeffs[mask])
        assert_stored_alike(p._coerce(value), Polynomial.constant(m, value))
        assert f * value == f * want and value * f == want * f
        assert f + value == f + want and value - f == want - f
        assert p * value == p * want.body_polynomial()
        assert p + value == p + want.body_polynomial()


# -- mixed operands ---------------------------------------------------------
#
# ``+``, ``-`` and ``*`` are written once on ``grassmann._Exact``; an
# operand a class cannot take is NotImplemented there, and Python's
# reflected-operator rule decides the pair.  The grid pins, for every
# ordered pair of the operands below, the type of ``a op b`` (the same for
# all three operators) or the error it raises; the value must be what the
# operation gives on both operands lifted to that type by the public
# constructors.

_R = SuperDomainShape
_P1 = Polynomial(1, {(1,): 2, (-1,): Scalar(Fraction(1, 2), -1)})
_P2 = Polynomial(2, {(1, 2): Fraction(1, 3), (0, 0): 1})
_MIXED = {
    "int": 3,
    "Fraction": Fraction(-2, 3),
    "float": 0.5,
    "Scalar": Scalar(Fraction(3, 2), 1),
    "P1": _P1,
    "P2": _P2,
    "G2": GrassmannElement(2, {(0,): 1, (0, 1): Fraction(1, 2), (): 2}),
    "G3": GrassmannElement(3, {(1,): 1, (0, 2): Scalar(1, 1)}),
    "F11": SuperFunction(_R(1, (REALLINE,), 1),
                         {(): _P1, (0,): Polynomial(1, {(2,): -1})}),
    "F02": SuperFunction(_R(0, (), 2), {(0,): 1, (0, 1): Fraction(1, 2)}),
    "F21": SuperFunction(_R(2, (REALLINE, REALLINE), 1),
                         {(0,): _P2, (): Polynomial(2, {(1, 0): 1})}),
}
# rows are the left operand, columns the right one, in _MIXED's order; a
# cell names the operand whose type and count the result has, or the error
_MIXED_GRID = """
int      int      Fraction float Scalar P1   P2   G2   G3   F11  F02  F21
Fraction Fraction Fraction float Scalar P1   P2   G2   G3   F11  F02  F21
float    float    float    float Type   Type Type Type Type Type Type Type
Scalar   Scalar   Scalar   Type  Scalar P1   P2   G2   G3   F11  F02  F21
P1       P1       P1       Type  P1     P1   Dim  Type Type F11  Dim  Dim
P2       P2       P2       Type  P2     Dim  P2   Type Type Dim  Dim  F21
G2       G2       G2       Type  G2     Type Type G2   Dim  Type Type Type
G3       G3       G3       Type  G3     Type Type Dim  G3   Type Type Type
F11      F11      F11      Type  F11    F11  Dim  Type Type F11  Dim  Dim
F02      F02      F02      Type  F02    Dim  Dim  Type Type Dim  F02  Dim
F21      F21      F21      Type  F21    Dim  F21  Type Type Dim  Dim  F21
"""
_ERRORS = {"Type": TypeError, "Dim": DimensionError}


def _lift(value, like):
    """value as an operand of the type and count of ``like``, built by the
    public constructors (a plain number by its type)."""
    if type(value) is type(like):
        return value
    if isinstance(like, (int, Fraction, float, Scalar)):
        return type(like)(value)
    if isinstance(like, Polynomial):
        return Polynomial(like.nvars, {(0,) * like.nvars: value})
    if isinstance(like, GrassmannElement):
        return GrassmannElement(like.generator_count, {(): value})
    shape = like.shape
    if not isinstance(value, Polynomial):
        value = Polynomial(shape.m, {(0,) * shape.m: value})
    return SuperFunction(shape, {(): value})


def _stored_or_value(x):
    return (x._count, x.den, x.nums) if hasattr(x, "nums") else x


def _mixed_cases():
    names = list(_MIXED)
    for row in _MIXED_GRID.strip().splitlines():
        left, *cells = row.split()
        assert len(cells) == len(names)
        for right, cell in zip(names, cells):
            for op in "+-*":
                yield left, op, right, cell


@pytest.mark.parametrize("left, op, right, cell", list(_mixed_cases()))
def test_mixed_operands_follow_the_reflected_operator_rule(left, op, right, cell):
    apply = {"+": add, "-": sub, "*": mul}[op]
    a, b = _MIXED[left], _MIXED[right]
    if cell in _ERRORS:
        with pytest.raises(_ERRORS[cell]):
            apply(a, b)
        return
    got, like = apply(a, b), _MIXED[cell]
    assert type(got) is type(like)
    want = apply(_lift(a, like), _lift(b, like))
    assert _stored_or_value(got) == _stored_or_value(want)


def test_a_difference_is_the_sum_with_the_negation():
    # Polynomial - SuperFunction included: it goes to SuperFunction.__rsub__
    for p, f in (("P1", "F11"), ("P2", "F21")):
        p, f = _MIXED[p], _MIXED[f]
        for diff, total in ((p - f, p + (-f)), (f - p, f + (-p))):
            assert type(diff) is type(total) is SuperFunction
            assert _stored_or_value(diff) == _stored_or_value(total)


# -- the flat stored form against the sector oracle ---------------------------
#
# A SuperFunction stores one numerator dict over one denominator, keyed
# (mask, e_1, ..., e_m, k).  Before that it kept a dict of Polynomial
# sectors, each over its own denominator; ``_SectorSF`` keeps that sector
# arithmetic, written with public Polynomial operations, as the reference of
# the flat form, as ``_DictScalar`` is for ``Scalar``.  Its signs come from
# index tuples (``_crossings``), not from ``_odd_swaps``.


def _bits(mask):
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


class _SectorSF:
    def __init__(self, shape, sectors):
        self.shape = shape
        self.sectors = {mask: p for mask, p in sectors.items() if p}

    @staticmethod
    def of(shape, data):
        """The oracle of ``SuperFunction(shape, data)``, data {idx: Polynomial}."""
        return _SectorSF(shape, {sum(1 << i for i in idx): p for idx, p in data.items()})

    def __add__(self, other):
        out = dict(self.sectors)
        for mask, p in other.sectors.items():
            out[mask] = out[mask] + p if mask in out else p
        return _SectorSF(self.shape, out)

    def __neg__(self):
        return _SectorSF(self.shape, {mask: -p for mask, p in self.sectors.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for ma, pa in self.sectors.items():
            for mb, pb in other.sectors.items():
                if ma & mb:
                    continue
                term = pa * pb
                if _crossings(_bits(ma), _bits(mb)) % 2:
                    term = -term
                out[ma | mb] = out[ma | mb] + term if ma | mb in out else term
        return _SectorSF(self.shape, out)

    def derive_even(self, i):
        return _SectorSF(self.shape, {mask: p.derive(i) for mask, p in self.sectors.items()})

    def derive_odd(self, j):
        bit = 1 << j
        return _SectorSF(self.shape, {
            mask ^ bit: -p if len(_bits(mask & (bit - 1))) % 2 else p
            for mask, p in self.sectors.items() if mask & bit})

    def embed(self, shape, even_offset, odd_offset):
        left = (0,) * even_offset
        right = (0,) * (shape.m - even_offset - self.shape.m)
        return _SectorSF(shape, {
            mask << odd_offset: Polynomial(shape.m, [
                (left + exps[:-1] + right, Scalar(c, exps[-1]))
                for exps, c in p.terms.items()])
            for mask, p in self.sectors.items()})

    def inv_even(self):
        m = self.shape.m
        binv = self.sectors.get(0, Polynomial.zero(m)).monomial_inverse()
        acc = power = _SectorSF(self.shape, {0: binv})
        factor = _SectorSF(self.shape, {mask: p * -binv
                                        for mask, p in self.sectors.items() if mask})
        for _ in range(self.shape.n // 2):
            power = power * factor
            if not power.sectors:
                break
            acc = acc + power
        return acc

    def __str__(self):
        parts = []
        for mask in sorted(self.sectors, key=lambda mask: (len(_bits(mask)), _bits(mask))):
            poly = self.sectors[mask]
            mono = " ".join(f"xi{j + 1}" for j in _bits(mask))
            p = str(poly)
            if not mono:
                parts.append(p)
            elif len(poly.nums) > 1:
                parts.append(f"({p}) {mono}")
            else:
                parts.append(mono if p == "1" else f"{p} {mono}")
        return " + ".join(parts) or "0"


def _sector_pullback(evens, odds, src, f):
    """phi^*(f) for phi given by oracle components, one term of f at a time;
    a negative power takes the component's ``inv_even``."""
    one = _SectorSF(src, {0: Polynomial.one(src.m)})
    total = _SectorSF(src, {})
    for mask, poly in f.sectors.items():
        odd_factor = one
        for j in _bits(mask):
            odd_factor = odd_factor * odds[j]
        for exps, c in poly.terms.items():
            term = _SectorSF(src, {0: Polynomial.constant(src.m, Scalar(c, exps[-1]))})
            for i, e in enumerate(exps[:-1]):
                base = evens[i] if e > 0 else evens[i].inv_even()
                for _ in range(abs(e)):
                    term = term * base
            total = total + term * odd_factor
    return total


def assert_flat_stored(f):
    """f's one numerator dict over one denominator is canonical, each key
    one int that the layout splits into a mask of f's generators, m int
    exponents and a power of s, and builds again from them."""
    assert type(f.den) is int and f.den >= 1
    assert gcd(f.den, *f.nums.values()) == 1  # so zero has den 1
    layout = f.shape._key_layout
    for key, c in f.nums.items():
        assert type(c) is int and c != 0
        assert type(key) is int
        mask, exps, k = layout.split(key)
        assert len(exps) == f.shape.m
        assert all(type(e) is int for e in exps + (k,))
        assert 0 <= mask < 1 << f.shape.n
        assert layout.key(mask, exps, k) == key


def assert_matches_sectors(got, want):
    """The flat value equals the oracle's: same shape, each ``coeffs``
    sector stored as the oracle's Polynomial sector, same print."""
    assert got.shape == want.shape
    assert_flat_stored(got)
    assert got.coeffs.keys() == want.sectors.keys()
    for mask, poly in want.sectors.items():
        assert_stored_alike(got.coeffs[mask], poly)
    assert str(got) == str(want)


_ORACLE_COEFFS = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3),
                                  Fraction(3, 4), Fraction(5, 6)])


@st.composite
def _small_shapes(draw):
    m, n = draw(st.integers(0, 3)), draw(st.integers(0, 4))
    return SuperDomainShape(m, (REALLINE,) * m, n)


@st.composite
def _sector_data(draw, shape, sizes=None, max_sectors=3, max_terms=2, lowest=-1):
    """{idx: Polynomial} over ``shape``: Laurent exponents from ``lowest`` to
    2, Fraction coefficients and powers of s from -1 to 1; ``sizes`` limits
    the odd degrees."""
    indices = [c for size in range(shape.n + 1) if sizes is None or size in sizes
               for c in combinations(range(shape.n), size)]
    data = {}
    if not indices:
        return data
    for _ in range(draw(st.integers(0, max_sectors))):
        terms = {}
        for _ in range(draw(st.integers(1, max_terms))):
            exps = tuple(draw(st.integers(lowest, 2)) for _ in range(shape.m))
            terms[exps] = Scalar(draw(_ORACLE_COEFFS), draw(st.integers(-1, 1)))
        data[draw(st.sampled_from(indices))] = Polynomial(shape.m, terms)
    return data


def _unit_body(draw, shape):
    """A one-term body c s^k x^e with e 0 or one variable to the power +-1:
    an invertible value."""
    exps = [0] * shape.m
    if shape.m and draw(st.booleans()):
        exps[draw(st.integers(0, shape.m - 1))] = draw(st.sampled_from([-1, 1]))
    return Polynomial(shape.m, {tuple(exps): Scalar(draw(_ORACLE_COEFFS),
                                                    draw(st.integers(-1, 1)))})


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_flat_arithmetic_matches_the_sector_oracle(data):
    shape = data.draw(_small_shapes())
    m, n = shape.m, shape.n
    fd, gd, bd = (data.draw(_sector_data(shape)) for _ in range(3))
    pair_data = data.draw(st.lists(st.tuples(_sector_data(shape), _sector_data(shape)),
                                   max_size=3))
    f, g, base = (SuperFunction(shape, d) for d in (fd, gd, bd))
    F, G, B = (_SectorSF.of(shape, d) for d in (fd, gd, bd))
    pairs = [(SuperFunction(shape, a), SuperFunction(shape, b)) for a, b in pair_data]
    oracle_sum = B
    for a, b in pair_data:
        oracle_sum = oracle_sum + _SectorSF.of(shape, a) * _SectorSF.of(shape, b)
    cases = [(f, F), (f * g, F * G), (g * f, G * F), (f + g, F + G), (f - g, F - G),
             (-f, -F), (f - f, F - F), (f * g * f, F * G * F),
             (fused_sum(base, pairs), oracle_sum),
             (fused_sum(base - base, [(-a, b) for a, b in pairs]), B - oracle_sum)]
    cases += [(f.derive_even(i), F.derive_even(i)) for i in range(m)]
    cases += [(f.derive_odd(j), F.derive_odd(j)) for j in range(n)]
    wider = SuperDomainShape(m + 1, (REALLINE,) * (m + 1), n + 2)
    even_offset, odd_offset = data.draw(st.integers(0, 1)), data.draw(st.integers(0, 2))
    cases.append((f.embed(wider, even_offset, odd_offset),
                  F.embed(wider, even_offset, odd_offset)))
    # an even function with an invertible body, Laurent and with powers of s
    hd = data.draw(_sector_data(shape, sizes={2, 4}))
    hd[()] = _unit_body(data.draw, shape)
    h = SuperFunction(shape, hd)
    cases.append((h.inv_even(), _SectorSF.of(shape, hd).inv_even()))
    for got, want in cases:
        assert_matches_sectors(got, want)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_flat_pullback_matches_the_sector_oracle(data):
    target, src = data.draw(_small_shapes()), data.draw(_small_shapes())
    # even components: an invertible body and an even nilpotent soul; odd
    # components: odd sectors of degree 1 and 3
    even_data = []
    for _ in range(target.m):
        d = data.draw(_sector_data(src, sizes={2, 4}, max_sectors=2, lowest=0))
        d[()] = _unit_body(data.draw, src)
        even_data.append(d)
    odd_data = [data.draw(_sector_data(src, sizes={1, 3}, max_sectors=2, lowest=0))
                for _ in range(target.n)]
    phi = SuperMorphism(src, target, [SuperFunction(src, d) for d in even_data],
                        [SuperFunction(src, d) for d in odd_data])
    fd = data.draw(_sector_data(target))
    want = _sector_pullback([_SectorSF.of(src, d) for d in even_data],
                            [_SectorSF.of(src, d) for d in odd_data], src,
                            _SectorSF.of(target, fd))
    assert_matches_sectors(pullback(phi, SuperFunction(target, fd)), want)



# -- named constructors and suite draws against the public constructor ----
#
# The named constructors check their arguments and build the value in
# stored form.  Here they are written as the public constructor calls they
# replace; both must give the same stored form, or the same error class
# and message.


def _public_constant(nvars, value):
    return Polynomial(nvars, {(0,) * nvars: value})


def _public_variable(nvars, i, power=1):
    if not 0 <= i < nvars:
        raise DimensionError("variable index out of range")
    exps = tuple(power if k == i else 0 for k in range(nvars))
    return Polynomial(nvars, {exps: 1})


def _public_odd_gen(shape, j):
    if not 0 <= j < shape.n:
        raise DimensionError("odd generator index out of range")
    return SuperFunction(shape, {(j,): _public_constant(shape.m, 1)})


PUBLIC_NAMED = {
    (Polynomial, "zero"): lambda nvars: Polynomial(nvars),
    (Polynomial, "one"): lambda nvars: _public_constant(nvars, 1),
    (Polynomial, "constant"): _public_constant,
    (Polynomial, "variable"): _public_variable,
    (SuperFunction, "zero"): lambda shape: SuperFunction(shape),
    (SuperFunction, "one"):
        lambda shape: SuperFunction(shape, {(): _public_constant(shape.m, 1)}),
    (SuperFunction, "constant"): lambda shape, value: SuperFunction(
        shape, {(): _public_constant(shape.m, value)}),
    (SuperFunction, "coordinate"): lambda shape, i, power=1: SuperFunction(
        shape, {(): _public_variable(shape.m, i, power)}),
    (SuperFunction, "odd_gen"): _public_odd_gen,
    (SuperFunction, "from_polynomial"):
        lambda shape, poly: SuperFunction(shape, {(): poly}),
}


def _built(fn, *args):
    """The stored form of fn(*args) with its order, or the error it raises."""
    try:
        value = fn(*args)
    except Exception as exc:  # noqa: BLE001 - the error is the result
        return type(exc), str(exc)
    return type(value), value._count, value.den, list(value.nums.items())


_odd_values = st.sampled_from([0.5, 1.0, -2.0, "1", None, 1j, Polynomial.one(1)])
_exact_values = st.one_of(
    st.integers(-4, 4), st.booleans(), st.fractions(-3, 3, max_denominator=5),
    st.builds(Scalar, st.fractions(-3, 3, max_denominator=5), st.integers(-2, 2)),
    st.builds(lambda a, b: Scalar(a, 1) + Scalar(b, -1),
              st.fractions(-3, 3, max_denominator=5), st.integers(-3, 3)))
_values = st.one_of(_exact_values, _odd_values)
_counts = st.one_of(st.integers(-2, 3), st.sampled_from([1.5, -1.5, "2", None, True]))
_indices = st.one_of(st.integers(-2, 4), st.sampled_from([0.5, 1.0, "0", True]))
_powers = st.one_of(st.integers(-3, 3),
                    st.sampled_from([0.5, 2.0, Fraction(1, 2), Fraction(2), "1", True]))
_shapes = st.builds(lambda m, n: SuperDomainShape(m, (REALLINE,) * m, n),
                    st.integers(0, 3), st.integers(0, 3))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_named_constructors_match_the_public_constructor(data):
    shape = data.draw(_shapes)
    nvars = data.draw(_counts)
    poly = data.draw(st.one_of(
        st.builds(lambda m, c: Polynomial(m, {(1,) * m: c}),
                  st.integers(0, 3), st.fractions(-3, 3, max_denominator=5)),
        _values))
    cases = [
        (Polynomial, "zero", (nvars,)),
        (Polynomial, "one", (nvars,)),
        (Polynomial, "constant", (nvars, data.draw(_values))),
        (Polynomial, "variable", (nvars, data.draw(_indices), data.draw(_powers))),
        (Polynomial, "variable", (data.draw(_counts), data.draw(_indices))),
        (SuperFunction, "zero", (shape,)),
        (SuperFunction, "one", (shape,)),
        (SuperFunction, "constant", (shape, data.draw(_values))),
        (SuperFunction, "coordinate",
         (shape, data.draw(_indices), data.draw(_powers))),
        (SuperFunction, "coordinate", (shape, data.draw(_indices))),
        (SuperFunction, "odd_gen", (shape, data.draw(_indices))),
        (SuperFunction, "from_polynomial", (shape, poly)),
    ]
    for cls, name, args in cases:
        got = _built(getattr(cls, name), *args)
        want = _built(PUBLIC_NAMED[(cls, name)], *args)
        assert got == want, (cls.__name__, name, args)


def test_named_constructors_keep_their_argument_checks():
    shape = SuperDomainShape(1, (REALLINE,), 1)
    bad = [
        (lambda: SuperFunction.coordinate(shape, 1), DimensionError,
         "variable index out of range"),
        (lambda: Polynomial.variable(2, 0, 0.5), TypeError,
         "exponents must be integers"),
        (lambda: Polynomial.constant(-1, 1), DimensionError,
         "generator count must be nonnegative"),
        (lambda: Polynomial.constant(1, 0.5), TypeError,
         "cannot interpret 0.5 as a Scalar"),
        (lambda: SuperFunction.constant(shape, 0.5), TypeError,
         "cannot interpret 0.5 as a Scalar"),
        (lambda: SuperFunction.odd_gen(shape, 1), DimensionError,
         "odd generator index out of range"),
        (lambda: SuperFunction.from_polynomial(shape, Polynomial.one(2)),
         DimensionError, "coefficient polynomial has wrong arity"),
    ]
    for build, error, message in bad:
        with pytest.raises(error) as info:
            build()
        assert str(info.value) == message


# The suite draws build their values straight in stored form.  These are
# the draws written with the public constructors, as the reference: the
# same generator state must give the same stored form and leave the
# generator in the same state.


def _public_random_polynomial(rng, m, max_deg=2, max_terms=2):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_deg) for _ in range(m))
        coeff = rng.randint(-3, 3)
        terms[exps] = terms.get(exps, 0) + coeff
    return Polynomial(m, terms)


def _public_random_superfunction(rng, shape, max_terms=4, max_deg=2):
    n = shape.n
    coeffs = {}
    for _ in range(rng.randint(1, max_terms)):
        size = rng.randint(0, n)
        idx = tuple(sorted(rng.sample(range(n), size)))
        poly = _public_random_polynomial(rng, shape.m, max_deg)
        coeffs[idx] = coeffs[idx] + poly if idx in coeffs else poly
    return SuperFunction(shape, coeffs)


def _public_gaussian_factor_density(rng, shape):
    top = Polynomial(shape.m, {
        tuple(2 * rng.randint(0, 2) for _ in range(shape.m)):
        rng.randint(1, 3)})
    density = SuperFunction(shape, {tuple(range(shape.n)): top})
    extra = _public_random_superfunction(rng, shape, max_terms=3)
    return density + extra.soul() if shape.n else density


def _public_random_group_function(rng, shape):
    f = _public_random_superfunction(rng, shape, max_terms=5, max_deg=3)
    top = tuple(range(shape.n))
    poly = _public_random_polynomial(rng, shape.m, max_deg=3, max_terms=2) \
        + Polynomial.constant(shape.m, rng.randint(1, 3))
    return f + SuperFunction(shape, {top: poly})


_DRAW_SHAPES = [SuperDomainShape(m, (REALLINE,) * m, n)
                for m in range(4) for n in range(4)]

_DRAWS = {
    "random_polynomial": (
        lambda rng, k: suites.random_polynomial(rng, k % 4, k % 3 + 1, k % 5 + 1),
        lambda rng, k: _public_random_polynomial(rng, k % 4, k % 3 + 1, k % 5 + 1)),
    "random_superfunction": (
        lambda rng, k: suites.random_superfunction(
            rng, _DRAW_SHAPES[k % 16], k % 6 + 1, k % 3 + 1),
        lambda rng, k: _public_random_superfunction(
            rng, _DRAW_SHAPES[k % 16], k % 6 + 1, k % 3 + 1)),
    "_gaussian_factor_density": (
        lambda rng, k: suites._gaussian_factor_density(rng, _DRAW_SHAPES[k % 16]),
        lambda rng, k: _public_gaussian_factor_density(rng, _DRAW_SHAPES[k % 16])),
    "_random_group_function": (
        lambda rng, k: suites._random_group_function(rng, _DRAW_SHAPES[k % 16]),
        lambda rng, k: _public_random_group_function(rng, _DRAW_SHAPES[k % 16])),
}


@pytest.mark.parametrize("name", sorted(_DRAWS))
def test_suite_draws_match_the_public_constructors(name):
    draw, public = _DRAWS[name]
    for seed in range(200):
        rng, twin = random.Random(seed), random.Random(seed)
        for k in range(seed % 3 + 1):
            got, want = draw(rng, seed + k), public(twin, seed + k)
            # the key order too: integration raises on the first failing
            # term, and products and pullbacks carry the order through
            assert (type(got), got._count, got.den, list(got.nums.items())) \
                == (type(want), want._count, want.den,
                    list(want.nums.items())), (seed, k)
        assert rng.getstate() == twin.getstate(), seed


# The polynomial and superfunction draws go through suites._randint, which
# reads getrandbits as CPython 3.10 to 3.12's randint and randrange do, and
# the element draws (suites._drawn_block) read it with the same rule
# inline, a choice from a sequence being the item at randint(0, len - 1);
# the rest of a suite calls the same random.Random's own methods, so both
# must read one stream.  Every call shape the suites use, against
# random.Random itself: a CPython that draws otherwise fails here by name,
# before a seeded suite changes.

_TUPLES = [tuple(range(10 * size, 11 * size)) for size in range(2, 17)]

_STREAM_SHAPES = {
    "randint(1, k)": (lambda rng, i: rng.randint(1, i % 8 + 1),
                      lambda bits, i: suites._randint(bits, 1, i % 8 + 1)),
    "randint(-3, 3)": (lambda rng, i: rng.randint(-3, 3),
                       lambda bits, i: suites._randint(bits, -3, 3)),
    "randint(0, n)": (lambda rng, i: rng.randint(0, i % 9),
                      lambda bits, i: suites._randint(bits, 0, i % 9)),
    "choice": (lambda rng, i: rng.choice(_TUPLES[i % 15]),
               lambda bits, i: _TUPLES[i % 15][
                   suites._randint(bits, 0, len(_TUPLES[i % 15]) - 1)]),
    "randrange(m)": (lambda rng, i: rng.randrange(i % 4 + 1),
                     lambda bits, i: suites._randint(bits, 0, i % 4)),
}


@pytest.mark.parametrize("shape", sorted(_STREAM_SHAPES))
def test_suite_draws_read_the_stream_of_random_random(shape):
    public, drawn = _STREAM_SHAPES[shape]
    for seed in range(10):
        rng, twin = random.Random(seed), random.Random(seed)
        bits = twin.getrandbits
        assert [public(rng, i) for i in range(10_000)] == \
            [drawn(bits, i) for i in range(10_000)], seed
        assert rng.getstate() == twin.getstate(), seed


# An empty range raises as random.Random does, before any draw, and the
# public draws that reach one (no odd monomial of the asked parity, or no
# term allowed) raise instead of redrawing for ever; the element draws
# raise at the point of the stream where the public draws do
# (tests/test_supermatrix.py).

@pytest.mark.parametrize("public, drawn", [
    (lambda rng: rng.randint(1, 0), lambda bits: suites._randint(bits, 1, 0)),
    (lambda rng: rng.randint(3, -3), lambda bits: suites._randint(bits, 3, -3)),
], ids=["randint(1, 0)", "randint(3, -3)"])
def test_suite_draws_refuse_an_empty_range_as_random_random(public, drawn):
    rng, twin = random.Random(0), random.Random(0)
    with pytest.raises((ValueError, IndexError)) as want:
        public(rng)
    with pytest.raises(want.type):
        drawn(twin.getrandbits)
    assert rng.getstate() == twin.getstate()


@pytest.mark.parametrize("draw, error", [
    (lambda rng: suites.random_even_supermatrix(rng, 1, 1, 0), IndexError),
    (lambda rng: suites.random_grassmann(rng, 0, ODD), IndexError),
    (lambda rng: suites.random_grassmann(rng, 2, max_terms=0), ValueError),
    (lambda rng: suites.random_polynomial(rng, 1, max_terms=0), ValueError),
    (lambda rng: suites.random_superfunction(rng, R12, max_terms=0),
     ValueError),
], ids=["supermatrix-n0", "grassmann-odd-n0", "grassmann-no-terms",
        "polynomial-no-terms", "superfunction-no-terms"])
def test_public_draws_raise_on_an_empty_range(draw, error):
    with pytest.raises(error):
        draw(random.Random(0))
