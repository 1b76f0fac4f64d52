"""Berezin sections, exact integration backends, fibre integration.

Expected values are frozen by hand before the implementation: Berezin
integrals extract the top odd coefficient, even integrals come from the
Gaussian moment table (odd moments zero, even moment k is (k-1)!! s with
s = sqrt(2 pi)) or from rational antiderivatives on boxes.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from superberezin import (
    GAUSSIAN,
    BerezinSection,
    DimensionError,
    DomainBoxError,
    IntegrationBackend,
    Interval,
    NonInvertibleError,
    NonIntegrableError,
    OrientationError,
    Polynomial,
    POSITIVE,
    REALLINE,
    Scalar,
    SuperDomainShape,
    SuperFunction,
    SuperMorphism,
    box_backend,
    fibre_integrate_section,
    function_times_section,
    integrate,
    product_section,
    pullback_section,
    shape_product,
)
from superberezin.errors import SuperBerezinError
from superberezin.grassmann import ODD, _indices
from superberezin.linalg import det as rational_det
from superberezin.suites import _pushed_forward
from superberezin.superdomain import box_samples, jacobian, pullback

BOX01 = SuperDomainShape(1, (Interval(0, 1),), 0)
LINE = SuperDomainShape(1, (REALLINE,), 0)


def gauss_shape(m: int, n: int) -> SuperDomainShape:
    return SuperDomainShape(m, (REALLINE,) * m, n)


# ---------------------------------------------------------------------------
# integrate


def test_pure_berezin_integral():
    # D(xi) (3 + 5 xi) -> 5
    shape = SuperDomainShape(0, (), 1)
    rho = SuperFunction(shape, {(): Polynomial.constant(0, 3),
                                (0,): Polynomial.constant(0, 5)})
    omega = BerezinSection.make(shape, rho)
    assert integrate(omega, box_backend()) == Scalar(5)
    # the backend is idle for m = 0, so gaussian agrees
    assert integrate(omega, GAUSSIAN) == Scalar(5)


def test_gaussian_one_one_with_sign():
    # D(x, xi) (xi x^2) -> (-1)^{1*1} * s = -s
    shape = gauss_shape(1, 1)
    rho = SuperFunction(shape, {(0,): Polynomial.variable(1, 0, 2)})
    omega = BerezinSection.make(shape, rho)
    assert integrate(omega, GAUSSIAN) == Scalar(-1, 1)


def test_box_classical_integral():
    # D(x) x on [0,1] -> 1/2
    omega = BerezinSection.make(BOX01, SuperFunction.coordinate(BOX01, 0))
    assert integrate(omega, box_backend()) == Scalar(Fraction(1, 2))


def test_gaussian_moments_table():
    # moment 0 -> s, odd moments -> 0, moment 4 -> 3 s
    for power, expected in [(0, Scalar(1, 1)), (1, Scalar(0)),
                            (3, Scalar(0)), (4, Scalar(3, 1))]:
        omega = BerezinSection.make(
            LINE, SuperFunction.coordinate(LINE, 0, power) if power
            else SuperFunction.one(LINE))
        assert integrate(omega, GAUSSIAN) == expected


def test_gaussian_two_two():
    # D(x1,x2,xi1,xi2) (x1^2 x2^4 xi1 xi2) -> (+1) * s * 3s = 3 s^2
    shape = gauss_shape(2, 2)
    poly = Polynomial(2, {(2, 4): Scalar.one()})
    rho = SuperFunction(shape, {(0, 1): poly})
    assert integrate(BerezinSection.make(shape, rho), GAUSSIAN) == Scalar(3, 2)


def test_zero_top_coefficient_vanishes():
    shape = gauss_shape(1, 1)
    omega = BerezinSection.make(shape, SuperFunction.coordinate(shape, 0))
    assert integrate(omega, GAUSSIAN) == Scalar(0)


def test_laurent_box_integral():
    # D(x) x^{-2} on [1,2] -> 1/2
    shape = SuperDomainShape(1, (Interval(1, 2),), 0)
    omega = BerezinSection.make(shape, SuperFunction.coordinate(shape, 0, -2))
    assert integrate(omega, box_backend()) == Scalar(Fraction(1, 2))
    # same on a positive half-line axis with an explicit box
    half = SuperDomainShape(1, (POSITIVE,), 0)
    omega2 = BerezinSection.make(half, SuperFunction.coordinate(half, 0, -2))
    assert integrate(omega2, box_backend((1, 2))) == Scalar(Fraction(1, 2))


def test_non_integrable_cases():
    shape = SuperDomainShape(1, (Interval(1, 2),), 0)
    log_case = BerezinSection.make(shape, SuperFunction.coordinate(shape, 0, -1))
    with pytest.raises(NonIntegrableError):
        integrate(log_case, box_backend())
    straddle = SuperDomainShape(1, (Interval(-1, 1),), 0)
    pole = BerezinSection.make(straddle, SuperFunction.coordinate(straddle, 0, -2))
    with pytest.raises(NonIntegrableError):
        integrate(pole, box_backend())
    with pytest.raises(NonIntegrableError):
        integrate(BerezinSection.make(LINE, SuperFunction.coordinate(LINE, 0, -2)),
                  GAUSSIAN)


def test_a_zero_moment_ends_a_term_before_a_moment_that_cannot_be_taken():
    # the axes are integrated in order: x1 has a zero moment, so x2^-1 is
    # never reached; x1^2 x2^-1 reaches it and raises
    box = SuperDomainShape(2, (Interval(-1, 1), Interval(1, 2)), 0)
    odd_times_log = Polynomial(2, {(1, -1): 1, (0, 0): Fraction(1, 2)})
    assert integrate(BerezinSection.make(box, odd_times_log),
                     box_backend()) == Scalar(1)
    line = gauss_shape(2, 0)
    odd_times_pole = Polynomial(2, {(1, -2): 1, (2, 0): 3})
    assert integrate(BerezinSection.make(line, odd_times_pole),
                     GAUSSIAN) == Scalar(3, 2)
    with pytest.raises(NonIntegrableError, match="exponent -1"):
        integrate(BerezinSection.make(box, Polynomial(2, {(2, -1): 1})),
                  box_backend())
    with pytest.raises(NonIntegrableError, match="negative exponent -2"):
        integrate(BerezinSection.make(line, Polynomial(2, {(2, -2): 1})),
                  GAUSSIAN)


def _term_by_term_integral(poly, box):
    """The box integral as the backend once took it: each term's Fraction
    value from the moments of its own exponents, one Scalar per term."""
    total = Scalar.zero()
    for exps, coeff in poly.terms.items():
        for iv, e in zip(box, exps):
            coeff *= Fraction(iv.hi ** (e + 1) - iv.lo ** (e + 1), e + 1)
        total = total + Scalar(coeff, exps[-1])
    return total


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                          st.sampled_from([1, -2, Fraction(1, 2),
                                           Fraction(-2, 3), Fraction(3, 4)]),
                          st.integers(-1, 1)), max_size=6),
       st.sampled_from([(Fraction(1, 2), 2), (1, Fraction(7, 3))]),
       st.sampled_from([(-3, Fraction(-1, 3)), (Fraction(2, 5), 1)]))
def test_box_integral_matches_the_term_by_term_integral(terms, first, second):
    # exponents avoid -1 and the axes avoid 0, so every moment exists
    poly = Polynomial(2, [(exps, Scalar(c, k)) for exps, c, k in terms
                          if -1 not in exps])
    box = (Interval(*first), Interval(*second))
    shape = SuperDomainShape(2, box, 0)
    got = integrate(BerezinSection.make(shape, poly), box_backend())
    assert got == _term_by_term_integral(poly, box)
    # the same box given explicitly over whole lines, place by place
    lines = SuperDomainShape(2, (REALLINE, REALLINE), 0)
    assert integrate(BerezinSection.make(lines, poly),
                     box_backend(*box)) == got
    for coeff in got.terms.values():
        assert type(coeff) is int or coeff.denominator > 1


def test_backend_axis_mismatches():
    # gaussian needs whole-line axes; the box backend needs bounded ones
    boxed = BerezinSection.make(BOX01, SuperFunction.one(BOX01))
    with pytest.raises(DomainBoxError,
                       match="^gaussian backend needs whole-line axes, "
                       "axis 0 is 0:1$"):
        integrate(boxed, GAUSSIAN)
    unbounded = BerezinSection.make(LINE, SuperFunction.one(LINE))
    with pytest.raises(DomainBoxError,
                       match="^axis 0 is unbounded; pass an explicit box$"):
        integrate(unbounded, box_backend())
    # explicit box must have the domain's length and sit inside the axes
    with pytest.raises(DomainBoxError, match="^box has 2 axes, domain has 1$"):
        integrate(boxed, box_backend((0, 1), (0, 1)))
    with pytest.raises(DomainBoxError,
                       match="^box axis 0 0:2 escapes the domain$"):
        integrate(boxed, box_backend((0, 2)))
    half = SuperDomainShape(1, (POSITIVE,), 0)
    with pytest.raises(DomainBoxError,
                       match="^box axis 0 -1:1 escapes the domain$"):
        integrate(BerezinSection.make(half, SuperFunction.one(half)),
                  box_backend((-1, 1)))
    # the length is checked before any axis, the axes in order
    two = SuperDomainShape(2, (Interval(0, 1), REALLINE), 0)
    with pytest.raises(DomainBoxError, match="^box has 1 axes, domain has 2$"):
        integrate(BerezinSection.make(two, 1), box_backend((0, 2)))
    with pytest.raises(DomainBoxError,
                       match="^box axis 0 0:2 escapes the domain$"):
        integrate(BerezinSection.make(two, 1), box_backend((0, 2), (5, 6)))
    with pytest.raises(DomainBoxError,
                       match="^gaussian backend needs whole-line axes, "
                       "axis 0 is 0:1$"):
        integrate(BerezinSection.make(two, 1), GAUSSIAN)


def test_integration_backend_called_directly_is_a_box_rule():
    # the constructor builds Lebesgue rules only: no box is the domain's
    # own axes, a box is the explicit one; the Gaussian rule is GAUSSIAN
    boxed = BerezinSection.make(BOX01, SuperFunction.coordinate(BOX01, 0))
    assert IntegrationBackend() == box_backend() != GAUSSIAN
    assert IntegrationBackend((Interval(0, 1),)) == box_backend((0, 1))
    assert integrate(boxed, IntegrationBackend()) == Scalar(Fraction(1, 2))
    assert integrate(boxed, IntegrationBackend((Interval(0, Fraction(1, 2)),))
                     ) == Scalar(Fraction(1, 8))


def test_integrate_is_linear():
    shape = gauss_shape(1, 2)
    rho1 = SuperFunction(shape, {(0, 1): Polynomial.variable(1, 0, 2)})
    rho2 = SuperFunction(shape, {(0, 1): Polynomial.one(1), (0,): Polynomial.one(1)})
    w1 = BerezinSection.make(shape, rho1)
    w2 = BerezinSection.make(shape, rho2)
    combo = BerezinSection.make(shape, 3 * rho1 - rho2)
    assert integrate(combo, GAUSSIAN) == \
        3 * integrate(w1, GAUSSIAN) - integrate(w2, GAUSSIAN)


# ---------------------------------------------------------------------------
# pullback_section


def test_pullback_identity():
    shape = SuperDomainShape(1, (Interval(0, 1),), 2)
    rho = SuperFunction(shape, {(0, 1): Polynomial.variable(1, 0)})
    omega = BerezinSection.make(shape, rho)
    back = pullback_section(SuperMorphism.identity(shape), omega)
    assert back.density == rho
    assert back.shape == shape


def test_pullback_classical_substitution():
    # x -> 2x from [0,1] onto [0,2]; density 1 becomes density 2
    source = SuperDomainShape(1, (Interval(0, 1),), 0)
    target = SuperDomainShape(1, (Interval(0, 2),), 0)
    phi = SuperMorphism(source, target,
                        [2 * SuperFunction.coordinate(source, 0)], [])
    omega = BerezinSection.make(target, SuperFunction.one(target))
    back = pullback_section(phi, omega)
    assert back.density == SuperFunction.constant(source, 2)
    assert integrate(back, box_backend()) == integrate(omega, box_backend())


def test_pullback_nilpotent_shear_preserves_integral():
    # (x, xi1, xi2) -> (x + xi1 xi2, xi1, xi2); boundary-vanishing body part
    shape = SuperDomainShape(1, (Interval(0, 1),), 2)
    x = SuperFunction.coordinate(shape, 0)
    xi1, xi2 = SuperFunction.odd_gen(shape, 0), SuperFunction.odd_gen(shape, 1)
    phi = SuperMorphism(shape, shape, [x + xi1 * xi2], [xi1, xi2])
    rho = (x * x * (1 - x) * (1 - x)) + x * xi1 * xi2
    omega = BerezinSection.make(shape, rho)
    back = pullback_section(phi, omega)
    deriv = Polynomial(1, {(1,): Scalar(2), (2,): Scalar(-6), (3,): Scalar(4)})
    assert back.density == rho + SuperFunction(shape, {(0, 1): deriv})
    assert integrate(back, box_backend()) == integrate(omega, box_backend())
    assert integrate(omega, box_backend()) == Scalar(Fraction(1, 2))


def test_pullback_rejects_orientation_reversal():
    source = SuperDomainShape(1, (Interval(0, 1),), 0)
    target = SuperDomainShape(1, (Interval(-1, 0),), 0)
    phi = SuperMorphism(source, target,
                        [-SuperFunction.coordinate(source, 0)], [])
    omega = BerezinSection.make(target, SuperFunction.one(target))
    with pytest.raises(OrientationError):
        pullback_section(phi, omega)


def test_pullback_rejects_escaping_body():
    source = SuperDomainShape(1, (Interval(0, 2),), 0)
    target = SuperDomainShape(1, (Interval(0, 1),), 0)
    phi = SuperMorphism(source, target,
                        [SuperFunction.coordinate(source, 0)], [])
    omega = BerezinSection.make(target, SuperFunction.one(target))
    with pytest.raises(DomainBoxError):
        pullback_section(phi, omega)


def test_pullback_rejects_degenerate_odd_block():
    shape = SuperDomainShape(0, (), 1)
    phi = SuperMorphism(shape, shape, [], [SuperFunction.zero(shape)])
    omega = BerezinSection.make(shape, SuperFunction.odd_gen(shape, 0))
    with pytest.raises(NonInvertibleError):
        pullback_section(phi, omega)


def test_pullback_odd_reflection_is_exact():
    # xi -> -xi has Berezinian -1; the transported integral still matches
    shape = SuperDomainShape(0, (), 1)
    phi = SuperMorphism(shape, shape, [], [-SuperFunction.odd_gen(shape, 0)])
    rho = SuperFunction(shape, {(): Polynomial.constant(0, 3),
                                (0,): Polynomial.constant(0, 5)})
    omega = BerezinSection.make(shape, rho)
    back = pullback_section(phi, omega)
    assert back.density == SuperFunction(
        shape, {(): Polynomial.constant(0, -3), (0,): Polynomial.constant(0, 5)})
    assert integrate(back, box_backend()) == integrate(omega, box_backend())


# -- pullback_section against the two walks it replaced ----------------------
#
# Before one sampled walk guarded every change of variables, pullback_section
# ran SuperMorphism.check_body_box, then jacobian, then a separate
# orientation walk.  Both are copied here as they were, in that order, as the
# reference: every draw must raise the same class with the same message, or
# give the same density and caveats.


def _reference_contains(axis, x) -> bool:
    """Membership of a rational in a half line or an interval, by Fraction
    comparisons, apart from the axis kinds' own int tests."""
    if axis is POSITIVE:
        return x > 0
    return axis.lo <= x <= axis.hi


def _reference_check_body_box(self) -> str:
    for pt in box_samples(self.source.box):
        for k, comp in enumerate(self.even_components):
            try:
                val = comp.evaluate_body(pt)
            except ZeroDivisionError:
                raise DomainBoxError(
                    f"body component {k} undefined at sample {pt}"
                )
            if self.target.box[k] is REALLINE:
                continue
            try:
                val = val.rational
            except ValueError:
                raise DomainBoxError(
                    f"body component {k} is {val} at sample {pt}: a power "
                    f"of s, not compared with target axis {k}") from None
            if not _reference_contains(self.target.box[k], val):
                raise DomainBoxError(
                    f"body image of sample {pt} escapes target axis {k}"
                )
    return "box containment sampled on a 3-per-axis grid"


def _reference_orientation_check(phi, jac) -> str:
    m, n = phi.target.m, phi.target.n
    a_block = jac.block("A") if m else []
    d_block = jac.block("D") if n else []
    for pt in box_samples(phi.source.box):
        try:
            if m:
                body = [[entry.evaluate_body(pt).rational for entry in row]
                        for row in a_block]
                value = rational_det(body)
                if value == 0:
                    raise NonInvertibleError(
                        f"body Jacobian singular at sample {pt}")
                if value < 0:
                    raise OrientationError(
                        f"body Jacobian not positive at sample {pt}")
            if n:
                body = [[entry.evaluate_body(pt).rational for entry in row]
                        for row in d_block]
                if rational_det(body) == 0:
                    raise NonInvertibleError(
                        f"odd Jacobian block degenerate at sample {pt}")
        except ZeroDivisionError:
            raise OrientationError(f"Jacobian body undefined at sample {pt}")
        except ValueError as exc:
            raise OrientationError(
                f"Jacobian body at sample {pt} not compared: {exc}") from None
    return "orientation sampled on the source grid"


def _reference_pullback_section(phi, omega):
    if phi.target != omega.shape:
        raise DimensionError("section does not live on the morphism target")
    box_note = _reference_check_body_box(phi)
    jac = jacobian(phi)
    caveats = omega.caveats + (box_note, _reference_orientation_check(phi, jac))
    density = jac.berezinian() * pullback(phi, omega.density)
    return BerezinSection(phi.source, density, caveats)


def _outcome(run, phi, omega):
    try:
        back = run(phi, omega)
    except SuperBerezinError as exc:
        return type(exc), str(exc)
    return back.density, back.caveats, str(back)


_small = st.sampled_from([-2, -1, 0, 1, 2, 3])
# intervals with 0 inside, at an end and outside, so that a pole of a
# Laurent body lands on a sample or misses the grid
_intervals = st.sampled_from([(0, 1), (-1, 1), (-1, 0), (1, 2),
                              (Fraction(1, 2), 3), (-3, -1)]).map(
    lambda ends: Interval(*ends))
_axes = st.one_of(st.just(REALLINE), st.just(POSITIVE), _intervals)


@st.composite
def _oriented_candidates(draw):
    """A morphism of (m|n) charts with per-axis affine or Laurent bodies
    (sign flips, s-scaled components, poles on the grid, nilpotent parts)
    and odd components whose odd block may be singular, zero or undefined
    on the grid, with a polynomial density on the target.  With m = 3 the
    grid has 27 points and the body Jacobian is 3 x 3."""
    m, n = draw(st.integers(0, 3)), draw(st.integers(0, 2))
    source = SuperDomainShape(m, tuple(draw(_axes) for _ in range(m)), n)
    # with three axes, drawn target axes rarely hold all 27 samples: half
    # the draws take whole-line targets, on which every defined body lands,
    # so that the Jacobian phase decides; m <= 2 always draws its targets
    whole = m == 3 and draw(st.booleans())
    target = SuperDomainShape(
        m, tuple(REALLINE if whole else draw(_axes) for _ in range(m)), n)
    xs = [SuperFunction.coordinate(source, i) for i in range(m)]
    xis = [SuperFunction.odd_gen(source, j) for j in range(n)]
    evens = []
    for i in range(m):
        if draw(st.booleans()):
            comp = draw(_small) * xs[i] + draw(_small)
        else:
            comp = SuperFunction.coordinate(source, i, draw(st.integers(-2, 2)))
            comp = draw(st.sampled_from([-1, 1, 2, Fraction(1, 2)])) * comp
        if m >= 2 and draw(st.booleans()):
            comp = comp + draw(_small) * xs[(i + 1) % m]
        if draw(st.booleans()):
            comp = Scalar(1, draw(st.sampled_from([-1, 1]))) * comp
        if n == 2 and draw(st.booleans()):
            comp = comp + draw(_small) * xis[0] * xis[1]
        evens.append(comp)
    odds = []
    for _ in range(n):
        comp = SuperFunction.zero(source)
        for xi in xis:
            coeff = draw(_small)
            if m and draw(st.booleans()):
                # x or 1/x: an odd block can have a pole where no body has
                coeff = coeff * SuperFunction.coordinate(
                    source, 0, draw(st.sampled_from([-1, 1])))
            comp = comp + coeff * xi
        odds.append(comp)
    density = SuperFunction.constant(target, draw(_small))
    for i in range(m):
        density = density + draw(_small) * SuperFunction.coordinate(target, i)
    if n:
        top = SuperFunction.one(target)
        for j in range(n):
            top = top * SuperFunction.odd_gen(target, j)
        density = density + draw(_small) * top
    phi = SuperMorphism(source, target, evens, odds)
    return phi, BerezinSection.make(target, density)


# 500 examples: about 300 with m <= 2, as many as before m = 3 was drawn
@settings(max_examples=500, deadline=None)
@given(_oriented_candidates())
def test_pullback_section_matches_the_two_walks(case):
    phi, omega = case
    assert _outcome(pullback_section, phi, omega) == \
        _outcome(_reference_pullback_section, phi, omega)


# ---------------------------------------------------------------------------
# products and the (*) sign


def _factor_sections():
    b = SuperDomainShape(0, (), 1)
    f = SuperDomainShape(0, (), 1)
    w1 = BerezinSection.make(
        b, SuperFunction(b, {(): Polynomial.one(0), (0,): Polynomial.constant(0, 2)}))
    w2 = BerezinSection.make(
        f, SuperFunction(f, {(): Polynomial.constant(0, 3),
                             (0,): Polynomial.constant(0, 5)}))
    return b, f, w1, w2


def test_product_section_odd_odd_signs():
    # D(xi)(1+2xi) x D(eta)(3+5eta): odd left parts pick up (-1)^{q}
    b, f, w1, w2 = _factor_sections()
    prod = product_section(w1, w2)
    expected = SuperFunction(
        shape_product(b, f),
        {(): Polynomial.constant(0, 3), (1,): Polynomial.constant(0, 5),
         (0,): Polynomial.constant(0, -6), (0, 1): Polynomial.constant(0, -10)})
    assert prod.density == expected
    assert str(prod).startswith("D(xi1, xi2) * (")
    # (*): integral = (-1)^{(m+n) q} * product of factor integrals
    assert integrate(prod, box_backend()) == Scalar(-10)
    assert integrate(w1, box_backend()) * integrate(w2, box_backend()) == Scalar(10)


def test_product_section_plain_when_no_sign():
    # n = 0 and q = 0: densities multiply with no sign
    b = SuperDomainShape(1, (Interval(0, 1),), 0)
    f = SuperDomainShape(0, (), 1)
    w1 = BerezinSection.make(b, SuperFunction.coordinate(b, 0))
    w2 = BerezinSection.make(
        f, SuperFunction(f, {(): Polynomial.constant(0, 3),
                             (0,): Polynomial.constant(0, 5)}))
    prod = product_section(w1, w2)
    x = SuperFunction.coordinate(prod.shape, 0)
    eta = SuperFunction.odd_gen(prod.shape, 0)
    assert prod.density == 3 * x + 5 * x * eta
    # sign check: (m+n) q = 1, so the product integral flips sign
    assert integrate(prod, box_backend()) == Scalar(Fraction(-5, 2))


def test_product_section_of_default_sections():
    # R^(1|1) x R^(0|1), both in their own coordinates: the product names
    # its coordinates from its shape, and the (*) sign holds
    b = SuperDomainShape(1, (Interval(0, 1),), 1)
    f = SuperDomainShape(0, (), 1)
    x = SuperFunction.coordinate(b, 0)
    w1 = BerezinSection.make(b, x + 2 * x * SuperFunction.odd_gen(b, 0))
    w2 = BerezinSection.make(f, 3 + 5 * SuperFunction.odd_gen(f, 0))
    prod = product_section(w1, w2)
    X = SuperFunction.coordinate(prod.shape, 0)
    xi1 = SuperFunction.odd_gen(prod.shape, 0)
    xi2 = SuperFunction.odd_gen(prod.shape, 1)
    # q = 1 flips the odd part of the first density; n p = 0 adds no sign
    assert prod.density == (X - 2 * X * xi1) * (3 + 5 * xi2)
    assert str(prod) == ("D(x1, xi1, xi2) * "
                         "(3 x1 + -6 x1 xi1 + 5 x1 xi2 + -10 x1 xi1 xi2)")
    lhs = integrate(prod, box_backend())
    rhs = integrate(w1, box_backend()) * integrate(w2, box_backend())
    # (*): (-1)^{(m+n) q} = +1
    assert lhs == rhs == Scalar(-5)


def test_gaussian_product_star_sign_sample():
    # (m,n,p,q) = (1,1,0,1): sign (-1)^{(1+1)*1} = +1
    b = gauss_shape(1, 1)
    f = gauss_shape(0, 1)
    w1 = BerezinSection.make(
        b, SuperFunction(b, {(0,): Polynomial.variable(1, 0, 2)}))
    w2 = BerezinSection.make(
        f, SuperFunction(f, {(0,): Polynomial.constant(0, 7)}))
    prod = product_section(w1, w2)
    lhs = integrate(prod, GAUSSIAN)
    rhs = integrate(w1, GAUSSIAN) * integrate(w2, GAUSSIAN)
    assert lhs == rhs == Scalar(-7, 1)


# ---------------------------------------------------------------------------
# function_times_section


def test_function_times_section_odd_sign():
    shape = SuperDomainShape(0, (), 1)
    omega = BerezinSection.make(shape, SuperFunction.one(shape))
    xi = SuperFunction.odd_gen(shape, 0)
    scaled = function_times_section(xi, omega)
    assert scaled.density == -xi
    assert integrate(scaled, box_backend()) == Scalar(-1)


def test_function_times_section_even_plain():
    omega = BerezinSection.make(BOX01, SuperFunction.one(BOX01))
    x = SuperFunction.coordinate(BOX01, 0)
    assert function_times_section(x, omega).density == x


def test_function_times_section_is_associative_with_product():
    # f (g omega) = (f g) omega including odd factors
    shape = SuperDomainShape(1, (Interval(0, 1),), 2)
    omega = BerezinSection.make(
        shape, SuperFunction.one(shape) + SuperFunction.odd_gen(shape, 0))
    f = SuperFunction.odd_gen(shape, 1) + SuperFunction.coordinate(shape, 0)
    g = SuperFunction.odd_gen(shape, 0)
    lhs = function_times_section(f, function_times_section(g, omega))
    rhs = function_times_section(f * g, omega)
    assert lhs.density == rhs.density


# ---------------------------------------------------------------------------
# splitting and fibre integration
#
# fibre_integrate_section is one pass over the stored keys, and integrate
# is the same pass onto the point.  The oracle of p_! is the product-term
# route it replaced: split the density into (base monomial, fibre section)
# pairs with the basis and Koszul signs on the base factors, integrate each
# fibre section and sum (the term-list p_!, fibre_integrate).  The fibre
# sections are integrated by integrate_oracle, the total integral written
# out on its own from the tuple keys of ``terms`` and moments of its own,
# so neither side shares a loop, a key or a moment table with p_!.


def split_product_function(f, left, right):
    """Write f on left x right as sum f_left * f_right, left factors
    leftmost: with the global ordering (left coords before right coords,
    both even and odd) the split introduces no signs."""
    if f.shape != shape_product(left, right):
        raise DimensionError("function does not live on the stated product")
    # (left exponents, left odd mask) -> the right factor's terms
    # (right odd index, right exponents, c s^k): the power of s stays with
    # the right factor
    low = (1 << left.n) - 1
    grouped = {}
    for (mask, *exps, k), c in f.terms.items():
        grouped.setdefault((tuple(exps[:left.m]), mask & low), []).append(
            (_indices(mask >> left.n), tuple(exps[left.m:]), Scalar(c, k)))
    return [(SuperFunction(left, {_indices(left_odd): Polynomial(left.m, {left_exps: 1})}),
             SuperFunction(right, [(idx, Polynomial(right.m, {exps: c}))
                                   for idx, exps, c in terms]))
            for (left_exps, left_odd), terms in sorted(
                grouped.items(), key=lambda item: (item[0][0], _indices(item[0][1])))]


def split_section(omega, base, fibre):
    """Inverse of product_section: (base function, fibre section) pairs
    with the basis sign (-1)^{np} and the Koszul sign of an odd base
    monomial across an odd fibre D-symbol folded into the base functions."""
    if omega.shape != shape_product(base, fibre):
        raise DimensionError("section does not live on the stated product")
    n, p, q = base.n, fibre.m, fibre.n
    base_sign = -1 if (n * p) % 2 else 1
    out = []
    for h, g in split_product_function(omega.density, base, fibre):
        sign = base_sign
        if q % 2 and h.parity() is ODD:
            sign = -sign
        out.append((sign * h, BerezinSection(fibre, g, omega.caveats)))
    return out


def _gaussian_moment_over_s(e):
    if e < 0:
        raise NonIntegrableError(
            f"negative exponent {e} under the gaussian weight")
    value = 0 if e % 2 else 1
    for odd in range(1, e, 2):
        value *= odd
    return value


def _interval_moment(iv, e):
    if e == -1:
        raise NonIntegrableError("exponent -1 has no rational antiderivative")
    if e < 0 and iv.lo <= 0 <= iv.hi:
        raise NonIntegrableError(f"pole at 0 inside the box {iv}")
    return Fraction(iv.hi ** (e + 1) - iv.lo ** (e + 1), e + 1)


def _raised(call, *args):
    try:
        return call(*args)
    except SuperBerezinError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(_axes, st.integers(-3, 6), st.fractions(-4, 4, max_denominator=6),
       st.integers(1, 10 ** 6), st.integers(1, 5))
def test_each_axis_kind_owns_its_containment_test_and_moments(
        axis, e, x, far, scale):
    # containment, by contains and by the kind's int test on an unreduced
    # n/d (as the sampled walk passes it), against Fraction comparisons at
    # the ends, the midpoint, just inside and just outside each end
    bounded = isinstance(axis, Interval)
    near = Fraction(1, far)
    ends = [axis.lo, axis.hi] if bounded else [Fraction(0)]
    points = [x] + [end + d for end in ends for d in (-near, 0, near)]
    if bounded:
        points.append((axis.lo + axis.hi) / 2)
    assert (axis._inside is None) == (axis is REALLINE)
    for p in points:
        want = (axis is REALLINE or (axis is POSITIVE and p > 0)
                or (bounded and axis.lo <= p <= axis.hi))
        assert axis.contains(p) == want, p
        if axis._inside is not None:
            assert axis._inside(p.numerator * scale,
                                p.denominator * scale) == want, p
    # the moments of x^e, each absent exactly where its backend raises
    density = BerezinSection.make(SuperDomainShape(1, (axis,), 0),
                                  Polynomial(1, {(e,): 1}))
    unbounded = (DomainBoxError, "axis 0 is unbounded; pass an explicit box")
    assert (_raised(integrate, density, box_backend()) == unbounded) \
        == (not bounded) == (axis._lebesgue is None)
    if bounded:
        assert _raised(axis._lebesgue, e) == _raised(_interval_moment, axis, e)
    not_a_line = (DomainBoxError, "gaussian backend needs whole-line axes, "
                  f"axis 0 is {axis}")
    assert (_raised(integrate, density, GAUSSIAN) == not_a_line) \
        == (axis is not REALLINE) == (axis._gaussian is None)
    if axis is REALLINE:
        assert _raised(axis._gaussian, e) == _raised(_gaussian_moment_over_s, e)


def _oracle_moments(backend, shape):
    """(one moment function per even axis, the power of s they add), as
    the backend's rule says, written out here: the Gaussian weight, or
    the interval an explicit ``backend.box`` puts at that axis's place,
    or else the axis's own; the axis checks raise first, in axis order."""
    box = backend.box
    if box is not None and len(box) != shape.m:
        raise DomainBoxError(f"box has {len(box)} axes, domain has {shape.m}")
    moments = []
    for k, axis in enumerate(shape.box):
        if backend is GAUSSIAN:
            if axis is not REALLINE:
                raise DomainBoxError(
                    f"gaussian backend needs whole-line axes, axis {k} is {axis}")
            moments.append(_gaussian_moment_over_s)
            continue
        if box is None:
            if not isinstance(axis, Interval):
                raise DomainBoxError(f"axis {k} is unbounded; pass an explicit box")
            iv = axis
        else:
            iv = box[k]
            if not (axis.contains(iv.lo) and axis.contains(iv.hi)):
                raise DomainBoxError(f"box axis {k} {iv} escapes the domain")
        moments.append(lambda e, iv=iv: _interval_moment(iv, e))
    return moments, shape.m if backend is GAUSSIAN else 0


def integrate_oracle(omega, backend):
    """The total integral with its own walk, as ``_term_by_term_integral``
    takes it: the top-sector terms read from ``terms``, each term's value
    from the moments of its own exponents, one Scalar per term, then the
    convention sign (-1)^{mn}.  A moment's error raises when a nonzero
    value reaches it, in the order of the terms and then of the axes."""
    shape = omega.shape
    top = (1 << shape.n) - 1
    terms = [(exps, k, c) for (mask, *exps, k), c in omega.density.terms.items()
             if mask == top]
    if not terms:
        return Scalar.zero()
    moments, shift = _oracle_moments(backend, shape)
    total = Scalar.zero()
    for exps, k, c in terms:
        for moment, e in zip(moments, exps):
            c *= moment(e)
            if not c:
                break
        total = total + Scalar(c, k + shift)
    return -total if (shape.m * shape.n) % 2 else total


def fibre_integrate(terms, base, fibre, backend):
    """The term-list p_!: the sum of f_i times the integral of omega_i over
    the fibre, for (f_i, omega_i) pairs as ``split_section`` gives."""
    total = SuperFunction.zero(base)
    for fn, sec in terms:
        total = total + fn * integrate_oracle(sec, backend)
    return total


def _split_fibre_integrate_section(omega, base, fibre, backend):
    value = fibre_integrate(split_section(omega, base, fibre), base, fibre,
                            backend)
    return BerezinSection(base, value, omega.caveats)


_exponents = st.sampled_from([0, 1, 2, 3, 0, 1, -1, -2])


def _explicit_box(draw, axes):
    """A box backend with an explicit box for ``axes``: inside them, with
    one bounded axis widened past its end (inside when none is bounded),
    or with one interval too many."""
    box = [Interval(a.lo, (a.lo + a.hi) / 2) if isinstance(a, Interval)
           else draw(_intervals) for a in axes]
    how = draw(st.sampled_from(["inside", "escape", "length"]))
    bounded = [k for k, a in enumerate(axes) if isinstance(a, Interval)]
    if how == "escape" and bounded:
        k = draw(st.sampled_from(bounded))
        box[k] = Interval(axes[k].lo, axes[k].hi + 1)
    elif how == "length":
        box.append(draw(_intervals))
    return box_backend(*box)


@st.composite
def _fibre_cases(draw):
    """(omega, base, fibre, backend): a density on (m|n) x (p|q), each
    dimension in 0..2, over a Gaussian fibre or a box fibre, whose keys
    sit in the top fibre sector about half the time, with negative
    exponents and powers of s.  About one backend in six is the other
    kind's, one in three an explicit box (``_explicit_box``), and one
    stated base in eight is not the density's."""
    m, n, p, q = (draw(st.integers(0, 2)) for _ in range(4))
    base = SuperDomainShape(m, tuple(draw(_axes) for _ in range(m)), n)
    gaussian = draw(st.booleans())
    fibre = SuperDomainShape(
        p, tuple(REALLINE if gaussian else draw(_intervals)
              for _ in range(p)), q)
    total = shape_product(base, fibre)
    full = (1 << q) - 1
    sectors = {}
    for _ in range(draw(st.integers(0, 6))):
        mask = draw(st.integers(0, (1 << n) - 1)) \
            | draw(st.sampled_from([full, full, 0, full >> 1])) << n
        exps = tuple(draw(_exponents) for _ in range(m + p))
        sectors.setdefault(_indices(mask), {})[exps] = Scalar(
            draw(st.fractions(-3, 3, max_denominator=4)),
            draw(st.integers(-1, 1)))
    density = SuperFunction(total, {idx: Polynomial(m + p, terms)
                                    for idx, terms in sectors.items()})
    omega = BerezinSection(total, density, draw(st.sampled_from(
        [(), ("orientation sampled on the source grid",)])))
    rule = draw(st.sampled_from(["own"] * 3 + ["other"] + ["explicit"] * 2))
    if rule == "explicit":
        backend = _explicit_box(draw, fibre.box)
    elif (rule == "own") != gaussian:
        backend = box_backend()
    else:
        backend = GAUSSIAN
    if draw(st.integers(0, 7)) == 0:
        base = SuperDomainShape(m, base.box, n + 1)
    return omega, base, fibre, backend


def _fibre_outcome(run, omega, base, fibre, backend):
    try:
        pushed = run(omega, base, fibre, backend)
    except SuperBerezinError as exc:
        return type(exc), str(exc)
    return pushed.shape, pushed.density.den, pushed.density.nums, pushed.caveats


@settings(max_examples=500, deadline=None)
@given(_fibre_cases())
def test_fibre_integrate_section_matches_the_split_oracle(case):
    assert _fibre_outcome(fibre_integrate_section, *case) == \
        _fibre_outcome(_split_fibre_integrate_section, *case)


@settings(max_examples=500, deadline=None)
@given(_fibre_cases(), st.data())
def test_integrate_matches_its_oracle(case, data):
    # integrate is p_! onto the point: the same value in the same stored
    # form as the total integral's own walk, or the same first error; an
    # explicit box is drawn for the whole chart, so that each of its axes
    # is read at its own place
    omega, _, _, backend = case
    if backend.box is not None:
        backend = _explicit_box(data.draw, omega.shape.box)
    outcomes = []
    for run in (integrate, integrate_oracle):
        try:
            value = run(omega, backend)
        except SuperBerezinError as exc:
            outcomes.append((type(exc), str(exc)))
        else:
            outcomes.append((value.den, value.nums))
    assert outcomes[0] == outcomes[1]


@settings(max_examples=50, deadline=None)
@given(_fibre_cases())
def test_split_reassembles(case):
    omega, base, fibre, _ = case
    assume(omega.shape == shape_product(base, fibre))
    total = SuperFunction.zero(omega.shape)
    for fl, fr in split_product_function(omega.density, base, fibre):
        total = total + fl.embed(omega.shape, 0, 0) \
            * fr.embed(omega.shape, base.m, base.n)
    assert total == omega.density


def test_split_section_signs():
    b, f, w1, w2 = _factor_sections()
    prod = product_section(w1, w2)
    pairs = split_section(prod, b, f)
    # base monomials 1 and xi; the odd one carries (-1)^{np + q} = -1
    as_dict = {}
    for fn, sec in pairs:
        # the single monomial index of the base factor
        key, = [idx for idx in [(), (0,)] if fn.coefficient(idx)]
        as_dict[key] = (fn, sec.density)
    one_fn, one_density = as_dict[()]
    xi_fn, xi_density = as_dict[(0,)]
    assert one_fn == SuperFunction.one(b)
    assert one_density == SuperFunction(
        f, {(): Polynomial.constant(0, 3), (0,): Polynomial.constant(0, 5)})
    assert xi_fn == -SuperFunction.odd_gen(b, 0)
    assert xi_density == SuperFunction(
        f, {(): Polynomial.constant(0, -6), (0,): Polynomial.constant(0, -10)})


def test_fibre_integrate_frozen():
    b, f, w1, w2 = _factor_sections()
    result = fibre_integrate_section(product_section(w1, w2), b, f,
                                     box_backend())
    assert result.density == SuperFunction(
        b, {(): Polynomial.constant(0, 5), (0,): Polynomial.constant(0, 10)})


def test_fibre_integration_identity():
    # int over B x F = (-1)^{(m+n) q} int over B of the fibre integral
    b, f, w1, w2 = _factor_sections()
    prod = product_section(w1, w2)
    pushed = fibre_integrate_section(prod, b, f, box_backend())
    assert pushed.shape == b
    assert integrate(pushed, box_backend()) == Scalar(10)
    assert integrate(prod, box_backend()) == Scalar(-10)  # sign (-1)^{(0+1)*1}


def test_fibre_integrate_module_rule_frozen():
    # p_!((h f) ox omega) = h p_!(f ox omega), h on the right of D(xi)
    b, f, w1, w2 = _factor_sections()
    terms = split_section(product_section(w1, w2), b, f)
    h = SuperFunction.odd_gen(b, 0)
    lhs = _pushed_forward([(h * fn, sec) for fn, sec in terms], b, f)
    rhs = h * _pushed_forward(terms, b, f)
    assert lhs == rhs == SuperFunction(b, {(0,): Polynomial.constant(0, 5)})


def test_section_level_module_rule():
    # p_!(p^* h . omega) = h . p_!(omega) with all D-symbol signs live
    base = SuperDomainShape(1, (Interval(0, 1),), 1)
    fibre = SuperDomainShape(1, (Interval(0, 1),), 1)
    total = shape_product(base, fibre)
    x = SuperFunction.coordinate(total, 0)
    y = SuperFunction.coordinate(total, 1)
    xi = SuperFunction.odd_gen(total, 0)
    eta = SuperFunction.odd_gen(total, 1)
    rho = x * y + xi * eta + y * y * xi + x * eta + 1
    omega = BerezinSection.make(total, rho)
    h = SuperFunction.coordinate(base, 0) + SuperFunction.odd_gen(base, 0)
    h_up = h.embed(total, 0, 0)
    lhs = fibre_integrate_section(function_times_section(h_up, omega),
                                  base, fibre, box_backend())
    rhs = function_times_section(h, fibre_integrate_section(
        omega, base, fibre, box_backend()))
    assert lhs.density == rhs.density


def test_fibre_support_containment():
    base = SuperDomainShape(1, (Interval(0, 1),), 0)
    fibre = SuperDomainShape(0, (), 1)
    eta = SuperFunction.odd_gen(fibre, 0)
    # only the term whose fibre density has a top odd coefficient survives
    live = (SuperFunction.coordinate(base, 0), BerezinSection.make(fibre, eta))
    dead = (SuperFunction.coordinate(base, 0, 2),
            BerezinSection.make(fibre, SuperFunction.one(fibre)))
    assert _pushed_forward([live, dead], base, fibre) == \
        SuperFunction.coordinate(base, 0)


def test_fibrewise_shear_invariance():
    # fibre-preserving isomorphism over the base leaves p_! unchanged
    base = SuperDomainShape(0, (), 2)
    fibre = SuperDomainShape(1, (Interval(0, 1),), 0)
    total = shape_product(base, fibre)
    y = SuperFunction.coordinate(total, 0)
    xi1 = SuperFunction.odd_gen(total, 0)
    xi2 = SuperFunction.odd_gen(total, 1)
    phi = SuperMorphism(total, total, [y + 3 * xi1 * xi2], [xi1, xi2])
    # fibre profile vanishes at the fibre-box boundary
    bump = y * y * (1 - y) * (1 - y)
    rho = bump + y * xi1 + xi2 + bump * xi1 * xi2
    omega = BerezinSection.make(total, rho)
    lhs = fibre_integrate_section(pullback_section(phi, omega), base, fibre,
                                  box_backend())
    rhs = fibre_integrate_section(omega, base, fibre, box_backend())
    assert lhs.density == rhs.density


# ---------------------------------------------------------------------------
# seeded verification suites


def test_fubini_sign_grid_small():
    from superberezin.suites import fubini_sign_grid_suite
    lines = fubini_sign_grid_suite(seed=3)
    bad = [line.render() for line in lines if not line.passed]
    assert not bad, bad


def test_module_rule_suite_sample():
    from superberezin.suites import module_rule_suite, support_containment_suite
    bad = [line.render() for line in module_rule_suite(seed=5)
           if not line.passed]
    bad += [line.render() for line in support_containment_suite(seed=5)
            if not line.passed]
    assert not bad, bad


def test_support_suite_fails_when_every_fibre_integral_is_one(monkeypatch):
    # forcing the integral of 1 over R^(0|1) to 1 makes terms live that
    # Berezin's rule kills, so the suite must report them
    from superberezin import suites
    monkeypatch.setattr(suites, "integrate", lambda section, backend: Scalar(1))
    lines = suites.support_containment_suite()
    assert sum(not line.passed for line in lines) >= 6


# ---------------------------------------------------------------------------
# the backend constructor


_box_pairs = st.sampled_from([(0, 1), (-1, 1), (1, 2), (Fraction(1, 2), 3),
                              (-3, -1), (1, 0), (2, 2), (0, 5)])


@settings(max_examples=200, deadline=None)
@given(st.lists(_box_pairs, max_size=3), st.lists(_axes, max_size=2),
       st.lists(st.tuples(st.tuples(_exponents, _exponents), st.integers(-3, 3)),
                max_size=4))
def test_the_backend_constructor_takes_pairs_as_box_backend_does(pairs, axes, terms):
    # IntegrationBackend(pairs) and box_backend(*pairs) are one rule: the
    # same integral, or the same error, whether the pairs or their
    # Intervals are given (no pairs is box None, the domain's own axes)
    shape = SuperDomainShape(len(axes), tuple(axes), 0)
    poly = Polynomial(len(axes), {exps[:len(axes)]: c for exps, c in terms})
    omega = BerezinSection.make(shape, poly)

    def outcome(make):
        try:
            return integrate(omega, make())
        except SuperBerezinError as exc:
            return type(exc), str(exc)
    want = outcome(lambda: box_backend(*pairs))
    assert outcome(lambda: IntegrationBackend(tuple(pairs) or None)) == want
    intervals = []
    for pair in pairs:
        try:
            intervals.append(Interval(*pair))
        except DomainBoxError:
            return  # an empty interval: no Interval to compare with
    assert outcome(lambda: IntegrationBackend(tuple(intervals) or None)) == want
    assert outcome(lambda: box_backend(*intervals)) == want


def test_the_backend_constructor_converts_a_pair_once():
    backend = IntegrationBackend(((0, 1), Interval(1, 2)))
    assert backend.box == (Interval(0, 1), Interval(1, 2))
    assert backend == box_backend((0, 1), (1, 2))
    shape = SuperDomainShape(1, (REALLINE,), 0)
    x = SuperFunction.coordinate(shape, 0)
    assert integrate(BerezinSection.make(shape, x),
                     IntegrationBackend(((0, 1),))) == Scalar(Fraction(1, 2))
    with pytest.raises(DomainBoxError, match=r"^empty interval \[1, 0\]$"):
        IntegrationBackend(((1, 0),))
