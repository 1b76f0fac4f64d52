"""Berezinian densities and exact Berezin--Lebesgue integration.

A density is written D(x_1..x_m, xi_1..xi_n) * rho with the coefficient
function on the right of the coordinate symbol.  The coordinates are the
chart's own, in the order its shape fixes (evens, then odds), so a section
names none of them.  Integration extracts the top odd coefficient of rho,
applies the convention sign (-1)^{mn}, and hands the remaining even
integrand to one of two exact backends:

* ``gaussian_moments`` integrates against exp(-|x|^2/2) over all of R^m;
  results are rational multiples of s^m where s stands for sqrt(2 pi).
* ``box_polynomial`` evaluates rational antiderivatives over a box.  Any
  Laurent exponent except -1 is fine as long as the box avoids 0.

Pulling a density back along phi gives Ber(Jac phi) * phi^*(rho), the
change of variables of an oriented isomorphism; one walk over the source's
3-per-axis grid samples that phi is one, and the section keeps caveats.
The walk evaluates each body once over the whole grid, in ints.

The D-symbol of a product domain relates to the factor symbols by
D(x,y,xi,eta) = (-1)^{np} D(x,xi) ox D(y,eta) with n the odd dimension of
the first factor and p the even dimension of the second; that sign, and
the Koszul signs from moving coefficient functions across the odd symbol
D(y,eta), are what this module keeps track of.  Fibre integration p_!
reads the stored keys once: only keys whose fibre odd mask is full
contribute, and those with base exponents a and base odd mask L give
(-1)^{np + pq + q|L|} xi^L x^a times their fibre integral, the basis sign,
the fibre's convention sign and the Koszul sign of xi^L across D(y,eta).
One pushforward serves both integrals: ``fibre_integrate_section`` is p_!
onto a base, and the total integral ``integrate`` is p_! onto the point
(0|0), where only the convention sign (-1)^{pq} is left.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import lcm
from operator import add
from typing import Sequence

from .errors import (
    DimensionError,
    DomainBoxError,
    NonIntegrableError,
    NonInvertibleError,
    OrientationError,
    StructureError,
)
from .grassmann import Scalar, _indices, _quotient, _reduced
from .linalg import det as rational_det
from .superdomain import (
    Axis,
    Interval,
    POSITIVE,
    Polynomial,
    REALLINE,
    SuperDomainShape,
    SuperFunction,
    SuperMorphism,
    box_samples,
    jacobian,
    pullback,
    shape_product,
)

__all__ = [
    "BerezinSection",
    "GAUSSIAN",
    "IntegrationBackend",
    "box_backend",
    "fibre_integrate_section",
    "function_times_section",
    "integrate",
    "product_section",
    "pullback_section",
]


# ---------------------------------------------------------------------------
# backends


@dataclass(frozen=True)
class IntegrationBackend:
    """Exact recipe for the even part of a Berezin--Lebesgue integral."""

    kind: str  # "gaussian_moments" | "box_polynomial"
    box: tuple[Interval, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("gaussian_moments", "box_polynomial"):
            raise StructureError(f"unknown backend kind {self.kind!r}")
        if self.kind == "gaussian_moments" and self.box is not None:
            raise StructureError("the gaussian backend takes no box")

    def resolve_box(self, axes: Sequence[Axis]) -> tuple[Interval, ...]:
        if self.box is None:
            for k, axis in enumerate(axes):
                if not isinstance(axis, Interval):
                    raise DomainBoxError(
                        f"axis {k} is unbounded; pass an explicit box")
            return tuple(axes)
        if len(self.box) != len(axes):
            raise DomainBoxError(
                f"box has {len(self.box)} axes, domain has {len(axes)}")
        for k, (iv, axis) in enumerate(zip(self.box, axes)):
            if not (axis.contains(iv.lo) and axis.contains(iv.hi)):
                raise DomainBoxError(f"box axis {k} {iv} escapes the domain")
        return self.box

    def _moment_tables(self, axes: Sequence[Axis],
                       keys) -> tuple[int, list[dict], int]:
        """(d, tables, shift): ``tables[i]`` maps each exponent at place i
        of ``keys`` to the int numerator over d of its moment on axis i, or
        to the NonIntegrableError it raised, and each term gains s^shift;
        the backend's axis checks raise first."""
        if self.kind == "gaussian_moments":
            for k, axis in enumerate(axes):
                if axis is not REALLINE:
                    raise DomainBoxError(
                        f"gaussian backend needs whole-line axes, axis {k} is {axis}")
            moments, shift = [_gaussian_moment] * len(axes), len(axes)
        else:
            moments = [partial(_box_monomial, iv) for iv in self.resolve_box(axes)]
            shift = 0
        den, tables = 1, []
        for i, moment in enumerate(moments):
            table, axis_den = {}, 1
            for e in {exps[i] for exps in keys}:
                try:
                    v = moment(e)
                except NonIntegrableError as exc:
                    v = exc
                else:
                    if type(v) is not int and axis_den % v.denominator:
                        axis_den = lcm(axis_den, v.denominator)
                table[e] = v
            if axis_den != 1:
                table = {e: v if type(v) is NonIntegrableError
                         else v.numerator * (axis_den // v.denominator)
                         for e, v in table.items()}
            den *= axis_den
            tables.append(table)
        return den, tables, shift


def _times_moments(c: int, exps, tables) -> int:
    """c times the moments of the leading exponents of ``exps``, or 0 once
    the product is: a moment's error raises only when a nonzero value
    reaches it, as term by term."""
    for table, e in zip(tables, exps):
        v = table[e]
        if type(v) is not int:
            raise v
        c *= v
        if not c:
            return 0
    return c


def _gaussian_moment(e: int) -> int:
    """Moment of x^e against exp(-x^2/2) dx over the whole line, over s."""
    if e < 0:
        raise NonIntegrableError(
            f"negative exponent {e} under the gaussian weight")
    if e % 2:
        return 0
    value = 1
    for odd in range(1, e, 2):
        value *= odd
    return value


def _box_monomial(iv: Interval, e: int):
    """The integral of x^e over the interval, in stored form."""
    if e == -1:
        raise NonIntegrableError("exponent -1 has no rational antiderivative")
    if e < 0 and iv.lo <= 0 <= iv.hi:
        raise NonIntegrableError(f"pole at 0 inside the box {iv}")
    return _quotient(iv.hi ** (e + 1) - iv.lo ** (e + 1), e + 1)


GAUSSIAN = IntegrationBackend("gaussian_moments")


def box_backend(*bounds) -> IntegrationBackend:
    """Box backend; with no arguments the domain's own axes are used."""
    if not bounds:
        return IntegrationBackend("box_polynomial")
    box = tuple(b if isinstance(b, Interval) else Interval(*b) for b in bounds)
    return IntegrationBackend("box_polynomial", box)


# ---------------------------------------------------------------------------
# sections


@dataclass(frozen=True)
class BerezinSection:
    """A Berezinian density D(x, xi) * rho in the chart's own coordinates.

    The coordinate order of the D-symbol is the shape's: evens, then odds.
    """

    shape: SuperDomainShape
    density: SuperFunction
    caveats: tuple[str, ...] = ()

    def __post_init__(self):
        if self.density.shape != self.shape:
            raise DimensionError("density lives on the wrong shape")

    @classmethod
    def make(cls, shape: SuperDomainShape, density) -> "BerezinSection":
        if not isinstance(density, SuperFunction):
            if isinstance(density, Polynomial):
                density = SuperFunction.from_polynomial(shape, density)
            else:
                density = SuperFunction.constant(shape, density)
        return cls(shape, density)

    def with_density(self, density: SuperFunction) -> "BerezinSection":
        return BerezinSection(self.shape, density, self.caveats)

    def __str__(self) -> str:
        names = [f"x{i + 1}" for i in range(self.shape.m)] + \
            [f"xi{j + 1}" for j in range(self.shape.n)]
        return f"D({', '.join(names)}) * ({self.density})"


# ---------------------------------------------------------------------------
# integration


def _pushforward(density: SuperFunction, m: int, n: int,
                 fibre: SuperDomainShape,
                 backend: IntegrationBackend) -> tuple[int, dict]:
    """p_! of a density on (m|n) x fibre as the unreduced (den, nums) of a
    function on the base: one pass over the stored keys as the module
    docstring says, into one numerator dict over one set of moment tables.
    Groups (a, L) go in the order of a, then of L's index tuple, so errors
    come in that order; with no key in the top fibre sector no table is
    built and no backend error is raised."""
    p, q = fibre.m, fibre.n
    full, low = (1 << q) - 1, (1 << n) - 1
    groups: dict[tuple, list] = {}
    for key, c in density.nums.items():
        if key[0] >> n == full:
            groups.setdefault((key[1:m + 1], key[0] & low), []).append(
                (key[m + 1:], c))
    den, nums = density.den, {}
    if groups:
        tables_den, tables, shift = backend._moment_tables(
            fibre.box, [exps for terms in groups.values() for exps, _ in terms])
        den *= tables_den
        for (exps, mask), terms in sorted(
                groups.items(), key=lambda item: (item[0][0], _indices(item[0][1]))):
            head = (mask,) + exps
            t = -1 if (n * p + p * q + q * mask.bit_count()) % 2 else 1
            for fibre_key, c in terms:
                c = _times_moments(t * c, fibre_key, tables)
                if c:
                    key = head + (fibre_key[-1] + shift,)
                    nums[key] = nums.get(key, 0) + c
    return den, nums


def integrate(omega: BerezinSection, backend: IntegrationBackend) -> Scalar:
    """Total integral: p_! onto the point (0|0).  Only the top odd sector
    counts, integrated over the even axes with the convention sign
    (-1)^{mn}, the pq term of p_!'s sign; each key left holds a power of s."""
    den, nums = _pushforward(omega.density, 0, 0, omega.shape, backend)
    return _reduced(Scalar, 0, den, {key[-1]: c for key, c in nums.items()})


def function_times_section(f, omega: BerezinSection) -> BerezinSection:
    """f * (D * rho) = D * (signed f) * rho, the sign from |f part| * n."""
    if not isinstance(f, SuperFunction):
        f = SuperFunction.from_polynomial(omega.shape, f)
    if f.shape != omega.shape:
        raise DimensionError("function lives on the wrong shape")
    if omega.shape.n % 2:
        f = f._twisted()
    return omega.with_density(f * omega.density)


# ---------------------------------------------------------------------------
# pullback


def _oriented_jacobian(phi: SuperMorphism):
    """Jac(phi) and the caveats of one sampled walk: each even body on its
    target axis first, then a positive body Jacobian and an invertible odd
    block.  Powers of s raise, except in a body on a whole-line axis.

    The grid is evaluated once per body (``_grid_body``), in ints; a
    Scalar value and the ``box_samples`` point are built only for an
    error's message."""
    grid = [_axis_grid(axis) for axis in phi.source.box]
    points = range(3 ** len(grid))

    def sample(p):
        return box_samples(phi.source.box)[p]

    bodies = [_grid_body(comp, grid) for comp in phi.even_components]
    for p in points:
        for k, (body, axis) in enumerate(zip(bodies, phi.target.box)):
            dens, rat, powers = body
            d = dens[p]
            if not d:
                raise DomainBoxError(
                    f"body component {k} undefined at sample {sample(p)}")
            if axis is REALLINE:
                continue
            if powers and any(vals[p] for vals in powers.values()):
                raise DomainBoxError(
                    f"body component {k} is {_grid_value(body, p)} at sample "
                    f"{sample(p)}: a power of s, not compared with target "
                    f"axis {k}")
            n = rat[p]
            if axis is POSITIVE:
                inside = n > 0
            else:
                lo, hi = axis.lo, axis.hi
                inside = (lo.numerator * d <= n * lo.denominator
                          and n * hi.denominator <= hi.numerator * d)
            if not inside:
                raise DomainBoxError(
                    f"body image of sample {sample(p)} escapes target axis {k}")
    jac = jacobian(phi)
    a_body, d_body = ([[_grid_body(entry, grid) for entry in row]
                       for row in jac.block(name)] for name in "AD")
    for p in points:
        if a_body:
            value = _det_at(a_body, p, sample)
            if value == 0:
                raise NonInvertibleError(
                    f"body Jacobian singular at sample {sample(p)}")
            if value < 0:
                raise OrientationError(
                    f"body Jacobian not positive at sample {sample(p)}")
        if d_body and _det_at(d_body, p, sample) == 0:
            raise NonInvertibleError(
                f"odd Jacobian block degenerate at sample {sample(p)}")
    return jac, ("box containment sampled on a 3-per-axis grid",
                 "orientation sampled on the source grid")


def _axis_grid(axis) -> tuple[int, list[int]]:
    """(L, [a_0, a_1, a_2]): the axis's three samples as a_t / L, L > 0."""
    xs = axis.samples()
    scale = lcm(*(x.denominator for x in xs))
    return scale, [x.numerator * (scale // x.denominator) for x in xs]


def _grid_body(f: SuperFunction, grid):
    """The body of f at each point of the grid, in ``box_samples`` order,
    as (dens, rat, powers): at point p the value
    (rat[p] + sum_k powers[k][p] s^k) / dens[p] in ints, dens[p] > 0, or
    dens[p] == 0 where a term has a negative exponent at a zero
    coordinate (the body is undefined there).

    On an axis with samples a_t / L where the body's exponents lie in
    [lo, hi] (lo <= 0 <= hi), x^e is a_t^(e - lo) L^(hi - e) over
    L^hi a_t^-lo, powers of ints only; a term's values over the grid are
    the outer product of its per-axis factors, the first axis outermost.
    """
    terms = [(key[1:], c) for key, c in f.nums.items() if not key[0]]
    dens, powers, bounds = [f.den], {}, []
    for i, (scale, nums) in enumerate(grid):
        es = [exps[i] for exps, _ in terms] + [0]
        lo, hi = min(es), max(es)
        bounds.append((lo, hi))
        factors = [scale ** hi * a ** -lo for a in nums]
        dens = [d * g for d in dens for g in factors]
    for exps, c in terms:
        vals = [c]
        for (scale, nums), (lo, hi), e in zip(grid, bounds, exps):
            factors = [scale ** (hi - e) * a ** (e - lo) for a in nums]
            vals = [v * g for v in vals for g in factors]
        prev = powers.get(exps[-1])
        powers[exps[-1]] = vals if prev is None else list(map(add, prev, vals))
    if min(dens) < 0:  # an odd power of a negative sample
        for p, d in enumerate(dens):
            if d < 0:
                dens[p] = -d
                for vals in powers.values():
                    vals[p] = -vals[p]
    return dens, powers.pop(0, None) or [0] * len(dens), powers


def _grid_value(body, p: int) -> Scalar:
    """The ``_grid_body`` value at point p as a Scalar, for a message."""
    dens, rat, powers = body
    nums = {k: vals[p] for k, vals in powers.items()}
    nums[0] = rat[p]
    return _reduced(Scalar, 0, dens[p], nums)


def _det_at(block, p: int, sample):
    """An int with the sign of the determinant of the ``_grid_body``
    block at point p, 0 when it is singular: ``linalg.det`` of the block
    with each row times the product of its (positive) denominators.
    OrientationError at the first entry, row by row, that is undefined
    there or carries a power of s, with the message of
    ``Scalar.rational``."""
    for row in block:
        for body in row:
            dens, rat, powers = body
            if not dens[p]:
                raise OrientationError(
                    f"Jacobian body undefined at sample {sample(p)}")
            if powers and any(vals[p] for vals in powers.values()):
                try:
                    _grid_value(body, p).rational  # raises: it carries s
                except ValueError as exc:
                    raise OrientationError(
                        f"Jacobian body at sample {sample(p)} not compared: "
                        f"{exc}") from None
    rows = []
    for row in block:
        prod = 1
        for dens, _, _ in row:
            prod *= dens[p]
        rows.append([rat[p] * (prod // dens[p]) for dens, rat, _ in row])
    return rational_det(rows)


def pullback_section(phi: SuperMorphism,
                     omega: BerezinSection) -> BerezinSection:
    """Transport a density to the source chart of an oriented isomorphism:
    Ber(Jac phi) * phi^*(rho) in the source chart's coordinates, with the
    caveats of the sampled check in ``_oriented_jacobian``."""
    if phi.target != omega.shape:
        raise DimensionError("section does not live on the morphism target")
    jac, notes = _oriented_jacobian(phi)
    density = jac.berezinian() * pullback(phi, omega.density)
    return BerezinSection(phi.source, density, omega.caveats + notes)


# ---------------------------------------------------------------------------
# products and fibre integration


def product_section(omega1: BerezinSection,
                    omega2: BerezinSection) -> BerezinSection:
    """Tensor of densities in the product D-basis D(x, y, xi, eta).

    Both the explicit (-1)^{np} basis sign and the Koszul signs from
    moving the first density across the second D-symbol are applied.
    """
    s1, s2 = omega1.shape, omega2.shape
    shape = shape_product(s1, s2)
    r1 = omega1.density.embed(shape, 0, 0)
    if s2.n % 2:
        r1 = r1._twisted()
    if (s1.n * s2.m) % 2:
        r1 = -r1
    return BerezinSection(shape, r1 * omega2.density.embed(shape, s1.m, s1.n),
                          omega1.caveats + omega2.caveats)


def fibre_integrate_section(omega: BerezinSection, base: SuperDomainShape,
                            fibre: SuperDomainShape,
                            backend: IntegrationBackend) -> BerezinSection:
    """Fibre integration p_! of a density on a trivial bundle, as a base
    density (``_pushforward``)."""
    if omega.shape != shape_product(base, fibre):
        raise DimensionError("section does not live on the stated product")
    den, nums = _pushforward(omega.density, base.m, base.n, fibre, backend)
    return BerezinSection(base, _reduced(SuperFunction, base, den, nums),
                          omega.caveats)
