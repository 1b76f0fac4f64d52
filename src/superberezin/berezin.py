"""Berezinian densities and exact Berezin--Lebesgue integration.

A density is written D(x_1..x_m, xi_1..xi_n) * rho with the coefficient
function on the right of the coordinate symbol.  Integration extracts the
top odd coefficient of rho, applies the convention sign (-1)^{mn}, and
hands the remaining even integrand to one of two exact backends:

* ``gaussian_moments`` integrates against exp(-|x|^2/2) over all of R^m;
  results are rational multiples of s^m where s stands for sqrt(2 pi).
* ``box_polynomial`` evaluates rational antiderivatives over a box.  Any
  Laurent exponent except -1 is fine as long as the box avoids 0.

The D-symbol of a product domain relates to the factor symbols by
D(x,y,xi,eta) = (-1)^{np} D(x,xi) ox D(y,eta) with n the odd dimension of
the first factor and p the even dimension of the second; that sign, and
the Koszul signs from moving coefficient functions across the odd symbol
D(y,eta), are what this module keeps track of.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Iterable, Sequence

from .errors import (
    DimensionError,
    DomainBoxError,
    NonIntegrableError,
    NonInvertibleError,
    OrientationError,
    StructureError,
)
from .grassmann import ODD, GrassmannElement, Scalar
from .linalg import det as rational_det
from .superdomain import (
    Axis,
    Interval,
    Polynomial,
    SuperDomainShape,
    SuperFunction,
    SuperMorphism,
    box_samples,
    jacobian,
    pullback,
    shape_product,
    split_product_function,
)

__all__ = [
    "BerezinSection",
    "FibreTerm",
    "GAUSSIAN",
    "IntegrationBackend",
    "box_backend",
    "default_basis_tag",
    "fibre_integrate",
    "fibre_integrate_section",
    "fibre_integrate_with_support",
    "function_times_section",
    "integrate",
    "product_section",
    "pullback_section",
    "split_section",
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
            if isinstance(axis, Interval):
                inside = axis.lo <= iv.lo and iv.hi <= axis.hi
            else:
                inside = axis.contains(iv.lo) and axis.contains(iv.hi)
            if not inside:
                raise DomainBoxError(f"box axis {k} {iv} escapes the domain")
        return self.box

    def integrate_polynomial(self, poly: Polynomial,
                             axes: Sequence[Axis]) -> Scalar:
        """Each term c s^k x^e integrates axis by axis; a Gaussian axis
        contributes one factor s = sqrt(2 pi)."""
        if self.kind == "gaussian_moments":
            for k, axis in enumerate(axes):
                if isinstance(axis, Interval) or not axis.contains(Fraction(-1)):
                    raise DomainBoxError(
                        f"gaussian backend needs whole-line axes, axis {k} is {axis}")
            moments, shift = [_gaussian_moment] * len(axes), len(axes)
        else:
            moments = [partial(_box_monomial, iv) for iv in self.resolve_box(axes)]
            shift = 0
        total = Scalar.zero()
        for exps, coeff in poly.terms.items():
            for moment, e in zip(moments, exps):
                coeff *= moment(e)
                if not coeff:
                    break
            total = total + Scalar(coeff, exps[-1] + shift)
        return total


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


def _box_monomial(iv: Interval, e: int) -> Fraction:
    if e == -1:
        raise NonIntegrableError("exponent -1 has no rational antiderivative")
    if e < 0 and iv.lo <= 0 <= iv.hi:
        raise NonIntegrableError(f"pole at 0 inside the box {iv}")
    hi = Fraction(iv.hi) ** (e + 1)
    lo = Fraction(iv.lo) ** (e + 1)
    return Fraction(hi - lo, e + 1)


GAUSSIAN = IntegrationBackend("gaussian_moments")


def box_backend(*bounds) -> IntegrationBackend:
    """Box backend; with no arguments the domain's own axes are used."""
    if not bounds:
        return IntegrationBackend("box_polynomial")
    box = tuple(b if isinstance(b, Interval) else Interval(*b) for b in bounds)
    return IntegrationBackend("box_polynomial", box)


# ---------------------------------------------------------------------------
# sections


def default_basis_tag(shape: SuperDomainShape) -> tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(shape.m)) + \
        tuple(f"xi{j + 1}" for j in range(shape.n))


@dataclass(frozen=True)
class BerezinSection:
    """A Berezinian density D(x,xi) * rho in a fixed coordinate basis."""

    shape: SuperDomainShape
    density: SuperFunction
    basis_tag: tuple[str, ...]
    caveats: tuple[str, ...] = ()

    def __post_init__(self):
        if self.density.shape != self.shape:
            raise DimensionError("density lives on the wrong shape")
        if len(self.basis_tag) != self.shape.m + self.shape.n:
            raise StructureError("basis tag must name every coordinate")
        if len(set(self.basis_tag)) != len(self.basis_tag):
            raise StructureError("coordinate names must be distinct")

    @classmethod
    def make(cls, shape: SuperDomainShape, density,
             basis_tag: Sequence[str] | None = None,
             caveats: Iterable[str] = ()) -> "BerezinSection":
        if not isinstance(density, SuperFunction):
            if isinstance(density, Polynomial):
                density = SuperFunction.from_polynomial(shape, density)
            else:
                density = SuperFunction.constant(shape, density)
        tag = tuple(basis_tag) if basis_tag is not None else default_basis_tag(shape)
        return cls(shape, density, tag, tuple(caveats))

    @property
    def even_names(self) -> tuple[str, ...]:
        return self.basis_tag[:self.shape.m]

    @property
    def odd_names(self) -> tuple[str, ...]:
        return self.basis_tag[self.shape.m:]

    def with_density(self, density: SuperFunction) -> "BerezinSection":
        return BerezinSection(self.shape, density, self.basis_tag, self.caveats)

    def __str__(self) -> str:
        return f"D({', '.join(self.basis_tag)}) * ({self.density})"


# ---------------------------------------------------------------------------
# integration


def integrate(omega: BerezinSection, backend: IntegrationBackend):
    """Total integral; a Scalar, or a Grassmann element in aux parameters.

    The top odd coefficient g of the density (in the coordinate odd
    generators) is integrated over the even axes, with the convention
    sign (-1)^{mn}.  Auxiliary odd parameters ride along untouched.
    """
    shape = omega.shape
    m, n, aux = shape.m, shape.n, shape.aux
    sign = -1 if (m * n) % 2 else 1
    full = tuple(range(n))
    pieces: dict[tuple[int, ...], Scalar] = {}
    for idx, poly in omega.density.coeffs.items():
        # the sectors that hold every coordinate generator differ in aux
        if tuple(j for j in idx if j < n) == full:
            pieces[tuple(j - n for j in idx if j >= n)] = \
                sign * backend.integrate_polynomial(poly, shape.box)
    if aux == 0:
        return pieces.get((), Scalar.zero())
    return GrassmannElement(aux, pieces)


def function_times_section(f, omega: BerezinSection) -> BerezinSection:
    """f * (D * rho) = D * (signed f) * rho, the sign from |f part| * n."""
    if not isinstance(f, SuperFunction):
        f = omega.density._coerce(f)
    if f.shape != omega.shape:
        raise DimensionError("function lives on the wrong shape")
    if omega.shape.n % 2:
        f = f.even_part() - f.odd_part()
    return omega.with_density(f * omega.density)


# ---------------------------------------------------------------------------
# pullback


def _sampled_orientation_check(phi: SuperMorphism, jac) -> str:
    """Positivity of the even body Jacobian, invertibility of the odd block.

    A body entry that carries a power of s is not compared, and raises.
    """
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


def pullback_section(phi: SuperMorphism, omega: BerezinSection,
                     basis_tag: Sequence[str] | None = None) -> BerezinSection:
    """Transport a density to the source chart of an oriented isomorphism.

    The new density is Ber(Jac phi) * phi^*(rho).  Whether phi really is an
    oriented isomorphism is checked by sampling (body stays in the box,
    body Jacobian positive); the caveats record this.
    """
    if phi.target != omega.shape:
        raise DimensionError("section does not live on the morphism target")
    caveats = list(omega.caveats)
    note = phi.check_body_box()
    if note:
        caveats.append(note)
    jac = jacobian(phi)
    if phi.oriented:
        caveats.append(_sampled_orientation_check(phi, jac))
    else:
        caveats.append("orientation check waived by the morphism")
    ber = jac.berezinian()
    density = ber * pullback(phi, omega.density)
    tag = tuple(basis_tag) if basis_tag is not None \
        else default_basis_tag(phi.source)
    return BerezinSection(phi.source, density, tag, tuple(caveats))


# ---------------------------------------------------------------------------
# products and fibre integration


def product_section(omega1: BerezinSection,
                    omega2: BerezinSection) -> BerezinSection:
    """Tensor of densities in the product D-basis.

    Both the explicit (-1)^{np} basis sign and the Koszul signs from
    moving the first density across the second D-symbol are applied.
    """
    s1, s2 = omega1.shape, omega2.shape
    if set(omega1.basis_tag) & set(omega2.basis_tag):
        raise StructureError("coordinate name collision between factors")
    shape = shape_product(s1, s2)
    tag = omega1.even_names + omega2.even_names + \
        omega1.odd_names + omega2.odd_names
    r1 = omega1.density.embed(shape, 0, 0)
    r2 = omega2.density.embed(shape, s1.m, s1.n)
    signed = r1.even_part() - r1.odd_part() if s2.n % 2 else r1
    sign = -1 if (s1.n * s2.m) % 2 else 1
    return BerezinSection(shape, sign * (signed * r2), tag,
                          omega1.caveats + omega2.caveats)


def split_section(omega: BerezinSection, base: SuperDomainShape,
                  fibre: SuperDomainShape
                  ) -> list[tuple[SuperFunction, BerezinSection]]:
    """Inverse of product_section: present omega as sum of product terms.

    Returns (base function, fibre section) pairs with the basis and
    Koszul signs folded into the base functions, so that fibre_integrate
    applied to the result is the fibre integration p_! up to the global
    (-1)^{(m+n)q} convention relating the two total integrals.
    """
    if omega.shape != shape_product(base, fibre):
        raise DimensionError("section does not live on the stated product")
    n, p, q = base.n, fibre.m, fibre.n
    fibre_tag = omega.even_names[base.m:] + omega.odd_names[base.n:]
    base_sign = -1 if (n * p) % 2 else 1
    out = []
    for h, g in split_product_function(omega.density, base, fibre):
        sign = base_sign
        if q % 2 and h.parity() is ODD:
            sign = -sign
        out.append((sign * h,
                    BerezinSection(fibre, g, fibre_tag, omega.caveats)))
    return out


@dataclass(frozen=True)
class FibreTerm:
    """One product term of a fibre density, with a declared base support."""

    base_function: SuperFunction
    fibre_section: BerezinSection
    base_support: tuple[Interval, ...] | None = None


def _check_fibre_term(base_function: SuperFunction,
                      fibre_section: BerezinSection,
                      base: SuperDomainShape, fibre: SuperDomainShape) -> None:
    """Shape checks on one product term, shared by the fibre integrators."""
    if base_function.shape != base:
        raise DimensionError("base factor on the wrong shape")
    if fibre_section.shape != fibre:
        raise DimensionError("fibre factor on the wrong shape")
    if fibre.aux:
        raise StructureError("fibre shapes with aux parameters "
                             "are not supported here")


def fibre_integrate(terms: Sequence[tuple[SuperFunction, BerezinSection]],
                    base: SuperDomainShape, fibre: SuperDomainShape,
                    backend: IntegrationBackend) -> SuperFunction:
    """Integrate the fibre factor of each product term: sum of f_i * c_i."""
    total = SuperFunction.zero(base)
    for fn, sec in terms:
        _check_fibre_term(fn, sec, base, fibre)
        total = total + fn * integrate(sec, backend)
    return total


def fibre_integrate_with_support(terms: Sequence[FibreTerm],
                                 base: SuperDomainShape,
                                 fibre: SuperDomainShape,
                                 backend: IntegrationBackend):
    """Like fibre_integrate, also reporting which declared supports survive.

    The returned set collects the base_support boxes of the terms whose
    fibre integral is nonzero; it is contained in the set of all declared
    supports, which is the structural form of supp p_!(omega) lying over
    the base projection of supp omega.
    """
    total = SuperFunction.zero(base)
    support = set()
    for term in terms:
        _check_fibre_term(term.base_function, term.fibre_section, base, fibre)
        value = integrate(term.fibre_section, backend)
        piece = term.base_function * value
        total = total + piece
        if not piece.is_zero() and term.base_support is not None:
            support.add(term.base_support)
    return total, frozenset(support)


def fibre_integrate_section(omega: BerezinSection, base: SuperDomainShape,
                            fibre: SuperDomainShape,
                            backend: IntegrationBackend) -> BerezinSection:
    """Fibre integration of a density on a trivial bundle, as a base density."""
    terms = split_section(omega, base, fibre)
    value = fibre_integrate(terms, base, fibre, backend)
    base_tag = omega.even_names[:base.m] + omega.odd_names[:base.n]
    return BerezinSection(base, value, base_tag, omega.caveats)
