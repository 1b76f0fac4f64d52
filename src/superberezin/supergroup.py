"""Supergroup charts and their integration theory.

A supergroup is presented here by a single global chart: a shape, a
multiplication morphism on the doubled chart, a rational unit point with
vanishing odd part, and an inversion morphism.  Group laws are then
polynomial identities between morphisms and are checked exactly.

Three derived computations drive everything else.

* The Lie superalgebra is read off the bilinear cross terms of the
  multiplication at the unit: writing mul in unit-centred first-order
  form mul(s, t) = s + t + B(s, t) + ..., the bracket of coordinate
  directions is [e_i, e_j] = B(e_i, e_j) - (-1)^{|i||j|} B(e_j, e_i).
* Invariant densities are found by solving Ber(J_g) T_g^* rho = rho
  exactly, where g is a generalized group element whose even coordinates
  are fresh polynomial variables and whose odd coordinates are fresh odd
  generators.  An optional declared prefactor widens the ansatz beyond
  polynomials (the right density of the scaling-shift chart needs a^-1).
* Modular data: Ad_h is the Jacobian of conjugation by a generalized
  subgroup element, taken at the unit, and its Berezinian restricted to
  the subgroup directions versus the full chart gives the density ratio
  appearing in the product-of-subgroups formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .berezin import (
    BerezinSection,
    IntegrationBackend,
    fibre_integrate,
    function_times_section,
    integrate,
    product_section,
    pullback_section,
)
from .errors import (
    DimensionError,
    InconclusiveError,
    NormalizationError,
    StructureError,
)
from .grassmann import EVEN, ODD, Scalar
from .lie_super import LieSuperAlgebra, ValidationReport, validate
from .linalg import nullspace
from .superdomain import (
    Polynomial,
    SuperDomainShape,
    SuperFunction,
    SuperMorphism,
    compose,
    jacobian_rows,
    morphism_product,
    pair,
    pullback,
    shape_product,
    split_product_function,
)
from .supermatrix import SuperMatrix

_EMPTY = SuperDomainShape(0, (), 0)


@dataclass(frozen=True)
class SuperGroupChart:
    name: str
    shape: SuperDomainShape
    mul: SuperMorphism   # shape_product(shape, shape) -> shape
    unit: tuple[Fraction, ...]
    inv: SuperMorphism   # shape -> shape

    def __post_init__(self):
        object.__setattr__(self, "unit",
                           tuple(Fraction(x) for x in self.unit))
        if len(self.unit) != self.shape.m:
            raise DimensionError("unit point has wrong length")
        if self.mul.source != shape_product(self.shape, self.shape) \
                or self.mul.target != self.shape:
            raise DimensionError("multiplication has the wrong shape")
        if self.inv.source != self.shape or self.inv.target != self.shape:
            raise DimensionError("inversion has the wrong shape")

    def unit_morphism(self,
                      source: SuperDomainShape | None = None) -> SuperMorphism:
        return SuperMorphism.constant_point(
            source if source is not None else self.shape,
            self.shape, self.unit)


def validate_group(G: SuperGroupChart) -> ValidationReport:
    """Check the group laws as exact identities between morphisms."""
    shape = G.shape
    ident = SuperMorphism.identity(shape)
    e = G.unit_morphism()
    failures = []
    lhs = compose(morphism_product(G.mul, SuperMorphism.identity(shape)),
                  G.mul)
    rhs = compose(morphism_product(SuperMorphism.identity(shape), G.mul),
                  G.mul)
    if lhs != rhs:
        failures.append("multiplication is not associative")
    if compose(pair(e, ident), G.mul) != ident:
        failures.append("left unit law fails")
    if compose(pair(ident, e), G.mul) != ident:
        failures.append("right unit law fails")
    if compose(pair(G.inv, ident), G.mul) != e:
        failures.append("left inverse law fails")
    if compose(pair(ident, G.inv), G.mul) != e:
        failures.append("right inverse law fails")
    return ValidationReport(not failures, tuple(failures))


@dataclass(frozen=True)
class SubgroupSpec:
    """A subgroup presented by its own chart plus an embedding morphism.

    haar is the subgroup's chosen invariant density on its own chart; it
    enters the quotient and product checks.
    """

    parent: SuperGroupChart
    subgroup: SuperGroupChart
    embedding: SuperMorphism   # subgroup.shape -> parent.shape
    haar: BerezinSection
    name: str = ""

    def __post_init__(self):
        if self.embedding.source != self.subgroup.shape \
                or self.embedding.target != self.parent.shape:
            raise DimensionError("embedding has the wrong shape")
        if self.haar.shape != self.subgroup.shape:
            raise DimensionError("subgroup density on the wrong shape")


def check_subgroup(spec: SubgroupSpec) -> ValidationReport:
    G, H, emb = spec.parent, spec.subgroup, spec.embedding
    failures = []
    if compose(morphism_product(emb, emb), G.mul) != compose(H.mul, emb):
        failures.append("embedding does not intertwine multiplication")
    here = compose(SuperMorphism.constant_point(_EMPTY, H.shape, H.unit), emb)
    there = SuperMorphism.constant_point(_EMPTY, G.shape, G.unit)
    if here != there:
        failures.append("embedding does not send unit to unit")
    return ValidationReport(not failures, tuple(failures))


def full_subgroup(G: SuperGroupChart) -> SubgroupSpec:
    """G seen as a subgroup of itself — used for conjugation data."""
    return SubgroupSpec(parent=G, subgroup=G,
                        embedding=SuperMorphism.identity(G.shape),
                        haar=BerezinSection.make(G.shape, 1),
                        name=f"{G.name} (full)")


@dataclass(frozen=True)
class QuotientChartData:
    """A chart on a quotient: a section of the projection plus the chosen
    density on the base.  The induced trivialization is mul(section, emb)."""

    section: SuperMorphism          # base -> parent chart
    base_density: BerezinSection    # on section.source
    name: str = ""

    def __post_init__(self):
        if self.base_density.shape != self.section.source:
            raise DimensionError("base density on the wrong shape")

    def replace_base_density(self, density: BerezinSection) -> "QuotientChartData":
        return QuotientChartData(self.section, density, self.name)


def trivialization(G: SuperGroupChart, H: SubgroupSpec,
                   chart: QuotientChartData) -> SuperMorphism:
    """base x H -> G, (u, h) |-> section(u) * emb(h)."""
    return compose(morphism_product(chart.section, H.embedding), G.mul)


# ---------------------------------------------------------------------------
# Lie algebra extraction


def _cross_coefficient(comp: SuperFunction, first: tuple[str, int],
                       second: tuple[str, int], m: int, n: int,
                       unit2: Sequence[Fraction]) -> Fraction:
    # coefficient of (first-factor direction)*(second-factor direction) in
    # one component of mul, evaluated at the doubled unit.  Left odd
    # derivatives are applied outermost-first, so the stored coefficient
    # of xi_i eta_j (always in canonical order) is recovered unsigned.
    g = comp.derive_even(first[1]) if first[0] == "even" \
        else comp.derive_odd(first[1])
    g = g.derive_even(m + second[1]) if second[0] == "even" \
        else g.derive_odd(n + second[1])
    return g.coefficient(()).evaluate(list(unit2)).rational


def group_lie_algebra(G: SuperGroupChart,
                      names: Sequence[str] | None = None) -> LieSuperAlgebra:
    """Structure constants from the second-order jet of mul at the unit."""
    m, n = G.shape.m, G.shape.n
    if names is None:
        names = tuple(f"x{i + 1}" for i in range(m)) \
            + tuple(f"xi{j + 1}" for j in range(n))
    dirs = [("even", i) for i in range(m)] + [("odd", j) for j in range(n)]
    parities = [EVEN] * m + [ODD] * n
    unit2 = tuple(G.unit) + tuple(G.unit)
    comps = [G.mul.component(k) for k in range(m + n)]
    brackets = {}
    for a in range(m + n):
        for b in range(a, m + n):
            koszul = -1 if (parities[a] is ODD and parities[b] is ODD) else 1
            vec = tuple(
                _cross_coefficient(c, dirs[a], dirs[b], m, n, unit2)
                - koszul * _cross_coefficient(c, dirs[b], dirs[a], m, n, unit2)
                for c in comps)
            if any(vec):
                brackets[(a, b)] = vec
    algebra = LieSuperAlgebra(names, parities, brackets)
    report = validate(algebra)
    if not report.ok:
        raise StructureError(
            "extracted structure constants are inconsistent: "
            + "; ".join(report.failures))
    return algebra


# ---------------------------------------------------------------------------
# invariant densities


@dataclass(frozen=True)
class InvariantDensityResult:
    side: str
    dimension: int
    sections: tuple[BerezinSection, ...]
    max_degree: int

    @property
    def density(self) -> SuperFunction:
        return self.sections[0].density


def _translation_by_generalized_point(G: SuperGroupChart,
                                      side: str) -> SuperMorphism:
    """T_g on the doubled shape: params in the first m evens / last n odds,
    the live copy of the chart in the remaining slots."""
    m, n = G.shape.m, G.shape.n
    S = shape_product(G.shape, G.shape)
    param_evens = [SuperFunction.coordinate(S, i) for i in range(m)]
    param_odds = [SuperFunction.odd_gen(S, n + j) for j in range(n)]
    live_evens = [SuperFunction.coordinate(S, m + i) for i in range(m)]
    live_odds = [SuperFunction.odd_gen(S, j) for j in range(n)]
    if side == "left":
        evens, odds = param_evens + live_evens, param_odds + live_odds
    elif side == "right":
        evens, odds = live_evens + param_evens, live_odds + param_odds
    else:
        raise StructureError("side must be 'left' or 'right'")
    juggle = SuperMorphism(S, G.mul.source, evens, odds)
    return compose(juggle, G.mul)


def solve_invariant_density(G: SuperGroupChart, side: str = "left",
                            max_degree: int = 4,
                            prefactor: SuperFunction | None = None
                            ) -> InvariantDensityResult:
    """Exact solution space of Ber(J_g) T_g^* rho = rho within the ansatz
    rho = prefactor * (polynomial of even degree <= max_degree, any odd
    monomials).  Empty solution space raises InconclusiveError: the true
    density may simply lie outside the ansatz.
    """
    m, n = G.shape.m, G.shape.n
    S = shape_product(G.shape, G.shape)
    trans = _translation_by_generalized_point(G, side)
    live_rows = [("even", m + i) for i in range(m)] \
        + [("odd", j) for j in range(n)]
    rows = jacobian_rows(trans, live_rows)
    jac = SuperMatrix(m, n, rows, zero=SuperFunction.zero(S),
                      one=SuperFunction.one(S))
    factor = jac.berezinian()
    if prefactor is not None:
        if prefactor.shape != G.shape:
            raise DimensionError("prefactor on the wrong shape")
        lifted = prefactor.embed(S, m, 0)
        factor = factor * pullback(trans, prefactor) * lifted.inv_even()

    unknowns = []
    for odd_part in _odd_subsets(n):
        for exps in _bounded_exponents(m, max_degree):
            unknowns.append((odd_part, exps))
    unknowns.sort()

    # one sparse row per (odd index, exponent) coefficient of the residual
    rows: dict[tuple, dict[int, Fraction]] = {}
    for u, (odd_part, exps) in enumerate(unknowns):
        phi = SuperFunction(G.shape, {odd_part: Polynomial(m, {exps: 1})})
        residual = factor * pullback(trans, phi) - phi.embed(S, m, 0)
        for idx, poly in residual.coeffs.items():
            for e2, coeff in poly.terms.items():
                rows.setdefault((idx, e2), {})[u] = coeff
    kernel = nullspace(list(rows.values()), ncols=len(unknowns))
    if not kernel:
        raise InconclusiveError(
            f"no {side}-invariant density within the polynomial ansatz "
            f"(degree {max_degree}); a larger ansatz or a declared "
            "prefactor may still succeed")

    sections = []
    for vec in kernel:
        lead = next(c for c in vec if c)
        coeffs: dict[tuple, Polynomial] = {}
        for (odd_part, exps), c in zip(unknowns, vec):
            if not c:
                continue
            poly = Polynomial(m, {exps: c / lead})
            coeffs[odd_part] = coeffs.get(odd_part, Polynomial.constant(m, 0)) \
                + poly
        density = SuperFunction(G.shape, coeffs)
        if prefactor is not None:
            density = prefactor * density
        sections.append(BerezinSection.make(G.shape, density))
    return InvariantDensityResult(side, len(sections), tuple(sections),
                                  max_degree)


def _odd_subsets(n: int):
    out = [()]
    for j in range(n):
        out = out + [idx + (j,) for idx in out]
    return sorted(out)


def _bounded_exponents(m: int, max_degree: int):
    if m == 0:
        return [()]
    out = []
    for head in range(max_degree + 1):
        for tail in _bounded_exponents(m - 1, max_degree - head):
            out.append((head,) + tail)
    return out


# ---------------------------------------------------------------------------
# modular Berezinians


def _embedding_directions(H: SubgroupSpec) -> list[int]:
    """Indices of parent directions hit by the embedding differential at the
    unit; requires the embedding to be coordinate-aligned there."""
    emb = H.embedding
    Hsh, Gsh = emb.source, emb.target
    all_dirs = [("even", i) for i in range(Hsh.m)] \
        + [("odd", j) for j in range(Hsh.n)]
    rows = jacobian_rows(emb, all_dirs)
    point = list(H.subgroup.unit)
    dirs = []
    for row in rows:
        hits = []
        for c, entry in enumerate(row):
            value = entry.coefficient(()).evaluate(point).rational
            if value:
                hits.append((c, value))
        if len(hits) != 1 or hits[0][1] != 1:
            raise StructureError(
                "subgroup embedding is not coordinate-aligned at the unit")
        dirs.append(hits[0][0])
    if len(set(dirs)) != len(dirs):
        raise StructureError("embedding directions collide")
    return dirs


def modular_berezinian(G: SuperGroupChart, H: SubgroupSpec
                       ) -> tuple[SuperFunction, SuperFunction]:
    """(Ber of Ad_h on the subgroup directions, Ber of Ad_h on the whole
    chart), both exact superfunctions of the subgroup coordinates."""
    if H.parent is not G and H.parent.shape != G.shape:
        raise DimensionError("subgroup of a different chart")
    Hsh, Gsh = H.subgroup.shape, G.shape
    mH, nH, mG, nG = Hsh.m, Hsh.n, Gsh.m, Gsh.n
    S = SuperDomainShape(mH + mG, Hsh.box + Gsh.box, nG + nH)

    h_point = SuperMorphism(
        S, Hsh,
        [SuperFunction.coordinate(S, i) for i in range(mH)],
        [SuperFunction.odd_gen(S, nG + j) for j in range(nH)])
    live = SuperMorphism(
        S, Gsh,
        [SuperFunction.coordinate(S, mH + i) for i in range(mG)],
        [SuperFunction.odd_gen(S, j) for j in range(nG)])
    emb_h = compose(h_point, H.embedding)
    inv_h = compose(emb_h, G.inv)
    conj = compose(pair(compose(pair(emb_h, live), G.mul), inv_h), G.mul)

    live_dirs = [("even", mH + i) for i in range(mG)] \
        + [("odd", j) for j in range(nG)]
    rows = jacobian_rows(conj, live_dirs)

    # evaluate at the unit of the live copy; subgroup coordinates survive
    at_unit = SuperMorphism(
        Hsh, S,
        [SuperFunction.coordinate(Hsh, i) for i in range(mH)]
        + [SuperFunction.constant(Hsh, x) for x in G.unit],
        [SuperFunction.zero(Hsh) for _ in range(nG)]
        + [SuperFunction.odd_gen(Hsh, j) for j in range(nH)])
    entries = [[pullback(at_unit, entry) for entry in row] for row in rows]

    ad = SuperMatrix(mG, nG, entries, zero=SuperFunction.zero(Hsh),
                     one=SuperFunction.one(Hsh))
    ber_u = ad.berezinian()

    dirs = _embedding_directions(H)
    outside = [k for k in range(mG + nG) if k not in dirs]
    for r in dirs:
        for c in outside:
            if not entries[r][c].is_zero():
                raise StructureError(
                    "conjugation does not preserve the subgroup directions")
    sub = [[entries[r][c] for c in dirs] for r in dirs]
    ad_h = SuperMatrix(sum(1 for k in dirs if k < mG),
                       sum(1 for k in dirs if k >= mG),
                       sub, zero=SuperFunction.zero(Hsh),
                       one=SuperFunction.one(Hsh))
    return ad_h.berezinian(), ber_u


# ---------------------------------------------------------------------------
# quotient integration


@dataclass(frozen=True)
class FubiniReport:
    sign: int
    lhs: Scalar
    rhs: Scalar
    fibre_function: SuperFunction
    caveats: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return self.lhs == self.rhs


def fubini_check(G: SuperGroupChart, H: SubgroupSpec,
                 chart: QuotientChartData, f: SuperFunction,
                 omega_G: BerezinSection, *,
                 backend: IntegrationBackend,
                 fibre_backend: IntegrationBackend | None = None,
                 base_backend: IntegrationBackend | None = None
                 ) -> FubiniReport:
    """Integrate f over the chart directly and in stages through the
    quotient; the two must agree exactly, with the stage order contributing
    (-1)^(dim h_1 * dim of the base)."""
    base = chart.section.source
    Hsh = H.subgroup.shape
    tau = trivialization(G, H, chart)

    pulled = pullback_section(tau, omega_G)
    factored = product_section(chart.base_density, H.haar)
    if pulled.density != factored.density:
        raise NormalizationError(
            "the total density does not factor as base x subgroup density "
            "through the trivialization",
            discrepancy=pulled.density - factored.density)

    lhs = integrate(function_times_section(f, omega_G), backend)

    pieces = split_product_function(pullback(tau, f), base, Hsh)
    terms = [(base_part, function_times_section(fibre_part, H.haar))
             for base_part, fibre_part in pieces]
    f_H = fibre_integrate(terms, base, Hsh, fibre_backend or backend)

    sign = -1 if (Hsh.n * (base.m + base.n)) % 2 else 1
    staged = integrate(function_times_section(f_H, chart.base_density),
                       base_backend or backend)
    rhs = staged if sign == 1 else -staged
    return FubiniReport(sign, lhs, rhs, f_H, pulled.caveats)


# ---------------------------------------------------------------------------
# product of two subgroups


@dataclass(frozen=True)
class ProductFormulaReport:
    constant: Scalar
    ratio: SuperFunction      # on the second subgroup's chart
    lhs: Scalar
    rhs: Scalar
    caveats: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return self.lhs == self.rhs


def _constant_multiple(f1: SuperFunction, f2: SuperFunction) -> Scalar | None:
    """c with f1 = c f2, read off at the first coefficient of f2 that is a
    single power of s (an invertible value); None where there is none."""
    for idx, poly in f2.coeffs.items():
        for exps in poly.terms:
            coeff = poly.coefficient(exps[:-1])
            if len(coeff.terms) == 1:
                c = f1.coefficient(idx).coefficient(exps[:-1]) / coeff
                return c if f1 == f2 * c else None
    return None


def product_formula_check(G: SuperGroupChart, M: SubgroupSpec,
                          H: SubgroupSpec, f: SuperFunction,
                          omega_G: BerezinSection, *,
                          backend: IntegrationBackend,
                          product_backend: IntegrationBackend | None = None
                          ) -> ProductFormulaReport:
    """Check integral over G of f against the integral over M x H of the
    pulled-back integrand weighted by Ber(Ad_h on h)/Ber(Ad_h on g) and the
    product of the subgroup densities."""
    mul_map = compose(morphism_product(M.embedding, H.embedding), G.mul)
    prod_shape = mul_map.source

    ber_h, ber_u = modular_berezinian(G, H)
    ratio = ber_h * ber_u.inv_even()
    ratio_up = ratio.embed(prod_shape, M.subgroup.shape.m, M.subgroup.shape.n)
    weighted = function_times_section(ratio_up,
                                      product_section(M.haar, H.haar))

    pulled = pullback_section(mul_map, omega_G)
    constant = _constant_multiple(pulled.density, weighted.density)
    if constant is None:
        raise NormalizationError(
            "pullback of the total density is not a constant multiple of "
            "ratio * (product of subgroup densities)",
            discrepancy=pulled.density)

    lhs = integrate(function_times_section(f, omega_G), backend)
    staged = integrate(
        function_times_section(pullback(mul_map, f), weighted),
        product_backend or backend)
    return ProductFormulaReport(constant, ratio, lhs, constant * staged,
                                pulled.caveats)
