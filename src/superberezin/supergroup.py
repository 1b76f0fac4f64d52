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
* Invariant densities have a closed form: the density that is 1 at the
  unit is rho_L(g) = Ber(d(g.x)/dx at x = e)^-1, and rho_R likewise from
  x.g (``haar_density``).  Every Haar, subgroup and quotient density the
  Fubini and product checks use is derived from it, never declared.  The
  ansatz solver of Ber(J_g) T_g^* rho = rho, with g a generalized group
  element (fresh polynomial variables and fresh odd generators), is kept
  as the uniqueness cross-check; an optional prefactor widens its ansatz
  beyond polynomials (the right density of the scaling-shift chart is
  a^-1).
* Modular data: Ad_h is the Jacobian of conjugation by a generalized
  subgroup element, taken at the unit, the product of the differentials
  of its two translations by the chain rule (``_adjoint``), and its
  Berezinian restricted to the subgroup directions versus the full chart
  gives the density ratio appearing in the product-of-subgroups formula.

Every generalized point g (or h) is the first factor of the doubled
chart ``shape_product`` and the live copy x the second, each read off by
``projection``: the left translation x |-> g.x is ``mul`` itself.

The Fubini and product checks come in two steps.  Their densities
depend on the charts only, never on the integrand, so a private stage
(``_fubini_stage``, ``_product_stage``) computes them, with the
normalization test, once per quotient or pair of subgroups and returns
the step that integrates one f.  ``fubini_check`` and
``product_formula_check`` are a stage and one step; the ``verify``
suites stage each example once and run every integrand through it.
Nothing is cached across calls.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from typing import Callable, Sequence

from .berezin import (
    BerezinSection,
    IntegrationBackend,
    fibre_integrate_section,
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
from .grassmann import (EVEN, ODD, Scalar, _Immutable, _mask, _quotient,
                        _rational, koszul_sign)
from .lie_super import LieSuperAlgebra, ValidationReport, validate
from .linalg import nullspace
from .superdomain import (
    Polynomial,
    SuperDomainShape,
    SuperFunction,
    SuperMorphism,
    compose,
    directions,
    jacobian_rows,
    morphism_product,
    pair,
    projection,
    pullback,
    shape_product,
)
from .superdomain import _differential, _evaluate, _exact_point, _puller
from .supermatrix import SuperMatrix, _trusted

_EMPTY = SuperDomainShape(0, (), 0)


class SuperGroupChart(_Immutable):
    """A chart of a supergroup: ``mul`` is a morphism
    shape_product(shape, shape) -> shape and ``inv`` one shape -> shape."""

    __slots__ = ("name", "shape", "mul", "unit", "inv")

    def __init__(self, name: str, shape: SuperDomainShape,
                 mul: SuperMorphism, unit: tuple[Fraction, ...],
                 inv: SuperMorphism):
        unit = tuple(Fraction(_rational(x)) for x in unit)
        if len(unit) != shape.m:
            raise DimensionError("unit point has wrong length")
        if mul.source != shape_product(shape, shape) or mul.target != shape:
            raise DimensionError("multiplication has the wrong shape")
        if inv.source != shape or inv.target != shape:
            raise DimensionError("inversion has the wrong shape")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "mul", mul)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "inv", inv)

    def unit_morphism(self) -> SuperMorphism:
        return SuperMorphism.constant_point(self.shape, self.shape, self.unit)


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


class SubgroupSpec(_Immutable):
    """A subgroup presented by its own chart plus an embedding morphism,
    subgroup.shape -> parent.shape."""

    __slots__ = ("parent", "subgroup", "embedding", "name")

    def __init__(self, parent: SuperGroupChart, subgroup: SuperGroupChart,
                 embedding: SuperMorphism, name: str = ""):
        if embedding.source != subgroup.shape \
                or embedding.target != parent.shape:
            raise DimensionError("embedding has the wrong shape")
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "subgroup", subgroup)
        object.__setattr__(self, "embedding", embedding)
        object.__setattr__(self, "name", name)


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
                        name=f"{G.name} (full)")


def trivialization(G: SuperGroupChart, H: SubgroupSpec,
                   section: SuperMorphism) -> SuperMorphism:
    """base x H -> G, (u, h) |-> section(u) * emb(h), for a section
    base -> G of the projection onto G/H."""
    return compose(morphism_product(section, H.embedding), G.mul)


# ---------------------------------------------------------------------------
# Lie algebra extraction


def group_lie_algebra(G: SuperGroupChart,
                      names: Sequence[str] | None = None) -> LieSuperAlgebra:
    """Structure constants from the second-order jet of mul at the unit.

    The bracket is read in the plain-entries convention
    [X, Y]_k = sum over a, b of x_a y_b c_ab^k, with no Koszul sign
    between the entries of X and Y.  On the GL(1|1) matrix chart this
    gives back gl11_algebra() exactly, odd-odd entries included, as
    test_gl11_chart_matches_matrix_unit_constants in the tests pins.

    The jet is read in one pass over mul's stored terms (``_jet_terms``),
    and each sum of terms is evaluated once at the doubled unit, in the
    order a ascending, b >= a, component, jet(a, b) before jet(b, a): a
    negative exponent at a zero unit or a power of s raises there.
    """
    m, n = G.shape.m, G.shape.n
    if names is None:
        names = tuple(f"x{i + 1}" for i in range(m)) \
            + tuple(f"xi{j + 1}" for j in range(n))
    parities = [EVEN] * m + [ODD] * n
    unit2 = _exact_point(2 * m, tuple(G.unit) + tuple(G.unit))
    comps = [G.mul.component(k) for k in range(m + n)]
    buckets = _jet_terms(comps, m, n)

    def jet(bucket: dict | None, k: int) -> Fraction:
        terms = bucket and bucket.get(k)
        return _evaluate(comps[k].den, terms, unit2).rational if terms else 0

    brackets = {}
    for a in range(m + n):
        for b in range(a, m + n):
            ab, ba = buckets.get((a, b)), buckets.get((b, a))
            if ab or ba:
                koszul = koszul_sign(parities[a], parities[b])
                vec = tuple(jet(ab, k) - koszul * jet(ba, k)
                            for k in range(m + n))
                if any(vec):
                    brackets[(a, b)] = vec
    algebra = LieSuperAlgebra(names, parities, brackets)
    report = validate(algebra)
    if not report.ok:
        raise StructureError(
            "extracted structure constants are inconsistent: "
            + "; ".join(report.failures))
    return algebra


def _jet_terms(comps: Sequence[SuperFunction], m: int, n: int) -> dict:
    """{(a, b): {k: [(exps, numerator)]}}: the body of d_b d_a comps[k]
    over comps[k].den, a a direction of the doubled chart's first factor
    and b of its second.  A term keeps a body only if its odd mask holds
    at most one letter of each factor: that letter is the factor's
    direction, or with none each even variable of nonzero exponent is.
    Each left derivative drops the lowest letter left: no sign arises."""
    buckets = {}
    for k, comp in enumerate(comps):
        for mask, exps, power, c in comp.shape._key_layout.unpacked(comp.nums):
            lo, hi = mask & ((1 << n) - 1), mask >> n
            if lo & (lo - 1) or hi & (hi - 1):
                continue
            for a, c1, e1 in _one_derivative(lo, exps + (power,), c, 0, m):
                for b, c2, e2 in _one_derivative(hi, e1, c1, m, m):
                    buckets.setdefault((a, b), {}).setdefault(k, []) \
                        .append((e2, c2))
    return buckets


def _one_derivative(letter: int, exps: tuple, c: int, offset: int, m: int):
    """(direction, numerator, exps) of a term's derivatives in one factor."""
    if letter:
        return [(m + letter.bit_length() - 1, c, exps)]
    return [(i, c * e, exps[:offset + i] + (e - 1,) + exps[offset + i + 1:])
            for i, e in enumerate(exps[offset:offset + m]) if e]


# ---------------------------------------------------------------------------
# invariant densities


def _translation_by_generalized_point(G: SuperGroupChart,
                                      side: str) -> SuperMorphism:
    """T_g on the doubled chart, g the first factor and the live copy x
    the second: g.x is mul itself, x.g is mul after the factor swap."""
    if side == "left":
        return G.mul
    if side == "right":
        s = G.shape
        return compose(pair(projection(s, s, 2), projection(s, s, 1)), G.mul)
    raise StructureError("side must be 'left' or 'right'")


def haar_density(G: SuperGroupChart, side: str = "left") -> BerezinSection:
    """The left- (or right-) invariant density that is 1 at the unit:
    rho(g) = Ber(d(g.x)/dx at x = e)^-1, with x.g for the right side: the
    differential of ``_translation_by_generalized_point`` in x at x = e."""
    s = G.shape
    trans = _translation_by_generalized_point(G, side)
    jac = _differential(trans, directions(s, s.m, s.n),
                        pair(SuperMorphism.identity(s), G.unit_morphism()))
    return BerezinSection(s, jac.berezinian().inv_even())


class InvariantDensityResult(_Immutable):
    __slots__ = ("side", "dimension", "sections", "max_degree")

    def __init__(self, side: str, dimension: int,
                 sections: tuple[BerezinSection, ...], max_degree: int):
        object.__setattr__(self, "side", side)
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "sections", sections)
        object.__setattr__(self, "max_degree", max_degree)

    @property
    def density(self) -> SuperFunction:
        return self.sections[0].density


def solve_invariant_density(G: SuperGroupChart, side: str = "left",
                            max_degree: int = 4,
                            prefactor: SuperFunction | None = None
                            ) -> InvariantDensityResult:
    """Exact solution space of Ber(J_g) T_g^* rho = rho within the ansatz
    rho = prefactor * (polynomial of even degree <= max_degree, any odd
    monomials).  Empty solution space raises InconclusiveError: the true
    density may simply lie outside the ansatz.

    Each unknown's image costs one product, not a pullback: T_g^* is an
    algebra morphism, so the image of a monomial is the image of a smaller
    one times a single component of T_g (see ``_ansatz_rows``).  The
    unknowns are walked in sorted order, in which every such smaller
    monomial comes first.

    An unknown that is alone in reaching a residual coefficient is 0 (its
    row is a_u c = 0 with c != 0), so only the other unknowns go to
    ``nullspace``, over the coefficients two or more of them reach, and
    each kernel vector is 0 at the pinned ones.  Setting a_u = 0 in the
    other rows is a sequence of row operations, so the reduced row echelon
    form, and with it the basis and its order, is that of the whole system.
    """
    m = G.shape.m
    unknowns, unpinned, rows = _ansatz_rows(G, side, max_degree, prefactor)
    kernel = nullspace(list(rows.values()), ncols=len(unpinned))
    if not kernel:
        raise InconclusiveError(
            f"no {side}-invariant density within the polynomial ansatz "
            f"(degree {max_degree}); a larger ansatz or a declared "
            "prefactor may still succeed")

    kept = [unknowns[u] for u in unpinned]
    sections = []
    for vec in kernel:
        lead = next(c for c in vec if c)
        density = SuperFunction(G.shape, [
            (odd_part, Polynomial(m, {exps: Fraction(c, lead)}))
            for (odd_part, exps), c in zip(kept, vec) if c])
        if prefactor is not None:
            density = prefactor * density
        sections.append(BerezinSection.make(G.shape, density))
    return InvariantDensityResult(side, len(sections), tuple(sections),
                                  max_degree)


def _ansatz_rows(G: SuperGroupChart, side: str, max_degree: int,
                 prefactor: SuperFunction | None
                 ) -> tuple[list[tuple], list[int],
                            dict[int, dict[int, Fraction]]]:
    """The ansatz monomials (odd index, exponents), sorted; the indices of
    those ``_pinned_system`` leaves unpinned; and its rows: one sparse row
    {position in the unpinned list: coefficient} per (odd index, exponent)
    coefficient of the residual F * T_g^*(phi) - phi that two or more
    unknowns reach, where F is the Berezinian factor with the prefactor's
    correction included.  An unknown that alone reaches a coefficient is
    pinned to 0 there, and gets no column."""
    m, n = G.shape.m, G.shape.n
    trans = _translation_by_generalized_point(G, side)
    factor = _differential(trans, directions(G.shape, m, n)).berezinian()
    if prefactor is not None:
        if prefactor.shape != G.shape:
            raise DimensionError("prefactor on the wrong shape")
        lifted = prefactor.embed(trans.source, m, n)
        factor = factor * pullback(trans, prefactor) * lifted.inv_even()

    unknowns = sorted(
        (odd_part, exps)
        for size in range(n + 1) for odd_part in combinations(range(n), size)
        for exps in product(range(max_degree + 1), repeat=m)
        if sum(exps) <= max_degree)

    # F * T_g^*(xi^I x^e) from a smaller monomial's image and one component
    # of T_g: lower the last nonzero exponent by one, or, when e = 0, drop
    # the last odd letter, which multiplies back on the right in xi order
    # (no sign).  Both predecessors sort before (I, e), so the sorted walk
    # always finds them built.
    zero = (0,) * m
    key_of = trans.source._key_layout.key
    images: dict[tuple, SuperFunction] = {}
    residuals = []
    for odd_part, exps in unknowns:
        if any(exps):
            k = max(i for i, e in enumerate(exps) if e)
            lower = exps[:k] + (exps[k] - 1,) + exps[k + 1:]
            image = images[(odd_part, lower)] * trans.even_components[k]
        elif odd_part:
            image = images[(odd_part[:-1], zero)] \
                * trans.odd_components[odd_part[-1]]
        else:
            image = factor
        images[(odd_part, exps)] = image
        # a coefficient is keyed by the stored key; minus phi itself, a
        # function of the live copy, sits at xi^I x^e, I after g's n odd
        # generators and e after g's m exponents; over den 1 the numerators
        # are the coefficients
        den = image.den
        residual = dict(image.nums) if den == 1 else {
            key: _quotient(c, den) for key, c in image.nums.items()}
        own = key_of(_mask(odd_part) << n, zero + exps, 0)
        c = residual.pop(own, 0) - 1
        if c:
            residual[own] = c
        residuals.append(residual)
    unpinned, rows = _pinned_system(residuals)
    return unknowns, unpinned, rows


def _pinned_system(residuals: Sequence[dict[int, Fraction]]
                   ) -> tuple[list[int], dict[int, dict[int, Fraction]]]:
    """The system sum over u of a_u residuals[u][key] = 0, one equation per
    key, each residual holding only nonzero coefficients, after the
    singleton-row reduction of LP presolve: a key that only u reaches pins
    a_u = 0.  Returns the unknowns left unpinned, in order, and one sparse
    row {position in that list: coefficient} per key that two or more
    unknowns reach, left out where every one of them is pinned."""
    first: dict[int, int] = {}  # key -> the first unknown that reaches it
    shared = set()
    for u, residual in enumerate(residuals):
        for key in residual:
            if key in first:
                shared.add(key)
            else:
                first[key] = u
    pinned = {u for key, u in first.items() if key not in shared}
    unpinned = [u for u in range(len(residuals)) if u not in pinned]
    rows: dict[int, dict[int, Fraction]] = {}
    for col, u in enumerate(unpinned):
        for key, c in residuals[u].items():
            if key in shared:
                rows.setdefault(key, {})[col] = c
    return unpinned, rows


# ---------------------------------------------------------------------------
# modular Berezinians


def _embedding_directions(H: SubgroupSpec) -> list[int]:
    """Indices of parent directions hit by the embedding differential at the
    unit; requires the embedding to be coordinate-aligned there."""
    emb = H.embedding
    rows = jacobian_rows(emb, directions(emb.source))
    point = list(H.subgroup.unit)
    dirs = []
    for row in rows:
        hits = []
        for c, entry in enumerate(row):
            value = entry.evaluate_body(point).rational
            if value:
                hits.append((c, value))
        if len(hits) != 1 or hits[0][1] != 1:
            raise StructureError(
                "subgroup embedding is not coordinate-aligned at the unit")
        dirs.append(hits[0][0])
    if len(set(dirs)) != len(dirs):
        raise StructureError("embedding directions collide")
    return dirs


def _adjoint(G: SuperGroupChart, H: SubgroupSpec) -> SuperMatrix:
    """Ad_h, the differential of conjugation x |-> h.x.h^-1 at x = e, over
    the subgroup coordinates, by the chain rule: conjugation is x |-> h.x
    followed by z |-> z.h^-1, and J^(psi o phi) = J^phi . phi^*(J^psi), so
    Ad_h is d(h.x)/dx at x = e times d(z.h^-1)/dz at z = h, two
    differentials of ``G.mul``; only h^-1 is a composite."""
    Hsh, Gsh = H.subgroup.shape, G.shape
    h = H.embedding
    left = _differential(G.mul, directions(Gsh, Gsh.m, Gsh.n), pair(
        h, SuperMorphism.constant_point(Hsh, Gsh, G.unit)))
    right = _differential(G.mul, directions(Gsh), pair(h, compose(h, G.inv)))
    return left * right


def modular_berezinian(G: SuperGroupChart, H: SubgroupSpec
                       ) -> tuple[SuperFunction, SuperFunction]:
    """(Ber of Ad_h on the subgroup directions, Ber of Ad_h on the whole
    chart), both exact superfunctions of the subgroup coordinates."""
    if H.parent is not G and H.parent.shape != G.shape:
        raise DimensionError("subgroup of a different chart")
    ad = _adjoint(G, H)
    ber_u = ad.berezinian()

    mG, nG = G.shape.m, G.shape.n
    dirs = _embedding_directions(H)
    outside = [k for k in range(mG + nG) if k not in dirs]
    for r in dirs:
        for c in outside:
            if not ad.entries[r][c].is_zero():
                raise StructureError(
                    "conjugation does not preserve the subgroup directions")
    # the even directions of H hit even ones of G, so dirs lists evens first
    sub = [[ad.entries[r][c] for c in dirs] for r in dirs]
    ad_h = _trusted(sum(1 for k in dirs if k < mG),
                    sum(1 for k in dirs if k >= mG), sub, EVEN, ad.zero, ad.one)
    return ad_h.berezinian(), ber_u


# ---------------------------------------------------------------------------
# quotient integration


class FubiniReport(_Immutable):
    __slots__ = ("sign", "lhs", "rhs", "fibre_function", "caveats")

    def __init__(self, sign: int, lhs: Scalar, rhs: Scalar,
                 fibre_function: SuperFunction, caveats: tuple[str, ...] = ()):
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "fibre_function", fibre_function)
        object.__setattr__(self, "caveats", caveats)

    @property
    def passed(self) -> bool:
        return self.lhs == self.rhs


def fubini_check(G: SuperGroupChart, H: SubgroupSpec,
                 section: SuperMorphism, f: SuperFunction, *,
                 backend: IntegrationBackend) -> FubiniReport:
    """Integrate f over the chart directly and in stages through the
    quotient; the two must agree exactly, with the stage order contributing
    (-1)^(dim h_1 * dim of the base).

    No density is declared: omega_G and rho_H are the left Haar densities
    of the two charts, and the base density b is read off tau^*omega_G at
    h = e, where rho_H is 1.  NormalizationError means that tau^*omega_G
    is not b x rho_H, so the quotient chart carries no such density.

    ``backend`` integrates over G, the base and the fibre H.  An explicit
    box is in base x H order, tau's source: the base takes its leading
    base.m intervals, H its trailing H.m, and tau must carry each even
    axis of base x H to G's axis at the same place.

    The densities depend on (G, H, section) only, never on f: this is
    ``_fubini_stage`` followed by its per-integrand step on f, and a caller
    with many integrands over one quotient stages it once."""
    return _fubini_stage(G, H, section, backend)(f)


def _fubini_stage(G: SuperGroupChart, H: SubgroupSpec,
                  section: SuperMorphism, backend: IntegrationBackend
                  ) -> Callable[[SuperFunction], FubiniReport]:
    """Everything of ``fubini_check`` but its two integrals of f: the Haar
    densities, tau and tau^*omega_G, the base density and its
    factorization test (NormalizationError here), the fibre density and
    the sign.  Returns the step f -> FubiniReport, pulling f by tau's puller."""
    base, Hsh = section.source, H.subgroup.shape
    omega_G, rho_H = haar_density(G), haar_density(H.subgroup)
    tau = trivialization(G, H, section)
    pull_tau = _puller(tau)
    pulled = pullback_section(tau, omega_G)

    # b is even, as every density of an even morphism is, so of what
    # product_section does to it only the basis sign needs undoing
    at_unit = pair(SuperMorphism.identity(base),
                   SuperMorphism.constant_point(base, Hsh, H.subgroup.unit))
    b = pullback(at_unit, pulled.density)
    b = -b if (base.n * Hsh.m) % 2 else b
    factored = product_section(BerezinSection(base, b), rho_H)
    if pulled.density != factored.density:
        raise NormalizationError(
            "the total density does not factor as base x subgroup density "
            "through the trivialization",
            discrepancy=pulled.density - factored.density)

    fibre_density = product_section(BerezinSection.make(base, 1), rho_H)
    on_base = backend._on(slice(base.m))
    on_fibre = backend._on(slice(base.m, None))
    sign = -1 if (Hsh.n * (base.m + base.n)) % 2 else 1

    def check(f: SuperFunction) -> FubiniReport:
        lhs = integrate(function_times_section(f, omega_G), backend)
        f_H = fibre_integrate_section(
            function_times_section(pull_tau(f), fibre_density), base,
            Hsh, on_fibre)
        staged = integrate(function_times_section(b, f_H), on_base)
        return FubiniReport(sign, lhs, sign * staged, f_H.density,
                            pulled.caveats)
    return check


# ---------------------------------------------------------------------------
# product of two subgroups


class ProductFormulaReport(_Immutable):
    __slots__ = ("constant", "ratio", "lhs", "rhs", "caveats")

    def __init__(self, constant: Scalar, ratio: SuperFunction, lhs: Scalar,
                 rhs: Scalar, caveats: tuple[str, ...] = ()):
        object.__setattr__(self, "constant", constant)
        # on the second subgroup's chart
        object.__setattr__(self, "ratio", ratio)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "caveats", caveats)

    @property
    def passed(self) -> bool:
        return self.lhs == self.rhs


def _candidate_multiple(f1: SuperFunction, f2: SuperFunction) -> Scalar | None:
    """The only c that can give f1 = c f2, read off at the first coefficient
    of f2 that is a single power of s (an invertible value); None where
    there is none."""
    split = f2.shape._key_layout.split
    for key in f2.nums:
        mask, exps, _ = split(key)
        coeff = f2._sector(mask).coefficient(exps)
        if len(coeff.nums) == 1:
            return f1._sector(mask).coefficient(exps) / coeff
    return None


def product_formula_check(G: SuperGroupChart, M: SubgroupSpec,
                          H: SubgroupSpec, f: SuperFunction, *,
                          backend: IntegrationBackend
                          ) -> ProductFormulaReport:
    """Check integral over G of f against the integral over M x H of the
    pulled-back integrand weighted by Ber(Ad_h on h)/Ber(Ad_h on g) and the
    product of the subgroup densities, all three densities the charts'
    left Haar densities.

    The densities, the ratio and the constant depend on (G, M, H) only:
    this is ``_product_stage`` followed by its per-integrand step on f."""
    return _product_stage(G, M, H, backend)(f)


def _product_stage(G: SuperGroupChart, M: SubgroupSpec, H: SubgroupSpec,
                   backend: IntegrationBackend
                   ) -> Callable[[SuperFunction], ProductFormulaReport]:
    """Everything of ``product_formula_check`` but its two integrals of f:
    the modular ratio, the weighted product density, omega_G and its
    pullback, and the constant c with its test (NormalizationError here).
    Returns the step f -> ProductFormulaReport, pulling f by one puller."""
    mul_map = compose(morphism_product(M.embedding, H.embedding), G.mul)
    pull = _puller(mul_map)
    prod_shape = mul_map.source

    ber_h, ber_u = modular_berezinian(G, H)
    ratio = ber_h * ber_u.inv_even()
    ratio_up = ratio.embed(prod_shape, M.subgroup.shape.m, M.subgroup.shape.n)
    weighted = function_times_section(
        ratio_up, product_section(haar_density(M.subgroup),
                                  haar_density(H.subgroup)))

    omega_G = haar_density(G)
    pulled = pullback_section(mul_map, omega_G)
    constant = _candidate_multiple(pulled.density, weighted.density)
    discrepancy = pulled.density if constant is None \
        else pulled.density - weighted.density * constant
    if constant is None or discrepancy:
        raise NormalizationError(
            "pullback of the total density is not a constant multiple of "
            "ratio * (product of subgroup densities)",
            discrepancy=discrepancy)

    def check(f: SuperFunction) -> ProductFormulaReport:
        lhs = integrate(function_times_section(f, omega_G), backend)
        staged = integrate(
            function_times_section(pull(f), weighted), backend)
        return ProductFormulaReport(constant, ratio, lhs, constant * staged,
                                    pulled.caveats)
    return check
