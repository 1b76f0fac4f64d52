"""Seeded verification suites behind the ``verify`` CLI subcommand.

Each suite runs a batch of exact identity checks and returns one
CheckLine per identity instance; nothing here is approximate, a FAIL
means the equality genuinely failed.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import linalg
from .berezin import (
    BerezinSection,
    GAUSSIAN,
    box_backend,
    fibre_integrate,
    fibre_integrate_section,
    integrate,
    product_section,
    pullback_section,
)
from .grassmann import EVEN, ODD, GrassmannElement, Parity, _element
from .supermatrix import SuperMatrix
from .superdomain import (
    Interval,
    Polynomial,
    REALLINE,
    SuperDomainShape,
    SuperFunction,
    SuperMorphism,
)


@dataclass
class CheckLine:
    name: str
    passed: bool
    lhs: str
    rhs: str

    def render(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"{verdict} {self.name} lhs={self.lhs} rhs={self.rhs}"


# -- random element generation ------------------------------------------


@functools.cache
def _monomials(n: int, parity: Parity | None) -> tuple[tuple[int, ...], ...]:
    """The index tuples on n generators of one parity (all for None), by
    size and then lexicographically."""
    return tuple(idx for size in range(n + 1)
                 if parity is None or size % 2 == parity.value
                 for idx in combinations(range(n), size))


def random_grassmann(rng: random.Random, n: int, parity: Parity | None = None,
                     max_terms: int = 3,
                     ensure_body: bool = False) -> GrassmannElement:
    """Random element of the algebra on n generators, optionally homogeneous.

    With ensure_body the unit coefficient is forced nonzero (only sensible
    for even elements).  Coefficients are integers in [-3, 3].
    """
    indices = _monomials(n, parity)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        idx = rng.choice(indices)
        coeff = rng.randint(-3, 3)
        terms[idx] = terms.get(idx, 0) + coeff
    if ensure_body and not terms.get(()):
        terms[()] = rng.choice((-3, -2, -1, 1, 2, 3))
    return _element(n, {(idx, 0): c for idx, c in terms.items() if c})


def _body_matrix(block) -> list[list[Fraction]]:
    return [[e.body().rational for e in row] for row in block]


def random_even_supermatrix(rng: random.Random, p: int, q: int,
                            n: int) -> SuperMatrix:
    """Random invertible even supermatrix over the algebra on n generators.

    Invertibility means the bodies of the diagonal blocks are invertible
    integer matrices; rejection (at most 60 draws) keeps the generator
    simple.
    """
    zero = GrassmannElement.zero(n)
    one = GrassmannElement.one(n)
    for _ in range(60):
        A = [[random_grassmann(rng, n, EVEN, ensure_body=(i == j))
              for j in range(p)] for i in range(p)]
        D = [[random_grassmann(rng, n, EVEN, ensure_body=(i == j))
              for j in range(q)] for i in range(q)]
        if p and linalg.det(_body_matrix(A)) == 0:
            continue
        if q and linalg.det(_body_matrix(D)) == 0:
            continue
        B = [[random_grassmann(rng, n, ODD) for _ in range(q)] for _ in range(p)]
        C = [[random_grassmann(rng, n, ODD) for _ in range(p)] for _ in range(q)]
        return SuperMatrix.from_blocks(A, B, C, D, zero=zero, one=one)
    raise RuntimeError("failed to generate an invertible supermatrix")


def random_odd_supermatrix(rng: random.Random, p: int, q: int, n: int) -> SuperMatrix:
    zero = GrassmannElement.zero(n)
    one = GrassmannElement.one(n)
    A = [[random_grassmann(rng, n, ODD) for _ in range(p)] for _ in range(p)]
    D = [[random_grassmann(rng, n, ODD) for _ in range(q)] for _ in range(q)]
    B = [[random_grassmann(rng, n, EVEN) for _ in range(q)] for _ in range(p)]
    C = [[random_grassmann(rng, n, EVEN) for _ in range(p)] for _ in range(q)]
    return SuperMatrix.from_blocks(A, B, C, D, ODD, zero=zero, one=one)


# -- suite: Berezinian multiplicativity ----------------------------------


def berezinian_multiplicativity_suite(seed: int = 0):
    """Ber(XY) == Ber(X) Ber(Y) on 100 random invertible pairs per shape
    over the algebra on 4 generators, exact equality."""
    rng = random.Random(seed)
    lines = []
    for (p, q) in ((1, 1), (2, 1)):
        for k in range(100):
            x = random_even_supermatrix(rng, p, q, 4)
            y = random_even_supermatrix(rng, p, q, 4)
            lhs = (x * y).berezinian()
            rhs = x.berezinian() * y.berezinian()
            lines.append(CheckLine(
                name=f"ber-mult ({p}|{q}) #{k}",
                passed=(lhs == rhs),
                lhs=str(lhs),
                rhs=str(rhs),
            ))
    return lines


# -- random superfunctions ------------------------------------------------


def random_polynomial(rng: random.Random, m: int, max_deg: int = 2,
                      max_terms: int = 2) -> Polynomial:
    terms: dict = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_deg) for _ in range(m))
        coeff = rng.randint(-3, 3)
        terms[exps] = terms.get(exps, 0) + coeff
    return Polynomial(m, terms)


def random_superfunction(rng: random.Random, shape: SuperDomainShape,
                         max_terms: int = 4, max_deg: int = 2) -> SuperFunction:
    n = shape.n
    coeffs: dict = {}
    for _ in range(rng.randint(1, max_terms)):
        size = rng.randint(0, n)
        idx = tuple(sorted(rng.sample(range(n), size)))
        poly = random_polynomial(rng, shape.m, max_deg)
        coeffs[idx] = coeffs[idx] + poly if idx in coeffs else poly
    return SuperFunction(shape, coeffs)


# -- suite: change of variables -------------------------------------------


_AXIS_STARTS = (-2, -1, 0, 1)
_AXIS_WIDTHS = (1, 2, Fraction(1, 2))
_BODY_SCALES = (1, 2, Fraction(1, 2), 3)
_BODY_SHIFTS = (0, 1, -1, Fraction(1, 2))
_ODD_SCALES = (1, -1, 2, Fraction(1, 2))


def _random_oriented_automorphism(rng: random.Random, m: int, n: int):
    """Per-axis increasing affine body composed with nilpotent shears.

    Returns (phi, omega_shape) where phi maps its own source box onto the
    target box exactly, so boundary-vanishing densities transform exactly.
    """
    src_axes = []
    tgt_axes = []
    scales = []
    shifts = []
    for _ in range(m):
        lo = rng.choice(_AXIS_STARTS)
        hi = lo + rng.choice(_AXIS_WIDTHS)
        a = rng.choice(_BODY_SCALES)
        b = rng.choice(_BODY_SHIFTS)
        src_axes.append(Interval(lo, hi))
        tgt_axes.append(Interval(a * lo + b, a * hi + b))
        scales.append(a)
        shifts.append(b)
    source = SuperDomainShape(m, tuple(src_axes), n)
    target = SuperDomainShape(m, tuple(tgt_axes), n)
    evens = []
    for i in range(m):
        comp = scales[i] * SuperFunction.coordinate(source, i) + shifts[i]
        if n >= 2 and rng.random() < 0.7:
            j, k = sorted(rng.sample(range(n), 2))
            soul = (rng.choice((1, -1, 2))
                    * SuperFunction.coordinate(source, rng.randrange(m), rng.randint(0, 2))
                    * SuperFunction.odd_gen(source, j)
                    * SuperFunction.odd_gen(source, k))
            comp = comp + soul
        evens.append(comp)
    odds = []
    for j in range(n):
        comp = rng.choice(_ODD_SCALES) * SuperFunction.odd_gen(source, j)
        for k in range(j):
            if rng.random() < 0.5:
                comp = comp + (random_polynomial(rng, m, max_deg=1)
                               * SuperFunction.odd_gen(source, k))
        odds.append(comp)
    return SuperMorphism(source, target, evens, odds), target


def _boundary_bump(shape: SuperDomainShape) -> SuperFunction:
    """Polynomial vanishing to order 2 on the boundary of the shape's box."""
    bump = SuperFunction.one(shape)
    for i, axis in enumerate(shape.box):
        x = SuperFunction.coordinate(shape, i)
        factor = (x - axis.lo) * (axis.hi - x)
        bump = bump * factor * factor
    return bump


def change_of_variables_suite(seed: int = 0, cases: int = 60):
    """integrate(pullback_section(phi, omega)) == integrate(omega), exact."""
    rng = random.Random(seed)
    shapes = ((1, 1), (2, 1), (1, 2), (2, 2))
    lines = []
    for k in range(cases):
        m, n = shapes[k % len(shapes)]
        phi, target = _random_oriented_automorphism(rng, m, n)
        density = _boundary_bump(target) * random_superfunction(rng, target)
        omega = BerezinSection.make(target, density)
        lhs = integrate(pullback_section(phi, omega), box_backend())
        rhs = integrate(omega, box_backend())
        lines.append(CheckLine(
            name=f"change-of-variables ({m}|{n}) #{k}",
            passed=(lhs == rhs), lhs=str(lhs), rhs=str(rhs)))
    return lines


# -- suite: fibre-integration signs ---------------------------------------


def _gauss_shape(m: int, n: int) -> SuperDomainShape:
    return SuperDomainShape(m, (REALLINE,) * m, n)


def _gaussian_factor_density(rng: random.Random,
                             shape: SuperDomainShape) -> SuperFunction:
    """Random density whose top odd coefficient has a nonzero moment."""
    top = Polynomial(shape.m, {
        tuple(2 * rng.randint(0, 2) for _ in range(shape.m)):
        rng.randint(1, 3)})
    density = SuperFunction(shape, {tuple(range(shape.n)): top})
    extra = random_superfunction(rng, shape, max_terms=3)
    return density + extra.soul() if shape.n else density


def fubini_sign_grid_suite(seed: int = 0, dims=(0, 1, 2)):
    """The (*) product sign and the fibre-integration identity, all dims.

    For every (m,n,p,q) over the given range, with Gaussian-class
    densities:  int(omega1 x omega2) = (-1)^{(m+n)q} int(omega1) int(omega2),
    and the same sign relates the total integral to the integral of the
    fibrewise one.
    """
    rng = random.Random(seed)
    lines = []
    for m in dims:
        for n in dims:
            for p in dims:
                for q in dims:
                    base = _gauss_shape(m, n)
                    fibre = _gauss_shape(p, q)
                    w1 = BerezinSection.make(
                        base, _gaussian_factor_density(rng, base))
                    w2 = BerezinSection.make(
                        fibre, _gaussian_factor_density(rng, fibre))
                    sign = -1 if ((m + n) * q) % 2 else 1
                    prod = product_section(w1, w2)
                    total = integrate(prod, GAUSSIAN)
                    split_rhs = sign * integrate(
                        fibre_integrate_section(prod, base, fibre, GAUSSIAN),
                        GAUSSIAN)
                    star_rhs = sign * (integrate(w1, GAUSSIAN)
                                       * integrate(w2, GAUSSIAN))
                    label = f"({m}|{n})x({p}|{q})"
                    lines.append(CheckLine(
                        name=f"star-sign {label}",
                        passed=(total == star_rhs),
                        lhs=str(total), rhs=str(star_rhs)))
                    lines.append(CheckLine(
                        name=f"fibre-identity {label}",
                        passed=(total == split_rhs),
                        lhs=str(total), rhs=str(split_rhs)))
    return lines


# -- suite: module rule and support ---------------------------------------


def module_rule_suite(seed: int = 0, cases: int = 50):
    """p_!(p^* h . omega) == h . p_!(omega) on random product terms."""
    rng = random.Random(seed)
    bases = (SuperDomainShape(1, (Interval(0, 1),), 1),
             SuperDomainShape(0, (), 2),
             SuperDomainShape(2, (Interval(-1, 1), Interval(0, 2)), 0))
    fibres = (SuperDomainShape(0, (), 1),
              SuperDomainShape(1, (Interval(0, 1),), 0),
              SuperDomainShape(1, (Interval(-1, 2),), 1))
    lines = []
    for k in range(cases):
        base = bases[k % len(bases)]
        fibre = fibres[(k // len(bases)) % len(fibres)]
        terms = []
        for _ in range(rng.randint(1, 3)):
            fn = random_superfunction(rng, base)
            sec = BerezinSection.make(fibre, random_superfunction(rng, fibre))
            terms.append((fn, sec))
        h = random_superfunction(rng, base)
        lhs = fibre_integrate([(h * fn, sec) for fn, sec in terms],
                              base, fibre, box_backend())
        rhs = h * fibre_integrate(terms, base, fibre, box_backend())
        lines.append(CheckLine(
            name=f"module-rule #{k}", passed=(lhs == rhs),
            lhs=str(lhs), rhs=str(rhs)))
    return lines


def support_containment_suite(seed: int = 0, cases: int = 12):
    """Declared support boxes of surviving terms stay inside the input's.

    A term f * (section) survives when f times the fibre integral of its
    section is nonzero; its declared base box then counts as live.
    """
    rng = random.Random(seed)
    base = SuperDomainShape(1, (Interval(0, 1),), 0)
    fibre = SuperDomainShape(0, (), 1)
    lines = []
    for k in range(cases):
        declared = set()
        support = set()
        for _ in range(rng.randint(2, 4)):
            lo = Fraction(rng.randint(0, 2), 4)
            box = (Interval(lo, lo + Fraction(rng.randint(1, 2), 4)),)
            # half the terms integrate to zero over the fibre
            density = (SuperFunction.odd_gen(fibre, 0) if rng.random() < 0.5
                       else SuperFunction.one(fibre))
            fn = random_superfunction(rng, base)
            value = integrate(BerezinSection.make(fibre, density),
                              box_backend())
            if not (fn * value).is_zero():
                support.add(box)
            declared.add(box)
        lines.append(CheckLine(
            name=f"support-containment #{k}",
            passed=support <= declared,
            lhs=f"{len(support)} live box(es)",
            rhs=f"subset of {len(declared)} declared"))
    return lines


# -- suite: unimodularity verdicts under basis changes ---------------------


def _random_adapted_change(rng: random.Random, g, span: frozenset):
    """Invertible parity-preserving matrix keeping span{e_i : i in span}.

    Columns indexed by span draw only on span rows of the same parity;
    complement columns may mix in anything of their parity.
    """
    dim = g.dim
    for _ in range(60):
        P = [[0] * dim for _ in range(dim)]
        for c in range(dim):
            for r in range(dim):
                if g.parities[r] is not g.parities[c]:
                    continue
                if c in span and r not in span:
                    continue
                P[r][c] = rng.randint(-2, 2)
        if linalg.det([row[:] for row in P]) != 0:
            return P
    raise RuntimeError("failed to generate an adapted basis change")


def unimodularity_suite(seed: int = 0, changes: int = 10):
    """Unimodularity verdicts, stable under adapted changes of basis."""
    from .lie_super import (SubalgebraSpec, abelian_algebra, change_basis,
                            gl11_algebra, unimodularity_check)
    rng = random.Random(seed)
    abelian = abelian_algebra(("a", "b", "xi", "eta"), (EVEN, EVEN, ODD, ODD))
    cases = [
        ("gl11 h=0", gl11_algebra(), frozenset(), "UNIMODULAR"),
        ("gl11 borel", gl11_algebra(), frozenset({0, 1, 2}), "NOT_UNIMODULAR"),
        ("abelian h=span(a)", abelian, frozenset({0}), "UNIMODULAR"),
        ("abelian h=span(a,xi)", abelian, frozenset({0, 2}), "UNIMODULAR"),
        ("abelian h=all", abelian, frozenset(range(4)), "UNIMODULAR"),
    ]
    lines = []
    for label, g, span, expected in cases:
        result = unimodularity_check(g, SubalgebraSpec(g, span))
        lines.append(CheckLine(
            name=f"unimodularity {label}",
            passed=(result.verdict == expected),
            lhs=result.verdict, rhs=expected))
        if label == "gl11 borel":
            lines.append(CheckLine(
                name="unimodularity borel witness",
                passed=(result.witness_name == "E11"
                        and result.witness_supertrace == 1),
                lhs=f"{result.witness_name}: {result.witness_supertrace}",
                rhs="E11: 1"))
        for t in range(changes):
            P = _random_adapted_change(rng, g, span)
            g2 = change_basis(g, P)
            redo = unimodularity_check(g2, SubalgebraSpec(g2, span))
            lines.append(CheckLine(
                name=f"unimodularity {label} basis-change #{t}",
                passed=(redo.verdict == expected),
                lhs=redo.verdict, rhs=expected))
    return lines


# -- quotient and product checks over the built-in charts ----------------


def homological_rank_suite():
    """The Berezinian line has rank one and parity n mod 2, recomputed
    from the homology of the Koszul-type complex rather than from the
    dual-determinant model."""
    from .koszul import homological_berezinian
    lines = []
    for p, q in [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2)]:
        total, parity = homological_berezinian(p, q, p + q + 2)
        expected = (1, Parity(q % 2))
        lines.append(CheckLine(
            name=f"berezinian line rank ({p}|{q})",
            passed=((total, parity) == expected),
            lhs=f"rank {total}, parity {parity}",
            rhs=f"rank 1, parity {expected[1]}"))
    return lines


def _random_group_function(rng: random.Random,
                           shape: SuperDomainShape) -> SuperFunction:
    f = random_superfunction(rng, shape, max_terms=5, max_deg=3)
    # keep a guaranteed contribution in the top odd sector so the checks
    # are not trivially 0 == 0
    top = tuple(range(shape.n))
    poly = random_polynomial(rng, shape.m, max_deg=3, max_terms=2) \
        + Polynomial.constant(shape.m, rng.randint(1, 3))
    return f + SuperFunction(shape, {top: poly})


def fubini_quotient_suite(seed: int = 0):
    """Staged integration over the built-in quotient pairs (four random
    integrands each), plus agreement of the staging sign with the
    tensor-factorization rule computed from independently extracted Lie
    algebra dimensions."""
    from .groups import fubini_builtins
    from .supergroup import fubini_check, group_lie_algebra
    rng = random.Random(seed)
    lines = []
    for ex in fubini_builtins():
        for k in range(4):
            f = _random_group_function(rng, ex.group.shape)
            report = fubini_check(ex.group, ex.subgroup, ex.chart, f,
                                  ex.omega_group, backend=ex.backend,
                                  fibre_backend=ex.fibre_backend,
                                  base_backend=ex.base_backend)
            lines.append(CheckLine(
                name=f"fubini {ex.name} case {k}",
                passed=report.passed,
                lhs=str(report.lhs), rhs=str(report.rhs)))
        g = group_lie_algebra(ex.group)
        h = group_lie_algebra(ex.subgroup.subgroup)
        alg_sign = -1 if (h.odd_count * (g.dim - h.dim)) % 2 else 1
        lines.append(CheckLine(
            name=f"fubini {ex.name} sign consistency",
            passed=(report.sign == alg_sign),
            lhs=str(report.sign), rhs=str(alg_sign)))
    return lines


def product_formula_suite(seed: int = 0):
    """The product-of-subgroups change of variables in both factor orders
    (five random integrands each), with the modular ratio checked against
    frozen conjugation data."""
    from .groups import product_builtins
    from .supergroup import product_formula_check
    rng = random.Random(seed)
    lines = []
    for ex in product_builtins():
        for k in range(5):
            f = _random_group_function(rng, ex.group.shape)
            report = product_formula_check(ex.group, ex.left, ex.right, f,
                                           ex.omega_group,
                                           backend=ex.backend)
            lines.append(CheckLine(
                name=f"product {ex.name} case {k}",
                passed=report.passed,
                lhs=str(report.lhs), rhs=str(report.rhs)))
        lines.append(CheckLine(
            name=f"product {ex.name} modular ratio",
            passed=(report.ratio == ex.modular_ratio),
            lhs=str(report.ratio), rhs=ex.ratio_label))
        lines.append(CheckLine(
            name=f"product {ex.name} constant",
            passed=(report.constant == ex.modular_constant),
            lhs=str(report.constant), rhs=str(ex.modular_constant)))
    return lines


def invariant_density_suite(max_degree: int = 4):
    """The left-invariant density of every built-in chart is unique up to
    scale within the default ansatz."""
    from .groups import builtin_groups
    from .supergroup import solve_invariant_density
    lines = []
    for G in builtin_groups():
        result = solve_invariant_density(G, side="left",
                                         max_degree=max_degree)
        lines.append(CheckLine(
            name=f"left density of {G.name}: solution dimension",
            passed=(result.dimension == 1),
            lhs=str(result.dimension), rhs="1"))
    return lines


SUITES = {
    "berezinian": berezinian_multiplicativity_suite,
    "berezinian-line": homological_rank_suite,
    "change-of-variables": change_of_variables_suite,
    "fubini-signs": fubini_sign_grid_suite,
    "module-rule": module_rule_suite,
    "support": support_containment_suite,
    "unimodularity": unimodularity_suite,
    "fubini-quotients": fubini_quotient_suite,
    "product-formula": product_formula_suite,
    "invariant-density": invariant_density_suite,
}
