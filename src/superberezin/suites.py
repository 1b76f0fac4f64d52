"""Seeded verification suites and worked examples behind the ``verify``
and ``examples run`` CLI subcommands.

Each suite or example runs a batch of exact identity checks and returns one
CheckLine per identity instance; nothing here is approximate, a FAIL
means the equality genuinely failed.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction
from itertools import combinations, product as grid

from . import groups, linalg
from .berezin import (
    BerezinSection,
    GAUSSIAN,
    box_backend,
    fibre_integrate_section,
    integrate,
    product_section,
    pullback_section,
)
from .errors import StructureError, SuperBerezinError
from .grassmann import (EVEN, ODD, GrassmannElement, Parity, _add_terms,
                        _Exact, _layout, _mask, _stored)
from .koszul import homological_berezinian
from .lie_super import (SubalgebraSpec, abelian_algebra, change_basis,
                        gl11_algebra, unimodularity_check, validate)
from .supergroup import (_fubini_stage, _product_stage, fubini_check,
                         group_lie_algebra, product_formula_check,
                         solve_invariant_density)
from .supermatrix import SuperMatrix, _trusted
from .superdomain import (
    Interval,
    Polynomial,
    REALLINE,
    SuperDomainShape,
    SuperFunction,
    SuperMorphism,
    shape_product,
)


class CheckLine:
    __slots__ = ("name", "passed", "lhs", "rhs")

    def __init__(self, name: str, passed: bool, lhs: str, rhs: str):
        self.name = name
        self.passed = passed
        self.lhs = lhs
        self.rhs = rhs

    @classmethod
    def equal(cls, name: str, lhs, rhs) -> CheckLine:
        """The line comparing two values, each side printed as it is.

        A passing pair of exact values of one type is printed once: such
        values are stored alike, or are constants, which print by value
        whatever their generator count or shape."""
        passed = lhs == rhs
        text = str(lhs)
        if passed and type(lhs) is type(rhs) and isinstance(lhs, _Exact):
            return cls(name, passed, text, text)
        return cls(name, passed, text, str(rhs))

    def render(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"{verdict} {self.name} lhs={self.lhs} rhs={self.rhs}"


# -- random element generation ------------------------------------------


def _randint(bits, a: int, b: int) -> int:
    """``rng.randint(a, b)`` for ``bits = rng.getrandbits`` of a
    ``random.Random``, read from the same stream: CPython 3.10 to 3.12 draw
    k = n.bit_length() bits for the n = b - a + 1 choices and redraw while
    the draw is n or more (``_randbelow_with_getrandbits``), and so does
    this, in one frame instead of three.  ``randrange(n)`` is
    ``_randint(bits, 0, n - 1)``.  An empty range (b < a) raises
    ValueError before any draw, as ``randint`` does."""
    n = b - a + 1
    if n <= 0:
        raise ValueError(f"empty range for randint({a}, {b})")
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return a + r


@functools.cache
def _monomial_keys(n: int, parity: Parity | None) -> tuple[int, ...]:
    """The term keys of the odd monomials xi^idx s^0 on n generators of one
    parity (all for None), by size and then lexicographically by index
    tuple."""
    key = _layout(n, 0).key
    return tuple(key(_mask(idx), (), 0) for size in range(n + 1)
                 if parity is None or size % 2 == parity.value
                 for idx in combinations(range(n), size))


@functools.cache
def _units(n: int) -> tuple[GrassmannElement, GrassmannElement]:
    """Zero and one of the algebra on n generators, shared by every
    supermatrix drawn over it."""
    return GrassmannElement.zero(n), GrassmannElement.one(n)


def random_grassmann(rng: random.Random, n: int, parity: Parity | None = None,
                     max_terms: int = 3,
                     ensure_body: bool = False) -> GrassmannElement:
    """Random element of the algebra on n generators, optionally homogeneous.

    With ensure_body the unit coefficient is forced nonzero (only sensible
    for even elements).  Coefficients are integers in [-3, 3].  The 1 x 1
    case of ``_drawn_block``, which draws it.
    """
    return _drawn_block(rng, n, parity, 1, 1, max_terms, ensure_body)[0][0]


_BODIES = (-3, -2, -1, 1, 2, 3)  # the forced unit coefficients


def _drawn_block(rng: random.Random, n: int, parity: Parity | None,
                 rows: int, cols: int, max_terms: int = 3,
                 diagonal_body: bool = False) -> list[list[GrassmannElement]]:
    """A rows x cols block of random elements on n generators, drawn row
    by row, the stream of as many ``random_grassmann`` calls with
    ``ensure_body`` on the diagonal when ``diagonal_body`` is set: 1 to
    ``max_terms`` terms, each an odd monomial of the parity
    (``rng.choice``) and a coefficient in [-3, 3] (``rng.randint``),
    repeats summed, and a zero unit coefficient redrawn from ``_BODIES``
    where forced.  The key table, its size and bit length and the unit key
    are looked up once per block, and each draw reads ``rng.getrandbits``
    with ``_randint``'s rejection rule inline: k = n.bit_length() bits for
    n choices, redrawn while n or more.  The errors of ``random.Random``
    come at the draw that meets them, in stream order: ValueError for
    ``max_terms`` below 1 before an entry's first bit, IndexError for a
    parity with no monomial (odd on no generators) once the term count is
    drawn.  Each term is drawn straight as a key of the element's integer
    form, and each entry built with the trusted constructor.
    """
    keys = _monomial_keys(n, parity)
    one = _layout(n, 0).key(0, (), 0)
    size, width = len(keys), len(keys).bit_length()
    count_width = max_terms.bit_length()
    bits = rng.getrandbits
    block = []
    for i in range(rows):
        row = []
        for j in range(cols):
            if max_terms < 1:
                raise ValueError(f"empty range for randint(1, {max_terms})")
            r = bits(count_width)
            while r >= max_terms:
                r = bits(count_width)
            nums = {}
            for _ in range(r + 1):
                if not size:
                    raise IndexError("Cannot choose from an empty sequence")
                r = bits(width)
                while r >= size:
                    r = bits(width)
                key = keys[r]
                r = bits(3)
                while r == 7:
                    r = bits(3)
                nums[key] = nums.get(key, 0) + r - 3
            if diagonal_body and i == j and not nums.get(one):
                r = bits(3)
                while r >= 6:
                    r = bits(3)
                nums[one] = _BODIES[r]
            if 0 in nums.values():  # rare: a cancellation; a scan beats a copy
                nums = {key: c for key, c in nums.items() if c}
            row.append(_stored(GrassmannElement, n, 1, nums))
        block.append(row)
    return block


def _body_matrix(block) -> list[list[int]]:
    """The bodies of drawn entries, ints: their terms carry no power of s
    and have denominator 1."""
    one = _layout(block[0][0].generator_count, 0).key(0, (), 0)
    return [[e.nums.get(one, 0) for e in row] for row in block]


def random_even_supermatrix(rng: random.Random, p: int, q: int,
                            n: int) -> SuperMatrix:
    """Random invertible even supermatrix over the algebra on n generators.

    Invertibility means the bodies of the diagonal blocks are invertible
    integer matrices; rejection (at most 60 draws) keeps the generator
    simple.  Each block is one ``_drawn_block`` call, in the order A, D,
    then (once both bodies are invertible) B and C: even A and D with
    their diagonal bodies forced nonzero, odd B and C.
    """
    zero, one = _units(n)
    for _ in range(60):
        A = _drawn_block(rng, n, EVEN, p, p, diagonal_body=True)
        D = _drawn_block(rng, n, EVEN, q, q, diagonal_body=True)
        if p and linalg.det(_body_matrix(A)) == 0:
            continue
        if q and linalg.det(_body_matrix(D)) == 0:
            continue
        B = _drawn_block(rng, n, ODD, p, q)
        C = _drawn_block(rng, n, ODD, q, p)
        # even A and D, odd B and C: the parities the public check asks for
        rows = [a + b for a, b in zip(A, B)] + [c + d for c, d in zip(C, D)]
        return _trusted(p, q, rows, EVEN, zero, one)
    raise RuntimeError("failed to generate an invertible supermatrix")


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
            lines.append(CheckLine.equal(f"ber-mult ({p}|{q}) #{k}", lhs, rhs))
    return lines


# -- random superfunctions ------------------------------------------------


def _drawn_terms(rng: random.Random, m: int, max_deg: int,
                 max_terms: int) -> dict:
    """The stored terms of a drawn polynomial: 1 to ``max_terms`` terms
    c x^e, c an int in [-3, 3] and each e_i in [0, max_deg], summed under
    the keys of x^e s^0 in first-drawn order, the zero sums dropped
    last."""
    bits = rng.getrandbits
    encode = _layout(0, m).key
    nums: dict = {}
    for _ in range(_randint(bits, 1, max_terms)):
        key = encode(0, [_randint(bits, 0, max_deg) for _ in range(m)], 0)
        nums[key] = nums.get(key, 0) + _randint(bits, -3, 3)
    return {key: c for key, c in nums.items() if c}


def _in_sectors(shape: SuperDomainShape, sectors: dict) -> SuperFunction:
    """The superfunction of the {mask: polynomial terms} ``sectors``, its
    keys grouped by sector in the order of ``sectors``, as the public
    constructor orders them."""
    join = shape._key_layout.join
    return _stored(SuperFunction, shape, 1, {
        join(mask, key): c for mask, nums in sectors.items()
        for key, c in nums.items()})


def random_polynomial(rng: random.Random, m: int, max_deg: int = 2,
                      max_terms: int = 2) -> Polynomial:
    """Random Laurent polynomial in m variables with int coefficients,
    drawn straight into stored form."""
    return _stored(Polynomial, m, 1, _drawn_terms(rng, m, max_deg, max_terms))


def random_superfunction(rng: random.Random, shape: SuperDomainShape,
                         max_terms: int = 4, max_deg: int = 2) -> SuperFunction:
    """Random superfunction: up to ``max_terms`` odd sectors, each drawn as
    ``random_polynomial(rng, shape.m, max_deg)`` draws, straight into stored
    form.  A repeated sector adds its draw as a polynomial sum does: a new
    or revived key goes last in its sector."""
    n = shape.n
    bits = rng.getrandbits
    sectors: dict = {}
    for _ in range(_randint(bits, 1, max_terms)):
        size = _randint(bits, 0, n)
        mask = _mask(rng.sample(range(n), size))
        _add_terms(sectors.setdefault(mask, {}),
                   _drawn_terms(rng, shape.m, max_deg, 2).items())
    return _in_sectors(shape, sectors)


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


def change_of_variables_suite(seed: int = 0):
    """integrate(pullback_section(phi, omega)) == integrate(omega), exact,
    on 60 random oriented automorphisms."""
    rng = random.Random(seed)
    shapes = ((1, 1), (2, 1), (1, 2), (2, 2))
    lines = []
    for k in range(60):
        m, n = shapes[k % len(shapes)]
        phi, target = _random_oriented_automorphism(rng, m, n)
        density = _boundary_bump(target) * random_superfunction(rng, target)
        omega = BerezinSection.make(target, density)
        lhs = integrate(pullback_section(phi, omega), box_backend())
        rhs = integrate(omega, box_backend())
        lines.append(CheckLine.equal(f"change-of-variables ({m}|{n}) #{k}",
                                     lhs, rhs))
    return lines


# -- suite: fibre-integration signs ---------------------------------------


def _gauss_shape(m: int, n: int) -> SuperDomainShape:
    return SuperDomainShape(m, (REALLINE,) * m, n)


def _gaussian_factor_density(rng: random.Random,
                             shape: SuperDomainShape) -> SuperFunction:
    """Random density whose top odd coefficient has a nonzero moment."""
    exps = tuple(2 * rng.randint(0, 2) for _ in range(shape.m))
    top = (1 << shape.n) - 1
    density = _stored(SuperFunction, shape, 1,
                      {shape._key_layout.key(top, exps, 0): rng.randint(1, 3)})
    extra = random_superfunction(rng, shape, max_terms=3)
    return density + extra.soul() if shape.n else density


def fubini_sign_grid_suite(seed: int = 0):
    """The (*) product sign and the fibre-integration identity, all dims.

    For every (m,n,p,q) in {0, 1, 2}^4, with Gaussian-class
    densities:  int(omega1 x omega2) = (-1)^{(m+n)q} int(omega1) int(omega2),
    and the same sign relates the total integral to the integral of the
    fibrewise one.
    """
    rng = random.Random(seed)
    lines = []
    for m, n, p, q in grid(range(3), repeat=4):
        base = _gauss_shape(m, n)
        fibre = _gauss_shape(p, q)
        w1 = BerezinSection.make(base, _gaussian_factor_density(rng, base))
        w2 = BerezinSection.make(fibre, _gaussian_factor_density(rng, fibre))
        sign = -1 if ((m + n) * q) % 2 else 1
        prod = product_section(w1, w2)
        total = integrate(prod, GAUSSIAN)
        split_rhs = sign * integrate(
            fibre_integrate_section(prod, base, fibre, GAUSSIAN), GAUSSIAN)
        star_rhs = sign * (integrate(w1, GAUSSIAN) * integrate(w2, GAUSSIAN))
        label = f"({m}|{n})x({p}|{q})"
        lines.append(CheckLine.equal(f"star-sign {label}", total, star_rhs))
        lines.append(CheckLine.equal(f"fibre-identity {label}",
                                     total, split_rhs))
    return lines


# -- suite: module rule and support ---------------------------------------


def module_rule_suite(seed: int = 0):
    """p_!((h f) ox omega) == h p_!(f ox omega) on 50 random sums of
    product terms, f ox omega the ``product_section`` of D(x,xi) f and
    omega, h times the coefficient (for odd h on an odd base, not h times
    the section), both sides through ``fibre_integrate_section``."""
    rng = random.Random(seed)
    bases = (SuperDomainShape(1, (Interval(0, 1),), 1),
             SuperDomainShape(0, (), 2),
             SuperDomainShape(2, (Interval(-1, 1), Interval(0, 2)), 0))
    fibres = (SuperDomainShape(0, (), 1),
              SuperDomainShape(1, (Interval(0, 1),), 0),
              SuperDomainShape(1, (Interval(-1, 2),), 1))
    lines = []
    for k in range(50):
        base = bases[k % len(bases)]
        fibre = fibres[(k // len(bases)) % len(fibres)]
        terms = []
        for _ in range(rng.randint(1, 3)):
            fn = random_superfunction(rng, base)
            sec = BerezinSection.make(fibre, random_superfunction(rng, fibre))
            terms.append((fn, sec))
        h = random_superfunction(rng, base)
        lhs = _pushed_forward([(h * fn, sec) for fn, sec in terms], base, fibre)
        rhs = h * _pushed_forward(terms, base, fibre)
        lines.append(CheckLine.equal(f"module-rule #{k}", lhs, rhs))
    return lines


def _pushed_forward(terms, base, fibre) -> SuperFunction:
    """p_! of the sum of product_section(D(x,xi) f, omega) over the terms."""
    total = sum((product_section(BerezinSection(base, fn), sec).density
                 for fn, sec in terms), SuperFunction.zero(shape_product(base, fibre)))
    return fibre_integrate_section(BerezinSection(total.shape, total), base,
                                   fibre, box_backend()).density


def support_containment_suite(seed: int = 0):
    """Declared support boxes of surviving terms stay inside the input's,
    on 12 random sums of terms.

    A term f * (section) survives when f times the fibre integral of its
    section is nonzero; its declared base box then counts as live.  The
    live boxes must be exactly those Berezin's rule on R^(0|1) predicts:
    the section's density is xi1 and f is nonzero.
    """
    rng = random.Random(seed)
    base = SuperDomainShape(1, (Interval(0, 1),), 0)
    fibre = SuperDomainShape(0, (), 1)
    lines = []
    for k in range(12):
        declared = set()
        support = set()
        expected = set()
        for _ in range(rng.randint(2, 4)):
            lo = Fraction(rng.randint(0, 2), 4)
            box = (Interval(lo, lo + Fraction(rng.randint(1, 2), 4)),)
            # half the terms integrate to zero over the fibre
            odd = rng.random() < 0.5
            density = (SuperFunction.odd_gen(fibre, 0) if odd
                       else SuperFunction.one(fibre))
            fn = random_superfunction(rng, base)
            value = integrate(BerezinSection.make(fibre, density),
                              box_backend())
            if not (fn * value).is_zero():
                support.add(box)
            if odd and not fn.is_zero():
                expected.add(box)
            declared.add(box)
        lines.append(CheckLine(
            name=f"support-containment #{k}",
            passed=support == expected and support <= declared,
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


def _borel_witness(name: str, result) -> CheckLine:
    """The Borel quotient of gl(1|1) fails unimodularity at E11, whose
    supertrace is 1."""
    return CheckLine(
        name, result.witness_name == "E11" and result.witness_supertrace == 1,
        f"{result.witness_name}: {result.witness_supertrace}", "E11: 1")


def unimodularity_suite(seed: int = 0):
    """Unimodularity verdicts, stable under 10 adapted changes of basis
    each."""
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
        report = validate(g)
        if not report.ok:
            raise StructureError(f"case algebra {label} is invalid: "
                                 + "; ".join(report.failures))
        result = unimodularity_check(g, SubalgebraSpec(g, span))
        lines.append(CheckLine.equal(f"unimodularity {label}",
                                     result.verdict, expected))
        if label == "gl11 borel":
            lines.append(_borel_witness("unimodularity borel witness",
                                        result))
        for t in range(10):
            P = _random_adapted_change(rng, g, span)
            g2 = change_basis(g, P)
            redo = unimodularity_check(g2, SubalgebraSpec(g2, span))
            lines.append(CheckLine.equal(
                f"unimodularity {label} basis-change #{t}",
                redo.verdict, expected))
    return lines


# -- quotient and product checks over the built-in charts ----------------


def homological_rank_suite():
    """The Berezinian line has rank one and parity n mod 2, recomputed
    from the homology of the Koszul-type complex rather than from the
    dual-determinant model."""
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
    nums = _add_terms(_drawn_terms(rng, shape.m, 3, 2),
                      [(_layout(0, shape.m).key(0, (0,) * shape.m, 0),
                        rng.randint(1, 3))])
    return f + _in_sectors(shape, {(1 << shape.n) - 1: nums})


def fubini_quotient_suite(seed: int = 0):
    """Staged integration over the built-in quotient pairs (four random
    integrands each, the quotient's densities computed once), plus
    agreement of the staging sign with the tensor-factorization rule
    computed from independently extracted Lie algebra dimensions.  An
    example that raises ends in one FAIL line, lhs the error's class, rhs
    its message; its integrands are drawn first, as if it had passed."""
    rng = random.Random(seed)
    lines = []
    for ex in groups.fubini_builtins():
        drawn = [_random_group_function(rng, ex.group.shape) for _ in range(4)]
        try:
            check = _fubini_stage(ex.group, ex.subgroup, ex.section, ex.backend)
            for k, f in enumerate(drawn):
                report = check(f)
                lines.append(CheckLine.equal(f"fubini {ex.name} case {k}",
                                             report.lhs, report.rhs))
            g = group_lie_algebra(ex.group)
            h = group_lie_algebra(ex.subgroup.subgroup)
            alg_sign = -1 if (h.odd_count * (g.dim - h.dim)) % 2 else 1
            lines.append(CheckLine.equal(f"fubini {ex.name} sign consistency",
                                         report.sign, alg_sign))
        except SuperBerezinError as exc:
            lines.append(CheckLine(f"fubini {ex.name} error", False,
                                   type(exc).__name__, str(exc)))
    return lines


def product_formula_suite(seed: int = 0):
    """The product-of-subgroups change of variables in both factor orders
    (five random integrands each, the densities and the modular ratio
    computed once per order), with the modular ratio checked against
    frozen conjugation data.  An example that raises ends as above."""
    rng = random.Random(seed)
    lines = []
    for ex in groups.product_builtins():
        drawn = [_random_group_function(rng, ex.group.shape) for _ in range(5)]
        try:
            check = _product_stage(ex.group, ex.left, ex.right, ex.backend)
            for k, f in enumerate(drawn):
                report = check(f)
                lines.append(CheckLine.equal(f"product {ex.name} case {k}",
                                             report.lhs, report.rhs))
            # the right side prints the chart's name for the ratio
            lines.append(CheckLine(f"product {ex.name} modular ratio",
                                   report.ratio == ex.modular_ratio,
                                   str(report.ratio), ex.ratio_label))
            lines.append(CheckLine.equal(f"product {ex.name} constant",
                                         report.constant, ex.modular_constant))
        except SuperBerezinError as exc:
            lines.append(CheckLine(f"product {ex.name} error", False,
                                   type(exc).__name__, str(exc)))
    return lines


def invariant_density_suite():
    """The left-invariant density of every built-in chart is unique up to
    scale within the default ansatz."""
    lines = []
    for G in groups.builtin_groups():
        result = solve_invariant_density(G, side="left")
        lines.append(CheckLine.equal(
            f"left density of {G.name}: solution dimension",
            result.dimension, 1))
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
# the suites called with no argument; every other one takes ``seed``
UNSEEDED = frozenset({"berezinian-line", "invariant-density"})


# -- worked examples behind ``examples run`` ---------------------------------
# Each runner looks its factory up in ``groups`` when it runs, so the
# example checked is the one ``groups`` holds at that moment.


def _fubini_example(ex: groups.FubiniExample) -> list[CheckLine]:
    report = fubini_check(ex.group, ex.subgroup, ex.section, ex.test_function,
                          backend=ex.backend)
    return [CheckLine.equal(f"{ex.name} staged integral",
                            report.lhs, report.rhs),
            CheckLine.equal(f"{ex.name} staging sign",
                            report.sign, ex.staging_sign)]


def _product_examples() -> list[CheckLine]:
    lines = []
    for ex in groups.product_builtins():
        report = product_formula_check(ex.group, ex.left, ex.right,
                                       ex.test_function, backend=ex.backend)
        lines.append(CheckLine.equal(f"{ex.name} staged integral",
                                     report.lhs, report.rhs))
        lines.append(CheckLine.equal(f"{ex.name} modular ratio",
                                     report.ratio, ex.modular_ratio))
    return lines


def _gl11_quotients() -> list[CheckLine]:
    g = group_lie_algebra(groups.gl11_group(),
                          names=("E11", "E22", "E12", "E21"))
    lines = []
    for label, span in [("h=0", frozenset()),
                        ("h=span(E11)", frozenset({0})),
                        ("h=span(E11,E22)", frozenset({0, 1})),
                        ("h=all", frozenset(range(4)))]:
        result = unimodularity_check(g, SubalgebraSpec(g, span))
        lines.append(CheckLine.equal(f"gl11 {label}", result.verdict,
                                     "UNIMODULAR"))
    return lines


def _borel_quotient() -> list[CheckLine]:
    g = gl11_algebra()
    result = unimodularity_check(g, SubalgebraSpec(g, frozenset({0, 1, 2})))
    return [CheckLine.equal("gl11 borel verdict",
                            result.verdict, "NOT_UNIMODULAR"),
            _borel_witness("gl11 borel witness", result)]


EXAMPLES = {
    "fubini-ax+b": ("staged integration over the scaling-shift chart "
                    "modulo its odd subgroup",
                    lambda: _fubini_example(groups.axb_fubini_example())),
    "heisenberg-fubini": ("staged integration over the odd Heisenberg "
                          "chart modulo its centre",
                          lambda: _fubini_example(
                              groups.heisenberg_fubini_example())),
    "product-ax+b": ("the scaling-shift chart as a product of its two "
                     "subgroups, both orders", _product_examples),
    "unimod-gl11": ("unimodularity of GL(1|1) quotients", _gl11_quotients),
    "unimod-borel": ("the Borel subalgebra of gl(1|1) is not unimodular",
                     _borel_quotient),
}
