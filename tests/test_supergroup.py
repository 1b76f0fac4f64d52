"""Group charts: laws, algebra extraction, invariant densities, Fubini.

The frozen values below were derived by hand before the implementation:

* ax+b with mul (a, b) * (a', b') = (aa', b + ab') on (0, oo) x R^{0|1}
  has bracket [X, Q] = Q, left density 1, right density a^{-1}, and the
  conjugation Berezinian of the even subgroup is diag(1; a), so
  Ber(Ad on the full algebra) = a^{-1} while Ber(Ad on h) = 1.
* the odd Heisenberg chart (z, t1, t2) with cocycle z'' = z + z' + t1 t2'
  + t2 t1' has [Q1, Q2] = 2 Z and is unimodular.
* the GL(1|1) chart reproduces the matrix-unit structure constants.
* fibre integration against D(eta) * 1 sends f0 + f1*eta to -f1, which
  fixes every sign frozen in the Fubini checks.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from superberezin.berezin import (
    GAUSSIAN,
    BerezinSection,
    box_backend,
    product_section,
    pullback_section,
)
from superberezin.errors import (
    InconclusiveError,
    NormalizationError,
    StructureError,
)
from superberezin.grassmann import EVEN, ODD, Scalar, koszul_sign
from superberezin.groups import (
    axb_even_subgroup,
    axb_fubini_example,
    axb_group,
    axb_odd_subgroup,
    axb_product_example,
    builtin_groups,
    fubini_builtins,
    gl11_group,
    heisenberg_center,
    heisenberg_fubini_example,
    heisenberg_group,
    line_fubini_example,
    line_odd_subgroup,
    multiplicative_line,
    product_builtins,
    translation_group,
)
from superberezin.lie_super import (
    LieSuperAlgebra,
    SubalgebraSpec,
    _quotient_supertrace,
    gl11_algebra,
    unimodularity_check,
    validate,
)
from superberezin import suites, supergroup
from superberezin.linalg import nullspace
from superberezin.supermatrix import SuperMatrix
from superberezin.superdomain import (
    POSITIVE,
    REALLINE,
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
from superberezin.superdomain import _evaluate, _evaluate_body, _exact_point
from superberezin.supergroup import (
    SubgroupSpec,
    SuperGroupChart,
    _adjoint,
    _ansatz_rows,
    _embedding_directions,
    _fubini_stage,
    _jet_terms,
    _product_stage,
    _translation_by_generalized_point,
    check_subgroup,
    fubini_check,
    full_subgroup,
    group_lie_algebra,
    haar_density,
    modular_berezinian,
    product_formula_check,
    solve_invariant_density,
    trivialization,
    validate_group,
)

ONE = Scalar(1)


def _coord(shape, i, power=1):
    return SuperFunction.from_polynomial(
        shape, Polynomial.variable(shape.m, i, power))


# ---------------------------------------------------------------------------
# group laws


@pytest.mark.parametrize("chart", [
    translation_group(2, 1),
    heisenberg_group(),
    axb_group(),
    gl11_group(),
])
def test_builtin_group_laws(chart):
    report = validate_group(chart)
    assert report.ok, report.failures


def test_broken_inverse_is_reported():
    G = axb_group()
    bad = type(G)(name="bad", shape=G.shape, mul=G.mul, unit=G.unit,
                  inv=SuperMorphism.identity(G.shape))
    report = validate_group(bad)
    assert not report.ok
    assert any("inverse" in f for f in report.failures)


def test_float_unit_is_refused():
    # a float's binary value is not the rational it was written as
    G = axb_group()
    with pytest.raises(TypeError):
        type(G)(name="bad", shape=G.shape, mul=G.mul, unit=(1.0, 0),
                inv=G.inv)


# ---------------------------------------------------------------------------
# Lie algebra extraction


def test_axb_algebra_bracket():
    g = group_lie_algebra(axb_group(), names=("X", "Q"))
    assert g.parities == (EVEN, ODD)
    assert g.bracket_basis(0, 1) == (Fraction(0), Fraction(1))
    assert g.bracket_basis(1, 1) == (Fraction(0), Fraction(0))


def test_heisenberg_algebra_relations():
    g = group_lie_algebra(heisenberg_group(), names=("Z", "Q1", "Q2"))
    zero = (Fraction(0),) * 3
    assert g.bracket_basis(1, 2) == (Fraction(2), Fraction(0), Fraction(0))
    assert g.bracket_basis(1, 1) == zero
    assert g.bracket_basis(2, 2) == zero
    assert g.bracket_basis(0, 1) == zero
    assert g.bracket_basis(0, 2) == zero


def test_gl11_chart_matches_matrix_unit_constants():
    g = group_lie_algebra(gl11_group())
    h = gl11_algebra()
    assert g.parities == h.parities
    for i in range(4):
        for j in range(4):
            assert g.bracket_basis(i, j) == h.bracket_basis(i, j), (i, j)


def test_translation_algebra_is_abelian():
    g = group_lie_algebra(translation_group(2, 2))
    zero = (Fraction(0),) * 4
    for i in range(4):
        for j in range(4):
            assert g.bracket_basis(i, j) == zero


def _cross_coefficient(comp, first, second, unit2):
    """The oracle of one jet: d_second d_first comp, left derivatives
    applied outermost-first, then its body at the doubled unit in stored
    form."""
    for kind, k in (first, second):
        comp = comp.derive_even(k) if kind == "even" else comp.derive_odd(k)
    return _evaluate_body(comp, unit2).rational


def _oracle_lie_algebra(G):
    """group_lie_algebra by two derivatives and an evaluation per jet,
    the jets taken in the same order and validated the same way."""
    m, n = G.shape.m, G.shape.n
    first, second = directions(G.shape), directions(G.shape, m, n)
    parities = [EVEN] * m + [ODD] * n
    unit2 = _exact_point(2 * m, tuple(G.unit) + tuple(G.unit))
    comps = [G.mul.component(k) for k in range(m + n)]
    brackets = {}
    for a in range(m + n):
        for b in range(a, m + n):
            koszul = koszul_sign(parities[a], parities[b])
            vec = tuple(
                _cross_coefficient(c, first[a], second[b], unit2)
                - koszul * _cross_coefficient(c, first[b], second[a], unit2)
                for c in comps)
            if any(vec):
                brackets[(a, b)] = vec
    names = tuple(f"x{i + 1}" for i in range(m)) \
        + tuple(f"xi{j + 1}" for j in range(n))
    algebra = LieSuperAlgebra(names, parities, brackets)
    report = validate(algebra)
    if not report.ok:
        raise StructureError(
            "extracted structure constants are inconsistent: "
            + "; ".join(report.failures))
    return algebra


def _outcome(compute, *args):
    """What compute(*args) gives: ("value", v), or the class and message
    of what it raises."""
    try:
        return "value", compute(*args)
    except (ArithmeticError, ValueError, StructureError) as err:
        return type(err), str(err)


def _algebra_key(g):
    # names, parities and brackets as bench/workloads.lie_digest reads them
    return (g.names, tuple(map(str, g.parities)),
            sorted((k, tuple(map(str, v))) for k, v in g.brackets.items()))


@st.composite
def _doubled_charts(draw):
    """A chart on (m|n), m, n <= 2, whose mul has random homogeneous
    components on the doubled shape: exponents -2..3, zero to four odd
    letters over both factors, some terms carrying a power of s, and a
    unit 0 on R axes and 1, 1/2 or 3 on R+ axes."""
    m, n = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    box = tuple(draw(st.sampled_from([REALLINE, POSITIVE])) for _ in range(m))
    unit = tuple(draw(st.sampled_from([1, Fraction(1, 2), 3]))
                 if axis is POSITIVE else 0 for axis in box)
    shape = SuperDomainShape(m, box, n)
    doubled = shape_product(shape, shape)
    letters = [c for size in range(min(4, 2 * n) + 1)
               for c in itertools.combinations(range(2 * n), size)]

    def component(parity):
        sectors = [c for c in letters if len(c) % 2 == parity]
        coeffs = {}
        for _ in range(draw(st.integers(0, 4))):
            alpha = draw(st.sampled_from(sectors))
            exps = tuple(draw(st.integers(-2, 3)) for _ in range(2 * m))
            power = draw(st.sampled_from([0, 0, 0, 1, -1]))
            coeffs[alpha] = coeffs.get(alpha, 0) + Polynomial(
                2 * m, {exps: Scalar(draw(st.integers(-3, 3)), power)})
        return SuperFunction(doubled, coeffs)

    mul = SuperMorphism(doubled, shape, [component(0) for _ in range(m)],
                        [component(1) for _ in range(n)])
    return SuperGroupChart("drawn", shape, mul, unit,
                           SuperMorphism.identity(shape))


@settings(max_examples=300, deadline=None)
@given(_doubled_charts())
def test_jet_terms_match_two_derivatives_per_jet(G):
    m, n = G.shape.m, G.shape.n
    first, second = directions(G.shape), directions(G.shape, m, n)
    unit2 = _exact_point(2 * m, tuple(G.unit) + tuple(G.unit))
    comps = [G.mul.component(k) for k in range(m + n)]
    buckets = _jet_terms(comps, m, n)

    def jet(a, b, k):
        terms = buckets.get((a, b), {}).get(k)
        return _evaluate(comps[k].den, terms, unit2).rational if terms else 0

    for a, b, k in itertools.product(range(m + n), repeat=3):
        assert _outcome(jet, a, b, k) == _outcome(
            _cross_coefficient, comps[k], first[a], second[b], unit2), \
            (a, b, k)
    # the first error of the whole extraction, or its algebra
    got = _outcome(group_lie_algebra, G)
    want = _outcome(_oracle_lie_algebra, G)
    if got[0] == want[0] == "value":
        got, want = _algebra_key(got[1]), _algebra_key(want[1])
    assert got == want


@pytest.mark.parametrize("terms", [
    # (a, b) = (x1, x2), component 0 before component 1: jet(x2, x1) of
    # mul_1 carries s, and jet(x1, x2) of mul_2 has a pole at the unit
    ({(0, 1, 1, 0): Scalar(1, 1)}, {(1, 0, 0, -1): 1}),
    # jet(x1, x2) before jet(x2, x1) of one component
    ({(1, 0, 0, 1): Scalar(1, 1), (0, 1, 1, -1): 1}, {}),
], ids=["component-order", "pair-order"])
def test_first_jet_error_is_the_oracles(terms):
    shape = SuperDomainShape(2, (REALLINE, REALLINE), 0)
    doubled = shape_product(shape, shape)
    mul = SuperMorphism(doubled, shape, [
        SuperFunction(doubled, {(): Polynomial(4, t)}) for t in terms], [])
    G = SuperGroupChart("poles", shape, mul, (0, 0),
                        SuperMorphism.identity(shape))
    assert _outcome(group_lie_algebra, G) == _outcome(_oracle_lie_algebra, G) \
        == (ValueError, "s is not rational: it carries a power of s")


def _lie_charts():
    charts = [translation_group(m, n) for m in range(4) for n in range(4)]
    charts += [heisenberg_group(), axb_group(), gl11_group(),
               multiplicative_line()]
    charts += [ex.subgroup.subgroup for ex in fubini_builtins()]
    charts += [spec.subgroup for ex in product_builtins()
               for spec in (ex.left, ex.right)]
    return charts


@pytest.mark.parametrize("G", _lie_charts(), ids=lambda G: G.name)
def test_group_lie_algebra_matches_the_oracle(G):
    assert _algebra_key(group_lie_algebra(G)) \
        == _algebra_key(_oracle_lie_algebra(G))


# ---------------------------------------------------------------------------
# invariant densities


def _assert_closed_form(G, side, result):
    # the ansatz is the oracle: a one-dimensional kernel, normalized to
    # its leading coefficient, equal to the closed form (1 at the unit)
    assert result.dimension == 1
    assert haar_density(G, side).density == result.density


def test_translation_left_density_is_one():
    for G in (translation_group(1, 1), translation_group(2, 2),
              translation_group(3, 3)):
        result = solve_invariant_density(G, side="left", max_degree=2)
        assert result.sections[0].density == SuperFunction.one(G.shape)
        _assert_closed_form(G, "left", result)


def test_translation_right_density_is_one():
    for G in (translation_group(1, 1), translation_group(2, 2),
              translation_group(3, 3)):
        result = solve_invariant_density(G, side="right", max_degree=2)
        assert result.sections[0].density == SuperFunction.one(G.shape)
        _assert_closed_form(G, "right", result)


def test_translation_33_left_density_at_degree_4():
    # 280 unknowns; out of reach of dense elimination
    G = translation_group(3, 3)
    result = solve_invariant_density(G, "left", 4)
    assert (result.dimension, str(result.density)) == (1, "1")
    _assert_closed_form(G, "left", result)


def test_axb_left_density_is_one():
    G = axb_group()
    result = solve_invariant_density(G, side="left")
    assert result.dimension == 1
    assert result.sections[0].density == SuperFunction.one(G.shape)
    _assert_closed_form(G, "left", result)


def test_axb_right_density_needs_laurent_prefactor():
    G = axb_group()
    with pytest.raises(InconclusiveError):
        solve_invariant_density(G, side="right")


def test_axb_right_density_with_prefactor():
    G = axb_group()
    result = solve_invariant_density(G, side="right",
                                     prefactor=_coord(G.shape, 0, -1))
    assert result.dimension == 1
    assert result.sections[0].density == _coord(G.shape, 0, -1)
    _assert_closed_form(G, "right", result)
    # the scaling line is abelian: both sides are x1^-1
    line = axb_even_subgroup().subgroup
    for side in ("left", "right"):
        result = solve_invariant_density(line, side=side,
                                         prefactor=_coord(line.shape, 0, -1))
        assert str(result.density) == "x1^-1"
        _assert_closed_form(line, side, result)


def test_heisenberg_left_density_is_one():
    G = heisenberg_group()
    result = solve_invariant_density(G, side="left", max_degree=2)
    assert result.dimension == 1
    assert result.sections[0].density == SuperFunction.one(G.shape)
    _assert_closed_form(G, "left", result)


def test_heisenberg_right_density_is_one():
    G = heisenberg_group()
    result = solve_invariant_density(G, side="right", max_degree=2)
    assert result.dimension == 1
    assert result.sections[0].density == SuperFunction.one(G.shape)
    _assert_closed_form(G, "right", result)


def test_gl11_left_density_is_one():
    G = gl11_group()
    result = solve_invariant_density(G, side="left", max_degree=2)
    assert result.dimension == 1
    assert result.sections[0].density == SuperFunction.one(G.shape)
    _assert_closed_form(G, "left", result)


def test_gl11_right_density_is_one():
    G = gl11_group()
    result = solve_invariant_density(G, side="right", max_degree=2)
    assert result.sections[0].density == SuperFunction.one(G.shape)
    _assert_closed_form(G, "right", result)


def test_haar_density_side_is_checked():
    with pytest.raises(StructureError):
        haar_density(axb_group(), side="up")


def test_derived_densities_match_the_declared_values():
    # the densities the charts and examples once declared by hand
    assert str(haar_density(axb_even_subgroup().subgroup).density) == "x1^-1"
    for spec in (axb_odd_subgroup(), heisenberg_center(),
                 line_odd_subgroup()):
        assert haar_density(spec.subgroup).density == SuperFunction.one(
            spec.subgroup.shape)
    for ex in fubini_builtins() + product_builtins():
        assert haar_density(ex.group).density == SuperFunction.one(
            ex.group.shape)
    # the base density is unique once it factors tau^*omega_G
    for ex, declared in zip(fubini_builtins(), ("1", "1", "x1^-1")):
        base, H = ex.section.source, ex.subgroup.subgroup
        b = BerezinSection.make(
            base, 1 if declared == "1" else _coord(base, 0, -1))
        pulled = pullback_section(
            trivialization(ex.group, ex.subgroup, ex.section),
            haar_density(ex.group))
        assert pulled.density == product_section(b, haar_density(H)).density


def test_generalized_point_is_the_first_factor():
    # on the doubled scaling-shift chart, g = (a_g | b_g) first and the
    # live copy x = (a_x | b_x) second: b(g.x) = b_g + a_g b_x and
    # b(x.g) = b_x + a_x b_g
    G = axb_group()
    S = shape_product(G.shape, G.shape)
    a_g, a_x = _coord(S, 0), _coord(S, 1)
    b_g, b_x = SuperFunction.odd_gen(S, 0), SuperFunction.odd_gen(S, 1)
    b = SuperFunction.odd_gen(G.shape, 0)
    left = _translation_by_generalized_point(G, "left")
    right = _translation_by_generalized_point(G, "right")
    assert pullback(left, b) == b_g + a_g * b_x
    assert pullback(right, b) == b_x + a_x * b_g


def _rows_by_pullback(G, side, prefactor, unknowns):
    """The ansatz rows with one full pullback per unknown:
    F * T_g^*(phi) - phi, read coefficient by coefficient, each row keyed
    by the stored key."""
    m, n = G.shape.m, G.shape.n
    S = shape_product(G.shape, G.shape)
    trans = _translation_by_generalized_point(G, side)
    live = [("even", m + i) for i in range(m)] \
        + [("odd", n + j) for j in range(n)]
    factor = SuperMatrix(m, n, jacobian_rows(trans, live),
                         zero=SuperFunction.zero(S),
                         one=SuperFunction.one(S)).berezinian()
    if prefactor is not None:
        factor = factor * pullback(trans, prefactor) \
            * prefactor.embed(S, m, n).inv_even()
    rows = {}
    for u, (odd_part, exps) in enumerate(unknowns):
        phi = SuperFunction(G.shape, {odd_part: Polynomial(m, {exps: 1})})
        residual = factor * pullback(trans, phi) - phi.embed(S, m, n)
        for key, c in residual.nums.items():
            rows.setdefault(key, {})[u] = Fraction(c, residual.den)
    return rows


_ROW_CASES = [
    (G, side, degree, _coord(G.shape, 0, -1)
     if (G.name, side) == (axb_group().name, "right") else None)
    for G in builtin_groups()
    for side in ("left", "right")
    for degree in (2, 4)
] + [(translation_group(3, 3), side, 2, None) for side in ("left", "right")]


def _case_id(value):
    if isinstance(value, SuperFunction):
        return str(value)
    return getattr(value, "name", None)


def _pinned_by_rows(rows, count):
    """Rows {key: {unknown: coefficient}} of ``count`` unknowns after the
    singleton-row reduction: an unknown alone in a row is 0, and every row
    of two or more unknowns keeps the others, renumbered in order."""
    pinned = {u for row in rows.values() if len(row) == 1 for u in row}
    unpinned = [u for u in range(count) if u not in pinned]
    column = {u: i for i, u in enumerate(unpinned)}
    reduced = {key: {column[u]: c for u, c in row.items() if u in column}
               for key, row in rows.items() if len(row) > 1}
    return unpinned, {key: row for key, row in reduced.items() if row}


@pytest.mark.parametrize("G, side, degree, prefactor", _ROW_CASES,
                         ids=_case_id)
def test_ansatz_rows_match_one_pullback_per_unknown(G, side, degree,
                                                    prefactor):
    m, n = G.shape.m, G.shape.n
    odd_parts = [idx for k in range(n + 1)
                 for idx in itertools.combinations(range(n), k)]
    exponents = [e for e in itertools.product(range(degree + 1), repeat=m)
                 if sum(e) <= degree]
    unknowns, unpinned, rows = _ansatz_rows(G, side, degree, prefactor)
    assert unknowns == sorted(itertools.product(odd_parts, exponents))
    assert (unpinned, rows) == _pinned_by_rows(
        _rows_by_pullback(G, side, prefactor, unknowns), len(unknowns))


def test_pinned_system_pins_only_an_unknown_alone_at_a_key():
    # only unknown 1 reaches key 5, so a_1 = 0; unknowns 0 and 2 become
    # columns 0 and 1, and the shared key 7 keeps only unknown 0
    residuals = [{3: 1, 7: 2}, {7: -1, 5: 4}, {3: -1}]
    unpinned, rows = supergroup._pinned_system(residuals)
    assert unpinned == [0, 2]
    assert rows == {3: {0: 1, 1: -1}, 7: {0: 2}}
    # a shared key whose unknowns are all pinned leaves no row
    residuals = [{1: 1, 2: 1}, {2: 3, 4: 1}]
    assert supergroup._pinned_system(residuals) == ([], {})


@st.composite
def _residual_lists(draw):
    """Residuals {key: nonzero coefficient} of up to 6 unknowns over 8
    keys, so that most keys are shared and some are not."""
    coefficient = st.sampled_from([1, -1, 2, -3, Fraction(1, 2),
                                   Fraction(-2, 3)])
    return [draw(st.dictionaries(st.integers(0, 7), coefficient,
                                 max_size=4))
            for _ in range(draw(st.integers(0, 6)))]


@settings(max_examples=300, deadline=None)
@given(_residual_lists())
def test_pinned_system_keeps_the_kernel_of_the_whole_system(residuals):
    whole = {}
    for u, residual in enumerate(residuals):
        for key, c in residual.items():
            whole.setdefault(key, {})[u] = c
    unpinned, rows = supergroup._pinned_system(residuals)
    written_back = []
    for vec in nullspace(list(rows.values()), ncols=len(unpinned)):
        full = [0] * len(residuals)
        for u, c in zip(unpinned, vec):
            full[u] = c
        written_back.append(full)
    assert written_back == nullspace(list(whole.values()),
                                     ncols=len(residuals))


@pytest.mark.parametrize("G", [translation_group(2, 2), gl11_group()],
                         ids=lambda G: G.name)
def test_ansatz_pullbacks_do_not_grow_with_the_degree(G, monkeypatch):
    calls = []

    def counted(phi, f):
        calls.append(f)
        return pullback(phi, f)

    monkeypatch.setattr(supergroup, "pullback", counted)
    counts = []
    for degree in (2, 4):
        calls.clear()
        assert solve_invariant_density(G, "left", degree).dimension == 1
        counts.append(len(calls))
    assert counts[0] == counts[1]


# ---------------------------------------------------------------------------
# subgroups and modular Berezinians


def test_builtin_subgroups_intertwine():
    for spec in [axb_even_subgroup(), axb_odd_subgroup(),
                 heisenberg_center(), full_subgroup(axb_group())]:
        report = check_subgroup(spec)
        assert report.ok, (spec.name, report.failures)


def test_broken_embedding_is_reported():
    G = axb_group()
    H = translation_group(0, 1)
    shifted = SuperMorphism(
        H.shape, G.shape,
        [SuperFunction.constant(H.shape, Fraction(2))],
        [SuperFunction.odd_gen(H.shape, 0)])
    spec = SubgroupSpec(parent=G, subgroup=H, embedding=shifted, name="bad")
    report = check_subgroup(spec)
    assert not report.ok
    assert any("unit" in f for f in report.failures)


def test_axb_even_subgroup_modular_berezinian():
    spec = axb_even_subgroup()
    ber_h, ber_u = modular_berezinian(axb_group(), spec)
    H = spec.subgroup.shape
    assert ber_h == SuperFunction.one(H)
    assert ber_u == _coord(H, 0, -1)


def test_axb_odd_subgroup_modular_berezinian():
    spec = axb_odd_subgroup()
    ber_h, ber_u = modular_berezinian(axb_group(), spec)
    H = spec.subgroup.shape
    assert ber_h == SuperFunction.one(H)
    assert ber_u == SuperFunction.one(H)


def test_heisenberg_center_modular_berezinian():
    spec = heisenberg_center()
    ber_h, ber_u = modular_berezinian(heisenberg_group(), spec)
    H = spec.subgroup.shape
    assert ber_h == SuperFunction.one(H)
    assert ber_u == SuperFunction.one(H)


def test_axb_conjugation_berezinian_is_multiplicative():
    G = axb_group()
    _, ber_u = modular_berezinian(G, full_subgroup(G))
    assert ber_u == _coord(G.shape, 0, -1)
    prod = G.mul.source
    lhs = pullback(G.mul, ber_u)
    rhs = ber_u.embed(prod, 0, 0) * ber_u.embed(prod, G.shape.m, G.shape.n)
    assert lhs == rhs


def test_heisenberg_conjugation_berezinian_is_multiplicative():
    G = heisenberg_group()
    _, ber_u = modular_berezinian(G, full_subgroup(G))
    assert ber_u == SuperFunction.one(G.shape)


def test_gl11_conjugation_berezinian_is_trivial():
    G = gl11_group()
    _, ber_u = modular_berezinian(G, full_subgroup(G))
    assert ber_u == SuperFunction.one(G.shape)


def test_haar_ratio_is_the_conjugation_berezinian():
    # rho_R / rho_L = Ber(Ad_g) on every chart; the swapped ratio differs
    # on the non-unimodular one, so the identity can fail
    for G in builtin_groups():
        left, right = haar_density(G).density, haar_density(G, "right").density
        _, ber_u = modular_berezinian(G, full_subgroup(G))
        assert right * left.inv_even() == ber_u
        if G.name == axb_group().name:
            swapped = left * right.inv_even()
            assert (str(swapped), str(ber_u)) == ("x1", "x1^-1")


# ---------------------------------------------------------------------------
# Fubini over built-in quotients


def test_line_fubini_frozen_values():
    ex = line_fubini_example()
    report = fubini_check(ex.group, ex.subgroup, ex.section, ex.test_function,
                          backend=ex.backend)
    base = ex.section.source
    assert report.sign == -1
    assert report.fibre_function == -_coord(base, 0, 2)
    assert report.lhs == Scalar(1, 1)
    assert report.rhs == Scalar(1, 1)
    assert report.passed


def test_heisenberg_fubini_frozen_values():
    ex = heisenberg_fubini_example()
    report = fubini_check(ex.group, ex.subgroup, ex.section, ex.test_function,
                          backend=ex.backend)
    base = ex.section.source
    s = Scalar(1, 1)
    expected = (SuperFunction.constant(base, s)
                + SuperFunction.constant(base, s)
                * SuperFunction.odd_gen(base, 0)
                * SuperFunction.odd_gen(base, 1))
    assert report.sign == 1
    assert report.fibre_function == expected
    assert report.lhs == s
    assert report.rhs == s
    assert report.passed


def test_axb_fubini_frozen_values():
    ex = axb_fubini_example()
    report = fubini_check(ex.group, ex.subgroup, ex.section, ex.test_function,
                          backend=ex.backend)
    base = ex.section.source
    assert report.sign == -1
    assert report.fibre_function == -_coord(base, 0, 2)
    assert report.lhs == Scalar(Fraction(15, 8))
    assert report.rhs == Scalar(Fraction(15, 8))
    assert report.passed


def test_heisenberg_fubini_over_an_explicit_box():
    # one box backend stages the centre quotient: the (0|2) base takes the
    # box's leading 0 intervals, the centre line its trailing one
    ex = heisenberg_fubini_example()
    z = _coord(ex.group.shape, 0)
    bump = (1 - z) * (1 - z) * (1 - z) * (1 - z)
    for f, value in ((ex.test_function, Fraction(1, 3)),
                     (ex.test_function * bump, Fraction(1, 105))):
        report = fubini_check(ex.group, ex.subgroup, ex.section, f,
                              backend=box_backend((0, 1)))
        assert (report.lhs, report.rhs) == (Scalar(value), Scalar(value))


@pytest.mark.parametrize("box, value", [
    (((0, 1), (1, 3)), Fraction(-13, 3)),
    (((1, 3), (0, 1)), Fraction(-4, 3)),
])
def test_fubini_splits_an_explicit_box_as_base_times_fibre(box, value):
    # R^(2|1) over the last even axis: tau(x, xi; h) = (x, h, xi), so the
    # base integrates over the box's first interval and the fibre over its
    # second; the box and the integrand are asymmetric, so a swapped
    # split gives the other order's value (negative: f moves its odd part
    # across the odd D-symbol)
    G, H = translation_group(2, 1), translation_group(1, 0)
    base = SuperDomainShape(1, (REALLINE,), 1)
    zero_h, zero_b = SuperFunction.zero(H.shape), SuperFunction.zero(base)
    emb = SuperMorphism(H.shape, G.shape,
                        [zero_h, _coord(H.shape, 0)], [zero_h])
    section = SuperMorphism(base, G.shape, [_coord(base, 0), zero_b],
                            [SuperFunction.odd_gen(base, 0)])
    x1, x2 = _coord(G.shape, 0), _coord(G.shape, 1)
    f = x1 + x1 * x2 * x2 * SuperFunction.odd_gen(G.shape, 0)
    report = fubini_check(G, SubgroupSpec(G, H, emb), section, f,
                          backend=box_backend(*box))
    assert (report.lhs, report.rhs) == (Scalar(value), Scalar(value))


def test_fubini_normalization_mismatch_raises():
    # axb over its scaling subgroup: tau^*omega_G = 1 is not b x x1^-1
    # for any base density b, so the quotient has no invariant density
    ex = axb_fubini_example()
    spec = axb_even_subgroup()
    base = SuperDomainShape(0, (), 1)
    section = SuperMorphism(base, ex.group.shape,
                            [SuperFunction.constant(base, Fraction(1))],
                            [SuperFunction.odd_gen(base, 0)])
    with pytest.raises(NormalizationError) as info:
        fubini_check(ex.group, spec, section, ex.test_function,
                     backend=ex.backend)
    assert str(info.value.discrepancy) == "-x1^-1 + 1"


def test_fubini_sign_matches_tensor_factorization_rule():
    # The quotient sign must coincide with the tensor-product sign
    # (-1)^((m+n)q) computed from independently extracted algebra data.
    for ex in fubini_builtins():
        report = fubini_check(ex.group, ex.subgroup, ex.section,
                              ex.test_function, backend=ex.backend)
        g = group_lie_algebra(ex.group)
        h = group_lie_algebra(ex.subgroup.subgroup)
        sign = -1 if (h.odd_count * (g.dim - h.dim)) % 2 else 1
        assert report.sign == sign
        base = ex.section.source
        assert g.dim - h.dim == base.m + base.n
        assert h.odd_count == ex.subgroup.subgroup.shape.n
        assert report.passed


def _coordinate_quotients():
    """Every proper nonzero coordinate subgroup of R^(m|n), 1 <= m <= 2,
    1 <= n <= 3: the last k even letters and a set of odd letters, with
    the complementary letters as a REALLINE base (fibre evens last, so
    the trivialization keeps its orientation)."""
    for m, n in itertools.product((1, 2), (1, 2, 3)):
        for k in range(m + 1):
            for odd in itertools.chain.from_iterable(
                    itertools.combinations(range(n), r)
                    for r in range(n + 1)):
                if (k, len(odd)) not in ((0, 0), (m, n)):
                    yield m, n, k, odd


@pytest.mark.parametrize("m, n, k, odd", list(_coordinate_quotients()),
                         ids=lambda v: str(v))
def test_fubini_holds_on_every_coordinate_quotient(m, n, k, odd):
    # 10 of these 58 (an odd base letter with an odd fibre dimension,
    # such as R^(1|2) over R^(1|1)) once gave lhs = -rhs
    G, H = translation_group(m, n), translation_group(k, len(odd))
    rest = [j for j in range(n) if j not in odd]
    base = SuperDomainShape(m - k, (REALLINE,) * (m - k), len(rest))
    zero_h, zero_b = SuperFunction.zero(H.shape), SuperFunction.zero(base)
    emb = SuperMorphism(
        H.shape, G.shape,
        [zero_h] * (m - k)
        + [SuperFunction.coordinate(H.shape, i) for i in range(k)],
        [SuperFunction.odd_gen(H.shape, odd.index(j)) if j in odd
         else zero_h for j in range(n)])
    section = SuperMorphism(
        base, G.shape,
        [SuperFunction.coordinate(base, i) for i in range(m - k)]
        + [zero_b] * k,
        [SuperFunction.odd_gen(base, rest.index(j)) if j in rest
         else zero_b for j in range(n)])
    f = suites._random_group_function(random.Random(0), G.shape)
    report = fubini_check(G, SubgroupSpec(G, H, emb), section, f,
                          backend=GAUSSIAN)
    assert report.sign == (-1) ** (len(odd) * (m - k + len(rest)))
    assert report.lhs != 0
    assert report.lhs == report.rhs


# ---------------------------------------------------------------------------
# product of subgroups


def test_product_formula_odd_even_frozen():
    ex = axb_product_example("odd-even")
    report = product_formula_check(ex.group, ex.left, ex.right,
                                   ex.test_function, backend=ex.backend)
    H = ex.right.subgroup.shape
    assert report.constant == Scalar(-1)
    assert report.ratio == _coord(H, 0)
    assert report.lhs == Scalar(Fraction(15, 8))
    assert report.rhs == Scalar(Fraction(15, 8))
    assert report.passed


def test_product_formula_even_odd_frozen():
    ex = axb_product_example("even-odd")
    report = product_formula_check(ex.group, ex.left, ex.right,
                                   ex.test_function, backend=ex.backend)
    H = ex.right.subgroup.shape
    assert report.constant == Scalar(1)
    assert report.ratio == SuperFunction.one(H)
    assert report.lhs == Scalar(Fraction(15, 8))
    assert report.rhs == Scalar(Fraction(15, 8))
    assert report.passed


@pytest.mark.parametrize("order", ["odd-even", "even-odd"])
def test_product_formula_refuses_wrong_haar_densities(order, monkeypatch):
    # with every density 1, the scaling subgroup's x1^-1 is missing and
    # the pullback of omega_G is no constant multiple of the product
    monkeypatch.setattr(supergroup, "haar_density",
                        lambda G, side="left": BerezinSection.make(G.shape, 1))
    ex = axb_product_example(order)
    with pytest.raises(NormalizationError):
        product_formula_check(ex.group, ex.left, ex.right, ex.test_function,
                              backend=ex.backend)


@pytest.mark.parametrize("order, discrepancy", [("odd-even", "-x1"),
                                                ("even-odd", "-1")])
def test_product_formula_reports_the_difference_at_the_candidate(
        order, discrepancy, monkeypatch):
    # each subgroup density off by 1: the pullback of omega_G and the
    # weighted product share the monomial the constant c is read off, so
    # the discrepancy pulled - c * weighted is neither 0 nor the pullback
    def off_by_one(G, side="left"):
        density = haar_density(G, side).density
        if G.shape != ex.group.shape:
            density = density + SuperFunction.one(G.shape)
        return BerezinSection(G.shape, density)

    ex = axb_product_example(order)
    monkeypatch.setattr(supergroup, "haar_density", off_by_one)
    with pytest.raises(NormalizationError) as info:
        product_formula_check(ex.group, ex.left, ex.right, ex.test_function,
                              backend=ex.backend)
    G = ex.group
    mul_map = compose(morphism_product(ex.left.embedding, ex.right.embedding),
                      G.mul)
    pulled = pullback_section(mul_map, haar_density(G)).density
    assert info.value.discrepancy
    assert info.value.discrepancy != pulled
    assert str(info.value.discrepancy) == discrepancy


def test_product_ratio_matches_modular_oracle():
    for order in ("odd-even", "even-odd"):
        ex = axb_product_example(order)
        report = product_formula_check(ex.group, ex.left, ex.right,
                                       ex.test_function,
                                       backend=ex.backend)
        ber_h, ber_u = modular_berezinian(ex.group, ex.right)
        assert report.ratio == ber_h * ber_u.inv_even()


# ---------------------------------------------------------------------------
# staging: the f-independent densities once, then one step per integrand


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_staged_reports_match_the_public_checks(seed):
    # one stage serves three integrands in turn; each report must be the
    # one a fresh public call gives for that integrand alone
    rng = random.Random(seed)
    for ex in fubini_builtins():
        check = _fubini_stage(ex.group, ex.subgroup, ex.section, ex.backend)
        for f in [suites._random_group_function(rng, ex.group.shape)
                  for _ in range(3)]:
            staged = check(f)
            public = fubini_check(ex.group, ex.subgroup, ex.section, f,
                                  backend=ex.backend)
            assert (staged.sign, staged.lhs, staged.rhs,
                    staged.fibre_function, staged.caveats) == (
                public.sign, public.lhs, public.rhs,
                public.fibre_function, public.caveats)
    for ex in product_builtins():
        check = _product_stage(ex.group, ex.left, ex.right, ex.backend)
        for f in [suites._random_group_function(rng, ex.group.shape)
                  for _ in range(3)]:
            staged = check(f)
            public = product_formula_check(ex.group, ex.left, ex.right, f,
                                           backend=ex.backend)
            assert (staged.constant, staged.ratio, staged.lhs, staged.rhs,
                    staged.caveats) == (
                public.constant, public.ratio, public.lhs, public.rhs,
                public.caveats)


def _counted(monkeypatch, name):
    calls = []
    inner = getattr(supergroup, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(supergroup, name, wrapper)
    return calls


def test_suites_stage_each_example_once(monkeypatch):
    # two Haar densities per Fubini example and three per product order,
    # one modular Berezinian per order: not once per integrand
    haar = _counted(monkeypatch, "haar_density")
    modular = _counted(monkeypatch, "modular_berezinian")
    suites.fubini_quotient_suite(0)
    assert len(haar) == 2 * len(fubini_builtins())
    haar.clear()
    suites.product_formula_suite(0)
    assert len(haar) == 3 * len(product_builtins()) == 6
    assert len(modular) == len(product_builtins()) == 2


# ---------------------------------------------------------------------------
# unimodularity agreement between the infinitesimal criterion and densities


def test_quotient_unimodularity_verdicts():
    for ex, span in [
        (line_fubini_example(), {1}),
        (heisenberg_fubini_example(), {0}),
        (axb_fubini_example(), {1}),
    ]:
        g = group_lie_algebra(ex.group)
        h = SubalgebraSpec(g, frozenset(span))
        assert unimodularity_check(g, h).verdict == "UNIMODULAR"


def test_axb_modular_character_is_nontrivial():
    # str(ad X) = -1, so the chart cannot carry a bi-invariant density;
    # the solver confirms: left density 1, right density a^-1.
    g = group_lie_algebra(axb_group(), names=("X", "Q"))
    # str(ad x) is the quotient supertrace over h = 0
    whole = SubalgebraSpec(g, frozenset())
    assert _quotient_supertrace(g, whole, 0) == Fraction(-1)
    assert _quotient_supertrace(g, whole, 1) == Fraction(0)
    left = solve_invariant_density(axb_group(), side="left")
    right = solve_invariant_density(
        axb_group(), side="right",
        prefactor=_coord(axb_group().shape, 0, -1))
    assert left.sections[0].density != right.sections[0].density


def test_heisenberg_modular_character_is_trivial():
    g = group_lie_algebra(heisenberg_group())
    whole = SubalgebraSpec(g, frozenset())
    assert all(_quotient_supertrace(g, whole, i) == 0 for i in range(3))


def test_product_examples_cover_both_orders():
    names = {ex.name for ex in product_builtins()}
    assert len(names) == 2


# ---------------------------------------------------------------------------
# the one differential against hand-built supermatrices


def _reference_haar_density(G, side="left"):
    """The reference Haar density: mul differentiated in x, its second
    factor for g.x and its first for x.g, through the checked
    SuperMatrix(...)."""
    if side not in ("left", "right"):
        raise StructureError("side must be 'left' or 'right'")
    s = G.shape
    g, e = SuperMorphism.identity(s), G.unit_morphism()
    dirs, at = ((directions(s, s.m, s.n), pair(g, e)) if side == "left"
                else (directions(s), pair(e, g)))
    rows = [[pullback(at, entry) for entry in row]
            for row in jacobian_rows(G.mul, dirs)]
    jac = SuperMatrix(s.m, s.n, rows, zero=SuperFunction.zero(s),
                      one=SuperFunction.one(s))
    return BerezinSection(s, jac.berezinian().inv_even())


def _reference_adjoint(G, H):
    """The reference Ad_h: the differential in x at x = e of the
    conjugation morphism h.x.h^-1 on H x G, composed of four morphisms,
    through the checked SuperMatrix(...)."""
    Hsh, Gsh = H.subgroup.shape, G.shape
    emb_h = compose(projection(Hsh, Gsh, 1), H.embedding)
    inv_h = compose(emb_h, G.inv)
    conj = compose(pair(compose(pair(emb_h, projection(Hsh, Gsh, 2)), G.mul),
                        inv_h), G.mul)
    rows = jacobian_rows(conj, directions(Gsh, Hsh.m, Hsh.n))
    at_unit = pair(SuperMorphism.identity(Hsh),
                   SuperMorphism.constant_point(Hsh, Gsh, G.unit))
    entries = [[pullback(at_unit, entry) for entry in row] for row in rows]
    return SuperMatrix(Gsh.m, Gsh.n, entries, zero=SuperFunction.zero(Hsh),
                       one=SuperFunction.one(Hsh))


def _reference_modular_berezinian(G, H):
    """The reference (Ber of Ad on h, Ber of Ad), both supermatrices
    through the checked SuperMatrix(...)."""
    ad = _reference_adjoint(G, H)
    entries = ad.entries
    Hsh, mG, nG = H.subgroup.shape, G.shape.m, G.shape.n
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


def _stored(f):
    return f.shape, f.den, list(f.nums.items())


_SUBGROUPS = [axb_even_subgroup(), axb_odd_subgroup(), heisenberg_center(),
              line_odd_subgroup()]
_CHARTS = (list(builtin_groups()) + [spec.subgroup for spec in _SUBGROUPS]
           + [multiplicative_line()]
           + [translation_group(k, k) for k in range(4)])


@pytest.mark.parametrize("G", _CHARTS, ids=lambda G: G.name)
def test_haar_density_matches_the_hand_built_jacobian(G):
    for side in ("left", "right"):
        got, want = haar_density(G, side), _reference_haar_density(G, side)
        assert _stored(got.density) == _stored(want.density), side


@pytest.mark.parametrize("G, H", [(spec.parent, spec) for spec in _SUBGROUPS]
                         + [(G, full_subgroup(G)) for G in _CHARTS],
                         ids=lambda x: getattr(x, "name", None))
def test_modular_berezinian_matches_the_hand_built_ad(G, H):
    # the whole Ad matrix, not only its Berezinians: Ad_h taken with its
    # two chain-rule factors swapped has the same Berezinians on every pair
    assert _adjoint(G, H) == _reference_adjoint(G, H)
    got = modular_berezinian(G, H)
    want = _reference_modular_berezinian(G, H)
    assert [_stored(f) for f in got] == [_stored(f) for f in want]


def _curved_axb():
    """ax+b in the chart (a, c), b = a c: (a, c).(a', c') = (a a', c' +
    c / a') and (a, c)^-1 = (1/a, -a c).  Its translations are not affine
    in the chart, so d(h.x)/dx depends on x, and Ad_h's two chain-rule
    factors do not commute (in every built-in chart they do)."""
    shape = SuperDomainShape(2, (POSITIVE, REALLINE), 0)
    prod = shape_product(shape, shape)
    a, c, a2, c2 = (SuperFunction.coordinate(prod, i) for i in range(4))
    mul = SuperMorphism(prod, shape, [
        a * a2, c2 + c * SuperFunction.coordinate(prod, 2, -1)], [])
    x_a, x_c = (SuperFunction.coordinate(shape, i) for i in range(2))
    inv = SuperMorphism(shape, shape, [
        SuperFunction.coordinate(shape, 0, -1), -(x_a * x_c)], [])
    return SuperGroupChart("ax+b in (a, b/a)", shape, mul,
                           (Fraction(1), Fraction(0)), inv)


def test_adjoint_takes_its_chain_rule_factors_in_order():
    G = _curved_axb()
    assert validate_group(G).ok
    H = full_subgroup(G)
    ad = supergroup._adjoint(G, H)  # where the kill matrix binds its faults
    assert ad == _reference_adjoint(G, H)
    # Ad_h = [[1, -a c], [0, a]]; the swapped product reads -c there
    assert str(ad) == "1 | -x1 x2\n0 | x1"
    assert modular_berezinian(G, H) == (ad.berezinian(), ad.berezinian())


def _transported(G, phi, psi):
    """G in the coordinates of the change phi, whose inverse is psi (both
    asserted): mul' = psi o mul o (phi x phi) and inv' = psi o inv o phi.
    Every change below fixes every body, so the unit stays where it is."""
    ident = SuperMorphism.identity(G.shape)
    assert compose(phi, psi) == ident and compose(psi, phi) == ident
    mul = compose(compose(morphism_product(phi, phi), G.mul), psi)
    inv = compose(compose(phi, G.inv), psi)
    return SuperGroupChart(f"{G.name}, curved", G.shape, mul, G.unit, inv)


def _curved_charts():
    """(chart, phi, psi) per built-in chart and triangular change: axb by
    b -> a^2 b, GL(1|1) by d -> d + d^2 beta gamma and beta -> beta +
    a gamma, Heisenberg by z -> z + z^2 t1 t2 and t1 -> t1 + z t2."""
    def change(G, evens, odds):
        return SuperMorphism(G.shape, G.shape, evens, odds)
    G = axb_group()
    a, b = _coord(G.shape, 0), SuperFunction.odd_gen(G.shape, 0)
    yield (G, change(G, [a], [a * a * b]),
           change(G, [a], [_coord(G.shape, 0, -2) * b]))
    G = gl11_group()
    a, d = (_coord(G.shape, i) for i in range(2))
    beta, gamma = (SuperFunction.odd_gen(G.shape, j) for j in range(2))
    soul = d * d * beta * gamma
    yield (G, change(G, [a, d + soul], [beta + a * gamma, gamma]),
           change(G, [a, d - soul], [beta - a * gamma, gamma]))
    G = heisenberg_group()
    z = _coord(G.shape, 0)
    t1, t2 = (SuperFunction.odd_gen(G.shape, j) for j in range(2))
    yield (G, change(G, [z + z * z * t1 * t2], [t1 + z * t2, t2]),
           change(G, [z - z * z * t1 * t2], [t1 - z * t2, t2]))


def _ad_is_multiplicative(G):
    """Ad_{g.h} = Ad_h . Ad_g on G x G, each side Ad of G's full subgroup
    pulled back.  Conjugation by g.h is conjugation by h and then by g,
    and the package's Jacobians compose as J^(psi o phi) = J^phi .
    phi^*(J^psi), phi the map done first, so Ad_h comes first.  Ad is
    read through the module, where the kill matrix binds its faults."""
    ad = supergroup._adjoint(G, full_subgroup(G))
    S = shape_product(G.shape, G.shape)

    def pulled(phi):
        entries = [[pullback(phi, e) for e in row] for row in ad.entries]
        return SuperMatrix(G.shape.m, G.shape.n, entries,
                           zero=SuperFunction.zero(S),
                           one=SuperFunction.one(S))
    g, h = (projection(G.shape, G.shape, k) for k in (1, 2))
    return pulled(G.mul) == pulled(h) * pulled(g)


def test_group_verdicts_hold_in_curved_charts():
    # a flat chart's translations are affine in its coordinates, so Ad_h's
    # chain-rule factors commute and no law pulls back two powers of a last
    # variable; the curved charts have neither blind spot
    for G, phi, psi in _curved_charts():
        for chart in (G, _transported(G, phi, psi)):
            assert validate_group(chart).ok, chart.name
            assert _ad_is_multiplicative(chart), chart.name


def test_modular_berezinian_keeps_the_orientation_of_ad_on_h(monkeypatch):
    # Ad with xi1 at (0, 2) and xi2 at (2, 0) has Ber 1 - xi1 xi2 and its
    # transpose 1 + xi1 xi2; a full subgroup's Ad on h is all of Ad, so a
    # sub-block taken transposed would give ber_h != ber_u
    G = gl11_group()
    xi1, xi2 = (SuperFunction.odd_gen(G.shape, j) for j in range(2))
    zero, one = SuperFunction.zero(G.shape), SuperFunction.one(G.shape)
    ad = SuperMatrix(2, 2, [[one, zero, xi1, zero], [zero, one, zero, zero],
                            [xi2, zero, one, zero], [zero, zero, zero, one]],
                     zero=zero, one=one)
    monkeypatch.setattr(supergroup, "_adjoint", lambda *args: ad)
    ber_h, ber_u = modular_berezinian(G, full_subgroup(G))
    assert ber_h == ber_u == one - xi1 * xi2
