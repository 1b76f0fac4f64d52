"""Lie superalgebras over exact rationals and the unimodularity criterion.

The gl(1|1) structure constants used throughout are checked here against
an independent oracle: graded commutators of the 2x2 matrix units acting
on a (1|1)-dimensional space, computed with the supermatrix product.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from superberezin.errors import ParityError, StructureError
from superberezin.grassmann import EVEN, ODD, GrassmannElement
from superberezin.lie_super import (
    LieSuperAlgebra,
    SubalgebraSpec,
    abelian_algebra,
    ad,
    change_basis,
    gl11_algebra,
    quotient_action,
    unimodularity_check,
    validate,
)
from superberezin.supermatrix import SuperMatrix

Z0 = GrassmannElement.zero(0)
I0 = GrassmannElement.one(0)


def random_homogeneous_element(g, rng, parity):
    """Random nonzero homogeneous coefficient vector, entries in [-3, 3]."""
    indices = [i for i in range(g.dim) if g.parities[i] is parity]
    while True:
        vec = [0] * g.dim
        for i in indices:
            vec[i] = rng.randint(-3, 3)
        if any(vec):
            return tuple(vec)


def _unit(p_idx: int, q_idx: int, parity) -> SuperMatrix:
    """Matrix unit E_{p_idx q_idx} of gl(1|1) as a 2x2 supermatrix."""
    entries = [[Z0, Z0], [Z0, Z0]]
    entries[p_idx][q_idx] = I0
    return SuperMatrix(1, 1, entries, parity, zero=Z0, one=I0)


def _graded_commutator(x: SuperMatrix, y: SuperMatrix) -> SuperMatrix:
    sign = -1 if (x.parity is ODD and y.parity is ODD) else 1
    if sign == 1:
        return x * y - y * x
    return x * y + y * x


def test_gl11_constants_match_matrix_commutators():
    g = gl11_algebra()
    units = [_unit(0, 0, EVEN), _unit(1, 1, EVEN),
             _unit(0, 1, ODD), _unit(1, 0, ODD)]
    flat = {  # position of each matrix unit inside the 2x2 grid
        0: (0, 0), 1: (1, 1), 2: (0, 1), 3: (1, 0)}
    for i, j in product(range(4), repeat=2):
        want = _graded_commutator(units[i], units[j])
        got = g.bracket_basis(i, j)
        for k in range(4):
            r, c = flat[k]
            assert want.entries[r][c].body().rational == got[k], (i, j, k)


def test_gl11_named_constants_frozen():
    g = gl11_algebra()
    # [E11,E12] = E12, [E11,E21] = -E21, [E22,E12] = -E12, [E22,E21] = E21
    assert g.bracket_basis(0, 2) == (0, 0, 1, 0)
    assert g.bracket_basis(0, 3) == (0, 0, 0, -1)
    assert g.bracket_basis(1, 2) == (0, 0, -1, 0)
    assert g.bracket_basis(1, 3) == (0, 0, 0, 1)
    # [E12,E21] = E11 + E22 (odd-odd, anticommutator side)
    assert g.bracket_basis(2, 3) == (1, 1, 0, 0)
    assert g.bracket_basis(2, 2) == (0, 0, 0, 0)


def test_validate_gl11_and_abelian():
    assert validate(gl11_algebra()).ok
    assert validate(abelian_algebra(("a", "b"), (EVEN, ODD))).ok


def test_validate_catches_antisymmetry_violation():
    g = LieSuperAlgebra(
        ("E11", "E12"), (EVEN, ODD),
        {(0, 1): (0, 2), (1, 0): (0, -1)})
    report = validate(g)
    assert not report.ok
    assert "antisymmetry" in report.failures[0]


def test_validate_catches_parity_violation():
    g = LieSuperAlgebra(
        ("a", "xi"), (EVEN, ODD),
        {(0, 1): (1, 0)})  # [even, odd] landing on an even generator
    report = validate(g)
    assert not report.ok
    assert "parity" in report.failures[0]


def test_validate_catches_jacobi_violation():
    # sl(2)-like constants with [e,f] corrupted to h + e
    g = LieSuperAlgebra(
        ("h", "e", "f"), (EVEN, EVEN, EVEN),
        {(0, 1): (0, 2, 0), (0, 2): (0, 0, -2), (1, 2): (1, 1, 0)})
    report = validate(g)
    assert not report.ok
    assert "jacobi" in report.failures[0].lower()


def test_ad_abelian_is_zero():
    g = abelian_algebra(("a", "b", "xi"), (EVEN, EVEN, ODD))
    mat = ad(g, 0)
    assert all(e.is_zero() for row in mat.entries for e in row)


def test_ad_gl11_frozen_values():
    g = gl11_algebra()
    m = ad(g, 0)  # E11
    assert m.parity is EVEN and (m.p, m.q) == (2, 2)
    d = m.block("D")
    assert d[0][0] == I0 and d[1][1] == -I0
    assert all(e.is_zero() for row in m.block("A") for e in row)
    assert m.supertrace().is_zero()
    # an odd element gives an odd matrix
    assert ad(g, 2).parity is ODD


def test_ad_is_a_representation():
    g = gl11_algebra()
    rng = random.Random(11)
    for _ in range(25):
        par_x, par_y = rng.choice([EVEN, ODD]), rng.choice([EVEN, ODD])
        x = random_homogeneous_element(g, rng, par_x)
        y = random_homogeneous_element(g, rng, par_y)
        lhs = ad(g, g.bracket(x, y))
        sign = -1 if (par_x is ODD and par_y is ODD) else 1
        prod1, prod2 = ad(g, x) * ad(g, y), ad(g, y) * ad(g, x)
        rhs = prod1 + (-prod2 if sign == 1 else prod2)
        assert lhs.entries == rhs.entries


def test_supertrace_of_bracket_vanishes():
    g = gl11_algebra()
    for i, j in product(range(4), repeat=2):
        x = ad(g, g.bracket_basis(i, j))
        assert x.supertrace().is_zero(), (i, j)


def test_mixed_parity_ad_rejected():
    g = gl11_algebra()
    with pytest.raises(ParityError):
        ad(g, (1, 0, 1, 0))  # E11 + E12 is not homogeneous


def test_quotient_action_trivial_cases():
    g = gl11_algebra()
    everything = SubalgebraSpec(g, frozenset(range(4)))
    m = quotient_action(g, everything, 0)
    assert (m.p, m.q) == (0, 0)
    nothing = SubalgebraSpec(g, frozenset())
    assert quotient_action(g, nothing, 0).entries == ad(g, 0).entries


def test_borel_quotient_action_frozen():
    g = gl11_algebra()
    borel = SubalgebraSpec(g, frozenset({0, 1, 2}))
    m = quotient_action(g, borel, 0)  # action of E11 on span{E21}
    assert (m.p, m.q) == (0, 1)
    assert m.entries[0][0] == -I0
    assert m.supertrace().body().rational == 1


def test_subalgebra_closure_enforced():
    g = gl11_algebra()
    with pytest.raises(StructureError):
        SubalgebraSpec(g, frozenset({2, 3}))  # [E12,E21] leaves the span


def test_unimodularity_verdicts():
    g = gl11_algebra()
    full = unimodularity_check(g, SubalgebraSpec(g, frozenset()))
    assert full.verdict == "UNIMODULAR"
    assert "connected" in full.note
    borel = unimodularity_check(g, SubalgebraSpec(g, frozenset({0, 1, 2})))
    assert borel.verdict == "NOT_UNIMODULAR"
    assert borel.witness_name == "E11"
    assert borel.witness_supertrace == 1
    ab = abelian_algebra(("a", "b", "xi", "eta"), (EVEN, EVEN, ODD, ODD))
    for span in [frozenset(), frozenset({0}), frozenset({0, 2}),
                 frozenset(range(4))]:
        assert unimodularity_check(
            ab, SubalgebraSpec(ab, span)).verdict == "UNIMODULAR"


def test_quotient_action_is_a_representation():
    g = gl11_algebra()
    borel = SubalgebraSpec(g, frozenset({0, 1, 2}))
    # x = E11 (even), y = E12 (odd): [x,y] = E12 lies in h
    qx, qy = quotient_action(g, borel, 0), quotient_action(g, borel, 2)
    qxy = quotient_action(g, borel, g.bracket_basis(0, 2))
    rhs = qx * qy - qy * qx
    assert qxy.entries == rhs.entries


def test_change_basis_preserves_brackets():
    g = gl11_algebra()
    # mix the even pair and rescale the odd pair
    P = [[Fraction(1), Fraction(1), 0, 0],
         [Fraction(1), Fraction(-1), 0, 0],
         [0, 0, Fraction(2), 0],
         [0, 0, Fraction(1), Fraction(1, 2)]]
    g2 = change_basis(g, P)
    assert validate(g2).ok
    # str(ad .) is basis independent: still unimodular with h = 0
    assert unimodularity_check(
        g2, SubalgebraSpec(g2, frozenset())).verdict == "UNIMODULAR"


def test_vectors_are_stored_ints_where_integral():
    g = gl11_algebra()
    P = [[Fraction(1, 2), Fraction(1, 2), 0, 0],
         [Fraction(1, 2), Fraction(-1, 2), 0, 0],
         [0, 0, 2, 0],
         [0, 0, 1, Fraction(1, 2)]]
    g2 = change_basis(g, P)
    vectors = list(g2.brackets.values()) + [g2.basis_vector(0), g2.zero_vector(),
                                            g2.bracket((Fraction(2, 2), 0, 1, 0),
                                                       (0, 0, 0, 2))]
    for vec in vectors:
        for c in vec:
            assert type(c) is int or (type(c) is Fraction
                                      and c.denominator > 1), repr(c)
    with pytest.raises(TypeError):
        g.bracket((0.5, 0, 0, 0), (0, 0, 1, 0))
    with pytest.raises(TypeError):
        change_basis(g, [[1.0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])


def test_borel_verdict_invariant_under_adapted_changes():
    g = gl11_algebra()
    rng = random.Random(3)
    for _ in range(4):
        # adapted: new h vectors draw only on old h, complement may mix in h
        a, b, c = [Fraction(rng.choice([1, 2, -1])) for _ in range(3)]
        d = Fraction(rng.choice([1, -2, 3]))
        P = [[a, b, 0, 0],
             [0, c, 0, 0],
             [0, 0, d, rng.randint(-2, 2)],
             [0, 0, 0, Fraction(rng.choice([1, -1, 2]))]]
        g2 = change_basis(g, P)
        verdict = unimodularity_check(g2, SubalgebraSpec(g2, frozenset({0, 1, 2})))
        assert verdict.verdict == "NOT_UNIMODULAR"
