"""Lie superalgebras over exact rationals and the unimodularity criterion.

The gl(1|1) structure constants used throughout are checked here against
an independent oracle: graded commutators of the 2x2 matrix units acting
on a (1|1)-dimensional space, computed with the supermatrix product.

The dense code that ``lie_super`` replaced lives on below as its oracle:
the bracket over every pair of basis indices, ``validate`` over all dim^3
triples, the dense basis change, and the quotient supertrace read off a
supermatrix over the rank-zero Grassmann algebra Lambda_0.
"""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from superberezin import linalg
from superberezin.errors import ParityError, StructureError
from superberezin.grassmann import (EVEN, ODD, GrassmannElement, _canonical,
                                    _rational, koszul_sign)
from superberezin.lie_super import (
    LieSuperAlgebra,
    SubalgebraSpec,
    ValidationReport,
    _as_vector,
    _quotient_supertrace,
    abelian_algebra,
    change_basis,
    gl11_algebra,
    unimodularity_check,
    validate,
)
from superberezin.supermatrix import SuperMatrix

Z0 = GrassmannElement.zero(0)
I0 = GrassmannElement.one(0)


# -- dense oracles ----------------------------------------------------------


def basis_vector(g, i):
    return tuple(1 if k == i else 0 for k in range(g.dim))


def bracket(g, x, y):
    """[x, y] summed over every pair of basis indices."""
    x = _as_vector(x, g.dim)
    y = _as_vector(y, g.dim)
    out = [0] * g.dim
    for i, a in enumerate(x):
        if not a:
            continue
        for j, b in enumerate(y):
            if not b:
                continue
            for k, c in enumerate(g.bracket_basis(i, j)):
                out[k] += a * b * c
    return tuple(_canonical(c) for c in out)


def vector_parity(g, x):
    x = _as_vector(x, g.dim)
    parities = {g.parities[i] for i, c in enumerate(x) if c}
    if len(parities) != 1:
        return None
    return parities.pop()


def oracle_validate(g):
    """Parity-additivity, graded antisymmetry and graded Jacobi, each over
    every pair or triple of basis indices."""
    failures = []
    dim = g.dim
    for i in range(dim):
        for j in range(dim):
            vec = g.bracket_basis(i, j)
            want = (g.parities[i].value + g.parities[j].value) % 2
            for k, c in enumerate(vec):
                if c and g.parities[k].value != want:
                    failures.append(
                        f"parity: [{g.names[i]}, {g.names[j]}] has a "
                        f"component on {g.names[k]}")
                    break
    for i in range(dim):
        for j in range(i, dim):
            sign = koszul_sign(g.parities[i], g.parities[j])
            lhs = g.bracket_basis(i, j)
            rhs = tuple(-sign * c for c in g.bracket_basis(j, i))
            if lhs != rhs:
                failures.append(
                    f"antisymmetry: [{g.names[i]}, {g.names[j]}] vs "
                    f"[{g.names[j]}, {g.names[i]}]")
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                # graded Leibniz: [ei,[ej,ek]] = [[ei,ej],ek]
                #                  + (-1)^{|i||j|} [ej,[ei,ek]]
                sign = koszul_sign(g.parities[i], g.parities[j])
                lhs = bracket(g, basis_vector(g, i), g.bracket_basis(j, k))
                term1 = bracket(g, g.bracket_basis(i, j), basis_vector(g, k))
                term2 = bracket(g, basis_vector(g, j), g.bracket_basis(i, k))
                rhs = tuple(a + sign * b for a, b in zip(term1, term2))
                if any(a - b for a, b in zip(lhs, rhs)):
                    failures.append(
                        f"jacobi: triple ({g.names[i]}, {g.names[j]}, "
                        f"{g.names[k]})")
    return ValidationReport(not failures, tuple(failures))


def oracle_change_basis(g, matrix):
    """The basis change f_c = sum_r matrix[r][c] e_r over every index."""
    dim = g.dim
    P = [[_rational(e) for e in row] for row in matrix]
    P_inv = linalg.inverse(P)
    constants = {}
    for a in range(dim):
        for b in range(dim):
            image = [0] * dim
            for r in range(dim):
                if not P[r][a]:
                    continue
                for s in range(dim):
                    if not P[s][b]:
                        continue
                    for k, c in enumerate(g.bracket_basis(r, s)):
                        image[k] += P[r][a] * P[s][b] * c
            nonzero = [(k, c) for k, c in enumerate(image) if c]
            constants[(a, b)] = tuple(
                sum(P_inv[t][k] * c for k, c in nonzero) for t in range(dim))
    names = tuple(f"f{i + 1}" for i in range(dim))
    return LieSuperAlgebra(names, g.parities, constants)


def supertrace(m):
    acc = m.zero
    for i in range(m.p):
        acc = acc + m.entries[i][i]
    for j in range(m.q):
        acc = acc - m.entries[m.p + j][m.p + j]
    return acc


def _matrix_on_span(g, x, span):
    """Matrix of y -> [x, y] compressed to the given basis indices, its
    entries in Lambda_0."""
    parity = vector_parity(g, x)
    if parity is None:
        if any(x):
            raise ParityError("ad needs a homogeneous element")
        parity = EVEN  # the zero element acts by the zero (even) matrix
    positions = {idx: r for r, idx in enumerate(span)}
    size = len(span)
    entries = [[Z0] * size for _ in range(size)]
    for c, idx in enumerate(span):
        image = bracket(g, x, basis_vector(g, idx))
        for k, coeff in enumerate(image):
            if coeff and k in positions:
                entries[positions[k]][c] = GrassmannElement.scalar(0, coeff)
    p = sum(1 for idx in span if g.parities[idx] is EVEN)
    return SuperMatrix(p, size - p, entries, parity, zero=Z0, one=I0)


def ad(g, x):
    """Adjoint matrix of a homogeneous element (index or vector)."""
    if isinstance(x, int):
        x = basis_vector(g, x)
    return _matrix_on_span(g, _as_vector(x, g.dim), range(g.dim))


def quotient_action(g, h, x):
    """Matrix of ad(x) on g/h in the adapted complement basis."""
    if h.parent is not g:
        raise StructureError("subalgebra belongs to a different algebra")
    if isinstance(x, int):
        x = basis_vector(g, x)
    return _matrix_on_span(g, _as_vector(x, g.dim), h.complement)


def oracle_unimodularity(g, h):
    """(verdict, witness name, witness supertrace) from the Lambda_0
    quotient matrices."""
    for idx in sorted(h.span):
        trace = supertrace(quotient_action(g, h, idx)).body().rational
        if trace:
            return "NOT_UNIMODULAR", g.names[idx], trace
    return "UNIMODULAR", None, None


# -- the tests --------------------------------------------------------------


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
    assert supertrace(m).is_zero()
    # an odd element gives an odd matrix
    assert ad(g, 2).parity is ODD


def test_ad_is_a_representation():
    g = gl11_algebra()
    rng = random.Random(11)
    for _ in range(25):
        par_x, par_y = rng.choice([EVEN, ODD]), rng.choice([EVEN, ODD])
        x = random_homogeneous_element(g, rng, par_x)
        y = random_homogeneous_element(g, rng, par_y)
        lhs = ad(g, bracket(g, x, y))
        sign = -1 if (par_x is ODD and par_y is ODD) else 1
        prod1, prod2 = ad(g, x) * ad(g, y), ad(g, y) * ad(g, x)
        rhs = prod1 + (-prod2 if sign == 1 else prod2)
        assert lhs.entries == rhs.entries


def test_supertrace_of_bracket_vanishes():
    g = gl11_algebra()
    for i, j in product(range(4), repeat=2):
        x = ad(g, g.bracket_basis(i, j))
        assert supertrace(x).is_zero(), (i, j)


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
    assert supertrace(m).body().rational == 1


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
    mirrored = LieSuperAlgebra(("a", "xi"), (EVEN, ODD),
                               {(0, 1): (0, Fraction(4, 2))})
    vectors = (list(g2.brackets.values()) + list(mirrored.brackets.values())
               + [g2.zero_vector()])
    for vec in vectors:
        for c in vec:
            assert type(c) is int or (type(c) is Fraction
                                      and c.denominator > 1), repr(c)
    with pytest.raises(TypeError):
        LieSuperAlgebra(("a", "xi"), (EVEN, ODD), {(0, 1): (0, 0.5)})
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


def test_unimodularity_check_refuses_a_foreign_subalgebra():
    g, other = gl11_algebra(), gl11_algebra()
    for span in (frozenset(), frozenset({0, 1, 2})):
        with pytest.raises(StructureError,
                           match="subalgebra belongs to a different algebra"):
            unimodularity_check(g, SubalgebraSpec(other, span))


# -- the sparse code against the dense oracles -----------------------------


def heisenberg_algebra():
    """The odd Heisenberg algebra of the Heisenberg chart:
    [xi1, xi2] = 2 x1."""
    return LieSuperAlgebra(("x1", "xi1", "xi2"), (EVEN, ODD, ODD),
                           {(1, 2): (2, 0, 0)})


COEFFICIENTS = st.sampled_from([1, -1, 2, -2, 3, Fraction(1, 2),
                                Fraction(-2, 3)])


@st.composite
def graded_algebras(draw):
    """(algebra, span, basis change, fault): gl(1|1), the odd Heisenberg
    algebra or an abelian algebra; a random closed span; a random
    parity-preserving basis change that keeps the span closed; and, or
    None, one planted fault (kind, i, j, k, value) that adds value e_k to
    [e_i, e_j], with e_k of the wrong parity for a parity fault, its
    mirror left as it was for an antisymmetry fault and rewritten to match
    for a Jacobi fault."""
    # gl(1|1) has the spans with a nonzero quotient supertrace
    kind = draw(st.sampled_from(["gl11", "gl11", "heisenberg", "abelian"]))
    if kind == "gl11":
        g = gl11_algebra()
    elif kind == "heisenberg":
        g = heisenberg_algebra()
    else:
        p = draw(st.integers(0, 3))
        q = draw(st.integers(0 if p else 1, 3))
        g = abelian_algebra([f"e{i}" for i in range(p + q)],
                            [EVEN] * p + [ODD] * q)
    dim = g.dim
    span = frozenset(draw(st.lists(st.integers(0, dim - 1), max_size=dim)))
    try:
        SubalgebraSpec(g, span)
    except StructureError:
        span = frozenset()
    # span columns draw only on span rows, so the new span is closed too
    P = [[draw(st.integers(-2, 2))
          if g.parities[r] is g.parities[c] and (c not in span or r in span)
          else 0 for c in range(dim)] for r in range(dim)]
    if linalg.det([row[:] for row in P]) == 0:
        P = [[int(r == c) for c in range(dim)] for r in range(dim)]
    fault = draw(st.sampled_from([None, "parity", "antisymmetry", "jacobi"]))
    if fault:
        i, j = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
        want = (g.parities[i].value + g.parities[j].value) % 2
        targets = [k for k in range(dim)
                   if (g.parities[k].value == want) != (fault == "parity")]
        if not targets:
            return g, span, P, None
        fault = (fault, i, j, draw(st.sampled_from(targets)),
                 draw(COEFFICIENTS))
    return g, span, P, fault


def plant(g, kind, i, j, k, value):
    constants = dict(g.brackets)
    vec = list(g.bracket_basis(i, j))
    vec[k] += value
    constants[(i, j)] = tuple(vec)
    if kind == "jacobi" and i != j:
        sign = koszul_sign(g.parities[i], g.parities[j])
        constants[(j, i)] = tuple(-sign * c for c in vec)
    return LieSuperAlgebra(g.names, g.parities, constants)


@settings(max_examples=200, deadline=None)
@given(graded_algebras())
def test_sparse_code_matches_the_dense_oracles(case):
    base, span, P, fault = case
    g = change_basis(base, P)
    assert repr(g.brackets) == repr(oracle_change_basis(base, P).brackets)
    if fault:
        g = plant(g, *fault)
        assert repr(change_basis(g, P).brackets) \
            == repr(oracle_change_basis(g, P).brackets)
    report = validate(g)
    assert report == oracle_validate(g)
    if any(failure.startswith("parity") for failure in report.failures):
        return  # the Lambda_0 matrices refuse entries of the wrong parity
    try:
        h = SubalgebraSpec(g, span)
    except StructureError:  # the fault broke the closure
        h = SubalgebraSpec(g, frozenset())
    result = unimodularity_check(g, h)
    verdict, name, trace = oracle_unimodularity(g, h)
    assert (result.verdict, result.witness_name) == (verdict, name)
    assert result.witness_supertrace == trace
    if trace is not None:
        assert type(result.witness_supertrace) is Fraction
    for idx in sorted(h.span):
        assert _quotient_supertrace(g, h, idx) \
            == supertrace(quotient_action(g, h, idx)).body().rational
