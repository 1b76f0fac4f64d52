"""Supertrace and Berezinian checks over Grassmann coefficients."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from superberezin.grassmann import EVEN, ODD, GrassmannElement, Scalar
from superberezin.superdomain import POSITIVE, SuperDomainShape, SuperFunction
from superberezin.supermatrix import (
    SuperMatrix,
    _cramer,
    _expand,
    berezinian,
    supertrace,
)
from superberezin.textio import format_supermatrix, parse_supermatrix
from superberezin.suites import (
    random_even_supermatrix,
    random_odd_supermatrix,
)
from superberezin.errors import NonInvertibleError, ParityError

N = 4
ZERO = GrassmannElement.zero(N)
ONE = GrassmannElement.one(N)


def g(terms):
    return GrassmannElement(N, terms)


def sm(p, q, entries, parity=EVEN):
    wrapped = [[g(e) if isinstance(e, dict) else e for e in row] for row in entries]
    return SuperMatrix(p, q, wrapped, parity, zero=ZERO, one=ONE)


# -- Laplace/adjugate reference ----------------------------------------------
#
# The cofactor formulas that elimination over the entries' ring replaced.
# A Berezinian is an exact ring element with a canonical printed form, so
# both must agree as values and as strings.


def laplace_det(entries, one):
    n = len(entries)
    if n == 0:
        return one
    if n == 1:
        return entries[0][0]
    acc = entries[0][0] - entries[0][0]
    for j in range(n):
        top = entries[0][j]
        if top.is_zero():
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in entries[1:]]
        term = top * laplace_det(minor, one)
        acc = acc - term if j % 2 else acc + term
    return acc


def adjugate_inverse(entries, one):
    n = len(entries)
    dinv = laplace_det(entries, one).inv_even()
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = [[entries[r][c] for c in range(n) if c != i]
                     for r in range(n) if r != j]
            cof = laplace_det(minor, one)
            row.append((-cof if (i + j) % 2 else cof) * dinv)
        out.append(row)
    return out


def oracle_berezinian(m):
    """det(A - B D^-1 C) * det(D)^-1 with D^-1 the adjugate over det(D)."""
    p, q, one = m.p, m.q, m.one
    A, B, C, D = (m.block(name) for name in "ABCD")
    if q == 0:
        return laplace_det(A, one)
    det_d_inv = laplace_det(D, one).inv_even()
    Dinv = adjugate_inverse(D, one)
    schur = [[A[i][j] - sum((B[i][k] * Dinv[k][l] * C[l][j]
                             for k in range(q) for l in range(q)), m.zero)
              for j in range(p)] for i in range(p)]
    return laplace_det(schur, one) * det_d_inv


@st.composite
def even_supermatrices(draw):
    """Random invertible even (p|q) up to (4|4) over Lambda_4..Lambda_6,
    rows permuted within each block so that pivots need row swaps, and
    sometimes the product of two of them."""
    p, q = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    n = draw(st.integers(4, 6))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    x = random_even_supermatrix(rng, p, q, n)
    order = draw(st.permutations(range(p))) + draw(st.permutations(range(p, p + q)))
    x = SuperMatrix(p, q, [x.entries[i] for i in order], zero=x.zero, one=x.one)
    if draw(st.booleans()):
        x = x * random_even_supermatrix(rng, p, q, n)
    return x


@settings(max_examples=60, deadline=None)
@given(even_supermatrices())
def test_berezinian_matches_laplace_oracle(x):
    got, want = x.berezinian(), oracle_berezinian(x)
    assert got == want
    assert str(got) == str(want)


# det [[x+2, x+1], [x+3, x+2]] = 1, yet no entry is a Laurent monomial, so
# no column of this block holds an invertible entry.
STALL = SuperDomainShape(1, (POSITIVE,), 2)


def _stalled_block():
    x = SuperFunction.coordinate(STALL, 0)
    return [[x + 2, x + 1], [x + 3, x + 2]]


def _sf_matrix(p, q, entries):
    return SuperMatrix(p, q, entries, zero=SuperFunction.zero(STALL),
                       one=SuperFunction.one(STALL))


@pytest.mark.parametrize("p, q", [(2, 0), (0, 2)])
def test_berezinian_stalled_superfunction_block(p, q):
    assert _sf_matrix(p, q, _stalled_block()).berezinian() == \
        SuperFunction.one(STALL)


def test_berezinian_stalled_odd_block_solves_by_cramer():
    x = SuperFunction.coordinate(STALL, 0)
    xi1, xi2 = SuperFunction.odd_gen(STALL, 0), SuperFunction.odd_gen(STALL, 1)
    (d00, d01), (d10, d11) = _stalled_block()
    m = _sf_matrix(1, 2, [[x, xi1, xi2], [xi1, d00, d01], [xi2, d10, d11]])
    got = m.berezinian()
    assert got == oracle_berezinian(m)
    assert not got.soul().is_zero()


# -- entries with mixed powers of s -----------------------------------------
#
# Values are Laurent polynomials in s: elimination forms sums such as s - 1
# from entries 1 and s, and only a body that is a single power of s is a
# pivot, so a column of constant entries can stall as well.


def _s(k, value=1):
    return Scalar(value, k)


def test_det_where_elimination_would_mix_powers_of_s():
    # pivoting on the 1 at (0, 0) would form s - 1 at (1, 1)
    rows = [[_s(0), _s(0), _s(0)], [_s(0), _s(1), 0], [_s(0), 0, 0]]
    x = SuperMatrix(3, 0, [[GrassmannElement(0, {(): e} if e else {})
                            for e in row] for row in rows],
                    zero=GrassmannElement.zero(0), one=GrassmannElement.one(0))
    got = x.berezinian()
    assert got == laplace_det(x.block("A"), x.one) == GrassmannElement(0, {(): _s(1, -1)})
    assert str(got) == "-s"


def test_berezinian_where_the_odd_block_solve_would_mix_powers_of_s():
    # carrying C along D's first pivot would form s xi1 - xi1
    x = SuperMatrix(1, 2, [
        [GrassmannElement(2, {(): 2}), GrassmannElement(2, {(1,): 1}),
         GrassmannElement.zero(2)],
        [GrassmannElement(2, {(0,): 1}), GrassmannElement.one(2),
         GrassmannElement(2, {(): _s(1)})],
        [GrassmannElement(2, {(0,): _s(1)}), GrassmannElement.one(2),
         GrassmannElement.zero(2)],
    ], zero=GrassmannElement.zero(2), one=GrassmannElement.one(2))
    got = x.berezinian()
    assert got == oracle_berezinian(x)
    assert str(got) == "-2 s^-1 - xi1 xi2"


def _mixed_entry(rng, n, odd):
    terms = {}
    for r in range(odd, n + 1, 2):
        for idx in itertools.combinations(range(n), r):
            if rng.random() < 0.5:
                terms[idx] = Scalar(rng.choice([1, -1, 2, Fraction(1, 2)]),
                                    rng.choice([0, 0, 1, 1, -1, 2]))
    return GrassmannElement(n, terms)


@st.composite
def mixed_s_supermatrices(draw):
    """Random even (p|q) up to (3|3) over Lambda_0..Lambda_2 whose entries
    carry s^-1..s^2, invertible or not."""
    p, q, n = draw(st.integers(0, 3)), draw(st.integers(0, 3)), draw(st.integers(0, 2))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    ent = [[_mixed_entry(rng, n, ((i >= p) + (j >= p)) % 2) for j in range(p + q)]
           for i in range(p + q)]
    return SuperMatrix(p, q, ent, zero=GrassmannElement.zero(n),
                       one=GrassmannElement.one(n))


@settings(max_examples=150, deadline=None)
@given(mixed_s_supermatrices())
def test_berezinian_evaluates_wherever_the_oracle_does(x):
    try:
        want = oracle_berezinian(x)
    except NonInvertibleError:
        with pytest.raises(NonInvertibleError, match="odd-odd block is not invertible"):
            x.berezinian()
        return
    got = x.berezinian()
    assert got == want
    assert str(got) == str(want)


def _unit_entry(rng, n):
    """An even entry whose body is a single power of s: invertible."""
    return (_mixed_entry(rng, n, 0).soul()
            + GrassmannElement.scalar(n, Scalar(rng.choice([1, -2, Fraction(1, 3)]),
                                                rng.choice([-1, 0, 1]))))


@st.composite
def mixed_s_invertible_supermatrices(draw):
    """X = Y Z over Lambda_0..Lambda_2 with entries mixing s^-1..s^2:
    Y = [[A, B], [0, U]] and Z = [[1, 0], [C, L]], U and L triangular with
    invertible diagonals, so det(D) = det(U L) is a single power of s
    times a unit while D's entries, and the sums elimination forms, mix
    powers of s."""
    p, q, n = draw(st.integers(0, 3)), draw(st.integers(0, 3)), draw(st.integers(0, 2))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    zero, one = GrassmannElement.zero(n), GrassmannElement.one(n)

    def block(rows, cols, entry):
        return [[entry(i, j) for j in range(cols)] for i in range(rows)]

    def triangular(upper):
        return block(q, q, lambda i, j: _unit_entry(rng, n) if i == j else
                     _mixed_entry(rng, n, 0) if (j > i) == upper else zero)

    y = SuperMatrix.from_blocks(
        block(p, p, lambda i, j: _mixed_entry(rng, n, 0)),
        block(p, q, lambda i, j: _mixed_entry(rng, n, 1)),
        block(q, p, lambda i, j: zero), triangular(True), zero=zero, one=one)
    z = SuperMatrix.from_blocks(
        block(p, p, lambda i, j: one if i == j else zero),
        block(p, q, lambda i, j: zero),
        block(q, p, lambda i, j: _mixed_entry(rng, n, 1)), triangular(False),
        zero=zero, one=one)
    return y * z


def cofactor_berezinian(x):
    """det(A - B D^-1 C) det(D)^-1 by the package's cofactor and Cramer
    formulas alone."""
    def det(entries):
        return _expand(entries, x.zero, x.one) if entries else x.one

    A, B, C, D = (x.block(name) for name in "ABCD")
    if x.q == 0:
        return det(A)
    det_d_inv, Z = _cramer(D, C, x.zero, x.one)
    schur = [[A[i][j] - sum((B[i][k] * Z[k][j] for k in range(x.q)), x.zero)
              for j in range(x.p)] for i in range(x.p)]
    return det(schur) * det_d_inv


@settings(max_examples=100, deadline=None)
@given(mixed_s_invertible_supermatrices())
def test_berezinian_mixing_powers_of_s_matches_the_cofactor_oracles(x):
    got = x.berezinian()
    assert got == cofactor_berezinian(x) == oracle_berezinian(x)
    # the value prints as a signed sum that the grammar reads back
    assert parse_supermatrix(format_supermatrix(x)) == x
    assert str(got) == str(oracle_berezinian(x))


def test_entry_parity_enforced():
    with pytest.raises(ParityError):
        # odd slot holding an even element
        sm(1, 1, [[{(): 1}, {(): 1}], [{(0,): 1}, {(): 1}]])


def test_identity_and_product():
    ident = SuperMatrix.identity(1, 1, zero=ZERO, one=ONE)
    x = sm(1, 1, [[{(): 2}, {(0,): 1}], [{(1,): 1}, {(): 1}]])
    assert ident * x == x
    assert x * ident == x


def test_supertrace_frozen():
    x = sm(1, 1, [[{(): 2, (0, 1): 1}, {(0,): 1}], [{(1,): 1}, {(): 1, (0, 1): 2}]])
    assert supertrace(x) == g({(): 1, (0, 1): -1})


def test_berezinian_frozen():
    # [[2 + xi1 xi2, xi1], [xi2, 1 + 2 xi1 xi2]]:
    # D^-1 = 1 - 2 xi1 xi2, B D^-1 C = xi1 xi2,
    # Ber = (2 + xi1 xi2 - xi1 xi2) (1 - 2 xi1 xi2) = 2 - 4 xi1 xi2
    x = sm(1, 1, [[{(): 2, (0, 1): 1}, {(0,): 1}], [{(1,): 1}, {(): 1, (0, 1): 2}]])
    assert berezinian(x) == g({(): 2, (0, 1): -4})


def test_berezinian_pure_even_block():
    x = sm(2, 0, [[{(): 1}, {(): 2}], [{(): 3}, {(): 4}]])
    assert berezinian(x) == g({(): -2})


def test_berezinian_pure_odd_block():
    x = sm(0, 2, [[{(): 1}, {(): 2}], [{(): 0}, {(): 2}]])
    assert berezinian(x) == g({(): Fraction(1, 2)})


def test_berezinian_requires_invertible_d():
    x = sm(1, 1, [[{(): 1}, {}], [{}, {(0, 1): 1}]])
    with pytest.raises(NonInvertibleError, match="odd-odd block is not invertible"):
        berezinian(x)


@pytest.mark.parametrize("x", [
    sm(0, 2, [[{(): 1}, {(): 2}], [{(): 2}, {(): 4, (0, 1): 1}]]),
    _sf_matrix(0, 1, [[SuperFunction.coordinate(STALL, 0) + 1]]),
    _sf_matrix(1, 1, [[SuperFunction.one(STALL), SuperFunction.odd_gen(STALL, 0)],
                      [SuperFunction.odd_gen(STALL, 1),
                       SuperFunction.coordinate(STALL, 0) + 1]]),
], ids=["grassmann-pure-odd", "superfunction-pure-odd", "superfunction"])
def test_berezinian_rejects_singular_d_on_every_path(x):
    with pytest.raises(NonInvertibleError, match="odd-odd block is not invertible"):
        berezinian(x)


def test_berezinian_multiplicative_sample():
    rng = random.Random(7)
    for p, q in [(1, 1), (2, 1), (1, 2)]:
        for _ in range(15):
            x = random_even_supermatrix(rng, p, q, N)
            y = random_even_supermatrix(rng, p, q, N)
            assert (x * y).berezinian() == x.berezinian() * y.berezinian()


def test_berezinian_of_identity():
    for p, q in [(0, 0), (1, 0), (0, 1), (2, 1)]:
        ident = SuperMatrix.identity(p, q, zero=ZERO, one=ONE)
        assert ident.berezinian() == ONE


def test_supertrace_twisted_cyclicity():
    # str(XY) = (-1)^{|X||Y|} str(YX) for homogeneous pairs of equal parity.
    # (For tr(A) - tr(D) the mixed-parity version is not an identity:
    # [[a,b],[g,d]] even against [[al,be],[ga,de]] odd already breaks it.)
    rng = random.Random(11)
    for _ in range(10):
        x = random_even_supermatrix(rng, 1, 1, N)
        y = random_even_supermatrix(rng, 1, 1, N)
        assert supertrace(x * y) == supertrace(y * x)
        xo = random_odd_supermatrix(rng, 1, 1, N)
        yo = random_odd_supermatrix(rng, 1, 1, N)
        assert supertrace(xo * yo) == -supertrace(yo * xo)


def test_supertrace_vanishes_on_graded_commutator():
    # str(XY - (-1)^{|X||Y|} YX) = 0 for equal-parity pairs
    rng = random.Random(13)
    for _ in range(10):
        xo = random_odd_supermatrix(rng, 2, 1, N)
        yo = random_odd_supermatrix(rng, 2, 1, N)
        assert supertrace(xo * yo + yo * xo).is_zero()
        xe = random_even_supermatrix(rng, 2, 1, N)
        ye = random_even_supermatrix(rng, 2, 1, N)
        assert supertrace(xe * ye - ye * xe).is_zero()
