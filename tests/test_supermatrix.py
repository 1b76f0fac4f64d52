"""Supertrace and Berezinian checks over Grassmann coefficients."""

import itertools
import random
import re
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from superberezin import linalg, supermatrix
from superberezin.grassmann import EVEN, ODD, GrassmannElement, Scalar
from superberezin.superdomain import (
    POSITIVE,
    REALLINE,
    Polynomial,
    SuperDomainShape,
    SuperFunction,
    SuperMorphism,
    jacobian,
)
from superberezin.supermatrix import SuperMatrix
from superberezin.textio import format_supermatrix, parse_supermatrix
from superberezin.suites import (
    random_even_supermatrix,
    random_grassmann,
)
from superberezin.errors import DimensionError, NonInvertibleError, ParityError

N = 4
ZERO = GrassmannElement.zero(N)
ONE = GrassmannElement.one(N)


def g(terms):
    return GrassmannElement(N, terms)


def random_odd_supermatrix(rng, p, q, n):
    """An odd (p|q) supermatrix of random entries over n generators."""
    A = [[random_grassmann(rng, n, ODD) for _ in range(p)] for _ in range(p)]
    D = [[random_grassmann(rng, n, ODD) for _ in range(q)] for _ in range(q)]
    B = [[random_grassmann(rng, n, EVEN) for _ in range(q)] for _ in range(p)]
    C = [[random_grassmann(rng, n, EVEN) for _ in range(p)] for _ in range(q)]
    return SuperMatrix.from_blocks(A, B, C, D, ODD, zero=GrassmannElement.zero(n),
                                   one=GrassmannElement.one(n))


def supertrace(x):
    """tr(A) - tr(D).  The program reads supertraces straight off Lie
    structure constants, so the matrix form is defined here."""
    acc = x.zero
    for i in range(x.p):
        acc = acc + x.entries[i][i]
    for j in range(x.q):
        acc = acc - x.entries[x.p + j][x.p + j]
    return acc


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


@contextmanager
def fallback_calls():
    """The argument tuples of the calls of the division-free fallback,
    ``supermatrix._faddeev_leverrier``, made inside the block."""
    calls = []
    fallback = supermatrix._faddeev_leverrier

    def counted(*args):
        calls.append(args)
        return fallback(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(supermatrix, "_faddeev_leverrier", counted)
        yield calls


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


# The LU factorisation of (D C; B A) over D's q columns leaves the Schur
# complement A - B D^-1 C as its trailing block, and its negated pivot
# inverses, signed by the row swaps and their count, multiply to det(D)^-1.


@settings(max_examples=40, deadline=None)
@given(even_supermatrices().filter(lambda x: x.q >= 1))
def test_lu_trailing_block_is_the_schur_complement(x):
    p, q, one = x.p, x.q, x.one
    A, B, C, D = (x.block(name) for name in "ABCD")
    rows = [d + c for d, c in zip(D, C)] + [b + a for b, a in zip(B, A)]
    sign, minus_inverses = supermatrix._lu(rows, q)
    if len(minus_inverses) < q:
        return
    det_d_inv = minus_inverses[0]
    for minus_inv in minus_inverses[1:]:
        det_d_inv = det_d_inv * minus_inv
    if sign * (-1) ** q < 0:
        det_d_inv = -det_d_inv
    assert det_d_inv == laplace_det(D, one).inv_even()
    Dinv = adjugate_inverse(D, one)
    schur = [[A[i][j] - sum((B[i][k] * Dinv[k][l] * C[l][j]
                             for k in range(q) for l in range(q)), x.zero)
              for j in range(p)] for i in range(p)]
    assert [row[q:] for row in rows[q:]] == schur


# Every entry of an LU factorisation, its trailing Schur complement
# included, and of a matrix product is built by one fused call (base + sum
# a*b); the Laplace/adjugate oracle and the written-out product below use
# only __mul__ and __add__/__sub__.  Lambda_8 is the benchmark's largest
# algebra.


def _written_out_product(x, y):
    n = x.p + x.q
    return [[sum((x.entries[i][k] * y.entries[k][j] for k in range(n)), x.zero)
             for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("d, seed", [(3, 0), (3, 1), (4, 0), (4, 1)])
def test_berezinian_over_lambda8_matches_laplace_oracle(d, seed):
    rng = random.Random(f"lambda8/{d}/{seed}")
    x = random_even_supermatrix(rng, d, d, 8)
    y = random_even_supermatrix(rng, d, d, 8)
    xy = x * y
    assert [list(row) for row in xy.entries] == _written_out_product(x, y)
    for m in (x, xy):
        got, want = m.berezinian(), oracle_berezinian(m)
        assert got == want
        assert str(got) == str(want)


# The Fraction route.  On a shape with no even coordinates a superfunction is
# a Grassmann element whose coefficients stay ints or Fractions through
# superdomain's own product loop, so the Berezinian of the same matrix with
# (0|N) superfunction entries is an oracle independent of the integer
# kernel of GrassmannElement.  The draws below put Fractions into the pivot
# inverses: diagonal bodies from {+-2, +-3}, coefficients 1/2 and 2/3.

FRACTION_COEFFS = (1, -1, 2, -3, Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3))


def _fraction_entry(rng, n, odd, body):
    """A random (n-generator) entry of the given parity and body."""
    masks = [m for m in range(1, 2 ** n) if m.bit_count() % 2 == odd]
    terms = {} if odd or not body else {(): body}
    for mask in rng.sample(masks, rng.randint(0, 3)):
        idx = tuple(i for i in range(n) if mask >> i & 1)
        terms[idx] = rng.choice(FRACTION_COEFFS)
    return GrassmannElement(n, terms)


def _fraction_supermatrix(seed):
    """A seeded invertible even (p|q) <= (4|4) over Lambda_4..Lambda_8."""
    rng = random.Random(f"fraction-route/{seed}")
    p, q, n = rng.randint(0, 4), rng.randint(0, 4), rng.randint(4, 8)
    size = p + q
    while True:
        bodies = [[rng.choice((2, -2, 3, -3)) if i == j else
                   rng.choice((0, 0, 1, -1, Fraction(1, 2), Fraction(2, 3)))
                   for j in range(size)] for i in range(size)]
        blocks = ([row[:p] for row in bodies[:p]], [row[p:] for row in bodies[p:]])
        if all(not block or linalg.det(block) for block in blocks):
            break
    entries = [[_fraction_entry(rng, n, (i >= p) != (j >= p), bodies[i][j])
                for j in range(size)] for i in range(size)]
    return SuperMatrix(p, q, entries, zero=GrassmannElement.zero(n),
                       one=GrassmannElement.one(n))


def _terms_by_index(a):
    """a's {index tuple: Scalar} terms, as both public constructors take them."""
    out = {}
    for (mask, k), c in a.terms.items():
        idx = tuple(i for i in range(a.generator_count) if mask >> i & 1)
        out[idx] = out.get(idx, Scalar(0)) + Scalar(c, k)
    return out


def _on_odd_coordinates(x):
    shape = SuperDomainShape(0, (), x.zero.generator_count)
    entries = [[SuperFunction(shape, {idx: Polynomial(0, {(): c})
                                      for idx, c in _terms_by_index(e).items()})
                for e in row] for row in x.entries]
    return SuperMatrix(x.p, x.q, entries, zero=SuperFunction.zero(shape),
                       one=SuperFunction.one(shape))


def _sectors(f):
    return [(idx, f.coefficient(idx)) for size in range(f.shape.n + 1)
            for idx in itertools.combinations(range(f.shape.n), size)
            if f.coefficient(idx)]


@pytest.mark.parametrize("seed", range(24))
def test_berezinian_matches_the_fraction_route(seed):
    x = _fraction_supermatrix(seed)
    got = x.berezinian()
    want = _on_odd_coordinates(x).berezinian()
    n = got.generator_count
    assert got == GrassmannElement(n, {idx: poly.coefficient(())
                                       for idx, poly in _sectors(want)})
    for size in range(n + 1):
        for idx in itertools.combinations(range(n), size):
            assert got.coefficient(idx) == want.coefficient(idx).coefficient(())


# det [[x+2, x+1], [x+3, x+2]] = 1, yet no entry is a Laurent monomial, so
# no column of this block holds an invertible entry.
STALL = SuperDomainShape(1, (POSITIVE,), 2)


def _stalled_block():
    x = SuperFunction.coordinate(STALL, 0)
    return [[x + 2, x + 1], [x + 3, x + 2]]


def _sf_matrix(p, q, entries):
    return SuperMatrix(p, q, entries, zero=SuperFunction.zero(STALL),
                       one=SuperFunction.one(STALL))


def _stalls_after_the_first_pivot():
    # the first pivot leaves xi1 xi2 and xi3 xi4 in column 1
    return sm(3, 0, [[{(): 1}, {(): 1}, {}],
                     [{(): 1}, {(): 1, (0, 1): 1}, {(): 1}],
                     [{}, {(2, 3): 1}, {(): 1}]])


@pytest.mark.parametrize("x, want", [
    (sm(2, 0, [[{(0, 1): 1}, {(): 1}], [{(2, 3): 1}, {(): 1}]]),
     "xi1 xi2 - xi3 xi4"),
    (_stalls_after_the_first_pivot(), "xi1 xi2 - xi3 xi4"),
    (_sf_matrix(2, 0, _stalled_block()), "1"),
], ids=["2x2", "3x3-stalls-after-a-pivot", "laurent-2x2"])
def test_a_column_stalling_in_the_last_two_needs_no_expansion(x, want):
    # the last 2 x 2 block is ad - bc, so no pivot is sought there
    with fallback_calls() as calls:
        got = x.berezinian()
    assert str(got) == want
    assert got == laplace_det(x.block("A"), x.one)
    assert calls == []


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


# An n x n block with a stalled column left of its last two, n >= 3, takes
# the Faddeev-LeVerrier fallback.  The Jacobian of x_i -> x_i + t(x) with
# t = sum_j (x_j^2 + x_j^3) / 10 on R^(m|2) is I + grad(t) 1^T, no body of
# it a monomial, and by the matrix determinant lemma its Berezinian is
# 1 + sum_i (2 x_i + 3 x_i^2) / 10.


def _coupled_cubic(m):
    shape = SuperDomainShape(m, (REALLINE,) * m, 2)
    xs = [SuperFunction.coordinate(shape, i) for i in range(m)]
    zero = SuperFunction.zero(shape)
    t = sum((x * x + x * x * x for x in xs), zero) * Fraction(1, 10)
    phi = SuperMorphism(shape, shape, [x + t for x in xs],
                        [SuperFunction.odd_gen(shape, j) for j in range(2)])
    closed = 1 + sum((x * 2 + x * x * 3 for x in xs), zero) * Fraction(1, 10)
    return jacobian(phi), closed


def test_berezinian_of_a_coupled_cubic_jacobian_has_its_closed_form():
    for m in range(3, 10):
        J, closed = _coupled_cubic(m)
        with fallback_calls() as calls:
            assert J.berezinian() == closed, m
        # the 2 x 2 identity D is solved by elimination; A stalls at once
        assert [len(args[0]) for args in calls] == [m], m


# Superfunction supermatrices whose A and D blocks stall in their first
# column yet have determinant 1.  With y = c x^e + d, d not -1 or -2, the
# block K(y) = [[y + 1, y], [y + 2, y + 1]] has determinant 1 and no
# monomial in its first column; the body of A is P diag(K(y), I) U L with P
# a permutation, U upper and L lower unitriangular with polynomial entries,
# L's first column e_0, so A's first column is K(y)'s, permuted.  D's body
# is P K(y) U the same way.  Nilpotent souls ride on A and D, and the odd
# blocks are polynomials times xi_j.


def _polynomial(rng, degree=1):
    return SuperFunction.from_polynomial(STALL, Polynomial(1, {
        (e,): rng.choice([-2, -1, 1, 2, Fraction(1, 2)])
        for e in range(degree + 1) if rng.random() < 0.7}))


def _stalling_body(rng, n, perm):
    zero, one = SuperFunction.zero(STALL), SuperFunction.one(STALL)
    y = (SuperFunction.coordinate(STALL, 0, rng.randint(1, 2)) * rng.choice([1, -1, 2])
         + rng.choice([0, 1, -3]))
    k = [[one if i == j else zero for j in range(n)] for i in range(n)]
    k[0][:2], k[1][:2] = [y + 1, y], [y + 2, y + 1]
    u = [[one if i == j else _polynomial(rng) if j > i else zero
          for j in range(n)] for i in range(n)]
    low = [[one if i == j else _polynomial(rng) if 0 < j < i else zero
            for j in range(n)] for i in range(n)]
    body = _sf_matrix(n, 0, k) * _sf_matrix(n, 0, u) * _sf_matrix(n, 0, low)
    return [list(body.entries[i]) for i in perm]


@st.composite
def stalled_superfunction_supermatrices(draw):
    """(p|q) up to (5|2) over (1|2) superfunctions: D stalls when q = 2 and
    the Schur complement when p >= 3, and every draw stalls somewhere."""
    q = draw(st.integers(0, 2))
    p = draw(st.integers(0 if q == 2 else 3, 5))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    xi1, xi2 = SuperFunction.odd_gen(STALL, 0), SuperFunction.odd_gen(STALL, 1)

    def even_block(n):
        if n == 1:
            body = [[SuperFunction.coordinate(STALL, 0, rng.randint(0, 2))
                     * rng.choice([1, -2])]]
        else:
            body = _stalling_body(rng, n, draw(st.permutations(range(n))))
        return [[b + _polynomial(rng) * xi1 * xi2 for b in row] for row in body]

    def odd_block(rows, cols):
        return [[_polynomial(rng) * xi1 + _polynomial(rng) * xi2
                 for _ in range(cols)] for _ in range(rows)]

    return SuperMatrix.from_blocks(
        even_block(p) if p else [], odd_block(p, q), odd_block(q, p),
        even_block(q) if q else [], zero=SuperFunction.zero(STALL),
        one=SuperFunction.one(STALL))


@settings(max_examples=200, deadline=None)
@given(stalled_superfunction_supermatrices())
def test_berezinian_of_stalled_superfunction_blocks_matches_the_oracle(x):
    with fallback_calls() as calls:
        got = x.berezinian()
    want = oracle_berezinian(x)
    assert got == want
    assert str(got) == str(want)
    stalled = [2] * (x.q == 2) + [x.p] * (x.p >= 3)  # D, then A - B Z
    assert [len(args[0]) for args in calls] == stalled


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
    """det(A - B Z) det(D)^-1 with Z = D^-1 C solved first, D^-1 the
    adjugate over det(D), every determinant by Laplace expansion."""
    A, B, C, D = (x.block(name) for name in "ABCD")
    if x.q == 0:
        return laplace_det(A, x.one)
    Dinv = adjugate_inverse(D, x.one)
    Z = [[sum((Dinv[k][l] * C[l][j] for l in range(x.q)), x.zero)
          for j in range(x.p)] for k in range(x.q)]
    schur = [[A[i][j] - sum((B[i][k] * Z[k][j] for k in range(x.q)), x.zero)
              for j in range(x.p)] for i in range(x.p)]
    return laplace_det(schur, x.one) * laplace_det(D, x.one).inv_even()


def fallback_berezinian(x):
    """The Berezinian through the stalled paths alone, whether or not a
    column stalls: W and det(D)^-1 from the adjugate solve and the
    determinant from Faddeev-LeVerrier."""
    A, B, C, D = (x.block(name) for name in "ABCD")
    if x.q == 0:
        return supermatrix._faddeev_leverrier(A, x.zero, x.one)[0] if A else x.one
    det_d_inv, W = supermatrix._adjugate_solve(D, C, x.zero, x.one)
    if x.p == 0:
        return det_d_inv
    schur = [[A[i][j] + sum((B[i][k] * W[k][j] for k in range(x.q)), x.zero)
              for j in range(x.p)] for i in range(x.p)]
    return supermatrix._faddeev_leverrier(schur, x.zero, x.one)[0] * det_d_inv


@settings(max_examples=100, deadline=None)
@given(mixed_s_invertible_supermatrices())
def test_berezinian_mixing_powers_of_s_matches_the_cofactor_oracles(x):
    got = x.berezinian()
    assert got == cofactor_berezinian(x) == oracle_berezinian(x)
    assert fallback_berezinian(x) == got
    # the value prints as a signed sum that the grammar reads back
    assert parse_supermatrix(format_supermatrix(x)) == x
    assert str(got) == str(oracle_berezinian(x))


@pytest.mark.parametrize("wrong", ["other", "mixed"])
@pytest.mark.parametrize("parity", [EVEN, ODD])
@pytest.mark.parametrize("block, i, j", [
    ("A", 1, 0), ("B", 0, 2), ("C", 2, 1), ("D", 2, 2)])
def test_entry_parity_enforced(block, i, j, parity, wrong):
    # a (2|1) grid of homogeneous entries, 2 where even and xi1 where odd,
    # but for entry (i, j) of the named block
    even, odd, mixed = {(): 2}, {(0,): 1}, {(): 1, (0,): 1}

    def wants_even(r, c):
        return ((r < 2) == (c < 2)) == (parity is EVEN)

    entries = [[even if wants_even(r, c) else odd for c in range(3)]
               for r in range(3)]
    want = "even" if wants_even(i, j) else "odd"
    entries[i][j] = mixed if wrong == "mixed" else odd if want == "even" else even
    with pytest.raises(ParityError, match=re.escape(
            f"entry ({i}, {j}) must be {want}, got {g(entries[i][j])}")):
        sm(2, 1, entries, parity)


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
    assert x.berezinian() == g({(): 2, (0, 1): -4})


def test_berezinian_pure_even_block():
    x = sm(2, 0, [[{(): 1}, {(): 2}], [{(): 3}, {(): 4}]])
    assert x.berezinian() == g({(): -2})


def test_berezinian_pure_odd_block():
    x = sm(0, 2, [[{(): 1}, {(): 2}], [{(): 0}, {(): 2}]])
    assert x.berezinian() == g({(): Fraction(1, 2)})


def test_berezinian_requires_invertible_d():
    x = sm(1, 1, [[{(): 1}, {}], [{}, {(0, 1): 1}]])
    with pytest.raises(NonInvertibleError, match="odd-odd block is not invertible"):
        x.berezinian()


@pytest.mark.parametrize("x", [
    sm(0, 2, [[{(): 1}, {(): 2}], [{(): 2}, {(): 4, (0, 1): 1}]]),
    _sf_matrix(0, 1, [[SuperFunction.coordinate(STALL, 0) + 1]]),
    _sf_matrix(1, 1, [[SuperFunction.one(STALL), SuperFunction.odd_gen(STALL, 0)],
                      [SuperFunction.odd_gen(STALL, 1),
                       SuperFunction.coordinate(STALL, 0) + 1]]),
], ids=["grassmann-pure-odd", "superfunction-pure-odd", "superfunction"])
def test_berezinian_rejects_singular_d_on_every_path(x):
    with pytest.raises(NonInvertibleError, match="odd-odd block is not invertible"):
        x.berezinian()


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


# The suite generators draw each term straight as a key of an element's
# integer form and build it with the trusted constructor.  Given the index
# tuples of the same draws, the public constructor must build the same
# elements, stored alike, and leave the generator in the same state.


def _public_random_grassmann(rng, n, parity=None, max_terms=3,
                             ensure_body=False):
    indices = [idx for size in range(n + 1)
               if parity is None or size % 2 == parity.value
               for idx in itertools.combinations(range(n), size)]
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        idx = rng.choice(indices)
        coeff = rng.randint(-3, 3)
        terms[idx] = terms.get(idx, 0) + coeff
    if ensure_body and not terms.get(()):
        terms[()] = rng.choice((-3, -2, -1, 1, 2, 3))
    return GrassmannElement(n, terms)


def _stored(x):
    return x.generator_count, x.den, list(x.nums.items())


@pytest.mark.parametrize("seed", range(4))
def test_random_elements_match_the_public_constructor(seed):
    for n, parity, max_terms, ensure_body in itertools.product(
            (1, 4, 6), (None, EVEN, ODD), (1, 3, 6), (False, True)):
        rng, twin = random.Random(seed), random.Random(seed)
        for _ in range(10):
            got = random_grassmann(rng, n, parity, max_terms, ensure_body)
            want = _public_random_grassmann(twin, n, parity, max_terms,
                                            ensure_body)
            assert _stored(got) == _stored(want)
        assert rng.getstate() == twin.getstate()


def _public_random_even_supermatrix(rng, p, q, n):
    """The matrix draw through the public constructors: A and D with their
    diagonal bodies forced, redrawn while a body is singular, then B and
    C, each entry a _public_random_grassmann draw."""
    for _ in range(60):
        A = [[_public_random_grassmann(rng, n, EVEN, ensure_body=(i == j))
              for j in range(p)] for i in range(p)]
        D = [[_public_random_grassmann(rng, n, EVEN, ensure_body=(i == j))
              for j in range(q)] for i in range(q)]
        if any(block and linalg.det([[e.body().rational for e in row]
                                     for row in block]) == 0
               for block in (A, D)):
            continue
        B = [[_public_random_grassmann(rng, n, ODD) for _ in range(q)]
             for _ in range(p)]
        C = [[_public_random_grassmann(rng, n, ODD) for _ in range(p)]
             for _ in range(q)]
        rows = [a + b for a, b in zip(A, B)] + [c + d for c, d in zip(C, D)]
        return SuperMatrix(p, q, rows, zero=GrassmannElement.zero(n),
                           one=GrassmannElement.one(n))
    raise RuntimeError("failed to generate an invertible supermatrix")


@pytest.mark.parametrize("seed", range(3))
def test_random_supermatrices_match_the_public_constructor(seed):
    # one stream through every shape, p = 0 and q = 0 and no generators
    # (no odd entry to draw) among them
    shapes = [(1, 1, 4), (2, 1, 4), (3, 3, 6), (0, 2, 4), (2, 0, 4),
              (0, 1, 0), (1, 0, 0), (0, 0, 3)]
    rng, twin = random.Random(seed), random.Random(seed)
    for p, q, n in shapes:
        got = random_even_supermatrix(rng, p, q, n)
        want = _public_random_even_supermatrix(twin, p, q, n)
        assert (got.p, got.q, got.parity) == (want.p, want.q, want.parity)
        assert [[_stored(e) for e in row] for row in got.entries] == \
            [[_stored(e) for e in row] for row in want.entries], (p, q, n)
        assert rng.getstate() == twin.getstate(), (p, q, n)


@pytest.mark.parametrize("draw, public", [
    (lambda rng: random_grassmann(rng, 0, ODD),
     lambda rng: _public_random_grassmann(rng, 0, ODD)),
    (lambda rng: random_grassmann(rng, 2, max_terms=0),
     lambda rng: _public_random_grassmann(rng, 2, max_terms=0)),
    (lambda rng: random_even_supermatrix(rng, 1, 1, 0),
     lambda rng: _public_random_even_supermatrix(rng, 1, 1, 0)),
], ids=["grassmann-odd-n0", "grassmann-no-terms", "supermatrix-n0"])
def test_random_draws_raise_as_the_public_draws(draw, public):
    # the same error at the same point of the stream: the term count is
    # drawn before an empty table of odd monomials raises
    for seed in range(5):
        rng, twin = random.Random(seed), random.Random(seed)
        with pytest.raises((IndexError, ValueError)) as want:
            public(twin)
        with pytest.raises(want.type):
            draw(rng)
        assert rng.getstate() == twin.getstate(), seed


def test_random_supermatrix_units_come_from_the_public_constructors():
    x = random_even_supermatrix(random.Random(0), 1, 1, N)
    assert (x.zero, x.one) == (ZERO, ONE)
    for _ in range(2):  # the shared units must not skip the count's check
        with pytest.raises(DimensionError, match="nonnegative"):
            random_even_supermatrix(random.Random(0), 1, 1, -1)


# Sums, negations, products and drawn matrices are built by
# the trusted constructor, which skips the per-entry parity check.  The
# public constructor must accept every entry grid it builds.


def _public_copy(x):
    return SuperMatrix(x.p, x.q, x.entries, x.parity, zero=x.zero, one=x.one)


@st.composite
def homogeneous_supermatrices(draw, p, q, n):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return random_even_supermatrix(rng, p, q, n)
    return random_odd_supermatrix(rng, p, q, n)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_the_public_constructor_accepts_every_trusted_result(data):
    p, q, n = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3)), \
        data.draw(st.integers(1, 5))
    x, y, z = (data.draw(homogeneous_supermatrices(p, q, n)) for _ in range(3))
    results = [x * y, y * x, x * z, -x, -(y * z), (x * y) * z]
    for a, b in ((x, y), (x, z), (y, z), (x * y, z * x)):
        if a.parity is b.parity:
            results += [a + b, a - b]
    results.append(random_even_supermatrix(
        random.Random(data.draw(st.integers(0, 2**32 - 1))), p, q, n))
    for r in results:
        assert _public_copy(r) == r

