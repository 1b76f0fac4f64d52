"""Homological Berezinian and D(x)-class checks."""

import random
from fractions import Fraction

import pytest

from superberezin.grassmann import EVEN, ODD, GrassmannElement, Parity
from superberezin.koszul import (
    KoszulComplexSlice,
    d_class_factor,
    dual_class_factor,
    expand_letter_product,
    homological_berezinian,
)
from superberezin.supermatrix import SuperMatrix
from superberezin.errors import DimensionError, InconclusiveError


def test_d_squared_zero():
    for p, q in [(1, 0), (0, 1), (1, 1), (2, 1)]:
        cx = KoszulComplexSlice(p, q, p + q + 3)
        for k in range(p + q + 2):
            assert cx.d_squared_vanishes(k)


def test_class_representative_is_a_cycle():
    p, q = 2, 1
    cx = KoszulComplexSlice(p, q, p + q + 2)
    zero_exps = tuple([0] * (p + q))
    rep = (zero_exps, tuple(range(p + q)))
    assert cx.apply_d(rep) == []


@pytest.mark.parametrize("p,q", [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2)])
def test_homological_berezinian(p, q):
    total, parity = homological_berezinian(p, q, p + q + 2)
    assert total == 1
    assert parity == Parity(q % 2)


@pytest.mark.parametrize("p,q,cap,expected", [
    (3, 2, 7, (1, EVEN)),
    (2, 3, 7, (1, ODD)),
    (3, 3, 8, (1, ODD)),
])
def test_homological_berezinian_larger_rungs(p, q, cap, expected):
    assert homological_berezinian(p, q, cap) == expected


def test_homological_berezinian_concentration_degree():
    p, q = 1, 1
    cx = KoszulComplexSlice(p, q, p + q + 3)
    dims = {
        k: sum(cx.homology_dimension(k, par) for par in Parity)
        for k in range(p + q + 2)
    }
    assert dims == {0: 0, 1: 0, 2: 1, 3: 0}


def test_homological_berezinian_cap_too_small():
    with pytest.raises(DimensionError):
        homological_berezinian(1, 1, 3)


def test_expand_letter_product_signs():
    # (a + b)(a - b) = -2 ab for anticommuting letters
    combos = [{0: Fraction(1), 1: Fraction(1)}, {0: Fraction(1), 1: Fraction(-1)}]
    assert expand_letter_product(combos, 2) == {(0, 1): Fraction(-2)}


def _numeric_supermatrix(p, q, T):
    zero = GrassmannElement.zero(0)
    n = p + q
    ent = [[GrassmannElement.scalar(0, Fraction(T[i][j])) for j in range(n)]
           for i in range(n)]
    return SuperMatrix(p, q, ent, zero=zero, one=GrassmannElement.one(0))


def _random_block_diag(rng, p, q):
    while True:
        T = [[Fraction(0)] * (p + q) for _ in range(p + q)]
        for i in range(p):
            for j in range(p):
                T[i][j] = Fraction(rng.randint(-3, 3))
        for i in range(q):
            for j in range(q):
                T[p + i][p + j] = Fraction(rng.randint(-3, 3))
        from superberezin import linalg
        A = [row[:p] for row in T[:p]]
        D = [row[p:] for row in T[p:]]
        if (not p or linalg.det(A) != 0) and (not q or linalg.det(D) != 0):
            return T


def test_d_class_factor_is_berezinian():
    rng = random.Random(3)
    for p, q in [(1, 1), (2, 1), (1, 2), (2, 2)]:
        for _ in range(8):
            T = _random_block_diag(rng, p, q)
            lam = d_class_factor(p, q, T)
            ber = _numeric_supermatrix(p, q, T).berezinian()
            assert GrassmannElement.scalar(0, lam) == ber


def test_pairing_invariance_under_basis_change():
    # both sides transform by inverse factors, so the pairing is unchanged
    rng = random.Random(5)
    for p, q in [(1, 1), (2, 1), (1, 2)]:
        for _ in range(8):
            T = _random_block_diag(rng, p, q)
            lam = d_class_factor(p, q, T)
            mu = dual_class_factor(p, q, T)
            assert lam * mu == 1

