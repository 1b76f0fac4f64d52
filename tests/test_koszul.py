"""Homological Berezinian and D(x)-class checks."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from superberezin import koszul, linalg
from superberezin.grassmann import EVEN, ODD, GrassmannElement, Parity, _mask
from superberezin.koszul import (
    KoszulComplexSlice,
    block_layer_sums,
    homological_berezinian,
)
from superberezin.supermatrix import SuperMatrix
from superberezin.errors import DimensionError, InconclusiveError


# The whole truncated slice, the oracle of the weight blocks: every
# monomial of S(ΠV ⊕ V*) up to a top degree, as (even_exponents,
# odd_indices), a tuple of p+q nonnegative integers and a strictly
# increasing tuple of odd-letter indices.  The block class's
# differential_matrix and d_rank work on it unchanged.


def _compositions(total, parts):
    """All tuples of `parts` nonnegative integers summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


class WholeSlice(KoszulComplexSlice):
    """S(ΠV ⊕ V*) truncated at a top polynomial degree, with d = Π·(-)."""

    def __init__(self, p, q, degree_cap):
        self.p, self.q, self.degree_cap = p, q, degree_cap
        n = p + q
        # the even partner of each odd letter in the canonical element
        self._partners = [q + i for i in range(p)] + list(range(q))
        self._bases = {
            k: [(evens, odds) for size in range(min(n, k) + 1)
                for odds in combinations(range(n), size)
                for evens in _compositions(k - size, n)]
            for k in range(degree_cap + 1)}

    def basis(self, degree, parity=None):
        return [m for m in self._bases[degree]
                if parity is None or len(m[1]) % 2 == parity.value]

    def apply_d(self, mono):
        evens, odds = mono
        out = []
        for sign, i in koszul._d_terms(_mask(odds), self.p + self.q):
            new_evens = list(evens)
            new_evens[self._partners[i]] += 1
            out.append((sign, (tuple(new_evens), tuple(sorted(odds + (i,))))))
        return out


def d_squared_vanishes(cx, degree):
    """d(d(m)) = 0 for every basis element m of the given degree."""
    for mono in cx.basis(degree):
        acc = {}
        for c1, m1 in cx.apply_d(mono):
            for c2, m2 in cx.apply_d(m1):
                acc[m2] = acc.get(m2, 0) + c1 * c2
        if any(v != 0 for v in acc.values()):
            return False
    return True


def homology_dimension(cx, degree, parity):
    """dim ker - dim im of d at (degree, parity); a whole slice needs
    degree ≤ cap - 2."""
    return (len(cx.basis(degree, parity)) - cx.d_rank(degree, parity)
            - cx.d_rank(degree - 2, parity.flip()))


# Oracles for the shared monomial product: the Koszul differential by
# counting hops, and letter products expanded one letter at a time.


def reference_apply_d(cx, mono):
    """Left multiplication by the canonical element, by counting hops."""
    evens, odds = mono
    pairs = ([(i, cx.q + i) for i in range(cx.p)]
             + [(cx.p + j, j) for j in range(cx.q)])
    out = []
    for odd_letter, even_letter in pairs:
        if odd_letter in odds:
            continue
        hops = sum(1 for o in odds if o < odd_letter)
        sign = -1 if hops % 2 else 1
        new_evens = list(evens)
        new_evens[even_letter] += 1
        new_odds = tuple(sorted(odds + (odd_letter,)))
        out.append((Fraction(sign), (tuple(new_evens), new_odds)))
    return out


def expand_letter_product(combos, letter_count):
    """Multiply out linear combinations {letter: weight} of odd letters."""
    acc = {(): Fraction(1)}
    for combo in combos:
        nxt = {}
        for idx, coeff in acc.items():
            for letter, weight in combo.items():
                assert 0 <= letter < letter_count
                if weight == 0 or letter in idx:
                    continue
                hops = sum(1 for o in idx if o > letter)
                sign = -1 if hops % 2 else 1
                new_idx = tuple(sorted(idx + (letter,)))
                val = nxt.get(new_idx, Fraction(0)) + sign * coeff * weight
                if val:
                    nxt[new_idx] = val
                else:
                    nxt.pop(new_idx, None)
        acc = nxt
    return acc


# The D(x)-class factors of a numeric block-diagonal basis change T, read
# as top coefficients of letter products in the Koszul model: λ with
# D(x') = λ·D(x), and μ with D(ξ'_n,…,ξ'_1) = μ·D(ξ_n,…,ξ_1).


def reference_d_class_factor(p, q, T):
    n = p + q
    A = [[Fraction(T[i][j]) for j in range(p)] for i in range(p)]
    D = [[Fraction(T[p + i][p + j]) for j in range(q)] for i in range(q)]
    Dinv = linalg.inverse(D) if q else []
    combos = [{i: A[i][j] for i in range(p)} for j in range(p)]
    combos += [{p + k: Dinv[j][k] for k in range(q)} for j in range(q)]
    return expand_letter_product(combos, n).get(tuple(range(n)), Fraction(0))


def reference_dual_class_factor(p, q, T):
    n = p + q
    A = [[Fraction(T[i][j]) for j in range(p)] for i in range(p)]
    D = [[Fraction(T[p + i][p + j]) for j in range(q)] for i in range(q)]
    Ainv = linalg.inverse(A) if p else []
    primed, plain = [], []
    for i in reversed(range(n)):
        if i < p:
            primed.append({k: Ainv[i][k] for k in range(p)})
        else:
            primed.append({p + k: D[k][i - p] for k in range(q)})
        plain.append({i: Fraction(1)})
    top = tuple(range(n))
    num = expand_letter_product(primed, n).get(top, Fraction(0))
    return num / expand_letter_product(plain, n)[top]


ORACLE_SHAPES = [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (2, 2), (3, 2)]


@pytest.mark.parametrize("p,q", ORACLE_SHAPES)
def test_apply_d_matches_hop_count_oracle(p, q):
    cap = p + q + 2
    cx = WholeSlice(p, q, cap)
    for degree in range(cap + 1):
        for mono in cx.basis(degree):
            assert cx.apply_d(mono) == reference_apply_d(cx, mono)
            # the signs are plain ints, never Fractions
            assert all(type(c) is int for c, _ in cx.apply_d(mono))


@pytest.mark.parametrize("p,q", ORACLE_SHAPES)
def test_differential_matrix_matches_hop_count_oracle(p, q):
    cap = p + q + 2
    cx = WholeSlice(p, q, cap)
    for degree in range(cap - 1):
        for parity in Parity:
            target = {m: i for i, m in
                      enumerate(cx.basis(degree + 2, parity.flip()))}
            expected = []
            for mono in cx.basis(degree, parity):
                row = {}
                for coeff, image in reference_apply_d(cx, mono):
                    row[target[image]] = row.get(target[image], 0) + coeff
                expected.append(row)
            assert cx.differential_matrix(degree, parity) == expected


def test_d_squared_zero():
    for p, q in [(1, 0), (0, 1), (1, 1), (2, 1)]:
        cx = WholeSlice(p, q, p + q + 3)
        for k in range(p + q + 2):
            assert d_squared_vanishes(cx, k)


def test_class_representative_is_a_cycle():
    p, q = 2, 1
    cx = WholeSlice(p, q, p + q + 2)
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
    (4, 3, 9, (1, ODD)),
    (4, 4, 10, (1, EVEN)),
    (5, 5, 12, (1, ODD)),
    (6, 5, 13, (1, ODD)),
])
def test_homological_berezinian_larger_rungs(p, q, cap, expected):
    assert homological_berezinian(p, q, cap) == expected


def test_homological_berezinian_concentration_degree():
    p, q = 1, 1
    cx = WholeSlice(p, q, p + q + 3)
    dims = {
        k: sum(homology_dimension(cx, k, par) for par in Parity)
        for k in range(p + q + 2)
    }
    assert dims == {0: 0, 1: 0, 2: 1, 3: 0}


def test_homological_berezinian_cap_too_small():
    with pytest.raises(DimensionError):
        homological_berezinian(1, 1, 3)


@pytest.mark.parametrize("p,q", [(-1, 3), (3, -1)])
def test_homological_berezinian_refuses_negative_dimensions(p, q):
    with pytest.raises(DimensionError):
        homological_berezinian(p, q, 5)


@pytest.mark.parametrize("p,q,forced", [(-1, 2, 0), (2, -1, 0), (1, 1, -1),
                                         (2, 1, 4)])
def test_block_refuses_a_shape_or_forced_count_out_of_range(p, q, forced):
    with pytest.raises(DimensionError):
        KoszulComplexSlice(p, q, forced)


_D_TERMS = koszul._d_terms


def _zero_d(present, n):
    return []


def _unsigned_d(present, n):
    return [(1, i) for _, i in _D_TERMS(present, n)]


@pytest.mark.parametrize("broken", [_zero_d, _unsigned_d])
@pytest.mark.parametrize("p,q", [(2, 1), (1, 2), (2, 2)])
def test_homological_berezinian_refuses_a_broken_differential(
        monkeypatch, broken, p, q):
    # the mask-built d of the blocks
    monkeypatch.setattr(koszul, "_d_terms", broken)
    with pytest.raises(InconclusiveError):
        homological_berezinian(p, q, p + q + 2)


def _weight(cx, mono):
    """The weight vector of a monomial: partner exponent minus presence."""
    evens, odds = mono
    partner = [cx.q + i for i in range(cx.p)] + list(range(cx.q))
    return [evens[partner[i]] - (i in odds) for i in range(cx.p + cx.q)]


@pytest.mark.parametrize("p,q", ORACLE_SHAPES)
def test_block_layer_sums_match_the_whole_slice(p, q):
    cap = p + q + 2
    whole = WholeSlice(p, q, cap + 1)
    sizes, ranks = block_layer_sums(p, q, cap)
    for degree in range(cap):
        for parity in Parity:
            assert sizes[(degree, parity)] == len(whole.basis(degree, parity))
            assert ranks[(degree, parity)] == whole.d_rank(degree, parity)
    assert all(degree < cap for degree, _ in sizes)


def _monomial(block, mask):
    """The monomial of the whole slice that the mask F | S of a block
    stands for: odds F ∪ S, partner exponent 1 on each letter of S."""
    n = block.p + block.q
    partner = [block.q + i for i in range(block.p)] + list(range(block.q))
    odds = tuple(i for i in range(n) if mask >> i & 1)
    evens = [0] * n
    for i in odds[block.forced:]:
        evens[partner[i]] = 1
    return tuple(evens), odds


@pytest.mark.parametrize("p,q", ORACLE_SHAPES)
def test_block_differential_matches_the_hop_count_oracle_entry_by_entry(p, q):
    # the layer sums compare sizes and ranks only, which a sign error that
    # keeps every rank would pass; here every entry of d on every block is
    # the hop-count oracle's coefficient between the monomials it stands for
    n = p + q
    whole = WholeSlice(p, q, 2 * n)
    layers = {(degree, parity): set(whole.basis(degree, parity))
              for degree in range(2 * n + 1) for parity in Parity}
    for forced in range(n + 1):
        block = KoszulComplexSlice(p, q, forced)
        for degree in range(2 * n - forced + 1):
            for parity in Parity:
                sources = [_monomial(block, m)
                           for m in block.basis(degree, parity)]
                targets = [_monomial(block, m)
                           for m in block.basis(degree + 2, parity.flip())]
                assert set(sources) <= layers[(degree, parity)]
                entries = {
                    (sources[r], targets[j]): c for r, row in
                    enumerate(block.differential_matrix(degree, parity))
                    for j, c in row.items()}
                assert entries == {(mono, image): c for mono in sources
                                   for c, image in reference_apply_d(whole, mono)}


def _block_layers(whole, block, forced_count):
    """{|S|: (size, rank of d)} of a weight block cut out of the whole
    slice, with d from the hop-count oracle."""
    layers = {}
    for mono in block:
        layers.setdefault(len(mono[1]) - forced_count, []).append(mono)
    out = {}
    for s, monos in layers.items():
        target = {m: j for j, m in enumerate(layers.get(s + 1, []))}
        rows = []
        for mono in monos:
            row = {}
            for coeff, image in reference_apply_d(whole, mono):
                row[target[image]] = row.get(target[image], 0) + coeff
            rows.append(row)
        out[s] = (len(rows), linalg.rank(rows, ncols=len(target)))
    return out


def _representative_layers(p, q, forced_count):
    """{|S|: (size, rank of d)} of the mask-built representative block."""
    block = KoszulComplexSlice(p, q, forced_count)
    out = {}
    for s in range(p + q - forced_count + 1):
        degree = forced_count + 2 * s
        parity = Parity((forced_count + s) % 2)
        out[s] = (len(block.basis(degree, parity)),
                  block.d_rank(degree, parity))
    return out


def _top_degree(weights):
    """The highest degree of a monomial in the weight block of `weights`."""
    forced_count = weights.count(-1)
    return (sum(w for w in weights if w != -1) + forced_count
            + 2 * (len(weights) - forced_count))


@pytest.mark.parametrize("p,q,weights", [
    (1, 1, (2, -1)),
    (2, 1, (-1, 1, 3)),
    (1, 2, (0, 2, -1)),
    (2, 2, (-1, 2, 1, -1)),
    (3, 2, (1, -1, 0, 2, -1)),
    (2, 3, (-1, 0, 3, -1, 1)),
])
def test_weight_block_has_the_matrices_of_its_representative(p, q, weights):
    # Every weight block cut out of the whole slice has, layer by layer,
    # the matrices of d of the representative with the same number of
    # forced letters, up to invertible row and column operations: the same
    # sizes and ranks.  That is the isomorphism that counts a block
    # C(n, |F|) times.  Checked for every one of the 2^n forced sets F at
    # free weights 0 and with one unit on the highest free letter, and at
    # the larger free weights of `weights`.
    n = p + q
    vectors = {weights}
    for forced_count in range(n + 1):
        for forced in combinations(range(n), forced_count):
            zero = [-1 if i in forced else 0 for i in range(n)]
            vectors.add(tuple(zero))
            if forced_count < n:
                zero[max(set(range(n)) - set(forced))] = 1
                vectors.add(tuple(zero))
    whole = WholeSlice(p, q, max(map(_top_degree, vectors)))
    blocks = {}
    for degree in range(whole.degree_cap + 1):
        for mono in whole.basis(degree):
            blocks.setdefault(tuple(_weight(whole, mono)), []).append(mono)
    representatives = {k: _representative_layers(p, q, k)
                       for k in range(n + 1)}
    for vector in vectors:
        forced_count = vector.count(-1)
        assert (_block_layers(whole, blocks[vector], forced_count)
                == representatives[forced_count])


@pytest.mark.parametrize("p,q", [(1, 1), (2, 1), (2, 2), (3, 2)])
def test_only_the_fully_forced_block_has_homology(p, q):
    # Each representative block is a complex (d^2 = 0) of its own; with a
    # free letter it is exact, and the block with every letter forced is
    # the line of the class Πe_1⋯Πe_p·f*_1⋯f*_q in degree n.
    n = p + q
    for forced_count in range(n + 1):
        block = KoszulComplexSlice(p, q, forced_count)
        homology = {}
        # every degree of the block, up to its top mask of degree 2n - k
        for degree in range(2 * n - forced_count + 1):
            assert d_squared_vanishes(block, degree)
            for parity in Parity:
                dim = homology_dimension(block, degree, parity)
                if dim:
                    homology[(degree, parity)] = dim
        assert homology == ({(n, Parity(n % 2)): 1} if forced_count == n
                            else {})


def test_expand_letter_product_signs():
    # (a + b)(a - b) = -2 ab for anticommuting letters, in the oracle and in
    # the GrassmannElement product that replaced it
    combos = [{0: Fraction(1), 1: Fraction(1)}, {0: Fraction(1), 1: Fraction(-1)}]
    assert expand_letter_product(combos, 2) == {(0, 1): Fraction(-2)}
    a = GrassmannElement.generator(2, 0)
    b = GrassmannElement.generator(2, 1)
    assert (a + b) * (a - b) == GrassmannElement.monomial(2, (0, 1), -2)


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
        A = [row[:p] for row in T[:p]]
        D = [row[p:] for row in T[p:]]
        if (not p or linalg.det(A) != 0) and (not q or linalg.det(D) != 0):
            return T


def test_d_class_factor_is_berezinian():
    rng = random.Random(3)
    for p, q in [(1, 1), (2, 1), (1, 2), (2, 2)]:
        for _ in range(8):
            T = _random_block_diag(rng, p, q)
            lam = reference_d_class_factor(p, q, T)
            ber = _numeric_supermatrix(p, q, T).berezinian()
            assert GrassmannElement.scalar(0, lam) == ber


def test_pairing_invariance_under_basis_change():
    # both sides transform by inverse factors, so the pairing is unchanged
    rng = random.Random(5)
    for p, q in [(1, 1), (2, 1), (1, 2)]:
        for _ in range(8):
            T = _random_block_diag(rng, p, q)
            lam = reference_d_class_factor(p, q, T)
            mu = reference_dual_class_factor(p, q, T)
            assert lam * mu == 1
