"""Homological model of the Berezinian line, used as a cross-check.

For V of dimension p|q we form the supersymmetric algebra S(ΠV ⊕ V*).
Its generators, as plain letters:

  even letters:  Πf_1 .. Πf_q  (Π of the odd basis of V), then
                 e*_1 .. e*_p  (duals of the even basis)
  odd letters:   Πe_1 .. Πe_p  (Π of the even basis), then
                 f*_1 .. f*_q  (duals of the odd basis)

Left multiplication by the canonical odd element
Π = Σ_i Πe_i·e*_i + Σ_j Πf_j·f*_j squares to zero and raises the total
polynomial degree by 2.  The homology is one line sitting in degree p+q,
spanned by the class of Πe_1⋯Πe_p·f*_1⋯f*_q; removing the Π^p shift, the
reported parity is q mod 2.

Everything is finite in each fixed degree, so ranks over exact rationals
give the homology dimensions with no approximation.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import combinations

from . import linalg
from .errors import DimensionError, InconclusiveError
from .grassmann import GrassmannElement, Parity, _graded_products, _masked

# A monomial is (even_exponents, odd_indices): a tuple of p+q nonnegative
# integers and a strictly increasing tuple of odd-letter indices.
Monomial = tuple[tuple[int, ...], tuple[int, ...]]


def _compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative integers summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


class KoszulComplexSlice:
    """S(ΠV ⊕ V*) truncated at a top polynomial degree, with d = Π·(-)."""

    def __init__(self, p: int, q: int, degree_cap: int):
        if p < 0 or q < 0:
            raise DimensionError("need nonnegative dimensions")
        if degree_cap < 0:
            raise DimensionError("degree cap must be nonnegative")
        self.p = p
        self.q = q
        self.degree_cap = degree_cap
        n = p + q
        # the canonical element as masked (odd letter,) -> its even partner
        self._canonical = _masked([((i,), q + i) for i in range(p)]
                                  + [((p + j,), j) for j in range(q)])
        self._bases: dict[int, list[Monomial]] = {}
        self._index: dict[int, dict[Monomial, int]] = {}
        for k in range(degree_cap + 1):
            basis = []
            for size in range(min(n, k) + 1):
                for odds in combinations(range(n), size):
                    for evens in _compositions(k - size, n):
                        basis.append((evens, odds))
            self._bases[k] = basis
            self._index[k] = {m: i for i, m in enumerate(basis)}

    def basis(self, degree: int, parity: Parity | None = None) -> list[Monomial]:
        monos = self._bases[degree]
        if parity is None:
            return list(monos)
        return [m for m in monos if len(m[1]) % 2 == parity.value]

    @staticmethod
    def parity_of(mono: Monomial) -> Parity:
        return Parity(len(mono[1]) % 2)

    def apply_d(self, mono: Monomial) -> list[tuple[Fraction, Monomial]]:
        """Left multiplication by the canonical element, degree +2."""
        evens, odds = mono
        out = []
        for new_odds, negative, even_letter, _ in _graded_products(
                self._canonical, _masked([(odds, None)])):
            new_evens = list(evens)
            new_evens[even_letter] += 1
            out.append((Fraction(-1 if negative else 1),
                        (tuple(new_evens), new_odds)))
        return out

    def differential_matrix(self, degree: int,
                            parity: Parity) -> list[dict[int, Fraction]]:
        """Sparse matrix of d on the (degree, parity) slice.

        One row per source monomial, as {target index: coefficient}; the
        targets are `basis(degree + 2, parity.flip())`.
        """
        target_index = {
            m: i for i, m in enumerate(self.basis(degree + 2, parity.flip()))
        }
        rows = []
        for mono in self.basis(degree, parity):
            row: dict[int, Fraction] = {}
            for coeff, image in self.apply_d(mono):
                j = target_index[image]
                row[j] = row.get(j, 0) + coeff
            rows.append(row)
        return rows

    def d_rank(self, degree: int, parity: Parity) -> int:
        """Rank of d leaving the (degree, parity) slice; 0 below degree 0."""
        if degree < 0:
            return 0
        targets = self.basis(degree + 2, parity.flip())
        return linalg.rank(self.differential_matrix(degree, parity),
                           ncols=len(targets))

    def d_squared_vanishes(self, degree: int) -> bool:
        for mono in self._bases[degree]:
            acc: dict[Monomial, Fraction] = {}
            for c1, m1 in self.apply_d(mono):
                for c2, m2 in self.apply_d(m1):
                    acc[m2] = acc.get(m2, Fraction(0)) + c1 * c2
            if any(v != 0 for v in acc.values()):
                return False
        return True

    def homology_dimension(self, degree: int, parity: Parity) -> int:
        """dim ker - dim im at (degree, parity); needs degree ≤ cap - 2."""
        if degree + 2 > self.degree_cap:
            raise DimensionError("degree too close to the cap to compute homology")
        return _homology(self, degree, parity, self.d_rank)


def _homology(cx: KoszulComplexSlice, degree: int, parity: Parity, d_rank) -> int:
    return (len(cx.basis(degree, parity)) - d_rank(degree, parity)
            - d_rank(degree - 2, parity.flip()))


def _homology_profile(cx: KoszulComplexSlice, cap: int,
                      d_rank) -> dict[tuple[int, int], int]:
    """Nonzero homology dimensions of the complex truncated at `cap`."""
    profile = {}
    for k in range(cap - 1):
        for parity in Parity:
            d = _homology(cx, k, parity, d_rank)
            if d:
                profile[(k, parity.value)] = d
    return profile


def homological_berezinian(p: int, q: int, degree_cap: int) -> tuple[int, Parity]:
    """Total dimension and parity of the Berezinian line, computed homologically.

    Runs the truncated computation at degree_cap and degree_cap + 1 on one
    complex.  A (degree, parity) slice does not depend on the cap, so the
    two runs share each slice's rank through a memo that lives for this
    call only; they therefore agree on the shared range by construction,
    and that comparison stays only as a consistency assertion.  The live
    guards are the boundary check (homology touching the top computed
    degree) and the parity check (homology in both parities): either
    raises InconclusiveError rather than returning a wrong answer.
    """
    if p + q < 1:
        raise DimensionError("need p + q >= 1")
    if degree_cap < p + q + 2:
        raise DimensionError("degree cap must be at least p + q + 2")
    cx = KoszulComplexSlice(p, q, degree_cap + 1)
    d_rank = functools.cache(cx.d_rank)
    first = _homology_profile(cx, degree_cap, d_rank)
    second = _homology_profile(cx, degree_cap + 1, d_rank)
    shared = {k: v for k, v in second.items() if k[0] <= degree_cap - 2}
    if first != shared:
        raise InconclusiveError(
            f"homology profile unstable between caps {degree_cap} and {degree_cap + 1}"
        )
    if any(k[0] >= degree_cap - 1 for k in second):
        raise InconclusiveError(
            "nonzero homology at the truncation boundary; increase degree_cap"
        )
    total = sum(second.values())
    if total == 0:
        raise InconclusiveError("no homology found below the truncation degree")
    parities = {k[1] for k in second}
    if len(parities) > 1:
        raise InconclusiveError("homology spread over both parities")
    # remove the Π^p parity shift of the homological model
    reported = Parity((parities.pop() + p) % 2)
    return total, reported


# -- D(x) classes ---------------------------------------------------------


def _top_coefficient(factors, n: int) -> Fraction:
    """Coefficient of letters 1..n in the product of factors, left to right."""
    product = math.prod(factors, start=GrassmannElement.one(n))
    return product.coefficient(range(n)).rational


def _letters(n: int, weights: dict) -> GrassmannElement:
    """The degree-1 element sum of weight * letter on n letters."""
    return GrassmannElement(n, {(letter,): w for letter, w in weights.items()})


def d_class_factor(p: int, q: int, T) -> Fraction:
    """Factor λ with D(x') = λ·D(x) for the basis change x'_j = Σ_i T_ij x_i.

    T is a numeric block-diagonal (p+q)-square matrix (even transformation
    with constant entries).  The factor is read off as the top coefficient
    of the letter product representing D(x') inside the homological model.
    """
    n = p + q
    A = [[Fraction(T[i][j]) for j in range(p)] for i in range(p)]
    D = [[Fraction(T[p + i][p + j]) for j in range(q)] for i in range(q)]
    for i in range(n):
        for j in range(n):
            if (i < p) != (j < p) and Fraction(T[i][j]) != 0:
                raise DimensionError("numeric basis change must be block diagonal")
    Dinv = linalg.inverse(D) if q else []
    # even slots: Π(x'_j) = Σ_i A_ij·Πe_i, letters 0..p-1;
    # odd slots: ξ'_{p+j} = Σ_k (D^-1)_jk·f*_k, letters p..p+q-1
    factors = [_letters(n, {i: A[i][j] for i in range(p)}) for j in range(p)]
    factors += [_letters(n, {p + k: Dinv[j][k] for k in range(q)})
                for j in range(q)]
    return _top_coefficient(factors, n)


def dual_class_factor(p: int, q: int, T) -> Fraction:
    """Factor μ with D(ξ'_n,…,ξ'_1) = μ·D(ξ_n,…,ξ_1) for the same basis change.

    Works in the model of Ber(V*): odd letters there are Πξ_1..Πξ_p followed
    by the double duals x_{p+1}..x_n.  The reversed slot order is shared by
    the primed and unprimed products, so μ is their coefficient ratio.
    """
    n = p + q
    A = [[Fraction(T[i][j]) for j in range(p)] for i in range(p)]
    D = [[Fraction(T[p + i][p + j]) for j in range(q)] for i in range(q)]
    Ainv = linalg.inverse(A) if p else []
    primed = []
    for i in reversed(range(n)):
        if i < p:
            # Π(ξ'_i) = Σ_k (A^-1)_ik·Πξ_k, letters 0..p-1
            primed.append(_letters(n, {k: Ainv[i][k] for k in range(p)}))
        else:
            # x'_i = Σ_k D_{k,i-p}·x_{p+k}, letters p..n-1
            primed.append(_letters(n, {p + k: D[k][i - p] for k in range(q)}))
    plain = [_letters(n, {i: 1}) for i in reversed(range(n))]
    return _top_coefficient(primed, n) / _top_coefficient(plain, n)
