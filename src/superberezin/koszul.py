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

Weight blocks.  Each odd letter i is paired with one even letter, its
partner in Π.  The weight w_i = (exponent of the partner of i) − [i present]
is at least −1, and d keeps every w_i fixed, since a term of Π adds letter
i and one factor of its partner together.  The complex is therefore the
direct sum of its weight blocks (Manin, *Gauge Field Theory and Complex
Geometry*, ch. 3).  In the block of w the forced letters F = {i : w_i = −1}
are present in every monomial, and the other monomials are indexed by the
subsets S of the free letters (w_i ≥ 0): letter i of S is present with
partner exponent w_i + 1, a free letter outside S is absent with partner
exponent w_i.  With t the sum of the free weights, the monomial of S has
degree t + |F| + 2|S| and parity |F| + |S|.

The sign of d on a monomial is the hop count of the added odd letter past
the odd letters present, read from their generator masks by
``grassmann._odd_swaps``, the package's one sign rule (a lookup in its
byte table), so it never reads an even exponent: on a block, d sends the
present mask F | S to the masks F | S | 1 << i, i a free letter outside
S.  Subtracting the free weights is therefore a bijection from the block
of w onto the block of F at free weights 0 that commutes with d.  So is
the map onto the block of F' = {0, .., |F| − 1} that relabels the free
letters in order, the monomial of S taking the sign (−1)^(forced letters
below i in F and below the image of i in F'), multiplied over i in S.
`block_layer_sums` thus builds one block per forced-set size k on masks,
counted C(n, k) times: `KoszulComplexSlice(p, q, k)`, the module's one
complex, whose `d_rank` ranks each layer from d.  A layer of a block sits
at every free total t that keeps it below the cap, C(t + free − 1,
free − 1) times, the compositions of t into `free` parts.  A wrong sign
in `_d_terms` or ``_odd_swaps`` still changes the answer.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import combinations

from . import linalg
from .errors import DimensionError, InconclusiveError
from .grassmann import Parity, _mask, _odd_swaps


def _d_terms(present: int, n: int) -> list[tuple[int, int]]:
    """d on the odd letters of a monomial whose present letters are the mask
    `present`: (sign, i) for each of the n letters i absent from it, with
    sign -1 when letter i hops past an odd number of present letters."""
    out = []
    for i in range(n):
        letter = 1 << i
        if not present & letter:
            hops = (_odd_swaps(letter) & present).bit_count()
            out.append((-1 if hops & 1 else 1, i))
    return out


class KoszulComplexSlice:
    """The weight block of S(ΠV ⊕ V*) with the `forced` lowest letters
    forced and every free weight 0, with d = Π·(-): a finite direct summand
    of the complex.  Its basis is the masks F | S, S a set of free letters,
    in degree forced + 2|S|; d adds a free letter by `_d_terms`.
    """

    def __init__(self, p: int, q: int, forced: int):
        if min(p, q, forced, p + q - forced) < 0:
            raise DimensionError("need p, q >= 0 and 0 <= forced <= p + q")
        self.p, self.q, self.forced = p, q, forced

    def basis(self, degree: int, parity: Parity | None = None) -> list[int]:
        s, odd = divmod(degree - self.forced, 2)
        if odd or s < 0 or (parity is not None
                            and parity.value != (self.forced + s) % 2):
            return []
        fixed = (1 << self.forced) - 1
        return [fixed | _mask(chosen) for chosen
                in combinations(range(self.forced, self.p + self.q), s)]

    def apply_d(self, present: int) -> list[tuple[int, int]]:
        """Left multiplication by the canonical element, degree +2."""
        return [(sign, present | 1 << i)
                for sign, i in _d_terms(present, self.p + self.q)]

    def differential_matrix(self, degree: int,
                            parity: Parity) -> list[dict[int, int]]:
        """Sparse matrix of d on the (degree, parity) layer.

        One row per source mask, as {target index: coefficient}; the
        targets are `basis(degree + 2, parity.flip())`.
        """
        target_index = {
            m: i for i, m in enumerate(self.basis(degree + 2, parity.flip()))
        }
        rows = []
        for mono in self.basis(degree, parity):
            row: dict[int, int] = {}
            for coeff, image in self.apply_d(mono):
                j = target_index[image]
                row[j] = row.get(j, 0) + coeff
            rows.append(row)
        return rows

    def d_rank(self, degree: int, parity: Parity) -> int:
        """Rank of d leaving the (degree, parity) layer; 0 below degree 0."""
        if degree < 0:
            return 0
        targets = self.basis(degree + 2, parity.flip())
        return linalg.rank(self.differential_matrix(degree, parity),
                           ncols=len(targets))


def block_layer_sums(p: int, q: int, degree_cap: int) -> tuple[Counter, Counter]:
    """Basis sizes and ranks of d at every (degree, parity) below degree_cap.

    Summed over the weight blocks (module docstring): one representative
    block per forced-set size k, its layer of |S| = s ranked once by the
    block's `d_rank`, then counted at degree t + k + 2s for every free
    total t, as many times as there are weight vectors with k forced
    letters and that total.  Both Counters are keyed by (degree, parity);
    `tests/test_koszul.py` checks them against the sizes and ranks of the
    whole truncated slice, built there on exponent-vector monomials.
    """
    if p < 0 or q < 0:
        raise DimensionError("need nonnegative dimensions")
    n = p + q
    sizes: Counter = Counter()
    ranks: Counter = Counter()
    for forced in range(n + 1):
        free = n - forced
        blocks = math.comb(n, forced)
        block = KoszulComplexSlice(p, q, forced)
        for s in range(free + 1):
            lowest = forced + 2 * s
            if lowest >= degree_cap:
                break
            parity = Parity((forced + s) % 2)
            size = math.comb(free, s)
            rank = block.d_rank(lowest, parity)
            for t in range(degree_cap - lowest):
                copies = blocks * (math.comb(t + free - 1, free - 1) if free
                                   else int(t == 0))
                sizes[(lowest + t, parity)] += copies * size
                ranks[(lowest + t, parity)] += copies * rank
    return sizes, ranks


def homological_berezinian(p: int, q: int, degree_cap: int) -> tuple[int, Parity]:
    """Total dimension and parity of the Berezinian line, computed homologically.

    The homology is computed in every degree up to degree_cap - 1 from the
    layer sums of the weight blocks (`block_layer_sums`), the same numbers
    a complex truncated at degree_cap + 1 gives.  Two guards raise
    InconclusiveError rather than return a wrong answer: the boundary
    check (homology touching degree_cap - 1, the top computed degree) and
    the parity check (homology in both parities).
    """
    if p + q < 1:
        raise DimensionError("need p + q >= 1")
    if degree_cap < p + q + 2:
        raise DimensionError("degree cap must be at least p + q + 2")
    sizes, ranks = block_layer_sums(p, q, degree_cap)
    profile = {}
    for k in range(degree_cap):
        for parity in Parity:
            d = (sizes[(k, parity)] - ranks[(k, parity)]
                 - ranks[(k - 2, parity.flip())])
            if d:
                profile[(k, parity.value)] = d
    if any(k[0] >= degree_cap - 1 for k in profile):
        raise InconclusiveError(
            "nonzero homology at the truncation boundary; increase degree_cap"
        )
    total = sum(profile.values())
    if total == 0:
        raise InconclusiveError("no homology found below the truncation degree")
    parities = {k[1] for k in profile}
    if len(parities) > 1:
        raise InconclusiveError("homology spread over both parities")
    # remove the Π^p parity shift of the homological model
    reported = Parity((parities.pop() + p) % 2)
    return total, reported
