"""Block matrices over a supercommutative ring and their Berezinian.

Entries may be any objects implementing the small ring protocol used
throughout the package: ``__add__``, ``__sub__``, ``__neg__``, ``__mul__``,
``is_zero()``, ``parity()``, ``inv_even()`` for invertible even elements,
``*`` by a ``Fraction``, and ``grassmann.fused_sum(base, pairs)``, which
returns base + sum a*b over the (a, b) of ``pairs`` as one sum: every
product goes straight into one copy of the base's terms, canonicalised
once, and a pair with a zero factor is skipped.  Both Grassmann elements
and superfunctions qualify, so the same Berezinian code serves constant
matrices and Jacobians.  Every entry of an LU step and of a matrix product
is one fused sum, a difference taking its left factors negated; a
product's cost is per call more than per term, so this saves the
temporaries of a product, a negation and a sum.

Determinants, det(D)^-1 and the Schur complement share one left-looking
LU factorisation over the entries' ring (Golub and Van Loan, Matrix
Computations, 4th ed., 3.2).  A column's pivot is the first remaining
entry that is nonzero, even and has an inverse; each row swap flips the
sign.  Each pivot row is stored times -pivot^-1, so every update adds
products.  Factoring D's q columns of (D C; B A) leaves the Schur
complement A - B D^-1 C as the trailing block, and det(D)^-1 is the
signed product of the negated pivot inverses.  A determinant factors all
but its last two columns and ends in the 2 x 2 block [[a, b], [c, d]]
left there, as ad - bc in one fused sum: an n x n determinant inverts
n - 2 pivots, a 2 x 2 none.

Over a Grassmann algebra with rational coefficients, a local ring, a
column with no invertible entry means the determinant is not invertible.
Where the invertible bodies are monomials, an invertible matrix can still
have such a column: Laurent monomials in x over superfunctions give
det [[x+2, x+1], [x+3, x+2]] = 1, and single powers of s = sqrt(2 pi)
give det [[1+s, 1], [2+s, 1]] = -1.  Such a 2 x 2 block takes ad - bc
and needs no pivot.  Where a column left of a determinant's last two
stalls, or a column of D, the Faddeev-LeVerrier recursion gives the
determinant and the adjugate together from n matrix products, inverting
no entry and dividing only by the integers up to n: det(D)^-1 is then the
one inverse taken, and the Schur complement is A + B W with
W = -adj(D) C det(D)^-1.

The public constructors, ``SuperMatrix(...)`` and ``from_blocks``, check
the parity of every nonzero entry.  What the program makes is built by
the trusted ``_trusted`` instead, its entries having the wanted parities
by construction: the results of ``+``, ``-`` and ``*`` on homogeneous
supermatrices, the drawn test matrices of
``suites.random_even_supermatrix``, and every Jacobian, Haar density and
Ad from ``superdomain._differential``, a morphism's components being
homogeneous.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DimensionError, NonInvertibleError, ParityError
from .grassmann import EVEN, Parity, _Immutable, fused_sum


def _pivot(rows, k):
    """First row at or below ``k`` whose column-``k`` entry is even and
    invertible, with that entry's inverse; ``(None, None)`` if none is.
    ``inv_even`` refuses an entry with an odd term by ``ParityError``."""
    for r in range(k, len(rows)):
        entry = rows[r][k]
        if entry.is_zero():
            continue
        try:
            return r, entry.inv_even()
        except (NonInvertibleError, ParityError):
            continue
    return None, None


def _fold(rows, r, j, k):
    """Add to entry (r, j), in one fused sum, the products of row r's first
    ``k`` entries with the stored pivot rows' column-``j`` entries."""
    row = rows[r]
    row[j] = fused_sum(row[j], [(row[t], rows[t][j]) for t in range(k)])


def _lu(rows, n):
    """Left-looking LU over the first ``n`` columns of ``rows``, in place.

    Column k is folded at and below the diagonal, its pivot swapped up, and
    the pivot row right of the diagonal folded and stored times -pivot^-1:
    the negated unit-U row, so every fold is a sum of products.  The block
    right of and below the first ``n`` rows and columns is folded last and
    holds their Schur complement.  Column 0 and the block of ``n`` = 0
    have no products to add, so they make no fold.  Returns the sign of the
    row permutation and the negated pivot inverses; fewer than ``n`` of them
    means that column ``len(minus_inverses)`` has no invertible entry.
    """
    sign = 1
    minus_inverses = []
    width = len(rows[0])
    for k in range(n):
        if k:
            for r in range(k, len(rows)):
                _fold(rows, r, k, k)
        r, inv = _pivot(rows, k)
        if r is None:
            return sign, minus_inverses
        if r != k:
            rows[k], rows[r] = rows[r], rows[k]
            sign = -sign
        top, minus_inv = rows[k], -inv
        for j in range(k + 1, width):
            if k:
                _fold(rows, k, j, k)
            if not top[j].is_zero():
                top[j] = minus_inv * top[j]
        minus_inverses.append(minus_inv)
    if n:
        for r in range(n, len(rows)):
            for j in range(n, width):
                _fold(rows, r, j, n)
    return sign, minus_inverses


def _det(entries, zero, one):
    """Determinant of a square matrix of even entries.

    Factors all but the last two columns, whose trailing block
    [[a, b], [c, d]] gives ad - bc.  Falls back to ``_faddeev_leverrier``
    where a column has no invertible entry.
    """
    n = len(entries)
    if n == 0:
        return one
    if n == 1:
        return entries[0][0]
    rows = [list(row) for row in entries]
    sign, minus_inverses = _lu(rows, n - 2)
    if len(minus_inverses) < n - 2:
        return _faddeev_leverrier(entries, zero, one)[0]
    (a, b), (c, d) = rows[n - 2][n - 2:], rows[n - 1][n - 2:]
    acc = fused_sum(zero, ((a, d), (-b, c)))
    for i in range(n - 2):
        acc = rows[i][i] * acc
    return -acc if sign < 0 else acc


def _faddeev_leverrier(entries, zero, one):
    """det(M) and adj(M) of a square matrix M of even entries, by n matrix
    products that invert no entry and divide only by 1, ..., n.

    M_1 = I, c_k = -tr(M M_k) / k and M_{k+1} = M M_k + c_k I end in
    M M_n = -c_n I (Cayley-Hamilton, even entries commuting), so det(M) is
    (-1)^n c_n and adj(M) is (-1)^(n+1) M_n.
    """
    n = len(entries)
    matrix = _trusted(n, 0, entries, EVEN, zero, one)
    m_k = SuperMatrix.identity(n, 0, zero=zero, one=one)
    for k in range(1, n + 1):
        product = matrix * m_k
        c = sum((product.entries[i][i] for i in range(n)), zero) * Fraction(-1, k)
        if k < n:
            m_k = _trusted(n, 0, [[e + c if i == j else e for j, e in enumerate(row)]
                                  for i, row in enumerate(product.entries)],
                           EVEN, zero, one)
    return (-c, m_k.entries) if n % 2 else (c, (-m_k).entries)


def _adjugate_solve(D, C, zero, one):
    """det(D)^-1 and W = -adj(D) C det(D)^-1, which is -Z with D Z = C: the
    solve for a D whose columns stall in the LU."""
    det_d, adj = _faddeev_leverrier(D, zero, one)
    try:
        det_d_inv = det_d.inv_even()
    except NonInvertibleError:
        raise NonInvertibleError("odd-odd block is not invertible") from None
    minus_det_d_inv = -det_d_inv
    return det_d_inv, [[fused_sum(zero, zip(row, col)) * minus_det_d_inv
                        for col in zip(*C)] for row in adj]


class SuperMatrix(_Immutable):
    """A (p+q) x (p+q) matrix split into even/odd blocks.

    A homogeneous supermatrix of parity ``par`` has entry (i, j) of parity
    rowblock(i) + colblock(j) + par.  The even case is the familiar
    [[A, B], [C, D]] picture with A, D even and B, C odd.
    """

    __slots__ = ("p", "q", "parity", "entries", "zero", "one")

    def __init__(self, p: int, q: int, entries, parity: Parity = EVEN, *, zero, one):
        if p < 0 or q < 0:
            raise DimensionError("block sizes must be nonnegative")
        n = p + q
        rows = [list(row) for row in entries]
        if len(rows) != n or any(len(r) != n for r in rows):
            raise DimensionError(f"expected a {n} x {n} entry grid")
        # the parity each column wants in the A | B rows and in the C | D rows
        other = parity.flip()
        top, bottom = [parity] * p + [other] * q, [other] * p + [parity] * q
        for i, row in enumerate(rows):
            for j, (e, want) in enumerate(zip(row, top if i < p else bottom)):
                if not e.is_zero() and e.parity() is not want:
                    raise ParityError(f"entry ({i}, {j}) must be {want}, got {e!s}")
        _fill(self, p, q, rows, parity, zero, one)

    # -- constructors -------------------------------------------------

    @staticmethod
    def identity(p: int, q: int, *, zero, one) -> "SuperMatrix":
        n = p + q
        ent = [[one if i == j else zero for j in range(n)] for i in range(n)]
        return SuperMatrix(p, q, ent, EVEN, zero=zero, one=one)

    @staticmethod
    def from_blocks(A, B, C, D, parity: Parity = EVEN, *, zero, one) -> "SuperMatrix":
        p = len(A)
        q = len(D)
        ent = [list(A[i]) + list(B[i]) for i in range(p)]
        ent += [list(C[i]) + list(D[i]) for i in range(q)]
        return SuperMatrix(p, q, ent, parity, zero=zero, one=one)

    # -- block access -------------------------------------------------

    def block(self, name: str):
        p, q = self.p, self.q
        if name == "A":
            return [[self.entries[i][j] for j in range(p)] for i in range(p)]
        if name == "B":
            return [[self.entries[i][p + j] for j in range(q)] for i in range(p)]
        if name == "C":
            return [[self.entries[p + i][j] for j in range(p)] for i in range(q)]
        if name == "D":
            return [[self.entries[p + i][p + j] for j in range(q)] for i in range(q)]
        raise ValueError(f"unknown block {name!r}")

    # -- arithmetic ---------------------------------------------------

    def _check_shape(self, other: "SuperMatrix"):
        if (self.p, self.q) != (other.p, other.q):
            raise DimensionError("supermatrix shapes differ")

    def __add__(self, other: "SuperMatrix") -> "SuperMatrix":
        self._check_shape(other)
        if self.parity is not other.parity:
            raise ParityError("cannot add supermatrices of different parity")
        ent = [[a + b for a, b in zip(row, other_row)]
               for row, other_row in zip(self.entries, other.entries)]
        return _trusted(self.p, self.q, ent, self.parity, self.zero, self.one)

    def __neg__(self) -> "SuperMatrix":
        ent = [[-e for e in row] for row in self.entries]
        return _trusted(self.p, self.q, ent, self.parity, self.zero, self.one)

    def __sub__(self, other: "SuperMatrix") -> "SuperMatrix":
        return self + (-other)

    def __mul__(self, other: "SuperMatrix") -> "SuperMatrix":
        self._check_shape(other)
        columns = list(zip(*other.entries))
        ent = [[fused_sum(self.zero, zip(row, col)) for col in columns]
               for row in self.entries]
        return _trusted(self.p, self.q, ent, self.parity + other.parity,
                        self.zero, self.one)

    # -- invariants ---------------------------------------------------

    def berezinian(self):
        """Ber = det(A - B D^-1 C) * det(D)^-1, for an even supermatrix."""
        if self.parity is not EVEN:
            raise ParityError("Berezinian is defined for even supermatrices")
        p, q = self.p, self.q
        zero, one = self.zero, self.one
        if q == 0:
            return _det(self.block("A"), zero, one)
        # (D C; B A): factoring D's q columns leaves A - B D^-1 C trailing
        rows = [list(row[p:] + row[:p]) for row in self.entries[p:] + self.entries[:p]]
        sign, minus_inverses = _lu(rows, q)
        if len(minus_inverses) == q:
            det_d_inv = minus_inverses[0]
            for minus_inv in minus_inverses[1:]:
                det_d_inv = det_d_inv * minus_inv
            if sign * (-1) ** q < 0:  # q negated inverses in the product
                det_d_inv = -det_d_inv
            schur = [row[q:] for row in rows[q:]]
        else:
            A, B, C, D = (self.block(name) for name in "ABCD")
            det_d_inv, W = _adjugate_solve(D, C, zero, one)
            # A - B D^-1 C = A + B W
            columns = list(zip(*W))
            schur = [[fused_sum(a, zip(B[i], col))
                      for a, col in zip(A[i], columns)] for i in range(p)]
        return _det(schur, zero, one) * det_d_inv if p else det_d_inv

    # -- comparison / printing ----------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, SuperMatrix):
            return NotImplemented
        return ((self.p, self.q, self.parity) == (other.p, other.q, other.parity)
                and self.entries == other.entries)

    def __str__(self) -> str:
        rows = [" | ".join(str(e) for e in row) for row in self.entries]
        return "\n".join(rows)

    def __repr__(self) -> str:
        return f"SuperMatrix(p={self.p}, q={self.q}, parity={self.parity})"


def _fill(out: SuperMatrix, p: int, q: int, rows, parity: Parity, zero, one):
    """Set the slots of ``out``, the entry grid ``rows`` as a tuple of row
    tuples."""
    setattr_ = object.__setattr__
    setattr_(out, "p", p)
    setattr_(out, "q", q)
    setattr_(out, "parity", parity)
    setattr_(out, "entries", tuple(map(tuple, rows)))
    setattr_(out, "zero", zero)
    setattr_(out, "one", one)


def _trusted(p: int, q: int, rows, parity: Parity, zero, one) -> SuperMatrix:
    """The (p|q) supermatrix of ``parity`` with the entry grid ``rows``,
    built without the public constructor's shape and parity checks: the
    trusted constructor for the results of closed operations, for drawn
    matrices and for differentials, whose entries have the wanted
    parities by construction."""
    out = object.__new__(SuperMatrix)
    _fill(out, p, q, rows, parity, zero, one)
    return out
