"""Block matrices over a supercommutative ring: supertrace and Berezinian.

Entries may be any objects implementing the small ring protocol used
throughout the package: ``__add__``, ``__sub__``, ``__neg__``, ``__mul__``,
``is_zero()``, ``parity()`` and — for invertible even elements —
``inv_even()``.  Both Grassmann elements and superfunctions qualify, so
the same Berezinian code serves constant matrices and Jacobians.

Determinants, det(D)^-1 and the solve D Z = C share one forward
elimination over the entries' ring.  A column's pivot is the first
remaining entry that is nonzero, even and has an inverse; each row swap
flips the sign.  det(D)^-1 is the signed product of the pivot inverses,
back substitution gives Z, and the Schur complement A - B Z is a single
matrix product.  A determinant needs no inverse of its last pivot.

Over a Grassmann algebra with rational coefficients, a local ring, a
column with no invertible entry means the determinant is not invertible.
Where the invertible bodies are monomials, an invertible matrix can still
have such a column: Laurent monomials in x over superfunctions give
det [[x+2, x+1], [x+3, x+2]] = 1, and single powers of s = sqrt(2 pi)
give det [[1+s, 1], [2+s, 1]] = -1.  There the determinant expands along
its first row by cofactors, with minors through the same elimination, and
det(D)^-1 and Z = D^-1 C come from Cramer's rule.
"""

from __future__ import annotations

from .errors import DimensionError, NonInvertibleError, ParityError
from .grassmann import EVEN, Parity


def _pivot(rows, k):
    """First row at or below ``k`` whose column-``k`` entry is even and
    invertible, with that entry's inverse; ``(None, None)`` if none is."""
    for r in range(k, len(rows)):
        entry = rows[r][k]
        if entry.is_zero() or entry.parity() is not EVEN:
            continue
        try:
            return r, entry.inv_even()
        except NonInvertibleError:
            continue
    return None, None


def _eliminate(rows, n, last=True):
    """Forward elimination over the first ``n`` columns of ``rows``, in place.

    Columns right of ``n`` take part in every row operation.  Returns the
    sign of the row permutation and the inverses of the pivots found; fewer
    than ``n`` inverses (``n - 1`` with ``last=False``, which leaves the
    last column unpivoted) means that column ``len(inverses)`` has no
    invertible entry.  Entries left of the diagonal are not cleared.
    """
    sign = 1
    inverses = []
    for k in range(n if last else n - 1):
        r, inv = _pivot(rows, k)
        if r is None:
            break
        if r != k:
            rows[k], rows[r] = rows[r], rows[k]
            sign = -sign
        top = rows[k]
        for row in rows[k + 1:]:
            if row[k].is_zero():
                continue
            factor = row[k] * inv
            for j in range(k + 1, len(top)):
                if not top[j].is_zero():
                    row[j] = row[j] - factor * top[j]
        inverses.append(inv)
    return sign, inverses


def _det(entries, zero, one):
    """Determinant of a square matrix of even entries.

    Falls back to cofactor expansion when elimination finds a column with
    no invertible entry.
    """
    n = len(entries)
    if n == 0:
        return one
    if n == 1:
        return entries[0][0]
    rows = [list(row) for row in entries]
    sign, inverses = _eliminate(rows, n, last=False)
    if len(inverses) < n - 1:
        return _expand(entries, zero, one)
    acc = rows[n - 1][n - 1]
    for i in range(n - 1):
        acc = rows[i][i] * acc
    return -acc if sign < 0 else acc


def _expand(entries, zero, one):
    """Cofactor expansion along the first row, minors through ``_det``."""
    acc = zero
    for j, top in enumerate(entries[0]):
        if top.is_zero():
            continue
        minor = [row[:j] + row[j + 1:] for row in entries[1:]]
        term = top * _det(minor, zero, one)
        if j % 2:
            term = -term
        acc = acc + term
    return acc


def _back_substitute(rows, inverses, q):
    """Z with D Z = C, from the eliminated rows [U | C'] of [D | C]."""
    Z = [None] * q
    for k in reversed(range(q)):
        row = rows[k]
        acc = row[q:]
        for j in range(k + 1, q):
            if not row[j].is_zero():
                acc = [a - row[j] * z for a, z in zip(acc, Z[j])]
        Z[k] = [inverses[k] * a for a in acc]
    return Z


def _eliminate_solve(D, C):
    """det(D)^-1 and Z with D Z = C by one elimination of [D | C], or
    ``(None, None)`` if a column of D has no invertible entry."""
    q = len(D)
    # [D | C]: eliminating D carries C along towards Z
    rows = [list(d) + list(c) for d, c in zip(D, C)]
    sign, inverses = _eliminate(rows, q)
    if len(inverses) < q:
        return None, None
    det_d_inv = inverses[0]
    for inv in inverses[1:]:
        det_d_inv = det_d_inv * inv
    if sign < 0:
        det_d_inv = -det_d_inv
    return det_d_inv, _back_substitute(rows, inverses, q)


def _cramer(D, C, zero, one):
    """det(D)^-1 and Z = D^-1 C, with D^-1 by Cramer's rule.

    Entry (k, l) of D^-1 is the (l, k) cofactor over det(D), every
    determinant through ``_det``.  Only det(D) needs an inverse, so this
    serves a D whose columns stall in elimination.
    """
    q = len(D)
    try:
        det_inv = _det(D, zero, one).inv_even()
    except NonInvertibleError:
        raise NonInvertibleError("odd-odd block is not invertible") from None
    Z = [[zero] * len(row) for row in C]
    if not C or not C[0]:
        return det_inv, Z  # no columns to solve for
    for k in range(q):
        for l in range(q):
            minor = [row[:k] + row[k + 1:] for r, row in enumerate(D) if r != l]
            cof = _det(minor, zero, one) * det_inv
            if (k + l) % 2:
                cof = -cof
            Z[k] = [z + cof * c for z, c in zip(Z[k], C[l])]
    return det_inv, Z


class SuperMatrix:
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
        for i in range(n):
            for j in range(n):
                e = rows[i][j]
                if e.is_zero():
                    continue
                want = ((i >= p) + (j >= p) + parity.value) % 2
                got = e.parity()
                if got is None or got.value != want:
                    raise ParityError(
                        f"entry ({i}, {j}) must be {Parity(want)}, got {e!s}"
                    )
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "parity", parity)
        object.__setattr__(self, "entries", tuple(tuple(r) for r in rows))
        object.__setattr__(self, "zero", zero)
        object.__setattr__(self, "one", one)

    def __setattr__(self, name, value):
        raise AttributeError("SuperMatrix is immutable")

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
        n = self.p + self.q
        ent = [[self.entries[i][j] + other.entries[i][j] for j in range(n)]
               for i in range(n)]
        return SuperMatrix(self.p, self.q, ent, self.parity,
                           zero=self.zero, one=self.one)

    def __neg__(self) -> "SuperMatrix":
        ent = [[-e for e in row] for row in self.entries]
        return SuperMatrix(self.p, self.q, ent, self.parity,
                           zero=self.zero, one=self.one)

    def __sub__(self, other: "SuperMatrix") -> "SuperMatrix":
        return self + (-other)

    def __mul__(self, other: "SuperMatrix") -> "SuperMatrix":
        self._check_shape(other)
        n = self.p + self.q
        ent = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = self.zero
                for k in range(n):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            ent.append(row)
        return SuperMatrix(self.p, self.q, ent, self.parity + other.parity,
                           zero=self.zero, one=self.one)

    def map_entries(self, fn) -> "SuperMatrix":
        ent = [[fn(e) for e in row] for row in self.entries]
        return SuperMatrix(self.p, self.q, ent, self.parity,
                           zero=self.zero, one=self.one)

    # -- invariants ---------------------------------------------------

    def supertrace(self):
        acc = self.zero
        for i in range(self.p):
            acc = acc + self.entries[i][i]
        for j in range(self.q):
            acc = acc - self.entries[self.p + j][self.p + j]
        return acc

    def berezinian(self):
        """Ber = det(A - B Z) * det(D)^-1 with D Z = C, for an even supermatrix."""
        if self.parity is not EVEN:
            raise ParityError("Berezinian is defined for even supermatrices")
        p, q = self.p, self.q
        zero, one = self.zero, self.one
        A, B, C, D = (self.block(name) for name in "ABCD")
        if q == 0:
            return _det(A, zero, one)
        det_d_inv, Z = _eliminate_solve(D, C)
        if det_d_inv is None:
            det_d_inv, Z = _cramer(D, C, zero, one)
        if p == 0:
            return det_d_inv
        schur = []
        for i in range(p):
            out = []
            for j in range(p):
                acc = zero
                for k in range(q):
                    acc = acc + B[i][k] * Z[k][j]
                out.append(A[i][j] - acc)
            schur.append(out)
        return _det(schur, zero, one) * det_d_inv

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


def berezinian(m: SuperMatrix):
    return m.berezinian()


def supertrace(m: SuperMatrix):
    return m.supertrace()
