"""Exact linear algebra over rational matrices.

Entries are stored as ints when integral and as Fractions otherwise, as
everywhere in the package; inputs must be ints or Fractions (a float
raises TypeError), and every result comes back in that form.

`rank`, `det`, `nullspace` and `inverse` share one sparse
elimination core (`det` from 3x3 on; below that, its closed form).  Each
row is a ``{column: value}`` dict holding only its nonzeros.  Columns
are taken in increasing order; the pivot for a column is the row holding
it with the fewest nonzeros (ties to the lower row index), and a column
-> rows index means each step touches only the rows that hold the pivot
column.  `rank` and `det` stop after this forward pass; the others
back-reduce to the reduced row echelon form.  That form is unique, so
the result does not depend on the pivot choice: `nullspace` returns the
same basis, in the same order, as textbook Gauss–Jordan would.

Two rules leave out work that cannot change a result.  A one-entry row
whose column an earlier one-entry row already holds is dropped on entry,
once its entries have passed the checks below: it is a nonzero multiple
of the kept row, so it changes neither the rank nor the reduced row
echelon form (a square matrix with two such rows is singular, and `det`
and `inverse` say so as before).  And a pivot row with no entry besides
its lead is subtracted from no row: the other rows that hold its column
just lose that entry.  The ansatz of `supergroup.solve_invariant_density`
no longer sends one-entry rows, as it pins their unknowns itself; the
repeats that still come are a few Koszul layers' and basis changes' (10
rows in a `solver-ladder` round, 22 in a `verify-sweep` round).

Matrices come in as dense lists of rows.  `rank` and `nullspace` also
take sparse rows (mappings column -> value) together with ``ncols=``.
No numerics, no tolerance knobs.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DimensionError, NonInvertibleError
from .grassmann import _canonical, _quotient, _rational

Rational = int | Fraction  # int when integral, Fraction otherwise
Matrix = list[list[Rational]]
SparseRow = dict[int, Rational]


def _as_matrix(rows) -> Matrix:
    # an exact int is already canonical; the rest (Fraction, bool, int
    # subclasses, refused floats) goes through the one check
    out = [[x if type(x) is int else _rational(x) for x in row] for row in rows]
    if out and any(len(r) != len(out[0]) for r in out):
        raise DimensionError("ragged matrix")
    return out


def _sparse_rows(rows, ncols: int | None) -> tuple[list[SparseRow], int]:
    """Rows as fresh nonzero-only dicts, and the column count.

    With ``ncols`` None the rows are dense sequences; otherwise each row
    maps column indices in ``range(ncols)`` to values.
    """
    if ncols is None:
        dense = _as_matrix(rows)
        width = len(dense[0]) if dense else 0
        return [{c: x for c, x in enumerate(row) if x} for row in dense], width
    out = []
    for row in rows:
        entries = {}
        for c, x in row.items():
            if not 0 <= c < ncols:
                raise DimensionError(f"column index {c} outside 0..{ncols - 1}")
            value = x if type(x) is int else _rational(x)
            if value:
                entries[c] = value
        out.append(entries)
    return out, ncols


def _divided(row: SparseRow, lead: Rational) -> SparseRow:
    """row / lead, entry by entry; a lead of 1 or -1 multiplies instead."""
    if lead in (1, -1):
        return {c: v * lead for c, v in row.items()}
    return {c: _quotient(v, lead) for c, v in row.items()}


def _subtract(row: SparseRow, factor: Rational, pivot_row: SparseRow,
              skip: int) -> list[tuple[int, bool]]:
    """row -= factor * pivot_row outside column `skip`, in place.

    Returns the columns whose presence in `row` changed, with True for an
    entry that appeared and False for one that cancelled.
    """
    changed = []
    for c, v in pivot_row.items():
        if c == skip:
            continue
        old = row.get(c)
        if old is None:
            row[c] = _canonical(-factor * v)
            changed.append((c, True))
            continue
        new = old - factor * v
        if new:
            row[c] = _canonical(new)
        else:
            del row[c]
            changed.append((c, False))
    return changed


def _echelon(rows: list[SparseRow], ncols: int
             ) -> tuple[list[tuple[int, SparseRow]], list[tuple[Rational, int]]]:
    """Forward elimination, consuming `rows`.

    Returns (pivot column, pivot row scaled to a leading 1) in increasing
    column order, each pivot row zero left of its pivot column, and beside
    them each pivot's (lead before scaling, index of its source row).  A
    repeated one-entry row is dropped, and a lone pivot is subtracted from
    no row (module docstring).
    """
    active, singles = {}, set()
    for i, row in enumerate(rows):
        if len(row) == 1:
            col, = row
            if col in singles:
                continue
            singles.add(col)
        if row:
            active[i] = row
    holders: dict[int, set[int]] = {}
    for i, row in active.items():
        for c in row:
            holders.setdefault(c, set()).add(i)
    pivots, leads = [], []
    for col in range(ncols):
        if not active:
            break
        rows_here = holders.pop(col, None)
        if not rows_here:
            continue
        p = min(rows_here, key=lambda i: (len(active[i]), i))
        pivot_row = active.pop(p)
        lead = pivot_row.pop(col)
        for c in pivot_row:
            holders[c].discard(p)
        pivot_row = _divided(pivot_row, lead)
        for i in rows_here:
            if i == p:
                continue
            row = active[i]
            factor = row.pop(col)
            if pivot_row:
                for c, appeared in _subtract(row, factor, pivot_row, col):
                    if appeared:
                        holders.setdefault(c, set()).add(i)
                    else:
                        holders[c].discard(i)
            if not row:
                del active[i]
        pivot_row[col] = 1
        pivots.append((col, pivot_row))
        leads.append((lead, p))
    return pivots, leads


def _rref(rows: list[SparseRow], ncols: int) -> list[tuple[int, SparseRow]]:
    """The reduced row echelon form: `_echelon`, then back-reduction so
    every pivot column is zero outside its own pivot row."""
    pivots, _ = _echelon(rows, ncols)
    # Back-reduction only ever subtracts a fully reduced later row, whose
    # entries sit at its pivot and at non-pivot columns, so the rows that
    # hold each pivot column can be listed once, up front.
    holders: dict[int, list[int]] = {col: [] for col, _ in pivots}
    for i, (col, row) in enumerate(pivots):
        for c in row:
            if c != col and c in holders:
                holders[c].append(i)
    for col, row in reversed(pivots):
        for i in holders[col]:
            target = pivots[i][1]
            _subtract(target, target.pop(col), row, col)
    return pivots


def rank(rows, ncols: int | None = None) -> int:
    """Rank of a dense matrix, or of sparse rows with ``ncols`` columns."""
    return len(_echelon(*_sparse_rows(rows, ncols))[0])


def nullspace(rows, ncols: int | None = None) -> list[list[Rational]]:
    """Basis of the right kernel, one vector per free column.

    The vector for free column f has a 1 at f, zero at the other free
    columns, and minus the RREF's column f at the pivot columns; vectors
    come in increasing order of f.  A dense ``[]`` has no columns.
    """
    sparse, width = _sparse_rows(rows, ncols)
    pivots = _rref(sparse, width)
    pivot_cols = {col for col, _ in pivots}
    basis = {}
    for fc in range(width):
        if fc not in pivot_cols:
            vec = [0] * width
            vec[fc] = 1
            basis[fc] = vec
    for col, row in pivots:
        for c, v in row.items():
            if c != col:
                basis[c][col] = -v
    return list(basis.values())


def det(rows) -> Rational:
    """Up to 2x2 the closed form (1, the entry, ad - bc); from 3x3 on the
    product of the pivot leads of `_echelon`, signed by the order in which
    it took the source rows: every other step adds a multiple of one row
    to another.  Most calls are 1x1 and 2x2 bodies, where the core's
    set-up would cost more than the arithmetic."""
    mat = _as_matrix(rows)
    n = len(mat)
    if mat and len(mat[0]) != n:
        raise DimensionError("determinant requires a square matrix")
    if n < 3:
        if n == 2:
            (a, b), (c, d) = mat
            return _canonical(a * d - b * c)
        return mat[0][0] if n else 1
    pivots, leads = _echelon([{c: x for c, x in enumerate(row) if x}
                              for row in mat], n)
    if len(pivots) < n:
        return 0
    result = 1
    for k, (lead, p) in enumerate(leads):
        # one sign flip for each row taken earlier from further down
        flips = sum(q > p for _, q in leads[:k])
        result *= -lead if flips % 2 else lead
    return _canonical(result)


def inverse(rows) -> Matrix:
    sparse, n = _sparse_rows(rows, None)
    if len(sparse) != n:
        raise DimensionError("inverse requires a square matrix")
    for i, row in enumerate(sparse):
        row[n + i] = 1
    pivots = _rref(sparse, 2 * n)
    if [col for col, _ in pivots] != list(range(n)):
        raise NonInvertibleError("matrix is singular")
    out = [[0] * n for _ in range(n)]
    for i, (_, row) in enumerate(pivots):
        for c, v in row.items():
            if c >= n:
                out[i][c - n] = v
    return out
