from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from superberezin import linalg
from superberezin.grassmann import _canonical
from superberezin.linalg import (_echelon, _sparse_rows, det, inverse,
                                 nullspace, rank)
from superberezin.errors import DimensionError, NonInvertibleError


# -- dense Gauss-Jordan reference -------------------------------------------
#
# The textbook dense elimination the sparse core replaced.  The reduced row
# echelon form is unique, so the core must reproduce these answers exactly.


def _dense_rref(mat):
    """Reduced row echelon form and the list of pivot column indices."""
    m = [[Fraction(x) for x in row] for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def oracle_rank(mat):
    return len(_dense_rref(mat)[1])


def oracle_nullspace(mat):
    if not mat:
        return []
    cols = len(mat[0])
    rref, pivots = _dense_rref(mat)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        vec = [Fraction(0)] * cols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -rref[r][fc]
        basis.append(vec)
    return basis


def oracle_inverse(mat):
    n = len(mat)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(mat)]
    rref, pivots = _dense_rref(aug)
    if pivots != list(range(n)):
        raise NonInvertibleError("matrix is singular")
    return [row[n:] for row in rref]


def _sparse(mat):
    return [{c: x for c, x in enumerate(row) if x} for row in mat]


def test_rank():
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[1, 0], [0, 1]]) == 2
    assert rank([]) == 0


def test_nullspace():
    ns = nullspace([[1, 2]])
    assert ns == [[Fraction(-2), Fraction(1)]]
    assert nullspace([[1, 0], [0, 1]]) == []


def test_det():
    assert det([[1, 2], [3, 4]]) == Fraction(-2)
    assert det([[0, 1], [1, 0]]) == Fraction(-1)
    assert det([[2]]) == 2
    assert det([]) == 1


def test_inverse():
    inv = inverse([[1, 2], [3, 4]])
    assert inv == [[Fraction(-2), Fraction(1)],
                   [Fraction(3, 2), Fraction(-1, 2)]]
    with pytest.raises(NonInvertibleError):
        inverse([[1, 1], [1, 1]])


small = st.integers(min_value=-4, max_value=4).map(Fraction)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(small, min_size=3, max_size=3), min_size=3, max_size=3))
def test_rank_plus_nullity(m):
    assert rank(m) + len(nullspace(m)) == 3


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(small, min_size=3, max_size=3), min_size=3, max_size=3))
def test_inverse_multiplies_back(m):
    if det(m) == 0:
        return
    inv = inverse(m)
    prod = [[sum(m[i][k] * inv[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)]
    assert prod == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(small, min_size=3, max_size=3), min_size=2, max_size=4))
def test_nullspace_vectors_annihilate(m):
    for vec in nullspace(m):
        for row in m:
            assert sum(a * b for a, b in zip(row, vec)) == 0


# -- sparse core against the dense reference ----------------------------------

# ints and Fractions, integral ones included, as a caller may pass them
entry = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=3))


def assert_stored(values):
    """Every value is an int or a Fraction whose denominator exceeds 1;
    never a float, a bool or an integral Fraction."""
    for v in values:
        assert type(v) is int or (type(v) is Fraction
                                  and v.denominator > 1), repr(v)


@st.composite
def matrices(draw, square=False):
    """Wide, tall and square matrices (zero rows or columns included),
    often with zero rows and with rows copied or combined from others."""
    rows = draw(st.integers(min_value=0, max_value=6))
    cols = rows if square else draw(st.integers(min_value=0, max_value=6))
    mat = [draw(st.lists(entry, min_size=cols, max_size=cols))
           for _ in range(rows)]
    for i in range(rows):
        kind = draw(st.sampled_from(["keep", "keep", "zero", "copy", "combine"]))
        if kind == "zero":
            mat[i] = [Fraction(0)] * cols
        elif kind == "copy" and i:
            mat[i] = list(mat[draw(st.integers(0, i - 1))])
        elif kind == "combine" and i >= 2:
            a, b = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            s, t = draw(entry), draw(entry)
            mat[i] = [s * x + t * y for x, y in zip(mat[a], mat[b])]
    return mat


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_rank_and_nullspace_match_dense_oracle(m):
    assert rank(m) == oracle_rank(m)
    assert nullspace(m) == oracle_nullspace(m)
    for vec in nullspace(m):
        assert_stored(vec)
    cols = len(m[0]) if m else 0
    assert rank(_sparse(m), ncols=cols) == oracle_rank(m)
    if m:
        assert nullspace(_sparse(m), ncols=cols) == oracle_nullspace(m)


@settings(max_examples=300, deadline=None)
@given(matrices(square=True))
def test_inverse_matches_dense_oracle(m):
    try:
        expected = oracle_inverse(m)
    except NonInvertibleError:
        with pytest.raises(NonInvertibleError):
            inverse(m)
    else:
        assert inverse(m) == expected
        for row in inverse(m):
            assert_stored(row)
    assert_stored([det(m)])


def _leibniz_det(m):
    """The sum over permutations of signed entry products: no elimination."""
    total = Fraction(0)
    for perm in permutations(range(len(m))):
        inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
        term = Fraction(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


@settings(max_examples=150, deadline=None)
@given(matrices(square=True))
def test_det_matches_the_leibniz_formula(m):
    # pivot rows are taken out of order whenever a sparser row holds the
    # column, so the sign of that order is checked here too
    d = det(m)
    assert d == _leibniz_det(m)
    assert_stored([d])


def _echelon_det(m):
    """The signed product of `_echelon`'s pivot leads, the path every
    size took before the closed forms for 0x0 to 2x2."""
    sparse, n = _sparse_rows(m, None)
    pivots, leads = _echelon(sparse, n)
    if len(pivots) < n:
        return 0
    result = 1
    for k, (lead, p) in enumerate(leads):
        flips = sum(q > p for _, q in leads[:k])
        result *= -lead if flips % 2 else lead
    return _canonical(result)


_small_entries = st.one_of(
    st.just(0), st.integers(-4, 4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4))


@st.composite
def _small_square(draw):
    n = draw(st.integers(0, 3))
    return [draw(st.lists(_small_entries, min_size=n, max_size=n))
            for _ in range(n)]


@settings(max_examples=300, deadline=None)
@given(_small_square())
def test_small_det_closed_forms_match_leibniz_and_the_core(m):
    # 0x0 to 2x2 take the closed forms, 3x3 the elimination core: each
    # must give the value of both oracles, in the same stored type
    d = det(m)
    for oracle in (_canonical(_leibniz_det(m)), _echelon_det(m)):
        assert d == oracle
        assert type(d) is type(oracle)
    assert_stored([d])


def test_det_refuses_a_non_square_matrix():
    for m in ([[1, 2]], [[1], [2]], [[]]):
        with pytest.raises(DimensionError):
            det(m)


def test_sparse_rows_with_ncols():
    # no rows: every column is free
    assert nullspace([], ncols=2) == [[1, 0], [0, 1]]
    assert rank([], ncols=3) == 0
    assert rank([{0: 1, 2: 0}, {}, {0: 2}], ncols=3) == 1
    assert nullspace([{1: 1}], ncols=3) == [[1, 0, 0], [0, 0, 1]]
    with pytest.raises(DimensionError):
        rank([{3: 1}], ncols=3)
    with pytest.raises(DimensionError):
        nullspace([{-1: 1}], ncols=3)


def test_floats_are_refused():
    # a float's binary value is not the rational it was written as
    for call in (lambda: rank([[0.5, 1]]), lambda: det([[0.1]]),
                 lambda: nullspace([{0: 0.5}], ncols=1),
                 lambda: inverse([[2.0]])):
        with pytest.raises(TypeError):
            call()


def test_sparse_entries_other_than_exact_ints_are_checked():
    # exact ints pass as they are; a float is still refused, and bools,
    # int subclasses and integral Fractions are read as the ints they equal
    class Count(int):
        pass

    with pytest.raises(TypeError):
        nullspace([{0: 1, 1: 0.5}], ncols=2)
    with pytest.raises(TypeError):
        rank([{0: 2.0}], ncols=1)
    for one in (True, Count(1), Fraction(2, 2)):
        kernel = nullspace([{0: one, 1: -1}], ncols=2)
        assert kernel == [[1, 1]]
        assert_stored(kernel[0])
    assert nullspace([{0: True, 1: 2}, {1: False}], ncols=2) == [[-2, 1]]
    assert type(nullspace([{0: Count(2), 1: 1}], ncols=2)[0][0]) is Fraction


def test_dense_int_rows_give_int_results_and_a_float_is_refused():
    # dense rows read their entries as sparse ones do: an exact int as it
    # is, a bool as the int it equals, a float refused
    rows = [[2, 1, 0], [1, 1, 0], [0, 3, 1]]
    assert det(rows) == 1 and type(det(rows)) is int
    assert all(type(x) is int for row in inverse(rows) for x in row)
    kernel = nullspace([[1, -2, 0], [0, 0, 1]])
    assert kernel == [[2, 1, 0]]
    assert all(type(x) is int for x in kernel[0])
    for value, as_int in ((True, 1), (False, 0)):
        got = det([[value]])
        assert got == as_int and type(got) is int
    assert [type(x) for x in nullspace([[True, -2]])[0]] == [int, int]
    for call in (det, inverse, rank, nullspace):
        with pytest.raises(TypeError):
            call([[1, 0], [0, 1.0]])


def test_results_are_ints_where_integral():
    assert_stored([det([[Fraction(1, 2), 1], [1, 4]]), det([[2, 1], [1, 1]])])
    assert det([[Fraction(1, 2), 1], [1, 4]]) == 1
    for row in inverse([[2, 0], [0, Fraction(1, 3)]]):
        assert_stored(row)


def test_ragged_dense_input_rejected():
    with pytest.raises(DimensionError):
        rank([[1, 2], [3]])
    with pytest.raises(DimensionError):
        nullspace([[1], [2, 3]])


# -- repeated one-entry rows and lone pivots ----------------------------------


@st.composite
def one_entry_systems(draw):
    """Sparse rows with ``ncols``, most of them one entry over a few
    columns, so columns repeat: ints, Fractions and bools, explicit zeros
    and empty rows, and some longer rows among them."""
    ncols = draw(st.integers(1, 5))
    column = st.integers(0, ncols - 1)
    value = st.one_of(entry, st.booleans())
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["one", "one", "one", "zero", "empty",
                                     "long"]))
        if kind == "one":
            rows.append({draw(column): draw(value)})
        elif kind == "zero":
            rows.append({draw(column): draw(st.sampled_from(
                [0, Fraction(0), False]))})
        elif kind == "empty":
            rows.append({})
        else:
            rows.append(draw(st.dictionaries(column, value,
                                             min_size=min(2, ncols))))
    return rows, ncols


@settings(max_examples=300, deadline=None)
@given(one_entry_systems())
def test_repeated_one_entry_rows_match_dense_oracle(system):
    # a later one-entry row in a column an earlier one holds is dropped, and
    # a lone pivot only clears its column: neither changes rank or kernel
    rows, ncols = system
    dense = [[row.get(c, 0) for c in range(ncols)] for row in rows]
    assert rank(rows, ncols=ncols) == rank(dense) == oracle_rank(dense)
    kernel = nullspace(rows, ncols=ncols)
    assert kernel == nullspace(dense) == oracle_nullspace(dense)
    for vec in kernel:
        assert_stored(vec)


def test_a_lone_pivot_clears_its_column_without_a_subtraction(monkeypatch):
    # column 0's pivot is the lone row {0: 2}; rows 1 and 2 hold column 0
    # beside other entries and just lose it, so the forward pass subtracts
    # once, for column 1's pivot
    rows = [{0: 2}, {0: 1, 1: 3, 3: 1}, {0: -1, 1: 1, 2: 2}]
    calls = []
    subtract = linalg._subtract

    def counted(*args):
        calls.append(args[3])
        return subtract(*args)

    monkeypatch.setattr(linalg, "_subtract", counted)
    assert rank([dict(row) for row in rows], ncols=4) == 3
    assert calls == [1]
    kernel = nullspace([dict(row) for row in rows], ncols=4)
    assert kernel == [[0, Fraction(-1, 3), Fraction(1, 6), 1]]
    dense = [[row.get(c, 0) for c in range(4)] for row in rows]
    assert kernel == oracle_nullspace(dense)


def test_a_repeated_one_entry_row_is_still_checked():
    # the dropped copy passes the same checks as the kept row first: its
    # column's range, a float refused, and a zero entry dropped after both
    with pytest.raises(DimensionError):
        rank([{0: 1}, {0: 2}, {0: 3, 3: 0}], ncols=3)
    with pytest.raises(DimensionError):
        nullspace([{1: 1}, {1: 1}, {-1: 1}], ncols=3)
    for call in (rank, nullspace):
        with pytest.raises(TypeError):
            call([{0: 1}, {0: 0.5}], ncols=2)
        with pytest.raises(TypeError):
            call([[1, 0], [2.0, 0]])
    assert nullspace([{0: 1}, {0: 3, 1: 0}, {1: False}], ncols=2) == [[0, 1]]


def test_two_one_entry_rows_in_one_column_make_a_square_matrix_singular():
    for m in ([[0, 3, 0], [1, 2, 3], [0, 5, 0]],
              [[4, 0, 0, 0], [1, 1, 0, 2], [Fraction(1, 2), 0, 0, 0],
               [0, 3, 1, 1]]):
        assert rank(m) == len(m) - 1
        d = det(m)
        assert d == 0 and type(d) is int
        with pytest.raises(NonInvertibleError):
            inverse(m)
