from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reptilt.field import QQ, PrimeField, _mpq
from reptilt.linalg import (Mat, Subspace, column_space, kernel_basis,
                            quotient_basis, rank, rref, solve_matrix)


def test_rank_identity():
    assert rank(Mat.identity(2)) == 2


def test_rank_zero():
    assert rank(Mat.zeros(3, 4)) == 0


def test_rank_proportional_rows():
    assert rank(Mat.from_rows([[1, 2], [2, 4]])) == 1


def test_rationals_store_integral_values_as_ints():
    assert type(QQ.zero) is int and type(QQ.one) is int
    assert type(QQ.of(4)) is int
    two = QQ.of(Fraction(4, 2))
    assert two == 2 and type(two) is int
    assert type(QQ.of("6/3")) is int
    half = QQ.of("3/2")
    assert half == Fraction(3, 2) and type(half) is _mpq
    quotient = QQ.div(6, 3)
    assert quotient == 2 and type(quotient) is int
    assert QQ.div(1, 2) == Fraction(1, 2) and type(QQ.div(1, 2)) is _mpq
    assert QQ.div(3, -6) == Fraction(-1, 2)
    assert type(QQ.div(half, QQ.of("1/2"))) is int
    with pytest.raises(ZeroDivisionError):
        QQ.div(1, 0)


def test_rref_of_integer_matrix_with_non_unit_pivots():
    r, pivots = rref(Mat.from_rows([[2, 1, 1], [0, 3, 1], [4, 5, 3]]))
    assert pivots == [0, 1]
    assert r == Mat.from_rows([[1, 0, Fraction(1, 3)], [0, 1, Fraction(1, 3)],
                               [0, 0, 0]])
    kinds = {type(x) for row in r.data for x in row}
    assert kinds == {int, _mpq}
    assert type(r.data[0][0]) is int and type(r.data[1][1]) is int


def test_kernel_of_identity_is_zero():
    assert kernel_basis(Mat.identity(3)).dim == 0


def test_kernel_of_zero_is_full():
    k = kernel_basis(Mat.zeros(2, 3))
    assert k.dim == 3
    assert k.basis == Mat.identity(3)


def test_kernel_single_equation():
    k = kernel_basis(Mat.from_rows([[1, 1]]))
    assert k.dim == 1
    assert k.basis.col(0) == [Fraction(1), Fraction(-1)]


def test_solve_identity():
    x = solve_matrix(Mat.identity(3), Mat.column([1, 2, 3]))
    assert x.col(0) == [1, 2, 3]


def test_solve_inconsistent():
    assert solve_matrix(Mat.zeros(2, 2), Mat.column([1, 0])) is None


def test_solve_free_variable_rule():
    x = solve_matrix(Mat.from_rows([[1, 1]]), Mat.column([2]))
    assert x.col(0) == [2, 0]


def test_solve_dim_mismatch():
    with pytest.raises(ValueError):
        solve_matrix(Mat.identity(2), Mat.column([1, 2, 3]))


def test_quotient_by_zero_subspace():
    proj, sect = quotient_basis(2, column_space(Mat.zeros(2, 0)))
    assert proj == Mat.identity(2)
    assert sect == Mat.identity(2)


def test_quotient_by_full_space():
    proj, sect = quotient_basis(2, column_space(Mat.identity(2)))
    assert proj.rows == 0


def test_quotient_echelon_complement():
    sub = column_space(Mat.from_rows([[1], [0]]))
    proj, sect = quotient_basis(2, sub)
    # quotient coordinate reads off e2
    assert proj == Mat.from_rows([[0, 1]])
    assert (proj * sect) == Mat.identity(1)


small_entries = st.integers(min_value=-5, max_value=5)


@st.composite
def matrices(draw):
    r = draw(st.integers(min_value=0, max_value=5))
    c = draw(st.integers(min_value=0, max_value=5))
    rows = [[Fraction(draw(small_entries)) for _ in range(c)] for _ in range(r)]
    return Mat(r, c, rows)


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_rank_nullity(m):
    assert rank(m) + kernel_basis(m).dim == m.cols


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_kernel_vectors_annihilate(m):
    k = kernel_basis(m)
    assert (m * k.basis).is_zero()


@given(matrices(), st.lists(small_entries, min_size=0, max_size=5))
@settings(max_examples=60, deadline=None)
def test_solve_none_iff_rank_jump(m, b):
    b = (b + [0] * m.rows)[:m.rows]
    bcol = Mat.column(b)
    x = solve_matrix(m, bcol)
    jump = rank(Mat.hstack([m, bcol])) > rank(m)
    if jump:
        assert x is None
    else:
        assert x is not None
        assert m * x == bcol


@given(matrices())
@settings(max_examples=40, deadline=None)
def test_quotient_projection_section(m):
    sub = column_space(m)
    proj, sect = quotient_basis(m.rows, sub)
    assert proj * sect == Mat.identity(proj.rows)
    assert (proj * sub.basis).is_zero()
    assert proj.rows == m.rows - sub.dim


@given(matrices())
@settings(max_examples=30, deadline=None)
def test_determinism(m):
    copy = Mat(m.rows, m.cols, [r[:] for r in m.data])
    assert kernel_basis(m).basis == kernel_basis(copy).basis


def test_prime_field_rank():
    f = PrimeField(5)
    m = Mat.from_rows([[1, 2], [3, 6]], field=f)  # second row = 3x first mod 5
    assert rank(m) == 1


def test_prime_field_matches_rationals():
    rows = [[2, 3, 1], [1, 1, 4], [3, 4, 5]]
    rk_q = rank(Mat.from_rows(rows, field=QQ))
    rk_p = rank(Mat.from_rows(rows, field=PrimeField(101)))
    assert rk_q == rk_p


fields = st.sampled_from([QQ, PrimeField(101)])


def _grid(draw, rows, cols, field):
    return Mat(rows, cols, [[field.of(draw(small_entries)) for _ in range(cols)]
                            for _ in range(rows)], field)


@st.composite
def subspace_and_columns(draw):
    """A column space and columns that lie in it or (mostly) not."""
    field = draw(fields)
    r = draw(st.integers(min_value=0, max_value=5))
    span = _grid(draw, r, draw(st.integers(min_value=0, max_value=4)), field)
    k = draw(st.integers(min_value=0, max_value=3))
    if draw(st.booleans()):
        cols = span * _grid(draw, span.cols, k, field)
    else:
        cols = _grid(draw, r, k, field)
    return column_space(span), cols


@given(subspace_and_columns())
@settings(max_examples=80, deadline=None)
def test_subspace_coords_agree_with_solve(case):
    sub, cols = case
    x = sub.coords(cols)
    want = solve_matrix(sub.basis, cols)
    assert (x is None) == (want is None)
    assert x == want


def test_subspace_coords_rejects_wrong_length():
    with pytest.raises(ValueError):
        column_space(Mat.identity(2)).coords(Mat.zeros(3, 1))


def _product_reference(a, b):
    f = a.field
    data = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            s = f.zero
            for k in range(a.cols):
                s = s + a.data[i][k] * b.data[k][j]
            row.append(s)
        data.append(row)
    return Mat(a.rows, b.cols, data, f)


@st.composite
def factor_pairs(draw):
    field = draw(fields)
    r, k, c = (draw(st.integers(min_value=0, max_value=4)) for _ in range(3))
    return _grid(draw, r, k, field), _grid(draw, k, c, field)


@given(factor_pairs())
@settings(max_examples=80, deadline=None)
def test_product_matches_triple_loop(pair):
    a, b = pair
    got = a * b
    assert (got.rows, got.cols) == (a.rows, b.cols)
    assert got == _product_reference(a, b)


def test_product_of_empty_shapes():
    for r, k, c in [(0, 3, 2), (2, 0, 3), (3, 2, 0), (0, 0, 0)]:
        got = Mat.zeros(r, k) * Mat.zeros(k, c)
        assert (got.rows, got.cols) == (r, c) and got == Mat.zeros(r, c)
    with pytest.raises(ValueError):
        Mat.zeros(2, 3) * Mat.zeros(2, 3)
    assert Mat.zeros(0, 3).transpose() == Mat.zeros(3, 0)
    assert Mat.zeros(3, 0).transpose() == Mat.zeros(0, 3)


def _unshared(*mats):
    """No row list of ``mats`` is another's: callers write into rows."""
    rows = [r for x in mats for r in x.data]
    return len({id(r) for r in rows}) == len(rows)


@pytest.mark.parametrize("field", [QQ, PrimeField(101)], ids=["q", "fp101"])
@pytest.mark.parametrize("r, c", [(0, 3), (3, 0), (0, 0)])
def test_empty_shapes_match_the_general_code(r, c, field):
    # column_space and kernel_basis of an empty matrix skip the elimination;
    # the zero matrix with one more row (or column) still runs it wherever
    # that one is not empty
    a = Mat.zeros(r, c, field)
    taller, wider = Mat.zeros(r + 1, c, field), Mat.zeros(r, c + 1, field)
    assert rank(a) == rank(taller) == rank(wider) == 0
    ech, pivots = rref(a)
    assert (ech, pivots) == (a, []) and _unshared(ech, a)
    zero = Subspace(r, Mat.zeros(r, 0, field), [])
    for sub in (column_space(a), column_space(wider)):
        assert (sub, sub.pivot_rows) == (zero, [])
    whole = Subspace(c, Mat.identity(c, field), list(range(c)))
    for sub in (kernel_basis(a), kernel_basis(taller)):
        assert (sub, sub.pivot_rows) == (whole, whole.pivot_rows)
    assert _unshared(a, column_space(a).basis, column_space(a).basis,
                     kernel_basis(a).basis, kernel_basis(a).basis)
    for k, n in [(r, c), (c, r)]:
        got = a * Mat.zeros(c, k, field)
        assert got == Mat.zeros(r, k, field) == _product_reference(
            a, Mat.zeros(c, k, field))
        assert _unshared(got, a)
        got = Mat.zeros(n, r, field) * a
        assert got == Mat.zeros(n, c, field)
        assert _unshared(got, a)


@pytest.mark.parametrize("field", [QQ, PrimeField(101)], ids=["q", "fp101"])
@pytest.mark.parametrize("n", [0, 1, 3])
def test_quotient_by_zero_is_two_fresh_identities(n, field):
    proj, sect = quotient_basis(n, column_space(Mat.zeros(n, 0, field)))
    assert proj == sect == Mat.identity(n, field)
    assert _unshared(proj, sect)
    # the general code, by the span of e_0, keeps all but its pivot row 0
    if n:
        e0 = Mat.column([1] + [0] * (n - 1), field)
        proj1, sect1 = quotient_basis(n, column_space(e0))
        assert proj1.data == proj.data[1:]
        assert sect1.data == [row[1:] for row in sect.data]


def test_public_constructors_check_the_shape():
    with pytest.raises(ValueError):
        Mat(2, 2, [[1], [1, 2]])
    with pytest.raises(ValueError):
        Mat.from_rows([[1], [1, 2]])
