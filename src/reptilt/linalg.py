"""Exact linear algebra over the rationals or a prime field.

All basis choices (kernels, images, quotients) are reduced-echelon canonical
forms, so equal inputs always produce identical outputs.

``Mat(...)``, ``Mat.from_rows`` and ``Mat.column`` check that the entry grid
matches the shape; the matrices this module builds itself (products, sums,
stacks, transposes, echelon forms and solutions) skip that check.
"""

from __future__ import annotations

from .field import QQ


class Mat:
    """Dense exact matrix.  Entries are field elements, stored row-major."""

    __slots__ = ("rows", "cols", "data", "field")

    def __init__(self, rows, cols, data, field=QQ):
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError("entry grid does not match %dx%d" % (rows, cols))
        self.rows = rows
        self.cols = cols
        self.data = data
        self.field = field

    @staticmethod
    def _of(rows, cols, data, field):
        """A Mat over an entry grid known to be rows x cols (no check)."""
        m = object.__new__(Mat)
        m.rows = rows
        m.cols = cols
        m.data = data
        m.field = field
        return m

    # -- constructors -------------------------------------------------

    @staticmethod
    def zeros(rows, cols, field=QQ):
        z = field.zero
        return Mat._of(rows, cols, [[z] * cols for _ in range(rows)], field)

    @staticmethod
    def identity(n, field=QQ):
        m = Mat.zeros(n, n, field)
        one = field.one
        for i in range(n):
            m.data[i][i] = one
        return m

    @staticmethod
    def from_rows(rows_list, field=QQ):
        data = [[field.of(x) for x in row] for row in rows_list]
        nrows = len(data)
        ncols = len(data[0]) if data else 0
        return Mat(nrows, ncols, data, field)

    @staticmethod
    def column(entries, field=QQ):
        return Mat(len(entries), 1, [[field.of(x)] for x in entries], field)

    # -- basic algebra ------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(tuple(r) for r in self.data)))

    def __repr__(self):
        return "Mat(%d,%d,%r)" % (self.rows, self.cols, self.data)

    def __add__(self, other):
        assert self.rows == other.rows and self.cols == other.cols
        return Mat._of(self.rows, self.cols,
                       [[a + b for a, b in zip(r1, r2)]
                        for r1, r2 in zip(self.data, other.data)], self.field)

    def __sub__(self, other):
        assert self.rows == other.rows and self.cols == other.cols
        return Mat._of(self.rows, self.cols,
                       [[a - b for a, b in zip(r1, r2)]
                        for r1, r2 in zip(self.data, other.data)], self.field)

    def scale(self, c):
        c = self.field.of(c)
        return Mat._of(self.rows, self.cols,
                       [[c * a for a in r] for r in self.data], self.field)

    def __mul__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("dimension mismatch %dx%d * %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))
        if not (self.rows and other.cols):
            return Mat.zeros(self.rows, other.cols, self.field)
        # the nonzero entries of each row of ``other`` are listed once;
        # entry (r, j) still sums a[r][k] * b[k][j] over increasing k,
        # skipping zero factors, so every sum is formed in the same order
        zero = self.field.zero
        ncols = other.cols
        nonzero = [[(j, b) for j, b in enumerate(row) if b]
                   for row in other.data]
        out = []
        for row in self.data:
            acc = [zero] * ncols
            for a, bs in zip(row, nonzero):
                if a:
                    for j, b in bs:
                        acc[j] = acc[j] + a * b
            out.append(acc)
        return Mat._of(self.rows, ncols, out, self.field)

    def transpose(self):
        return Mat._of(self.cols, self.rows,
                       [list(col) for col in zip(*self.data)]
                       if self.rows else [[] for _ in range(self.cols)],
                       self.field)

    def is_zero(self):
        return all(not x for row in self.data for x in row)

    def col(self, j):
        return [self.data[i][j] for i in range(self.rows)]

    def submatrix_cols(self, js):
        return Mat._of(self.rows, len(js),
                       [[row[j] for j in js] for row in self.data], self.field)

    @staticmethod
    def hstack(mats, field=QQ):
        mats = list(mats)
        if not mats:
            return Mat.zeros(0, 0, field)
        rows = mats[0].rows
        assert all(m.rows == rows for m in mats)
        data = [sum((m.data[i] for m in mats), []) for i in range(rows)]
        return Mat._of(rows, sum(m.cols for m in mats), data, mats[0].field)

    @staticmethod
    def vstack(mats, field=QQ):
        mats = list(mats)
        if not mats:
            return Mat.zeros(0, 0, field)
        cols = mats[0].cols
        assert all(m.cols == cols for m in mats)
        data = []
        for m in mats:
            data.extend(row[:] for row in m.data)
        return Mat._of(len(data), cols, data, mats[0].field)

    def trace(self):
        assert self.rows == self.cols
        s = self.field.zero
        for i in range(self.rows):
            s = s + self.data[i][i]
        return s


def _rref_inplace(data, rows, cols, field):
    """Reduce ``data`` to reduced row echelon form; return pivot column list."""
    div = field.div
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pr = None
        for i in range(r, rows):
            if data[i][c]:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            data[r], data[pr] = data[pr], data[r]
        pv = data[r][c]
        if pv != 1:  # normalize pivot to 1
            inv_row = data[r]
            for j in range(c, cols):
                if inv_row[j]:
                    inv_row[j] = div(inv_row[j], pv)
        for i in range(rows):
            if i != r and data[i][c]:
                factor = data[i][c]
                ri, rr = data[i], data[r]
                for j in range(c, cols):
                    if rr[j]:
                        ri[j] = ri[j] - factor * rr[j]
        pivots.append(c)
        r += 1
    return pivots


def rref(m):
    """Reduced row echelon form of a Mat.  Returns (R, pivot_columns)."""
    data = [row[:] for row in m.data]
    pivots = _rref_inplace(data, m.rows, m.cols, m.field)
    return Mat._of(m.rows, m.cols, data, m.field), pivots


def rank(m):
    data = [row[:] for row in m.data]
    return len(_rref_inplace(data, m.rows, m.cols, m.field))


class Subspace:
    """Subspace of an ambient coordinate space, stored as a canonical
    reduced column echelon basis (pivot rows strictly increasing)."""

    __slots__ = ("ambient_dim", "basis", "pivot_rows")

    def __init__(self, ambient_dim, basis, pivot_rows):
        self.ambient_dim = ambient_dim
        self.basis = basis  # ambient_dim x dim Mat, reduced column echelon
        self.pivot_rows = pivot_rows

    @property
    def dim(self):
        return self.basis.cols

    def __eq__(self, other):
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def __repr__(self):
        return "Subspace(dim %d of %d)" % (self.dim, self.ambient_dim)

    def coords(self, cols):
        """The X with basis * X == cols, or None when some column of ``cols``
        is not in this subspace.  Row k of the basis at ``pivot_rows[k]`` is
        the k-th unit row, so X is ``cols`` read at the pivot rows."""
        if cols.rows != self.ambient_dim:
            raise ValueError("dimension mismatch")
        x = Mat._of(self.dim, cols.cols,
                    [cols.data[r][:] for r in self.pivot_rows],
                    self.basis.field)
        return x if self.basis * x == cols else None


def column_space(m):
    """Canonical column echelon basis of the column span of ``m``."""
    if not (m.rows and m.cols):
        return Subspace(m.rows, Mat.zeros(m.rows, 0, m.field), [])
    rt, pivots = rref(m.transpose())
    basis_rows = [rt.data[i] for i in range(len(pivots))]
    basis = Mat._of(len(pivots), m.rows, basis_rows, m.field).transpose()
    return Subspace(m.rows, basis, list(pivots))


def kernel_basis(m):
    """Canonical echelon basis of {x : m x = 0}."""
    if not (m.rows and m.cols):
        return Subspace(m.cols, Mat.identity(m.cols, m.field),
                        list(range(m.cols)))
    r, pivots = rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    f = m.field
    vecs = Mat.zeros(m.cols, len(free), f)
    for k, fc in enumerate(free):
        vecs.data[fc][k] = f.one
        for i, pc in enumerate(pivots):
            vecs.data[pc][k] = -r.data[i][fc]
    return column_space(vecs)


def solve_matrix(m, b):
    """Solve m X = b for a matrix right-hand side; None when inconsistent.

    Free variables are set to zero in echelon order (canonical choice).
    """
    if b.rows != m.rows:
        raise ValueError("dimension mismatch")
    aug, pivots = rref(Mat.hstack([m, b]))
    if any(p >= m.cols for p in pivots):
        return None
    f = m.field
    x = Mat.zeros(m.cols, b.cols, f)
    for i, pc in enumerate(pivots):
        for j in range(b.cols):
            x.data[pc][j] = aug.data[i][m.cols + j]
    return x


def quotient_basis(ambient_dim, sub):
    """Projection/section pair for ambient / sub.

    Kernel of the projection is exactly ``sub``; projection o section is the
    identity on the quotient.  Quotient coordinates are read off the non-pivot
    rows of the echelon basis of ``sub`` (echelon-complement convention).
    """
    if sub.ambient_dim != ambient_dim:
        raise ValueError("subspace not in ambient space")
    f = sub.basis.field
    pivot_set = set(sub.pivot_rows)
    comp = [r for r in range(ambient_dim) if r not in pivot_set]
    qdim = len(comp)
    proj = Mat.zeros(qdim, ambient_dim, f)
    sect = Mat.zeros(ambient_dim, qdim, f)
    for i, ci in enumerate(comp):
        proj.data[i][ci] = f.one
        sect.data[ci][i] = f.one
        for j, pj in enumerate(sub.pivot_rows):
            proj.data[i][pj] = -sub.basis.data[ci][j]
    return proj, sect
