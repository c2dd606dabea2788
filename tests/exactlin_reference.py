"""Reference kernels for the differential tests of `sphertwist.exactlin`.

`DenseMatrix` is the dense, row-major matrix with the kernels the package
used before `Matrix` stored only its nonzeros.  The functions below are
the straightforward per-element loops: every entry goes through the
field's `add`/`sub`/`mul`/`is_zero`, and every zero test reads the
element modulo p.  They are slow and obviously right; the specialised
kernels in `exactlin` must return exactly the same rows and pivots.
"""

from itertools import compress

from sphertwist import exactlin
from sphertwist.errors import FieldMismatch, ShapeError
from sphertwist.exactlin import Matrix
from vectors import dense


class DenseMatrix:
    """The dense, row-major matrix the package kept before `Matrix`
    stored only its nonzeros, with its kernels as they were.

    Its entries are kept as given, so over F_p an entry may be stored
    unreduced, and ``==`` compares the stored rows; the differential
    tests compare its results with `exactlin.Matrix` modulo p.
    """

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, rows, ncols=None):
        self.field = field
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        if self.nrows:
            self.ncols = len(self.rows[0])
            for r in self.rows:
                if len(r) != self.ncols:
                    raise ShapeError("ragged rows")
        else:
            if ncols is None:
                ncols = 0
            self.ncols = ncols

    def column(self, j):
        return [r[j] for r in self.rows]

    def transpose(self):
        return DenseMatrix(
            self.field,
            [[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)],
            self.nrows,
        )

    def is_zero(self):
        p = self.field.characteristic
        if p:
            return not any(e % p for r in self.rows for e in r)
        return not any(any(r) for r in self.rows)

    def _check_field(self, other):
        if self.field != other.field:
            raise FieldMismatch("matrices over different fields")

    def add(self, other):
        self._check_field(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ShapeError("addition shape mismatch")
        p = self.field.characteristic
        if p:
            rows = [
                [(a + b) % p if b else a for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ]
        else:
            rows = [
                [a + b if b else a for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ]
        return DenseMatrix(self.field, rows, self.ncols)

    def sub(self, other):
        self._check_field(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ShapeError("subtraction shape mismatch")
        p = self.field.characteristic
        if p:
            rows = [
                [(a - b) % p if b else a for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ]
        else:
            rows = [
                [a - b if b else a for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ]
        return DenseMatrix(self.field, rows, self.ncols)

    def scale(self, c):
        f = self.field
        c = f.coerce(c)
        p = f.characteristic
        if p:
            rows = [[c * e % p for e in r] for r in self.rows]
        else:
            zero = f.zero()
            rows = [[c * e if e else zero for e in r] for r in self.rows]
        return DenseMatrix(f, rows, self.ncols)

    def mul(self, other):
        self._check_field(other)
        if self.ncols != other.nrows:
            raise ShapeError(
                "product shape mismatch: %dx%d by %dx%d"
                % (self.nrows, self.ncols, other.nrows, other.ncols)
            )
        f = self.field
        p = f.characteristic
        zero = f.zero()
        n = other.ncols
        b_rows = other.rows
        b_nonzeros = [None] * other.nrows  # built on first use
        cols = range(self.ncols)
        out = []
        for ra in self.rows:
            acc = [zero] * n
            for k in compress(cols, ra):
                pairs = b_nonzeros[k]
                if pairs is None:
                    pairs = b_nonzeros[k] = [(j, e) for j, e in enumerate(b_rows[k]) if e]
                a = ra[k]
                for j, b in pairs:
                    acc[j] += a * b
            out.append([x % p for x in acc] if p else acc)
        return DenseMatrix(f, out, n)

    def apply_to_row(self, vec):
        """Row vector times matrix: returns list of length ncols."""
        if len(vec) != self.nrows:
            raise ShapeError("row-vector length mismatch")
        f = self.field
        p = f.characteristic
        out = [f.zero()] * self.ncols
        for a, r in zip(vec, self.rows):
            if a:
                for j, e in enumerate(r):
                    if e:
                        out[j] += a * e
        return [x % p for x in out] if p else out

    def hstack(self, other):
        self._check_field(other)
        if self.nrows != other.nrows:
            raise ShapeError("hstack row mismatch")
        return DenseMatrix(
            self.field,
            [ra + rb for ra, rb in zip(self.rows, other.rows)],
            self.ncols + other.ncols,
        )

    def vstack(self, other):
        self._check_field(other)
        if self.ncols != other.ncols:
            raise ShapeError("vstack column mismatch")
        return DenseMatrix(self.field, self.rows + other.rows, self.ncols)

    def submatrix(self, row_indices, col_indices):
        return DenseMatrix(
            self.field,
            [[self.rows[i][j] for j in col_indices] for i in row_indices],
            len(col_indices),
        )

    def __eq__(self, other):
        return (
            isinstance(other, DenseMatrix)
            and self.field == other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )


def is_zero(m):
    f = m.field
    return all(f.is_zero(e) for r in m.rows for e in r)


def add(a, b):
    f = a.field
    return [[f.add(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a.rows, b.rows)]


def sub(a, b):
    f = a.field
    return [[f.sub(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a.rows, b.rows)]


def scale(m, c):
    f = m.field
    c = f.coerce(c)
    return [[f.mul(c, e) for e in r] for r in m.rows]


def mul(a, b):
    f = a.field
    bt = [[b.rows[i][j] for i in range(b.nrows)] for j in range(b.ncols)]
    out = []
    for ra in a.rows:
        row = []
        for cb in bt:
            acc = f.zero()
            for x, y in zip(ra, cb):
                if not f.is_zero(x) and not f.is_zero(y):
                    acc = f.add(acc, f.mul(x, y))
            row.append(acc)
        out.append(row)
    return out


def apply_to_row(m, vec):
    f = m.field
    out = [f.zero()] * m.ncols
    for a, r in zip(vec, m.rows):
        if f.is_zero(a):
            continue
        for j, e in enumerate(r):
            if not f.is_zero(e):
                out[j] = f.add(out[j], f.mul(a, e))
    return out


def kronecker(a, b):
    f = a.field
    out = []
    for i in range(a.nrows):
        for k in range(b.nrows):
            row = []
            for j in range(a.ncols):
                aij = a.rows[i][j]
                if f.is_zero(aij):
                    row.extend([f.zero()] * b.ncols)
                else:
                    row.extend(f.mul(aij, e) for e in b.rows[k])
            out.append(row)
    return out


def rref(m):
    """Gauss-Jordan elimination; returns (rows, pivot columns)."""
    f = m.field
    rows = [list(r) for r in m.rows]
    pivots = []
    rank = 0
    for col in range(m.ncols):
        sel = None
        for i in range(rank, len(rows)):
            if not f.is_zero(rows[i][col]):
                sel = i
                break
        if sel is None:
            continue
        rows[rank], rows[sel] = rows[sel], rows[rank]
        inv = f.inv(rows[rank][col])
        rows[rank] = [f.mul(inv, e) for e in rows[rank]]
        for i in range(len(rows)):
            if i == rank:
                continue
            c = rows[i][col]
            if f.is_zero(c):
                continue
            rows[i] = [f.sub(x, f.mul(c, y)) for x, y in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(rows):
            break
    return rows, pivots


def kernel_basis(m):
    """Kernel basis as rows: canonical rref of the free-variable solutions."""
    f = m.field
    r, pivots = rref(m)
    pivot_set = set(pivots)
    vecs = []
    for j in range(m.ncols):
        if j in pivot_set:
            continue
        v = [f.zero()] * m.ncols
        v[j] = f.one()
        for i, p in enumerate(pivots):
            v[p] = f.neg(r[i][j])
        vecs.append(v)
    if not vecs:
        return []
    canon, piv = rref(Matrix(f, vecs, m.ncols))
    return canon[: len(piv)]


def solve(m, b):
    f = m.field
    b = [f.coerce(e) for e in b]
    r, pivots = rref(Matrix(f, [row + [be] for row, be in zip(m.rows, b)], m.ncols + 1))
    if m.ncols in pivots:
        return None
    x = [f.zero()] * m.ncols
    for i, p in enumerate(pivots):
        x[p] = r[i][m.ncols]
    return x


class SpanBuilder:
    """Incremental canonical span with per-element arithmetic."""

    def __init__(self, field, width):
        self.field = field
        self.width = width
        self.rows = []
        self.pivots = []

    def _reduce(self, vec):
        if len(vec) != self.width:
            raise ShapeError("span vector length mismatch")
        f = self.field
        v = list(vec)
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            if not f.is_zero(c):
                v = [f.sub(x, f.mul(c, y)) for x, y in zip(v, row)]
        return v

    def contains(self, vec):
        f = self.field
        return all(f.is_zero(e) for e in self._reduce(vec))

    def add(self, vec):
        f = self.field
        v = self._reduce(vec)
        pivot = None
        for j, e in enumerate(v):
            if not f.is_zero(e):
                pivot = j
                break
        if pivot is None:
            return False
        inv = f.inv(v[pivot])
        v = [f.mul(inv, e) for e in v]
        for i, row in enumerate(self.rows):
            c = row[pivot]
            if not f.is_zero(c):
                self.rows[i] = [f.sub(x, f.mul(c, y)) for x, y in zip(row, v)]
        at = 0
        while at < len(self.pivots) and self.pivots[at] < pivot:
            at += 1
        self.rows.insert(at, v)
        self.pivots.insert(at, pivot)
        return True


# ---------------------------------------------------------------------------
# subspace helpers with no caller in the package, kept with their tests


def solve_matrix(m, b):
    """Solve m·X = b column by column; None if any column is inconsistent."""
    m._check_field(b)
    if b.nrows != m.nrows:
        raise ShapeError("solve_matrix shape mismatch")
    cols = []
    for j in range(b.ncols):
        x = exactlin.solve(m, b.column(j))
        if x is None:
            return None
        cols.append(dense(m.field, x, m.ncols))
    return Matrix(m.field, cols, m.ncols).transpose() if cols else Matrix.zero(m.field, m.ncols, 0)


def image_basis(m):
    """Canonical basis of the column space, returned as columns."""
    return exactlin.row_space_canonical(m.transpose()).transpose()


def intersect_subspaces(u, v):
    """Basis (columns) of the intersection of two column spans in k^n."""
    u._check_field(v)
    if u.nrows != v.nrows:
        raise ShapeError("ambient dimensions differ")
    if u.ncols == 0 or v.ncols == 0:
        return Matrix.zero(u.field, u.nrows, 0)
    stacked = u.hstack(v.scale(u.field.neg(u.field.one())))
    ker = exactlin.kernel_basis(stacked)
    cols = []
    for j in range(ker.ncols):
        coeffs = dense(u.field, ker.column(j), ker.nrows)[: u.ncols]
        column = u.mul(Matrix(u.field, [[c] for c in coeffs], 1)).column(0)
        cols.append(dense(u.field, column, u.nrows))
    if not cols:
        return Matrix.zero(u.field, u.nrows, 0)
    return exactlin.row_space_canonical(Matrix(u.field, cols, u.nrows)).transpose()
