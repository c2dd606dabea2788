"""Reference kernels for the differential tests of `sphertwist.exactlin`.

These are the straightforward per-element loops: every entry goes through
the field's `add`/`sub`/`mul`/`is_zero`, and every zero test reads the
element modulo p.  They are slow and obviously right; the specialised
kernels in `exactlin` must return exactly the same rows and pivots.
"""

from sphertwist import exactlin
from sphertwist.errors import ShapeError
from sphertwist.exactlin import Matrix


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
        cols.append(x)
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
        coeffs = ker.column(j)[: u.ncols]
        cols.append(u.mul(Matrix(u.field, [[c] for c in coeffs], 1)).column(0))
    if not cols:
        return Matrix.zero(u.field, u.nrows, 0)
    return exactlin.row_space_canonical(Matrix(u.field, cols, u.nrows)).transpose()
