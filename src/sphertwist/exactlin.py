"""Exact linear algebra over Q and over prime fields.

Everything downstream (algebras, modules, resolutions, homology) reduces to
the operations in this file, so the contract here is strict:

* arithmetic is exact — rationals are reduced fractions, prime-field
  elements are residues in [0, p);
* every returned basis is in a canonical form (reduced row echelon of the
  spanning rows), so equal subspaces produce equal matrices and golden-file
  tests are meaningful;
* all values are immutable after construction and safe to share between
  threads.

A matrix is dense and row-major, but the systems built downstream
(module actions, ideal closures, intertwining equations) are mostly
zeros, so the kernels are specialised for that:

* the field is dispatched once per kernel call, not once per element: the
  loops use Python's own ``+ - *`` on the elements (`Fraction` over Q,
  `int` over F_p) and, over F_p, reduce modulo p once per output row or
  row operation;
* zeros cost nothing: they are skipped by truthiness, ``mul`` walks the
  nonzeros of each row of A against the nonzero lists of the rows of B,
  and ``add``/``sub`` leave an entry alone where the other operand is 0;
* elimination has one kernel, `SpanBuilder`: it keeps its reduced rows
  as dicts, reads each vector (a dense sequence, or a dict of entries
  keyed by column for a system too sparse to hold densely) into its
  nonzeros in one pass, reduces it over the pivots it touches and drops
  zero and dependent rows on arrival.  ``rref`` (and so ``rank``,
  ``kernel_basis`` and ``solve``), `SpanQuotient` and `Preimages` all
  reduce through it;
* an equality of products A·B = C·D (an action axiom, an intertwining
  or commuting square, a chain-map square) is tested as a sparse
  residual by `product_residual`, row by row on the (column, entry)
  pairs of `sparse_rows`: neither product is formed densely, and the
  test stops at the first row whose residual is nonzero.

The F_p element invariant: an element is an int and stands for its
residue class, so a multiple of p is zero.  Every entry a kernel computes
lies in [0, p).  An entry that ``add``/``sub`` pass through untouched keeps
the form it came in; the package builds its F_p matrices from coerced
entries, so in practice every entry lies in [0, p).  Where a kernel tests
entries it has not computed itself for zero (the vectors `SpanBuilder`
reduces, ``Matrix.is_zero``), it reads them modulo p.

An algebra keeps its structure constants in the same (column, entry)
form: ``Algebra.table[i][j]`` lists the nonzeros of bᵢ·bⱼ.  `Algebra.mul_vec`
and the multiplication matrices walk the nonzeros of their factors over
it and reduce modulo p once at the end.

One further specialisation was tried and dropped: integer rows with
fraction-free elimination (Bareiss 1968) for Q.  A prototype's integer
Gauss-Jordan ``rref`` spent more time than the `Fraction` one on the
4-cycle scale-ladder workload.
"""

from __future__ import annotations

from fractions import Fraction
from bisect import insort
from itertools import compress

from .errors import FieldMismatch, ShapeError, SphertwistError


class RationalField:
    """The field Q.  Elements are `fractions.Fraction` (auto-normalized)."""

    characteristic = 0

    def coerce(self, value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            return Fraction(value)
        raise FieldMismatch("cannot coerce %r into Q" % (value,))

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("division by zero in Q")
        return 1 / Fraction(a)

    def is_zero(self, a):
        return a == 0

    def to_str(self, a):
        return str(a)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """The field F_p for a prime p.  Elements are ints in [0, p)."""

    def __init__(self, p):
        if p < 2:
            raise FieldMismatch("modulus must be a prime, got %d" % p)
        k = 2
        while k * k <= p:
            if p % k == 0:
                raise FieldMismatch("modulus must be a prime, got %d" % p)
            k += 1
        self.p = p
        self.characteristic = p

    def coerce(self, value):
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, str):
            if "/" in value:
                num, den = value.split("/", 1)
                return self.mul(int(num) % self.p, self.inv(int(den) % self.p))
            return int(value) % self.p
        if isinstance(value, Fraction):
            return self.mul(value.numerator % self.p, self.inv(value.denominator % self.p))
        raise FieldMismatch("cannot coerce %r into F_%d" % (value, self.p))

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("division by zero in F_%d" % self.p)
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    def to_str(self, a):
        return str(a % self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return "GF(%d)" % self.p


QQ = RationalField()


def _nonzeros(row):
    """The (column, entry) pairs of a row's nonzero entries."""
    return [(j, row[j]) for j in compress(range(len(row)), row)]


def sparse_rows(m):
    """The (column, entry) pairs of the nonzeros of each row of m.

    Over F_p an entry is nonzero when it is not a multiple of p; it is
    kept as stored, reduced or not, since `product_residual` reads its
    sums modulo p.
    """
    p = m.field.characteristic
    if p:
        return [[(j, c) for j, c in enumerate(row) if c % p] for row in m.rows]
    cols = range(m.ncols)
    return [[(j, row[j]) for j in compress(cols, row)] for row in m.rows]


def product_residual(a_rows, b_rows, c_rows, d_rows, p):
    """The index of the first row r with (A·B)ᵣ ≠ (C·D)ᵣ, or None when
    A·B = C·D.

    Each matrix is given by its rows' (column, entry) pairs
    (`sparse_rows`, or pairs built by the caller); A and C have the same
    number of rows and are iterated once, in step, so they may be
    generators that build their rows on demand, and B and D are
    indexed.  Row r of the residual, Σₖ Aᵣₖ·Bₖ − Σₖ Cᵣₖ·Dₖ, is summed in
    a dict over the columns it touches, and it vanishes exactly when
    every sum is 0 — read modulo the characteristic p over F_p, where
    entries may be stored unreduced, and by truthiness over Q (p = 0).
    So the verdict and the first failing row are those of comparing the
    dense products A·B and C·D row by row, and a check keeps its
    failure order by listing its equations as rows in that order.
    """
    for r, (a_row, c_row) in enumerate(zip(a_rows, c_rows)):
        if not (a_row or c_row):
            continue
        acc = {}
        get = acc.get
        for k, a in a_row:
            for j, b in b_rows[k]:
                acc[j] = get(j, 0) + a * b
        for k, c in c_row:
            for j, d in d_rows[k]:
                acc[j] = get(j, 0) - c * d
        if p:
            for v in acc.values():
                if v % p:
                    return r
        elif any(acc.values()):
            return r
    return None


class Matrix:
    """Dense exact matrix.  Rows of field elements; treat as immutable."""

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

    @classmethod
    def from_entries(cls, field, nrows, ncols, entries):
        if len(entries) != nrows * ncols:
            raise ShapeError(
                "entry count %d does not match %dx%d" % (len(entries), nrows, ncols)
            )
        coerced = [field.coerce(e) for e in entries]
        rows = [coerced[i * ncols : (i + 1) * ncols] for i in range(nrows)]
        return cls(field, rows, ncols)

    @classmethod
    def identity(cls, field, n):
        one, zero = field.one(), field.zero()
        return cls(field, [[one if i == j else zero for j in range(n)] for i in range(n)], n)

    @classmethod
    def zero(cls, field, nrows, ncols):
        z = field.zero()
        return cls(field, [[z] * ncols for _ in range(nrows)], ncols)

    def column(self, j):
        return [r[j] for r in self.rows]

    def transpose(self):
        return Matrix(
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
        return Matrix(self.field, rows, self.ncols)

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
        return Matrix(self.field, rows, self.ncols)

    def scale(self, c):
        f = self.field
        c = f.coerce(c)
        p = f.characteristic
        if p:
            rows = [[c * e % p for e in r] for r in self.rows]
        else:
            zero = f.zero()
            rows = [[c * e if e else zero for e in r] for r in self.rows]
        return Matrix(f, rows, self.ncols)

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
                    pairs = b_nonzeros[k] = _nonzeros(b_rows[k])
                a = ra[k]
                for j, b in pairs:
                    acc[j] += a * b
            out.append([x % p for x in acc] if p else acc)
        return Matrix(f, out, n)

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
        return Matrix(
            self.field,
            [ra + rb for ra, rb in zip(self.rows, other.rows)],
            self.ncols + other.ncols,
        )

    def vstack(self, other):
        self._check_field(other)
        if self.ncols != other.ncols:
            raise ShapeError("vstack column mismatch")
        return Matrix(self.field, self.rows + other.rows, self.ncols)

    def submatrix(self, row_indices, col_indices):
        return Matrix(
            self.field,
            [[self.rows[i][j] for j in col_indices] for i in row_indices],
            len(col_indices),
        )

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __repr__(self):
        if self.nrows == 0 or self.ncols == 0:
            return "Matrix(%r, %dx%d)" % (self.field, self.nrows, self.ncols)
        body = "; ".join(
            " ".join(self.field.to_str(e) for e in r) for r in self.rows
        )
        return "Matrix(%r, [%s])" % (self.field, body)


def rref(m):
    """Reduced row echelon form.  Returns (matrix, pivot column list).

    The rows of m go one by one into a `SpanBuilder`, whose rows are the
    nonzero rows of the rref of everything added; the rows past the rank
    are zero rows.  Over F_p every entry is read modulo p, so a multiple
    of p counts as zero even where the input holds it unreduced, and the
    pivot rows come out reduced.
    """
    f = m.field
    span = SpanBuilder(f, m.ncols)
    for row in m.rows:
        if len(span.pivots) == m.ncols:
            break  # every further row lies in the span
        span.add(row)
    rows = span.rows
    zero = f.zero()
    rows += [[zero] * m.ncols for _ in range(m.nrows - len(rows))]
    return Matrix(f, rows, m.ncols), list(span.pivots)


def rank(m):
    return len(rref(m)[1])


def row_space_canonical(m):
    """Canonical basis of the row space: nonzero rows of the rref."""
    r, pivots = rref(m)
    return Matrix(m.field, [r.rows[i] for i in range(len(pivots))], m.ncols)


def kernel_basis(m):
    """Basis of the right null space, returned as columns.

    The basis is the canonical rref form of the standard free-variable
    solutions, so it depends only on the null space, not on m.
    """
    r, pivots = rref(m)
    return _null_space(
        m.field, m.ncols, pivots, [_nonzeros(r.rows[i]) for i in range(len(pivots))]
    )


def _null_space(f, ncols, pivots, pivot_rows):
    """Null space, as columns, of a reduced row echelon form given by its
    pivots and the (column, entry) pairs of its nonzero rows.

    Each free column j gives the solution with 1 at j, 0 at the other
    free columns and minus the pivot rows' entries of column j at the
    pivots; these are put in canonical rref form.
    """
    pivot_set = set(pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    if not free:
        return Matrix(f, [], 0) if ncols == 0 else Matrix.zero(f, ncols, 0)
    zero, one = f.zero(), f.one()
    slot = {j: k for k, j in enumerate(free)}
    vecs = [[zero] * ncols for _ in free]
    for k, j in enumerate(free):
        vecs[k][j] = one
    for p, pairs in zip(pivots, pivot_rows):
        for j, e in pairs:
            if j != p:
                vecs[slot[j]][p] = f.neg(e)
    return row_space_canonical(Matrix(f, vecs, ncols)).transpose()


def solve(m, b):
    """One solution x of m·x = b (b a sequence of entries), or None if
    inconsistent."""
    if len(b) != m.nrows:
        raise ShapeError("right-hand side length mismatch")
    f = m.field
    b = [f.coerce(e) for e in b]
    aug = Matrix(f, [r + [be] for r, be in zip(m.rows, b)], m.ncols + 1)
    if m.nrows == 0:
        aug = Matrix(f, [], m.ncols + 1)
    r, pivots = rref(aug)
    if m.ncols in pivots:
        return None
    x = [f.zero()] * m.ncols
    for i, p in enumerate(pivots):
        x[p] = r.rows[i][m.ncols]
    return x


def kronecker(a, b):
    """Kronecker product, shape (a.rows·b.rows) × (a.cols·b.cols).

    No package code forms one; the dense reference routes of the tests
    do.
    """
    a._check_field(b)
    f = a.field
    p = f.characteristic
    zero = f.zero()
    blank = [zero] * b.ncols
    out = []
    for ra in a.rows:
        for rb in b.rows:
            row = []
            for x in ra:
                if not x:
                    row.extend(blank)
                elif p:
                    row.extend([x * e % p for e in rb])
                else:
                    row.extend([x * e if e else zero for e in rb])
            out.append(row)
    return Matrix(f, out, a.ncols * b.ncols)


class SpanBuilder:
    """Incremental canonical span of row vectors.

    Feed vectors with ``add``, each a sequence of ``width`` entries or a
    dict of entries keyed by column (missing columns are zero); the
    builder keeps the reduced row echelon form of the span and reports
    whether each vector enlarged it.  ``contains`` answers membership
    without mutating, and ``kernel_basis`` gives the null space of the
    span, `SpanQuotient` the quotient by it and `Preimages` solutions
    of u·M = v.  Used for `rref` itself, ideal closures, factor-through
    subspaces, radd-style intersections, the intertwining systems of
    hom spaces and the balancing relations of tensor products, where
    many candidate vectors are zero or redundant and a full rref of
    everything at once would be wasteful.

    The rows are held sparse, as dicts keyed by column, and fully
    reduced: each has 1 at its pivot and no entry at any other pivot.
    So a vector is reduced in one pass over the pivots it touches —
    subtracting a pivot row never brings back an entry at another pivot
    column — and ``rows`` is exactly the nonzero part of the `rref` of
    everything added.
    """

    def __init__(self, field, width):
        self.field = field
        self.width = width
        self.pivots = []  # increasing
        self._rows = {}   # pivot column -> {column: nonzero entry}

    @property
    def rows(self):
        """The reduced basis rows as dense lists, in pivot order."""
        zero = self.field.zero()
        out = []
        for pivot in self.pivots:
            row = [zero] * self.width
            for j, e in self._rows[pivot].items():
                row[j] = e
            out.append(row)
        return out

    def _reduce(self, vec):
        """The remainder of a vector after reduction by the span, as a
        dict of its nonzero entries keyed by column.

        The vector is read in one pass, which reduces each entry modulo
        p and drops the zeros (a sequence's zero entries are skipped by
        truthiness before any is read).  Subtracting the row of a pivot the
        vector holds clears that pivot (the row has 1 there) and touches
        no other pivot, so the pivots to clear are those of the vector
        as read.
        """
        width = self.width
        if isinstance(vec, dict):
            if any(not 0 <= j < width for j in vec):
                raise ShapeError("span vector column out of range")
            cols = vec
        elif len(vec) != width:
            raise ShapeError("span vector length mismatch")
        else:
            cols = compress(range(width), vec)
        p = self.field.characteristic
        if p:
            v = {j: x for j in cols if (x := vec[j] % p)}
        else:
            v = {j: x for j in cols if (x := vec[j])}
        rows = self._rows
        for pivot in [j for j in v if j in rows]:
            c = v[pivot]
            for j, e in rows[pivot].items():
                x = v.get(j, 0) - c * e
                if p:
                    x %= p
                if x:
                    v[j] = x
                else:
                    del v[j]
        return v

    def contains(self, vec):
        return not self._reduce(vec)

    def add(self, vec):
        """Insert a vector; returns True if the span grew."""
        v = self._reduce(vec)
        if not v:
            return False
        self._insert(min(v), v)
        return True

    def _insert(self, pivot, row):
        """Normalise a reduced row and back-substitute it into the others."""
        f = self.field
        p = f.characteristic
        inv = f.inv(row[pivot])
        if p:
            row = {j: e * inv % p for j, e in row.items()}
        else:
            row = {j: e * inv for j, e in row.items()}
        items = list(row.items())
        for other in self._rows.values():
            c = other.get(pivot)
            if c is None:
                continue
            for j, e in items:
                x = other.get(j, 0) - c * e
                if p:
                    x %= p
                if x:
                    other[j] = x
                else:
                    del other[j]
        insort(self.pivots, pivot)
        self._rows[pivot] = row

    def dim(self):
        return len(self.pivots)

    def basis_entries(self):
        """The reduced basis rows as {column: entry} dicts, in pivot order."""
        return [dict(self._rows[pivot]) for pivot in self.pivots]

    def basis_matrix(self):
        """Rows = canonical basis (already rref by construction)."""
        return Matrix(self.field, self.rows, self.width)

    def kernel_basis(self):
        """Basis of the right null space of the span, as columns.

        The same canonical basis `kernel_basis` returns for any matrix
        with this row space.
        """
        return _null_space(
            self.field, self.width, self.pivots,
            [self._rows[p].items() for p in self.pivots],
        )


class SpanQuotient:
    """Coordinates on k^width modulo the span of a finished `SpanBuilder`.

    The rows of the span are fully reduced, so reducing a vector by them
    leaves entries only at the non-pivot columns, and two vectors reduce
    alike exactly when they differ by an element of the span.  The
    ``kept`` (non-pivot) columns, in increasing order, are therefore
    coordinates on the quotient, and ``project`` reads a vector's class
    there.  The span must not grow afterwards.
    """

    def __init__(self, span):
        self.span = span
        pivots = set(span.pivots)
        self.kept = [j for j in range(span.width) if j not in pivots]

    @property
    def dim(self):
        return len(self.kept)

    def project(self, vec):
        """The class of a vector, given as `SpanBuilder.add` takes it, in
        the kept coordinates."""
        red = self.span._reduce(vec)
        zero = self.span.field.zero()
        return [red.get(j, zero) for j in self.kept]


class Preimages:
    """Preimages u with u·M = v under one matrix M, factored once.

    The rows [Mᵣ | eᵣ] are reduced into one echelon span.  Reducing
    [v | 0] by it leaves [v − u·M | −u] for the combination u of rows
    it subtracted, so v has a preimage exactly when the first part
    comes out zero, and then u is the negated second part: ``of``
    returns a u with u·M = v exactly, or raises.  With independent rows
    of M the preimage is unique, so ``of(u·M) == u``.  ``inverse`` stacks
    the preimages of the unit rows: X with X·M = I, which is M⁻¹ for an
    invertible M, and raises when the rows of M do not span.
    """

    def __init__(self, mat):
        f = mat.field
        self.field = f
        self.width = mat.ncols
        self.span = SpanBuilder(f, mat.ncols + mat.nrows)
        one = f.one()
        for r, row in enumerate(mat.rows):
            entries = {j: e for j, e in enumerate(row) if e}
            entries[mat.ncols + r] = one
            self.span.add(entries)
        self.pad = [0] * mat.nrows  # int zeros: truthiness without a call

    def of(self, v):
        width = self.width
        red = self.span._reduce(list(v) + self.pad)
        if any(j < width for j in red):
            raise SphertwistError("vector has no preimage")
        u = [self.field.zero()] * len(self.pad)
        neg = self.field.neg
        for j, e in red.items():
            u[j - width] = neg(e)
        return u

    def inverse(self):
        units = Matrix.identity(self.field, self.width).rows
        return Matrix(self.field, [self.of(e) for e in units], len(self.pad))
