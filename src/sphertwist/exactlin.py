"""Exact linear algebra over Q and over prime fields.

Everything downstream (algebras, modules, resolutions, homology) reduces to
the operations in this file, so the contract here is strict:

* arithmetic is exact — a rational is an `int` when it is integral and
  a reduced `Fraction` with denominator > 1 otherwise, prime-field
  elements are residues in [0, p);
* every returned basis is in a canonical form (reduced row echelon of the
  spanning rows), so equal subspaces produce equal matrices and golden-file
  tests are meaningful;
* all values are immutable after construction and safe to share between
  threads.

There is one vector form: a list of (index, entry) pairs, sorted by
index, holding only the nonzero entries, each over F_p reduced into
[1, p).  It is the form of a row of ``Matrix.pairs`` and of an entry of
`Algebra.table`, and every vector the package passes (algebra elements,
module vectors, right-hand sides, preimages, coordinates) has it.  A
kernel trusts the entries of the vectors it is given and checks only
the first and last index against the length (`_check_vector`), so a
vector of the wrong length raises ShapeError.  Sums and differences are
one merge, `combine`.

A matrix stores only its nonzeros: ``Matrix.pairs[i]`` is row i, a
vector.  ``Matrix(field, rows)`` reads dense rows once, and
``Matrix.rows`` writes them back out as a view for tests and ``repr``.
The systems built downstream (module actions, ideal closures,
intertwining equations) hold well under 1 % nonzeros, so every kernel
walks pairs and never reads a zero:

* the field is dispatched once per kernel call, not once per element: the
  loops use Python's own ``+ - *`` on the elements (`int` or `Fraction`
  over Q, `int` over F_p) and, over F_p, reduce each computed entry
  modulo p once;
* ``mul`` is Gustavson's (1978) row-wise product: row i of A·B is summed
  in a dict over the pairs of the rows of B that the pairs of row i of A
  name; ``apply_to_row`` is the same product for one row, ``add`` and
  `combine` merge rows the same way, and ``transpose``, the stacks,
  ``submatrix`` and `kronecker` move pairs;
* elimination has one kernel, `SpanBuilder`: it keeps its reduced rows
  as dicts, reads each vector into a dict, reduces it over the pivots it
  touches and drops zero and dependent rows on arrival.  ``rref`` (and
  so ``rank``, ``kernel_basis`` and ``solve``), `SpanQuotient` and
  `Preimages` all reduce through it;
* an equality of products A·B = C·D (an action axiom, an intertwining
  or commuting square, a chain-map square) is tested as a sparse
  residual by `product_residual`, row by row on the matrices' pairs:
  neither product is formed, and the test stops at the first row whose
  residual is nonzero.

The Q element invariant: a stored entry is an `int` when it is
integral and a `Fraction` with denominator > 1 otherwise, so each value
has one type, and integer-on-integer arithmetic, comparison and truth
tests run in C, not in `Fraction`'s Python methods.  A sum or product
that involves a `Fraction` is a `Fraction` even when it is integral, so
every place that stores a computed value turns an integral `Fraction`
back into its `int`: `_canonical` (behind `combine`, ``mul``,
``apply_to_row`` and ``add``), ``Matrix(field, rows)``, ``scale``,
`kronecker`, and the reduction and the rows of `SpanBuilder`, which
`SpanQuotient` and `Preimages` read.  Mixed input needs no care for
correctness: ``int == Fraction`` and the hashes of equal values agree,
so sums, pair equality and dict keys stay exact when the types mix.

The F_p element invariant: an element is an int standing for its
residue class, and matrices and vectors hold their entries reduced into
[1, p), so equal matrices and equal vectors have equal pairs.

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
    """The field Q.  An element is an `int` when it is integral and a
    reduced `fractions.Fraction` with denominator > 1 otherwise;
    ``coerce``, ``zero``, ``one`` and ``inv`` return that form, while
    ``add``, ``sub``, ``mul`` and ``neg`` are the plain operators, so
    their result may be an integral `Fraction` until it is stored."""

    characteristic = 0

    def coerce(self, value):
        if type(value) is int:
            return value
        if isinstance(value, (int, str)):
            value = Fraction(value)
        elif not isinstance(value, Fraction):
            raise FieldMismatch("cannot coerce %r into Q" % (value,))
        return value.numerator if value.denominator == 1 else value

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("division by zero in Q")
        n, d = a.numerator, a.denominator
        if n == 1 or n == -1:
            return n * d
        return Fraction(d, n)

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


def product_residual(a_rows, b_rows, c_rows, d_rows, p):
    """The index of the first row r with (A·B)ᵣ ≠ (C·D)ᵣ, or None when
    A·B = C·D.

    Each matrix is given by its rows' (column, entry) pairs (a
    `Matrix`'s ``pairs``, or pairs built by the caller); A and C have
    the same number of rows and are iterated once, in step, so they may
    be generators that build their rows on demand, and B and D are
    indexed.  Row r of the residual, Σₖ Aᵣₖ·Bₖ − Σₖ Cᵣₖ·Dₖ, is summed in
    a dict over the columns it touches, and it vanishes exactly when
    every sum is 0 — read modulo the characteristic p over F_p, where
    pairs built by a caller may hold entries unreduced, and by
    truthiness over Q (p = 0).  So the verdict and the first failing
    row are those of comparing the products A·B and C·D row by row, and
    a check keeps its failure order by listing its equations as rows in
    that order.
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


def _canonical(acc, p):
    """The sorted (column, entry) pairs of the nonzero sums in a dict
    keyed by column, each reduced modulo p over F_p and, over Q, an
    integral `Fraction` turned into its `int`."""
    if p:
        return [(j, v) for j in sorted(acc) if (v := acc[j] % p)]
    return [(j, v if type(v) is int or v.denominator != 1 else v.numerator)
            for j in sorted(acc) if (v := acc[j])]


def _check_vector(vec, n):
    """Raise ShapeError unless the indices of a vector lie in [0, n).
    The pairs are sorted, so the first and the last index decide."""
    if vec and (vec[0][0] < 0 or vec[-1][0] >= n):
        raise ShapeError("vector index outside [0, %d)" % n)


def combine(terms, p):
    """The vector Σ c·v over the (c, v) pairs of terms, for field
    elements c and vectors v: the one merge behind every sum and
    difference of vectors, reduced modulo p over F_p."""
    acc = {}
    get = acc.get
    for c, vec in terms:
        for j, x in vec:
            acc[j] = get(j, 0) + c * x
    return _canonical(acc, p)


class Matrix:
    """Exact matrix that stores only its nonzeros; treat as immutable.

    ``pairs[i]`` lists the (column, entry) pairs of the nonzero entries
    of row i, sorted by column, each entry over F_p reduced into
    [1, p).  ``Matrix(field, rows, ncols)`` reads dense rows into that
    form once, and `from_pairs` takes the pairs themselves.  ``rows``
    is a dense view, written out on each read, for tests and ``repr``.
    """

    __slots__ = ("field", "nrows", "ncols", "pairs")

    def __init__(self, field, rows, ncols=None):
        """The matrix with the given dense rows.  ``ncols`` is the width
        (needed only when there are no rows); a row of another length
        raises ShapeError.  Entries are not coerced, but over F_p they
        are reduced modulo p, so a multiple of p is a zero, and over Q
        an integral `Fraction` is stored as its `int`."""
        self.field = field
        p = field.characteristic
        pairs = []
        for row in rows:
            if ncols is None:
                ncols = len(row)
            elif len(row) != ncols:
                raise ShapeError(
                    "row of length %d in a matrix of width %d" % (len(row), ncols)
                )
            nonzero = compress(range(ncols), row)
            if p:
                pairs.append([(j, x) for j in nonzero if (x := row[j] % p)])
            else:
                pairs.append([(j, x if type(x := row[j]) is int or x.denominator != 1
                               else x.numerator) for j in nonzero])
        self.pairs = pairs
        self.nrows = len(pairs)
        self.ncols = ncols or 0

    @classmethod
    def from_pairs(cls, field, pairs, ncols):
        """The matrix whose row i has the (column, entry) pairs ``pairs[i]``.

        The pairs are kept as given, so they must already be in the
        stored form: entries nonzero and, over F_p, reduced into
        [1, p).  A column outside [0, ncols), or the columns of a row
        unsorted or repeated, raises ShapeError.
        """
        for row in pairs:
            last = -1
            for j, _ in row:
                if not 0 <= j < ncols:
                    raise ShapeError("matrix column %r outside [0, %d)" % (j, ncols))
                if j <= last:
                    raise ShapeError("matrix columns unsorted or repeated")
                last = j
        m = cls(field, (), ncols)
        m.pairs = pairs
        m.nrows = len(pairs)
        return m

    @classmethod
    def identity(cls, field, n):
        one = field.one()
        return cls.from_pairs(field, [[(i, one)] for i in range(n)], n)

    @classmethod
    def zero(cls, field, nrows, ncols):
        return cls.from_pairs(field, [[] for _ in range(nrows)], ncols)

    @property
    def rows(self):
        """The rows as dense lists (a view: built on each read)."""
        zero, cols = self.field.zero(), range(self.ncols)
        return [[row.get(j, zero) for j in cols] for row in map(dict, self.pairs)]

    def column(self, j):
        """Column j, as a vector of length nrows."""
        return [(i, e) for i, row in enumerate(self.pairs) for c, e in row if c == j]

    def transpose(self):
        cols = [[] for _ in range(self.ncols)]
        for i, row in enumerate(self.pairs):
            for j, e in row:
                cols[j].append((i, e))
        return Matrix.from_pairs(self.field, cols, self.nrows)

    def is_zero(self):
        return not any(self.pairs)

    def _check_field(self, other):
        if self.field != other.field:
            raise FieldMismatch("matrices over different fields")

    def add(self, other):
        self._check_field(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ShapeError("addition shape mismatch")
        p = self.field.characteristic
        out = []
        for ra, rb in zip(self.pairs, other.pairs):
            acc = dict(ra)
            get = acc.get
            for j, x in rb:
                acc[j] = get(j, 0) + x
            out.append(_canonical(acc, p))
        return Matrix.from_pairs(self.field, out, self.ncols)

    def sub(self, other):
        return self.add(other.scale(-1))

    def scale(self, c):
        f = self.field
        c = f.coerce(c)
        p = f.characteristic
        if not c:
            rows = [[] for _ in self.pairs]
        elif p:
            rows = [[(j, c * e % p) for j, e in row] for row in self.pairs]
        else:
            rows = [[(j, x if type(x := c * e) is int or x.denominator != 1 else x.numerator)
                     for j, e in row] for row in self.pairs]
        return Matrix.from_pairs(f, rows, self.ncols)

    def mul(self, other):
        """Gustavson's row-wise product: row i of self·other sums the
        rows k of other named by the pairs (k, a) of row i, scaled by a.
        A row with the one pair (k, 1) is row k of other."""
        self._check_field(other)
        if self.ncols != other.nrows:
            raise ShapeError(
                "product shape mismatch: %dx%d by %dx%d"
                % (self.nrows, self.ncols, other.nrows, other.ncols)
            )
        f = self.field
        p = f.characteristic
        b_rows = other.pairs
        out = []
        for ra in self.pairs:
            if len(ra) == 1 and ra[0][1] == 1:
                out.append(b_rows[ra[0][0]])
                continue
            acc = {}
            get = acc.get
            for k, a in ra:
                for j, b in b_rows[k]:
                    acc[j] = get(j, 0) + a * b
            out.append(_canonical(acc, p))
        return Matrix.from_pairs(f, out, other.ncols)

    def apply_to_row(self, vec):
        """The vector vec·self, for a vector vec of length nrows: the
        rows named by the pairs of vec, scaled and summed as in ``mul``."""
        _check_vector(vec, self.nrows)
        rows = self.pairs
        if len(vec) == 1 and vec[0][1] == 1:
            return rows[vec[0][0]]
        acc = {}
        get = acc.get
        for k, a in vec:
            for j, e in rows[k]:
                acc[j] = get(j, 0) + a * e
        return _canonical(acc, self.field.characteristic)

    def hstack(self, other):
        self._check_field(other)
        if self.nrows != other.nrows:
            raise ShapeError("hstack row mismatch")
        n = self.ncols
        return Matrix.from_pairs(
            self.field,
            [ra + [(j + n, e) for j, e in rb] for ra, rb in zip(self.pairs, other.pairs)],
            n + other.ncols,
        )

    def vstack(self, other):
        self._check_field(other)
        if self.ncols != other.ncols:
            raise ShapeError("vstack column mismatch")
        return Matrix.from_pairs(self.field, self.pairs + other.pairs, self.ncols)

    def submatrix(self, row_indices, col_indices):
        """The entries at the given rows and columns, in the order given;
        a repeated column raises ShapeError."""
        at = {j: k for k, j in enumerate(col_indices)}
        if len(at) != len(col_indices):
            raise ShapeError("submatrix columns repeated")
        rows = [
            sorted((at[j], e) for j, e in self.pairs[i] if j in at) for i in row_indices
        ]
        return Matrix.from_pairs(self.field, rows, len(at))

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.pairs == other.pairs
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
    are zero rows.
    """
    span = SpanBuilder(m.field, m.ncols)
    for row in m.pairs:
        if len(span.pivots) == m.ncols:
            break  # every further row lies in the span
        if row:
            span.add(row)
    pairs = span.basis_pairs()
    pairs += [[] for _ in range(m.nrows - len(pairs))]
    return Matrix.from_pairs(m.field, pairs, m.ncols), list(span.pivots)


def rank(m):
    return len(rref(m)[1])


def row_space_canonical(m):
    """Canonical basis of the row space: nonzero rows of the rref."""
    r, pivots = rref(m)
    return Matrix.from_pairs(m.field, r.pairs[: len(pivots)], m.ncols)


def kernel_basis(m):
    """Basis of the right null space, returned as columns.

    The basis is the canonical rref form of the standard free-variable
    solutions, so it depends only on the null space, not on m.
    """
    r, pivots = rref(m)
    return _null_space(m.field, m.ncols, pivots, r.pairs[: len(pivots)])


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
        return Matrix.zero(f, ncols, 0)
    one = f.one()
    vecs = {j: {j: one} for j in free}
    for p, pairs in zip(pivots, pivot_rows):
        for j, e in pairs:
            if j != p:
                vecs[j][p] = f.neg(e)
    rows = [sorted(vecs[j].items()) for j in free]
    return row_space_canonical(Matrix.from_pairs(f, rows, ncols)).transpose()


def solve(m, b):
    """One solution x of m·x = b, for b a vector of length nrows, as a
    vector of length ncols; None if inconsistent."""
    _check_vector(b, m.nrows)
    n = m.ncols
    rhs = dict(b)
    aug = [row + [(n, rhs[r])] if r in rhs else row for r, row in enumerate(m.pairs)]
    r, pivots = rref(Matrix.from_pairs(m.field, aug, n + 1))
    if n in pivots:
        return None
    return [(p, row[-1][1]) for row, p in zip(r.pairs, pivots) if row[-1][0] == n]


def kronecker(a, b):
    """Kronecker product, shape (a.nrows·b.nrows) × (a.ncols·b.ncols).

    No package code forms one; the dense reference routes of the tests
    do.
    """
    a._check_field(b)
    p = a.field.characteristic
    n = b.ncols
    out = []
    for ra in a.pairs:
        for rb in b.pairs:
            if p:
                out.append([(i * n + j, x * e % p) for i, x in ra for j, e in rb])
            else:
                out.append([(i * n + j, y if type(y := x * e) is int or y.denominator != 1
                             else y.numerator) for i, x in ra for j, e in rb])
    return Matrix.from_pairs(a.field, out, a.ncols * n)


class SpanBuilder:
    """Incremental canonical span of row vectors.

    Feed vectors of length ``width`` with ``add``; the builder keeps the
    reduced row echelon form of the span and reports whether each vector
    enlarged it.  ``contains`` answers membership without mutating, and
    ``kernel_basis`` gives the null space of the span, `SpanQuotient`
    the quotient by it and `Preimages` solutions of u·M = v.  Used for
    `rref` itself, ideal closures, factor-through subspaces, radd-style
    intersections, the intertwining systems of hom spaces and the
    balancing relations of tensor products, where many candidate vectors
    are zero or redundant and a full rref of everything at once would be
    wasteful.

    The rows are held as dicts keyed by column, the one internal form
    that is not a vector, because reduction edits them in place; they
    are fully reduced: each has 1 at its pivot and no entry at any other
    pivot.
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
        """The reduced basis rows as dense lists, in pivot order (a view,
        for the tests)."""
        return self.basis_matrix().rows

    def _reduce(self, vec):
        """The remainder of a vector after reduction by the span, as a
        dict of its nonzero entries keyed by column.  Over Q each entry
        it computes is in the element form; an entry that no pivot row
        touches is kept as given.

        The vector's pairs are its nonzero entries, so they are read
        into the dict as they are.  Subtracting the row of a pivot the
        vector holds clears that pivot (the row has 1 there) and touches
        no other pivot, so the pivots to clear are those of the vector
        as read.
        """
        _check_vector(vec, self.width)
        v = dict(vec)
        p = self.field.characteristic
        rows = self._rows
        for pivot in [j for j in v if j in rows]:
            c = v[pivot]
            for j, e in rows[pivot].items():
                x = v.get(j, 0) - c * e
                if p:
                    x %= p
                elif type(x) is not int and x.denominator == 1:
                    x = x.numerator
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
        """Normalise a reduced row and back-substitute it into the others.
        Over Q an entry that comes out an integral `Fraction` is stored
        as its `int`."""
        f = self.field
        p = f.characteristic
        inv = f.inv(row[pivot])
        if p:
            row = {j: e * inv % p for j, e in row.items()}
        else:
            row = {j: x if type(x := e * inv) is int or x.denominator != 1 else x.numerator
                   for j, e in row.items()}
        items = list(row.items())
        for other in self._rows.values():
            c = other.get(pivot)
            if c is None:
                continue
            for j, e in items:
                x = other.get(j, 0) - c * e
                if p:
                    x %= p
                elif type(x) is not int and x.denominator == 1:
                    x = x.numerator
                if x:
                    other[j] = x
                else:
                    del other[j]
        insort(self.pivots, pivot)
        self._rows[pivot] = row

    def dim(self):
        return len(self.pivots)

    def basis_pairs(self):
        """The reduced basis rows as sorted (column, entry) pairs, in
        pivot order."""
        return [sorted(self._rows[pivot].items()) for pivot in self.pivots]

    def basis_matrix(self):
        """Rows = canonical basis (already rref by construction)."""
        return Matrix.from_pairs(self.field, self.basis_pairs(), self.width)

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
    there: the remainder's pairs, each column renamed by its position
    in ``kept``.  The span must not grow afterwards.
    """

    def __init__(self, span):
        self.span = span
        pivots = set(span.pivots)
        self.kept = [j for j in range(span.width) if j not in pivots]
        self._position = {j: k for k, j in enumerate(self.kept)}

    @property
    def dim(self):
        return len(self.kept)

    def project(self, vec):
        """The class of a vector of length ``span.width``, as a vector
        of length ``dim`` in the kept coordinates."""
        red = self.span._reduce(vec)
        at = self._position
        return [(at[j], red[j]) for j in sorted(red)]


class Preimages:
    """Preimages u with u·M = v under one matrix M, factored once.

    The rows [Mᵣ | eᵣ] are reduced into one echelon span.  Reducing
    [v | 0] by it leaves [v − u·M | −u] for the combination u of rows
    it subtracted, so v has a preimage exactly when the first part
    comes out zero, and then u is the negated second part, its columns
    shifted back by ``width``: ``of`` returns a u with u·M = v exactly,
    or raises.  A vector v has the same pairs as [v | 0], so it is
    reduced as it is.  With independent rows of M the preimage is
    unique, so ``of(u·M) == u``.  ``inverse`` stacks the preimages of
    the unit rows: X with X·M = I, which is M⁻¹ for an invertible M, and
    raises when the rows of M do not span.
    """

    def __init__(self, mat):
        f = mat.field
        self.field = f
        self.width = mat.ncols
        self.span = SpanBuilder(f, mat.ncols + mat.nrows)
        one = f.one()
        for r, row in enumerate(mat.pairs):
            self.span.add(row + [(mat.ncols + r, one)])

    def of(self, v):
        """A u with u·M = v, for a vector v of length ``width``, as a
        vector of length nrows; raises when there is none."""
        width = self.width
        _check_vector(v, width)
        red = self.span._reduce(v)
        if any(j < width for j in red):
            raise SphertwistError("vector has no preimage")
        neg = self.field.neg
        return [(j - width, neg(red[j])) for j in sorted(red)]

    def inverse(self):
        one = self.field.one()
        return Matrix.from_pairs(
            self.field,
            [self.of([(j, one)]) for j in range(self.width)],
            self.span.width - self.width,
        )
