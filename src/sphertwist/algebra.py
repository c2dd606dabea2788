"""Finite-dimensional associative algebras over exact fields.

An algebra is its table of structure constants, stored sparse:
``table[i][j]`` is the vector of ``b_i * b_j``, the (t, c) pairs of its
nonzero coordinates sorted by t (the vector form of `exactlin`).  Its
elements (the unit, the idempotent tags, the arguments and values of
``mul_vec``) are vectors in the same form.  The algebras appearing in
practice (path algebras, endomorphism algebras and their quotients)
have very few nonzero structure constants, so every routine that makes
an algebra writes the pairs directly and every reader (products,
multiplication matrices, trace forms, the checks of surjections and
modules) walks them.  Dense input enters only through
`from_structure_constants`.
Construction runs the full battery of checks (associativity on every
basis triple, two-sided unit law, the tags), so a value of type
:class:`Algebra` is trusted everywhere else in the package.  The one
exception is `opposite`, whose audit follows from that of its source.

Quotients by two-sided ideals produce a :class:`SurjectionData` — the
surjection is the central object the rest of the package revolves
around.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .errors import (
    BadUnit,
    FieldMismatch,
    InfiniteDimensional,
    MalformedRelation,
    NonAssociative,
    NotAnIdeal,
    NotSplit,
    ShapeError,
    SphertwistError,
    UnsupportedCharacteristic,
)
from .exactlin import (
    QQ,
    Matrix,
    SpanBuilder,
    SpanQuotient,
    kernel_basis,
    rank,
    _canonical,
    _check_vector,
    combine,
    product_residual,
    solve,
)


class Algebra:
    """Associative unital algebra with a distinguished basis.

    ``table`` is the sparse table of structure constants: a d×d array of
    vectors, lists of (t, c) pairs with 0 ≤ t < d strictly increasing.
    The ``unit`` and each vector of the ``idempotents`` tags, a list of
    (role, vector) pairs, are read the same way: only the entries given
    are coerced into the field, and those that coerce to zero are
    dropped, so equal algebras have equal tables, units and tags.  A
    table row of the wrong length, an entry that is not a pair (a dense
    vector, say) or an index out of range, unsorted or repeated raises
    ShapeError.  ``validate=False`` skips the audit of `_validate`; only
    a builder that proves the audit from one already passed (`opposite`)
    passes it.
    """

    def __init__(self, field, table, unit, basis_labels=None, idempotents=None,
                 validate=True):
        self.field = field
        self.dim = d = len(table)
        coerce = field.coerce
        try:
            self.table = []
            for row in table:
                if len(row) != d:
                    raise ShapeError("table row of length %d, dim %d" % (len(row), d))
                self.table.append([_read_vector(coerce, vec, d, "table") for vec in row])
            self.unit = _read_vector(coerce, unit, d, "unit")
            self.idempotents = (
                [(role, _read_vector(coerce, vec, d, "tag")) for role, vec in idempotents]
                if idempotents
                else None
            )
        except TypeError as exc:
            raise ShapeError(
                "table entries, unit and tags must be (index, coefficient) pairs"
            ) from exc
        if basis_labels is None:
            basis_labels = ["b%d" % i for i in range(self.dim)]
        self.basis_labels = list(basis_labels)
        # the span of the non-trivial paths, recorded by `from_quiver` as
        # basis vectors; `radical` takes it once certified
        self._arrow_ideal = None
        # per-algebra caches: of this module ...
        self._radical_cache = None
        self._opposite_cache = None
        self._idempotent_cache = None
        # ... of the modules layer ...
        self._regular_module_cache = None
        self._coregular_module_cache = None
        self._generator_cache = None
        self._simple_modules_cache = None
        self._piece_cache = {}
        # ⊕ eₖ·A of `modules._piece_sum`, keyed by the tuple of the eₖ as
        # tuples of pairs; the source of every cover is this shared
        # object, and it carries its record
        self._piece_sum_cache = {}
        # ... and of the frobenius layer
        self._selfinj_cache = None
        self._nakayama_cache = None
        if validate:
            self._validate()

    # -- construction-time checks

    def _validate(self):
        d, f = self.dim, self.field
        left, right = self._mult_rows(self.unit, True), self._mult_rows(self.unit, False)
        one = f.one()
        for i in range(d):
            ei = [(i, one)]
            if left[i] != ei or right[i] != ei:
                raise BadUnit("unit law fails on basis element %d" % i, witness=i)
        # associativity is Lᵢ·Rₖ = Rₖ·Lᵢ for left multiplication by bᵢ
        # (row t = bᵢbₜ) and right multiplication by bₖ (row t = bₜbₖ):
        # row j of each side is (bᵢbⱼ)bₖ and bᵢ(bⱼbₖ).  Each pair (i, k)
        # is one sparse residual, which names its first failing j; the
        # least (j, k) so named is the first failing triple in (i, j, k)
        # order, the witness of the triple-by-triple check
        p = f.characteristic
        table = self.table
        columns = [[row[k] for row in table] for k in range(d)]
        for i, left in enumerate(table):
            failing = [
                (j, k) for k, right in enumerate(columns)
                if (j := product_residual(left, right, right, left, p)) is not None
            ]
            if failing:
                j, k = min(failing)
                raise NonAssociative(
                    "associativity fails on basis triple (%d,%d,%d)" % (i, j, k),
                    witness=(i, j, k),
                )
        if self.idempotents:
            for a, (role_a, va) in enumerate(self.idempotents):
                if self.mul_vec(va, va) != va:
                    raise SphertwistError("tagged element %r is not idempotent" % role_a)
                for role_b, vb in self.idempotents[a + 1 :]:
                    if self.mul_vec(va, vb):
                        raise SphertwistError(
                            "tagged idempotents %r, %r not orthogonal" % (role_a, role_b)
                        )
                    if self.mul_vec(vb, va):
                        raise SphertwistError(
                            "tagged idempotents %r, %r not orthogonal" % (role_b, role_a)
                        )

    # -- coordinate arithmetic

    def basis_vector(self, i):
        return [(i, self.field.one())]

    def mul_vec(self, x, y):
        """The vector x·y: the pairs of x against those of y over the
        table, summed in a dict and reduced modulo p once at the end."""
        d = self.dim
        _check_vector(x, d)
        _check_vector(y, d)
        acc = {}
        get = acc.get
        table = self.table
        for i, xi in x:
            row = table[i]
            for j, yj in y:
                c = xi * yj
                for t, s in row[j]:
                    acc[t] = get(t, 0) + c * s
        return _canonical(acc, self.field.characteristic)

    def left_mult_matrix(self, x):
        """Matrix of v ↦ x·v on row vectors: row i is x·bᵢ = Σₖ xₖ·bₖbᵢ."""
        return Matrix.from_pairs(self.field, self._mult_rows(x, True), self.dim)

    def right_mult_matrix(self, x):
        """Matrix of v ↦ v·x on row vectors: row i is bᵢ·x = Σₖ xₖ·bᵢbₖ."""
        return Matrix.from_pairs(self.field, self._mult_rows(x, False), self.dim)

    def _mult_rows(self, x, left):
        """The vectors of the rows i = Σₖ xₖ·(bₖbᵢ if left else bᵢbₖ) for
        a vector x, summed over its pairs and the pairs of row k (column
        k) of the table.  For a basis vector x = bₖ the rows are those
        pairs themselves, and for x = 0 they are empty."""
        _check_vector(x, self.dim)
        p = self.field.characteristic
        products = [
            self.table[k] if left else [row[k] for row in self.table]
            for k, _ in x
        ]
        if len(x) == 1 and x[0][1] == 1:
            return list(products[0])
        terms = [(xk, column) for (_, xk), column in zip(x, products)]
        return [
            combine([(xk, column[i]) for xk, column in terms], p) for i in range(self.dim)
        ]

    def is_idempotent(self, x):
        return self.mul_vec(x, x) == x

    def __repr__(self):
        return "Algebra(dim=%d over %r)" % (self.dim, self.field)


def _read_vector(coerce, pairs, d, what):
    """The vector of the given (index, entry) pairs: each entry coerced
    into the field and the zeros dropped.  An index outside [0, d),
    unsorted or repeated raises ShapeError."""
    vec, last = [], -1
    for t, c in pairs:
        if not 0 <= t < d:
            raise ShapeError("%s index %r outside [0, %d)" % (what, t, d))
        if t <= last:
            raise ShapeError("%s indices unsorted or repeated" % what)
        last = t
        c = coerce(c)
        if c:
            vec.append((t, c))
    return vec


def from_structure_constants(field, mult, unit, basis_labels=None, idempotents=None):
    """Validated algebra from dense input, the one reader of dense vectors:
    ``mult[i][j]`` is the coordinates of bᵢ·bⱼ, and the unit and the
    tagged vectors are dense too.  Each goes to `Algebra` as its
    enumerated pairs; a vector of the wrong length raises."""
    d = len(mult)
    if any(len(row) != d or any(len(vec) != d for vec in row) for row in mult):
        raise SphertwistError("multiplication table shape mismatch")
    if len(unit) != d:
        raise BadUnit("unit vector length %d != dim %d" % (len(unit), d))
    if any(len(vec) != d for _, vec in idempotents or ()):
        raise ShapeError("tagged vector of the wrong length, dim %d" % d)
    table = [[list(enumerate(vec)) for vec in row] for row in mult]
    tags = [(role, list(enumerate(vec))) for role, vec in idempotents or ()]
    return Algebra(
        field, table, list(enumerate(unit)), basis_labels=basis_labels,
        idempotents=tags or None,
    )


def _gram(a, form):
    """The Gram matrix (λ(bᵢbⱼ))ᵢⱼ of the linear form λ whose value
    λ(bₜ) is the entry at t of the vector ``form``, read off the table as
    Σₜ cᵢⱼᵗ·λ(bₜ)."""
    f = a.field
    p = f.characteristic
    get = dict(form).get
    rows = [
        [sum(get(t, 0) * c for t, c in vec) for vec in products]
        for products in a.table
    ]
    if p:
        rows = [[x % p for x in row] for row in rows]
    return Matrix(f, rows, a.dim)


class SurjectionData:
    """A surjective algebra map p : source → target with its kernel.

    ``matrix`` acts on coordinate rows: v ↦ v·matrix.  The audit checks
    that the map is a unital, multiplicative surjection.  The kernel is
    computed, not given: ``kernel_basis`` holds the v with v·matrix = 0,
    the null space of the transpose, as the canonical columns
    `exactlin.kernel_basis` gives, which depend on the kernel alone.  Its
    dimension is dim source − rank, so the map is onto exactly when it
    has dim source − dim target columns.
    """

    def __init__(self, source, target, matrix):
        self.source = source
        self.target = target
        self.matrix = matrix
        self._check()

    def _check(self):
        a, b, f = self.source, self.target, self.source.field
        if f != b.field:
            raise FieldMismatch("surjection endpoints over different fields")
        p = self.matrix
        if p.nrows != a.dim or p.ncols != b.dim:
            raise SphertwistError("surjection matrix shape mismatch")
        if p.apply_to_row(a.unit) != b.unit:
            raise SphertwistError("surjection does not preserve the unit")
        # p(bᵢbⱼ) = Σₜ cᵢⱼᵗ·p(bₜ) and p(bᵢ)p(bⱼ) = Σₛ,ᵤ p(bᵢ)ₛp(bⱼ)ᵤ·bₛbᵤ:
        # one residual row per pair, against the rows of p and the rows
        # of the target's table (row s·dim + u = bₛbᵤ), in pair order
        d, db = a.dim, b.dim
        images = p.pairs
        lhs = (vec for row in a.table for vec in row)
        rhs = (
            [(s * db + u, x * y) for s, x in images[i] for u, y in images[j]]
            for i in range(d) for j in range(d)
        )
        flat = [vec for row in b.table for vec in row]
        bad = product_residual(lhs, images, rhs, flat, f.characteristic)
        if bad is not None:
            raise SphertwistError(
                "surjection is not multiplicative on basis pair (%d,%d)"
                % divmod(bad, d)
            )
        self.kernel_basis = kernel_basis(p.transpose())
        if self.kernel_basis.ncols != d - db:
            raise SphertwistError("map is not surjective")

    def apply(self, vec):
        return self.matrix.apply_to_row(vec)


def quotient_surjection(a, ideal):
    """Quotient by a two-sided ideal; returns the surjection data.

    ``ideal`` is a list of vectors, or a Matrix whose columns are the
    vectors.  Their span is audited first (`_ideal_escape`): the first
    product bᵢ·g or g·bᵢ that leaves it raises NotAnIdeal with the
    witness (i, g, product).

    The target records the nonzero images of the source's
    ``idempotents`` tags, under the same roles.  An algebra map sends
    idempotents to idempotents, orthogonal pairs to orthogonal pairs
    and the unit to the unit, so tags that sum to 1 in the source have
    images that sum to 1 in the target, and `lift_idempotents` of the
    target starts from them instead of splitting it from its unit.  A
    zero image is dropped: it is the unit of no corner.
    """
    f = a.field
    if isinstance(ideal, Matrix):
        if ideal.nrows != a.dim:
            raise ShapeError("ideal columns of length %d, dim %d" % (ideal.nrows, a.dim))
        gens = ideal.transpose().pairs
    else:
        gens = ideal
    span = SpanBuilder(f, a.dim)
    for g in gens:
        span.add(g)
    escape = _ideal_escape(a, span)
    if escape is not None:
        i, g, product, left = escape
        raise NotAnIdeal(
            ("b%d · ideal element leaves the span" if left
             else "ideal element · b%d leaves the span") % i,
            witness=(i, g, product),
        )
    q = SpanQuotient(span)
    table = [[q.project(a.table[i][j]) for j in q.kept] for i in q.kept]
    unit = q.project(a.unit)
    labels = [a.basis_labels[i] for i in q.kept]
    images = [(role, q.project(v)) for role, v in a.idempotents or []]
    tags = [(role, v) for role, v in images if v]
    target = Algebra(f, table, unit, basis_labels=labels, idempotents=tags)
    pmat = Matrix.from_pairs(
        f, [q.project(a.basis_vector(i)) for i in range(a.dim)], q.dim
    )
    return SurjectionData(a, target, pmat)


def _ideal_escape(a, span):
    """The first product that leaves the span, as (i, g, product, left),
    or None when the span is a two-sided ideal.

    The canonical rows g of the span are taken in order, and for each the
    basis elements bᵢ in order, bᵢ·g (``left``) before g·bᵢ; this is the
    order of multiplying by basis vectors with `Algebra.mul_vec`, and g
    and the product are vectors as that gives them.  The products are
    read off the sparse table as sums Σⱼ gⱼ·(bᵢbⱼ) and Σⱼ gⱼ·(bⱼbᵢ) over
    the pairs of g.
    """
    p = a.field.characteristic
    table = a.table
    for g in span.basis_pairs():
        for i in range(a.dim):
            for left in (True, False):
                product = combine(
                    [(c, table[i][j] if left else table[j][i]) for j, c in g], p
                )
                if not span.contains(product):
                    return i, g, product, left
    return None


def radical(a):
    """Basis (canonical columns) of the Jacobson radical.

    It is the one radical of the package, from one of three sources:
    - an algebra presented by a quiver takes the arrow ideal it recorded
      once `_presented_radical` has certified it, in every
      characteristic;
    - an opposite algebra that knows its radical lends it (below);
    - otherwise the trace form of the left regular representation is
      used, valid in characteristic 0 or p > dim (UnsupportedCharacteristic
      otherwise); the computed span is verified nilpotent by powering it
      until it dies.
    `_split_corner` reads the locality of every corner e·a·e off it.

    An opposite algebra (cached in pairs with `opposite`) that already
    knows its radical lends it: the Jacobson radical is the largest
    nilpotent two-sided ideal, and a subspace is a nilpotent two-sided
    ideal of a exactly when it is one of aᵒᵖ (same space, products
    reversed, so the powers of the ideal are the same subspaces).  The
    canonical basis depends only on the subspace, so the reused matrix is
    the one this function would compute.
    """
    if a._radical_cache is not None:
        return a._radical_cache
    op = a._opposite_cache
    if op is not None and op._radical_cache is not None:
        a._radical_cache = op._radical_cache
        return a._radical_cache
    rad = _presented_radical(a)
    if rad is None:
        rad = _trace_form_radical(a)
    a._radical_cache = rad
    return rad


def _presented_radical(a):
    """The canonical columns of the recorded arrow ideal J when it is
    certified to be the radical, else None.

    `from_quiver` records J, the span of the basis paths of length ≥ 1,
    and tags the vertex idempotents e_v.  Four checks make J = rad A in
    any characteristic:
    - J is a two-sided ideal (`_ideal_escape` finds no product that
      leaves it);
    - J is nilpotent: its powers reach 0 (`_is_nilpotent`);
    - A = span(e_v) ⊕ J: the e_v and a basis of J are dim A independent
      vectors;
    - the e_v are orthogonal idempotents summing to 1.  The constructor
      has checked the tags for idempotence and orthogonality, and the
      sum follows from the checks above: in A/J the classes ē_v are a
      basis, so 1̄ = Σ c_v·ē_v, and ē_w = ē_w·1̄ = c_w·ē_w gives c_w = 1.
      So 1 − Σ e_v lies in J; it is idempotent, and a nilpotent
      idempotent is 0.
    A nilpotent ideal lies in the radical, so J ⊆ rad A.  A/J has the
    basis of the classes ē_v, with ē_v·ē_w = ē_v when v = w and 0
    otherwise, so A/J ≅ kⁿ is semisimple and rad A ⊆ J.  No trace form
    and no bound on the characteristic enters.  The columns are the rref
    basis of J, the canonical basis `kernel_basis` gives the trace-form
    route for the same subspace.

    The certificate also makes each vertex tag primitive: e_v·A·e_v =
    k·e_v ⊕ e_v·J·e_v, so e_v·rad(A)·e_v has codimension 1 in the corner,
    which is the local-corner test of `_split_corner`.  So
    `lift_idempotents` keeps the tags whole, in any characteristic, and
    runs no corner search on them.
    """
    if a._arrow_ideal is None or not a.idempotents:
        return None
    f, d = a.field, a.dim
    span = SpanBuilder(f, d)
    for v in a._arrow_ideal:
        span.add(v)
    if _ideal_escape(a, span) is not None:
        return None
    rad = span.basis_matrix().transpose()
    if not _is_nilpotent(a, rad.transpose().pairs):
        return None
    for _, v in a.idempotents:
        if not span.add(v):
            return None
    return rad if span.dim() == d else None


def _is_nilpotent(a, base):
    """Whether the span of ``base`` has a power 0: the powers J, J², …
    are spans, and a nonzero one is strictly smaller than the one before
    it while J is nilpotent, so dim A + 1 steps decide.  The products
    u·v that span the next power are the rows of U·R_v, for the rows U
    of the current power and the right multiplication R_v by each v of
    ``base``."""
    f, d = a.field, a.dim
    rights = [a.right_mult_matrix(v) for v in base]
    current = Matrix.from_pairs(f, base, d)
    steps = 1
    while current.nrows:
        if steps > d:
            return False
        nxt = SpanBuilder(f, d)
        for r in rights:
            for row in current.mul(r).pairs:
                if row:
                    nxt.add(row)
        current = nxt.basis_matrix()
        steps += 1
    return True


def _trace_form_radical(a):
    """The radical as the kernel of the trace form of the left regular
    representation, in characteristic 0 or p > dim, audited nilpotent.

    With Lₓ the left multiplication by x and bᵢbⱼ = Σₜ cᵢⱼᵗ·bₜ, the form
    is linear in the product: tr(Lᵢ·Lⱼ) = Σₜ cᵢⱼᵗ·tr(Lₜ).  So its Gram
    matrix is `_gram` of the linear form λ(bₜ) = tr(Lₜ), and tr(Lₜ) =
    Σᵢ (coefficient of bᵢ in bₜ·bᵢ) is read off the table; no
    multiplication matrix is built.
    """
    f = a.field
    p = f.characteristic
    if p != 0 and p <= a.dim:
        raise UnsupportedCharacteristic(
            "trace-form radical needs char 0 or p > dim; got p=%d, dim=%d"
            % (p, a.dim)
        )
    traces = {
        t: sum(c for i, vec in enumerate(row) for s, c in vec if s == i)
        for t, row in enumerate(a.table)
    }
    rad = kernel_basis(_gram(a, _canonical(traces, p)))
    if not _is_nilpotent(a, rad.transpose().pairs):
        raise SphertwistError("radical candidate is not nilpotent")
    return rad


def opposite(a):
    """Same space, reversed multiplication.

    Cached both ways, so opposite(opposite(a)) is the original object;
    dualizing a module twice then lands over the algebra it started on.

    The table is the transpose of a's, x∘y = y·x, and a passed the audit
    of `Algebra._validate`, so it is not run again:
    - associativity: (x∘y)∘z = z·(y·x) = (z·y)·x = x∘(y∘z);
    - the unit: 1∘x = x·1 = x and x∘1 = 1·x = x, for the same vector 1;
    - the tags, the same vectors: e∘e = e·e = e, and e∘f = f·e and
      f∘e = e·f are both 0, since a checked both orders.
    The tests run the full audit on the opposites.
    """
    if a._opposite_cache is not None:
        return a._opposite_cache
    table = [[row[i] for row in a.table] for i in range(a.dim)]
    idem = a.idempotents
    o = Algebra(
        a.field,
        table,
        a.unit,
        basis_labels=[l + "^op" for l in a.basis_labels],
        idempotents=idem,
        validate=False,
    )
    # the arrow ideal is a subspace, the same in aᵒᵖ, where `radical`
    # certifies it again
    o._arrow_ideal = a._arrow_ideal
    a._opposite_cache = o
    o._opposite_cache = a
    return o


def enveloping(a, b):
    """The algebra b ⊗ aᵒᵖ; its right modules are a-b-bimodules.

    Basis element (j,i) ↦ flat index j·dim(a)+i stands for b_j ⊗ a_iᵒᵖ,
    and a bimodule m becomes a right module via m·(b_j ⊗ a_iᵒᵖ) = a_i·m·b_j.

    Nothing in the package builds it: bimodules are two commuting action
    families (`homology.Bimodule`) and the tensor square comes from a
    one-sided resolution.  It stays as the oracle of the tests, which
    compare bimodules as modules over it, and as a target of the
    benchmark's tracer.  Its dimension is dim(a)·dim(b), and its radical
    needs a characteristic above that.

    The primitive idempotents of the product are seeded from those of
    the factors: a tensor of two primitives has a local corner (radicals
    are nilpotent and the residue fields are the base field on both
    sides), so the pairs are already a complete orthogonal primitive
    set.
    """
    if a.field != b.field:
        raise FieldMismatch("enveloping factors over different fields")
    f = a.field
    da, db = a.dim, b.dim
    # (b_j ⊗ a_iᵒᵖ)(b_l ⊗ a_kᵒᵖ) = (b_j b_l) ⊗ (a_k a_i)ᵒᵖ; both pair lists
    # are sorted, so the flat columns m·dim(a) + n come out sorted
    table = [
        [
            [(m * da + n, cb * ca) for m, cb in b.table[j][l] for n, ca in a.table[k][i]]
            for l in range(db) for k in range(da)
        ]
        for j in range(db) for i in range(da)
    ]
    def tensor(y, x):
        # a pure tensor y ⊗ x has the coordinates yₘ·xₙ at m·dim(a) + n
        return [(m * da + n, f.mul(cb, ca)) for m, cb in y for n, ca in x]

    unit = tensor(b.unit, a.unit)
    labels = [
        "%s(x)%s" % (b.basis_labels[j], a.basis_labels[i])
        for j in range(db)
        for i in range(da)
    ]
    env = Algebra(f, table, unit, basis_labels=labels)
    prims = [
        tensor(fb, ea) for fb in lift_idempotents(b) for ea in lift_idempotents(a)
    ]
    for e in prims:
        if env.mul_vec(e, e) != e:
            raise SphertwistError("seeded tensor idempotent fails to square")
    if combine([(1, e) for e in prims], f.characteristic) != env.unit:
        raise SphertwistError("seeded tensor idempotents do not sum to 1")
    for i, e in enumerate(prims):
        for e2 in prims[i + 1 :]:
            if env.mul_vec(e, e2) or env.mul_vec(e2, e):
                raise SphertwistError("seeded tensor idempotents not orthogonal")
    env._idempotent_cache = [list(e) for e in prims]
    return env


# ---------------------------------------------------------------------------
# quiver presentations


class _Path:
    __slots__ = ("src", "tgt", "arrows")

    def __init__(self, src, tgt, arrows):
        self.src = src
        self.tgt = tgt
        self.arrows = tuple(arrows)

    def __len__(self):
        return len(self.arrows)

    def key(self):
        return (self.src, self.tgt, self.arrows)

    def label(self, vertex_labels):
        if not self.arrows:
            return "e_%s" % vertex_labels[self.src]
        return "*".join(self.arrows)


def from_quiver(vertices, arrows, relations, max_path_length=64, field=None):
    """Path algebra of a quiver modulo relations, if finite-dimensional.

    ``vertices``: list of labels.  ``arrows``: (name, source, target)
    triples referring to vertex labels.  ``relations``: each a list of
    (coefficient, [arrow names]) terms; all terms of one relation must be
    parallel paths of length ≥ 1.  Paths compose left to right.  Basis
    enumeration stops at ``max_path_length``; failure to stabilize below
    the cap raises InfiniteDimensional.
    """
    if field is None:
        field = QQ
    f = field
    vlabels = [str(v) for v in vertices]
    vindex = {v: i for i, v in enumerate(vlabels)}
    if len(vindex) != len(vlabels):
        raise MalformedRelation("duplicate vertex labels")
    arrow_map = {}
    for name, s, t in arrows:
        if name in arrow_map or name in vindex:
            raise MalformedRelation("duplicate arrow name %r" % name)
        if str(s) not in vindex or str(t) not in vindex:
            raise MalformedRelation("arrow %r references unknown vertex" % name)
        arrow_map[name] = (vindex[str(s)], vindex[str(t)])

    def path_of(names):
        if not names:
            raise MalformedRelation("relations may not involve trivial paths")
        if names[0] not in arrow_map:
            raise MalformedRelation("unknown arrow %r" % names[0])
        src, at = arrow_map[names[0]]
        for nm in names[1:]:
            if nm not in arrow_map:
                raise MalformedRelation("unknown arrow %r" % nm)
            s, t = arrow_map[nm]
            if s != at:
                raise MalformedRelation("path %r does not compose" % (list(names),))
            at = t
        return _Path(src, at, names)

    rels = []
    max_rel_len = 1
    for rel in relations:
        if not rel:
            raise MalformedRelation("empty relation")
        terms = [(f.coerce(c), path_of(list(names))) for c, names in rel]
        s0, t0 = terms[0][1].src, terms[0][1].tgt
        for _, p in terms[1:]:
            if (p.src, p.tgt) != (s0, t0):
                raise MalformedRelation(
                    "relation terms not parallel", witness=[list(p.arrows) for _, p in terms]
                )
        max_rel_len = max(max_rel_len, max(len(p) for _, p in terms))
        rels.append(terms)

    # enumerate paths by length, watching for stabilization
    paths_by_len = [[_Path(i, i, ()) for i in range(len(vlabels))]]
    arrow_items = sorted(arrow_map.items())

    def extend(plist):
        out = []
        for p in plist:
            for name, (s, t) in arrow_items:
                if s == p.tgt:
                    out.append(_Path(p.src, t, p.arrows + (name,)))
        return out

    stab = None
    L = 0
    while True:
        L += 1
        if L > max_path_length:
            raise InfiniteDimensional(
                "no finite basis below path length %d" % max_path_length
            )
        paths_by_len.append(extend(paths_by_len[-1]))
        if sum(len(pl) for pl in paths_by_len) > 200000:
            raise InfiniteDimensional("path enumeration exploded")
        if L < max_rel_len:
            continue
        if _stabilized(f, paths_by_len, rels, arrow_items, L):
            stab = L
            break

    # working window: products of basis paths have length < 2·stab
    window = 2 * stab
    while len(paths_by_len) - 1 < window:
        paths_by_len.append(extend(paths_by_len[-1]))
    all_paths, order, coord_of = _path_coordinates(paths_by_len)
    width = len(all_paths)
    ideal = _relation_closure(f, rels, arrow_items, coord_of, width, window)

    pivot_set = set(ideal.pivots)
    basis_paths = [
        p for p in all_paths if coord_of[p.key()] not in pivot_set and len(p) < stab
    ]
    one = f.one()
    # sanity: every enumerated path of length ≥ stab must be reducible
    for p in all_paths:
        if len(p) >= stab and coord_of[p.key()] not in pivot_set:
            reduced = ideal._reduce([(coord_of[p.key()], one)])
            if any(len(all_paths[order[pos]]) >= stab for pos in reduced):
                raise InfiniteDimensional(
                    "path of length %d fails to reduce below the stabilization length"
                    % len(p)
                )
    index_of = {p.key(): i for i, p in enumerate(basis_paths)}

    def normal_coords(path):
        v = ideal._reduce([(coord_of[path.key()], one)])
        return sorted((index_of[all_paths[order[pos]].key()], c) for pos, c in v.items())

    # a product of paths that do not compose is 0
    table = [
        [
            normal_coords(_Path(pi.src, pj.tgt, pi.arrows + pj.arrows))
            if pi.tgt == pj.src else []
            for pj in basis_paths
        ]
        for pi in basis_paths
    ]
    vertex_at = [index_of[_Path(i, i, ()).key()] for i in range(len(vlabels))]
    unit = sorted((k, one) for k in vertex_at)
    idems = [("vertex:%s" % v, [(k, one)]) for v, k in zip(vlabels, vertex_at)]
    labels = [p.label(vlabels) for p in basis_paths]
    alg = Algebra(f, table, unit, basis_labels=labels, idempotents=idems)
    alg._arrow_ideal = [[(index_of[p.key()], one)] for p in basis_paths if p.arrows]
    return alg


def _path_coordinates(paths_by_len):
    """(all paths, order, coordinate of each path key).

    The coordinate order is reversed, longest paths first, so ideal
    pivots sit on long paths and normal forms prefer short ones:
    ``order[pos]`` is the index in ``all_paths`` of the path at
    coordinate pos.
    """
    all_paths = [p for pl in paths_by_len for p in pl]
    order = sorted(range(len(all_paths)), key=lambda i: i, reverse=True)
    coord_of = {all_paths[i].key(): pos for pos, i in enumerate(order)}
    return all_paths, order, coord_of


def _path_vector(f, coord_of, terms):
    """The vector of a linear combination of paths, given as (c, path)."""
    v = {}
    for c, p in terms:
        pos = coord_of[p.key()]
        v[pos] = f.add(v.get(pos, f.zero()), c)
    return _canonical(v, f.characteristic)


def _relation_closure(f, rels, arrow_items, coord_of, width, max_len):
    """The span of the relations and of every relation reached from them
    by left and right arrow steps, keeping paths of length ≤ max_len.

    A stepped relation enters the frontier only when it enlarged the
    span; a dependent one adds nothing its predecessors' steps would
    not.  ``arrow_items`` is the sorted list of (name, (source, target)).
    """
    span = SpanBuilder(f, width)
    frontier = [
        terms for terms in rels if span.add(_path_vector(f, coord_of, terms))
    ]
    while frontier:
        nxt = []
        for terms in frontier:
            for name, (s, t) in arrow_items:
                left = [
                    (c, _Path(s, p.tgt, (name,) + p.arrows))
                    for c, p in terms
                    if p.src == t
                ]
                right = [
                    (c, _Path(p.src, t, p.arrows + (name,)))
                    for c, p in terms
                    if p.tgt == s
                ]
                for stepped in (left, right):
                    if (
                        stepped
                        and all(len(p) <= max_len for _, p in stepped)
                        and span.add(_path_vector(f, coord_of, stepped))
                    ):
                        nxt.append(stepped)
        frontier = nxt
    return span


def _stabilized(f, paths_by_len, rels, arrow_items, L):
    """All length-L paths congruent to shorter ones modulo the ideal slice."""
    all_paths, _, coord_of = _path_coordinates(paths_by_len)
    width = len(all_paths)
    if any(max(len(p) for _, p in terms) > L for terms in rels):
        return False
    span = _relation_closure(f, rels, arrow_items, coord_of, width, L)
    top = {coord_of[q.key()] for q in paths_by_len[L]}
    one = f.one()
    return all(
        top.isdisjoint(span._reduce([(coord_of[p.key()], one)]))
        for p in paths_by_len[L]
    )


# ---------------------------------------------------------------------------
# polynomials (internal helpers for idempotent lifting)


def _poly_trim(f, p):
    while p and f.is_zero(p[-1]):
        p.pop()
    return p


def _poly_eval(f, p, x):
    acc = f.zero()
    for c in reversed(p):
        acc = f.add(f.mul(acc, x), c)
    return acc


def _poly_mul(f, p, q):
    if not p or not q:
        return []
    out = [f.zero()] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if f.is_zero(a):
            continue
        for j, b in enumerate(q):
            out[i + j] = f.add(out[i + j], f.mul(a, b))
    return _poly_trim(f, out)


def _poly_divmod(f, p, q):
    p = list(p)
    out = [f.zero()] * max(0, len(p) - len(q) + 1)
    inv = f.inv(q[-1])
    while len(p) >= len(q) and p:
        c = f.mul(p[-1], inv)
        d = len(p) - len(q)
        out[d] = c
        for i, b in enumerate(q):
            p[d + i] = f.sub(p[d + i], f.mul(c, b))
        _poly_trim(f, p)
    return _poly_trim(f, out), p


def _poly_ext_gcd(f, p, q):
    """(g, u, v) with u·p + v·q = g, g monic."""
    r0, r1 = list(p), list(q)
    s0, s1 = [f.one()], []
    t0, t1 = [], [f.one()]
    while r1:
        qt, r = _poly_divmod(f, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_sub(f, s0, _poly_mul(f, qt, s1))
        t0, t1 = t1, _poly_sub(f, t0, _poly_mul(f, qt, t1))
    if r0:
        inv = f.inv(r0[-1])
        r0 = [f.mul(inv, c) for c in r0]
        s0 = [f.mul(inv, c) for c in s0]
        t0 = [f.mul(inv, c) for c in t0]
    return r0, s0, t0


def _poly_sub(f, p, q):
    out = [f.zero()] * max(len(p), len(q))
    for i, c in enumerate(p):
        out[i] = c
    for i, c in enumerate(q):
        out[i] = f.sub(out[i], c)
    return _poly_trim(f, out)


def _matrix_min_poly(m):
    """Monic minimal polynomial of a square matrix, low-degree first."""
    f = m.field
    n = m.nrows
    powers = [Matrix.identity(f, n)]
    flat = lambda mm: [(r * n + j, e) for r, row in enumerate(mm.pairs) for j, e in row]
    while True:
        powers.append(powers[-1].mul(m))
        k = len(powers) - 1
        cols = Matrix.from_pairs(f, [flat(p) for p in powers[:k]], n * n).transpose()
        x = solve(cols, flat(powers[k]))
        if x is not None:
            coeffs = [f.zero()] * k + [f.one()]
            for j, c in x:
                coeffs[j] = f.neg(c)
            return _poly_trim(f, coeffs)


def _rational_roots(poly):
    """(roots, complete): the distinct roots in Q of a polynomial over Q,
    each in the Q element form (an int when integral, else a `Fraction`
    with denominator > 1), and whether the search was complete.

    Scaled to integer coefficients, a root p/q in lowest terms has p
    dividing the lowest nonzero coefficient and q the leading one.  The
    divisor search is cut off when either exceeds 10¹²: then only the
    root 0 (if any) is listed and ``complete`` is False.
    """
    denom_lcm = 1
    for c in poly:
        denom_lcm = denom_lcm * c.denominator // math.gcd(denom_lcm, c.denominator)
    ints = [int(c * denom_lcm) for c in poly]
    roots = []
    low = 0
    while low < len(ints) and ints[low] == 0:
        low += 1
    if low > 0:
        roots.append(0)
    if low >= len(ints) - 1:
        return roots, True
    a0, an = abs(ints[low]), abs(ints[-1])
    if a0 > 10**12 or an > 10**12:
        return roots, False
    seen = set()
    for p in _divisors(a0):
        for q in _divisors(an):
            for sign in (1, -1):
                cand = Fraction(sign * p, q)
                if cand.denominator == 1:
                    cand = cand.numerator
                if cand in seen:
                    continue
                seen.add(cand)
                acc = 0
                for c in reversed(poly):
                    acc = acc * cand + c
                if acc == 0:
                    roots.append(cand)
    return roots, True


def _divisors(n):
    if n == 0:
        return []
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)


def _poly_powmod(f, base, e, m):
    """base^e mod m, by repeated squaring."""
    out = [f.one()]
    base = _poly_divmod(f, base, m)[1]
    while e:
        if e & 1:
            out = _poly_divmod(f, _poly_mul(f, out, base), m)[1]
        base = _poly_divmod(f, _poly_mul(f, base, base), m)[1]
        e >>= 1
    return _poly_divmod(f, out, m)[1]


def _field_roots(f, poly):
    """(roots, complete): the distinct roots in the base field of a
    nonzero polynomial, and whether the search for them was complete.

    Over Q they come from `_rational_roots`, which may be cut off.  Over
    F_p the search is always complete, and the roots come in the
    order 0, 1, …, then p−1, p−2, ….  xᵖ − x is the product of all
    x − a over F_p, so g = gcd(poly, xᵖ − x) is the product of the
    distinct linear factors of poly; xᵖ is reduced mod poly by repeated
    squaring.  For p = 2 the two elements are tested directly; for odd
    p, g is split by `_split_linear`.
    """
    p = f.characteristic
    if p == 0:
        return _rational_roots(poly)
    if p == 2:
        return [x for x in (0, 1) if f.is_zero(_poly_eval(f, poly, x))], True
    x = [f.zero(), f.one()]
    xp = _poly_powmod(f, x, p, poly)
    roots = []
    _split_linear(f, _poly_ext_gcd(f, poly, _poly_sub(f, xp, x))[0], roots)
    return sorted(roots, key=lambda r: (r > p - r, min(r, p - r))), True


def _split_linear(f, g, out):
    """Append the roots of g, a monic product of distinct linear factors
    over F_p with p odd.

    A root r of g is a root of (x + a)^((p−1)/2) − 1 exactly when r + a
    is a nonzero square, so h = gcd(g, that polynomial) splits g unless
    it is 1 or g.  Some a in F_p always splits: for roots r ≠ s,
    Σₐ χ((r + a)(s + a)) = −1 for the quadratic character χ, so
    (p − 1)/2 of the a make exactly one of r + a, s + a a square.
    """
    if len(g) < 2:
        return
    if len(g) == 2:
        out.append(f.neg(g[0]))
        return
    p = f.characteristic
    for a in range(p):
        power = _poly_powmod(f, [f.coerce(a), f.one()], (p - 1) // 2, g)
        h = _poly_ext_gcd(f, g, _poly_sub(f, power, [f.one()]))[0]
        if 1 < len(h) < len(g):
            _split_linear(f, h, out)
            _split_linear(f, _poly_divmod(f, g, h)[0], out)
            return
    raise SphertwistError("no shift separates the roots of a split polynomial")


# ---------------------------------------------------------------------------
# idempotent lifting


def lift_idempotents(a):
    """Complete list of orthogonal primitive idempotents summing to 1.

    Recursive corner splitting (`_split_corner`): a corner e·a·e whose
    radical has codimension 1 is local, so its unit is primitive;
    otherwise an element whose minimal polynomial has a root in the
    base field with a nontrivial complementary factor gives a spectral
    idempotent that splits the corner.  If a corner of semisimple
    dimension > 1 defeats the search, the split-semisimplicity
    precondition fails and NotSplit is raised.  The zero algebra (the
    stable quotient of T = A ⊕ A, say) has the empty list: its unit is
    0, the sum of no idempotents.

    The search starts from the algebra's ``idempotents`` tags when they
    sum to the unit, and from the unit otherwise.  The constructor has
    checked that the tags are idempotent and pairwise orthogonal, so with
    their sum 1 they split A = ⊕ eᵢ·A, and a complete primitive set
    under each eᵢ is a complete primitive set of A.  Each tag is split
    in its own corner, last tag first.  The search from the unit splits
    the first basis idempotent off first and lists it last, so on the
    tags of `from_quiver`, of End(T) in `frobenius.build_context`, of its
    stable quotient (`quotient_surjection` carries tags over) and of the
    companion algebra of `spherical.tilting_audit` both starts give the
    same list in the same order (`tests/test_lift.py` compares them on
    every fixture and workload algebra, `tests/test_spherical.py` on the
    companion).  The vertex tags of a quiver algebra whose arrow ideal
    `radical` certified pass the local-corner test as they are (see
    `_presented_radical`), so they come out whole, last tag first, in
    any characteristic.  The checks below do not depend on the start:
    the elements square to themselves, are pairwise orthogonal and sum
    to the unit, and every leaf of `_split_corner` passed its
    local-corner test, so it is primitive.

    An opposite algebra (cached in pairs with `opposite`) that already
    holds its list lends it instead of a new search.  Both algebras have
    the same space and unit, and e·e, e·e' and e'·e are the same products
    read in the other order, so the list is idempotent, orthogonal and
    sums to 1 in a exactly when it does in aᵒᵖ.  The corner e·aᵒᵖ·e is
    (e·a·e)ᵒᵖ, which is local exactly when e·a·e is, so the elements are
    primitive in both.  Either list is checked here: each element
    squares to itself, the elements are pairwise orthogonal, and they
    sum to the unit.
    """
    if a._idempotent_cache is not None:
        return [list(e) for e in a._idempotent_cache]
    op = a._opposite_cache
    if op is not None and op._idempotent_cache is not None:
        result = [list(e) for e in op._idempotent_cache]
    else:
        result = []
        for e in reversed(_seed_idempotents(a)):
            _split_corner(a, e, result)
    for e in result:
        if a.mul_vec(e, e) != e:
            raise SphertwistError("lifted idempotent does not square to itself")
    if combine([(1, e) for e in result], a.field.characteristic) != a.unit:
        raise SphertwistError("lifted idempotents do not sum to 1")
    for i, e in enumerate(result):
        for e2 in result[i + 1 :]:
            if a.mul_vec(e, e2) or a.mul_vec(e2, e):
                raise SphertwistError("lifted idempotents not orthogonal")
    a._idempotent_cache = [list(e) for e in result]
    return result


def _seed_idempotents(a):
    """The nonzero ``idempotents`` tags of a when they sum to the unit,
    else [unit]."""
    tags = [list(v) for _, v in a.idempotents or [] if v]
    total = combine([(1, v) for v in tags], a.field.characteristic)
    return tags if tags and total == a.unit else [list(a.unit)]


def _split_corner(a, e, out):
    """Append to ``out`` orthogonal primitive idempotents summing to the
    idempotent e.

    The corner e·a·e is spanned by the products e·bᵢ·e.  It is local
    exactly when its radical has codimension 1 in it (the quotient is
    then the base field), and rad(e·A·e) = e·rad(A)·e (Lam, *A First
    Course in Noncommutative Rings*, GTM 131, Thm 21.10).  So the test
    reads the algebra's own `radical`: e·x·e for x = Σ xᵢ·bᵢ is
    Σ xᵢ·(e·bᵢ·e), and the radical's basis times the matrix of the
    products spans e·rad(A)·e.  A local corner has e primitive; any
    other is split by a spectral idempotent e₁ of the corner
    (`_find_corner_idempotent`) into e₁ and e − e₁, each split again.
    A corner of dimension 0 (e = 0) adds nothing, and one of dimension
    1 is k·e, local without a radical.
    """
    f = a.field
    products = [a.mul_vec(row, e) for row in a.left_mult_matrix(e).pairs]
    sb = SpanBuilder(f, a.dim)
    for v in products:
        sb.add(v)
    basis, pivots = sb.basis_pairs(), sb.pivots
    n = len(basis)
    if n == 0:
        return  # e = 0, the unit of a zero algebra: the empty family sums to it
    if n == 1:
        out.append(e)
        return
    corner = Matrix.from_pairs(f, products, a.dim)
    top = n - rank(radical(a).transpose().mul(corner))
    if top == 1:
        out.append(e)          # local corner: e is primitive
        return

    at = {q: k for k, q in enumerate(pivots)}

    def left_mat(x):
        # basis rows are rref, so coordinates sit at the pivots
        return Matrix.from_pairs(
            f, [[(at[j], y) for j, y in a.mul_vec(x, c) if j in at] for c in basis], n
        )

    e1, complete = _find_corner_idempotent(a, e, basis, left_mat)
    if e1 is None:
        raise NotSplit(
            "corner of semisimple dimension %d %s" % (top, (
                "admits no field-rational splitting" if complete else
                "was not split, but the rational root search was cut off at a "
                "coefficient above 10^12, so a splitting is not ruled out"
            )),
            witness=e,
        )
    e2 = combine([(1, e), (-1, e1)], f.characteristic)
    _split_corner(a, e1, out)
    _split_corner(a, e2, out)


def _find_corner_idempotent(a, e, basis, left_mat):
    """(e₁, complete): a nontrivial idempotent e₁ in eAe via spectral
    projectors, or None, and whether every root search run on the way
    was complete (see `_rational_roots`)."""
    f = a.field
    p = f.characteristic

    def candidates():
        # built on demand: the search almost always ends on a basis
        # element or a pairwise sum, before any random draw
        yield from basis
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                yield combine([(1, basis[i]), (1, basis[j])], p)
        rng = random.Random(91)
        for _ in range(160):
            # one coefficient per basis element, drawn in basis order
            yield combine([(f.coerce(rng.randint(-3, 3)), b) for b in basis], p)

    complete = True
    for z in candidates():
        mp = _matrix_min_poly(left_mat(z))
        if len(mp) <= 2:
            continue
        roots, searched = _field_roots(f, mp)
        complete = complete and searched
        for lam in roots:
            linear = [f.neg(lam), f.one()]
            m = 0
            rest = list(mp)
            while True:
                q, r = _poly_divmod(f, rest, linear)
                if r:
                    break
                rest = q
                m += 1
            if m == 0 or len(rest) < 2:
                continue      # need both spectral factors nontrivial
            f1 = [f.one()]
            for _ in range(m):
                f1 = _poly_mul(f, f1, linear)
            g, u, v = _poly_ext_gcd(f, f1, rest)
            if len(g) != 1:
                continue
            inv = f.inv(g[0])
            v = [f.mul(inv, c) for c in v]
            q_poly = _poly_mul(f, v, rest)   # ≡1 mod (t−λ)^m, ≡0 mod rest
            q_poly = _poly_divmod(f, q_poly, mp)[1]
            # evaluate q(z) inside the algebra, with e as the unit
            acc = []
            for c in reversed(q_poly):
                acc = combine([(1, a.mul_vec(acc, z)), (c, e)], p)
            if not acc or acc == e:
                continue
            if a.mul_vec(acc, acc) == acc:
                return acc, complete
    return None, complete
