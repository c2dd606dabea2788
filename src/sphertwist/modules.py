"""Right modules over a finite-dimensional algebra, as representations.

A module is one action matrix per algebra basis element, acting on
coordinate ROW vectors (v ↦ v·M), so composition reads left to right
everywhere: a hom m → n is a matrix applied on the right of a row, and
h1 then h2 is the product h1.matrix · h2.matrix.

Submodules are carried as embedded row-span matrices of the ambient
module until explicitly converted; that keeps radical-style
intersections in ambient coordinates where they belong.  Module vectors
and algebra elements are vectors in the one form of `exactlin`.
"""

from __future__ import annotations

from .algebra import Algebra, lift_idempotents, opposite, radical
from .errors import (
    AlgebraMismatch,
    NotASubmodule,
    ShapeError,
    SphertwistError,
)
from .exactlin import (
    Matrix,
    Preimages,
    SpanBuilder,
    SpanQuotient,
    _canonical,
    _check_vector,
    combine,
    kernel_basis,
    product_residual,
    rank,
    rref,
)


class Module:
    """Right module given by its action matrices.

    ``acting`` is the set of indices i whose matrix Mᵢ has a stored
    entry, set here and nowhere else: every other basis element acts by
    zero, and the kernels that loop over the basis skip it.  ``tag`` is
    the idempotent e of a simple `simple_modules` cut from e·A, which
    `meets` reads; ``covered`` the `CoveredTerm` record of a shared sum
    ⊕ eₖ·A (`_piece_sum`); both are None on every other module.
    """

    def __init__(self, algebra, dim, action, validate=True):
        self.algebra = algebra
        self.dim = dim
        self.action = list(action)
        self.tag = None
        self.covered = None
        self._stacked_action = None
        if len(self.action) != algebra.dim:
            raise ShapeError("need one action matrix per algebra basis element")
        for m in self.action:
            if m.nrows != dim or m.ncols != dim:
                raise ShapeError("action matrix shape mismatch")
            if m.field != algebra.field:
                raise AlgebraMismatch("action over the wrong field")
        self.acting = frozenset(i for i, m in enumerate(self.action) if any(m.pairs))
        if validate:
            self._validate()

    def _validate(self):
        """The unit acts as the identity, and Mᵢ·Mⱼ = Σₖ cᵢⱼᵏ·Mₖ for every
        pair (i, j) of basis elements, where bᵢ·bⱼ = Σₖ cᵢⱼᵏ·bₖ.

        The right side is the product C·D of the rows
        Cᵣ = (cᵢⱼᵏ at column k·dim + r)ₖ and D = the actions M₀, M₁, …
        stacked, so each pair is one `product_residual` and no dense
        product or table is formed.  The pairs go in the order of the
        pair-by-pair comparison, so the first failing pair is the same.
        A pair is skipped when Mᵢ or Mⱼ is zero and no bₖ with cᵢⱼᵏ ≠ 0
        acts (``acting``): both sides are then the zero matrix, so it
        can be no failing pair.
        """
        a, f = self.algebra, self.algebra.field
        unit_mat = self.action_of(a.unit)
        if unit_mat != Matrix.identity(f, self.dim):
            raise SphertwistError("unit does not act as identity")
        p, n, acting = f.characteristic, self.dim, self.acting
        sparse = [m.pairs for m in self.action]
        stacked = [row for rows in sparse for row in rows]
        zero = [()] * n
        for i, products in enumerate(a.table):
            i_acts = i in acting
            for j, coeffs in enumerate(products):
                if not (i_acts and j in acting) and acting.isdisjoint(k for k, _ in coeffs):
                    continue
                combination = [
                    [(k * n + r, c) for k, c in coeffs] for r in range(n)
                ] if coeffs else zero
                if product_residual(
                    sparse[i], sparse[j], combination, stacked, p
                ) is not None:
                    raise SphertwistError(
                        "action not compatible with multiplication on pair (%d,%d)"
                        % (i, j)
                    )

    def action_of(self, avec):
        """The matrix Σ cᵢ·Mᵢ of the algebra element avec, a vector."""
        _check_vector(avec, self.algebra.dim)
        return self._combination(avec)

    def _combination(self, coeffs):
        """Σ c·Mᵢ over the (i, c) pairs of coeffs, c ≠ 0, summed row by
        row over the pairs of the Mᵢ.  A basis element acts by its own
        matrix, and 0, with no pairs, by the zero matrix."""
        f = self.algebra.field
        if len(coeffs) == 1 and coeffs[0][1] == 1:
            return self.action[coeffs[0][0]]
        terms = [(c, self.action[i].pairs) for i, c in coeffs]
        rows = [combine([(c, mat[r]) for c, mat in terms], f.characteristic)
                for r in range(self.dim)]
        return Matrix.from_pairs(f, rows, self.dim)

    def apply(self, v, avec):
        return self.action_of(avec).apply_to_row(v)

    def stacked_action(self):
        """[M₀ | M₁ | …], built once: row r holds r·bᵢ at the columns
        from i·dim, so one product with it moves rows by every bᵢ."""
        if self._stacked_action is None:
            n, actions = self.dim, [mat.pairs for mat in self.action]
            self._stacked_action = Matrix.from_pairs(self.algebra.field, [
                [(i * n + j, e) for i, rows in enumerate(actions) for j, e in rows[r]]
                for r in range(n)
            ], self.algebra.dim * n)
        return self._stacked_action

    @classmethod
    def zero(cls, algebra):
        z = Matrix.zero(algebra.field, 0, 0)
        return cls(algebra, 0, [z] * algebra.dim, validate=False)

    @classmethod
    def regular(cls, algebra):
        """The algebra as a right module over itself.

        Cached per algebra; the action matrices are the structure
        constants re-packed, so compatibility is the associativity the
        algebra constructor has already audited.
        """
        if algebra._regular_module_cache is not None:
            return algebra._regular_module_cache
        action = [
            algebra.right_mult_matrix(algebra.basis_vector(i))
            for i in range(algebra.dim)
        ]
        m = cls(algebra, algebra.dim, action, validate=False)
        algebra._regular_module_cache = m
        return m

    @classmethod
    def coregular(cls, algebra):
        """k-dual of the left regular module, as a right module.

        (f·b)(x) = f(b·x), so b acts by the transpose of left
        multiplication.  Cached per algebra; compatibility is again the
        algebra's own associativity, transposed.
        """
        if algebra._coregular_module_cache is not None:
            return algebra._coregular_module_cache
        action = [
            algebra.left_mult_matrix(algebra.basis_vector(i)).transpose()
            for i in range(algebra.dim)
        ]
        m = cls(algebra, algebra.dim, action, validate=False)
        algebra._coregular_module_cache = m
        return m

    def __repr__(self):
        return "Module(dim=%d over %r)" % (self.dim, self.algebra)


class ModuleHom:
    """Intertwiner between two modules over the same algebra."""

    def __init__(self, source, target, matrix, validate=True):
        if source.algebra is not target.algebra:
            raise AlgebraMismatch("hom between modules over different algebras")
        self.source = source
        self.target = target
        self.matrix = matrix
        if matrix.nrows != source.dim or matrix.ncols != target.dim:
            raise ShapeError("hom matrix shape mismatch")
        if validate:
            self._validate()

    def _validate(self):
        """Mᵢ·X = X·Nᵢ for every basis element i but those that act by
        zero on both ends, where both sides are zero."""
        m, n = self.source, self.target
        p = m.algebra.field.characteristic
        x_rows = self.matrix.pairs
        for i in sorted(m.acting | n.acting):
            m_rows, n_rows = m.action[i].pairs, n.action[i].pairs
            if product_residual(m_rows, x_rows, x_rows, n_rows, p) is not None:
                raise SphertwistError(
                    "matrix fails to intertwine basis element %d" % i
                )

    def apply(self, v):
        return self.matrix.apply_to_row(v)

    def compose(self, then):
        """self : m → n followed by then : n → p, n the one module object."""
        if then.source is not self.target:
            raise ShapeError("composition endpoints do not match")
        return ModuleHom(
            self.source, then.target, self.matrix.mul(then.matrix), validate=False
        )

    def __repr__(self):
        return "ModuleHom(%d→%d)" % (self.source.dim, self.target.dim)


def hom_space(m, n):
    """rref-canonical basis of all module maps m → n.

    A map is an s×t matrix X with M_a·X = X·N_a for every algebra
    element a.  The elements that satisfy this form a subspace that
    contains the unit and is closed under products, because the action
    is multiplicative on valid modules: M_{ab}·X = M_a·M_b·X =
    M_a·X·N_b = X·N_a·N_b = X·N_{ab}.  So the equations of the
    generators from `generator_indices` cut out the whole hom space.

    The row of cell (r, c) of M_g·X − X·N_g has M_g[r][k] on X[k][c]
    and −N_g[k][c] on X[r][k] (unknowns flattened row-major): the
    `_add_relation_rows` of L = M_g and R = N_gᵀ (the columns of N_g,
    gathered from the nonzeros of its rows, in row order).  Each row is
    reduced on arrival (`SpanBuilder.add`): a zero or dependent row costs
    one sparse reduction, and no dense system is built.  The null space
    comes out of the reduced echelon form in the canonical form of
    `kernel_basis`, which depends only on the null space, so the basis
    is the one the stacked dense system would give.  A generator that
    acts by zero on both m and n (``acting``) gives only zero rows, so
    it adds none and N_g is not transposed; the span is unchanged.
    Each basis hom is re-verified on every generator, which by the same
    closure argument is a check on every basis element.
    """
    if m.algebra != n.algebra:
        raise AlgebraMismatch("hom between modules over different algebras")
    f = m.algebra.field
    s, t = m.dim, n.dim
    if s == 0 or t == 0:
        return []
    gens = generator_indices(m.algebra)
    p = f.characteristic
    span = SpanBuilder(f, s * t)
    checks = []
    for g in gens:
        m_rows, n_rows = m.action[g].pairs, n.action[g].pairs
        checks.append((g, m_rows, n_rows))
        if g in m.acting or g in n.acting:
            _add_relation_rows(span, m_rows, n.action[g].transpose().pairs, p)
    null = span.kernel_basis().transpose()
    homs = []
    for j, flat in enumerate(null.pairs):
        mat = _unflatten(f, flat, s, t)
        x_rows = mat.pairs
        for g, m_rows, n_rows in checks:
            if product_residual(m_rows, x_rows, x_rows, n_rows, p) is not None:
                raise SphertwistError(
                    "hom basis element %d fails to intertwine generator %d" % (j, g)
                )
        homs.append(ModuleHom(m, n, mat, validate=False))
    return homs


def _add_relation_rows(span, left, right, p):
    """Add to ``span`` the rows (r, c) = Σₖ Lᵣₖ·e₍ₖ,c₎ − Σₖ R_c,ₖ·e₍ᵣ,ₖ₎,
    r over the rows of L and c over the rows of R, in that order, with
    e₍ᵢ,ⱼ₎ the unit vector at i·len(R) + j: the relations of `hom_space`
    and `balanced_tensor`, each read off the nonzeros of row r of L and
    row c of R.  When both rows are empty the relation is zero and is
    not formed, and a relation whose terms cancel is not added: a zero
    row leaves the span as it is."""
    width = len(right)
    nonempty = [(c, r_row) for c, r_row in enumerate(right) if r_row]
    for r, l_row in enumerate(left):
        at = r * width
        for c, r_row in enumerate(right) if l_row else nonempty:
            row = {k * width + c: e for k, e in l_row}
            for k, e in r_row:
                row[at + k] = row.get(at + k, 0) - e
            if row := _canonical(row, p):
                span.add(row)


class HomBasis:
    """Coordinates of maps against a fixed list of module maps.

    The list is factored once.  Its flattened maps are the rows of B
    (n × w), held as the `Preimages` of B: the span of the n rows
    [Bᵢ | eᵢ], independent by their last n columns.  A combination
    x·[B | I] = [x·B | x] of them is zero in its first w columns
    exactly when x is a relation among the maps, so the rows with a
    pivot at a column ≥ w span the relations, and the list is
    independent exactly when every pivot lies among the first w
    columns; a dependent list raises SphertwistError.  ``coords``
    reduces [y | 0] by the span to [y − x·B | −x] and returns x only
    when y − x·B comes out zero, which is the exact equation
    Σ xᵢ·hᵢ = y; a map outside the span leaves a nonzero part there and
    raises SphertwistError rather than returning coordinates.  On an
    independent list the coordinates are unique.  The field is that of
    the maps; an empty list factors nothing, so it needs none.
    """

    def __init__(self, homs):
        self.homs = homs = list(homs)
        if not homs:
            return
        first = homs[0].matrix
        self._shape = (first.nrows, first.ncols)
        if any((h.matrix.nrows, h.matrix.ncols) != self._shape for h in homs):
            raise ShapeError("hom basis maps of different shapes")
        width = self._shape[0] * self._shape[1]
        flats = Matrix.from_pairs(first.field, [_flatten(h.matrix) for h in homs], width)
        self._preimages = Preimages(flats)
        if self._preimages.span.pivots[-1] >= width:
            raise SphertwistError("hom basis is linearly dependent")

    def coords(self, mat):
        """The vector x with Σ xᵢ·hᵢ = mat; raises outside the span."""
        if not self.homs:
            if mat.is_zero():
                return []
            raise SphertwistError("nonzero map against an empty hom basis")
        if (mat.nrows, mat.ncols) != self._shape:
            raise ShapeError("map shape does not match the hom basis")
        try:
            return self._preimages.of(_flatten(mat))
        except SphertwistError:
            raise SphertwistError("map escapes the hom basis") from None


def _flatten(mat):
    """mat read row-major as one vector: the entry at (r, c) sits at
    r·ncols + c, so the row pairs in order are already sorted."""
    n = mat.ncols
    return [(r * n + c, e) for r, row in enumerate(mat.pairs) for c, e in row]


def _cut(vec, nrows, ncols):
    """The rows of a vector of length nrows·ncols read row-major, the
    inverse of `_flatten`: (r·ncols + c, e) goes to row r as (c, e)."""
    rows = [[] for _ in range(nrows)]
    for k, e in vec:
        r, c = divmod(k, ncols)
        rows[r].append((c, e))
    return rows


def _unflatten(field, vec, nrows, ncols):
    """The nrows × ncols matrix that `_flatten` reads as vec."""
    return Matrix.from_pairs(field, _cut(vec, nrows, ncols), ncols)


def generator_indices(a):
    """Indices of basis elements that generate the algebra with the unit,
    picked greedily in basis order: bᵢ is taken when it lies outside the
    subalgebra that the unit and the earlier picks generate.  The list is
    not minimal: on End(T) of the three benchmark workloads it keeps 8
    of 9, 19 of 20 and 14 of 15 basis elements."""
    if a._generator_cache is not None:
        return a._generator_cache
    f = a.field
    span = SpanBuilder(f, a.dim)
    span.add(a.unit)
    gens = []
    elements = [list(a.unit)]
    for i in range(a.dim):
        if span.contains(a.basis_vector(i)):
            continue
        gens.append(i)
        frontier = [a.basis_vector(i)]
        span.add(a.basis_vector(i))
        elements.append(a.basis_vector(i))
        while frontier:
            nxt = []
            for x in frontier:
                for y in list(elements):
                    for prod in (a.mul_vec(x, y), a.mul_vec(y, x)):
                        if span.add(prod):
                            nxt.append(prod)
                            elements.append(prod)
            frontier = nxt
    a._generator_cache = gens
    return gens


# ---------------------------------------------------------------------------
# submodules and quotients


def _as_rows(field, vectors, width):
    """A Matrix of width ``width``, or a list of vectors of that length,
    as the Matrix of those rows."""
    if isinstance(vectors, Matrix):
        if vectors.ncols != width:
            raise ShapeError("subspace matrix does not fit the module")
        return vectors
    return Matrix.from_pairs(field, list(vectors), width)


def _action_matrices(field, dim, rows_of):
    """One action matrix of size dim per entry of ``rows_of``, the pairs
    of its rows or an empty sequence; every entry with no pair gives
    the one zero matrix that they share."""
    zero = Matrix.zero(field, dim, dim)
    return [Matrix.from_pairs(field, rows, dim) if any(rows) else zero
            for rows in rows_of]


def _images(m, rows):
    """images[k][i]: row k of the matrix ``rows`` under basis element i,
    read off the one product of rows with `Module.stacked_action`."""
    n, d = m.dim, m.algebra.dim
    return [_cut(row, d, n) for row in rows.mul(m.stacked_action()).pairs]


def submodule(m, vectors, check=True):
    """(module on the subspace, inclusion hom).  Rows span the subspace.

    The inclusion's rows are the nonzero rows of the rref, each 1 at its
    pivot and 0 at the others, so a vector of the subspace has its
    coordinates at the pivots.  ``vectors`` is a Matrix of width m.dim or
    a list of vectors of that length.  The images of the rows under every
    basis element come from one product (`_images`).  With ``check``
    each is tested against the subspace (`NotASubmodule` when it
    leaves); without it the subspace is trusted to be stable.  A basis
    element that acts by zero on m acts by zero on the subspace.
    """
    f = m.algebra.field
    r, pivots = rref(_as_rows(f, vectors, m.dim))
    d = len(pivots)
    rows = Matrix.from_pairs(f, r.pairs[:d], m.dim)
    if check:
        span = SpanBuilder(f, m.dim)
        for row in rows.pairs:
            span.add(row)
    at = {q: k for k, q in enumerate(pivots)}

    def coords(image):
        if check and not span.contains(image):
            raise NotASubmodule("vector leaves the subspace", witness=image)
        return [(at[j], e) for j, e in image if j in at]

    images = _images(m, rows)
    action = _action_matrices(f, d, (
        [coords(per_row[i]) for per_row in images] if i in m.acting else ()
        for i in range(m.algebra.dim)
    ))
    sub = Module(m.algebra, d, action, validate=False)
    incl = ModuleHom(sub, m, rows, validate=False)
    return sub, incl


def quotient(m, vectors):
    """(quotient module, projection hom) by an action-stable subspace,
    given as for `submodule`; the images of its basis rows under every
    basis element come from one product (`_images`).  A basis element
    that acts by zero on m acts by zero on the quotient."""
    f = m.algebra.field
    span = SpanBuilder(f, m.dim)
    for r in _as_rows(f, vectors, m.dim).pairs:
        span.add(r)
    basis = span.basis_matrix()
    for r, per_row in zip(basis.pairs, _images(m, basis)):
        for i, image in enumerate(per_row):
            if not span.contains(image):
                raise NotASubmodule(
                    "subspace not stable under basis element %d" % i, witness=r
                )
    q = SpanQuotient(span)
    one = f.one()
    # the image of the j-th unit row under M is row j of M
    action = _action_matrices(f, q.dim, (
        [q.project(mat.pairs[j]) for j in q.kept] if i in m.acting else ()
        for i, mat in enumerate(m.action)
    ))
    out = Module(m.algebra, q.dim, action, validate=False)
    proj = ModuleHom(
        m,
        out,
        Matrix.from_pairs(f, [q.project([(j, one)]) for j in range(m.dim)], q.dim),
        validate=False,
    )
    return out, proj


def balanced_tensor(m, n):
    """M ⊗_A N, as the flat space M ⊗ N modulo its balancing relations.

    m is a right module over A, and n a right module over opposite(A)
    (else AlgebraMismatch), so s acts on M by ``m.action[s]`` (row u is
    u·s) and on N by ``n.action[s]`` (row x is s·x).  The pair (u, x)
    sits at u·dim N + x, first factor major.  Returns the `SpanQuotient`
    of the span of the relations (u·s) ⊗ x − u ⊗ (s·x); its ``dim`` is
    dim M ⊗_A N.

    The relations are fed sparsely into one `SpanBuilder`, as the
    `_add_relation_rows` of L = m.action[s] and R = n.action[s], and
    only for s in `generator_indices`.  That spans the same subspace as
    the relations of every s.  For a product st,

        (u·st) ⊗ x − u ⊗ (st·x)
            = [(u·s)·t ⊗ x − (u·s) ⊗ (t·x)] + [(u·s) ⊗ (t·x) − u ⊗ s·(t·x)],

    the t-relation at (u·s, x) plus the s-relation at (u, t·x), both
    sums of relations because a relation is linear in each factor; the
    unit gives 0; and a relation is linear in s.  Since the span is the
    same, so are its canonical rows, kept columns and projections.

    It has two callers, and each uses it as the flat route beside a
    derived one read through the Yoneda kernel: step (d) of
    `spherical.tilting_audit`, on side modules of its hom bimodules,
    against Tor₀, and the collapse audit of the counit triangle,
    `twist._balanced_collapse_dim`.  Tor and the derived tensor square
    do not use it (see `homology`).
    """
    a = m.algebra
    if n.algebra is not opposite(a):
        raise AlgebraMismatch("balanced tensor needs a left module over the same algebra")
    p = a.field.characteristic
    span = SpanBuilder(a.field, m.dim * n.dim)
    for s in generator_indices(a):
        _add_relation_rows(span, m.action[s].pairs, n.action[s].pairs, p)
    return SpanQuotient(span)


def kernel_of(h):
    """(kernel submodule of source, inclusion)."""
    # rows v with v·M = 0  ⇔  Mᵀ·vᵀ = 0
    cols = kernel_basis(h.matrix.transpose())
    return submodule(h.source, cols.transpose(), check=False)


def cokernel_of(h):
    """(cokernel quotient of target, projection)."""
    return quotient(h.target, h.matrix)


def direct_sum(mods):
    """(sum module, injection homs, projection homs).  A basis element
    acts by zero on the sum when it acts by zero on every summand."""
    if not mods:
        raise ShapeError("direct sum of nothing — pass at least one module")
    a = mods[0].algebra
    f = a.field
    for m in mods[1:]:
        if m.algebra != a:
            raise AlgebraMismatch("direct sum across different algebras")
    total = sum(m.dim for m in mods)
    offsets = []
    at = 0
    for m in mods:
        offsets.append(at)
        at += m.dim
    action = _action_matrices(f, total, (
        [[(off + c, e) for c, e in row] for off, m in zip(offsets, mods)
         for row in m.action[i].pairs]
        if any(i in m.acting for m in mods) else ()
        for i in range(a.dim)
    ))
    s = Module(a, total, action, validate=False)
    injections, projections = [], []
    one = f.one()
    for off, m in zip(offsets, mods):
        inj = [[(off + r, one)] for r in range(m.dim)]
        injections.append(ModuleHom(m, s, Matrix.from_pairs(f, inj, total), validate=False))
        prj = [[] for _ in range(total)]
        for r in range(m.dim):
            prj[off + r] = [(r, one)]
        projections.append(ModuleHom(s, m, Matrix.from_pairs(f, prj, m.dim), validate=False))
    return s, injections, projections


def module_radical(m):
    """Row basis of m·rad(A), in ambient coordinates."""
    f = m.algebra.field
    rad = radical(m.algebra)
    sb = SpanBuilder(f, m.dim)
    for x in rad.transpose().pairs:
        for row in m.action_of(x).pairs:
            if row:
                sb.add(row)
    return sb.basis_matrix()


def socle(m):
    """Row basis of the annihilator of rad(A) in m."""
    f = m.algebra.field
    rad = radical(m.algebra)
    if rad.ncols == 0:
        return Matrix.identity(f, m.dim)
    stacked = None
    for x in rad.transpose().pairs:
        act = m.action_of(x)
        stacked = act if stacked is None else stacked.hstack(act)
    return kernel_basis(stacked.transpose()).transpose()


# ---------------------------------------------------------------------------
# simples, covers, add-membership


def simple_modules(a):
    """One simple per isomorphism class, tagged by a lifted idempotent.

    The top of e·A is a simple already found, r, exactly when r·e ≠ 0
    (`meets`), and then it is not built.  Cached per algebra — callers
    share the module objects.
    """
    if a._simple_modules_cache is not None:
        return a._simple_modules_cache
    rad = radical(a)
    rad_rows = rad.transpose().pairs
    reps = []
    for e in lift_idempotents(a):
        if any(meets(r, e) for r in reps):
            continue
        pe, incl = _idempotent_piece(a, e)
        # top = eA / (eA ∩ rad) — eA·rad = e·rad ⊆ eA, whose coordinates
        # in pe sit at the pivots of pe's canonical rows
        at = {row[0][0]: k for k, row in enumerate(incl.matrix.pairs)}
        sub_rows = [
            [(at[j], x) for j, x in a.mul_vec(e, r) if j in at] for r in rad_rows
        ]
        top, _ = quotient(pe, sub_rows)
        top.tag = e
        reps.append(top)
    a._simple_modules_cache = reps
    return reps


def meets(m, e):
    """Whether m·e ≠ 0, for an idempotent e of m's algebra A.

    By Yoneda, Hom_A(e·A, m) ≅ m·e: a map φ is fixed by φ(e) = φ(e)·e,
    which lies in m·e, and each v in m·e is the image of e under
    e·x ↦ v·x (Assem–Simson–Skowroński, Elements 1, §I.4).  So m·e ≠ 0
    exactly when a nonzero map e·A → m exists.  For a primitive e, whose
    e·A has the simple top S, that is when S is a composition factor of
    m: a simple T is S exactly when T·e ≠ 0, and a semisimple m has S as
    a summand exactly when m·e ≠ 0.
    """
    return not m.action_of(e).is_zero()


def _idempotent_piece(a, e):
    """(e·a as a module, its inclusion into the regular module).

    The inclusion's matrix is the canonical row basis of e·a, spanned by
    the rows e·bᵢ of the left multiplication by e.  Cached per algebra
    and idempotent.
    """
    key = tuple(e)
    hit = a._piece_cache.get(key)
    if hit is None:
        hit = a._piece_cache[key] = submodule(
            Module.regular(a), a.left_mult_matrix(e), check=False
        )
    return hit


def _piece_sum(a, idempotents):
    """⊕ₖ eₖ·A: the direct sum of the pieces `_idempotent_piece(a, eₖ)`
    in the order of the list, and the zero module for an empty list.

    Built once per algebra and idempotent list, and cached in
    ``a._piece_sum_cache`` under the tuple of the eₖ as tuples of pairs,
    so every caller gets the same object: the source of each cover
    (`_cover_by_pieces`) and the terms the unit elimination rebuilds.
    No caller changes it, so its `stacked_action` is built once as well.

    The sum carries its record, ``covered`` (`CoveredTerm`), set here and
    nowhere else.  Every eₖ is checked to be idempotent first, and
    e² = e splits A_A = e·A ⊕ (1−e)·A, so each eₖ·A is projective and so
    is the sum: a module with a record is a projective ⊕ eₖ·A by
    construction, and readers take its pieces from the record.
    """
    key = tuple(tuple(e) for e in idempotents)
    hit = a._piece_sum_cache.get(key)
    if hit is None:
        if not all(a.is_idempotent(e) for e in idempotents):
            raise SphertwistError("a piece of a covered projective is not idempotent")
        hit = (
            direct_sum([_idempotent_piece(a, e)[0] for e in idempotents])[0]
            if idempotents else Module.zero(a)
        )
        hit.covered = CoveredTerm(hit, list(idempotents))
        a._piece_sum_cache[key] = hit
    return hit


class CoveredTerm:
    """The record of a covered projective ⊕ₖ eₖ·A (`_piece_sum`).

    Block k is the piece eₖ·A (`_idempotent_piece`) at a running offset,
    so a vector of the term has the coordinates of its k-th component at
    the pivots of that piece's canonical rows.  ``gens[k]`` is eₖ in the
    term's coordinates: an A-map out of the term is fixed by its values
    on the ``gens``, φ(Σₖ eₖ·xₖ) = Σₖ φ(eₖ)·xₖ.  All of these are
    vectors.
    """

    def __init__(self, term, idempotents):
        a = term.algebra
        self.term = term
        self.idempotents = idempotents
        self.a_blocks = []  # (offset, inclusion matrix of eₖ·A)
        self.gens = []
        at = 0
        for e in idempotents:
            incl = _idempotent_piece(a, e)[1].matrix
            entry = dict(e).get
            self.gens.append([
                (at + r, x) for r, row in enumerate(incl.pairs)
                if (x := entry(row[0][0]))
            ])
            self.a_blocks.append((at, incl))
            at += incl.nrows

    def components(self, v):
        """The components of a term vector, as vectors of A in eₖ·A: the
        pairs of v in block k, shifted to it, times its inclusion."""
        return [
            incl.apply_to_row([(j - at, x) for j, x in v if at <= j < at + incl.nrows])
            for at, incl in self.a_blocks
        ]

    def extend(self, images, v):
        """φ(v) for the A-map φ of the term to itself, φ(eₖ) = images[k].

        v = Σₖ eₖ·xₖ over its components, so φ(v) = Σₖ φ(eₖ)·xₖ.
        """
        apply = self.term.apply
        return combine(
            [(1, apply(g, x)) for g, x in zip(images, self.components(v)) if x],
            self.term.algebra.field.characteristic,
        )


def _covered(term):
    """The `CoveredTerm` record of a term; raises when it has none."""
    if term.covered is None:
        raise SphertwistError("the term has no recorded cover")
    return term.covered


def projective_cover(m):
    """(P, epi) with P a sum of idempotent projectives covering top(m).

    The pieces come from the lifted primitive idempotents, in order (see
    `_cover_by_pieces`), and ``P.covered`` names them.  Each generator v
    is multiplied by the basis of A once, and the epi row of a basis row
    w of e·A is read off those images as v·w = Σ wᵢ·(v·bᵢ), so no
    action_of(w) is formed.
    """
    return _cover_by_pieces(m, lift_idempotents(m.algebra))


def _cover_by_pieces(m, idempotents):
    """(P, epi): m covered by one piece e·A per generator, e from the list.

    Greedy over the idempotents in order: for each e and each basis row
    r, v = r·e is taken as a generator when it lies outside the span of
    m·rad(A) and the cyclic submodules v'·A already taken, and then e·A
    covers v·A.  A generator's images v·bᵢ under the basis of A are
    computed once.  They enlarge the span, and they give its epi block:
    the row for a basis row w of e·A is v·w = Σ wᵢ·(v·bᵢ), the
    coordinates of w times the matrix of those images.

    The epi is validated as a module map and must have full rank.  The
    source is the shared `_piece_sum` of the generators' idempotents, in
    order (the sum of none for a zero module), so two covers by the same
    idempotents have the same source object, and its record
    (``P.covered``) names the summand each block came from.
    """
    a = m.algebra
    f = a.field
    if m.dim == 0:
        z = _piece_sum(a, [])
        return z, ModuleHom(z, m, Matrix.zero(f, 0, 0), validate=False)
    cover_span = SpanBuilder(f, m.dim)
    for r in module_radical(m).pairs:
        cover_span.add(r)
    idems = []
    rows = []
    for e in idempotents:
        for v in m.action_of(e).pairs:
            if cover_span.contains(v):
                continue
            incl = _idempotent_piece(a, e)[1]
            # v times [M₀ | M₁ | …] is (v·b₀, v·b₁, …)
            images = _unflatten(f, m.stacked_action().apply_to_row(v), a.dim, m.dim)
            for img in images.pairs:
                cover_span.add(img)
            rows += incl.matrix.mul(images).pairs
            idems.append(e)
    if not idems:
        raise SphertwistError("the cover of a nonzero module found no generator")
    p_sum = _piece_sum(a, idems)
    big = Matrix.from_pairs(f, rows, m.dim)
    epi = ModuleHom(p_sum, m, big)
    if rank(big) != m.dim:
        raise SphertwistError("the cover candidate is not surjective")
    return p_sum, epi


def in_add(m, *blocks):
    """True iff m is a direct summand of a finite power of ⊕ blocks.

    Linear criterion: id_m lies in the span of the composites
    m → ⊕ blocks → m, and that span is the sum over the blocks B of the
    spans of the composites m → B → m.  A map into ⊕ B is the tuple of
    its components g_B, a map out of it the sum of its restrictions
    h_C, and ι_B·π_C = 0 for B ≠ C, so g·h = Σ_B g_B·h_B.  So no sum is
    built: the blocks are read in order, Hom(B, m) is solved only when
    Hom(m, B) is nonzero (else B adds no composite), and the answer is
    True as soon as the span holds id_m; it only grows, so id_m is
    tested again only when a composite enlarged it.

    Reflexivity needs no hom space: the zero module lies in any add,
    and m lies in add(m ⊕ …) when m is one of the blocks.  Distinct
    objects, even with equal actions, take the full check.
    """
    if any(b.algebra != m.algebra for b in blocks):
        raise AlgebraMismatch("add-membership across different algebras")
    if m.dim == 0 or any(b is m for b in blocks):
        return True
    f = m.algebra.field
    span = SpanBuilder(f, m.dim * m.dim)
    ident = _flatten(Matrix.identity(f, m.dim))
    for b in blocks:
        into = hom_space(m, b)
        back = hom_space(b, m) if into else ()
        for g in into:
            for h in back:
                if span.add(_flatten(g.matrix.mul(h.matrix))) and span.contains(ident):
                    return True
    return False


def add_equivalent(m, n):
    """True iff m and n generate the same additive closure: each is a
    summand of a finite power of the other (`in_add` both ways round;
    one object on both sides solves nothing).
    """
    return in_add(m, n) and in_add(n, m)


def restrict_scalars(surj, m):
    """A B-module viewed as a module over the source of p : A → B."""
    if m.algebra != surj.target:
        raise AlgebraMismatch("module is not over the surjection target")
    # row i of the surjection's matrix is the image of bᵢ; every bᵢ that
    # acts by zero, the kernel among them, acts by one zero matrix
    zero = Matrix.zero(m.algebra.field, m.dim, m.dim)
    action = [m._combination(row) if row else zero for row in surj.matrix.pairs]
    action = [mat if mat is zero or any(mat.pairs) else zero for mat in action]
    return Module(surj.source, m.dim, action, validate=False)


def endomorphism_algebra(m):
    """(End(m) as an Algebra, its factored hom basis).

    The basis is the rref basis of `hom_space(m, m)`, and the table is
    built on it by `_endomorphism_table`.
    """
    return _endomorphism_table(hom_space(m, m), ())


def _endomorphism_table(homs, tags):
    """(End(m) on the basis ``homs`` of Hom(m, m), its `HomBasis`).

    Structure constants come from composing basis maps and re-expanding
    in the basis.  The product is function composition — the right
    factor acts first — so for an idempotent projection e onto a direct
    summand, the right ideal e·End(m) collects the maps out of the whole
    module into that summand.  The returned `HomBasis` holds the maps
    (``homs``) and reads coordinates against them; it raises on a
    composite outside their span, so a list short of Hom(m, m) is
    refused.  ``tags`` are (role, matrix) pairs of endomorphisms of m,
    recorded by their coordinates as the algebra's ``idempotents``,
    which its constructor checks.  `frobenius._tagged_generator`, which
    builds the generator of a context and its tilting companion, passes
    the basis it reads block row by block row
    (`frobenius._generator_hom_basis`), which is the one `hom_space`
    gives.

    Entry (r, c) of the composite H_j·H_i is Σ_k H_j[r][k]·H_i[k][c],
    and every term vanishes unless column k of H_j and row k of H_i are
    both nonzero.  So when the nonzero columns of H_j miss the nonzero
    rows of H_i the composite is exactly 0, and its table entry is
    empty; neither the product nor its coordinates are formed.
    The test needs no block structure of m; on a direct sum, maps whose
    blocks do not meet pass it.  The `Algebra` constructor still audits
    the whole table.
    """
    d = len(homs)
    if d == 0:
        raise SphertwistError("zero module has no unital endomorphism algebra")
    m = homs[0].source
    f = m.algebra.field
    basis = HomBasis(homs)
    rows_of = [{r for r, row in enumerate(h.matrix.pairs) if row} for h in homs]
    cols_of = [{c for row in h.matrix.pairs for c, _ in row} for h in homs]
    table = [
        [
            basis.coords(homs[j].matrix.mul(homs[i].matrix))
            if not cols_of[j].isdisjoint(rows_of[i])
            else []
            for j in range(d)
        ]
        for i in range(d)
    ]
    unit = basis.coords(Matrix.identity(f, m.dim))
    idempotents = [(role, basis.coords(mat)) for role, mat in tags]
    return Algebra(f, table, unit, idempotents=idempotents), basis
