"""Right modules over a finite-dimensional algebra, as representations.

A module is one action matrix per algebra basis element, acting on
coordinate ROW vectors (v ↦ v·M), so composition reads left to right
everywhere: a hom m → n is a matrix applied on the right of a row, and
h1 then h2 is the product h1.matrix · h2.matrix.

Submodules are carried as embedded row-span matrices of the ambient
module until explicitly converted; that keeps radical-style
intersections in ambient coordinates where they belong.
"""

from __future__ import annotations

from itertools import compress

from .algebra import Algebra, lift_idempotents, radical
from .errors import (
    AlgebraMismatch,
    NotASubmodule,
    ShapeError,
    SphertwistError,
)
from .exactlin import (
    Matrix,
    SpanBuilder,
    SpanQuotient,
    kernel_basis,
    rank,
    row_space_canonical,
    rref,
)


def _sparse_rows(m):
    """The (column, entry) pairs of the nonzeros of each row."""
    p = m.field.characteristic
    if p:
        return [[(j, c) for j, c in enumerate(row) if c % p] for row in m.rows]
    cols = range(m.ncols)
    return [[(j, row[j]) for j in compress(cols, row)] for row in m.rows]


def _intertwines(m_rows, x_rows, n_rows, p):
    """Whether M·X = X·N, all three given by their rows' nonzeros."""
    for r, m_row in enumerate(m_rows):
        acc = {}
        for k, a in m_row:
            for j, x in x_rows[k]:
                acc[j] = acc.get(j, 0) + a * x
        for k, x in x_rows[r]:
            for j, b in n_rows[k]:
                acc[j] = acc.get(j, 0) - x * b
        if any(v % p for v in acc.values()) if p else any(acc.values()):
            return False
    return True


def _sparse_mul(f, a_sparse, b_sparse, nrows, ncols):
    out = [[f.zero()] * ncols for _ in range(nrows)]
    for i, row in enumerate(a_sparse):
        for k, c in row:
            for j, c2 in b_sparse[k]:
                out[i][j] = f.add(out[i][j], f.mul(c, c2))
    return out


class Module:
    """Right module given by its action matrices."""

    def __init__(self, algebra, dim, action, tag=None, validate=True):
        self.algebra = algebra
        self.dim = dim
        self.action = list(action)
        self.tag = tag
        if len(self.action) != algebra.dim:
            raise ShapeError("need one action matrix per algebra basis element")
        for m in self.action:
            if m.nrows != dim or m.ncols != dim:
                raise ShapeError("action matrix shape mismatch")
            if m.field != algebra.field:
                raise AlgebraMismatch("action over the wrong field")
        if validate:
            self._validate()

    def _validate(self):
        a, f = self.algebra, self.algebra.field
        unit_mat = self.action_of(a.unit)
        if unit_mat != Matrix.identity(f, self.dim):
            raise SphertwistError("unit does not act as identity")
        sparse = [_sparse_rows(m) for m in self.action]
        for i in range(a.dim):
            for j in range(a.dim):
                prod = _sparse_mul(f, sparse[i], sparse[j], self.dim, self.dim)
                want = [[f.zero()] * self.dim for _ in range(self.dim)]
                for k, c in a._sparse[i][j]:
                    for r in range(self.dim):
                        for t, c2 in sparse[k][r]:
                            want[r][t] = f.add(want[r][t], f.mul(c, c2))
                if prod != want:
                    raise SphertwistError(
                        "action not compatible with multiplication on pair (%d,%d)"
                        % (i, j)
                    )

    def action_of(self, avec):
        """The matrix Σ cᵢ·Mᵢ of the algebra element with coordinates avec,
        summed in one pass over the nonzero coefficients."""
        f = self.algebra.field
        p = f.characteristic
        d = self.dim
        cols = range(d)
        acc = [[f.zero()] * d for _ in cols]
        for c, mat in zip(avec, self.action):
            if not c or (p and not c % p):
                continue
            c = f.coerce(c)
            for out, row in zip(acc, mat.rows):
                for j in compress(cols, row):
                    out[j] += c * row[j]
        if p:
            acc = [[x % p for x in out] for out in acc]
        return Matrix(f, acc, d)

    def apply(self, v, avec):
        return self.action_of(avec).apply_to_row(v)

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
        if source.algebra is not target.algebra and source.algebra != target.algebra:
            raise AlgebraMismatch("hom between modules over different algebras")
        self.source = source
        self.target = target
        self.matrix = matrix
        if matrix.nrows != source.dim or matrix.ncols != target.dim:
            raise ShapeError("hom matrix shape mismatch")
        if validate:
            self._validate()

    def _validate(self):
        a = self.source.algebra
        p = a.field.characteristic
        x_rows = _sparse_rows(self.matrix)
        for i in range(a.dim):
            m_rows = _sparse_rows(self.source.action[i])
            n_rows = _sparse_rows(self.target.action[i])
            if not _intertwines(m_rows, x_rows, n_rows, p):
                raise SphertwistError(
                    "matrix fails to intertwine basis element %d" % i
                )

    def apply(self, v):
        return self.matrix.apply_to_row(v)

    def compose(self, then):
        """self : m → n followed by then : n → p."""
        if then.source is not self.target and then.source.dim != self.target.dim:
            raise ShapeError("composition endpoints do not match")
        return ModuleHom(
            self.source, then.target, self.matrix.mul(then.matrix), validate=False
        )

    def is_zero(self):
        return self.matrix.is_zero()

    def __repr__(self):
        return "ModuleHom(%d→%d)" % (self.source.dim, self.target.dim)


def identity_hom(m):
    return ModuleHom(m, m, Matrix.identity(m.algebra.field, m.dim), validate=False)


def hom_space(m, n):
    """rref-canonical basis of all module maps m → n.

    A map is an s×t matrix X with M_a·X = X·N_a for every algebra
    element a.  The elements that satisfy this form a subspace that
    contains the unit and is closed under products, because the action
    is multiplicative on valid modules: M_{ab}·X = M_a·M_b·X =
    M_a·X·N_b = X·N_a·N_b = X·N_{ab}.  So the equations of the
    generators from `generator_indices` cut out the whole hom space.

    The row of cell (r, c) of M_g·X − X·N_g has M_g[r][k] on X[k][c]
    and −N_g[k][c] on X[r][k] (unknowns flattened row-major), so it is
    read straight off the nonzeros of row r of M_g and column c of N_g
    and reduced on arrival (`SpanBuilder.add_sparse`): a zero or
    dependent row costs one sparse reduction, and no dense system is
    built.  The null space comes out of the reduced echelon form in the
    canonical form of `kernel_basis`, which depends only on the null
    space, so the basis is the one the stacked dense system would give.
    Each basis hom is re-verified on the generators, which by the same
    closure argument is a check on every basis element.
    """
    if m.algebra != n.algebra:
        raise AlgebraMismatch("hom between modules over different algebras")
    f = m.algebra.field
    s, t = m.dim, n.dim
    if s == 0 or t == 0:
        return []
    gens = generator_indices(m.algebra)
    span = SpanBuilder(f, s * t)
    checks = []
    for g in gens:
        m_rows = _sparse_rows(m.action[g])
        checks.append((g, m_rows, _sparse_rows(n.action[g])))
        n_cols = _sparse_rows(n.action[g].transpose())
        for r, m_row in enumerate(m_rows):
            at = r * t
            for c, n_col in enumerate(n_cols):
                row = {k * t + c: e for k, e in m_row}
                for k, e in n_col:
                    row[at + k] = row.get(at + k, 0) - e
                span.add_sparse(row)
    null = span.kernel_basis()
    p = f.characteristic
    homs = []
    for j in range(null.ncols):
        flat = null.column(j)
        mat = Matrix(f, [flat[r * t : (r + 1) * t] for r in range(s)], t)
        x_rows = _sparse_rows(mat)
        for g, m_rows, n_rows in checks:
            if not _intertwines(m_rows, x_rows, n_rows, p):
                raise SphertwistError(
                    "hom basis element %d fails to intertwine generator %d" % (j, g)
                )
        homs.append(ModuleHom(m, n, mat, validate=False))
    return homs


class HomBasis:
    """Coordinates of maps against a fixed list of module maps.

    The list is factored once.  Its flattened maps are the rows of B
    (n × w), and one rref of [B | I] gives [R | T] with T·B = R.  The
    list is independent exactly when the n pivots of R all lie among
    the first w columns; a dependent list raises SphertwistError.  Then
    R on those pivot columns is the identity, so T inverts B's pivot
    columns, and a map y = x·B of the span has coordinates
    x = y[pivots]·T.  ``coords`` reads them off this way and then
    recomposes Σ xᵢ·hᵢ and compares it with the map exactly, so a map
    outside the span raises SphertwistError rather than returning the
    coordinates of its pivot entries.
    """

    def __init__(self, field, homs):
        self.field = field
        self.homs = list(homs)
        self._flats = []  # (column, entry) pairs of each flattened map
        if not homs:
            return
        self._shape = (homs[0].matrix.nrows, homs[0].matrix.ncols)
        width, n = self._shape[0] * self._shape[1], len(homs)
        zero, one = field.zero(), field.one()
        aug = []
        for i, h in enumerate(homs):
            if (h.matrix.nrows, h.matrix.ncols) != self._shape:
                raise ShapeError("hom basis maps of different shapes")
            flat = _flatten(h.matrix)
            self._flats.append([(j, e) for j, e in enumerate(flat) if e])
            tail = [zero] * n
            tail[i] = one
            aug.append(flat + tail)
        r, pivots = rref(Matrix(field, aug, width + n))
        if pivots[-1] >= width:
            raise SphertwistError("hom basis is linearly dependent")
        self._pivots = pivots
        self._transform = Matrix(field, [row[width:] for row in r.rows], n)

    def coords(self, mat):
        """The coordinates x with Σ xᵢ·hᵢ = mat; raises outside the span."""
        f = self.field
        if not self._flats:
            if mat.is_zero():
                return []
            raise SphertwistError("nonzero map against an empty hom basis")
        if (mat.nrows, mat.ncols) != self._shape:
            raise ShapeError("map shape does not match the hom basis")
        y = _flatten(mat)
        x = self._transform.apply_to_row([y[j] for j in self._pivots])
        residue = y  # becomes y − Σ xᵢ·hᵢ, which must vanish
        for c, pairs in zip(x, self._flats):
            if c:
                for j, e in pairs:
                    residue[j] -= c * e
        p = f.characteristic
        if any(e % p for e in residue) if p else any(residue):
            raise SphertwistError("map escapes the hom basis")
        return x


def _flatten(mat):
    return [e for row in mat.rows for e in row]


def _nonzero_cells(mat):
    """The (row, column) cells of the nonzero entries of mat, in
    row-major order; entries over F_p are read modulo p."""
    p = mat.field.characteristic
    return [
        (r, c)
        for r, row in enumerate(mat.rows)
        for c, e in enumerate(row)
        if (e % p if p else e)
    ]


def generator_indices(a):
    """Indices of a small set of basis elements generating the algebra."""
    if a._generator_cache is not None:
        return a._generator_cache
    f = a.field
    span = SpanBuilder(f, a.dim)
    span.add(a.unit)
    gens = []
    elements = [list(r) for r in span.rows]
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
    if isinstance(vectors, Matrix):
        if vectors.ncols == width:
            return vectors
        if vectors.nrows == width:
            return vectors.transpose()
        raise ShapeError("subspace matrix does not fit the module")
    return Matrix(field, [[field.coerce(c) for c in v] for v in vectors], width)


def submodule(m, vectors, check=True):
    """(module on the subspace, inclusion hom).  Rows span the subspace."""
    f = m.algebra.field
    rows = row_space_canonical(_as_rows(f, vectors, m.dim))
    span = SpanBuilder(f, m.dim)
    for r in rows.rows:
        span.add(list(r))
    d = rows.nrows
    pivots = list(span.pivots)

    def coords(vec):
        if check and not span.contains(vec):
            raise NotASubmodule("vector leaves the subspace", witness=vec)
        return [vec[p] for p in pivots]

    action = [
        Matrix(f, [coords(mat.apply_to_row(r)) for r in rows.rows], d)
        for mat in m.action
    ]
    sub = Module(m.algebra, d, action, validate=False)
    incl = ModuleHom(sub, m, rows, validate=False)
    return sub, incl


def quotient(m, vectors):
    """(quotient module, projection hom) by an action-stable subspace."""
    f = m.algebra.field
    span = SpanBuilder(f, m.dim)
    for r in _as_rows(f, vectors, m.dim).rows:
        span.add(r)
    for r in span.rows:
        for i, mat in enumerate(m.action):
            if not span.contains(mat.apply_to_row(r)):
                raise NotASubmodule(
                    "subspace not stable under basis element %d" % i, witness=r
                )
    q = SpanQuotient(span)
    one = f.one()
    # the image of the j-th unit row under M is row j of M
    action = [
        Matrix(f, [q.project(mat.rows[j]) for j in q.kept], q.dim)
        for mat in m.action
    ]
    out = Module(m.algebra, q.dim, action, validate=False)
    proj = ModuleHom(
        m,
        out,
        Matrix(f, [q.project_sparse({j: one}) for j in range(m.dim)], q.dim),
        validate=False,
    )
    return out, proj


def balanced_tensor(a, right_mats, left_mats):
    """M ⊗_A N, as the flat space M ⊗ N modulo its balancing relations.

    ``right_mats[s]`` is the action of basis element s of a on M (row u
    is u·s), and ``left_mats[s]`` its action on N (row x is s·x): the
    action lists of a right module over a and of a right module over
    opposite(a) serve.  The pair (u, x) sits at u·dim N + x, first
    factor major.  Returns the `SpanQuotient` of the span of the
    relations (u·s) ⊗ x − u ⊗ (s·x); its ``dim`` is dim M ⊗_A N.

    The relations are fed sparsely into one `SpanBuilder`, and only for
    s in `generator_indices`.  That spans the same subspace as the
    relations of every s.  For a product st,

        (u·st) ⊗ x − u ⊗ (st·x)
            = [(u·s)·t ⊗ x − (u·s) ⊗ (t·x)] + [(u·s) ⊗ (t·x) − u ⊗ s·(t·x)],

    the t-relation at (u·s, x) plus the s-relation at (u, t·x), both
    sums of relations because a relation is linear in each factor; the
    unit gives 0; and a relation is linear in s.  Since the span is the
    same, so are its canonical rows, kept columns and projections.

    It has two callers, and each uses it as the flat route beside a
    derived one read through the Yoneda kernel: step (d) of
    `spherical.tilting_audit`, against Tor₀, and the collapse audit of
    the counit triangle, `twist._balanced_collapse_dim`.  Tor and the
    derived tensor square do not use it (see `homology`).
    """
    ni = right_mats[0].nrows if right_mats else 0
    nd = left_mats[0].nrows if left_mats else 0
    span = SpanBuilder(a.field, ni * nd)
    for s in generator_indices(a):
        l_rows = _sparse_rows(left_mats[s])
        for u, r_row in enumerate(_sparse_rows(right_mats[s])):
            at = u * nd
            for x, l_row in enumerate(l_rows):
                row = {k * nd + x: c for k, c in r_row}
                for k, c in l_row:
                    row[at + k] = row.get(at + k, 0) - c
                span.add_sparse(row)
    return SpanQuotient(span)


def m_basis_row(field, dim, j):
    v = [field.zero()] * dim
    v[j] = field.one()
    return v


def image_of(h):
    """(image submodule of target, inclusion)."""
    return submodule(h.target, h.matrix, check=False)


def kernel_of(h):
    """(kernel submodule of source, inclusion)."""
    # rows v with v·M = 0  ⇔  Mᵀ·vᵀ = 0
    cols = kernel_basis(h.matrix.transpose())
    return submodule(h.source, cols.transpose(), check=False)


def cokernel_of(h):
    """(cokernel quotient of target, projection)."""
    return quotient(h.target, h.matrix)


def direct_sum(mods):
    """(sum module, injection homs, projection homs)."""
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
    action = []
    for i in range(a.dim):
        big = Matrix.zero(f, total, total)
        rows = [row[:] for row in big.rows]
        for off, m in zip(offsets, mods):
            blk = m.action[i]
            for r in range(m.dim):
                for c in range(m.dim):
                    rows[off + r][off + c] = blk.rows[r][c]
        action.append(Matrix(f, rows, total))
    s = Module(a, total, action, validate=False)
    injections, projections = [], []
    for off, m in zip(offsets, mods):
        inj = Matrix.zero(f, m.dim, total)
        rows = [row[:] for row in inj.rows]
        for r in range(m.dim):
            rows[r][off + r] = f.one()
        injections.append(ModuleHom(m, s, Matrix(f, rows, total), validate=False))
        prj = Matrix.zero(f, total, m.dim)
        rows = [row[:] for row in prj.rows]
        for r in range(m.dim):
            rows[off + r][r] = f.one()
        projections.append(ModuleHom(s, m, Matrix(f, rows, m.dim), validate=False))
    return s, injections, projections


def module_radical(m):
    """Row basis of m·rad(A), in ambient coordinates."""
    f = m.algebra.field
    rad = radical(m.algebra)
    sb = SpanBuilder(f, m.dim)
    for j in range(rad.ncols):
        for row in m.action_of(rad.column(j)).rows:
            sb.add(row)
    return sb.basis_matrix()


def socle(m):
    """Row basis of the annihilator of rad(A) in m."""
    f = m.algebra.field
    rad = radical(m.algebra)
    if rad.ncols == 0:
        return Matrix.identity(f, m.dim)
    stacked = None
    for j in range(rad.ncols):
        act = m.action_of(rad.column(j))
        stacked = act if stacked is None else stacked.hstack(act)
    cols = kernel_basis(stacked.transpose())
    return row_space_canonical(cols.transpose())


# ---------------------------------------------------------------------------
# simples, covers, add-membership


def simple_modules(a):
    """One simple per isomorphism class, tagged by a lifted idempotent.

    Cached per algebra — callers share the module objects.
    """
    if a._simple_modules_cache is not None:
        return a._simple_modules_cache
    rad_rows = radical(a).transpose()
    out = []
    for e in lift_idempotents(a):
        pe, incl = _idempotent_piece(a, e)
        # top = eA / (eA ∩ rad) — eA·rad = e·rad ⊆ eA, whose coordinates
        # in pe sit at the pivots of pe's canonical rows
        pivots = [next(j for j, c in enumerate(r) if c) for r in incl.matrix.rows]
        sub_rows = [
            [v[p] for p in pivots]
            for v in (a.mul_vec(e, r) for r in rad_rows.rows)
        ]
        top, _ = quotient(pe, sub_rows)
        top.tag = e
        out.append(top)
    # dedupe isomorphism classes: simples are isomorphic iff a nonzero hom exists
    reps = []
    for s in out:
        if any(hom_space(s, r) for r in reps):
            continue
        reps.append(s)
    a._simple_modules_cache = reps
    return reps


def _idempotent_piece(a, e):
    """(e·a as a module, its inclusion into the regular module).

    The inclusion's matrix is the canonical row basis of e·a.  Cached
    per algebra and idempotent.
    """
    key = tuple(e)
    hit = a._piece_cache.get(key)
    if hit is None:
        rows = [a.mul_vec(e, a.basis_vector(i)) for i in range(a.dim)]
        hit = a._piece_cache[key] = submodule(Module.regular(a), rows, check=False)
    return hit


def projective_cover(m):
    """(P, epi) with P a sum of idempotent projectives covering top(m).

    The pieces come from the lifted primitive idempotents, in order (see
    `_cover_by_pieces`).  Each generator v is multiplied by the basis of
    A once, and the epi row of a basis row w of e·A is read off those
    images as v·w = Σ wᵢ·(v·bᵢ), so no action_of(w) is formed.
    """
    return _cover_by_pieces(m, lift_idempotents(m.algebra), "projective cover")


def _cover_by_pieces(m, idempotents, what):
    """(P, epi): m covered by one piece e·A per generator, e from the list.

    Greedy over the idempotents in order: for each e and each basis row
    r, v = r·e is taken as a generator when it lies outside the span of
    m·rad(A) and the cyclic submodules v'·A already taken, and then e·A
    covers v·A.  A generator's images v·bᵢ under the basis of A are
    computed once.  They enlarge the span, and they give its epi block:
    the row for a basis row w of e·A is v·w = Σ wᵢ·(v·bᵢ), the
    coordinates of w times the matrix of those images.

    The epi is validated as a module map and must have full rank.  It
    carries ``cover_idempotents``, naming the summand each block came
    from (the piece is `_idempotent_piece` of it), for callers that need
    the indecomposable decomposition of a module they know to be
    projective.
    """
    a = m.algebra
    f = a.field
    if m.dim == 0:
        z = Module.zero(a)
        epi = ModuleHom(z, m, Matrix.zero(f, 0, 0), validate=False)
        epi.cover_idempotents = []
        return z, epi
    cover_span = SpanBuilder(f, m.dim)
    for r in module_radical(m).rows:
        cover_span.add(r)
    pieces = []
    idems = []
    rows = []
    for e in idempotents:
        for v in m.action_of(e).rows:
            if cover_span.contains(v):
                continue
            pe, incl = _idempotent_piece(a, e)
            images = Matrix(f, [mat.apply_to_row(v) for mat in m.action], m.dim)
            for img in images.rows:
                cover_span.add(img)
            rows.extend(images.apply_to_row(w) for w in incl.matrix.rows)
            pieces.append(pe)
            idems.append(e)
    if not pieces:
        raise SphertwistError("%s of a nonzero module found no generator" % what)
    p_sum, _, _ = direct_sum(pieces)
    big = Matrix(f, rows, m.dim)
    epi = ModuleHom(p_sum, m, big)
    if rank(big) != m.dim:
        raise SphertwistError("%s candidate is not surjective" % what)
    epi.cover_idempotents = idems
    return p_sum, epi


def in_add(m, n):
    """True iff m is a direct summand of a finite power of n.

    Linear criterion: id_m lies in the span of composites m → n → m.
    """
    if m.algebra != n.algebra:
        raise AlgebraMismatch("add-membership across different algebras")
    return _identity_factors(m, hom_space(m, n), hom_space(n, m))


def add_equivalent(m, n):
    """True iff m and n generate the same additive closure: each is a
    summand of a finite power of the other.

    The same criterion as `in_add`, both ways round, from one
    computation of each hom space: id_m is tested first, and id_n only
    when it passes.  A nonzero m with no map into n fails at once (no
    composite is nonzero), so the maps back are then not computed.

    The relation is reflexive: m is a summand of m¹.  So one module
    object passed on both sides is add-equivalent to itself, and no hom
    space is computed (`build_context` passes the cached regular module
    on both sides when the projective part is A_A).  Distinct objects,
    even with equal actions, take the full check.
    """
    if m is n:
        return True
    if m.algebra != n.algebra:
        raise AlgebraMismatch("add-membership across different algebras")
    into = hom_space(m, n)
    if m.dim and not into:
        return False
    back = hom_space(n, m)
    return _identity_factors(m, into, back) and _identity_factors(n, back, into)


def _identity_factors(m, into, back):
    """Whether id_m lies in the span of the composites g·h of maps
    g : m → n from ``into`` and h : n → m from ``back``.

    The span only grows as composites are added, so once id_m lies in
    the span built so far it lies in the whole span, and the answer is
    True without forming the remaining composites.  id_m is tested
    again only when a composite enlarged the span.
    """
    f = m.algebra.field
    if m.dim == 0:
        return True
    span = SpanBuilder(f, m.dim * m.dim)
    ident = _flatten(Matrix.identity(f, m.dim))
    for g in into:
        for h in back:
            if span.add(_flatten(g.matrix.mul(h.matrix))) and span.contains(ident):
                return True
    return False


def restrict_scalars(surj, m):
    """A B-module viewed as a module over the source of p : A → B."""
    if m.algebra != surj.target:
        raise AlgebraMismatch("module is not over the surjection target")
    a = surj.source
    action = [m.action_of(surj.apply(a.basis_vector(i))) for i in range(a.dim)]
    return Module(a, m.dim, action, validate=False)


def endomorphism_algebra(m, tags=()):
    """(End(m) as an Algebra, its factored hom basis).

    Structure constants come from composing hom-basis elements and
    re-expanding in the basis.  The product is function composition —
    the right factor acts first — so for an idempotent projection e onto
    a direct summand, the right ideal e·End(m) collects the maps out of
    the whole module into that summand.  The returned `HomBasis` holds
    the maps (``homs``) and reads coordinates against them.  ``tags``
    are (role, matrix) pairs of endomorphisms of m, recorded by their
    coordinates as the algebra's ``idempotents``, which its constructor
    checks.

    Entry (r, c) of the composite H_j·H_i is Σ_k H_j[r][k]·H_i[k][c],
    and every term vanishes unless column k of H_j and row k of H_i are
    both nonzero.  So when the nonzero columns of H_j miss the nonzero
    rows of H_i the composite is exactly 0, and its coordinates are the
    zero vector; neither the product nor its coordinates are formed.
    The test needs no block structure of m; on a direct sum, maps whose
    blocks do not meet pass it.  The `Algebra` constructor still audits
    the whole table.
    """
    homs = hom_space(m, m)
    d = len(homs)
    f = m.algebra.field
    if d == 0:
        raise SphertwistError("zero module has no unital endomorphism algebra")
    basis = HomBasis(f, homs)
    cells = [_nonzero_cells(h.matrix) for h in homs]
    rows_of = [{r for r, _ in cs} for cs in cells]
    cols_of = [{c for _, c in cs} for cs in cells]
    zero = [f.zero()] * d
    mult = [
        [
            basis.coords(homs[j].matrix.mul(homs[i].matrix))
            if not cols_of[j].isdisjoint(rows_of[i])
            else zero
            for j in range(d)
        ]
        for i in range(d)
    ]
    unit = basis.coords(Matrix.identity(f, m.dim))
    idempotents = [(role, basis.coords(mat)) for role, mat in tags]
    return Algebra(f, mult, unit, idempotents=idempotents), basis


def is_indecomposable(m):
    """(verdict, method) — idempotent search in End(m).

    m is indecomposable exactly when 1 is primitive in End(m), that is,
    when `lift_idempotents` finds one primitive idempotent.  When the
    corner search runs out it raises NotSplit, and that is not a
    verdict: the residue of End(m) may be a division algebra larger than
    the field (m indecomposable), or a split product whose spectral
    idempotents the search did not reach (m decomposable).  So NotSplit
    propagates.
    """
    if m.dim == 0:
        return False, "zero module"
    alg, _ = endomorphism_algebra(m)
    return len(lift_idempotents(alg)) == 1, "idempotent search"


def find_isomorphism(m, n):
    """An explicit invertible hom m → n, or None.

    Tries hom-basis elements and small deterministic combinations; a
    None answer is evidence, not proof, unless dims differ or the hom
    space is zero.
    """
    if m.algebra != n.algebra:
        raise AlgebraMismatch("isomorphism across different algebras")
    if m.dim != n.dim:
        return None
    if m.dim == 0:
        return ModuleHom(m, n, Matrix.zero(m.algebra.field, 0, 0), validate=False)
    f = m.algebra.field
    homs = hom_space(m, n)
    if not homs:
        return None
    for h in homs:
        if rank(h.matrix) == m.dim:
            return h
    import random

    rng = random.Random(23)
    for _ in range(120):
        mat = Matrix.zero(f, m.dim, n.dim)
        acc = mat
        for h in homs:
            c = f.coerce(rng.randint(-4, 4))
            acc = acc.add(h.matrix.scale(c))
        if rank(acc) == m.dim:
            return ModuleHom(m, n, acc, validate=False)
    return None
