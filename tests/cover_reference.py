"""Reference cover layer for the differential tests of `modules`.

These are the routes the package used before its cover layer read action
rows: every row of an action matrix is a 1×d matrix product, a
combination Σ cᵢ·Mᵢ is built term by term, e·A is rebuilt for every
cover generator, and each row of the epi is v·action_of(w).  They are
slow and obviously right; `projective_cover`, `module_radical`,
`submodule`, `quotient`, `Module.action_of` and `Algebra.mul_vec` must
return exactly what these do.  Their vectors are dense lists, read
through `vectors` where they meet the package's spans and idempotents.
"""

from sphertwist.algebra import lift_idempotents, radical
from sphertwist.errors import NotASubmodule, SphertwistError
from sphertwist.exactlin import (
    Matrix,
    SpanBuilder,
    SpanQuotient,
    rank,
    row_space_canonical,
)
from sphertwist.modules import Module, ModuleHom, direct_sum
from vectors import dense, pairs


def m_basis_row(field, dim, j):
    v = [field.zero()] * dim
    v[j] = field.one()
    return v


def _as_rows(field, vectors, width):
    """A Matrix as it is, or a list of dense rows as their Matrix."""
    if isinstance(vectors, Matrix):
        return vectors
    return Matrix(field, [[field.coerce(c) for c in v] for v in vectors], width)


def mul_vec(a, x, y):
    """x·y in the algebra, one field operation at a time."""
    f = a.field
    out = [f.zero()] * a.dim
    for i, xi in enumerate(x):
        if f.is_zero(xi):
            continue
        for j, yj in enumerate(y):
            if f.is_zero(yj):
                continue
            c = f.mul(xi, yj)
            for t, s in a.table[i][j]:
                out[t] = f.add(out[t], f.mul(c, s))
    return out


def action_of(m, avec):
    """Σ cᵢ·Mᵢ, one scaled matrix and one sum per nonzero coefficient."""
    f = m.algebra.field
    out = Matrix.zero(f, m.dim, m.dim)
    for i, c in enumerate(avec):
        if not f.is_zero(c):
            out = out.add(m.action[i].scale(c))
    return out


def _row_times(f, v, mat):
    return Matrix(f, [list(v)], mat.nrows).mul(mat).rows[0]


def submodule(m, vectors, check=True):
    f = m.algebra.field
    rows = row_space_canonical(_as_rows(f, vectors, m.dim))
    span = SpanBuilder(f, m.dim)
    for r in rows.rows:
        span.add(pairs(f, r))
    d = rows.nrows
    pivots = list(span.pivots)

    def coords(vec):
        if check and not span.contains(pairs(f, vec)):
            raise NotASubmodule("vector leaves the subspace", witness=vec)
        return [vec[p] for p in pivots]

    action = []
    for i in range(m.algebra.dim):
        imgs = [_row_times(f, r, m.action[i]) for r in rows.rows]
        action.append(Matrix(f, [coords(v) for v in imgs], d))
    sub = Module(m.algebra, d, action, validate=False)
    return sub, ModuleHom(sub, m, rows, validate=False)


def quotient(m, vectors):
    f = m.algebra.field
    rows = row_space_canonical(_as_rows(f, vectors, m.dim))
    span = SpanBuilder(f, m.dim)
    for r in rows.rows:
        span.add(pairs(f, r))
    for r in rows.rows:
        for i in range(m.algebra.dim):
            if not span.contains(pairs(f, _row_times(f, r, m.action[i]))):
                raise NotASubmodule(
                    "subspace not stable under basis element %d" % i, witness=list(r)
                )
    quotient_span = SpanQuotient(span)
    keep = quotient_span.kept
    d = len(keep)

    def project(vec):
        return dense(f, quotient_span.project(pairs(f, vec)), d)

    reps = [m_basis_row(f, m.dim, j) for j in keep]
    action = [
        Matrix(f, [project(_row_times(f, r, m.action[i])) for r in reps], d)
        for i in range(m.algebra.dim)
    ]
    q = Module(m.algebra, d, action, validate=False)
    proj = Matrix(f, [project(m_basis_row(f, m.dim, j)) for j in range(m.dim)], d)
    return q, ModuleHom(m, q, proj, validate=False)


def module_radical(m):
    f = m.algebra.field
    rad = radical(m.algebra)
    sb = SpanBuilder(f, m.dim)
    for j in range(rad.ncols):
        act = action_of(m, dense(f, rad.column(j), m.algebra.dim))
        for r in range(m.dim):
            sb.add(pairs(f, _row_times(f, m_basis_row(f, m.dim, r), act)))
    return sb.basis_matrix()


def projective_cover(m):
    """(P, epi, cover idempotents) by the old greedy route; the
    idempotents are the package's vectors."""
    a = m.algebra
    f = a.field
    if m.dim == 0:
        z = Module.zero(a)
        return z, ModuleHom(z, m, Matrix.zero(f, 0, 0), validate=False), []
    reg = Module.regular(a)
    cover_span = SpanBuilder(f, m.dim)
    for r in module_radical(m).rows:
        cover_span.add(pairs(f, r))
    pieces, gens = [], []
    for e in lift_idempotents(a):
        e_dense = dense(f, e, a.dim)
        act_e = action_of(m, e_dense)
        for r in range(m.dim):
            v = _row_times(f, m_basis_row(f, m.dim, r), act_e)
            if cover_span.contains(pairs(f, v)):
                continue
            pe_rows = [
                mul_vec(a, e_dense, m_basis_row(f, a.dim, i)) for i in range(a.dim)
            ]
            pe, _ = submodule(reg, pe_rows, check=False)
            pieces.append(pe)
            gens.append((v, pe_rows, e))
            for i in range(a.dim):
                cover_span.add(pairs(f, _row_times(f, v, m.action[i])))
    if not pieces:
        raise SphertwistError("nonzero module with no top")
    p_sum, _, _ = direct_sum(pieces)
    rows = []
    for v, pe_rows, _e in gens:
        pe_mat = row_space_canonical(Matrix(f, pe_rows, a.dim))
        rows.extend(_row_times(f, v, action_of(m, list(w))) for w in pe_mat.rows)
    big = Matrix(f, rows, m.dim)
    epi = ModuleHom(p_sum, m, big)
    if rank(big) != m.dim:
        raise SphertwistError("projective cover candidate is not surjective")
    return p_sum, epi, [e for (_v, _rows, e) in gens]
