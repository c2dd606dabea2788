"""Reference builders for the differential tests of the balanced tensor.

These are the dense routes `balanced_tensor`, `SpanQuotient` and the
Kronecker-free Tor and equivariance code replaced: one dense relation
row per basis element of the algebra (not only per generator) and per
pair of basis vectors, a quotient read off unit vectors, Tor from
the Kronecker product h ⊗ 1 times a projection matrix, and the
equivariance products (A ⊗ 1)·μ and (1 ⊗ B)·μ formed in full.  They are
slow and obviously right; the package must give exactly the same rows,
kept columns, projections, dimensions and products.
"""

from sphertwist.exactlin import Matrix, SpanBuilder, SpanQuotient, kronecker, rank
from sphertwist.resolutions import minimal_resolution
from vectors import dense, pairs


def balancing_rows(a, m, n):
    """Relations x·s ⊗ y − x ⊗ s·y spanning the balanced quotient.

    m is a right module over a, n a right module over opposite(a); the
    flat space indexes pairs first-factor-major.
    """
    f = a.field
    d = m.dim * n.dim
    out = []
    for k in range(a.dim):
        act_m = m.action[k]
        act_n = n.action[k]
        for i in range(m.dim):
            xi = list(act_m.rows[i])
            for j in range(n.dim):
                yj = list(act_n.rows[j])
                row = [f.zero()] * d
                for s in range(m.dim):
                    if not f.is_zero(xi[s]):
                        row[s * n.dim + j] = f.add(row[s * n.dim + j], xi[s])
                for t in range(n.dim):
                    if not f.is_zero(yj[t]):
                        row[i * n.dim + t] = f.sub(row[i * n.dim + t], yj[t])
                out.append(row)
    return out


def tensor_balancing_rows(side_alg, right_mats, left_mats, ni, nd):
    """Relations (u·s) ⊗ v − u ⊗ (s·v), first-factor-major."""
    f = side_alg.field
    out = []
    for s in range(side_alg.dim):
        rmat = right_mats[s]
        lmat = left_mats[s]
        for u in range(ni):
            ru = rmat.rows[u]
            for v in range(nd):
                lv = lmat.rows[v]
                row = [f.zero()] * (ni * nd)
                for k, c in enumerate(ru):
                    if not f.is_zero(c):
                        row[k * nd + v] = f.add(row[k * nd + v], c)
                for k, c in enumerate(lv):
                    if not f.is_zero(c):
                        row[u * nd + k] = f.sub(row[u * nd + k], c)
                out.append(row)
    return out


def reduction_data(f, rel_rows, dim):
    """Projection matrix onto the quotient by a span, via free coordinates."""
    sb = SpanBuilder(f, dim)
    for r in rel_rows:
        sb.add(pairs(f, r))
    q = SpanQuotient(sb)
    rows = []
    for k in range(dim):
        e = [f.zero()] * dim
        e[k] = f.one()
        rows.append(dense(f, q.project(pairs(f, e)), q.dim))
    return Matrix(f, rows, q.dim)


class FlatQuotient:
    """Coordinates on a vector space modulo a spanned subspace."""

    def __init__(self, field, width, rows):
        self.field = field
        self.width = width
        self.span = SpanBuilder(field, width)
        for r in rows:
            self.span.add(pairs(field, r))
        pivots = set(self.span.pivots)
        self.kept = [j for j in range(width) if j not in pivots]

    @property
    def dim(self):
        return len(self.kept)

    def project(self, vec):
        """The class of a dense vector, as a dense vector."""
        q = SpanQuotient(self.span)
        return dense(self.field, q.project(pairs(self.field, vec)), q.dim)


def tor_from_resolution(a, res, other, count, second=False):
    """[dim Tor_i) from a resolution of one side, through the Kronecker
    product of each differential with the identity of the other side."""
    f = a.field
    ident = Matrix.identity(f, other.dim)
    projs = []
    for t in res.terms[: count + 1]:
        m, n = (other, t) if second else (t, other)
        projs.append(reduction_data(f, balancing_rows(a, m, n), m.dim * n.dim))
    ranks = [0]
    for i, h in enumerate(res.maps[:count]):
        flat = kronecker(ident, h.matrix) if second else kronecker(h.matrix, ident)
        ranks.append(rank(flat.mul(projs[i])))
    out = []
    for i in range(count):
        if i < len(projs):
            dim_here = projs[i].ncols
            incoming = ranks[i + 1] if i + 1 < len(ranks) else 0
            outgoing = ranks[i] if i < len(ranks) else 0
            out.append(dim_here - incoming - outgoing)
        else:
            out.append(0)
    return out


def tor_dims(a, m, n, count, resolve_second=False):
    """[dim Tor_i(m, n) for i in 0..count) by the Kronecker route."""
    res = minimal_resolution(n if resolve_second else m, cap=count)
    return tor_from_resolution(a, res, m if resolve_second else n, count, resolve_second)


def equivariance_products(act_first, act_second, mu):
    """((A ⊗ 1)·μ, (1 ⊗ B)·μ) for μ on the flat space, first factor major."""
    f = mu.field
    ident_first = Matrix.identity(f, act_first.nrows)
    ident_second = Matrix.identity(f, act_second.nrows)
    return (
        kronecker(act_first, ident_second).mul(mu),
        kronecker(ident_first, act_second).mul(mu),
    )
