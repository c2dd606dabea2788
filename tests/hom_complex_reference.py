"""Hom out of a complex of projectives on the hom-space route, kept as a
test oracle.

`hom_complex` reads Hom(⊕ eᵢ·A, N) ≅ ⊕ N·eᵢ off recorded covers by
Yoneda, and `twist._unit_faithful_on_cohomology` builds Hom(P•, A) out
of the kernel's resolution with the construction the whole twist layer
shares (`homology._yoneda_cochain_modules`).  The routines here compute
the same spaces the older way: one `hom_space` system per block,
factored into a `HomBasis`, and every composite written back in
hom-basis coordinates.  They need no covers, so they also serve a
source without them.  The twist and its counit triangle on the older
injective-ladder route are in `twist_reference`.
"""

from sphertwist.exactlin import Matrix, SpanBuilder, SpanQuotient, kernel_basis, rank
from sphertwist.modules import HomBasis, Module, ModuleHom, hom_space
from sphertwist.resolutions import minimal_resolution
from sphertwist.twist import ChainComplex, _scalar_algebra, _vect
from vectors import dense


def hom_complex(c, d):
    """Total hom complex of c and d, each block a solved hom space; the
    differential sends f to f∘d_d − (−1)^n d_c∘f."""
    field = c.algebra.field
    if not c.terms or not d.terms:
        return ChainComplex(_scalar_algebra(field), 0, [], [])
    n_lo, n_hi = d.lo - c.hi, d.hi - c.lo
    bases, solvers = {}, {}
    for n in range(n_lo, n_hi + 1):
        for k in range(c.lo, c.hi + 1):
            if d.lo <= k + n <= d.hi:
                homs = hom_space(c.term(k), d.term(k + n))
                bases[(k, n)] = homs
                solvers[(k, n)] = HomBasis(homs)
    blocks, terms = {}, []
    for n in range(n_lo, n_hi + 1):
        layout, offset = [], 0
        for k in range(c.lo, c.hi + 1):
            homs = bases.get((k, n), [])
            layout.append((k, homs, offset))
            offset += len(homs)
        blocks[n] = layout
        terms.append(_vect(field, offset))
    neg = field.neg(field.one())
    maps = []
    for n in range(n_lo, n_hi):
        tgt = terms[n - n_lo + 1]
        sign = field.one() if n % 2 == 0 else neg
        rows = []
        for k, homs, _off in blocks[n]:
            for h in homs:
                row = [field.zero()] * tgt.dim
                img = h.matrix.mul(d.differential(k + n).matrix)
                _write_block(row, blocks[n + 1], solvers, k, n + 1, img, field.one())
                img2 = c.differential(k - 1).matrix.mul(h.matrix)
                _write_block(
                    row, blocks[n + 1], solvers, k - 1, n + 1, img2, field.mul(neg, sign)
                )
                rows.append(row)
        maps.append(ModuleHom(
            terms[n - n_lo], tgt, Matrix(field, rows, tgt.dim), validate=False))
    return ChainComplex(_scalar_algebra(field), n_lo, terms, maps)


def _write_block(row, layout, solvers, k, n, mat, scalar):
    field = mat.field
    for kk, homs, off in layout:
        if kk != k:
            continue
        if not homs:
            assert mat.is_zero(), "hom image lands outside the recorded basis"
            return
        for i, x in solvers[(k, n)].coords(mat):
            row[off + i] = field.add(row[off + i], field.mul(scalar, x))
        return
    assert mat.is_zero(), "hom image lands outside the block layout"


def unit_faithful_on_cohomology(p, k_mod, cap=None):
    """Whether the source algebra acts faithfully on the cohomology of
    RHom(ker p, A), from a fresh resolution of the kernel and the hom
    spaces Hom(Pᵢ, A) solved one by one."""
    lam = p.source
    field = lam.field
    res = minimal_resolution(k_mod, cap=cap)
    reg = Module.regular(lam)
    spaces = [hom_space(t, reg) for t in res.terms]
    solvers = [HomBasis(s) for s in spaces]
    pre = []
    for i, h in enumerate(res.maps):
        rows = [solvers[i + 1].coords(h.matrix.mul(f.matrix)) for f in spaces[i]]
        pre.append(Matrix.from_pairs(field, rows, len(spaces[i + 1])))
    cycles, quotients = [], []
    for i, basis in enumerate(spaces):
        n = len(basis)
        if n == 0:
            cycles.append(Matrix.zero(field, 0, 0))
            quotients.append(None)
            continue
        out_mat = pre[i] if i < len(pre) else Matrix.zero(field, n, 0)
        z = (
            kernel_basis(out_mat.transpose()).transpose()
            if out_mat.ncols
            else Matrix.identity(field, n)
        )
        boundaries = SpanBuilder(field, n)
        for r in pre[i - 1].pairs if i > 0 else []:
            boundaries.add(r)
        cycles.append(z)
        quotients.append(SpanQuotient(boundaries))
    flats = []
    for g in range(lam.dim):
        left = lam.left_mult_matrix(lam.basis_vector(g))
        flat = []
        for i, basis in enumerate(spaces):
            if not basis:
                continue
            op = Matrix.from_pairs(
                field, [solvers[i].coords(f.matrix.mul(left)) for f in basis], len(basis)
            )
            z, q = cycles[i], quotients[i]
            for r in range(z.nrows):
                moved = Matrix(field, [list(z.rows[r])], z.ncols).mul(op)
                flat.extend(dense(field, q.project(moved.pairs[0]), q.dim))
        flats.append(flat)
    width = len(flats[0]) if flats else 0
    if width == 0:
        return False
    return rank(Matrix(field, flats, width)) == lam.dim
