"""Unit cancellation by a rescan from the lowest degree after every hit,
kept as a test oracle.

`twist._eliminate_units` cancels the invertible blocks of a complex of
covered projectives in one pass up the degrees.  The routine here is the
older loop: after each cancellation it scans again from the lowest
differential, and it stops when a whole scan finds no invertible block.
Both must return the same complex, term records and matrices alike.
"""

from sphertwist.errors import AuditFailed
from sphertwist.exactlin import Matrix, Preimages, rank
from sphertwist.modules import ModuleHom, _covered, _idempotent_piece, _piece_sum
from sphertwist.twist import ChainComplex, cohomology_dims


def eliminate_units(px):
    """The complex px with every invertible block between two pieces of
    consecutive terms cancelled, each hit followed by a fresh scan."""
    if not px.terms:
        return px
    lam = px.algebra
    field = lam.field
    degs = list(range(px.lo, px.hi + 1))
    idems = {k: _covered(t).idempotents for k, t in zip(degs, px.terms)}
    mats = {k: px.differential(k).matrix for k in range(px.lo, px.hi)}
    before = cohomology_dims(px)

    def offsets(k):
        out = []
        at = 0
        for e in idems.get(k, []):
            dim = _idempotent_piece(lam, e)[0].dim
            out.append((at, dim))
            at += dim
        return out

    changed = True
    while changed:
        changed = False
        for k in sorted(mats):
            d = mats[k]
            hit = None
            for ri, (ro, rd) in enumerate(offsets(k)):
                for ci, (co, cd) in enumerate(offsets(k + 1)):
                    if rd != cd or rd == 0:
                        continue
                    block = d.submatrix(range(ro, ro + rd), range(co, co + cd))
                    if rank(block) == rd:
                        hit = (ri, ro, rd, ci, co, cd, block)
                        break
                if hit:
                    break
            if not hit:
                continue
            ri, ro, rd, ci, co, cd, block = hit
            inv = Preimages(block).inverse()
            keep_rows = [r for r in range(d.nrows) if not ro <= r < ro + rd]
            keep_cols = [cc for cc in range(d.ncols) if not co <= cc < co + cd]
            d_oo = d.submatrix(keep_rows, keep_cols)
            d_os = d.submatrix(keep_rows, range(co, co + cd))
            d_ro = d.submatrix(range(ro, ro + rd), keep_cols)
            mats[k] = d_oo.sub(d_os.mul(inv).mul(d_ro))
            up = mats.get(k - 1)
            if up is not None:
                mats[k - 1] = up.submatrix(range(up.nrows), keep_rows)
            down = mats.get(k + 1)
            if down is not None:
                mats[k + 1] = down.submatrix(keep_cols, range(down.ncols))
            idems[k] = [e for i, e in enumerate(idems[k]) if i != ri]
            idems[k + 1] = [e for i, e in enumerate(idems[k + 1]) if i != ci]
            changed = True
            break
    rebuilt = {k: _piece_sum(lam, idems[k]) for k in degs}
    map_list = []
    for k in range(degs[0], degs[-1]):
        src, tgt = rebuilt[k], rebuilt[k + 1]
        mat = mats.get(k)
        if mat is None or src.dim == 0 or tgt.dim == 0:
            map_list.append(ModuleHom(
                src, tgt, Matrix.zero(field, src.dim, tgt.dim), validate=False))
        else:
            map_list.append(ModuleHom(src, tgt, mat))
    out = ChainComplex(lam, degs[0], [rebuilt[k] for k in degs], map_list)
    if cohomology_dims(out) != before:
        raise AuditFailed("unit elimination changed the cohomology")
    return out
