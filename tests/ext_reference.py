"""Reference Ext for the differential tests of `homology.ext_dims`.

This is the hom-space route: resolve the first argument minimally, take
the canonical basis of Hom(Pᵢ, N) from `hom_space` for every term, and
write precomposition with each differential in those bases through a
factored `HomBasis`.  It solves one intertwining system per term and
reads nothing from the recorded covers; the Yoneda route must return
exactly the same dimensions.
"""

from sphertwist.errors import SphertwistError
from sphertwist.exactlin import Matrix, rank
from sphertwist.modules import HomBasis, hom_space
from sphertwist.resolutions import minimal_resolution


def ext_dims(a, m, n, count):
    """[dim Ext^i(m, n) for i in 0..count), from hom spaces of the terms."""
    if m.algebra is not a or n.algebra is not a:
        raise SphertwistError("ext arguments live over a different algebra")
    if count < 1:
        return []
    res = minimal_resolution(m, cap=count)
    f = a.field
    spaces = [hom_space(t, n) for t in res.terms]
    # matrix of precomposition with maps[i]: hom(terms[i], n) -> hom(terms[i+1], n)
    ranks = [0]
    for i, h in enumerate(res.maps):
        src = spaces[i]
        tgt = spaces[i + 1]
        if not src or not tgt:
            ranks.append(0)
            continue
        coords = HomBasis(tgt).coords
        rows = [coords(h.compose(g).matrix) for g in src]
        ranks.append(rank(Matrix.from_pairs(f, rows, len(tgt))))
    out = []
    for i in range(count):
        if i < len(spaces):
            dim_here = len(spaces[i])
            incoming = ranks[i] if i < len(ranks) else 0
            outgoing = ranks[i + 1] if i + 1 < len(ranks) else 0
            out.append(dim_here - incoming - outgoing)
        else:
            out.append(0)
    return out
