"""Projective-summand stripping, kept as a test oracle.

`frobenius.suspension_power` takes exactly |k| minimal syzygy or
cosyzygy steps: its docstring proves that over a self-injective algebra
no step leaves a projective summand.  The routines here are the older
route, which split off projective summands after every step by
pairwise hom-space scans against every indecomposable projective.
Nothing here is cached.
"""

from sphertwist.exactlin import Preimages, rank
from sphertwist.frobenius import (
    _indecomposable_projectives,
    _require_self_injective,
    cosyzygy,
    syzygy,
)
from sphertwist.modules import ModuleHom, hom_space, kernel_of


def strip_projective_summands(m):
    """Split off projective direct summands until none remain.

    An idempotent projective P divides m exactly when some pair of
    hom-basis elements u : P → m, v : m → P composes to an invertible
    endomorphism of P — End(P) is local, so a sum of non-units can never
    be the identity.  Each hit is split off through the explicit
    idempotent v·(uv)⁻¹·u on m and the complement kept.
    """
    projs = _indecomposable_projectives(m.algebra)
    cur = m
    while cur.dim:
        split = None
        for p in projs:
            if p.dim > cur.dim:
                continue
            into = hom_space(p, cur)
            back = hom_space(cur, p)
            for u in into:
                for v in back:
                    w = u.matrix.mul(v.matrix)
                    if rank(w) == p.dim:
                        split = (p, u, v, w)
                        break
                if split:
                    break
            if split:
                break
        if split is None:
            break
        p, u, v, w = split
        w_inv = Preimages(w).inverse()
        proj_mat = v.matrix.mul(w_inv).mul(u.matrix)
        cur, _ = kernel_of(ModuleHom(cur, cur, proj_mat, validate=False))
    return cur


def suspension_power(m, k):
    """Iterated cosyzygy (k > 0) or syzygy (k < 0), with projective
    summands stripped after every step so dimensions stay tight."""
    _require_self_injective(m.algebra)
    cur = strip_projective_summands(m)
    step = cosyzygy if k > 0 else syzygy
    for _ in range(abs(k)):
        cur = strip_projective_summands(step(cur))
    return cur
