"""Which-simple questions answered by hom-space scans, kept as test oracles.

`modules.simple_modules`, `frobenius.nakayama_permutation` and
`spherical._summand_simple_positions` tell simples apart by one Yoneda
read, M·e ≠ 0 (`modules.meets`).  The routines here are the older
bodies: each solves one `hom_space` system per pair of modules, and the
socle is built as a submodule.  Nothing here is cached.
"""

from sphertwist.algebra import lift_idempotents, radical
from sphertwist.errors import SphertwistError
from sphertwist.modules import (
    _idempotent_piece,
    hom_space,
    quotient,
    simple_modules,
    socle,
    submodule,
)


def tops(a):
    """top(e·A) for every lifted primitive e, tagged by e, before dedupe."""
    rad_rows = radical(a).transpose().pairs
    out = []
    for e in lift_idempotents(a):
        pe, incl = _idempotent_piece(a, e)
        at = {row[0][0]: k for k, row in enumerate(incl.matrix.pairs)}
        sub_rows = [
            [(at[j], x) for j, x in a.mul_vec(e, r) if j in at] for r in rad_rows
        ]
        top, _ = quotient(pe, sub_rows)
        top.tag = e
        out.append(top)
    return out


def simple_reps(a):
    """One top per isomorphism class: simples are isomorphic iff a
    nonzero hom exists."""
    reps = []
    for s in tops(a):
        if not any(hom_space(s, r) for r in reps):
            reps.append(s)
    return reps


def nakayama_permutation(a):
    """sigma[i] = j when the socle of the i-th idempotent projective,
    built as a submodule, has a nonzero hom to the j-th simple of equal
    dimension."""
    simples = simple_modules(a)
    sigma = []
    for s in simples:
        pe, _ = _idempotent_piece(a, s.tag)
        soc_mod, _ = submodule(pe, socle(pe), check=False)
        hits = [
            j
            for j, t in enumerate(simples)
            if soc_mod.dim == t.dim and hom_space(soc_mod, t)
        ]
        if len(hits) != 1:
            raise SphertwistError("socle of an idempotent projective is not simple")
        sigma.append(hits[0])
    if sorted(sigma) != list(range(len(simples))):
        raise SphertwistError("socle matching is not a permutation")
    return tuple(sigma)


def summand_simple_positions(ctx):
    """The simple of each extra summand over the stable quotient: the
    one the piece ē·B of the image ē of a copy's idempotent maps onto."""
    con = ctx.stable_endo
    simples = simple_modules(con)
    pos = []
    for copies in ctx.e_copies:
        ideal, _ = _idempotent_piece(con, ctx.to_stable.apply(copies[0]))
        hits = [j for j, s in enumerate(simples) if hom_space(ideal, s)]
        if len(hits) != 1:
            return None
        pos.append(hits[0])
    if sorted(pos) != list(range(len(simples))):
        return None
    return pos
