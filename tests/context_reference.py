"""The Frobenius context on the whole-T route, kept as a test oracle.

`frobenius.build_context` reads the composites of End(T) off the supports
of the hom-basis maps and the ideal [P](T, T) off the table of
Λ = End(T), as Λ·e_P·Λ for the projector e_P onto the projective part of
T = P ⊕ ⊕ Xᵢ.  The routine here builds the same fields the older way:
every one of the d² composites of the hom basis is formed and written
back in coordinates, and the ideal is the factoring subspace of all of T
from one `stable_hom(T, T)`, through the injective envelope of T.
`FrobeniusContext` splits the block tags of End(T) into e_P and the copy
projectors by the multiplicities; `block_projectors` groups them by
marking each block with the summand it is a copy of.
"""

from types import SimpleNamespace

from sphertwist.algebra import from_structure_constants, quotient_surjection
from sphertwist.exactlin import Matrix
from sphertwist.frobenius import stable_hom
from sphertwist.modules import HomBasis, direct_sum, hom_space
from vectors import dense


def whole_t_context(projective_part, extra_summands):
    """The fields of the context for T = projective_part ⊕ ⊕ Xᵢ^{aᵢ}."""
    blocks = [projective_part]
    for x, mult in extra_summands:
        blocks.extend([x] * mult)
    total, injs, projs = direct_sum(blocks)
    f = total.algebra.field
    homs = hom_space(total, total)
    d = len(homs)
    basis = HomBasis(homs)

    def coords(mat):
        return dense(f, basis.coords(mat), d)

    mult = [
        [coords(homs[j].matrix.mul(homs[i].matrix)) for j in range(d)]
        for i in range(d)
    ]
    unit = coords(Matrix.identity(f, total.dim))
    idempotents = [
        ("block:%d" % b, coords(prj.matrix.mul(inj.matrix)))
        for b, (inj, prj) in enumerate(zip(injs, projs))
    ]
    endo = from_structure_constants(f, mult, unit, idempotents=idempotents)
    _, through = stable_hom(total, total)
    ideal = [basis.coords(h.matrix) for h in through]
    to_stable = quotient_surjection(endo, ideal)
    return SimpleNamespace(
        total=total,
        hom_basis=homs,
        endo=endo,
        proj_ideal=ideal,
        to_stable=to_stable,
        stable_endo=to_stable.target,
    )


def block_projectors(endo, extra_summands):
    """(e_proj, e_copies) by block bookkeeping: each block of
    T = P ⊕ ⊕ Xᵢ^{aᵢ} is marked with the extra summand it is a copy of
    (None for P), and the block tags of End(T), one per block in block
    order, are grouped by that mark."""
    block_owner = [None]
    for idx, (_, mult) in enumerate(extra_summands):
        block_owner.extend([idx] * mult)
    block_idems = [v for _, v in endo.idempotents]
    e_copies = [
        [v for v, owner in zip(block_idems, block_owner) if owner == idx]
        for idx in range(len(extra_summands))
    ]
    return block_idems[0], e_copies
