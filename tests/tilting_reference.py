"""End-recovery of the tilting audit by solving the hom space.

`spherical.tilting_audit` reads dim End(M) of each side module M off the
resolution it already holds (Ext⁰(M, M) by Yoneda) and compares it, and
the rank of the other side's action family, with the dimension of the
side algebra.  This oracle solves Hom(M, M) instead, reads each action
matrix's coordinates in that basis (which raises if a matrix is not an
endomorphism), and asks that the coordinate rows have full rank.
"""

from sphertwist.exactlin import Matrix, rank
from sphertwist.modules import HomBasis, hom_space


def embedding_bijective(side_alg, mats, module):
    """Whether the action embedding hits every module endomorphism."""
    homs = hom_space(module, module)
    if len(homs) != side_alg.dim:
        return False
    f = module.algebra.field
    coords = HomBasis(homs).coords
    rows = [coords(m) for m in mats]
    return rank(Matrix.from_pairs(f, rows, len(homs))) == side_alg.dim
