"""Reference hom space for the differential tests of `modules.hom_space`.

This is the dense route: for each algebra generator g the intertwining
equations M_g·X − X·N_g = 0 are the Kronecker block
M_g ⊗ I − I ⊗ N_gᵀ; the blocks are stacked into one system, its kernel
is the hom space, and every basis hom is validated on every algebra
basis element.  It is slow and obviously right; the sparse solver must
return exactly the same matrices.
"""

from sphertwist import modules
from sphertwist.errors import AlgebraMismatch
from sphertwist.exactlin import Matrix, kernel_basis, kronecker
from sphertwist.modules import ModuleHom, generator_indices
from vectors import dense


def hom_space(m, n):
    """rref-canonical basis of all module maps m → n, from the dense system."""
    if m.algebra != n.algebra:
        raise AlgebraMismatch("hom between modules over different algebras")
    f = m.algebra.field
    s, t = m.dim, n.dim
    if s == 0 or t == 0:
        return []
    blocks = []
    it = Matrix.identity(f, t)
    i_s = Matrix.identity(f, s)
    for g in generator_indices(m.algebra):
        a_side = kronecker(m.action[g], it)
        b_side = kronecker(i_s, n.action[g].transpose())
        blocks.append(a_side.sub(b_side))
    if blocks:
        stacked = blocks[0]
        for b in blocks[1:]:
            stacked = stacked.vstack(b)
        null = kernel_basis(stacked)
    else:
        # the unit generates everything, so any linear map intertwines
        null = Matrix.identity(f, s * t)
    homs = []
    for j in range(null.ncols):
        flat = dense(f, null.column(j), s * t)
        mat = Matrix(f, [flat[r * t : (r + 1) * t] for r in range(s)], t)
        homs.append(ModuleHom(m, n, mat))  # validates on all basis elements
    return homs


# ---------------------------------------------------------------------------
# module constructions with no caller in the package, kept with their tests


def hom_module(ctx, n):
    """Maps from the chosen generator into n, as a right endo-module.

    The action precomposes: a map total → n pulled back along an
    endomorphism of total.  Returns (module, hom basis); the module's
    coordinates are taken in that basis.
    """
    homs = modules.hom_space(ctx.total, n)
    d = len(homs)
    f = ctx.endo.field
    if d == 0:
        return modules.Module.zero(ctx.endo), []
    coords = modules.HomBasis(homs).coords
    action = [
        Matrix.from_pairs(f, [coords(lam.matrix.mul(h.matrix)) for h in homs], d)
        for lam in ctx.hom_basis
    ]
    return modules.Module(ctx.endo, d, action), homs


def image_of(h):
    """(image submodule of target, inclusion)."""
    return modules.submodule(h.target, h.matrix, check=False)
