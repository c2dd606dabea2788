"""The twist and its counit triangle on the injective-ladder route, kept
as a test oracle.

`twist._twist_core` and `twist.twist_triangle_check` read every Hom into an
injective coresolution by duality and Yoneda off a recorded resolution
of D(c) over the opposite algebra.  The routines here compute the same
complexes the older way: an explicit ladder of injective envelopes and
cokernels, one `hom_space` system per ladder term, each factored into a
`HomBasis`, and every composite written back in hom-basis coordinates.
"""

from sphertwist.algebra import opposite
from sphertwist.errors import AuditFailed, CapExceeded
from exactlin_reference import solve_matrix
from sphertwist.exactlin import Matrix, rank
from sphertwist.frobenius import injective_envelope
from sphertwist.homology import left_module_along
from sphertwist.modules import (
    HomBasis,
    Module,
    ModuleHom,
    balanced_tensor,
    cokernel_of,
    hom_space,
    kernel_of,
    restrict_scalars,
)
from sphertwist.twist import (
    ChainComplex,
    ChainMap,
    _over,
    cohomology_dims,
    cone,
)


def injective_ladder(m, length):
    """(terms, maps): terms 0..length of a minimal injective
    coresolution of m, each map the cokernel projection followed by the
    next envelope; it stops early at an injective cokernel."""
    terms, maps = [], []
    cur, prev_proj = m, None
    for j in range(length + 1):
        if cur.dim == 0:
            break
        env, emb = injective_envelope(cur)
        terms.append(env)
        if j:
            maps.append(prev_proj.compose(emb))
        cur, prev_proj = cokernel_of(emb)
    if not terms:
        return [Module.zero(m.algebra)], []
    return terms, maps


def hom_into(lam, src, src_left_mults, tgt):
    """(Hom(src, tgt) as a right lam-module, its hom basis, its solver);
    a acts by (f·a)(x) = f(a·x)."""
    homs = hom_space(src, tgt)
    if not homs:
        return Module.zero(lam), [], HomBasis([])
    solver = HomBasis(homs)
    action = [
        Matrix.from_pairs(
            lam.field, [solver.coords(pre.mul(h.matrix)) for h in homs], len(homs)
        )
        for pre in src_left_mults
    ]
    return Module(lam, len(homs), action), homs, solver


def hom_into_ladder(lam, src, src_left_mults, terms, maps, count):
    """Hom(src, −) on the first count degrees of a ladder:
    (modules, hom bases, solvers, differentials)."""
    mods, bases, solvers = [], [], []
    for j in range(count):
        if j < len(terms):
            hm, hb, sol = hom_into(lam, src, src_left_mults, terms[j])
        else:
            hm, hb, sol = Module.zero(lam), [], HomBasis([])
        mods.append(hm)
        bases.append(hb)
        solvers.append(sol)
    diffs = []
    for j in range(count - 1):
        s, t = mods[j], mods[j + 1]
        if s.dim == 0 or t.dim == 0 or j >= len(maps):
            diffs.append(ModuleHom(s, t, Matrix.zero(lam.field, s.dim, t.dim),
                                   validate=False))
            continue
        rows = [solvers[j + 1].coords(h.matrix.mul(maps[j].matrix)) for h in bases[j]]
        diffs.append(ModuleHom(s, t, Matrix.from_pairs(lam.field, rows, t.dim)))
    return mods, bases, solvers, diffs


def twist_complex(p, c, kernel, top=None):
    """(twist complex, ladder terms, ladder maps): Hom(ker p, I•) on an
    injective ladder of c, cut by a kernel term past the projective
    dimension of the kernel, or truncated at degree max(top, 1).
    ``kernel`` is `twist._kernel_data` of p, whose second entry carries
    the transposed left multiplications of the kernel."""
    lam = p.source
    c_mod = _over(c, lam)
    k_mod, acting, res = kernel
    if k_mod.dim == 0:
        return ChainComplex(lam, 0, [], []), None, None
    complete = not res.truncated
    if complete:
        depth = res.length + 1
    elif top is None:
        raise CapExceeded("kernel has no finite resolution within the cap")
    else:
        depth = max(top, 1)
    ladder, ladder_maps = injective_ladder(c_mod, depth + 1)
    lmults = [mat.transpose() for mat in acting.action]
    mods, _bases, _solvers, diffs = hom_into_ladder(
        lam, k_mod, lmults, ladder, ladder_maps, depth + 2)
    if not complete:
        return (ChainComplex(lam, 0, mods[: depth + 1], diffs[:depth], depth),
                ladder, ladder_maps)
    ker_mod, ker_incl = kernel_of(diffs[depth])
    last = diffs[depth - 1]
    if ker_mod.dim:
        co = solve_matrix(ker_incl.matrix.transpose(), last.matrix.transpose())
        corestricted = ModuleHom(last.source, ker_mod, co.transpose())
    else:
        corestricted = ModuleHom(last.source, ker_mod,
                                 Matrix.zero(lam.field, last.source.dim, 0),
                                 validate=False)
    cx = ChainComplex(lam, 0, mods[:depth] + [ker_mod],
                      diffs[: depth - 1] + [corestricted])
    return cx, ladder, ladder_maps


def balanced_collapse_dim(p, homs, solver):
    """dim of Hom(B, I) ⊗_B B, B acting by precomposition with left
    multiplication."""
    b = p.target
    if not homs:
        return 0
    lefts = [b.left_mult_matrix(b.basis_vector(g)) for g in range(b.dim)]
    right_action = [
        Matrix.from_pairs(
            b.field, [solver.coords(pre.mul(h.matrix)) for h in homs], len(homs)
        )
        for pre in lefts
    ]
    return balanced_tensor(Module(b, len(homs), right_action, validate=False),
                           Module(opposite(b), b.dim, lefts, validate=False)).dim


def triangle_profiles(p, c, kernel):
    """(twist complex, cone profile, window, cone dead) of the counit
    Hom_A(B, I•) → I• evaluated at the unit, on the ladder of one
    module c in degree 0."""
    lam = p.source
    stalk = _over(c, lam)
    twist, ladder, ladder_maps = twist_complex(p, c, kernel)
    if ladder is None:
        depth = 0
        ladder, ladder_maps = injective_ladder(stalk, 1)
    else:
        depth = kernel[2].length + 1
    srb_terms, srb_bases, srb_solvers, srb_maps = hom_into_ladder(
        lam, restrict_scalars(p, Module.regular(p.target)),
        left_module_along(p).action, ladder, ladder_maps, len(ladder))
    gammas = []
    for hm, hb, sol, i_term in zip(srb_terms, srb_bases, srb_solvers, ladder):
        rows = [h.apply(p.target.unit) for h in hb]
        gamma = ModuleHom(hm, i_term, Matrix.from_pairs(lam.field, rows, i_term.dim))
        if rank(gamma.matrix) != hm.dim:
            raise AuditFailed("evaluation at the unit failed to be injective")
        if balanced_collapse_dim(p, hb, sol) != hm.dim:
            raise AuditFailed("tensor collapse over the target changed the dimension")
        gammas.append(gamma)
    srb_cx = ChainComplex(lam, 0, srb_terms, srb_maps)
    ladder_cx = ChainComplex(lam, 0, list(ladder), list(ladder_maps))
    cn = cone(ChainMap(srb_cx, ladder_cx, 0, gammas))
    window = (-1, depth)
    cone_dims = {
        k: v for k, v in cohomology_dims(cn).items() if window[0] <= k <= window[1]
    }
    return twist, cone_dims, window, not cohomology_dims(cn)
