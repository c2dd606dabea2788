"""Theorem audits for one additive generator and its distinguished window.

Two independent computations meet here.  The resolution side asks
whether the stable quotient of the endomorphism algebra is perfect with
self-extensions confined to degrees zero and the window; the periodicity
side asks whether the extra summands are rigid below the window and
permuted by the window-fold syzygy.  The two verdicts are asserted to
agree on every input — a disagreement is not a result, it is a defect —
and when they hold the permutation is cross-derived from resolution
shapes and compared against the Nakayama permutation of the stable
quotient.

The tilting certificates live at the bottom of the file.  They pair the
generator with its syzygy companion — the projective part kept, every
extra summand replaced by its syzygy — and study the two hom bimodules
between them.  Each side algebra must be recovered exactly as the
endomorphism ring of either bimodule over the other side, both bimodules
must resolve finitely on both sides, and the balanced tensor of the pair
is compared, through the composition pairing, against the ideal of maps
factoring through projectives.  On windows of three and up the pairing
lands exactly on that ideal.  At window two the syzygy companion
regenerates the original summands, the pairing fills the whole
endomorphism algebra, and the final flag records the miss — the audit
reports what it finds rather than asserting the identification.
"""

from __future__ import annotations

from .errors import AuditFailed, ShapeMismatch, SphertwistError
from .exactlin import Matrix, product_residual, rank, row_space_canonical
from .frobenius import (
    _generator_hom_basis,
    _tagged_generator,
    is_self_injective,
    nakayama_permutation,
    stable_hom,
    suspension_power,
)
from .homology import (
    Bimodule,
    ext_from_resolution,
    left_module_along,
    tor_from_resolution,
)
from .modules import (
    HomBasis,
    _flatten,
    add_equivalent,
    balanced_tensor,
    generator_indices,
    in_add,
    meets,
    simple_modules,
)
from .resolutions import (
    extract_shape,
    minimal_resolution,
    partially_minimal_resolution,
    resolve_past,
    stable_idempotent_module,
    stable_module,
    stable_simples,
)


OPEN_QUESTION = (
    "Unsettled: whether the two verdicts stay equivalent only when the "
    "window is bounded by the dimension of the ambient geometry.  Every "
    "scenario shipped here is zero-dimensional, every window exceeds that "
    "bound, and the verdicts agree on all of them."
)


# ---------------------------------------------------------------------------
# report containers


class SideOne:
    """Resolution-side record: perfectness and the extension profile."""

    def __init__(self, perfect, ext_profile, relatively_spherical):
        self.perfect = perfect
        self.ext_profile = ext_profile
        self.relatively_spherical = relatively_spherical

    @property
    def verdict(self):
        return self.relatively_spherical

    def __repr__(self):
        return "SideOne(perfect=%r, relatively_spherical=%r)" % (
            self.perfect, self.relatively_spherical)


class SideTwo:
    """Periodicity-side record: rigidity, add-periodicity, permutation."""

    def __init__(self, rigid, add_periodic, tau):
        self.rigid = rigid
        self.add_periodic = add_periodic
        self.tau = tau

    @property
    def verdict(self):
        return self.rigid and self.add_periodic and self.tau is not None

    def __repr__(self):
        return "SideTwo(rigid=%r, add_periodic=%r, tau=%r)" % (
            self.rigid, self.add_periodic, self.tau)


class NakayamaComparison:
    """Socle permutation of the stable quotient next to the audit's own.

    The equality is reported, never asserted: the corollary that forces
    it needs a window equal to an ambient dimension of at least three,
    which the zero-dimensional testbed cannot meet.
    """

    def __init__(self, self_injective, sigma, tau_eq_sigma):
        self.self_injective = self_injective
        self.sigma = sigma
        self.tau_eq_sigma = tau_eq_sigma

    def __repr__(self):
        return "NakayamaComparison(self_injective=%r, sigma=%r, tau_eq_sigma=%r)" % (
            self.self_injective, self.sigma, self.tau_eq_sigma)


class SphericalReport:
    """Both sides of the window audit, plus the optional comparisons.

    ``cap`` is the resolution cap the audit ran with; `tilting_audit`
    reads it, with the context and the window, off the report.
    """

    def __init__(self, ctx, t, cap, side1, side2, nakayama=None):
        self.ctx = ctx
        self.t = t
        self.cap = cap
        self.side1 = side1
        self.side2 = side2
        self.agreement = side1.verdict == side2.verdict
        self.nakayama = nakayama
        self.tilting_audit = None
        self.note = OPEN_QUESTION

    def __repr__(self):
        return "SphericalReport(t=%d, side1=%r, side2=%r, agreement=%r)" % (
            self.t, self.side1.verdict, self.side2.verdict, self.agreement)


class TiltingAudit:
    """Outcome of the syzygy-companion certificates.

    ``I0_dims`` splits the hom bimodule out of the companion by source
    block (projective part, syzygy part); ``D0_dims`` splits the one
    into it by target block.  The four flags report what the audit
    found; internal incoherence between independent routes to the same
    number raises instead.  ``tensor_dim`` is the dimension of the
    balanced tensor of the two bimodules over the companion algebra.
    """

    def __init__(self, t, I0_dims, D0_dims, biperfect, rho_iso, lambda_iso,
                 composite_iso_to_projE, tensor_dim):
        self.t = t
        self.I0_dims = I0_dims
        self.D0_dims = D0_dims
        self.biperfect = biperfect
        self.rho_iso = rho_iso
        self.lambda_iso = lambda_iso
        self.composite_iso_to_projE = composite_iso_to_projE
        self.tensor_dim = tensor_dim

    def __repr__(self):
        return (
            "TiltingAudit(I0_dims=%r, D0_dims=%r, biperfect=%r, rho_iso=%r, "
            "lambda_iso=%r, composite_iso_to_projE=%r, tensor_dim=%d)"
            % (self.I0_dims, self.D0_dims, self.biperfect, self.rho_iso,
               self.lambda_iso, self.composite_iso_to_projE, self.tensor_dim)
        )


# ---------------------------------------------------------------------------
# summand bookkeeping


def _extra_modules(ctx):
    """One copy of each extra summand, in catalog order."""
    return [x for x, _ in ctx.summands[1:]]


def _projective_part(ctx):
    return ctx.summands[0][0]


def _suspension(ctx, m, k):
    """Σᵏm (`suspension_power`) of an extra summand m, read off the
    context's ladder [m, Σ^{±1}m, Σ^{±2}m, …] of m in the direction of k.

    A ladder grows one step at a time, so each rung is built once per
    context, whatever the order of the calls.  Σ⁰m is m itself.  Any
    other module has no ladder (`FrobeniusContext`) and raises
    SphertwistError: a sum of summands is suspended summand by summand.
    """
    step = 1 if k > 0 else -1
    ladder = ctx._ladders.get((m, step))
    if ladder is None:
        raise SphertwistError("only an extra summand has a suspension ladder", witness=m)
    while len(ladder) <= abs(k):
        ladder.append(suspension_power(ladder[-1], step))
    return ladder[abs(k)]


def _extra_syzygies(ctx, k):
    """Ωᵏ of each extra summand in catalog order, the k-th rung of its
    syzygy ladder (`_suspension`), for `add_periodicity_check` and
    `permutation_tau` alike."""
    return [_suspension(ctx, x, -k) for x in _extra_modules(ctx)]


# ---------------------------------------------------------------------------
# side 1: perfectness and the extension window


def relatively_spherical_check(ctx, t, cap=None):
    """Resolve the stable quotient and inspect its extension profile.

    The verdict needs a finite resolution and, against every simple of
    the stable quotient, extensions vanishing outside degrees 0 and t.
    A resolution that overruns the cap yields perfect=False rather than
    an error.  The stable module is resolved once, one term past the
    cap (`resolve_past`): perfectness, the length within the cap and
    every simple's profile over degrees 0..length are read off that
    one resolution, exactly as from a cap-c resolution and a fresh one
    per simple.
    """
    if t < 2:
        raise SphertwistError("window must be at least 2")
    res, perfect, length = resolve_past(stable_module(ctx), cap)
    profile = [
        ext_from_resolution(res, s, length + 1) for s in stable_simples(ctx)
    ]
    vanishing = all(
        d == 0
        for dims in profile
        for k, d in enumerate(dims)
        if k not in (0, t)
    )
    return SideOne(perfect, profile, perfect and vanishing)


# ---------------------------------------------------------------------------
# side 2: rigidity, periodicity, and the permutation


def rigidity_check(ctx, t):
    """No stable maps from any syzygy power below the window back to the
    extra part; vacuously true at t = 2.

    With X = ⊕ xⱼ the extra part, the stable Hom(ΩⁱX, X), 1 ≤ i ≤ t − 2,
    is read one pair of catalog summands at a time.  A sum of minimal
    projective covers is minimal, so Ωⁱ(⊕ xⱼ) ≅ ⊕ Ωⁱxⱼ (Happel, LMS LN
    119, 1988, ch. I), and stable Hom is additive in each argument, so
    it is ⊕ stable Hom(Ωⁱx, y) over the pairs (x, y).  A multiplicity
    only repeats pairs.
    """
    if t < 2:
        raise SphertwistError("window must be at least 2")
    xs = _extra_modules(ctx)
    return not any(
        stable_hom(_suspension(ctx, x, -i), y)[0]
        for i in range(1, t - 1) for x in xs for y in xs
    )


def add_periodicity_check(ctx, k):
    """Whether the k-fold syzygy of the extra part generates the same
    additive closure, projectives included on both sides.

    With X = ⊕ xᵢ the extra part and P the projective part, the question
    is add(ΩᵏX ⊕ P) = add(X ⊕ P).  It is decided summand by summand:
    every Ωᵏxᵢ lies in add(X ⊕ P), and every xᵢ in add(ΩᵏX ⊕ P).

    - add(M₁ ⊕ M₂) ⊆ add(N) exactly when M₁ and M₂ both lie in add(N),
      so each side is tested one summand at a time.
    - P is a summand of both sides, so it is never tested.
    - Ω commutes with finite direct sums up to projective summands: the
      sum of the projective covers of the xᵢ is a projective
      presentation of X, so by Schanuel's lemma Ω(⊕ xᵢ) and ⊕ Ωxᵢ agree
      up to projective summands, and so do their k-fold iterates.
    - Every projective lies in add P, since P generates add(A) and, by
      Krull–Schmidt, every projective is a sum of summands of A.  So
      ⊕ Ωᵏxᵢ ⊕ P and Ωᵏ(⊕ xᵢ) ⊕ P have the same additive closure.
      (A minimal Ωᵏ with k ≥ 1 has no projective summand at all, by
      `suspension_power`; at k = 0 a projective xᵢ stays, in add P.)

    So this answers as `add_equivalent` on the two whole sums does, and
    neither sum is built: `in_add` reads membership in add(⊕ blocks)
    block by block, since Hom into or out of a sum is the sum of the
    Homs to or from its blocks.
    """
    xs = _extra_modules(ctx)
    if not xs:
        return True
    p = _projective_part(ctx)
    oms = _extra_syzygies(ctx, k)
    return all(in_add(om, *xs, p) for om in oms) and all(
        in_add(x, *oms, p) for x in xs
    )


def permutation_tau(ctx, t):
    """Match each extra summand with the one its (t−1)-fold syzygy hits.

    The partner of Ωᵗ⁻¹xᵢ is the summand of equal dimension that is
    add-equivalent to it.  Add-equivalence is transitive, so two
    partners would be add-equivalent to each other: the catalog is not
    basic, and lists twice what it should list once with a
    multiplicity.  That raises SphertwistError naming the two.  A
    summand without a partner, or a matching that fails to be a
    bijection, yields None.
    """
    if t < 2:
        raise SphertwistError("window must be at least 2")
    xs = _extra_modules(ctx)
    if not xs:
        return ()
    tau = []
    for i, om in enumerate(_extra_syzygies(ctx, t - 1)):
        hits = [
            j
            for j, y in enumerate(xs)
            if y.dim == om.dim and add_equivalent(om, y)
        ]
        if len(hits) > 1:
            raise SphertwistError(
                "extra summands %d and %d are both partners of summand %d: "
                "they are add-equivalent, so pass one of them with a "
                "multiplicity" % (hits[0], hits[1], i)
            )
        if not hits:
            return None
        tau.append(hits[0])
    if sorted(tau) != list(range(len(xs))):
        return None
    return tuple(tau)


# ---------------------------------------------------------------------------
# the two-sided audit


def _summand_simple_positions(ctx):
    """For each extra summand, the index of its simple over the stable
    quotient — or None when the matching is not a bijection."""
    con = ctx.stable_endo
    simples = simple_modules(con)
    pos = []
    for copies in ctx.e_copies:
        e = ctx.to_stable.apply(copies[0])
        hits = [j for j, s in enumerate(simples) if meets(s, e)]
        if len(hits) != 1:
            return None
        pos.append(hits[0])
    if sorted(pos) != list(range(len(simples))):
        return None
    return pos


def _nakayama_comparison(ctx, tau):
    con = ctx.stable_endo
    if not is_self_injective(con):
        return NakayamaComparison(False, None, None)
    pos = _summand_simple_positions(ctx)
    if pos is None or tau is None:
        return NakayamaComparison(True, None, None)
    sig = nakayama_permutation(con)
    back = {p: i for i, p in enumerate(pos)}
    sigma = tuple(back[sig[pos[i]]] for i in range(len(pos)))
    return NakayamaComparison(True, sigma, sigma == tau)


def _assert_shape_tau(ctx, t, tau, cap):
    """Re-derive the permutation from resolution tails and compare."""
    for i in range(len(ctx.e_copies)):
        m = stable_idempotent_module(ctx, i)
        res = partially_minimal_resolution(ctx, m, cap=cap)
        try:
            j = extract_shape(ctx, res, t)
        except ShapeMismatch as exc:
            raise AuditFailed(
                "shape extraction failed although the periodicity side passed",
                witness=(i, exc),
            )
        if j != tau[i]:
            raise AuditFailed(
                "shape-derived permutation disagrees with the syzygy one",
                witness=(i, j, tau[i]),
            )


def _assert_mirror_properties(ctx, t, cap):
    """The left-handed halves of a passing audit, asserted outright:
    the stable quotient resolves finitely on the other side too, and
    rigidity holds in the cosuspension direction.

    The stable Hom(X, ΣⁱX) is read pair by pair as in `rigidity_check`:
    a sum of injective envelopes is one, so Σ commutes with sums too.
    """
    if minimal_resolution(left_module_along(ctx.to_stable), cap=cap).truncated:
        raise AuditFailed(
            "stable quotient is perfect on one side only"
        )
    xs = _extra_modules(ctx)
    for i in range(1, t - 1):
        if any(stable_hom(x, _suspension(ctx, y, i))[0] for x in xs for y in xs):
            raise AuditFailed(
                "rigidity fails in the cosuspension direction at step %d" % i
            )


def syz_audit(ctx, t, cap=None, with_tilting=False):
    """Run both sides, assert they agree, and bundle the comparisons.

    Disagreement raises AuditFailed: the two characterizations are
    equivalent, so a split verdict can only mean a defect in one of the
    code paths.  On a passing window the permutation is re-derived from
    resolution shapes, the mirror-side properties are asserted, and the
    Nakayama permutation of the stable quotient is compared (reported,
    not asserted).  with_tilting additionally runs the syzygy-companion
    certificates and attaches their outcome.  Caps propagate from the
    resolution machinery.
    """
    side1 = relatively_spherical_check(ctx, t, cap)
    side2 = SideTwo(
        rigidity_check(ctx, t),
        add_periodicity_check(ctx, t - 1),
        permutation_tau(ctx, t),
    )
    if side1.verdict != side2.verdict:
        raise AuditFailed(
            "resolution-side and periodicity-side verdicts disagree",
            witness=(side1, side2),
        )
    nakayama = None
    if side1.verdict:
        _assert_shape_tau(ctx, t, side2.tau, cap)
        _assert_mirror_properties(ctx, t, cap)
        if ctx.stable_endo.dim:
            nakayama = _nakayama_comparison(ctx, side2.tau)
    report = SphericalReport(ctx, t, cap, side1, side2, nakayama)
    if with_tilting and side1.verdict:
        report.tilting_audit = tilting_audit(report)
    return report


# ---------------------------------------------------------------------------
# hom bimodules between the generator and its syzygy companion
#
# The companion keeps the projective part and replaces the extra part by
# its syzygy.  Maps from the companion into the generator, and back, are
# read block row by block row; composition gives each two families of
# action matrices, one per side algebra.  Bimodule validates each family
# as a module over its side algebra (the left one over the opposite) and
# checks that the two commute, so an action that falsifies its algebra
# raises AuditFailed before anything is built on it.


def _first_cell(h):
    """(row, column) of the first nonzero entry of a nonzero map."""
    return next((r, c) for r, row in enumerate(h.matrix.pairs) for c, _ in row)


def _recovers(side_alg, mats, res):
    """Whether x ↦ ``mats[x]`` maps side_alg onto End(M), M = res.target,
    bijectively, and Ext¹(M, M) = 0.

    The family must commute with M's action, as `Bimodule` checks of
    the other side's family, so each matrix lies in End(M) and x ↦
    ``mats[x]`` is a linear map side_alg → End(M).  It is bijective
    exactly when its matrices are independent (the rank of the
    flattened family is dim side_alg) and dim End(M) is dim side_alg
    too.  dim End(M) = dim Ext⁰(M, M), the kernel of
    Hom(P₀, M) → Hom(P₁, M), which `ext_from_resolution` reads by
    Yoneda off the recorded resolution in the call that reads Ext¹, so
    no hom space is solved.  `resolve_past` resolves at cap + 1 ≥ 2, so
    the window of two degrees always exists.
    """
    end_dim, ext1 = ext_from_resolution(res, res.target, 2)
    width = res.target.dim ** 2
    flats = Matrix.from_pairs(side_alg.field, [_flatten(m) for m in mats], width)
    return end_dim == side_alg.dim == rank(flats) and ext1 == 0


def _pairing_blocks(mu_rows, ni, nd):
    """μ in its two blockings, for the equivariance checks.

    Row (i, j) of μ, at i·nd + j, pairs ihoms[i] with dhoms[j].
    ``by_second[j]`` has the rows (s, j) over s and ``by_first[i]`` the
    rows (i, t) over t.
    """
    by_second = [mu_rows[j::nd] for j in range(nd)]
    by_first = [mu_rows[i * nd : (i + 1) * nd] for i in range(ni)]
    return by_first, by_second


def tilting_audit(report):
    """Certify the hom bimodules between the generator and its companion.

    Gated on a passing window: ``report`` is the two-sided audit of a
    window (`syz_audit`), and its context, window and cap are the ones
    certified here.  The companion itself does not depend on the window
    — it is always the projective part plus one syzygy of the extra
    part.

    The certificates check biperfection of both hom bimodules, recovery
    of each side algebra as the endomorphism ring of either bimodule
    over the other side (with first self-extensions vanishing), and
    whether the composition pairing identifies the balanced tensor of
    the pair with the ideal of maps factoring through projectives.  The
    flags report these outcomes; only a genuine incoherence — two
    routes to the same number disagreeing, an action falsifying its
    algebra — raises AuditFailed.  Each of the four side modules of the
    two bimodules is resolved once (`resolve_past`): its perfectness,
    the dimension of its endomorphism ring and its first
    self-extensions read that one resolution, and so do the projective
    dimension and Tor of the forward bimodule's right module.

    The companion C = P ⊕ ⊕ Ωx, over the copies x of the extra
    summands, takes each Ωx off x's ladder and is built like the
    generator T (`frobenius._tagged_generator`).  End(C), Hom(C, T) and
    Hom(T, C) are read block row by block row, A_A's row by Yoneda, so
    with P = A_A and one distinct summand x the audit solves three hom
    spaces: out of Ωx into C and T, and out of x into C.
    """
    if not report.side1.verdict:
        raise AuditFailed(
            "window %d fails the two-sided audit; tilting needs a passing window"
            % report.t
        )
    ctx, t, cap = report.ctx, report.t, report.cap
    lam = ctx.endo
    f = lam.field
    total = ctx.total
    p = _projective_part(ctx)
    copies = [x for x, mult in ctx.summands[1:] for _ in range(mult)]
    blocks = [p] + [_suspension(ctx, x, -1) for x in copies]
    companion, lam1, l1basis = _tagged_generator(blocks)
    l1homs = l1basis.homs
    ihoms = _generator_hom_basis(blocks, companion, total)
    dhoms = _generator_hom_basis([p] + copies, total, companion)
    ni, nd = len(ihoms), len(dhoms)
    icoords = HomBasis(f, ihoms).coords
    dcoords = HomBasis(f, dhoms).coords

    # the block subspaces of Hom(C, T) and Hom(T, C) have disjoint
    # supports, so each rref basis map lies in one block pair (the
    # argument is in `frobenius._generator_hom_basis`); P is the first
    # P.dim rows and columns
    from_p = sum(_first_cell(ih)[0] < p.dim for ih in ihoms)
    into_p = sum(_first_cell(dh)[1] < p.dim for dh in dhoms)
    I0_dims, D0_dims = (from_p, ni - from_p), (into_p, nd - into_p)

    # maps companion → generator: postcomposition by the endomorphism
    # algebra on the left, precomposition by the companion algebra on
    # the right
    fwd_l = [
        Matrix.from_pairs(f, [icoords(ih.matrix.mul(h.matrix)) for ih in ihoms], ni)
        for h in ctx.hom_basis
    ]
    fwd_r = [
        Matrix.from_pairs(f, [icoords(s.matrix.mul(ih.matrix)) for ih in ihoms], ni)
        for s in l1homs
    ]
    forward = Bimodule(lam, lam1, fwd_l, fwd_r)

    # maps generator → companion: the mirror actions
    bwd_l = [
        Matrix.from_pairs(f, [dcoords(dh.matrix.mul(s.matrix)) for dh in dhoms], nd)
        for s in l1homs
    ]
    bwd_r = [
        Matrix.from_pairs(f, [dcoords(h.matrix.mul(dh.matrix)) for dh in dhoms], nd)
        for h in ctx.hom_basis
    ]
    backward = Bimodule(lam1, lam, bwd_l, bwd_r)

    resolved = [
        resolve_past(mod, cap)
        for bimodule in (forward, backward)
        for mod in (bimodule.restrict_right(), bimodule.restrict_left())
    ]
    fwd_right, fwd_left, bwd_right, bwd_left = (res for res, _, _ in resolved)

    # (a) both bimodules resolve finitely on both sides
    biperfect = all(perfect for _, perfect, _ in resolved)

    # (b) the companion algebra is exactly the endomorphism ring of the
    # forward bimodule over the generator side, and the generator
    # algebra that of the backward bimodule over the companion side,
    # with no first self-extensions.  Bimodule has checked that the two
    # actions commute, so the other side's family lies in End(M) of the
    # side module M; the embedding is bijective when the family has rank
    # dim Λ = dim End(M), and dim End(M) is Ext⁰(M, M), read off M's
    # resolution with Ext¹ (`_recovers`)
    rho_iso = (
        _recovers(lam1, fwd_r, fwd_left)
        and _recovers(lam, bwd_r, bwd_left)
    )

    # (c) the same with the roles of the sides exchanged
    lambda_iso = (
        _recovers(lam, fwd_l, fwd_right)
        and _recovers(lam1, bwd_l, bwd_right)
    )

    # (d) the balanced tensor, by two routes that must agree and share
    # no kernel: the flat balancing quotient (`balanced_tensor`) and the
    # zeroth derived product, which `tor_from_resolution` reads by
    # duality through the Yoneda kernel
    tensor = balanced_tensor(forward.restrict_right(), backward.restrict_left())
    tensor_dim = tensor.dim

    # a module without a finite resolution is not concentrated whatever
    # its Tor, so then only Tor_0 is read
    _, perfect, pd = resolved[0]
    tor = tor_from_resolution(fwd_right, bwd_left.target, pd + 2 if perfect else 1)
    if tor[0] != tensor_dim:
        raise AuditFailed(
            "flat balanced quotient disagrees with the resolution route",
            witness=(tensor_dim, tor[0]),
        )
    concentrated = perfect and not any(tor[1:])

    # the composition pairing, as a map from the flat tensor into the
    # endomorphism algebra; it must kill every balancing relation
    mu_rows = []
    for ih in ihoms:
        for dh in dhoms:
            mu_rows.append(ctx.hom_coords.coords(dh.matrix.mul(ih.matrix)))
    mu = Matrix.from_pairs(f, mu_rows, lam.dim)
    if not tensor.span.basis_matrix().mul(mu).is_zero():
        raise AuditFailed("composition pairing is not balanced")

    # two-sided equivariance of the pairing, on algebra generators —
    # products and the unit then follow from associativity.  The left
    # action moves only the first factor, so row (i, j) of
    # (fwd_l[g] ⊗ 1)·μ is Σₛ fwd_l[g][i][s]·μ[(s, j)], which is row i of
    # fwd_l[g]·μⱼ for the block μⱼ of the rows (s, j).  Likewise row
    # (i, j) of (1 ⊗ bwd_r[g])·μ is row j of bwd_r[g]·μᵢ for the block
    # μᵢ of the rows (i, t).  So the block equations below compare the
    # entries of the Kronecker equations row by row, with the same
    # witness g, and no Kronecker product is formed.  Each is a sparse
    # residual; left multiplication by b_g has the table's row b_g·b_s
    # as its row s, and right multiplication the row b_s·b_g.
    p_char = f.characteristic
    by_first, by_second = _pairing_blocks(mu.pairs, ni, nd)
    table = lam.table
    for g in generator_indices(lam):
        act, left_mult = fwd_l[g].pairs, table[g]
        if any(
            product_residual(act, b, b, left_mult, p_char) is not None
            for b in by_second
        ):
            raise AuditFailed(
                "composition pairing breaks equivariance on the left", witness=g
            )
        act, right_mult = bwd_r[g].pairs, [row[g] for row in table]
        if any(
            product_residual(act, b, b, right_mult, p_char) is not None
            for b in by_first
        ):
            raise AuditFailed(
                "composition pairing breaks equivariance on the right", witness=g
            )

    ideal = Matrix.from_pairs(f, ctx.proj_ideal, lam.dim)
    injective = rank(mu) == tensor_dim
    onto_ideal = row_space_canonical(mu) == row_space_canonical(ideal)
    codim_match = tensor_dim == lam.dim - ctx.stable_endo.dim
    composite_iso_to_projE = (
        concentrated and injective and onto_ideal and codim_match
    )

    return TiltingAudit(
        t, I0_dims, D0_dims, biperfect, rho_iso, lambda_iso,
        composite_iso_to_projE, tensor_dim,
    )
