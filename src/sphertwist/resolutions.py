"""Projective resolutions, minimal and relative to a projective-type block.

Over the endomorphism algebra of a chosen generator, the idempotent
splitting off its projective part singles out a class of covers that are
only required to be minimal away from that block.  The resulting
"partially minimal" resolutions are the ones whose shape detects the
relative sphericity of the extra summands: middle terms confined to the
additive closure of the projective-type ideal, and a tail that splits
into a projective-type part plus the image of a single summand.

Conventions: a resolution of m is terms[0] ← terms[1] ← ... with
maps[i] : terms[i+1] → terms[i] and an augmentation terms[0] → m.
Exactness is audited degree-wise by rank bookkeeping.  Every builder
takes its terms from covers, and the source of a cover is the shared sum
⊕ eₖ·A of `modules._piece_sum`, which carries its own record
(``covered``): its eₖ are idempotent, and for e² = e,
A_A = e·A ⊕ (1−e)·A, so e·A is projective and so is a direct sum of
such pieces.  A term with a record is therefore projective, and readers
take its pieces from the record.  A term without one (only a resolution
built by hand has one) is checked by the cover criterion: a module is
projective exactly when its projective cover has the same dimension.

Each builder stops at a cap, 2·dim + 2 unless one is given, and a
resolution it stops there with a kernel left over comes back marked
``truncated``; nothing raises.  Resolutions are deterministic, so the
one built at cap c is a term-by-term prefix of the one built at any
larger cap (see `resolve_past`); one resolution therefore serves every
window and every cap at or below its own.
"""

from __future__ import annotations

from .errors import NotSurjective, ShapeMismatch, SphertwistError
from .algebra import lift_idempotents, radical
from .exactlin import (
    Matrix, SpanBuilder, kernel_basis, rank,
)
from .modules import (
    Module,
    _cover_by_pieces,
    _covered,
    _idempotent_piece,
    hom_space,
    kernel_of,
    module_radical,
    projective_cover,
    quotient,
    restrict_scalars,
    simple_modules,
)


def is_projective(m):
    """True iff the projective cover of m is an isomorphism."""
    p, _ = projective_cover(m)
    return p.dim == m.dim


class Resolution:
    """A finite (or truncated) projective resolution, audited at birth.

    ``truncated`` marks a resolution a builder stopped at its cap with a
    kernel left over; it is the one signal that the target did not
    resolve within the cap (`_resolve_by`).  The constructor re-verifies
    everything a builder claims: shapes, zero composites, degree-wise
    exactness via ranks, surjectivity of the augmentation, projectivity
    of each term, and — when the resolution is complete — injectivity at
    the top together with the alternating dimension count against the
    target.

    A term built as a cover is the shared sum ⊕ eₖ·A of
    `modules._piece_sum`, whose record (``term.covered``) certifies it
    projective: every eₖ was checked idempotent when the sum was built,
    and e² = e splits A_A = e·A ⊕ (1−e)·A.  A term without a record,
    which only a resolution built by hand has, is checked by
    `is_projective`.
    """

    def __init__(
        self,
        target,
        terms,
        maps,
        augmentation,
        truncated=False,
    ):
        if not terms:
            raise SphertwistError("a resolution needs at least one term")
        if len(maps) != len(terms) - 1:
            raise SphertwistError("resolution has %d terms but %d maps" % (
                len(terms), len(maps)))
        if augmentation.source is not terms[0] or augmentation.target is not target:
            raise SphertwistError("augmentation endpoints do not match")
        for i, h in enumerate(maps):
            if h.source is not terms[i + 1] or h.target is not terms[i]:
                raise SphertwistError("map %d endpoints do not match" % i)
        self.target = target
        self.terms = terms
        self.maps = maps
        self.augmentation = augmentation
        self.truncated = truncated
        self._audit()

    @property
    def length(self):
        return len(self.terms) - 1

    @property
    def term_dims(self):
        return [t.dim for t in self.terms]

    def _audit(self):
        aug = self.augmentation
        ranks = [rank(aug.matrix)]
        if ranks[0] != self.target.dim:
            raise SphertwistError("augmentation is not surjective")
        # composites vanish and images fill kernels, degree by degree
        prev = aug
        for i, h in enumerate(self.maps):
            if not h.compose(prev).matrix.is_zero():
                raise SphertwistError("composite through degree %d is nonzero" % i)
            r = rank(h.matrix)
            if r != self.terms[i].dim - ranks[-1]:
                raise SphertwistError("resolution is not exact at degree %d" % i)
            ranks.append(r)
            prev = h
        if not self.truncated:
            top = self.terms[-1]
            if ranks[-1] != top.dim:
                raise SphertwistError("resolution is not exact at the top degree")
            total = 0
            for i, t in enumerate(self.terms):
                total += t.dim if i % 2 == 0 else -t.dim
            if total != self.target.dim:
                raise SphertwistError("alternating dimension count misses the target")
        for i, t in enumerate(self.terms):
            if t.covered is None and not is_projective(t):
                raise SphertwistError("term %d is not projective" % i)

    def __repr__(self):
        dims = "<-".join(str(d) for d in self.term_dims)
        tag = ", truncated" if self.truncated else ""
        return "Resolution(length %d, terms %s%s)" % (self.length, dims, tag)


# ---------------------------------------------------------------------------
# the relative radical and partial covers


def radd0(ctx, m):
    """Row basis of the radical relative to the projective-type block.

    This is the preimage in m of rad(m / m·e·Λ) for the projective-type
    idempotent e: the intersection of the maximal submodules that
    contain everything reachable through the projective-type ideal.  A
    quotient map kills it exactly when the quotient is semisimple with
    the projective-type block acting by zero.
    """
    lam = ctx.endo
    f = lam.field
    if m.dim == 0:
        return Matrix.zero(f, 0, 0)
    span = SpanBuilder(f, m.dim)
    e_rows = m.action_of(ctx.e_proj)
    for mat in m.action:
        for row in e_rows.mul(mat).pairs:
            if row:
                span.add(row)
    q, proj = quotient(m, span.basis_matrix())
    if q.dim == 0:
        return Matrix.identity(f, m.dim)
    rad_rows = module_radical(q)
    z = kernel_basis(rad_rows)
    return kernel_basis(proj.matrix.mul(z).transpose()).transpose()


def is_partially_essential(ctx, epi):
    """True iff the kernel of the surjection sits inside radd0(source)."""
    if rank(epi.matrix) != epi.target.dim:
        raise NotSurjective("partial essentiality is a property of surjections")
    allowed = radd0(ctx, epi.source)
    span = SpanBuilder(ctx.endo.field, epi.source.dim)
    for r in allowed.pairs:
        span.add(r)
    _, incl = kernel_of(epi)
    return all(span.contains(r) for r in incl.matrix.pairs)


def _proj_type_primitives(ctx):
    """The lifted primitives of the endomorphism algebra under e_proj.

    ``e_proj`` is one of the algebra's recorded block tags, so
    `lift_idempotents` splits it in its own corner, and the primitives
    it yields are those e with e_proj·e = e, in the order of that split.
    The list depends on the context alone, so it is filtered once and
    kept in ``ctx._proj_primitives``.
    """
    if ctx._proj_primitives is None:
        lam, e_proj = ctx.endo, ctx.e_proj
        ctx._proj_primitives = [
            e for e in lift_idempotents(lam) if lam.mul_vec(e_proj, e) == e
        ]
    return ctx._proj_primitives


def partial_cover(ctx, m):
    """(Q, epi) covering m summand by summand of its top.

    Top constituents coming from the extra summands are covered by the
    matching one-copy right ideals (taken in scenario order), everything
    else by primitive pieces of the projective-type idempotent.  The
    kernel lands inside the radical, hence inside radd0(Q) — each stage
    is partially essential, and a projective input is covered by an
    isomorphism.  The pieces and the epi are built as in
    `projective_cover`, from each generator's images taken once.
    """
    order = [copies[0] for copies in ctx.e_copies] + _proj_type_primitives(ctx)
    return _cover_by_pieces(m, order)


# ---------------------------------------------------------------------------
# resolution builders


def is_minimal(res):
    """True iff every differential of res lands in the radical of its
    target, so each kernel sits inside the radical of its cover."""
    terms, maps = res.terms, res.maps
    for i, h in enumerate(maps):
        rad = module_radical(terms[i])
        span = SpanBuilder(terms[i].algebra.field, terms[i].dim)
        for r in rad.pairs:
            span.add(r)
        for r in h.matrix.pairs:
            if not span.contains(r):
                return False
    return True


def is_partially_minimal(ctx, res):
    """True iff no differential of res survives a map into a simple of
    the stable quotient."""
    sims = stable_simples(ctx)
    for h in res.maps:
        for s in sims:
            for g in hom_space(h.target, s):
                if not h.compose(g).matrix.is_zero():
                    return False
    return True


def partially_minimal_resolution(ctx, m, cap=None):
    """Resolve m by iterated partial covers (`_resolve_by`).

    Stops when the kernel vanishes: a projective kernel is covered by an
    isomorphism (`partial_cover`), whose kernel is zero, so it ends the
    resolution with a recorded cover like every other term.
    """
    if m.algebra is not ctx.endo:
        raise SphertwistError("module lives over a different algebra")
    return _resolve_by(m, cap, lambda k: partial_cover(ctx, k))


def minimal_resolution(m, cap=None):
    """Resolve m by iterated projective covers (kernels inside radicals),
    within the cap (`_resolve_by`)."""
    return _resolve_by(m, cap, projective_cover)


def _cap(m, cap):
    """The cap given, or 2·dim + 2 for the algebra of m; at least 1."""
    if cap is None:
        cap = 2 * m.algebra.dim + 2
    if cap < 1:
        raise SphertwistError("resolution cap must be at least 1")
    return cap


def _resolve_by(m, cap, cover):
    """The resolution of m whose terms are cover(kernel), one per degree,
    until a kernel vanishes or the length reaches the cap (`_cap`).

    A kernel left at the cap makes the result ``truncated``, of length
    exactly the cap: the covers do not end within it.
    """
    cap = _cap(m, cap)
    p0, aug = cover(m)
    terms = [p0]
    maps = []
    k, incl = kernel_of(aug)
    while k.dim and len(terms) <= cap:
        q, epi = cover(k)
        maps.append(epi.compose(incl))
        terms.append(q)
        k, incl = kernel_of(epi)
    return Resolution(m, terms, maps, aug, truncated=bool(k.dim))


def resolve_past(m, cap=None):
    """(res, perfect, length) from one minimal resolution of m at cap
    c + 1, where c is the cap given or 2·dim + 2 (`_cap`).

    `minimal_resolution` is deterministic — each term is the cover of
    the previous kernel — so its result at cap c is a term-by-term
    prefix of ``res``, truncated or not.  Hence ``perfect``, that m
    resolves within c (the cap-c result is not truncated), holds exactly
    when ``res`` is complete with length at most c, and ``length`` =
    min(res.length, c) is the length the cap-c call reports.  The extra
    term carries the differential out of degree c, so Ext over that
    length is read off ``res`` without resolving again.
    """
    cap = _cap(m, cap)
    res = minimal_resolution(m, cap + 1)
    return res, not res.truncated and res.length <= cap, min(res.length, cap)


# ---------------------------------------------------------------------------
# shape extraction


def _piece_type(ctx, e):
    """Classify a piece of a cover, an idempotent of the endomorphism algebra.

    Returns None for a projective-type piece, otherwise the index of the
    extra summand whose one-copy ideal it matches.  The test reads which
    block idempotent survives on the simple top of e·Λ.

    The projection π of e·Λ onto its top e·Λ / rad(e·Λ) is an onto
    module map, so a block b acts as zero on the top exactly when
    π(v·b) = π(v)·b vanishes for every v of e·Λ, that is, when v·b lies
    in rad(e·Λ).  By linearity the basis rows v of e·Λ suffice.  In Λ's
    own coordinates rad(e·Λ) = e·Λ·J = e·J for J = rad Λ, and
    e·J = e·Λ ∩ J, since x = e·x for x in e·Λ.  v·b lies in e·Λ, so the
    test is span membership of v·b in J, and no quotient module is
    built.  A cover takes its pieces from the lifted primitives of Λ
    and the first copy projector of each extra summand, so the first
    call reads the blocks of all of them against one span of J and
    caches them, and any other idempotent raises.
    """
    cache = ctx._piece_type_cache
    if not cache:
        lam = ctx.endo
        rad = SpanBuilder(lam.field, lam.dim)
        for x in radical(lam).transpose().pairs:
            rad.add(x)
        blocks = [(None, ctx.e_proj)]
        blocks.extend((j, copies[0]) for j, copies in enumerate(ctx.e_copies))
        rights = [(j, lam.right_mult_matrix(b)) for j, b in blocks]
        pieces = lift_idempotents(lam) + [b for _, b in blocks[1:]]
        for key, p in {tuple(p): p for p in pieces}.items():
            incl = ctx.right_ideal(p)[1].matrix
            cache[key] = [
                j for j, right in rights
                if not all(rad.contains(v) for v in incl.mul(right).pairs)
            ]
    hits = cache.get(tuple(e))
    if hits is None:
        raise SphertwistError("not a piece a cover takes", witness=e)
    if len(hits) != 1:
        raise SphertwistError(
            "top of a primitive ideal meets %d blocks" % len(hits), witness=hits
        )
    return hits[0]


def extract_shape(ctx, res, t):
    """Check the window-t shape of a resolution and read off the target.

    Requires a complete resolution of length exactly t whose middle
    terms lie in the additive closure of the projective-type ideal and
    whose tail splits as a projective-type part plus the one-copy ideal
    of a single extra summand; returns that summand's index.  Any
    violation raises ShapeMismatch — the relative-sphericity hypothesis
    fails for this summand.

    The pieces of each term are read off its record (``covered``): a
    term built by a cover is ⊕ eₖ·A over the idempotents the cover took,
    each a primitive of `lift_idempotents` or the projector of one copy
    of an extra summand.  `_piece_type` depends only on the isomorphism
    type of e·Λ, so the verdict is the one a fresh projective cover of
    the term would give.  A term without a record raises.
    """
    if t < 2:
        raise SphertwistError("shape extraction needs a window of at least 2")
    if res.truncated:
        raise ShapeMismatch("resolution is truncated; no shape to extract")
    if res.length != t:
        raise ShapeMismatch(
            "resolution length %d does not match the window %d" % (res.length, t)
        )
    for i in range(1, t):
        for e in _covered(res.terms[i]).idempotents:
            if _piece_type(ctx, e) is not None:
                raise ShapeMismatch(
                    "middle term %d leaves the projective-type closure" % i
                )
    extra_hits = [
        j for e in _covered(res.terms[t]).idempotents
        if (j := _piece_type(ctx, e)) is not None
    ]
    if len(extra_hits) != 1:
        raise ShapeMismatch(
            "tail does not split as projective-type plus one summand ideal",
            witness=extra_hits,
        )
    return extra_hits[0]


# ---------------------------------------------------------------------------
# the stable quotient's modules, pulled back


def stable_module(ctx):
    """The stable endomorphism algebra as a module over the full one.

    Built once per context; callers share the module object.
    """
    if ctx._stable_module is None:
        ctx._stable_module = restrict_scalars(
            ctx.to_stable, Module.regular(ctx.stable_endo)
        )
    return ctx._stable_module


def stable_simples(ctx):
    """Simples of the stable quotient, as modules over the full algebra."""
    if ctx._stable_simples is None:
        ctx._stable_simples = (
            [
                restrict_scalars(ctx.to_stable, s)
                for s in simple_modules(ctx.stable_endo)
            ]
            if ctx.stable_endo.dim
            else []
        )
    return ctx._stable_simples


def stable_idempotent_module(ctx, i):
    """One summand's ideal in the stable quotient, over the full algebra.

    The image e of the i-th one-copy idempotent generates the right
    ideal e·Γ of the stable algebra Γ; this is that ideal viewed as a
    module over the full endomorphism algebra.  It is the piece
    `_idempotent_piece(Γ, e)` pulled back by `restrict_scalars`, which
    is the submodule of `stable_module` on the same rows, in the same
    coordinates: both act by the rows' coordinates of v·π(b).
    """
    con = ctx.stable_endo
    piece, _ = _idempotent_piece(con, ctx.to_stable.apply(ctx.e_copies[i][0]))
    return restrict_scalars(ctx.to_stable, piece)
