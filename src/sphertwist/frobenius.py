"""Module categories over self-injective algebras, with stable structure.

Over a self-injective algebra the projective and injective modules
coincide, so homs modulo maps-through-projectives form a triangulated
quotient whose shift is the cosyzygy functor.  This module supplies the
detectors (self-injectivity, symmetry, the socle permutation of the
simples), stable hom spaces, minimal syzygies and cosyzygies and their
iterates, and the bundled context around a chosen additive generator:
its endomorphism algebra, the ideal of maps factoring through a
projective, and the quotient onto the stable endomorphism algebra.
"""

from __future__ import annotations

import random

from .algebra import (
    _gram,
    lift_idempotents,
    opposite,
    quotient_surjection,
)
from .errors import NotProgenerator, NotSelfInjective, SphertwistError
from .exactlin import (
    Matrix,
    SpanBuilder,
    combine,
    rank,
    row_space_canonical,
)
from .modules import (
    Module,
    ModuleHom,
    _endomorphism_table,
    _flatten,
    _idempotent_piece,
    _unflatten,
    add_equivalent,
    cokernel_of,
    direct_sum,
    hom_space,
    kernel_of,
    projective_cover,
    simple_modules,
    socle,
)


def dual_module(m):
    """The vector-space dual as a right module over the opposite algebra.

    In dual-basis coordinates every action matrix simply transposes, and
    dualizing twice lands on a module with the original matrices over the
    original algebra (opposite algebras are cached in pairs).  The basis
    elements that act by zero on m share one zero matrix.
    """
    aop = opposite(m.algebra)
    zero = Matrix.zero(aop.field, m.dim, m.dim)
    action = [mat.transpose() if i in m.acting else zero for i, mat in enumerate(m.action)]
    return Module(aop, m.dim, action, validate=False)


def is_self_injective(a):
    """Whether the regular module and its dual generate the same additive
    closure — projectives equal injectives exactly then.

    A Frobenius form certifies it.  Let λ be a linear form whose Gram
    matrix λ(bᵢbⱼ) (`_gram`) is nondegenerate.  Then x ↦ λ(x·−) is a
    map of right modules A_A → D(A)_A, since λ(xa·−) = λ(x·−)·a; it is
    injective, because λ(x·A) = 0 puts x in the kernel of the Gram
    matrix; so it is an isomorphism, and add(A) = add(D A) (Lam,
    *Lectures on Modules and Rings*, GTM 189, §16).  One λ is drawn,
    seeded, with entries in [1, 2²⁰].  When A is Frobenius, the
    determinant of the Gram matrix is a nonzero polynomial of degree
    d = dim A in the entries of λ, so by the Schwartz–Zippel lemma a draw
    from s values misses with probability at most d/s: d/2²⁰ over Q, and
    about d/p over F_p, where the entries are read modulo p.  Zero is
    kept out of the range: λ must be nonzero on every socle element, and
    a draw from [−4, 4] missed on the cyclic Nakayama algebras with 12
    and 16 vertices.

    With no witness — A is not Frobenius, or the draw missed — the
    verdict is that of `add_equivalent(A_A, D A)`, so a negative answer
    is proven, and no verdict depends on the draw.  That check also
    decides the self-injective algebras that are not Frobenius.
    """
    if a._selfinj_cache is not None:
        return a._selfinj_cache
    rng = random.Random(61)
    draws = [a.field.coerce(rng.randint(1, 1 << 20)) for _ in range(a.dim)]
    form = [(t, c) for t, c in enumerate(draws) if c]
    verdict = rank(_gram(a, form)) == a.dim or add_equivalent(
        Module.regular(a), Module.coregular(a)
    )
    a._selfinj_cache = verdict
    return verdict


def _require_self_injective(a):
    if not is_self_injective(a):
        raise NotSelfInjective("ambient algebra is not self-injective")


def injective_envelope(m):
    """(envelope module, embedding) — the smallest injective containing m.

    Built by dualizing a projective cover of the dual module over the
    opposite algebra; minimality of the cover dualizes to essentiality
    of the embedding.
    """
    p, c = projective_cover(dual_module(m))
    env = dual_module(p)
    # the double dual has the same coordinates as m, so the dual of the
    # cover matrix is already the embedding matrix
    emb = ModuleHom(m, env, c.matrix.transpose(), validate=False)
    return env, emb


def stable_hom(m, n):
    """(stable dimension, canonical basis of [P](m, n), the maps m → n
    that factor through a projective).

    Over a self-injective algebra projectives are injective.  A map
    m → Q into an injective extends along the injective envelope
    emb : m → E, and E is projective, so a map factors through some
    projective exactly when it factors through E: the subspace is
    spanned by the composites emb·g, g : E → n.  Its basis is the rref
    of the flattened (row-major) matrices, as `ModuleHom`s, and the
    stable dimension is dim Hom(m, n) less its length.  A zero hom space
    has no factoring maps, so its envelope is not built.
    """
    _require_self_injective(m.algebra)
    homs = hom_space(m, n)
    if not homs:
        return 0, []
    f = m.algebra.field
    _, emb = injective_envelope(m)
    span = SpanBuilder(f, m.dim * n.dim)
    for g in hom_space(emb.target, n):
        span.add(_flatten(emb.matrix.mul(g.matrix)))
    basis = [
        ModuleHom(m, n, _unflatten(f, r, m.dim, n.dim), validate=False)
        for r in span.basis_pairs()
    ]
    return len(homs) - len(basis), basis


def nakayama_permutation(a):
    """The socle permutation: sigma[i] = j when the socle of the i-th
    idempotent projective is the j-th simple.

    Indices refer to positions in ``simple_modules(a)``.  The socle is
    semisimple, so it is Sⱼ exactly when dim soc = dim Sⱼ and soc·eⱼ ≠ 0
    (`meets`), read off its rows in the piece eᵢ·A.
    """
    if a._nakayama_cache is not None:
        return a._nakayama_cache
    _require_self_injective(a)
    simples = simple_modules(a)
    sigma = []
    for s in simples:
        pe, _ = _idempotent_piece(a, s.tag)
        soc = socle(pe)
        hits = [j for j, t in enumerate(simples)
                if soc.nrows == t.dim and not soc.mul(pe.action_of(t.tag)).is_zero()]
        if len(hits) != 1:
            raise SphertwistError(
                "socle of an idempotent projective is not simple", witness=s.tag
            )
        sigma.append(hits[0])
    if sorted(sigma) != list(range(len(simples))):
        raise SphertwistError("socle matching is not a permutation", witness=sigma)
    out = tuple(sigma)
    a._nakayama_cache = out
    return out


# ---------------------------------------------------------------------------
# syzygy, cosyzygy, suspension powers


def syzygy(m):
    """Kernel of a projective cover."""
    _require_self_injective(m.algebra)
    _, c = projective_cover(m)
    ker, _ = kernel_of(c)
    return ker


def cosyzygy(m):
    """Cokernel of the injective envelope."""
    _require_self_injective(m.algebra)
    _, emb = injective_envelope(m)
    coker, _ = cokernel_of(emb)
    return coker


def _indecomposable_projectives(a):
    return [_idempotent_piece(a, e)[0] for e in lift_idempotents(a)]


def suspension_power(m, k):
    """Σᵏm: k cosyzygy steps for k > 0, |k| syzygy steps for k < 0, and
    m itself for k = 0.

    No step leaves a projective summand, so none is split off (Happel,
    *Triangulated categories in the representation theory of
    finite-dimensional algebras*, LMS LN 119, 1988, ch. I).  Over a
    self-injective algebra a projective module is injective.
    - Syzygy: the cover P → m is minimal: `projective_cover` takes one
      piece e·A, e primitive, per generator of the top of m, so P → m
      is an isomorphism on tops and its kernel K lies in rad P.  A
      projective summand Q of K is injective, so Q ⊆ P splits off P
      through some ε : P → Q with ε = 1 on Q.  Then Q = ε(Q) ⊆ ε(rad P) = rad Q, and
      Q = 0 by Nakayama's lemma.
    - Cosyzygy: the envelope m ⊆ E is essential.  A projective summand
      Q of E/m splits off E through a section s : Q → E of
      E → E/m → Q, and s(Q) meets m in 0, since m maps to 0 in Q.  So
      s(Q) = 0 and Q = 0.
    """
    _require_self_injective(m.algebra)
    step = cosyzygy if k > 0 else syzygy
    for _ in range(abs(k)):
        m = step(m)
    return m


# ---------------------------------------------------------------------------
# the bundled context


class FrobeniusContext:
    """Everything downstream layers need about one additive generator.

    ``total`` is the chosen module, the sum of the blocks of
    ``summands`` (`_tagged_generator`): the projective part first, then
    each extra summand as many times as its multiplicity.  ``ambient``
    is the algebra they live over.  ``endo`` is its endomorphism algebra
    on the canonical hom basis ``hom_basis``, whose coordinates
    ``hom_coords`` reads and which it holds.  The rest is read off these:
    - ``endo.idempotents`` are the projectors of the blocks of ``total``,
      in block order, which must sum to the unit, so ``e_proj`` is the
      first and ``e_copies[i]`` lists the next multiplicity-many, one per
      copy of extra summand i.  These are vectors of ``endo``;
    - ``proj_ideal`` is the canonical rows of the ideal of maps factoring
      through projectives, endo·e_proj·endo (`_projective_ideal`), and
      ``to_stable`` the quotient by it onto ``stable_endo``.
    `lift_idempotents` refines each block projector in its own corner: a
    copy of an indecomposable summand is primitive and stays whole, and
    ``e_proj`` splits into the primitives that `partial_cover` uses.
    Those primitives, the stable module and the stable simples are built
    once, on first use (`resolutions._proj_type_primitives`,
    `resolutions.stable_module`, `resolutions.stable_simples`).
    Each extra summand x has two suspension ladders, [x, Σx, Σ²x, …]
    and [x, Ωx, Ω²x, …], which `spherical._suspension` extends one rung
    at a time; they start as [x], and no other module has a ladder.
    """

    def __init__(self, summands):
        self.ambient = summands[0][0].algebra
        self.summands = summands
        self.total, endo, self.hom_coords = _tagged_generator(
            [x for x, mult in summands for _ in range(mult)])
        self.endo = endo
        p = endo.field.characteristic
        if combine([(1, v) for _, v in endo.idempotents], p) != endo.unit:
            raise SphertwistError("block idempotents do not sum to the identity")
        tags = iter(v for _, v in endo.idempotents)
        self.e_proj = next(tags)
        self.e_copies = [[next(tags) for _ in range(m)] for _, m in summands[1:]]
        self.proj_ideal = _projective_ideal(endo, self.e_proj)
        self.to_stable = quotient_surjection(endo, self.proj_ideal)
        self.stable_endo = self.to_stable.target
        # caches of the resolutions layer
        self._piece_type_cache = {}
        self._proj_primitives = None
        self._stable_module = None
        self._stable_simples = None
        # ... and of the spherical layer: the ladders, keyed by (extra
        # summand, direction ±1)
        self._ladders = {
            (x, step): [x] for x, _ in summands[1:] for step in (1, -1)
        }

    @property
    def hom_basis(self):
        return self.hom_coords.homs

    def right_ideal(self, e):
        """(e·endo as a right module, inclusion into the regular module)."""
        return _idempotent_piece(self.endo, e)

    def __repr__(self):
        return "FrobeniusContext(endo dim %d, stable dim %d)" % (
            self.endo.dim,
            self.stable_endo.dim,
        )


def build_context(ambient, projective_part, extra_summands):
    """Assemble the context for total = projective_part ⊕ ⊕ Xᵢ^{aᵢ}.

    The projective part must generate the same additive closure as the
    regular module (and be projective); each extra summand comes with a
    positive multiplicity.

    The ambient is checked self-injective by a Frobenius form
    (`is_self_injective`), with the add route only as the fallback.  The
    split of total is known, and the work follows it:
    - when the projective part is the regular module object itself,
      `add_equivalent` answers by reflexivity; any other projective part
      takes the full check;
    - `FrobeniusContext` builds total, its block tags and End(total) by
      `_tagged_generator`, reading Hom(total, total) block row by block
      row, so no system in the unknowns of the whole of Hom(total, total)
      is solved (the companion of `spherical.tilting_audit` is built by
      the same code); it checks that the block tags sum to the unit and
      reads the projectors off them;
    - the ideal [P] of maps through projectives is the two-sided ideal
      of End(total) generated by the projector onto the projective part,
      read off the table just built (`_projective_ideal`, whose argument
      rests on the add-equivalence checked above), so set-up builds no
      injective envelope and solves no hom space for it;
    - `quotient_surjection` audits [P] as an ideal off the sparse table
      and carries the block projectors that survive in the stable
      quotient over as its idempotent tags.
    """
    _require_self_injective(ambient)
    reg = Module.regular(ambient)
    if not add_equivalent(reg, projective_part):
        raise NotProgenerator(
            "projective part does not generate the module category"
        )
    if any(mult < 1 for _, mult in extra_summands):
        raise SphertwistError("summand multiplicity must be positive")
    return FrobeniusContext([(projective_part, 1)] + list(extra_summands))


def _tagged_generator(blocks):
    """(total, End(total), its `HomBasis`) for total = ⊕ blocks.

    Block b's projector ι_b·π_b is recorded as the algebra's idempotent
    tag "block:b": the `Algebra` constructor checks that the tags square
    to themselves and are pairwise orthogonal, and `lift_idempotents`
    refines each in its own corner, so a primitive never straddles two
    blocks.  Hom(total, total) is read block row by block row
    (`_generator_hom_basis`), and `modules._endomorphism_table` builds
    End(total) on that basis.  `build_context` builds the generator T
    here, and `spherical.tilting_audit` its companion.
    """
    total, injs, projs = direct_sum(blocks)
    tags = [
        ("block:%d" % b, prj.matrix.mul(inj.matrix))
        for b, (inj, prj) in enumerate(zip(injs, projs))
    ]
    homs = _generator_hom_basis(blocks, total, total)
    endo, hom_coords = _endomorphism_table(homs, tags)
    return total, endo, hom_coords


def _generator_hom_basis(blocks, source, target):
    """The rref basis of Hom(source, target), source = ⊕ blocks, block
    row by block row; the basis `hom_space(source, target)` would give.

    Let V = V₁ + … + V_k be a sum of subspaces whose coordinate supports
    are disjoint, and let R_j be the rref basis of V_j.  The rows of R_j
    vanish off the support of V_j, so every pivot column of the union
    holds one nonzero entry, a 1, in its own row; sorted by pivot, the
    union is in rref, and it spans V, so it is the rref basis of V.

    Hom(source, N) = ⊕ₐ Hom(B_a, N), and a map out of B_a holds only the
    rows of B_a, so the pieces have disjoint supports in flattened
    Hom(source, N), whatever N is.  A map B_a → N flattens row-major to
    the cells of those rows, in the order they have in source, at an
    offset of (first row of B_a)·dim N.  So each piece's rref basis,
    shifted, stays rref, and the rref basis of the whole is the union
    sorted by pivot.  The pieces' cells come in block order, so listing
    the pieces in block order is that sort.  When N = ⊕_b C_b is a sum
    too, Hom(B_a, N) = ⊕_b Hom(B_a, C_b) by the columns, again with
    disjoint supports, so every basis map lies in one block pair (a, b):
    `spherical.tilting_audit` reads the pair off its first cell.

    A block that is the regular module object A_A is read by Yoneda:
    Hom(e·A, N) ≅ N·e by φ ↦ φ(e), here with e = 1, as
    `homology._yoneda_blocks` reads it.  The map of n ∈ N sends bᵢ to
    n·bᵢ, so its matrix has row i equal to n·Mᵢ for the action Mᵢ of bᵢ
    on N, and the maps of the unit rows of N are the rows of
    [M₀ | M₁ | …] (`Module.stacked_action`); their canonical rows are
    the piece's basis, and no intertwining system is solved.  Every
    other block B solves `hom_space(B, target)`, once per distinct
    module, and its copies share the basis.
    """
    a = target.algebra
    f, s = a.field, target.dim
    pieces = {}
    rows = []  # flattened (column, entry) pairs, in pivot order
    at = 0
    for b in blocks:
        if b not in pieces:
            if b is Module.regular(a):
                pieces[b] = row_space_canonical(target.stacked_action()).pairs
            else:
                pieces[b] = [_flatten(h.matrix) for h in hom_space(b, target)]
        shift = at * s
        rows.extend([(shift + j, e) for j, e in pairs] for pairs in pieces[b])
        at += b.dim
    return [
        ModuleHom(source, target, _unflatten(f, pairs, source.dim, s), validate=False)
        for pairs in rows
    ]


def _projective_ideal(endo, e_proj):
    """Canonical rows of [P](T, T), the maps T → T that factor through a
    projective, as vectors of Λ = End(T): the ideal Λ·e_P·Λ.

    e_P = ``e_proj`` is the projector onto the projective part P of T,
    and `build_context` has checked add P = add A.  A map x·e_P·y factors
    through P.  Conversely a map through a projective Q factors through
    Pⁿ for some n, since Q lies in add A = add P, so it is a sum of maps
    T → P → T, each of the form x·e_P·y.  So [P](T, T) = Λ·e_P·Λ
    (Auslander–Reiten–Smalø, *Representation Theory of Artin Algebras*,
    CUP 1995, §IV.1): the span of bᵢ·v over the basis bᵢ of Λ and the
    canonical rows v of e_P·Λ (`_idempotent_piece`), each product read
    off the table as Σⱼ vⱼ·(bᵢbⱼ).

    The hom basis of Λ is rref in flattened Hom(T, T), so a map's
    coordinates are its entries at the basis pivots, a projection that
    keeps the pivot order.  So these rows are the coordinates of the
    canonical basis of the factoring subspace, in the order
    `stable_hom(T, T)` would give it.
    """
    p = endo.field.characteristic
    table = endo.table
    span = SpanBuilder(endo.field, endo.dim)
    for v in _idempotent_piece(endo, e_proj)[1].matrix.pairs:
        for i in range(endo.dim):
            if product := combine([(c, table[i][j]) for j, c in v], p):
                span.add(product)
    return span.basis_pairs()
