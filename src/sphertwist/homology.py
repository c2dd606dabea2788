"""Derived functors of surjections: Ext, Tor, and the cotwist cone.

Everything here is computed from finite projective resolutions, and
every derived functor is read through one kernel: Yoneda,
Hom(e·A, N) ≅ N·e, off the covers a resolution records.  Ext comes from
a minimal resolution of the first argument.  Tor and the derived tensor
square come from the same cochains by duality.  Write
D = Hom_k(−, k) (`frobenius.dual_module`), which swaps right A-modules
and right Aᵒᵖ-modules.  The adjunction

    D(P ⊗_A N) ≅ Hom_A(P, D N),   ξ ↦ (x ↦ (y ↦ ξ(x ⊗ y))),

(Cartan–Eilenberg, ch. VI) is natural in P.  So D of the tensored
complex P• ⊗_A N is the cochain complex Hom_A(P•, D N), differential
for differential.  Over a field D is exact, so it carries homology to
cohomology: D Tor_i(M, N) ≅ Ext^i(M, D N), and the two have the same
dimension.  Tor can resolve either argument, and the two routes must
agree.

For the data attached to a surjection p : A → B, the derived tensor
square B ⊗ᴸ_A B comes from one resolution P• → B of B as a right
A-module, read against N = D(_A B).  A B-action on the tensored complex
is a chain map X, and it becomes D(X) on the cochains.  D is
contravariant, so in dual bases the matrix of D(X) is the transpose of
the matrix of X; the actions of B on Tor are therefore the transposes
of the actions on the cohomology (see `_TensorSquare`).  The cone of
the degree-zero multiplication map then measures how far the
surjection is from being an isomorphism, degree by degree.

Left modules are carried as right modules over the opposite algebra
throughout, so a single module engine serves both sides.
"""

from __future__ import annotations

from .algebra import SurjectionData, opposite
from .errors import AuditFailed, NotConcentrated, SphertwistError
from .exactlin import Matrix, SpanBuilder, rank, rref
from .frobenius import dual_module
from .modules import (
    Module,
    ModuleHom,
    generator_indices,
    kernel_of,
    m_basis_row,
    quotient,
    restrict_scalars,
)
from .resolutions import CoveredTerm, is_projective, resolve_within


# ---------------------------------------------------------------------------
# bimodules


def _side_module(algebra, dim, mats, side):
    """One action family as a validated right module; a family that
    falsifies its algebra's unit or products raises AuditFailed."""
    module = Module(algebra, dim, mats, validate=False)
    try:
        module._validate()
    except SphertwistError as exc:
        raise AuditFailed("%s action: %s" % (side, exc), witness=side) from exc
    return module


class Bimodule:
    """A two-sided module: two commuting families of action matrices.

    left_mats[i] is the action of the i-th basis element of the left
    algebra, right_mats[j] that of the j-th basis element of the right
    algebra, both on row vectors.  A left action composes
    contravariantly on rows (the first factor of a product is applied
    last), so the left family is a right module over the opposite
    algebra.  The constructor builds and validates both side modules
    once and checks lₛ·rₜ = rₜ·lₛ for s and t in `generator_indices` of
    the left and right algebra.  Together these are the axioms of a
    right module over enveloping(left, right), whose element rⱼ ⊗ lᵢᵒᵖ
    acts by lᵢ·rⱼ, so that algebra is never built.  Any failure raises
    AuditFailed.

    Generator pairs suffice.  Both side modules are validated first, so
    x ↦ lₓ and y ↦ rᵧ are linear, multiplicative (up to the order of
    the factors) and send 1 to the identity.  For a fixed generator t,
    the x whose lₓ commutes with rₜ form a subspace that holds 1 and is
    closed under products, a subalgebra; it holds every generator s, so
    it is the whole left algebra.  Then for any fixed x, the y whose rᵧ
    commutes with lₓ form a subalgebra holding every generator t, so
    every lₓ commutes with every rᵧ.  ``right_projective`` and
    ``left_projective`` say whether each side module is projective, by
    the cover criterion (`is_projective`); each is computed on first use
    and kept.
    """

    def __init__(self, left_algebra, right_algebra, left_mats, right_mats):
        self.left_algebra = left_algebra
        self.right_algebra = right_algebra
        self.left_mats = list(left_mats)
        self.right_mats = list(right_mats)
        mats = self.left_mats + self.right_mats
        self.dim = mats[0].nrows if mats else 0
        self._right = _side_module(right_algebra, self.dim, self.right_mats, "right")
        self._left = _side_module(
            opposite(left_algebra), self.dim, self.left_mats, "left"
        )
        self._right_projective = None
        self._left_projective = None
        for i in generator_indices(left_algebra):
            li = self.left_mats[i]
            for j in generator_indices(right_algebra):
                rj = self.right_mats[j]
                if li.mul(rj) != rj.mul(li):
                    raise AuditFailed(
                        "left and right actions fail to commute on generator pair",
                        witness=(i, j),
                    )

    def restrict_right(self):
        """The underlying right module over the right-hand algebra."""
        return self._right

    def restrict_left(self):
        """The left structure, as a right module over the opposite algebra."""
        return self._left

    @property
    def right_projective(self):
        """Whether the bimodule is projective as a right module."""
        if self._right_projective is None:
            self._right_projective = is_projective(self._right)
        return self._right_projective

    @property
    def left_projective(self):
        """Whether the bimodule is projective as a left module."""
        if self._left_projective is None:
            self._left_projective = is_projective(self._left)
        return self._left_projective

    def __repr__(self):
        return "Bimodule(dim %d over %d x %d)" % (
            self.dim, self.left_algebra.dim, self.right_algebra.dim)


def left_module_along(p):
    """The target of a surjection as a left module over the source.

    This is _A B, B through p: a acts by left multiplication by p(a),
    stored as a right module over the opposite algebra whose action
    matrix for a is ``p.target.left_mult_matrix(p(a))``.  It is built
    without validation, as `restrict_scalars` builds B_A.  On rows,
    v·L_x·L_y = y·(x·v) = (y·x)·v, so x ↦ L_x is a right action of Bᵒᵖ
    on B: its compatibility is B's associativity, which B's constructor
    audited, and L_1 is the identity.  An audited surjection is a unital
    multiplicative map A → B, hence also Aᵒᵖ → Bᵒᵖ, and an action
    restricted along an algebra map is an action.  The tests run the
    full validation on the fixture and workload surjections.
    """
    a, b = p.source, p.target
    action = [
        b.left_mult_matrix(p.apply(a.basis_vector(k))) for k in range(a.dim)
    ]
    return Module(opposite(a), b.dim, action, validate=False)


def identity_surjection(a):
    """The identity of an algebra, packaged as a surjection."""
    return SurjectionData(
        a, a, Matrix.identity(a.field, a.dim), Matrix.zero(a.field, a.dim, 0)
    )


# ---------------------------------------------------------------------------
# Ext


def _window_check(res, count):
    if res.truncated and res.length < count:
        raise SphertwistError(
            "a truncated resolution of length %d cannot fill a window of %d"
            % (res.length, count)
        )


def ext_dims(a, m, n, count):
    """[dim Ext^i(m, n) for i in 0..count), from a minimal resolution of m
    read by `ext_from_resolution`."""
    if m.algebra is not a or n.algebra is not a:
        raise SphertwistError("ext arguments live over a different algebra")
    if count < 1:
        return []
    return ext_from_resolution(resolve_within(m, count), n, count)


def _yoneda_blocks(n, idempotents):
    """Per idempotent e: the canonical rows of N·e and their pivots, a
    basis of Hom(e·A, N) under φ ↦ φ(e).  A zero module has empty blocks.

    This is the Yoneda reading of Hom out of P = ⊕ₖ eₖ·A: Hom(P, N) ≅
    ⊕ₖ N·eₖ by φ ↦ (φ(eₖ))ₖ.  φ(eₖ) = φ(eₖ)·eₖ lies in N·eₖ, and any n
    in N·eₖ is φ(eₖ) for the map x ↦ n·x on eₖ·A.  So the canonical rows
    of N.action_of(eₖ) are a basis, and a vector of N·eₖ has its
    coordinates at their pivots.  No hom-space system is solved.
    """
    if n.dim == 0:
        return [([], []) for _ in idempotents]
    out = []
    for e in idempotents:
        r, pivots = rref(n.action_of(e))
        out.append((r.rows[: len(pivots)], pivots))
    return out


def _yoneda_dim(blocks):
    return sum(len(rows) for rows, _ in blocks)


def _yoneda_precompose(n, images, target, source_blocks, target_blocks):
    """The matrix of φ ↦ φ∘d : Hom(P, N) → Hom(P′, N), for the A-map
    d : P′ → P with d(e′ₗ) = images[l].

    P′ = ⊕ₗ e′ₗ·A, so d is fixed by its generator images, and only those
    are read: a differential, a comparison map or a lift serves alike.
    target is P read through its cover (`CoveredTerm`); the blocks are
    `_yoneda_blocks` of N over P′ and P.  The rows follow target_blocks
    and the columns source_blocks.  φ is (nₖ) with nₖ = φ(eₖ), and φ∘d
    is (Σₖ nₖ·xₖₗ)ₗ, where xₖₗ ∈ eₖ·A is the k-th component of d(e′ₗ):
    φ(d(e′ₗ)) = Σₖ φ(eₖ·xₖₗ) = Σₖ nₖ·xₖₗ, which lies in N·e′ₗ because
    d(e′ₗ) = d(e′ₗ)·e′ₗ.  So the block from k to l is right
    multiplication by xₖₗ, read at the pivots of N·e′ₗ.
    """
    f = n.algebra.field
    width = _yoneda_dim(source_blocks)
    rows = [[f.zero()] * width for _ in range(_yoneda_dim(target_blocks))]
    comps = [target.components(x) for x in images]
    at_l = 0
    for l, (l_rows, l_pivots) in enumerate(source_blocks):
        at_k = 0
        for k, (k_rows, _) in enumerate(target_blocks):
            x = comps[l][k]
            if k_rows and l_rows and any(x):
                act = n.action_of(x)
                for r, v in enumerate(k_rows):
                    y = act.apply_to_row(v)
                    row = rows[at_k + r]
                    for c, j in enumerate(l_pivots):
                        row[at_l + c] = y[j]
            at_k += len(k_rows)
        at_l += len(l_rows)
    return Matrix(f, rows, width)


def _yoneda_postcompose(psi, blocks, image_blocks):
    """The matrix of φ ↦ ψ∘φ : Hom(P, N) → Hom(P, N′), for a module map
    ψ : N → N′ given by its matrix.

    blocks and image_blocks are `_yoneda_blocks` of N and N′ over the
    same cover of P.  ψ∘φ sends eₖ to ψ(nₖ) = nₖ·ψ, which lies in N′·eₖ
    because ψ is a module map, so each row v of the N·eₖ block goes to
    v·ψ read at the pivots of the N′·eₖ block.
    """
    f = psi.field
    width = _yoneda_dim(image_blocks)
    rows = []
    at = 0
    for (k_rows, _), (img_rows, img_pivots) in zip(blocks, image_blocks):
        for v in k_rows:
            y = psi.apply_to_row(v)
            row = [f.zero()] * width
            for c, j in enumerate(img_pivots):
                row[at + c] = y[j]
            rows.append(row)
        at += len(img_rows)
    return Matrix(f, rows, width)


def _yoneda_cochains(res, n, count):
    """(blocks, differentials) of Hom(P•, N) on terms 0..count−1 of res.

    Each term is P = ⊕ₖ eₖ·A over its recorded cover (`CoveredTerm`;
    a term without a record raises), so Hom(P, N) ≅ ⊕ₖ N·eₖ
    (`_yoneda_blocks`), and the differential out of degree i is
    precomposition with maps[i] (`_yoneda_precompose`), or None where
    either end is zero.  No hom-space system is solved.
    """
    covered = [
        CoveredTerm(t, c) for t, c in zip(res.terms[:count], res.covers[:count])
    ]
    blocks = [_yoneda_blocks(n, ct.idempotents) for ct in covered]
    diffs = []
    for i, d in enumerate(res.maps[: len(covered) - 1]):
        if _yoneda_dim(blocks[i]) and _yoneda_dim(blocks[i + 1]):
            images = [d.apply(g) for g in covered[i + 1].gens]
            diffs.append(_yoneda_precompose(
                n, images, covered[i], blocks[i + 1], blocks[i]))
        else:
            diffs.append(None)
    return blocks, diffs


def _yoneda_cochain_modules(res, algebra, n, endos, count):
    """(terms, maps, blocks) of Hom(P•, N) on degrees 0..count−1, as
    modules over ``algebra``.

    The basis element g acts on every term by postcomposition with the
    N-endomorphism ``endos[g]`` (`_yoneda_postcompose`); every term is a
    validated module and every differential (`_yoneda_cochains`) a
    validated module map, which certifies that the action commutes with
    the differentials.  Degrees past the end of res get zero modules,
    ``blocks`` covers the degrees res reaches.
    """
    f = algebra.field
    blocks, diffs = _yoneda_cochains(res, n, count)
    terms = [
        Module(algebra, _yoneda_dim(b),
               [_yoneda_postcompose(e, b, b) for e in endos])
        if _yoneda_dim(b) else Module.zero(algebra)
        for b in blocks
    ]
    terms += [Module.zero(algebra) for _ in range(count - len(terms))]
    maps = []
    for i in range(count - 1):
        s, t = terms[i], terms[i + 1]
        d = diffs[i] if i < len(diffs) else None
        if d is None:
            maps.append(ModuleHom(s, t, Matrix.zero(f, s.dim, t.dim), validate=False))
        else:
            maps.append(ModuleHom(s, t, d))
    return terms, maps, blocks


def ext_from_resolution(res, n, count):
    """[dim Ext^i(m, n) for i in 0..count), m the target of res, by Yoneda
    (`_yoneda_cochains`).

    Degree i needs term i and the maps into and out of it, so only
    terms 0..count and maps 0..count−1 are read: a resolution built at
    any cap of at least count serves, because the one at cap count is
    a prefix of it (`resolve_past`).  A truncated resolution shorter
    than the window raises.
    """
    if n.algebra is not res.target.algebra:
        raise SphertwistError("ext arguments live over a different algebra")
    if count < 1:
        return []
    _window_check(res, count)
    blocks, diffs = _yoneda_cochains(res, n, count + 1)
    dims = [_yoneda_dim(b) for b in blocks]
    ranks = [0] + [0 if d is None else rank(d) for d in diffs] + [0]
    out = [d - ranks[i] - ranks[i + 1] for i, d in enumerate(dims[:count])]
    return out + [0] * (count - len(out))


# ---------------------------------------------------------------------------
# Tor of one-sided modules


def tor_dims(a, m, n, count, resolve_second=False):
    """[dim Tor_i(m, n) for i in 0..count).

    m is a right module over a, n a left module carried over the
    opposite algebra.  By default the first argument is resolved;
    resolve_second=True resolves the other one instead, which must give
    the same answer and serves as an independent route.
    """
    if m.algebra is not a:
        raise SphertwistError("first tor argument must live over the algebra")
    if n.algebra is not opposite(a):
        raise SphertwistError("second tor argument must live over the opposite")
    if count < 1:
        return []
    if resolve_second:
        return tor_from_resolution(resolve_within(n, count), m, count)
    return tor_from_resolution(resolve_within(m, count), n, count)


def tor_from_resolution(res, other, count):
    """[dim Tor_i for i in 0..count) of the target of res and other.

    res resolves one argument and other is the other one, on either
    side: Tor^A(M, N) = Tor^Aᵒᵖ(N, M) with N read as a right
    Aᵒᵖ-module, so one formula serves both.  By the adjunction of the
    module docstring, D(P• ⊗ other) ≅ Hom(P•, D other) naturally in P,
    and dualizing over a field keeps dimensions, so Tor_i has the
    dimension of Ext^i(target, D other): this is
    `ext_from_resolution(res, dual_module(other), count)`, read through
    the Yoneda kernel.  As there, only terms 0..count and maps
    0..count−1 are read, and a truncated resolution shorter than the
    window raises.
    """
    return ext_from_resolution(res, dual_module(other), count)


# ---------------------------------------------------------------------------
# the derived tensor square of a surjection, with both actions


class _Preimages:
    """Preimages u with u·M = v under one matrix M, factored once.

    The rows [Mᵣ | eᵣ] are reduced into one echelon span.  Reducing
    [v | 0] by it leaves [v − u·M | −u] for the combination u of rows
    it subtracted, so v has a preimage exactly when the first part
    comes out zero, and then u is the negated second part.
    """

    def __init__(self, mat):
        f = mat.field
        self.field = f
        self.width = mat.ncols
        self.span = SpanBuilder(f, mat.ncols + mat.nrows)
        for r, row in enumerate(mat.rows):
            entries = {j: e for j, e in enumerate(row) if e}
            entries[mat.ncols + r] = f.one()
            self.span.add_sparse(entries)
        self.pad = [f.zero()] * mat.nrows

    def of(self, v):
        red = self.span._reduce(list(v) + self.pad)
        if any(red[: self.width]):
            raise SphertwistError("vector has no preimage")
        return [self.field.neg(x) for x in red[self.width :]]


class _TensorSquare:
    """B ⊗ᴸ_A B for a surjection p : A → B, by duality through Yoneda.

    P• → B_A is a minimal resolution of B as a right A-module
    (`restrict_scalars` along p), and Tor^A(B, B) is the homology of
    P• ⊗_A B.  Its dual is read instead.  N = D(_A B) is
    `restrict_scalars(p, Module.coregular(B))`, where a acts on f by
    f ↦ f(p(a)·−).  The adjunction D(P ⊗_A B) ≅ Hom_A(P, N) of the
    module docstring is natural in P, so D carries the tensored complex
    onto the cochains Hom(P•, N), which `_yoneda_cochain_modules` reads
    off the recorded covers; over a field dim Tor_i = dim Hⁱ.

    B acts on the right of P ⊗_A B by 1 ⊗ ρ_b, for ρ_b : y ↦ y·b, a map
    of left A-modules.  The adjunction is natural in B as well, so
    D(1 ⊗ ρ_b) is postcomposition with D(ρ_b), whose matrix is ρ_b's
    transposed.  It is an A-endomorphism of N, because left and right
    multiplications of B commute.  D reverses composition, so
    b ↦ D(ρ_b) is a right action of Bᵒᵖ: ``terms`` and ``maps`` are the
    cochains as validated modules over opposite(B) and validated module
    maps, with one zero term past the top, so that every degree has an
    outgoing map; ``blocks`` are their Yoneda blocks and ``covered`` the
    terms of P• read through their covers.

    The multiplication map P₀ ⊗_A B → B sends eₖ ⊗ y to βₖ·y, with
    βₖ = ε(eₖ) for the augmentation ε.  Its rank is that of its dual
    D(B) → Hom(P₀, N), f ↦ f∘μ, whose Yoneda value at eₖ is
    y ↦ f(βₖ·y), that is f·βₖ in the coregular module; it lies in N·eₖ
    because βₖ = βₖ·p(eₖ).  No balancing quotient, no Kronecker product
    and no enveloping algebra is formed.

    ``complete`` says that B_A has a projective resolution within the
    cap, which certifies Tor^A(B, B) in every degree.  A truncated
    resolution leaves the top computed degree without its incoming
    differential, so the reported window stops one short of it.
    """

    def __init__(self, p, cap):
        b = p.target
        f = b.field
        res = resolve_within(restrict_scalars(p, Module.regular(b)), cap)
        self.complete = not res.truncated
        self.resolution = res
        self.p = p
        self.dual = restrict_scalars(p, Module.coregular(b))
        self.covered = [CoveredTerm(t, c) for t, c in zip(res.terms, res.covers)]
        rights = [
            b.right_mult_matrix(b.basis_vector(j)).transpose() for j in range(b.dim)
        ]
        count = len(res.terms)
        self.terms, self.maps, self.blocks = _yoneda_cochain_modules(
            res, opposite(b), self.dual, rights, count + 1)
        ranks = [rank(h.matrix) for h in self.maps]
        dims = [
            self.terms[i].dim - ranks[i] - (ranks[i - 1] if i else 0)
            for i in range(count)
        ]
        # the dual of the multiplication map: row j is f_j ↦ (f_j·βₖ)ₖ
        coregular = Module.coregular(b)
        acts = [
            (coregular.action_of(res.augmentation.apply(gen)), pivots)
            for gen, (_, pivots) in zip(self.covered[0].gens, self.blocks[0])
        ]
        mult_dual = Matrix(
            f,
            [[act.rows[j][q] for act, pivots in acts for q in pivots]
             for j in range(b.dim)],
            self.terms[0].dim,
        )
        # cone of the multiplication map, indexed cohomologically: the
        # tensor term of degree i sits at -i-1, the target at 0
        rank_c0 = rank(mult_dual)
        cone_dims = {-i - 1: d for i, d in enumerate(dims)}
        cone_dims[-1] -= rank_c0
        cone_dims[0] = b.dim - rank_c0
        if not self.complete:
            dims = dims[:-1]
            cone_dims.pop(-count)
        self.homology_dims = dims
        self.cone_dims = cone_dims


def tensor_square(p, cap=None):
    """The derived tensor square of a surjection, from B resolved over A."""
    if cap is None:
        cap = 2 * p.source.dim + 2
    return _TensorSquare(p, cap)


def _lift_left_multiplication(square, c, t, preimages):
    """Generator images of a chain map φ over λ_c : y ↦ c·y, degrees 0..t.

    λ_c is a right A-module map B_A → B_A.  φ₀(eₖ) is a preimage of
    c·βₖ under the augmentation times eₖ on the right, and φᵢ₊₁(eₗ) a
    preimage of φᵢ(d(eₗ)) under d times eₗ.  A preimage u times eₖ is
    still a preimage, because each target v has v·eₖ = v (c·βₖ =
    c·ε(eₖ·eₖ) = c·βₖ·eₖ, and likewise for φᵢ(d(eₗ))); and u·eₖ is the
    value at eₖ = eₖ·eₖ of the A-map w ↦ u·w on eₖ·A.  The preimages
    exist because φᵢ·d lands in the kernel of the previous map, which
    is the image of d.  ``preimages[i]`` is factored from the
    augmentation (i = 0) and from maps[i-1].
    """
    res, covered, b = square.resolution, square.covered, square.p.target
    first = covered[0]
    images = []
    for gen, e in zip(first.gens, first.idempotents):
        beta = res.augmentation.apply(gen)
        u = preimages[0].of(b.mul_vec(c, beta))
        images.append(first.term.apply(u, e))
    for i in range(t):
        src, tgt = covered[i + 1], covered[i]
        d = res.maps[i]
        images = [
            src.term.apply(
                preimages[i + 1].of(tgt.extend(images, d.apply(gen))), e)
            for gen, e in zip(src.gens, src.idempotents)
        ]
    return images


def _extract_bimodule(square, t):
    """Tor_t of the tensor square with its two actions, as D(Hᵗ).

    Hᵗ is the cocycles of Hom(P_t, N) modulo the coboundaries, carried
    by `kernel_of` and `quotient`, and Tor_t = D(Hᵗ) in the dual basis.
    D is contravariant, so each action of B on Tor_t is the transpose of
    the map it induces on Hᵗ (see `_TensorSquare`).  The right action of
    b is 1 ⊗ ρ_b, whose dual is the quotient's own action of b.  The
    left action of c comes from the lift φ of λ_c: φ ⊗_A B is a chain
    map of the tensored complex that acts on Tor_t as c, and its dual is
    precomposition with φ_t (`_yoneda_precompose` of φ_t's generator
    images), which maps cocycles to cocycles.  Any two lifts of λ_c are
    chain homotopic (comparison theorem, Cartan–Eilenberg ch. V), so
    they induce the same map on homology, whichever preimages were
    chosen; lifts of λ_c·λ_c' and of the identity likewise act as the
    product and the identity.  `Bimodule` validates both actions and
    that they commute, exactly.
    """
    b, f = square.p.target, square.p.target.field
    cycles, incl = kernel_of(square.maps[t])
    in_cycles = _Preimages(incl.matrix)
    boundaries = [in_cycles.of(r) for r in square.maps[t - 1].matrix.rows]
    h, proj = quotient(cycles, boundaries)
    section = _Preimages(proj.matrix)
    reps = [
        incl.apply(section.of(m_basis_row(f, h.dim, s))) for s in range(h.dim)
    ]
    res = square.resolution
    preimages = [_Preimages(res.augmentation.matrix)]
    preimages += [_Preimages(d.matrix) for d in res.maps[:t]]
    covered, blocks = square.covered[t], square.blocks[t]
    left = []
    for i in range(b.dim):
        images = _lift_left_multiplication(square, b.basis_vector(i), t, preimages)
        pre = _yoneda_precompose(square.dual, images, covered, blocks, blocks)
        left.append(Matrix(
            f,
            [proj.apply(in_cycles.of(pre.apply_to_row(r))) for r in reps],
            h.dim,
        ).transpose())
    return Bimodule(b, b, left, [m.transpose() for m in h.action])


def tor_bimodule(p, t, square=None):
    """Tor_t of the target with itself, carrying both actions.

    Requires the tensor square to be concentrated in degrees {0, t}
    within the window; raises NotConcentrated otherwise (also when a
    truncated window leaves concentration uncertified).  The actions
    are built as in `_extract_bimodule`.
    """
    if t < 1:
        raise SphertwistError("positive degree expected")
    if square is None:
        square = tensor_square(p)
    dims = square.homology_dims
    if t >= len(dims):
        raise NotConcentrated("window too short to reach the requested degree")
    for i, d in enumerate(dims):
        if d and i not in (0, t):
            raise NotConcentrated(
                "tensor square has homology in degree %d" % i, witness=dims
            )
    if not square.complete:
        raise NotConcentrated(
            "resolution truncated; concentration cannot be certified", witness=dims
        )
    return _extract_bimodule(square, t)


class CotwistData:
    """Everything the cotwist of a surjection is made of.

    tor_dims lists the homology of the derived tensor square on the
    half-open window [0, len); concentrated carries the unique positive
    degree when the profile is {0, t} and certified complete; the
    bimodule is that degree's homology with both actions, and shift is
    where the cone sits, namely -t-1.

    All of it is read by duality (`_TensorSquare`).  D(P• ⊗_A B) is
    Hom(P•, D(_A B)) naturally in P, and over a field D keeps
    dimensions and turns homology into cohomology, so tor_dims are the
    dimensions of the Yoneda cochains' cohomology, and cone_dims use the
    rank of the dual of the multiplication map, which is its rank.  The
    bimodule is D(Hᵗ) in the dual basis, so each action is the
    transpose of the one on Hᵗ, and transposing reverses products.  On
    Hᵗ, precomposition with lifts of left multiplications is a right
    B-action (the lift of c·c′ is the lift of c′ followed by that of c),
    and postcomposition with D(ρ_b) a right Bᵒᵖ-action.  Transposed, the
    first becomes a right Bᵒᵖ-action, which is how a left B-action is
    carried, and the second a right B-action: each lands on the side it
    has on Tor_t, and `Bimodule` validates both.

    complete says that the target has a projective resolution as a
    right module over the source within the cap, which certifies
    Tor^A(B, B) in every degree.  It does not ask for a finite
    resolution as a bimodule.  For an identity surjection A_A is
    projective, so tor is [dim A] and complete even where A has no
    finite resolution over A ⊗ Aᵒᵖ: the dual numbers give [2], where a
    bimodule resolution read [2, 0, 0, 0, 0, 0] and incomplete.  The
    window is as long as the one-sided resolution, so it can also be
    shorter than a bimodule resolution's by trailing zeros.
    """

    def __init__(self, surjection, tor_dims, cone_dims, concentrated,
                 cotwist_bimodule, shift, complete):
        if tor_dims and tor_dims[0] != surjection.target.dim:
            raise SphertwistError(
                "degree-zero tensor square must match the target dimension"
            )
        self.surjection = surjection
        self.tor_dims = tor_dims
        self.cone_dims = cone_dims
        self.concentrated = concentrated
        self.cotwist_bimodule = cotwist_bimodule
        self.shift = shift
        self.complete = complete

    def __repr__(self):
        return "CotwistData(tor %s, concentrated=%s, shift=%s)" % (
            self.tor_dims, self.concentrated, self.shift)


def cotwist_data(p, cap=None):
    """Resolve the surjection's tensor square and read off the cotwist.

    Reports the homology profile, the cone profile of the degree-zero
    multiplication map, and — when the profile is certified concentrated
    in {0, t} — the twisting bimodule and its shift.
    """
    square = tensor_square(p, cap=cap)
    dims = square.homology_dims
    positive = [i for i, d in enumerate(dims) if d and i > 0]
    concentrated = None
    bimod = None
    shift = None
    if square.complete and len(positive) == 1:
        t = positive[0]
        concentrated = t
        bimod = tor_bimodule(p, t, square=square)
        shift = -t - 1
        expected = {-t - 1: dims[t]}
        for deg, d in square.cone_dims.items():
            want = expected.get(deg, 0)
            if d != want:
                raise SphertwistError(
                    "cone profile disagrees with the homology profile",
                    witness=square.cone_dims,
                )
    return CotwistData(
        p,
        dims,
        square.cone_dims,
        concentrated,
        bimod,
        shift,
        square.complete,
    )
