"""Bounded complexes and the twist around a surjective algebra map.

The twist of a surjection p : A → B sends a module c to RHom_A(K, c),
K = ker p, materialized as a genuine complex of right A-modules.  Every
Hom in it is read by Yoneda, Hom(e·A, N) ≅ N·e, off a recorded
resolution; no hom-space system is solved.  Write D = Hom_k(−, k)
(`dual_module`), which swaps right A-modules and right Aᵒᵖ-modules.

The inputs of `twist_apply` and `twist_triangle_check` are modules, read
in degree 0.  The twist of m placed in degree d is
``shift(twist_apply(p, m), -d)``, and the twist is additive, so that of
a direct sum is the twist of ``direct_sum(mods)[0]``.

- An injective coresolution of c is D of a projective resolution.  The
  injective envelope of c is D of the projective cover of D(c) over Aᵒᵖ
  (`injective_envelope`), so the minimal injective coresolution of c is
  I• = D(P•) for the minimal resolution P• → D(c) over Aᵒᵖ, whose
  terms carry their cover records.
- Hom into it is Hom out of a projective.  Hom_A(K, D P) ≅ D(K ⊗_A P)
  ≅ Hom_Aᵒᵖ(P, D K), naturally in P, so the twist term in degree j is
  Hom(Pⱼ, D K) ≅ ⊕ₖ D(K)·eₖ and the differential out of it is
  precomposition with the map Pⱼ₊₁ → Pⱼ (`_yoneda_cochain_modules`).
- A acts through K.  The action (f·a)(x) = f(a·x) precomposes with the
  right-module map λₐ : x ↦ a·x of K, which becomes postcomposition with
  D(λₐ), the transpose of the matrix of λₐ.
- The tail is cut with a kernel term once the certified vanishing
  degree, the projective dimension of K plus one, is passed.

The counit comes from the same construction.  I• = Hom_A(A, I•) is
Hom(P•, D A), Hom_A(B, I•) is Hom(P•, D B), and evaluation at the unit,
which is precomposition with p : A → B, is postcomposition with
D(p) = ``p.matrix``ᵀ.  The cone of that evaluation is compared against
the twist degree by degree, with the twist's cohomology independently
recomputed from a projective resolution of the kernel, so the
comparison is a genuine two-route test.

Morphism counts in the homotopy category are computed against a
replacement of the source by a complex of projectives, built by a
descending staircase of covers and then shrunk by cancelling every
invertible block in a differential.  The replacement's terms carry
their cover records, so hom out of it is read by Yoneda as well.  The
equivalence certificate runs the whole battery for one surjection:
twists of the idempotent slices of the regular module, their pairwise
hom tables across a shift window, the endomorphism count in shift zero,
and a faithfulness certificate for the algebra acting on the cohomology
of its own twist.
"""

from __future__ import annotations

from .algebra import Algebra, opposite
from .errors import (
    AlgebraMismatch,
    AuditFailed,
    CapExceeded,
    NotAChainMap,
    SphertwistError,
)
from .exactlin import Matrix, Preimages, kernel_basis, product_residual, rank
from .frobenius import _indecomposable_projectives, dual_module
from .homology import (
    _yoneda_blocks,
    _yoneda_cochain_modules,
    _yoneda_dim,
    _yoneda_postcompose,
    _yoneda_precompose,
    ext_dims,
    ext_from_resolution,
    left_module_along,
)
from .modules import (
    Module,
    ModuleHom,
    _covered,
    _flatten,
    _idempotent_piece,
    _piece_sum,
    balanced_tensor,
    direct_sum,
    identity_hom,
    kernel_of,
    projective_cover,
    quotient,
    restrict_scalars,
    submodule,
)
from .resolutions import minimal_resolution


# ---------------------------------------------------------------------------
# bounded complexes


class ChainComplex:
    """A bounded complex of right modules, differentials raising degree.

    ``terms[i]`` sits in degree ``lo + i`` and ``maps[i]`` goes from
    ``terms[i]`` to ``terms[i+1]``.  Zero terms at either end are
    trimmed on construction, every composite of consecutive
    differentials is checked to vanish, and endpoints of each map must
    be the stored term objects themselves.  ``truncated`` marks a
    complex whose top was cut by a cap rather than by a certified
    vanishing bound.

    A complex whose terms all carry cover records (``covered``, set by
    `modules._piece_sum`) is a complex of projectives ⊕ eₖ·A that
    `hom_complex` can read by Yoneda.
    """

    def __init__(self, algebra, lo, terms, maps, validate=True, truncated=False):
        terms = list(terms)
        maps = list(maps)
        if len(maps) != max(len(terms) - 1, 0):
            raise SphertwistError(
                "complex with %d terms needs %d differentials, got %d"
                % (len(terms), max(len(terms) - 1, 0), len(maps))
            )
        first = 0
        while first < len(terms) and terms[first].dim == 0:
            first += 1
        last = len(terms)
        while last > first and terms[last - 1].dim == 0:
            last -= 1
        self.algebra = algebra
        self.lo = lo + first if last > first else 0
        self.terms = terms[first:last]
        self.maps = maps[first : max(last - 1, first)]
        self.truncated = truncated
        if validate:
            self._validate()

    def _validate(self):
        for t in self.terms:
            if t.algebra is not self.algebra:
                raise AlgebraMismatch("complex term over the wrong algebra")
        for i, h in enumerate(self.maps):
            if h.source is not self.terms[i] or h.target is not self.terms[i + 1]:
                raise SphertwistError("differential %d endpoints mismatch" % i)
        for i in range(len(self.maps) - 1):
            if not self.maps[i].compose(self.maps[i + 1]).matrix.is_zero():
                raise SphertwistError(
                    "differential fails d∘d = 0 at degree %d" % (self.lo + i)
                )

    @property
    def hi(self):
        return self.lo + len(self.terms) - 1

    @property
    def support(self):
        """(lowest degree, highest degree), or None for the zero complex."""
        if not self.terms:
            return None
        return (self.lo, self.hi)

    def term(self, k):
        if self.terms and self.lo <= k <= self.hi:
            return self.terms[k - self.lo]
        return Module.zero(self.algebra)

    def differential(self, k):
        """The map leaving degree k (a zero hom outside the window)."""
        if self.terms and self.lo <= k < self.hi:
            return self.maps[k - self.lo]
        src, tgt = self.term(k), self.term(k + 1)
        return ModuleHom(
            src,
            tgt,
            Matrix.zero(self.algebra.field, src.dim, tgt.dim),
            validate=False,
        )

    def __eq__(self, other):
        if not isinstance(other, ChainComplex):
            return NotImplemented
        if self.algebra is not other.algebra:
            return False
        if self.lo != other.lo or len(self.terms) != len(other.terms):
            return False
        for a, b in zip(self.terms, other.terms):
            if a.dim != b.dim or a.action != b.action:
                return False
        return all(a.matrix == b.matrix for a, b in zip(self.maps, other.maps))

    def __repr__(self):
        if not self.terms:
            return "ChainComplex(zero)"
        dims = ",".join(str(t.dim) for t in self.terms)
        return "ChainComplex([%d,%d] dims %s%s)" % (
            self.lo, self.hi, dims, ", truncated" if self.truncated else "")


class ChainMap:
    """A degree-wise map of complexes, audited square by square.

    ``comps[i]`` is the component in degree ``lo + i``; degrees outside
    the given range carry the zero map.  Every component must
    intertwine (ModuleHom checks that) and every square must commute —
    a failure raises with the offending degree and both composites as
    the witness.  Each square is tested as a sparse residual
    (`product_residual`); the composites are formed only for a witness.
    """

    def __init__(self, source, target, lo, comps):
        if source.algebra is not target.algebra:
            raise AlgebraMismatch("chain map between complexes over different algebras")
        self.source = source
        self.target = target
        self.lo = lo
        self.comps = list(comps)
        self._validate()

    def component(self, k):
        if self.comps and self.lo <= k < self.lo + len(self.comps):
            return self.comps[k - self.lo]
        src, tgt = self.source.term(k), self.target.term(k)
        return ModuleHom(
            src,
            tgt,
            Matrix.zero(self.source.algebra.field, src.dim, tgt.dim),
            validate=False,
        )

    def _validate(self):
        for i, h in enumerate(self.comps):
            k = self.lo + i
            if h.source.dim != self.source.term(k).dim:
                raise SphertwistError("component %d source dimension mismatch" % k)
            if h.target.dim != self.target.term(k).dim:
                raise SphertwistError("component %d target dimension mismatch" % k)
        degrees = []
        if self.source.terms:
            degrees += [self.source.lo - 1, self.source.hi]
        if self.target.terms:
            degrees += [self.target.lo - 1, self.target.hi]
        if not degrees:
            return
        p = self.source.algebra.field.characteristic
        for k in range(min(degrees), max(degrees) + 1):
            square = (
                self.component(k).matrix, self.target.differential(k).matrix,
                self.source.differential(k).matrix, self.component(k + 1).matrix,
            )
            if product_residual(*(m.pairs for m in square), p) is not None:
                lhs, rhs = square[0].mul(square[1]), square[2].mul(square[3])
                raise NotAChainMap(
                    "square at degree %d does not commute" % k,
                    witness=(k, lhs, rhs),
                )


def identity_chain_map(c):
    return ChainMap(c, c, c.lo, [identity_hom(t) for t in c.terms])


def shift(c, n):
    """The complex moved n degrees down, differentials flipped for odd n."""
    if n % 2 == 0:
        maps = c.maps
    else:
        maps = [
            ModuleHom(
                h.source,
                h.target,
                h.matrix.scale(c.algebra.field.neg(c.algebra.field.one())),
                validate=False,
            )
            for h in c.maps
        ]
    return ChainComplex(
        c.algebra, c.lo - n, c.terms, maps, validate=False, truncated=c.truncated
    )


def cone(f):
    """The mapping cone of a chain map, target in place, source pushed up."""
    x, y = f.source, f.target
    field = x.algebra.field
    degrees = []
    if y.terms:
        degrees += [y.lo, y.hi]
    if x.terms:
        degrees += [x.lo - 1, x.hi - 1]
    if not degrees:
        return ChainComplex(x.algebra, 0, [], [])
    lo, hi = min(degrees), max(degrees)
    sums = []
    for k in range(lo, hi + 1):
        s, _inj, _prj = direct_sum([y.term(k), x.term(k + 1)])
        sums.append(s)
    neg = field.neg(field.one())
    maps = []
    for k in range(lo, hi):
        dy = y.differential(k).matrix
        dx = x.differential(k + 1).matrix
        fk = f.component(k + 1).matrix
        top = dy.hstack(Matrix.zero(field, dy.nrows, dx.ncols))
        bottom = fk.hstack(dx.scale(neg))
        maps.append(ModuleHom(sums[k - lo], sums[k - lo + 1], top.vstack(bottom)))
    return ChainComplex(x.algebra, lo, sums, maps, validate=True)


def cohomology_dims(c):
    """{degree: dim} of the nonzero cohomology of a bounded complex."""
    out = {}
    if not c.terms:
        return out
    # the rank of each differential, with the zero maps into the lowest
    # term and out of the highest at either end
    ranks = [0] + [rank(h.matrix) for h in c.maps] + [0]
    for i, t in enumerate(c.terms):
        d = t.dim - ranks[i + 1] - ranks[i]
        if d < 0:
            raise SphertwistError("negative cohomology dimension — broken complex")
        if d:
            out[c.lo + i] = d
    return out


def euler_characteristic(c):
    """Alternating sum of term dimensions (equals that of cohomology)."""
    total = 0
    for i, t in enumerate(c.terms):
        k = c.lo + i
        total += t.dim if k % 2 == 0 else -t.dim
    return total


# ---------------------------------------------------------------------------
# scalar-coefficient complexes: hom and tensor totalizations


_SCALAR_CACHE = []


def _scalar_algebra(field):
    for f, alg in _SCALAR_CACHE:
        if f == field:
            return alg
    one = [(0, field.one())]
    alg = Algebra(field, [[one]], one)
    _SCALAR_CACHE.append((field, alg))
    return alg


def _vect(field, n):
    return Module(
        _scalar_algebra(field), n, [Matrix.identity(field, n)], validate=False
    )


def hom_complex(c, d):
    """Total hom complex of two bounded complexes, over the base field.

    Degree n collects the maps c^k → d^{k+n} for every k; the
    differential sends f to f∘d_d − (−1)^n d_c∘f (maps written on the
    right, so f∘d_d follows f by the differential of d).  Every term of
    the source must carry a cover record (``covered``), as the terms of
    a `perfect_model` do; a term without one raises.  Each c^k is
    ⊕ᵢ eᵢ·A, so Hom(c^k, d^{k+n}) ≅ ⊕ᵢ d^{k+n}·eᵢ by Yoneda
    (`_yoneda_blocks`): following f by d_d is postcomposition
    (`_yoneda_postcompose`) and preceding it by d_c is precomposition
    (`_yoneda_precompose`).  No hom-space system is solved.  The result
    is a complex of modules over the one-dimensional algebra, blocks
    ordered by k inside each degree.  Because the source is projective,
    cohomology in degree n counts chain maps to the n-fold shift modulo
    homotopy.
    """
    if c.algebra is not d.algebra:
        raise AlgebraMismatch("hom complex across different algebras")
    field = c.algebra.field
    if not c.terms or not d.terms:
        return ChainComplex(_scalar_algebra(field), 0, [], [])
    covered = {c.lo + i: _covered(t) for i, t in enumerate(c.terms)}
    blocks = {
        (k, j): _yoneda_blocks(d.term(j), ct.idempotents)
        for k, ct in covered.items()
        for j in range(d.lo, d.hi + 1)
    }
    images = {
        k: [c.differential(k - 1).apply(g) for g in covered[k - 1].gens]
        for k in covered
        if k - 1 in covered
    }
    n_lo = d.lo - c.hi
    n_hi = d.hi - c.lo
    offsets = {}
    terms = []
    for n in range(n_lo, n_hi + 1):
        at = 0
        for k in covered:
            offsets[(k, n)] = at
            at += _yoneda_dim(blocks.get((k, k + n), []))
        terms.append(_vect(field, at))
    neg = field.neg(field.one())
    maps = []
    for n in range(n_lo, n_hi):
        src, tgt = terms[n - n_lo], terms[n - n_lo + 1]
        rows = [[] for _ in range(src.dim)]
        sign = neg if n % 2 == 0 else field.one()  # −(−1)^n
        for k in covered:
            j = k + n
            if not d.lo <= j <= d.hi:
                continue
            at = offsets[(k, n)]
            if j < d.hi:
                post = _yoneda_postcompose(
                    d.differential(j).matrix, blocks[(k, j)], blocks[(k, j + 1)]
                )
                _place(rows, at, offsets[(k, n + 1)], post, field.one())
            if k in images:
                pre = _yoneda_precompose(
                    d.term(j), images[k], covered[k],
                    blocks[(k - 1, j)], blocks[(k, j)],
                )
                _place(rows, at, offsets[(k - 1, n + 1)], pre, sign)
        rows = [sorted(row) for row in rows]
        maps.append(ModuleHom(src, tgt, Matrix.from_pairs(field, rows, tgt.dim), validate=False))
    return ChainComplex(_scalar_algebra(field), n_lo, terms, maps, validate=True)


def _place(rows, at_r, at_c, mat, scalar):
    """Add the pairs of scalar·mat to rows (lists of pairs, sorted at the
    end) at the block starting at (at_r, at_c).

    Each block of a hom-complex differential gets one contribution:
    postcomposition keeps the source degree k, precomposition lowers it
    by one, so the two never share a block and nothing is summed.
    """
    f = mat.field
    for r, src in enumerate(mat.pairs, at_r):
        rows[r] += [(at_c + j, f.mul(scalar, x)) for j, x in src]


# ---------------------------------------------------------------------------
# the twist


def _kernel_module(p):
    """(kernel of p as a submodule of the regular module, inclusion)."""
    return submodule(Module.regular(p.source), p.kernel_basis.transpose())


def _over(m, lam):
    """The module m, which must be a `Module` over lam itself."""
    if not isinstance(m, Module):
        raise SphertwistError("twist input must be a Module")
    if m.algebra is not lam:
        raise AlgebraMismatch("module lives over a different algebra")
    return m


def _kernel_data(p, cap):
    """(kernel module, D of its left module, its minimal resolution).

    K = ker p is a two-sided ideal, because p is an audited algebra map,
    so left multiplication keeps it.  The regular module of Aᵒᵖ is A with
    g acting by x ↦ g·x, and K is a submodule of it; `submodule` writes
    that action in the canonical rows of K, which are the coordinates of
    the kernel module too, and a kernel basis that is not left-stable
    still raises `NotASubmodule`.  The second entry is the `dual_module`
    of that left module: a right A-module on D K whose g acts by
    D(λ_g), the transposed left multiplication.  The resolution is
    `minimal_resolution` at the cap, ``truncated`` when the kernel does
    not resolve within it.  A zero kernel gives (K, None, None).
    """
    k_mod, k_incl = _kernel_module(p)
    if k_mod.dim == 0:
        return k_mod, None, None
    left = submodule(Module.regular(opposite(p.source)), k_incl.matrix)[0]
    return k_mod, dual_module(left), minimal_resolution(k_mod, cap)


def _twist_core(p, c_mod, kernel, window=None):
    """(twist complex Hom_A(K, I•) of a module, resolution read for I•).

    I• = D(P•) for the minimal resolution P• → D(c_mod) over Aᵒᵖ, so term
    j is Hom_Aᵒᵖ(Pⱼ, D K) with A acting by postcomposition with D(λₐ) =
    (left multiplication by a on K)ᵀ, the action ``kernel`` carries (see
    the module docstring); terms 0..depth + 1 are built, depth =
    pd K + 1.  A perfect kernel cuts the
    complex at degree depth with the kernel of the next differential,
    since Ext^i(K, c) = 0 past pd K; a truncated one needs a window and
    keeps degrees 0..depth, depth reaching the top of the window.
    ``kernel`` is `_kernel_data` of p, and c_mod lies over p.source
    (`_over`).  The resolution P• is returned with the complex, None for
    a zero kernel.
    """
    lam = p.source
    k_mod, acting, res = kernel
    if k_mod.dim == 0:
        return ChainComplex(lam, 0, [], []), None
    complete = not res.truncated
    if complete:
        depth = res.length + 1
    else:
        if window is None:
            raise CapExceeded(
                "kernel has no finite resolution within the cap; "
                "pass an explicit window to accept a truncated twist",
                witness=res,
            )
        depth = max(window[1], 1)
    dual_res = minimal_resolution(dual_module(c_mod), depth + 1)
    hom_modules, diffs, _blocks = _yoneda_cochain_modules(
        dual_res, dual_module(k_mod), acting, depth + 2)
    if complete:
        # the last differential corestricted to the kernel of the next:
        # each of its rows is a combination of the kernel's basis rows
        ker_mod, ker_incl = kernel_of(diffs[depth])
        last = diffs[depth - 1]
        pre = Preimages(ker_incl.matrix)
        try:
            co = [pre.of(row) for row in last.matrix.pairs]
        except SphertwistError:
            raise AuditFailed("differential image escapes the kernel cut")
        terms = hom_modules[:depth] + [ker_mod]
        maps = diffs[: depth - 1] + [
            ModuleHom(last.source, ker_mod, Matrix.from_pairs(lam.field, co, ker_mod.dim))
        ]
    else:
        terms = hom_modules[: depth + 1]
        maps = diffs[:depth]
    return ChainComplex(lam, 0, terms, maps, truncated=not complete), dual_res


def twist_apply(p, m, window=None, cap=None):
    """The twist of a module m, read in degree 0: derived hom out of ker p.

    Returns a bounded complex of right modules over the source algebra,
    supported from degree 0 up to the certified vanishing bound
    (projective dimension of the kernel plus one, where the tail is cut
    by a kernel term).  A kernel with no finite resolution within the
    cap needs an explicit window and yields a complex flagged
    ``truncated``.  The cohomology is cross-checked against the same
    dimensions computed from a projective resolution of the kernel —
    the whole profile when the kernel is perfect, the prefix below the
    cut when truncated — and a disagreement between the two routes
    raises.  A perfect kernel's profile is read off the resolution the
    twist already holds; a truncated one is resolved again over the
    window, which can run past the cap.

    m must be a `Module` over p.source.  The twist of m placed in degree
    d is ``shift(twist_apply(p, m), -d)``; that of a direct sum is the
    twist of ``direct_sum(mods)[0]``.
    """
    lam = p.source
    c_mod = _over(m, lam)
    kernel = _kernel_data(p, cap)
    out, _dual_res = _twist_core(p, c_mod, kernel, window)
    k_mod, _acting, res = kernel
    if k_mod.dim == 0:
        return out
    got = cohomology_dims(out)
    if res.truncated:
        depth = max(window[1], 1)
        expected = ext_dims(k_mod, c_mod, depth + 1)[:depth]
        got = {k: v for k, v in got.items() if k < depth}
    else:
        expected = ext_from_resolution(res, c_mod, res.length + 2)
    want = {i: d for i, d in enumerate(expected) if d}
    if want != got:
        raise AuditFailed(
            "coresolution route disagrees with the resolution route",
            witness=(got, want),
        )
    return out


# ---------------------------------------------------------------------------
# the counit triangle


class TriangleReport:
    """Degree table comparing the cone of the counit with the twist.

    ``cone_profile`` and ``twist_profile`` map degrees to cohomology
    dimensions inside ``compare_window``; both were computed from the
    same surjection by different constructions, and the report is only
    returned when they agree (a mismatch raises instead).
    ``counit_iso`` records whether the cone died entirely.
    """

    def __init__(self, cone_profile, twist_profile, compare_window, counit_iso):
        self.cone_profile = cone_profile
        self.twist_profile = twist_profile
        self.compare_window = compare_window
        self.counit_iso = counit_iso
        self.verdict = cone_profile == twist_profile

    def __repr__(self):
        return "TriangleReport(window %s, cone %s, twist %s)" % (
            self.compare_window, self.cone_profile, self.twist_profile)


def _balanced_collapse_dim(p, blocks):
    """dim of Hom(B, I) ⊗_B B by explicit balancing — audits the collapse.

    The hom space, read as Hom_Aᵒᵖ(P, D B) through its Yoneda
    ``blocks``, is a right module over the target through precomposition
    with left multiplication, (f·b)(x) = f(b·x), which is
    postcomposition with D(λ_b) = (left multiplication by b)ᵀ, the
    action of b on `Module.coregular`; tensoring back over the target
    against B as a left module over itself, `Module.regular` of the
    opposite, must return the same dimension, and that identity is what
    lets evaluation at the unit stand in for the whole derived tensor.
    """
    b = p.target
    if not _yoneda_dim(blocks):
        return 0
    right = Module(b, _yoneda_dim(blocks), [
        _yoneda_postcompose(act, blocks, blocks) for act in Module.coregular(b).action
    ], validate=False)
    return balanced_tensor(right, Module.regular(opposite(b))).dim


def twist_triangle_check(p, m, cap=None):
    """Compare the cone of the evaluation counit against the twist of m.

    m must be a `Module` over p.source, read in degree 0; for a direct
    sum pass ``direct_sum(mods)[0]`` (both profiles are additive).  The
    twist's resolution P• → D(m) over Aᵒᵖ serves all three complexes:
    I• = Hom(P•, D A), Hom_A(B, I•) = Hom(P•, D B), each with A acting
    by the transposed left multiplications, and the counit, evaluation
    at the unit, is postcomposition with D(p) = ``p.matrix``ᵀ, audited
    injective and audited to survive the collapse of Hom_A(B, I) ⊗_B B.
    A zero kernel still gets one step of P•, so the counit is genuinely
    checked to be an isomorphism.  The cone's cohomology must match the
    twist's in every window degree, and a mismatch raises rather than
    reporting.
    """
    lam = p.source
    c_mod = _over(m, lam)
    kernel = _kernel_data(p, cap)
    # without a window, `_twist_core` refuses a kernel that does not
    # resolve within the cap
    twist, dual_res = _twist_core(p, c_mod, kernel)
    if dual_res is None:
        depth = 0
        dual_res = minimal_resolution(dual_module(c_mod), 1)
    else:
        depth = kernel[2].length + 1
    count = len(dual_res.terms)
    inj_terms, inj_maps, a_blocks = _yoneda_cochain_modules(
        dual_res, dual_module(Module.regular(lam)), Module.coregular(lam), count)
    srb_terms, srb_maps, b_blocks = _yoneda_cochain_modules(
        dual_res, dual_module(restrict_scalars(p, Module.regular(p.target))),
        dual_module(left_module_along(p)), count)
    d_p = p.matrix.transpose()
    gammas = []
    for hm, i_term, bb, ab in zip(srb_terms, inj_terms, b_blocks, a_blocks):
        gamma = ModuleHom(hm, i_term, _yoneda_postcompose(d_p, bb, ab))
        if rank(gamma.matrix) != hm.dim:
            raise AuditFailed("evaluation at the unit failed to be injective")
        collapsed = _balanced_collapse_dim(p, bb)
        if collapsed != hm.dim:
            raise AuditFailed(
                "tensor collapse over the target changed the dimension",
                witness=(collapsed, hm.dim),
            )
        gammas.append(gamma)
    # the two complexes over the coresolution, and the cone between them
    srb_cx = ChainComplex(lam, 0, srb_terms, srb_maps)
    inj_cx = ChainComplex(lam, 0, inj_terms, inj_maps)
    cone_all = cohomology_dims(cone(ChainMap(srb_cx, inj_cx, 0, gammas)))
    cone_dims = {k: v for k, v in cone_all.items() if -1 <= k <= depth}
    twist_dims = cohomology_dims(twist)
    if cone_dims != twist_dims:
        raise AuditFailed(
            "cone of the counit disagrees with the twist",
            witness=(cone_dims, twist_dims),
        )
    return TriangleReport(cone_dims, twist_dims, (-1, depth), not cone_all)


# ---------------------------------------------------------------------------
# projective replacement, minimization, homotopy hom tables


def _projective_staircase(c, cap=None):
    """A quasi-isomorphic complex of projectives mapping onto c.

    Built from the top degree downwards: each new term covers the fiber
    product of the incoming differential with the cycles of the part
    already built, which keeps the comparison map a quasi-isomorphism;
    once below the support the loop is resolving one kernel module and
    terminates exactly when that kernel is perfect.  Raises when the
    cap is passed first.  Returns (complex, comparison chain map); each
    term is the source of a cover, so it carries its cover record.
    """
    lam = c.algebra
    field = lam.field
    if not c.terms:
        empty = ChainComplex(lam, 0, [], [])
        return empty, ChainMap(empty, c, 0, [])
    if cap is None:
        cap = 2 * lam.dim + 2 + len(c.terms)
    hi = c.hi
    p_terms = {}
    deltas = {}
    phis = {}
    q0, epi0 = projective_cover(c.term(hi))
    p_terms[hi] = q0
    phis[hi] = epi0
    k = hi
    steps = 0
    # the probe's target c_{k+1} ⊕ P_{k+2} is the pair of the step
    # before, and c_hi itself (P_{hi+1} = 0) on the first step
    tgt = c.term(hi)
    while True:
        k -= 1
        steps += 1
        if steps > cap:
            raise CapExceeded(
                "projective replacement does not terminate within %d steps" % cap
            )
        ck = c.term(k)
        pk = p_terms[k + 1]
        pair, injs, prjs = direct_sum([ck, pk])
        # map (x, q) ↦ (d x − φ q, δ q) whose kernel is the fiber product
        nxt = p_terms.get(k + 2)
        delta_next = deltas.get(k + 1)
        width = nxt.dim if nxt is not None else 0
        neg = field.neg(field.one())
        top = c.differential(k).matrix.hstack(Matrix.zero(field, ck.dim, width))
        phi_block = phis[k + 1].matrix.scale(neg)
        delta_block = (
            delta_next.matrix if delta_next is not None
            else Matrix.zero(field, pk.dim, width)
        )
        bottom = phi_block.hstack(delta_block)
        probe = ModuleHom(pair, tgt, top.vstack(bottom))
        w_mod, w_incl = kernel_of(probe)
        if w_mod.dim == 0 and k < c.lo:
            break
        # a zero fiber with the support continuing below is covered by
        # the sum of no pieces, and the descent goes on
        q, epi = projective_cover(w_mod)
        into_pair = epi.compose(w_incl)
        p_terms[k] = q
        phis[k] = into_pair.compose(prjs[0])
        deltas[k] = into_pair.compose(prjs[1])
        tgt = pair
    lo_p = min(p_terms)
    terms = [p_terms[j] for j in range(lo_p, hi + 1)]
    maps = [deltas[j] for j in range(lo_p, hi)]
    px = ChainComplex(lam, lo_p, terms, maps)
    comp = ChainMap(px, c, lo_p, [phis[j] for j in range(lo_p, hi + 1)])
    _audit_quasi_iso(px, comp, c)
    return px, comp


def _audit_quasi_iso(px, comp, c):
    """Dimensions equal and the induced map surjective in every degree."""
    hp = cohomology_dims(px)
    hc = cohomology_dims(c)
    if hp != hc:
        raise AuditFailed(
            "replacement changed the cohomology", witness=(hp, hc)
        )
    field = c.algebra.field
    degrees = set(hp) | set(hc)
    for k in degrees:
        zp = _cycle_rows(px, k)
        pushed = zp.mul(comp.component(k).matrix) if zp.nrows else zp
        bc = c.differential(k - 1).matrix
        stacked = bc if not pushed.nrows else (
            pushed if not bc.nrows else pushed.vstack(bc)
        )
        want = c.term(k).dim - rank(c.differential(k).matrix)
        if rank(stacked) != want:
            raise AuditFailed(
                "replacement is not a quasi-isomorphism at degree %d" % k
            )


def _cycle_rows(c, k):
    """Rows spanning the cycles of degree k."""
    d = c.differential(k).matrix
    if d.nrows == 0:
        return Matrix.zero(c.algebra.field, 0, c.term(k).dim)
    return kernel_basis(d.transpose()).transpose()


def _eliminate_units(px):
    """Cancel invertible blocks in the differentials of a complex of
    covered projectives.

    The summands are the pieces eₖ·A of each term's record.  A
    square invertible component between a summand of one term and a
    summand of the next spans a contractible pair; removing it and
    correcting the surviving block by the standard complement keeps the
    homotopy type.  Loops until no block qualifies, then rebuilds each
    term as the shared `_piece_sum` of the idempotents left (a term that
    lost no summand is the term it was) and re-audits the cohomology
    against the original.  The result's terms carry their records.
    """
    if not px.terms:
        return px
    lam = px.algebra
    field = lam.field
    degs = list(range(px.lo, px.hi + 1))
    idems = {k: _covered(t).idempotents for k, t in zip(degs, px.terms)}
    mats = {k: px.differential(k).matrix for k in range(px.lo, px.hi)}
    before = cohomology_dims(px)

    def offsets(k):
        out = []
        at = 0
        for e in idems.get(k, []):
            dim = _idempotent_piece(lam, e)[0].dim
            out.append((at, dim))
            at += dim
        return out

    changed = True
    while changed:
        changed = False
        for k in sorted(mats):
            d = mats[k]
            src_off = offsets(k)
            tgt_off = offsets(k + 1)
            hit = None
            for ri, (ro, rd) in enumerate(src_off):
                for ci, (co, cd) in enumerate(tgt_off):
                    if rd != cd or rd == 0:
                        continue
                    block = d.submatrix(range(ro, ro + rd), range(co, co + cd))
                    if rank(block) == rd:
                        hit = (ri, ro, rd, ci, co, cd, block)
                        break
                if hit:
                    break
            if not hit:
                continue
            ri, ro, rd, ci, co, cd, block = hit
            inv = Preimages(block).inverse()
            keep_rows = [r for r in range(d.nrows) if not ro <= r < ro + rd]
            keep_cols = [cc for cc in range(d.ncols) if not co <= cc < co + cd]
            d_oo = d.submatrix(keep_rows, keep_cols)
            d_os = d.submatrix(keep_rows, range(co, co + cd))
            d_ro = d.submatrix(range(ro, ro + rd), keep_cols)
            correction = d_os.mul(inv).mul(d_ro)
            mats[k] = d_oo.sub(correction)
            up = mats.get(k - 1)
            if up is not None:
                mats[k - 1] = up.submatrix(range(up.nrows), keep_rows)
            down = mats.get(k + 1)
            if down is not None:
                mats[k + 1] = down.submatrix(keep_cols, range(down.ncols))
            idems[k] = [e for i, e in enumerate(idems[k]) if i != ri]
            idems[k + 1] = [e for i, e in enumerate(idems[k + 1]) if i != ci]
            changed = True
            break
    rebuilt = {k: _piece_sum(lam, idems[k]) for k in degs}
    lo, hi = degs[0], degs[-1]
    term_list = [rebuilt[k] for k in degs]
    map_list = []
    for k in range(lo, hi):
        src = rebuilt[k]
        tgt = rebuilt[k + 1]
        mat = mats.get(k)
        if mat is None or src.dim == 0 or tgt.dim == 0:
            mat = Matrix.zero(field, src.dim, tgt.dim)
            map_list.append(ModuleHom(src, tgt, mat, validate=False))
        else:
            map_list.append(ModuleHom(src, tgt, mat))
    out = ChainComplex(lam, lo, term_list, map_list)
    if cohomology_dims(out) != before:
        raise AuditFailed("unit elimination changed the cohomology")
    return out


def perfect_model(c, cap=None):
    """A small quasi-isomorphic complex of projectives, or CapExceeded.

    Existence of the finite model is the perfection certificate for the
    complex; the returned model has been through unit elimination and
    its cohomology re-audited against the input.  Each of its terms
    carries its cover record (``covered``), which `hom_complex` reads.
    """
    px, _comp = _projective_staircase(c, cap=cap)
    return _eliminate_units(px)


def _hom_table_entry(model, target, window):
    """{shift: dim of chain maps modulo homotopy} for a model source."""
    h = hom_complex(model, target)
    dims = cohomology_dims(h)
    return {n: dims.get(n, 0) for n in range(window[0], window[1] + 1)}


# ---------------------------------------------------------------------------
# the equivalence certificate


class TwistCertificate:
    """Everything the tilting-style audit of one twist measured.

    ``images`` are the twists of the idempotent slices of the regular
    module (in idempotent order); ``hom_table[(i, j)]`` counts maps
    between images modulo homotopy per shift inside ``window``;
    ``endo_dim`` sums the shift-zero counts, which is the endomorphism
    dimension of the twist of the regular module by additivity.  The
    verdict requires finite projective models for every image, no maps
    in nonzero shifts, and the unit certificate: an endomorphism count
    matching the algebra, and the algebra acting faithfully on the
    cohomology of its own twist, which pins the unit map as injective,
    hence — the counts matching — bijective.  ``unit_map_bijective``
    holds both, so the verdict is read off the three flags.  Every flag
    reports what was found.
    """

    def __init__(self, surjection, images, hom_table, window, endo_dim,
                 images_perfect, off_shift_zero, unit_map_bijective):
        self.surjection = surjection
        self.images = images
        self.hom_table = hom_table
        self.window = window
        self.endo_dim = endo_dim
        self.images_perfect = images_perfect
        self.off_shift_zero = off_shift_zero
        self.unit_map_bijective = unit_map_bijective

    @property
    def verdict(self):
        return self.images_perfect and self.off_shift_zero and self.unit_map_bijective

    def __repr__(self):
        return (
            "TwistCertificate(verdict=%s, endo_dim=%s, perfect=%s, "
            "off_shift_zero=%s, unit=%s)"
            % (self.verdict, self.endo_dim, self.images_perfect,
               self.off_shift_zero, self.unit_map_bijective)
        )


def _unit_faithful_on_cohomology(p, res):
    """Whether the algebra acts faithfully on the twist of itself.

    The twist of the regular module has cohomology given by the derived
    hom out of the kernel; left multiplication makes each such space a
    module over the source algebra, functorially in homotopy classes,
    so a faithful action certifies the unit map into the derived
    endomorphisms as injective.  This is the twist's own construction
    (`_yoneda_cochain_modules`) on ``res``, the kernel's minimal
    resolution, with N = A_A: each term is Pᵢ = ⊕ₖ eₖ·A, so
    Hom(Pᵢ, A) ≅ ⊕ₖ A·eₖ, and g acts by postcomposition with the module
    map x ↦ g·x, the action of `Module.regular` of the opposite algebra,
    which makes each term a right module over it.  Validating the
    differentials as module maps certifies that the action commutes
    with them, so it descends to cohomology: each Hᵏ is the quotient of
    the cycles (`kernel_of`) by the boundaries, read in the cycles'
    coordinates, as `homology._extract_bimodule` reads Hᵗ.  The action
    is faithful exactly when the flattened actions of the basis on all
    the Hᵏ side by side have rank dim A.  No hom-space system is solved.

    Reading the action on Hᵏ itself loses nothing against reading g on
    the cycles followed by the projection π onto Hᵏ: π is a module map,
    so that composite is π∘g_H, and π is onto, so X ↦ π∘X is injective
    on End(Hᵏ) and the flattened families have the same rank.
    """
    lam = p.source
    terms, maps, _blocks = _yoneda_cochain_modules(
        res, Module.regular(lam), Module.regular(opposite(lam)), len(res.terms))
    cx = ChainComplex(opposite(lam), 0, terms, maps, validate=False)
    flats = [[] for _ in range(lam.dim)]
    width = 0
    for k in range(cx.lo, cx.hi + 1) if cx.terms else []:
        cycles, incl = kernel_of(cx.differential(k))
        in_cycles = Preimages(incl.matrix)
        h, _ = quotient(
            cycles, [in_cycles.of(r) for r in cx.differential(k - 1).matrix.pairs])
        for act, flat in zip(h.action, flats):
            flat.extend((width + j, e) for j, e in _flatten(act))
        width += h.dim * h.dim
    return bool(width) and rank(Matrix.from_pairs(lam.field, flats, width)) == lam.dim


def equivalence_certificate(p, cap=None):
    """Audit whether the twist of a surjection acts like an equivalence.

    Twists every idempotent slice of the regular module, replaces each
    by a finite projective model (failure of the replacement to
    terminate is an honest negative on perfection), tabulates homotopy
    maps between models across the shift window (−(pd K + 1), 1), for
    the projective dimension pd K of the kernel, and checks the three
    equivalence marks: no maps off shift zero, endomorphism count equal
    to the algebra dimension, and the unit certificate of faithful
    action on cohomology.  All flags report findings; nothing raises on
    a mathematical 'no'.
    """
    lam = p.source
    kernel = _kernel_data(p, cap)
    k_mod, _acting, res = kernel
    if k_mod.dim == 0 or res.truncated:
        # no kernel means the twist is zero; an imperfect kernel means no
        # certified model — both are honest negatives
        return TwistCertificate(p, [], {}, (0, 0), None, k_mod.dim == 0, True, False)
    pd = res.length
    window = (-(pd + 1), 1)
    pieces = _indecomposable_projectives(lam)
    images = []
    models = []
    perfect = True
    for piece in pieces:
        image, _dual_res = _twist_core(p, piece, kernel)
        images.append(image)
        try:
            models.append(perfect_model(image, cap=cap))
        except CapExceeded:
            perfect = False
            models.append(None)
    table = {}
    off_zero = True
    endo = 0
    if perfect:
        for i, model in enumerate(models):
            for j, image in enumerate(models):
                entry = _hom_table_entry(model, image, window)
                table[(i, j)] = entry
                endo += entry.get(0, 0)
                if any(v for n, v in entry.items() if n != 0):
                    off_zero = False
        unit = endo == lam.dim and _unit_faithful_on_cohomology(p, res)
    else:
        endo = None
        unit = False
    return TwistCertificate(p, images, table, window, endo, perfect, off_zero, unit)
