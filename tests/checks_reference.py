"""Checkers and small builders that only the tests call, kept as oracles.

No audit of the package reads any of these: each one is a property the
tests assert of what the package builds (a resolution is minimal, a
module is projective, a cover is partially essential, an algebra is
symmetric), or a small object a test starts from (an identity map, an
identity surjection).
`find_isomorphism` and `is_symmetric` are randomized searches: a
positive answer is exact, a negative one is evidence, not proof, unless
the docstring says when it is.
"""

import random

from sphertwist.algebra import SurjectionData, _gram, lift_idempotents
from sphertwist.errors import AlgebraMismatch, SphertwistError
from sphertwist.exactlin import Matrix, SpanBuilder, combine, kernel_basis, rank
from sphertwist.modules import (
    ModuleHom,
    endomorphism_algebra,
    hom_space,
    kernel_of,
    module_radical,
    projective_cover,
    quotient,
)
from sphertwist.resolutions import stable_simples


class NotSurjective(SphertwistError):
    """Partial essentiality asked of a map that is not onto."""


# ---------------------------------------------------------------------------
# small builders


def identity_hom(m):
    return ModuleHom(m, m, Matrix.identity(m.algebra.field, m.dim), validate=False)


def identity_surjection(a):
    """The identity of an algebra, packaged as a surjection."""
    return SurjectionData(a, a, Matrix.identity(a.field, a.dim))


# ---------------------------------------------------------------------------
# modules


def is_indecomposable(m):
    """(verdict, method) — idempotent search in End(m).

    m is indecomposable exactly when 1 is primitive in End(m), that is,
    when `lift_idempotents` finds one primitive idempotent.  When the
    corner search runs out it raises NotSplit, and that is not a
    verdict: the residue of End(m) may be a division algebra larger than
    the field (m indecomposable), or a split product whose spectral
    idempotents the search did not reach (m decomposable).  So NotSplit
    propagates.
    """
    if m.dim == 0:
        return False, "zero module"
    alg, _ = endomorphism_algebra(m)
    return len(lift_idempotents(alg)) == 1, "idempotent search"


def find_isomorphism(m, n):
    """An explicit invertible hom m → n, or None.

    Tries hom-basis elements and small deterministic combinations; a
    None answer is evidence, not proof, unless dims differ or the hom
    space is zero.
    """
    if m.algebra != n.algebra:
        raise AlgebraMismatch("isomorphism across different algebras")
    if m.dim != n.dim:
        return None
    if m.dim == 0:
        return ModuleHom(m, n, Matrix.zero(m.algebra.field, 0, 0), validate=False)
    f = m.algebra.field
    homs = hom_space(m, n)
    if not homs:
        return None
    for h in homs:
        if rank(h.matrix) == m.dim:
            return h
    rng = random.Random(23)
    for _ in range(120):
        acc = Matrix.zero(f, m.dim, n.dim)
        for h in homs:
            c = f.coerce(rng.randint(-4, 4))
            acc = acc.add(h.matrix.scale(c))
        if rank(acc) == m.dim:
            return ModuleHom(m, n, acc, validate=False)
    return None


def is_projective(m):
    """True iff the projective cover of m is an isomorphism."""
    p, _ = projective_cover(m)
    return p.dim == m.dim


# ---------------------------------------------------------------------------
# algebras


def is_symmetric(a):
    """Whether the algebra is isomorphic to its dual as a bimodule.

    A bimodule map A → A* is fixed by the functional λ it sends the unit
    to, and λ must vanish on every commutator [x, y]; the map is an
    isomorphism exactly when the Gram matrix λ(bᵢbⱼ) (`algebra._gram`)
    is nondegenerate.  So the candidates are the kernel of the
    commutator conditions, in dim(a) unknowns.  A nondegenerate Gram
    matrix is searched among the kernel basis and 200 seeded
    combinations of it with coefficients in [−4, 4].  A positive is
    exact.  A negative is not proven: over a large field it is
    near-certain, but a symmetric algebra whose forms the search misses
    would be reported as not symmetric.
    """
    f, d = a.field, a.dim
    p = f.characteristic
    table = a.table
    commutators = [
        combine([(1, table[i][j]), (-1, table[j][i])], p)
        for i in range(d) for j in range(i + 1, d)
    ]
    kernel = kernel_basis(Matrix.from_pairs(f, commutators, d))
    forms = kernel.transpose().pairs
    if any(rank(_gram(a, form)) == d for form in forms):
        return True
    if forms:
        rng = random.Random(37)
        for _ in range(200):
            coeffs = [f.coerce(rng.randint(-4, 4)) for _ in forms]
            if rank(_gram(a, combine(zip(coeffs, forms), p))) == d:
                return True
    return False


# ---------------------------------------------------------------------------
# resolutions


def radd0(ctx, m):
    """Row basis of the radical relative to the projective-type block.

    This is the preimage in m of rad(m / m·e·Λ) for the projective-type
    idempotent e: the intersection of the maximal submodules that
    contain everything reachable through the projective-type ideal.  A
    quotient map kills it exactly when the quotient is semisimple with
    the projective-type block acting by zero.
    """
    f = ctx.endo.field
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
    z = kernel_basis(module_radical(q))
    return kernel_basis(proj.matrix.mul(z).transpose()).transpose()


def is_partially_essential(ctx, epi):
    """True iff the kernel of the surjection sits inside radd0(source)."""
    if rank(epi.matrix) != epi.target.dim:
        raise NotSurjective("partial essentiality is a property of surjections")
    span = SpanBuilder(ctx.endo.field, epi.source.dim)
    for r in radd0(ctx, epi.source).pairs:
        span.add(r)
    _, incl = kernel_of(epi)
    return all(span.contains(r) for r in incl.matrix.pairs)


def is_minimal(res):
    """True iff every differential of res lands in the radical of its
    target, so each kernel sits inside the radical of its cover."""
    terms, maps = res.terms, res.maps
    for i, h in enumerate(maps):
        span = SpanBuilder(terms[i].algebra.field, terms[i].dim)
        for r in module_radical(terms[i]).pairs:
            span.add(r)
        if not all(span.contains(r) for r in h.matrix.pairs):
            return False
    return True


def is_partially_minimal(ctx, res):
    """True iff no differential of res survives a map into a simple of
    the stable quotient."""
    sims = stable_simples(ctx)
    return all(
        h.compose(g).matrix.is_zero()
        for h in res.maps for s in sims for g in hom_space(h.target, s)
    )


# ---------------------------------------------------------------------------
# complexes


def euler_characteristic(c):
    """Alternating sum of term dimensions (equals that of cohomology)."""
    return sum(t.dim if (c.lo + i) % 2 == 0 else -t.dim for i, t in enumerate(c.terms))
