"""Partial covers and resolutions over endomorphism algebras of generators.

The independent oracle here recomputes the block-relative radical by
enumeration: every maximal submodule containing the reachable part is
the kernel of a hom to a simple, so the relative radical is the joint
kernel of all such homs.  `checks_reference.radd0`, the checker the
partial-essentiality tests read, uses the preimage-of-the-radical
formula instead; the two must agree exactly.

The resolution audit certifies a term built as a cover from its record
alone, and refuses a term without one; every resolution that any test
here builds is re-checked term by term with the full cover criterion
`checks_reference.is_projective` as well.
"""

import sys

import pytest

from sphertwist import resolutions
from sphertwist.algebra import lift_idempotents
from sphertwist.errors import ShapeMismatch, SphertwistError
from sphertwist.exactlin import Matrix, SpanBuilder, kernel_basis, rank, row_space_canonical
from sphertwist.frobenius import build_context, syzygy
from sphertwist.modules import (
    Module,
    ModuleHom,
    _idempotent_piece,
    _piece_sum,
    direct_sum,
    hom_space,
    in_add,
    kernel_of,
    module_radical,
    projective_cover,
    quotient,
    simple_modules,
    submodule,
)
from sphertwist.resolutions import (
    Resolution,
    _piece_type,
    extract_shape,
    minimal_resolution,
    partial_cover,
    partially_minimal_resolution,
    resolve_past,
    stable_idempotent_module,
    stable_module,
    stable_simples,
)

from checks_reference import (
    NotSurjective,
    find_isomorphism,
    identity_hom,
    is_minimal,
    is_partially_essential,
    is_partially_minimal,
    is_projective,
    radd0,
)
from fixture_algebras import cyclic_nakayama, dual_numbers
from patching import count_calls
from hom_reference import hom_module
from lift_reference import refine_idempotent
import vectors


@pytest.fixture(autouse=True)
def every_term_passes_the_cover_criterion(monkeypatch):
    """Record each resolution that passes its audit during a test, then
    run the full `is_projective` on every one of its terms."""
    built = []
    audit = Resolution._audit

    def recording(self):
        audit(self)
        built.append(self)

    monkeypatch.setattr(Resolution, "_audit", recording)
    yield
    monkeypatch.undo()
    for res in built:
        for i, t in enumerate(res.terms):
            assert is_projective(t), (res, i)


# ---------------------------------------------------------------------------
# shared contexts


@pytest.fixture(scope="module")
def ctx_dual():
    a = dual_numbers()
    s = simple_modules(a)[0]
    return build_context(a, Module.regular(a), [(s, 1)])


@pytest.fixture(scope="module")
def ctx_cycle():
    a = cyclic_nakayama(3)
    sims = simple_modules(a)
    return build_context(a, Module.regular(a), [(x, 1) for x in sims])


@pytest.fixture(scope="module")
def ctx_cycle_one():
    a = cyclic_nakayama(3)
    sims = simple_modules(a)
    return build_context(a, Module.regular(a), [(sims[0], 1)])


def vertex_of(a, s):
    for v in range(a.dim):
        if list(s.tag) == a.basis_vector(v):
            return v
    raise AssertionError("simple tag is not a basis idempotent")


def span_rows(f, width, rows):
    sb = SpanBuilder(f, width)
    for r in rows:
        sb.add(vectors.pairs(f, r))
    return sb


# ---------------------------------------------------------------------------
# the oracle: relative radical by maximal-submodule enumeration


def oracle_radd0(ctx, m):
    """Joint kernel of every hom to a simple that kills m·e₀·Λ."""
    lam = ctx.endo
    f = lam.field
    if m.dim == 0:
        return Matrix.zero(f, 0, 0)
    reach = SpanBuilder(f, m.dim)
    act0 = m.action_of(ctx.e_proj)
    for r in range(m.dim):
        v = list(act0.rows[r])
        for i in range(lam.dim):
            reach.add(vectors.pairs(f, Matrix(f, [v], m.dim).mul(m.action[i]).rows[0]))
    urows = reach.basis_matrix()
    mats = []
    for s in simple_modules(lam):
        homs = hom_space(m, s)
        if not homs:
            continue
        sys_rows = []
        for u in urows.rows:
            imgs = [
                Matrix(f, [list(u)], m.dim).mul(h.matrix).rows[0] for h in homs
            ]
            for j in range(s.dim):
                sys_rows.append([imgs[k][j] for k in range(len(homs))])
        if sys_rows:
            sol = kernel_basis(Matrix(f, sys_rows, len(homs)))
        else:
            sol = Matrix.identity(f, len(homs))
        for cidx in range(sol.ncols):
            coeffs = vectors.dense(f, sol.column(cidx), sol.nrows)
            hmat = Matrix.zero(f, m.dim, s.dim)
            for k, c in enumerate(coeffs):
                hmat = hmat.add(homs[k].matrix.scale(c))
            mats.append(hmat)
    if not mats:
        return row_space_canonical(Matrix.identity(f, m.dim))
    big = mats[0]
    for h in mats[1:]:
        big = big.hstack(h)
    return row_space_canonical(kernel_basis(big.transpose()).transpose())


# ---------------------------------------------------------------------------
# the relative radical


def test_radd0_of_projective_type_ideal_is_everything(ctx_dual, ctx_cycle):
    for ctx in (ctx_dual, ctx_cycle):
        pe0, _ = ctx.right_ideal(ctx.e_proj)
        rows = radd0(ctx, pe0)
        assert rows.nrows == pe0.dim


def test_radd0_of_stable_simple_is_zero(ctx_dual, ctx_cycle):
    for ctx in (ctx_dual, ctx_cycle):
        for t in stable_simples(ctx):
            assert radd0(ctx, t).nrows == 0


def test_radd0_matches_maximal_submodule_oracle(ctx_dual, ctx_cycle_one):
    cases = []
    for ctx in (ctx_dual, ctx_cycle_one):
        pe0, _ = ctx.right_ideal(ctx.e_proj)
        pe1, _ = ctx.right_ideal(ctx.e_copies[0][0])
        cases.append((ctx, pe0))
        cases.append((ctx, pe1))
        cases.append((ctx, Module.regular(ctx.endo)))
        cases.append((ctx, stable_module(ctx)))
    for ctx, m in cases:
        assert radd0(ctx, m) == oracle_radd0(ctx, m)


def test_radd0_contains_radical(ctx_dual, ctx_cycle):
    for ctx in (ctx_dual, ctx_cycle):
        for m in (Module.regular(ctx.endo), ctx.right_ideal(ctx.e_copies[0][0])[0]):
            allowed = span_rows(ctx.endo.field, m.dim, radd0(ctx, m).rows)
            for r in module_radical(m).rows:
                assert allowed.contains(vectors.pairs(ctx.endo.field, r))


# ---------------------------------------------------------------------------
# partially essential surjections


def test_identity_is_partially_essential(ctx_dual):
    pe1, _ = ctx_dual.right_ideal(ctx_dual.e_copies[0][0])
    ident = ModuleHom(pe1, pe1, Matrix.identity(ctx_dual.endo.field, pe1.dim))
    assert is_partially_essential(ctx_dual, ident)


def test_partial_essentiality_rejects_non_surjections(ctx_dual):
    pe1, _ = ctx_dual.right_ideal(ctx_dual.e_copies[0][0])
    rad = module_radical(pe1)
    sub_rows = rad.pairs
    from sphertwist.modules import submodule

    _, incl = submodule(pe1, sub_rows)
    with pytest.raises(NotSurjective):
        is_partially_essential(ctx_dual, incl)


def test_projective_cover_is_partially_essential(ctx_dual, ctx_cycle):
    for ctx in (ctx_dual, ctx_cycle):
        for t in stable_simples(ctx):
            _, epi = projective_cover(t)
            assert is_partially_essential(ctx, epi)


def test_stable_quotient_of_summand_ideal_is_partially_essential(ctx_dual):
    ctx = ctx_dual
    pe1, incl = ctx.right_ideal(ctx.e_copies[0][0])
    # push the ideal through the stable quotient and divide by the kernel
    to_con = incl.matrix.mul(ctx.to_stable.matrix)
    push = ModuleHom(pe1, stable_module(ctx), to_con)
    k, kincl = kernel_of(push)
    assert k.dim == 1
    q, proj = quotient(pe1, kincl.matrix.pairs)
    assert is_partially_essential(ctx, proj)
    assert find_isomorphism(q, stable_idempotent_module(ctx, 0)) is not None


def test_composites_of_partially_essential_epis(ctx_dual, ctx_cycle_one):
    # divide by a cyclic submodule of the relative radical, twice over;
    # the composite must again have its kernel inside the relative radical
    for ctx in (ctx_dual, ctx_cycle_one):
        lam = ctx.endo
        f = lam.field
        m = Module.regular(lam)
        first = radd0(ctx, m)
        for row in [list(r) for r in first.rows]:
            gen_rows = [
                Matrix(f, [row], m.dim).mul(m.action[i]).rows[0]
                for i in range(lam.dim)
            ]
            q1, p1 = quotient(m, Matrix(f, gen_rows, m.dim))
            assert is_partially_essential(ctx, p1)
            second = radd0(ctx, q1)
            if second.nrows == 0:
                continue
            row2 = list(second.rows[0])
            gen2 = [
                Matrix(f, [row2], q1.dim).mul(q1.action[i]).rows[0]
                for i in range(lam.dim)
            ]
            q2, p2 = quotient(q1, Matrix(f, gen2, q1.dim))
            assert is_partially_essential(ctx, p2)
            assert is_partially_essential(ctx, p1.compose(p2))


# ---------------------------------------------------------------------------
# partial covers


def test_partial_cover_of_projective_is_isomorphism(ctx_dual, ctx_cycle):
    for ctx in (ctx_dual, ctx_cycle):
        for e in [ctx.e_proj, ctx.e_copies[0][0]]:
            pe, _ = ctx.right_ideal(e)
            q, epi = partial_cover(ctx, pe)
            assert q.dim == pe.dim
            assert rank(epi.matrix) == pe.dim
        reg = Module.regular(ctx.endo)
        q, epi = partial_cover(ctx, reg)
        assert q.dim == reg.dim


def test_partial_cover_of_stable_summand_ideal(ctx_dual):
    ctx = ctx_dual
    target = stable_idempotent_module(ctx, 0)
    q, epi = partial_cover(ctx, target)
    pe1, _ = ctx.right_ideal(ctx.e_copies[0][0])
    assert q.dim == pe1.dim
    assert find_isomorphism(q, pe1) is not None
    assert is_partially_essential(ctx, epi)


def test_partial_cover_takes_summand_pieces_first(ctx_cycle):
    # a mixed top: one stable simple plus one projective-type top;
    # scenario order puts the summand ideals before the refined pieces
    ctx = ctx_cycle
    prims = refine_idempotent(ctx.endo, ctx.e_proj)
    pe, _ = ctx.right_ideal(prims[0])
    top, _ = quotient(pe, module_radical(pe).pairs)
    mixed, _, _ = direct_sum([stable_simples(ctx)[1], top])
    q, epi = partial_cover(ctx, mixed)
    assert q.covered.idempotents[0] == ctx.e_copies[1][0]
    assert is_partially_essential(ctx, epi)
    assert rank(epi.matrix) == mixed.dim


def test_one_context_filters_its_projective_type_primitives_once(monkeypatch):
    # the primitives under e_proj depend on the context alone: however
    # many partial covers a context makes, lift_idempotents is filtered
    # for them once
    a = cyclic_nakayama(3)
    ctx = build_context(a, Module.regular(a), [(s, 1) for s in simple_modules(a)])
    lift = resolutions.lift_idempotents
    filtered = []

    def lifting(alg):
        if sys._getframe(1).f_code.co_name == "_proj_type_primitives":
            filtered.append(alg)
        return lift(alg)

    monkeypatch.setattr(resolutions, "lift_idempotents", lifting)
    covers = count_calls(monkeypatch, resolutions, "partial_cover")
    for m in [stable_module(ctx)] + stable_simples(ctx):
        partially_minimal_resolution(ctx, m, cap=4)
    assert len(covers) > 3
    assert filtered == [ctx.endo]
    assert resolutions._proj_type_primitives(ctx) == refine_idempotent(ctx.endo, ctx.e_proj)
    assert filtered == [ctx.endo]


def test_partial_cover_kernels_sit_in_relative_radical(ctx_dual, ctx_cycle_one):
    for ctx in (ctx_dual, ctx_cycle_one):
        mods = [stable_module(ctx)] + stable_simples(ctx)
        for m in mods:
            _, epi = partial_cover(ctx, m)
            assert is_partially_essential(ctx, epi)


# ---------------------------------------------------------------------------
# resolutions: the frozen shapes


def test_stable_algebra_resolution_shape(ctx_dual):
    res = partially_minimal_resolution(ctx_dual, stable_module(ctx_dual))
    assert res.length == 2
    assert res.term_dims == [2, 3, 2]
    assert not res.truncated
    assert is_minimal(res)
    assert is_partially_minimal(ctx_dual, res)
    assert 2 - 3 + 2 == stable_module(ctx_dual).dim


def test_resolution_tail_matches_shifted_summand(ctx_dual):
    # the closing term realizes the maps from the generator into the
    # syzygy of the extra summand
    ctx = ctx_dual
    res = partially_minimal_resolution(ctx, stable_module(ctx))
    shifted = syzygy(ctx.summands[1][0])
    tail_model, _ = hom_module(ctx, shifted)
    assert find_isomorphism(res.terms[-1], tail_model) is not None


def test_projective_resolves_to_length_zero(ctx_dual, ctx_cycle):
    for ctx in (ctx_dual, ctx_cycle):
        pe0, _ = ctx.right_ideal(ctx.e_proj)
        res = partially_minimal_resolution(ctx, pe0)
        assert res.length == 0
        assert is_minimal(res) and is_partially_minimal(ctx, res)


def test_zero_module_resolution(ctx_dual):
    z = Module.zero(ctx_dual.endo)
    res = partially_minimal_resolution(ctx_dual, z)
    assert res.length == 0
    assert res.term_dims == [0]


def test_cycle_context_resolutions_and_window(ctx_cycle):
    ctx = ctx_cycle
    amb = ctx.ambient
    taus = {}
    for i in range(3):
        res = partially_minimal_resolution(ctx, stable_idempotent_module(ctx, i))
        assert res.length == 2
        assert res.term_dims == [2, 3, 2]
        taus[i] = extract_shape(ctx, res, 2)
    # read the permutation through the ambient vertex labels: one step
    # around the cycle, never the identity
    for i, j in taus.items():
        vi = vertex_of(amb, ctx.summands[i + 1][0])
        vj = vertex_of(amb, ctx.summands[j + 1][0])
        assert vj == (vi + 1) % 3
        assert j != i
    assert sorted(taus.values()) == [0, 1, 2]


def test_single_summand_cycle_resolution(ctx_cycle_one):
    ctx = ctx_cycle_one
    con = stable_module(ctx)
    assert con.dim == 1
    res = partially_minimal_resolution(ctx, con)
    assert res.length == 4
    total = 0
    for i, d in enumerate(res.term_dims):
        total += d if i % 2 == 0 else -d
    assert total == con.dim
    assert extract_shape(ctx, res, 4) == 0
    for t in (2, 3):
        with pytest.raises(ShapeMismatch):
            extract_shape(ctx, res, t)


def test_a_capped_resolution_is_flagged_truncated(ctx_cycle_one):
    ctx = ctx_cycle_one
    partial = partially_minimal_resolution(ctx, stable_module(ctx), cap=2)
    assert isinstance(partial, Resolution)
    assert partial.truncated
    assert partial.length == 2
    assert partial.term_dims == [2, 2, 2]


def test_minimal_resolution_agrees_here(ctx_dual, ctx_cycle_one):
    for ctx in (ctx_dual, ctx_cycle_one):
        con = stable_module(ctx)
        a = partially_minimal_resolution(ctx, con)
        b = minimal_resolution(con)
        assert a.term_dims == b.term_dims
        assert is_minimal(b)
        assert is_partially_minimal(ctx, b)


def test_minimal_implies_partially_minimal(ctx_dual, ctx_cycle):
    for ctx in (ctx_dual, ctx_cycle):
        mods = stable_simples(ctx) + [stable_module(ctx)]
        for i in range(len(ctx.e_copies)):
            mods.append(stable_idempotent_module(ctx, i))
        for m in mods:
            res = minimal_resolution(m)
            assert is_minimal(res)
            assert is_partially_minimal(ctx, res)


def test_hom_into_stable_simples_kills_internal_maps(ctx_cycle_one):
    # recompute the defining property of the predicate by hand
    ctx = ctx_cycle_one
    res = partially_minimal_resolution(ctx, stable_module(ctx))
    assert is_partially_minimal(ctx, res)
    for h in res.maps:
        for s in stable_simples(ctx):
            for g in hom_space(h.target, s):
                assert h.compose(g).matrix.is_zero()


def assert_built_from_covers(res):
    # every term carries its record, and is the direct sum of the pieces
    # e·A it names, basis and action alike
    for term in res.terms:
        pieces = [_idempotent_piece(term.algebra, e)[0] for e in term.covered.idempotents]
        total, _, _ = direct_sum(pieces)
        assert total.dim == term.dim
        assert total.action == term.action


def test_resolutions_record_their_covers(ctx_dual, ctx_cycle):
    for ctx in (ctx_dual, ctx_cycle):
        m = stable_idempotent_module(ctx, 0)
        res = minimal_resolution(m)
        assert [len(t.covered.idempotents) for t in res.terms] == [1, 1, 1]
        assert_built_from_covers(res)
        # the partially minimal builder covers its projective kernel by
        # an isomorphism, so that term is recorded too
        res = partially_minimal_resolution(ctx, m)
        assert res.term_dims == [2, 3, 2]
        assert_built_from_covers(res)


def test_truncated_resolution_records_every_cover(ctx_cycle_one):
    m = stable_idempotent_module(ctx_cycle_one, 0)
    res = minimal_resolution(m, cap=2)
    assert res.truncated
    assert_built_from_covers(res)


def test_the_piece_sum_refuses_a_non_idempotent():
    a = cyclic_nakayama(3)
    f = a.field
    e = lift_idempotents(a)[0]
    twice = [(j, f.mul(f.coerce(2), c)) for j, c in e]
    assert _idempotent_piece(a, twice)[0].dim == _idempotent_piece(a, e)[0].dim
    with pytest.raises(SphertwistError, match="not idempotent"):
        _piece_sum(a, [e, twice])
    assert _piece_sum(a, [e]).covered.idempotents == [e]


def test_a_term_without_a_record_is_refused():
    # a truncated minimal resolution of S₁ ⊕ S₂ over the 3-cycle, whose
    # terms are each the sum of two different pieces e·A of dimension 2
    a = cyclic_nakayama(3)
    f = a.field
    sims = simple_modules(a)
    pair, _, _ = direct_sum([sims[0], sims[1]])
    res = minimal_resolution(pair, cap=2)
    assert res.truncated
    assert [len(t.covered.idempotents) for t in res.terms] == [2, 2, 2]
    t = res.terms[0]
    # term 0 conjugated by the coordinate permutation x·q exchanging the
    # first two basis vectors: projective, with no record
    perm = [1, 0] + list(range(2, t.dim))
    q = Matrix(f, [[f.one() if j == perm[i] else f.zero() for j in range(t.dim)]
                   for i in range(t.dim)], t.dim)
    conj = Module(a, t.dim, [q.transpose().mul(m).mul(q) for m in t.action])
    assert conj.action != t.action and conj.covered is None
    assert is_projective(conj)

    aug = ModuleHom(conj, res.target, q.transpose().mul(res.augmentation.matrix))
    maps = [ModuleHom(res.terms[1], conj, res.maps[0].matrix.mul(q))] + res.maps[1:]
    # exact and projective in every degree, and still refused for the
    # record it lacks
    with pytest.raises(SphertwistError, match="term 0 has no cover record"):
        Resolution([conj] + res.terms[1:], maps, aug)
    # the same resolution on the recorded term passes
    assert Resolution(res.terms, res.maps, res.augmentation).truncated
    # a term that is not projective either is refused the same way
    s = sims[0]
    with pytest.raises(SphertwistError, match="term 0 has no cover record"):
        Resolution([s], [], identity_hom(s))


def test_a_resolution_at_a_cap_is_a_prefix_of_one_at_a_larger_cap(
        ctx_dual, ctx_cycle_one):
    amb = ctx_dual.ambient
    mods = [simple_modules(amb)[0], stable_module(ctx_dual)]
    for ctx in (ctx_dual, ctx_cycle_one):
        mods += stable_simples(ctx) + [stable_idempotent_module(ctx, 0)]
    for m in mods:
        for cap in (1, 2, 3, 4):
            short, long = minimal_resolution(m, cap), minimal_resolution(m, cap + 2)
            n = len(short.terms)
            assert short.term_dims == long.term_dims[:n]
            assert [h.matrix for h in short.maps] == [h.matrix for h in long.maps[: n - 1]]
            assert [t.covered.idempotents for t in short.terms] == [
                t.covered.idempotents for t in long.terms[:n]]
            assert short.augmentation.matrix == long.augmentation.matrix
            if not short.truncated:
                assert long.term_dims == short.term_dims


def test_resolution_audit_rejects_broken_exactness(ctx_dual):
    ctx = ctx_dual
    res = partially_minimal_resolution(ctx, stable_module(ctx))
    f = ctx.endo.field
    zero_map = ModuleHom(
        res.terms[1], res.terms[0],
        Matrix.zero(f, res.terms[1].dim, res.terms[0].dim),
    )
    with pytest.raises(SphertwistError):
        Resolution(
            res.terms,
            [zero_map] + res.maps[1:],
            res.augmentation,
        )


def test_resolution_audit_rejects_non_projective_term(ctx_dual):
    ctx = ctx_dual
    t1 = stable_simples(ctx)[0]
    ident = ModuleHom(t1, t1, Matrix.identity(ctx.endo.field, 1))
    with pytest.raises(SphertwistError):
        Resolution([t1], [], ident)


# ---------------------------------------------------------------------------
# projective dimension and perfection


def test_projective_dimension_of_projectives(ctx_dual):
    ctx = ctx_dual
    pe0, _ = ctx.right_ideal(ctx.e_proj)
    for m in (pe0, Module.regular(ctx.ambient)):
        res = minimal_resolution(m)
        assert not res.truncated and res.length == 0


def test_projective_dimension_of_stable_algebra(ctx_dual):
    res = minimal_resolution(stable_module(ctx_dual))
    assert not res.truncated and res.length == 2


def test_infinite_dimension_reports_the_cap(ctx_dual):
    # the default cap is 2·dim + 2 = 6 over the dual numbers
    amb = ctx_dual.ambient
    s = simple_modules(amb)[0]
    for cap, length in ((None, 6), (9, 9)):
        res = minimal_resolution(s, cap=cap)
        assert res.truncated and res.length == length
    assert not minimal_resolution(stable_module(ctx_dual)).truncated


def test_a_cap_below_one_is_refused(ctx_cycle_one):
    ctx = ctx_cycle_one
    m = stable_module(ctx)
    with pytest.raises(SphertwistError, match="cap must be at least 1"):
        minimal_resolution(m, cap=0)
    with pytest.raises(SphertwistError, match="cap must be at least 1"):
        partially_minimal_resolution(ctx, m, cap=0)
    with pytest.raises(SphertwistError, match="cap must be at least 1"):
        resolve_past(m, 0)


def test_is_projective_agrees_with_additive_membership(ctx_dual, ctx_cycle):
    for ctx in (ctx_dual, ctx_cycle):
        lam = ctx.endo
        reg = Module.regular(lam)
        pe1, _ = ctx.right_ideal(ctx.e_copies[0][0])
        rad1 = module_radical(pe1)
        from sphertwist.modules import submodule

        sub1, _ = submodule(pe1, rad1.pairs)
        cases = [pe1, sub1, stable_simples(ctx)[0]]
        for m in cases:
            if m.dim <= 8:
                assert is_projective(m) == in_add(m, reg)


# ---------------------------------------------------------------------------
# shape extraction edges


def test_extract_shape_window_floor(ctx_dual):
    res = partially_minimal_resolution(ctx_dual, stable_module(ctx_dual))
    with pytest.raises(SphertwistError):
        extract_shape(ctx_dual, res, 1)


def test_extract_shape_rejects_truncated(ctx_cycle_one):
    ctx = ctx_cycle_one
    res = partially_minimal_resolution(ctx, stable_module(ctx), cap=2)
    assert res.truncated
    with pytest.raises(ShapeMismatch):
        extract_shape(ctx, res, 2)


def test_extract_shape_rejects_twin_tails(ctx_cycle):
    # resolving two stable simples at once leaves two summand ideals in
    # the tail, which is not a sphere-like shape
    ctx = ctx_cycle
    pair, _, _ = direct_sum([stable_simples(ctx)[0], stable_simples(ctx)[1]])
    res = partially_minimal_resolution(ctx, pair)
    assert res.length == 2
    with pytest.raises(ShapeMismatch):
        extract_shape(ctx, res, 2)


def test_extract_shape_rejects_stable_piece_in_middle(ctx_cycle):
    # pad the middle and tail with a matching extra summand ideal: still
    # an exact resolution, but the middle leaves the projective-type
    # additive closure
    ctx = ctx_cycle
    f = ctx.endo.field
    base = partially_minimal_resolution(ctx, stable_idempotent_module(ctx, 0))
    e1 = ctx.e_copies[1][0]
    pe1, _ = ctx.right_ideal(e1)
    # the padded terms are the shared sums of the records plus e1, whose
    # actions are those of the direct sums term ⊕ pe1
    mid, tail = (
        _piece_sum(ctx.endo, base.terms[i].covered.idempotents + [e1]) for i in (1, 2)
    )
    for i, padded_term in ((1, mid), (2, tail)):
        plain, _, _ = direct_sum([base.terms[i], pe1])
        assert padded_term.action == plain.action
    f1 = base.maps[0].matrix.vstack(Matrix.zero(f, pe1.dim, base.terms[0].dim))
    top = base.maps[1].matrix.hstack(Matrix.zero(f, base.terms[2].dim, pe1.dim))
    bottom = Matrix.zero(f, pe1.dim, base.terms[1].dim).hstack(
        Matrix.identity(f, pe1.dim)
    )
    f2 = top.vstack(bottom)
    aug = ModuleHom(base.terms[0], base.target, base.augmentation.matrix)
    padded = Resolution(
        [base.terms[0], mid, tail],
        [ModuleHom(mid, base.terms[0], f1), ModuleHom(tail, mid, f2)],
        aug,
    )
    with pytest.raises(ShapeMismatch):
        extract_shape(ctx, padded, 2)
    # the identity on the padding leaves the radical, and it survives
    # the map from the top of pe1 onto a simple of the stable quotient
    assert not is_minimal(padded)
    assert not is_partially_minimal(ctx, padded)


def _quotient_piece_hits(ctx, e):
    """The blocks that act nonzero on the top of e·Λ, read off the top
    built as a quotient module: the route `_piece_type` took before it
    tested span membership against the radical."""
    pe, _ = ctx.right_ideal(e)
    top, _ = quotient(pe, module_radical(pe).pairs)
    hits = [] if top.action_of(ctx.e_proj).is_zero() else [None]
    for j, copies in enumerate(ctx.e_copies):
        if not top.action_of(copies[0]).is_zero():
            hits.append(j)
    return hits


def test_piece_type_matches_the_quotient_route(ctx_dual, ctx_cycle, ctx_cycle_one):
    a = cyclic_nakayama(3)
    sims = simple_modules(a)
    reg = Module.regular(a)
    mixed = build_context(
        a, reg, [(direct_sum([sims[0], sims[1]])[0], 1), (sims[2], 2)]
    )
    # a projective extra summand: the top of each of its primitives is
    # also a top of the projective part, so both routes refuse it
    doubled = build_context(a, reg, [(reg, 1)])
    seen = set()
    for ctx in (ctx_dual, ctx_cycle, ctx_cycle_one, mixed, doubled):
        for e in lift_idempotents(ctx.endo):
            hits = _quotient_piece_hits(ctx, e)
            if len(hits) == 1:
                assert _piece_type(ctx, e) == hits[0]
            else:
                with pytest.raises(SphertwistError, match="meets %d blocks" % len(hits)):
                    _piece_type(ctx, e)
            seen.add(len(hits))
    assert seen == {1, 2}
    # the projector of the copy of S₁ ⊕ S₂ is not primitive: it is not
    # among the lifted primitives, and both simples of its top lie in
    # that one block
    e = mixed.e_copies[0][0]
    assert e not in lift_idempotents(mixed.endo)
    assert _quotient_piece_hits(mixed, e) == [0] == [_piece_type(mixed, e)]


def test_piece_type_classifies_every_cover_piece_in_one_pass(monkeypatch):
    # the first call classifies the lifted primitives and every first
    # copy projector against one radical; a later key reads nothing, and
    # an idempotent no cover takes is refused
    a = cyclic_nakayama(3)
    sims = simple_modules(a)
    mixed = build_context(
        a, Module.regular(a), [(direct_sum([sims[0], sims[1]])[0], 1), (sims[2], 2)]
    )
    reads = []
    radical = resolutions.radical

    def reading(lam):
        reads.append(lam)
        return radical(lam)

    monkeypatch.setattr(resolutions, "radical", reading)
    types = [_piece_type(mixed, e) for e in lift_idempotents(mixed.endo)]
    assert types == [1, 1, 0, 0, None, None, None]
    assert _piece_type(mixed, mixed.e_copies[0][0]) == 0
    assert reads == [mixed.endo]
    assert mixed.e_proj not in lift_idempotents(mixed.endo)
    with pytest.raises(SphertwistError, match="not a piece a cover takes"):
        _piece_type(mixed, mixed.e_proj)
    assert reads == [mixed.endo]


def test_refined_projective_type_pieces(ctx_dual, ctx_cycle):
    prims1 = refine_idempotent(ctx_dual.endo, ctx_dual.e_proj)
    assert len(prims1) == 1
    prims3 = refine_idempotent(ctx_cycle.endo, ctx_cycle.e_proj)
    assert len(prims3) == 3
    dims = sorted(ctx_cycle.right_ideal(e)[0].dim for e in prims3)
    assert dims == [3, 3, 3]


def test_stable_idempotent_module_is_a_submodule_of_the_stable_module(
    ctx_dual, ctx_cycle, ctx_cycle_one
):
    for ctx in (ctx_dual, ctx_cycle, ctx_cycle_one):
        con = ctx.stable_endo
        for i, copies in enumerate(ctx.e_copies):
            e = ctx.to_stable.apply(copies[0])
            rows = [con.mul_vec(e, con.basis_vector(k)) for k in range(con.dim)]
            sub, _ = submodule(stable_module(ctx), rows)
            piece = stable_idempotent_module(ctx, i)
            assert (piece.dim, piece.action) == (sub.dim, sub.action)


def test_stable_helpers_shapes(ctx_cycle):
    ctx = ctx_cycle
    con = stable_module(ctx)
    assert con.dim == 3
    for vec in ctx.proj_ideal:
        assert con.action_of(vec).is_zero()
    for i in range(3):
        assert stable_idempotent_module(ctx, i).dim == 1
    assert len(stable_simples(ctx)) == 3
