"""Window audits and tilting certificates on the three standing testbeds.

Expected values here were frozen from hand computations before the
audit code ran: extension profiles from explicit syzygy chains,
permutations from tracking simples around the cycle, tensor dimensions
from counting hom blocks between the generator and its syzygy
companion.  The degenerate window — where the companion regenerates
the generator and the composition pairing fills the whole endomorphism
algebra instead of the projective-factoring ideal — is pinned to its
exact dimensions, not just to a failing flag.
"""

import sys

import pytest

import ext_reference
import simple_reference
import strip_reference
import tilting_reference
from sphertwist import algebra, exactlin, modules, spherical
from sphertwist.errors import AuditFailed, SphertwistError
from sphertwist.exactlin import QQ, Matrix
from sphertwist.frobenius import (
    build_context,
    is_self_injective,
    nakayama_permutation,
    suspension_power,
)
from sphertwist.homology import left_module_along, tor_dims, tor_from_resolution
from sphertwist.modules import Module, add_equivalent, direct_sum, simple_modules
from sphertwist.resolutions import (
    minimal_resolution,
    resolve_past,
    stable_module,
    stable_simples,
)
from sphertwist.spherical import (
    NakayamaComparison,
    OPEN_QUESTION,
    SideTwo,
    add_periodicity_check,
    permutation_tau,
    relatively_spherical_check,
    rigidity_check,
    syz_audit,
    tilting_audit,
)

from fixture_algebras import cyclic_nakayama, dual_numbers, truncated_cycle
from lift_reference import unit_started_lift
from patching import count_calls


# ---------------------------------------------------------------------------
# shared contexts and cached audits


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


@pytest.fixture(scope="module")
def report_dual(ctx_dual):
    return syz_audit(ctx_dual, 2, with_tilting=True)


@pytest.fixture(scope="module")
def report_cycle(ctx_cycle):
    return syz_audit(ctx_cycle, 2, with_tilting=True)


@pytest.fixture(scope="module")
def report_cycle_one(ctx_cycle_one):
    return syz_audit(ctx_cycle_one, 4, with_tilting=True)


@pytest.fixture(scope="module")
def ctx_loewy3():
    a = truncated_cycle(3, 3)
    return build_context(a, Module.regular(a), [(simple_modules(a)[0], 1)])


@pytest.fixture(scope="module")
def report_loewy3(ctx_loewy3):
    return syz_audit(ctx_loewy3, 3, with_tilting=True)


# ---------------------------------------------------------------------------
# guards and small pieces


def test_window_below_two_refused(ctx_dual):
    with pytest.raises(SphertwistError):
        relatively_spherical_check(ctx_dual, 1)
    with pytest.raises(SphertwistError):
        rigidity_check(ctx_dual, 0)
    with pytest.raises(SphertwistError):
        permutation_tau(ctx_dual, 1)


def test_rigidity_vacuous_at_two(ctx_dual, ctx_cycle):
    assert rigidity_check(ctx_dual, 2) is True
    assert rigidity_check(ctx_cycle, 2) is True


def test_rigidity_fails_above_degenerate_window(ctx_cycle):
    # one syzygy step maps each simple onto another summand of the
    # extra part, so a window of three sees a nonzero stable hom
    assert rigidity_check(ctx_cycle, 3) is False


def test_add_periodicity_at_zero_steps(ctx_dual, ctx_cycle):
    assert add_periodicity_check(ctx_dual, 0) is True
    assert add_periodicity_check(ctx_cycle, 0) is True


def _cycle3_context(extra):
    a = cyclic_nakayama(3)
    sims = simple_modules(a)
    summands = {
        "one simple": [(sims[0], 1)],
        "all simples": [(s, 1) for s in sims],
        "S1^2 + S2": [(sims[0], 2), (sims[1], 1)],
        "projective": [(Module.regular(a), 1)],
    }[extra]
    return build_context(a, Module.regular(a), summands)


def _whole_sum_periodicity(ctx, k):
    """add(ΩᵏX ⊕ P) = add(X ⊕ P) by `add_equivalent` on the two whole
    sums, the route `add_periodicity_check` took before it went summand
    by summand."""
    p = ctx.summands[0][0]
    x = direct_sum([x for x, _ in ctx.summands[1:]])[0]
    om = suspension_power(x, -k)
    return add_equivalent(direct_sum([om, p])[0], direct_sum([x, p])[0])


# Ω moves each simple of the 3-cycle one seat around the cycle (`test_
# permutation_values`), so Ωᵏ of one simple, or of S₁ and S₂ together,
# is the same set of simples again exactly when 3 divides k.  With all
# three simples the set is always the same.  A projective summand lies
# in add P: its Ω⁰ is the summand itself and its Ωᵏ for k ≥ 1 is 0, so
# both sides are add P.
PERIODICITY = {
    "one simple": [True, False, False, True, False],
    "all simples": [True] * 5,
    "S1^2 + S2": [True, False, False, True, False],
    "projective": [True] * 5,
}


@pytest.mark.parametrize("extra", sorted(PERIODICITY))
def test_add_periodicity_values_on_the_three_cycle(extra):
    ctx = _cycle3_context(extra)
    values = [add_periodicity_check(ctx, k) for k in range(5)]
    assert values == PERIODICITY[extra]
    assert values == [_whole_sum_periodicity(ctx, k) for k in range(5)]


def test_add_periodicity_agrees_with_the_whole_sum_route(ctx_dual):
    assert all(
        add_periodicity_check(ctx_dual, k) == _whole_sum_periodicity(ctx_dual, k)
        for k in range(4)
    )


@pytest.mark.parametrize("name", [
    "ctx_dual", "ctx_cycle", "ctx_cycle_one", "ctx_loewy3", *sorted(PERIODICITY)
])
def test_the_simple_reads_match_the_hom_scans(name, request):
    """The simple of each summand, and σ of the ambient algebra and of
    the stable quotient, agree with the hom-scan reference."""
    if name in PERIODICITY:
        ctx = _cycle3_context(name)
    else:
        ctx = request.getfixturevalue(name)
    assert spherical._summand_simple_positions(ctx) == (
        simple_reference.summand_simple_positions(ctx))
    for alg in (ctx.ambient, ctx.stable_endo):
        ref = simple_reference.simple_reps(alg)
        assert [s.tag for s in simple_modules(alg)] == [s.tag for s in ref]
        if is_self_injective(alg):
            assert nakayama_permutation(alg) == simple_reference.nakayama_permutation(alg)


def test_the_stable_module_is_built_once_per_audit(monkeypatch):
    ctx = _cycle3_context("all simples")
    calls = count_calls(monkeypatch, modules, "restrict_scalars")
    report = syz_audit(ctx, 2)
    assert report.side1.verdict and report.side2.verdict
    regular = Module.regular(ctx.stable_endo)
    assert sum(args[1] is regular for args in calls) == 1


def test_permutation_values():
    a = dual_numbers()
    c1 = build_context(a, Module.regular(a), [(simple_modules(a)[0], 1)])
    assert permutation_tau(c1, 2) == (0,)

    a3 = cyclic_nakayama(3)
    sims = simple_modules(a3)
    c3 = build_context(a3, Module.regular(a3), [(s, 1) for s in sims])
    # one syzygy step walks each simple one seat around the cycle
    assert permutation_tau(c3, 2) == (2, 0, 1)
    # three steps come back home
    assert permutation_tau(c3, 4) == (0, 1, 2)

    c3b = build_context(a3, Module.regular(a3), [(sims[0], 1)])
    # a single summand cannot absorb a one-step shift…
    assert permutation_tau(c3b, 2) is None
    # …but the full loop fixes it
    assert permutation_tau(c3b, 4) == (0,)


def test_side_two_verdict_requires_all_three():
    assert SideTwo(True, True, (0,)).verdict is True
    assert SideTwo(False, True, (0,)).verdict is False
    assert SideTwo(True, False, (0,)).verdict is False
    assert SideTwo(True, True, None).verdict is False


# ---------------------------------------------------------------------------
# full audits: the dual-numbers testbed


def test_dual_passing_window(report_dual):
    r = report_dual
    assert r.t == 2
    assert r.side1.verdict and r.side2.verdict and r.agreement
    assert r.side1.perfect
    assert r.side1.ext_profile == [[1, 0, 1]]
    assert r.side2.tau == (0,)
    assert r.note == OPEN_QUESTION


def test_dual_nakayama_comparison(report_dual):
    nak = report_dual.nakayama
    assert isinstance(nak, NakayamaComparison)
    assert nak.self_injective
    assert nak.sigma == (0,)
    assert nak.tau_eq_sigma is True


def test_dual_failing_window(ctx_dual):
    r = syz_audit(ctx_dual, 3)
    assert not r.side1.verdict and not r.side2.verdict
    assert r.agreement
    assert r.nakayama is None and r.tilting_audit is None


@pytest.mark.parametrize("t", [2, 3, 4, 5, 6])
def test_dual_sides_always_agree(ctx_dual, t):
    assert syz_audit(ctx_dual, t).agreement


# ---------------------------------------------------------------------------
# full audits: the three-cycle testbeds


def test_cycle_passing_window(report_cycle):
    r = report_cycle
    assert r.side1.verdict and r.side2.verdict and r.agreement
    assert r.side1.ext_profile == [[1, 0, 1]] * 3
    assert r.side2.tau == (2, 0, 1)


def test_cycle_nakayama_disagrees(report_cycle):
    # the stable quotient is a product of fields, so its socle
    # permutation is trivial while the syzygy permutation cycles
    nak = report_cycle.nakayama
    assert nak.self_injective
    assert nak.sigma == (0, 1, 2)
    assert nak.tau_eq_sigma is False


def test_cycle_failing_window(ctx_cycle):
    r = syz_audit(ctx_cycle, 3)
    assert not r.side1.verdict and not r.side2.verdict


def test_cycle_one_failing_windows(ctx_cycle_one):
    for t in (2, 3):
        r = syz_audit(ctx_cycle_one, t)
        assert not r.side1.verdict and not r.side2.verdict
    assert relatively_spherical_check(ctx_cycle_one, 2).ext_profile == [
        [1, 0, 0, 0, 1]
    ]


def test_cycle_one_passing_window(report_cycle_one):
    r = report_cycle_one
    assert r.t == 4
    assert r.side1.verdict and r.side2.verdict
    assert r.side1.ext_profile == [[1, 0, 0, 0, 1]]
    assert r.side2.tau == (0,)
    assert r.nakayama.self_injective and r.nakayama.tau_eq_sigma


# ---------------------------------------------------------------------------
# tilting certificates


@pytest.mark.parametrize(
    "report_name", ["report_dual", "report_cycle", "report_cycle_one", "report_loewy3"])
def test_the_companion_syzygy_has_no_projective_summand(
        request, report_name, monkeypatch):
    # the companion keeps the projective part and takes one minimal
    # syzygy of each copy of an extra summand, which the stripping oracle
    # returns as it is: the audit has no projective summand to refuse
    report = request.getfixturevalue(report_name)
    ctx = report.ctx
    built = []
    original = spherical._tagged_generator

    def recording(blocks):
        built.append(blocks)
        return original(blocks)

    monkeypatch.setattr(spherical, "_tagged_generator", recording)
    tilting_audit(report)
    (blocks,) = built
    assert blocks[0] is ctx.summands[0][0]
    oms = blocks[1:]
    assert len(oms) == sum(mult for _, mult in ctx.summands[1:])
    for om in oms:
        assert om.dim
        assert strip_reference.strip_projective_summands(om) is om


def test_tilting_degenerate_window_dual(report_dual):
    ta = report_dual.tilting_audit
    assert ta.t == 2
    assert ta.I0_dims == (3, 2)
    assert ta.D0_dims == (3, 2)
    assert ta.biperfect and ta.rho_iso and ta.lambda_iso
    # the companion is isomorphic to the generator, so the pairing
    # fills the whole endomorphism algebra and misses the ideal
    assert ta.composite_iso_to_projE is False
    assert ta.tensor_dim == 5


def test_tilting_degenerate_window_cycle(report_cycle, ctx_cycle):
    ta = report_cycle.tilting_audit
    assert ta.I0_dims == (9, 6)
    assert ta.D0_dims == (9, 6)
    assert ta.biperfect and ta.rho_iso and ta.lambda_iso
    assert ta.composite_iso_to_projE is False
    assert ta.tensor_dim == ctx_cycle.endo.dim == 15


def test_tilting_passing_cycle_one(report_cycle_one, ctx_cycle_one):
    ta = report_cycle_one.tilting_audit
    assert ta.I0_dims == (7, 1)
    assert ta.D0_dims == (7, 1)
    assert ta.biperfect and ta.rho_iso and ta.lambda_iso
    assert ta.composite_iso_to_projE is True
    assert ta.tensor_dim == 8
    assert ta.tensor_dim == ctx_cycle_one.endo.dim - ctx_cycle_one.stable_endo.dim


def test_tilting_builds_no_enveloping_algebra(ctx_dual, monkeypatch):
    # the hom bimodules are two commuting action families; nothing in the
    # audit needs the dense enveloping algebra they are modules over
    def refuse(*args):
        raise AssertionError("tilting audit built an enveloping algebra")

    holders = [
        mod for name, mod in list(sys.modules.items())
        if name.split(".")[0] == "sphertwist"
        and getattr(mod, "enveloping", None) is algebra.enveloping
    ]
    assert algebra in holders
    for mod in holders:
        monkeypatch.setattr(mod, "enveloping", refuse)
    ta = tilting_audit(syz_audit(ctx_dual, 2))
    assert ta.biperfect and ta.rho_iso and ta.lambda_iso
    assert ta.tensor_dim == 5


def test_tilting_and_tor_form_no_kronecker_product(ctx_cycle_one, monkeypatch):
    # the balanced tensor, the Tor differentials and the equivariance of
    # the pairing are read row by row; no Kronecker product is formed
    def refuse(*args):
        raise AssertionError("formed a Kronecker product")

    holders = [
        mod for name, mod in list(sys.modules.items())
        if name.split(".")[0] == "sphertwist"
        and getattr(mod, "kronecker", None) is exactlin.kronecker
    ]
    assert exactlin in holders
    for mod in holders:
        monkeypatch.setattr(mod, "kronecker", refuse)
    ta = tilting_audit(syz_audit(ctx_cycle_one, 4))
    assert ta.composite_iso_to_projE
    assert ta.tensor_dim == 8
    # the stable quotient is k, and its tensor square over the endomorphism
    # algebra is concentrated in degrees 0 and the window 4
    ctx = ctx_cycle_one
    con, left = stable_module(ctx), left_module_along(ctx.to_stable)
    assert tor_dims(con, left, 6) == [1, 0, 0, 0, 1, 0]
    assert tor_from_resolution(minimal_resolution(left, 6), con, 6) == [1, 0, 0, 0, 1, 0]


def test_tilting_gate_refuses_failing_window(ctx_cycle_one):
    report = syz_audit(ctx_cycle_one, 2)
    with pytest.raises(AuditFailed):
        tilting_audit(report)


def test_the_tilting_audit_runs_the_two_sided_audit_once(ctx_cycle_one, monkeypatch):
    # the certificates read the gate's verdict, window and cap off the
    # report instead of auditing the window again
    calls = count_calls(monkeypatch, spherical, "relatively_spherical_check")
    report = syz_audit(ctx_cycle_one, 4, with_tilting=True)
    assert report.tilting_audit.composite_iso_to_projE
    assert len(calls) == 1


def test_the_tilting_audit_reads_block_dims_off_the_companion_homs(
        ctx_cycle_one, monkeypatch):
    # I0 and D0 count the companion homs by block instead of solving
    # hom(p, total), hom(om, total), hom(total, p) and hom(total, om),
    # and each side module's End is read off its resolution as Ext⁰
    # instead of solved.  End(C), Hom(C, T) and Hom(T, C) are read block
    # row by block row, A_A's row by Yoneda: three systems, hom(om, C),
    # hom(om, T) and hom(x, C), in 7 unknowns each.  The whole-sum
    # route solved End(C), Hom(C, T) and Hom(T, C) in 49 each, 147 in
    # all, and solving the four blocks and the four Ends as well took
    # eleven systems
    report = syz_audit(ctx_cycle_one, 4)
    calls = count_calls(monkeypatch, modules, "hom_space")
    ta = tilting_audit(report)
    assert (ta.I0_dims, ta.D0_dims) == ((7, 1), (7, 1))
    assert len(calls) == 3
    assert sum(m.dim * n.dim for m, n in calls) == 21


def test_the_companion_algebra_is_split_from_its_block_tags(
        ctx_cycle_one, monkeypatch):
    # End(P ⊕ Ω) records the block projectors of the companion as its
    # idempotent tags, as End(T) does, so its primitives are split block
    # by block; the list is the one the search from the unit gives
    report = syz_audit(ctx_cycle_one, 4)
    built = []
    original = spherical._tagged_generator

    def recording(blocks):
        out = original(blocks)
        built.append(out[1])
        return out

    monkeypatch.setattr(spherical, "_tagged_generator", recording)
    tilting_audit(report)
    (lam1,) = built
    tags = [v for _, v in lam1.idempotents]
    assert [role for role, _ in lam1.idempotents] == ["block:0", "block:1"]
    assert algebra._seed_idempotents(lam1) == tags
    assert algebra.lift_idempotents(lam1) == unit_started_lift(lam1)


@pytest.mark.parametrize("blocking, side", [(0, "right"), (1, "left")])
def test_a_tampered_pairing_block_breaks_equivariance(
        report_cycle_one, blocking, side, monkeypatch):
    # one extra entry in the first block of one blocking of μ
    # (by_first feeds the right-hand check, by_second the left-hand
    # one): that check must refuse the pairing, naming a generator
    original = spherical._pairing_blocks

    def tampered(mu_rows, ni, nd):
        blocks = original(mu_rows, ni, nd)
        first = blocks[blocking][0]
        blocks[blocking][0] = [first[0] + [(0, 1)]] + first[1:]
        return blocks

    monkeypatch.setattr(spherical, "_pairing_blocks", tampered)
    with pytest.raises(
        AuditFailed, match="composition pairing breaks equivariance on the " + side
    ) as exc:
        tilting_audit(report_cycle_one)
    assert exc.value.witness in modules.generator_indices(report_cycle_one.ctx.endo)


def test_end_recovery_agrees_with_the_hom_space_route():
    # families on the regular module A and the simple k of the dual
    # numbers A: an isomorphism A → End(A) = A, a dependent family, a
    # side algebra too small for End, and the isomorphism k → End(k),
    # refused because Ext¹(k, k) ≠ 0
    a, k = dual_numbers(), algebra.from_structure_constants(QQ, [[[1]]], [1])
    reg, simple = Module.regular(a), simple_modules(a)[0]
    one, x = Matrix.identity(QQ, 2), a.left_mult_matrix(a.basis_vector(1))
    cases = [
        (a, [one, x], reg, True),
        (a, [one, one], reg, False),
        (k, [one], reg, False),
        (k, [Matrix.identity(QQ, 1)], simple, False),
    ]
    for side_alg, mats, m, want in cases:
        res = resolve_past(m)[0]
        rigid = ext_reference.ext_dims(a, m, m, 2)[1] == 0
        assert spherical._recovers(side_alg, mats, res) is want
        assert want == (
            tilting_reference.embedding_bijective(side_alg, mats, m) and rigid
        )


def test_tensor_codimension_invariant(report_dual, report_cycle, report_cycle_one):
    """A full pass forces the tensor to match the stable codimension;
    the degenerate windows instead land on the whole algebra."""
    for rep in (report_dual, report_cycle, report_cycle_one):
        ta = rep.tilting_audit
        lam_dim = rep.ctx.endo.dim
        con_dim = rep.ctx.stable_endo.dim
        if ta.biperfect and ta.rho_iso and ta.lambda_iso and ta.composite_iso_to_projE:
            assert ta.tensor_dim == lam_dim - con_dim
        else:
            assert ta.tensor_dim == lam_dim


# ---------------------------------------------------------------------------
# one resolution per module: agreement with the resolve-per-query route


def two_call_side_one(ctx, t, cap):
    """Side 1 as it was computed before the stable module was resolved
    once: a cap-c resolution for perfectness and length, then a fresh
    resolution and hom spaces for every simple's profile."""
    con = stable_module(ctx)
    res = minimal_resolution(con, cap=cap)
    length, perfect = res.length, not res.truncated
    profile = [
        ext_reference.ext_dims(ctx.endo, con, s, length + 1)
        for s in stable_simples(ctx)
    ]
    vanishing = all(
        d == 0 for dims in profile for k, d in enumerate(dims) if k not in (0, t)
    )
    return perfect, profile, perfect and vanishing


@pytest.mark.parametrize("which, t", [("dual", 2), ("cycle", 2), ("cycle_one", 4)])
def test_side_one_matches_the_two_call_route_at_every_cap(
        which, t, ctx_dual, ctx_cycle, ctx_cycle_one):
    ctx = {"dual": ctx_dual, "cycle": ctx_cycle, "cycle_one": ctx_cycle_one}[which]
    length = minimal_resolution(stable_module(ctx)).length
    for cap in (length - 1, length, length + 1, None):
        side1 = relatively_spherical_check(ctx, t, cap)
        perfect, profile, verdict = two_call_side_one(ctx, t, cap)
        assert side1.perfect == perfect
        assert side1.ext_profile == profile
        assert side1.relatively_spherical == verdict
        assert perfect == (cap != length - 1)


@pytest.mark.parametrize(
    "report_name, cap, composite",
    [
        ("report_cycle_one", None, True),
        ("report_cycle_one", 4, True),
        ("report_dual", None, False),
        ("report_cycle", None, False),
        ("report_loewy3", None, True),
    ],
    ids=["None", "4", "dual", "cycle", "loewy3"],
)
def test_tilting_flags_match_the_resolve_per_query_route(
        request, report_name, cap, composite, monkeypatch):
    # rho_iso and lambda_iso against End(M) solved as a hom space
    # (tilting_reference); on the Loewy-length-3 cycle the two side
    # algebras differ in dimension (12 and 14), so each side module's
    # endomorphism ring is compared with its own side algebra
    report = request.getfixturevalue(report_name)
    if cap != report.cap:
        report = syz_audit(report.ctx, report.t, cap)
    built = []

    class Recording(spherical.Bimodule):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(spherical, "Bimodule", Recording)
    ta = tilting_audit(report)
    forward, backward = built
    lam, lam1 = report.ctx.endo, forward.right_algebra
    fr, fl = forward.restrict_right(), forward.restrict_left()
    br, bl = backward.restrict_right(), backward.restrict_left()

    def rigid(m):
        return ext_reference.ext_dims(m.algebra, m, m, 2)[1] == 0

    embeds = tilting_reference.embedding_bijective
    assert ta.biperfect == all(
        not minimal_resolution(m, cap=cap).truncated for m in (fr, fl, br, bl))
    assert ta.rho_iso == (
        embeds(lam1, forward.right_mats, fl) and rigid(fl)
        and embeds(lam, backward.right_mats, bl) and rigid(bl)
    )
    assert ta.lambda_iso == (
        embeds(lam, forward.left_mats, fr) and rigid(fr)
        and embeds(lam1, backward.left_mats, br) and rigid(br)
    )
    fr_res = minimal_resolution(fr, cap=cap)
    tor = tor_dims(fr, bl, 3 if fr_res.truncated else fr_res.length + 2)
    assert tor[0] == ta.tensor_dim
    concentrated = not fr_res.truncated and not any(tor[1:])
    assert ta.composite_iso_to_projE is composite
    assert concentrated or not composite
