"""Minimal syzygies and cosyzygies leave no projective summand, and each
rung is built once per context.

`frobenius.suspension_power` takes exactly |k| minimal steps, with no
stripping: its docstring proves that over a self-injective algebra no
step leaves a projective summand.  The stripping route it replaced is
kept in `strip_reference` as the oracle.  On every self-injective
fixture, over Q and GF(32003), and on simples, indecomposable
projectives, their radicals, S₁² ⊕ S₂ and S ⊕ A_A ⊕ A_A:

- every syzygy and cosyzygy rung up to k = ±4 comes back from the
  oracle's stripper as the same object;
- on a module without projective summands, `suspension_power(m, ±4)`
  equals the strip-per-step route matrix for matrix; with them, the two
  agree up to isomorphism.

`truncated_cycle(n, 2)` is `cyclic_nakayama(n)`, so the Loewy length 2
is the cyclic fixtures'.

`spherical._suspension` reads Σᵏm off one ladder per extra summand and
direction, made with the context; any other module is refused.  The
ladder is checked against `suspension_power`, repeated rigidity checks
add no ladder and no rung, and over the benchmark's three workloads no
module object is covered twice and the companion Ω of `tilting_audit`
is the ladder's rung.
"""

import pytest

import strip_reference
from sphertwist import modules, spherical
from sphertwist.errors import SphertwistError
from sphertwist.exactlin import QQ, PrimeField
from sphertwist.frobenius import (
    _indecomposable_projectives,
    build_context,
    suspension_power,
)
from sphertwist.modules import (
    Module,
    direct_sum,
    module_radical,
    simple_modules,
    submodule,
)

from checks_reference import find_isomorphism
from fixture_algebras import (
    cyclic_nakayama,
    dual_numbers,
    matrix_units_2,
    nakayama3_hand_table,
    truncated_cycle,
)
from patching import count_calls
from test_yoneda_reads import scaled_shear, sheared, tensor_product
from workload_contexts import WORKLOADS

GF = PrimeField(32003)
FIELDS = [QQ, GF]
STEPS = 4

SELF_INJECTIVE = {
    "dual_numbers": dual_numbers,
    "cyclic2": lambda f: cyclic_nakayama(2, f),
    "cyclic3": lambda f: cyclic_nakayama(3, f),
    "cyclic4": lambda f: cyclic_nakayama(4, f),
    "truncated_cycle2_3": lambda f: truncated_cycle(2, 3, f),
    "truncated_cycle3_4": lambda f: truncated_cycle(3, 4, f),
    "cyclic3_shear": lambda f: sheared(cyclic_nakayama(3, f)),
    "cyclic3_rebased": lambda f: scaled_shear(cyclic_nakayama(3, f)),
    "m2_tensor_cycle3": lambda f: tensor_product(
        matrix_units_2(QQ), nakayama3_hand_table(QQ), f),
}


def modules_of(a):
    """(name, module) for the simples, the indecomposable projectives,
    their radicals, S₁² ⊕ S₂ and S₁ ⊕ A_A ⊕ A_A."""
    simples = simple_modules(a)
    projectives = _indecomposable_projectives(a)
    reg = Module.regular(a)
    s1, s2 = simples[0], simples[1 % len(simples)]
    out = [("S%d" % i, s) for i, s in enumerate(simples)]
    out += [("P%d" % i, p) for i, p in enumerate(projectives)]
    out += [("radP%d" % i, submodule(p, module_radical(p))[0])
            for i, p in enumerate(projectives)]
    out.append(("S1^2+S2", direct_sum([s1, s1, s2])[0]))
    out.append(("S+A+A", direct_sum([s1, reg, reg])[0]))
    return out


def _actions(m):
    return m.dim, [x.pairs for x in m.action]


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "GF32003"])
@pytest.mark.parametrize("name", sorted(SELF_INJECTIVE))
def test_minimal_steps_match_the_strip_per_step_route(name, field):
    a = SELF_INJECTIVE[name](field)
    for label, m in modules_of(a):
        # only the projectives and S ⊕ A_A ⊕ A_A have projective summands
        plain = not label.startswith("P") and label != "S+A+A"
        if plain:
            assert strip_reference.strip_projective_summands(m) is m, label
        for step in (1, -1):
            rung = m
            for i in range(1, STEPS + 1):
                rung = suspension_power(rung, step)
                assert strip_reference.strip_projective_summands(rung) is rung, (
                    label, step * i)
            k = step * STEPS
            new = suspension_power(m, k)
            assert _actions(new) == _actions(rung), (label, k)
            old = strip_reference.suspension_power(m, k)
            if plain:
                assert _actions(new) == _actions(old), (label, k)
            else:
                assert new.dim == old.dim, (label, k)
                assert new.dim == 0 or find_isomorphism(new, old) is not None, (label, k)


# ---------------------------------------------------------------------------
# the ladder of a context


@pytest.fixture
def ctx_cycle():
    a = cyclic_nakayama(3)
    return build_context(a, Module.regular(a), [(s, 1) for s in simple_modules(a)])


def test_repeated_rigidity_keys_no_ladder_and_builds_no_rung(ctx_cycle):
    # side 2 suspends only catalog summands, whose ladders the context
    # makes, two per summand; a repeated call finds every rung built.
    # The whole-sum route keyed one more ladder, on a fresh sum, per call
    ctx = ctx_cycle
    xs = [x for x, _ in ctx.summands[1:]]
    assert set(ctx._ladders) == {(x, step) for x in xs for step in (1, -1)}
    assert not spherical.rigidity_check(ctx, 3)
    lengths = {key: len(ladder) for key, ladder in ctx._ladders.items()}
    for _ in range(2):
        assert not spherical.rigidity_check(ctx, 3)
        assert len(ctx._ladders) == 2 * len(xs)
        assert {key: len(ladder) for key, ladder in ctx._ladders.items()} == lengths
    with pytest.raises(SphertwistError, match="suspension ladder"):
        spherical._suspension(ctx, direct_sum(xs[:2])[0], -1)


def test_the_ladder_matches_suspension_power_in_any_order(ctx_cycle, monkeypatch):
    # the rungs are asked for out of order, in both directions, for two
    # modules; each is suspension_power's module, built once
    ctx = ctx_cycle
    x, y = (s for s, _ in ctx.summands[1:3])
    order = [(x, -2), (y, 3), (x, 1), (y, -1), (x, -4), (x, 3), (y, 0), (x, -1)]
    calls = count_calls(monkeypatch, modules, "projective_cover")
    got = {(m, k): spherical._suspension(ctx, m, k) for m, k in order}
    built = list(calls)
    assert len({id(args[0]) for args in built}) == len(built)
    # asking again builds nothing
    for (m, k), rung in got.items():
        assert spherical._suspension(ctx, m, k) is rung
    assert len(calls) == len(built)
    for (m, k), rung in got.items():
        assert _actions(rung) == _actions(suspension_power(m, k))
    assert got[y, 0] is y


_RUNS = {}


def run(name):
    """(ctx, the modules `projective_cover` was called on, in order, the
    syzygy blocks Ωx that `tilting_audit` built its companion from, after
    the projective part), from one set-up and solve of the workload; the
    covered modules are kept alive, so their ids stay distinct."""
    if name not in _RUNS:
        setup, solve, field = WORKLOADS[name]
        companions = []
        with pytest.MonkeyPatch.context() as mp:
            calls = count_calls(mp, modules, "projective_cover")
            original = spherical._tagged_generator

            def recording(blocks):
                assert blocks[0] is ctx.summands[0][0]
                companions.extend(blocks[1:])
                return original(blocks)

            mp.setattr(spherical, "_tagged_generator", recording)
            ctx = setup(field)
            solve(ctx)
        _RUNS[name] = ctx, [args[0] for args in calls], companions
    return _RUNS[name]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_no_module_is_covered_twice(name):
    _, covered, _ = run(name)
    assert covered
    assert len({id(m) for m in covered}) == len(covered)
    if name == "tilting_cycle3":
        # 31 covers, 3 of them repeats, when each step stripped its
        # result and side 2 rebuilt Ω¹…Ωⁱ for every i
        assert len(covered) <= 26


def test_the_companion_is_the_first_syzygy_rung(monkeypatch):
    ctx, covered, companions = run("tilting_cycle3")
    (x, mult), = ctx.summands[1:]
    assert mult == 1
    (om,) = companions
    calls = count_calls(monkeypatch, modules, "projective_cover")
    assert spherical._suspension(ctx, x, -1) is om
    assert calls == []
    assert any(m is x for m in covered)
    assert strip_reference.strip_projective_summands(om) is om
