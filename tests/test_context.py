"""The Frobenius context read block by block, against the whole-T route.

`build_context` reads Hom(T, T) block row by block row (the maps out of
A_A by Yoneda, one system per distinct extra summand), forms only the
composites of End(T) whose supports meet, and reads the ideal [P](T, T)
of maps through projectives as the ideal Λ·e_P·Λ of Λ = End(T), with
e_P the projector onto the projective part of T = P ⊕ ⊕ Xᵢ.  Every
field here is compared, order included, with
`context_reference.whole_t_context`, which forms all d² composites and
takes the ideal from one `stable_hom(T, T)`.  The testbeds include one
whose ideal has nonzero blocks between two extra summands: the 3-cycle
with the paths of length 3 killed, with the radicals rad(eᵢA) of its
projectives as summands; and the non-basic progenerator P = A_A ⊕ e₁A
of the 3-cycle, where add P = add A but P ≠ A_A.

The block-row reader serves the tilting companion C = P ⊕ ⊕ ΩXᵢ too,
so Hom(T, T), Hom(T, C), Hom(C, T) and Hom(C, C) read by it are
compared with `hom_space`, with A_A read by Yoneda and, on the sheared
and rebased 3-cycles, with a copy of A_A whose row takes `hom_space`.
"""

import pytest

from sphertwist import frobenius, modules, spherical
from sphertwist.algebra import from_quiver, lift_idempotents
from sphertwist.exactlin import QQ, PrimeField
from sphertwist.frobenius import build_context, stable_hom
from sphertwist.modules import (
    Module,
    _idempotent_piece,
    add_equivalent,
    direct_sum,
    hom_space,
    module_radical,
    simple_modules,
    submodule,
)

from context_reference import block_projectors, whole_t_context
from fixture_algebras import cyclic_nakayama
from patching import count_calls
from test_yoneda_reads import scaled_shear, sheared

GF = PrimeField(32003)
GF31 = PrimeField(31)


def nakayama3_loewy3(field):
    """The 3-cycle quiver with all paths of length 3 killed (dim 9)."""
    vertices = ["1", "2", "3"]
    arrows = [("a%d" % i, str(i), str(i % 3 + 1)) for i in range(1, 4)]
    relations = [
        [(1, ["a%d" % i, "a%d" % (i % 3 + 1), "a%d" % ((i + 1) % 3 + 1)])]
        for i in range(1, 4)
    ]
    return from_quiver(vertices, arrows, relations, field=field)


def radicals(a):
    """rad(eᵢA) for the lifted primitives eᵢ, in their order."""
    out = []
    for e in lift_idempotents(a):
        pe, _ = _idempotent_piece(a, e)
        rad, _ = submodule(pe, module_radical(pe), check=False)
        out.append(rad)
    return out


def workload_spec(n, seed, field, one_summand):
    """The generator of a benchmark workload: the rotated n-cycle."""
    order = [(i + seed % n) % n + 1 for i in range(n)]
    a = from_quiver(
        [str(v) for v in order],
        [("a%d" % v, str(v), str(v % n + 1)) for v in order],
        [[(1, ["a%d" % v, "a%d" % (v % n + 1)])] for v in order],
        field=field,
    )
    sims = simple_modules(a)
    extra = [(sims[(seed // n) % n], 1)] if one_summand else [(s, 1) for s in sims]
    return a, extra


def _cases():
    cases = {}
    for seed in (0, 1, 5):
        cases["tilting_cycle3/%d" % seed] = lambda s=seed: workload_spec(3, s, QQ, True)
        cases["ladder_cycle4/%d" % seed] = lambda s=seed: workload_spec(4, s, QQ, False)
        cases["twist_cycle3_gf/%d" % seed] = lambda s=seed: workload_spec(3, s, GF, False)

    def multiplicity_two():
        a = cyclic_nakayama(3)
        sims = simple_modules(a)
        return a, [(sims[0], 2), (sims[1], 1)]

    def regular_twice():
        a = cyclic_nakayama(3)
        return a, [(Module.regular(a), 1)]

    # a rung of the scale ladder above the workloads: the 6-cycle with all
    # simples, over both fields
    for name, field in (("Q", QQ), ("GF32003", GF)):
        cases["ladder_cycle6/" + name] = lambda f=field: workload_spec(6, 0, f, False)

    cases["multiplicity_two"] = multiplicity_two
    cases["regular_twice"] = regular_twice
    for name, field in (("Q", QQ), ("GF31", GF31)):
        def all_radicals(field=field):
            a = nakayama3_loewy3(field)
            return a, [(r, 1) for r in radicals(a)]

        def square_and_one(field=field):
            a = nakayama3_loewy3(field)
            rads = radicals(a)
            return a, [(rads[0], 2), (rads[1], 1)]

        def radical_and_simples(field=field):
            a = nakayama3_loewy3(field)
            return a, [(radicals(a)[0], 1)] + [(s, 1) for s in simple_modules(a)]

        cases["radicals/" + name] = all_radicals
        cases["radical_square/" + name] = square_and_one
        cases["radical_simples/" + name] = radical_and_simples
    return cases


CASES = _cases()


def progenerator(field):
    """(A, P, extra): the 3-cycle with all simples, and for the
    projective part the non-basic progenerator P = A_A ⊕ e₁A, a sum
    that is not the regular module object."""
    a = cyclic_nakayama(3, field)
    p = direct_sum([Module.regular(a), _idempotent_piece(a, lift_idempotents(a)[0])[0]])[0]
    return a, p, [(s, 1) for s in simple_modules(a)]


def assert_matches_whole_t(a, p, extra):
    """The context on (a, p, extra) and the whole-T route give the same
    fields, order included, and the block projectors are those the
    block bookkeeping of `context_reference` groups; returns the
    context."""
    ctx = build_context(a, p, extra)
    ref = whole_t_context(p, extra)
    assert [h.matrix.rows for h in ctx.hom_basis] == [
        h.matrix.rows for h in ref.hom_basis
    ]
    assert ctx.endo.table == ref.endo.table
    assert ctx.endo.idempotents == ref.endo.idempotents
    assert ctx.proj_ideal == ref.proj_ideal
    assert ctx.to_stable.matrix.rows == ref.to_stable.matrix.rows
    assert ctx.stable_endo.table == ref.stable_endo.table
    assert (ctx.e_proj, ctx.e_copies) == block_projectors(ref.endo, extra)
    return ctx


@pytest.mark.parametrize("name", sorted(CASES))
def test_context_matches_the_whole_t_route(name):
    a, extra = CASES[name]()
    assert_matches_whole_t(a, Module.regular(a), extra)


@pytest.mark.parametrize("field", [QQ, GF31], ids=["Q", "GF31"])
def test_a_non_basic_progenerator_matches_the_whole_t_route(field):
    # add P = add A with P ≠ A_A: T = A_A ⊕ e₁A ⊕ S₁ ⊕ S₂ ⊕ S₃ has
    # End(T) of dim 6 + 2 + 2 + 1 (P to P), 4 (P to the simples), 4
    # (the simples to P) and 3 = 22, and only the identities of the
    # simples survive in the stable quotient: 19 ideal rows
    ctx = assert_matches_whole_t(*progenerator(field))
    assert ctx.endo.dim == 22
    assert len(ctx.proj_ideal) == 19
    assert ctx.stable_endo.dim == 3


@pytest.mark.parametrize("name", sorted(CASES) + ["progenerator/Q"])
def test_every_rref_hom_basis_map_lies_in_one_block_pair(name):
    # the premise of reading T and its tilting companion C = P ⊕ ⊕ ΩXᵢ
    # block by block: the rref basis maps of Hom(T, T), Hom(C, T) and
    # Hom(T, C) each have their entries in one block pair, which
    # `spherical.tilting_audit` reads off the first cell
    if name.startswith("progenerator"):
        a, p, extra = progenerator(QQ)
    else:
        a, extra = CASES[name]()
        p = Module.regular(a)
    ctx = build_context(a, p, extra)
    copies = [x for x, mult in extra for _ in range(mult)]
    t_blocks = [p] + copies
    c_blocks = [p] + [spherical._suspension(ctx, x, -1) for x in copies]
    companion = frobenius._tagged_generator(c_blocks)[0]

    def block_of(blocks):
        return [b for b, x in enumerate(blocks) for _ in range(x.dim)]

    t_of, c_of = block_of(t_blocks), block_of(c_blocks)
    for (source, rows_of), (target, cols_of) in (
        ((ctx.total, t_of), (ctx.total, t_of)),
        ((companion, c_of), (ctx.total, t_of)),
        ((ctx.total, t_of), (companion, c_of)),
    ):
        homs = hom_space(source, target)
        assert homs
        for h in homs:
            pairs = {
                (rows_of[r], cols_of[c])
                for r, row in enumerate(h.matrix.pairs) for c, _ in row
            }
            assert len(pairs) == 1, (name, h.matrix)


@pytest.mark.parametrize("name", ["ladder_cycle4/0", "multiplicity_two", "regular_twice"])
def test_the_stable_quotient_carries_the_surviving_block_tags(name):
    # the block projectors map to idempotents of the stable quotient; a
    # block of a projective summand factors through a projective and
    # maps to 0, the others survive under their roles
    a, extra = CASES[name]()
    ctx = build_context(a, Module.regular(a), extra)
    images = [(role, ctx.to_stable.apply(v)) for role, v in ctx.endo.idempotents]
    survivors = [(role, v) for role, v in images if any(v)]
    assert (ctx.stable_endo.idempotents or []) == survivors
    projective = [x is Module.regular(a) for x, _ in extra]
    assert len(survivors) == sum(m for (_, m), p in zip(extra, projective) if not p)


@pytest.mark.parametrize("field", [QQ, GF31])
def test_radical_testbed_has_factoring_maps_between_extra_summands(field):
    """[P](radᵢ, radⱼ) ≠ 0 exactly for the pairs 0→1, 1→2 and 2→0, so
    the extra–extra blocks of the ideal are not all zero."""
    rads = radicals(nakayama3_loewy3(field))
    assert [r.dim for r in rads] == [2, 2, 2]
    nonzero = {
        (i, j)
        for i, x in enumerate(rads)
        for j, y in enumerate(rads)
        if stable_hom(x, y)[1]
    }
    assert nonzero == {(0, 1), (1, 2), (2, 0)}
    # the ideal is the whole of each P-row and P-column block plus one
    # factoring map in each of those three extra–extra blocks
    a = rads[0].algebra
    reg = Module.regular(a)
    ctx = build_context(a, reg, [(r, 1) for r in rads])
    blocks = [reg] + rads
    proj_blocks = sum(
        len(hom_space(x, y))
        for i, x in enumerate(blocks)
        for j, y in enumerate(blocks)
        if i == 0 or j == 0
    )
    assert len(ctx.proj_ideal) == proj_blocks + 3


def test_build_context_solves_hom_only_out_of_the_extra_summands(monkeypatch):
    # Hom(T, T) is read block row by block row: the maps out of A_A by
    # Yoneda, and one system Hom(X, T) per distinct extra summand X,
    # shared by its copies
    a = cyclic_nakayama(4)
    sims = simple_modules(a)
    extra = [(sims[0], 2)] + [(s, 1) for s in sims[1:]]
    calls = count_calls(monkeypatch, modules, "hom_space")
    ctx = build_context(a, Module.regular(a), extra)
    assert not any(m is ctx.total for m, _ in calls)
    assert [id(m) for m, n in calls if n is ctx.total] == [id(x) for x, _ in extra]


def test_a_projective_part_besides_the_regular_object_solves_its_rows():
    # a copy of A_A is another object: its block row is solved by
    # hom_space instead of read by Yoneda, with the same basis
    a = cyclic_nakayama(3)
    extra = [(s, 1) for s in simple_modules(a)]
    reg = Module.regular(a)
    ref = build_context(a, reg, extra)
    ctx = build_context(a, Module(a, reg.dim, reg.action), extra)
    assert [h.matrix.rows for h in ctx.hom_basis] == [
        h.matrix.rows for h in ref.hom_basis
    ]
    assert ctx.endo.table == ref.endo.table
    assert ctx.proj_ideal == ref.proj_ideal


def _reader_case(name):
    """(algebra, projective part, extra summands) of a block-row reader
    case; a copy of A_A is another object, so its row takes hom_space."""
    if name.startswith("radicals"):
        a = nakayama3_loewy3(QQ)
        rads = radicals(a)
        return a, Module.regular(a), [(rads[0], 2), (rads[1], 1)]
    a = cyclic_nakayama(3)
    if name.startswith("shear"):
        a = sheared(a)
    elif name.startswith("rebased"):
        a = scaled_shear(a)
    reg = Module.regular(a)
    p = Module(a, reg.dim, reg.action) if name.endswith("copy") else reg
    sims = simple_modules(a)
    return a, p, [(sims[0], 2), (sims[1], 1)]


@pytest.mark.parametrize(
    "name", ["cycle3", "radicals", "shear_copy", "rebased_copy", "rebased"])
def test_the_block_row_reader_gives_the_hom_space_basis(name):
    # Hom out of T = P ⊕ ⊕ X and out of the tilting companion
    # C = P ⊕ ⊕ ΩX, into either, read block row by block row, is the
    # rref basis hom_space solves in the unknowns of the whole
    a, p, extra = _reader_case(name)
    ctx = build_context(a, p, extra)
    copies = [x for x, mult in extra for _ in range(mult)]
    t_blocks = [p] + copies
    c_blocks = [p] + [spherical._suspension(ctx, x, -1) for x in copies]
    companion = frobenius._tagged_generator(c_blocks)[0]
    for blocks, source in ((t_blocks, ctx.total), (c_blocks, companion)):
        for target in (ctx.total, companion):
            got = frobenius._generator_hom_basis(blocks, source, target)
            want = hom_space(source, target)
            assert [h.matrix.rows for h in got] == [h.matrix.rows for h in want]
            assert all(h.source is source and h.target is target for h in got)


def test_add_equivalent_of_one_object_makes_no_hom_space_call(monkeypatch):
    a = cyclic_nakayama(3)
    reg = Module.regular(a)
    calls = count_calls(monkeypatch, modules, "hom_space")
    assert add_equivalent(reg, reg)
    assert calls == []
    # a copy with the same action is another object and takes the check
    copy = Module(a, reg.dim, reg.action)
    assert add_equivalent(reg, copy)
    assert calls


@pytest.mark.parametrize("kind", ["all_simples", "square", "radical_simples"])
def test_build_context_builds_no_envelope_and_no_stable_hom(monkeypatch, kind):
    # [P](T, T) is the ideal Λ·e_P·Λ, read off the table of End(T): no
    # module is embedded in an injective and no factoring map is solved
    if kind == "radical_simples":
        a = nakayama3_loewy3(QQ)
        extra = [(radicals(a)[0], 2)] + [(s, 1) for s in simple_modules(a)]
    else:
        a = cyclic_nakayama(3)
        sims = simple_modules(a)
        extra = (
            [(s, 1) for s in sims]
            if kind == "all_simples"
            else [(sims[0], 2), (sims[1], 1)]
        )
    envelopes = count_calls(monkeypatch, frobenius, "injective_envelope")
    stable = count_calls(monkeypatch, frobenius, "stable_hom")
    ctx = build_context(a, Module.regular(a), extra)
    assert envelopes == [] and stable == []
    assert ctx.proj_ideal
