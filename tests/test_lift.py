"""The primitive idempotents lifted from recorded block tags.

`lift_idempotents` splits each ``idempotents`` tag in its own corner when
the tags sum to the unit, and starts from the unit otherwise.  Most
tests here compare it with `lift_reference.unit_started_lift`, the
search from the unit, and asks for the same list in the same order: on
every fixture algebra, and on End(T), its opposite and its stable
quotient for the generators of the benchmark's workloads and a few
more.  The certified vertex tags of a quiver algebra pass the
local-corner test as they are, with no corner search, in any
characteristic; they are compared with `lift_reference.tag_started_lift`.
`lift_reference.check_corners` asks a trace form of each corner, not the
algebra's radical, that every primitive is local and every split corner
is not.
"""

import pytest

from sphertwist import algebra, spherical
from sphertwist.algebra import (
    Algebra,
    lift_idempotents,
    opposite,
)
from sphertwist.errors import NotSplit, UnsupportedCharacteristic
from sphertwist.exactlin import QQ, PrimeField
from sphertwist.frobenius import build_context
from sphertwist.modules import Module, _idempotent_piece, direct_sum, simple_modules
from sphertwist.resolutions import _proj_type_primitives
from sphertwist.spherical import syz_audit, tilting_audit

from fixture_algebras import (
    cyclic_nakayama,
    dual_numbers,
    dual_numbers_times_field,
    gaussian_field,
    linear_path,
    matrix_units_2,
    nakayama3_hand_table,
    product_field_pair,
    truncated_cycle,
    two_vertex_arrow,
)
from lift_reference import (
    check_corners,
    refine_idempotent,
    tag_started_lift,
    unit_started_lift,
)
from patching import count_calls
import vectors

GF = PrimeField(32003)

FIXTURES = {
    "dual_numbers": dual_numbers,
    "cyclic2": lambda f: cyclic_nakayama(2, f),
    "cyclic3": lambda f: cyclic_nakayama(3, f),
    "cyclic4": lambda f: cyclic_nakayama(4, f),
    "cyclic5": lambda f: cyclic_nakayama(5, f),
    "two_vertex_arrow": two_vertex_arrow,
    "linear_path3": lambda f: linear_path(3, f),
    "linear_path4": lambda f: linear_path(4, f),
    "product_field_pair": product_field_pair,
    "dual_numbers_times_field": dual_numbers_times_field,
    "matrix_units_2": matrix_units_2,
    "nakayama3_hand_table": nakayama3_hand_table,
}
# the fixtures built by from_quiver, which tags its vertex idempotents
QUIVERS = {"cyclic2", "cyclic3", "cyclic4", "cyclic5", "two_vertex_arrow",
           "linear_path3", "linear_path4"}


def _is_primitive(a, e):
    """`refine_idempotent` returns [e] exactly when e·a·e is local."""
    return refine_idempotent(a, e) == [e]


@pytest.mark.parametrize("field", [QQ, GF])
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_the_seeded_lift_is_the_unit_started_lift(name, field, monkeypatch):
    a = FIXTURES[name](field)
    calls = count_calls(monkeypatch, algebra, "_split_corner")
    es = lift_idempotents(a)
    # a quiver algebra's search starts from its vertex tags, never from
    # the unit; an untagged algebra starts from the unit
    started_at_unit = any(args[1] == a.unit for args in calls)
    assert started_at_unit == (name not in QUIVERS)
    assert es == unit_started_lift(a)
    if name in QUIVERS:
        assert es == [v for _, v in reversed(a.idempotents)]


@pytest.mark.parametrize("field", [QQ, GF])
@pytest.mark.parametrize("name", sorted(QUIVERS) + ["loewy4"])
def test_certified_tags_are_the_corner_search_from_the_tags(name, field, monkeypatch):
    # the vertex tags of a quiver algebra with a certified radical pass
    # the local-corner test as they are, so no corner is searched
    a = FIXTURES.get(name, lambda f: truncated_cycle(3, 4, f))(field)
    calls = count_calls(monkeypatch, algebra, "_find_corner_idempotent")
    es = lift_idempotents(a)
    assert calls == []
    monkeypatch.undo()
    assert es == tag_started_lift(a)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_certified_tags_need_no_corner_trace_form(p):
    # each corner e_v·A·e_v has dim 2, at or above the characteristic 2,
    # where a trace form of the corner is undefined; the certified
    # radical decides locality in every characteristic
    a = truncated_cycle(3, 4, PrimeField(p))
    assert lift_idempotents(a) == [v for _, v in reversed(a.idempotents)]
    assert [s.dim for s in simple_modules(a)] == [1, 1, 1]


@pytest.mark.parametrize("field", [QQ, GF])
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_every_primitive_is_local_and_every_split_corner_is_not(
        name, field, monkeypatch):
    a = FIXTURES[name](field)
    calls = count_calls(monkeypatch, algebra, "_split_corner")
    split = check_corners(a, lift_idempotents(a), calls)
    # only an untagged algebra with more than one primitive splits a corner
    assert bool(split) == (name not in QUIVERS and len(lift_idempotents(a)) > 1)


def test_both_starts_refuse_the_gaussian_field():
    # Q(i) has no field-rational splitting, and no tags to start from
    with pytest.raises(NotSplit):
        lift_idempotents(gaussian_field())
    with pytest.raises(NotSplit):
        unit_started_lift(gaussian_field())


def tagged_dual_numbers_times_field(field):
    """k[x]/(x²) × k on the basis u₁, x, u₂, tagged by its two block
    units ``one1`` = u₁ and ``e2`` = u₂: a table with no presentation,
    whose tag corners have dims 2 and 1."""
    a = dual_numbers_times_field(field)
    return Algebra(field, a.table, a.unit, idempotents=[
        ("one1", a.basis_vector(0)), ("e2", a.basis_vector(2)),
    ])


def test_block_tags_of_a_table_lift_above_its_dimension():
    # both tags are primitive: the corner of u₂ is k and that of u₁ is
    # k[x]/(x²), local; the list runs from the last tag, as for vertex tags
    assert lift_idempotents(tagged_dual_numbers_times_field(PrimeField(5))) == [
        [(2, 1)], [(0, 1)],
    ]


@pytest.mark.xfail(raises=UnsupportedCharacteristic, strict=True, reason=(
    "every corner test reads radical(A), and the trace-form radical of "
    "a table needs p > dim; a radical in small characteristic lifts it"))
def test_block_tags_of_a_table_lift_at_or_below_its_dimension():
    # GF(3) with dim 3: the corners have dims 2 and 1, both below p
    assert lift_idempotents(tagged_dual_numbers_times_field(PrimeField(3))) == [
        [(2, 1)], [(0, 1)],
    ]


def test_tags_short_of_the_unit_fall_back_to_the_unit(monkeypatch):
    # u alone of k × k, and two of the three vertices of the 3-cycle
    pair = Algebra(
        QQ, product_field_pair().table, vectors.pairs(QQ, [1, 1]),
        idempotents=[("u", vectors.pairs(QQ, [1, 0]))],
    )
    c3 = cyclic_nakayama(3)
    short = Algebra(QQ, c3.table, c3.unit, idempotents=c3.idempotents[:2])
    for a in (pair, short):
        calls = count_calls(monkeypatch, algebra, "_split_corner")
        assert lift_idempotents(a) == unit_started_lift(a)
        assert calls[0][1] == a.unit
        monkeypatch.undo()


# ---------------------------------------------------------------------------
# End(T) with its block projectors as tags


def _context(n, field, extra):
    a = cyclic_nakayama(n, field)
    sims = simple_modules(a)
    if extra == "one":
        summands = [(sims[0], 1)]
    elif extra == "all":
        summands = [(s, 1) for s in sims]
    elif extra == "square":
        summands = [(sims[0], 2), (sims[1], 1)]
    elif extra == "decomposable":
        summands = [(direct_sum([sims[0], sims[1]])[0], 1)]
    elif extra == "regular":
        summands = [(Module.regular(a), 1)]
    else:
        proj = _idempotent_piece(a, lift_idempotents(a)[0])[0]
        summands = [(proj, 1)]
    return build_context(a, Module.regular(a), summands)


CONTEXTS = {
    # the generators of the benchmark's three workloads at seed 0
    "tilting_cycle3": (3, QQ, "one"),
    "ladder_cycle4": (4, QQ, "all"),
    "twist_cycle3_gf": (3, GF, "all"),
    # S₁² ⊕ S₂, S₁ ⊕ S₂ as one summand, a projective summand and A_A
    "square": (3, QQ, "square"),
    "decomposable": (3, QQ, "decomposable"),
    "projective": (3, QQ, "projective"),
    "regular": (3, QQ, "regular"),
}


@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_context_lifts_match_the_unit_started_lift(name):
    ctx = _context(*CONTEXTS[name])
    lam = ctx.endo
    blocks = [ctx.e_proj] + [c for copies in ctx.e_copies for c in copies]
    assert [v for _, v in lam.idempotents] == blocks
    # the opposite first, so that it runs its own seeded search
    op = opposite(lam)
    assert lift_idempotents(op) == unit_started_lift(op)
    es = lift_idempotents(lam)
    assert es == unit_started_lift(lam)
    assert all(_is_primitive(lam, e) for e in es)
    con = ctx.stable_endo
    assert lift_idempotents(con) == unit_started_lift(con)
    # the projective-type primitives are those under e_proj, in the
    # order of its own refinement
    assert _proj_type_primitives(ctx) == refine_idempotent(lam, ctx.e_proj)


# the three workload contexts with the window their audit passes
WORKLOAD_WINDOWS = {"tilting_cycle3": 4, "ladder_cycle4": 2, "twist_cycle3_gf": 2}


@pytest.mark.parametrize("field", [QQ, GF])
@pytest.mark.parametrize("name", sorted(WORKLOAD_WINDOWS))
def test_context_corners_are_local_exactly_at_the_primitives(name, field, monkeypatch):
    # End(T), its stable quotient and the companion algebra of the
    # tilting audit, each lifted under a recording of every corner split
    calls = count_calls(monkeypatch, algebra, "_split_corner")
    n, _, extra = CONTEXTS[name]
    ctx = _context(n, field, extra)
    built = []
    original = spherical._tagged_generator

    def recording(blocks):
        out = original(blocks)
        built.append(out[1])
        return out

    monkeypatch.setattr(spherical, "_tagged_generator", recording)
    tilting_audit(syz_audit(ctx, WORKLOAD_WINDOWS[name]))
    (companion,) = built
    splits = []
    for lam in (ctx.endo, ctx.stable_endo, companion):
        es = lift_idempotents(lam)
        splits.append(check_corners(lam, es, calls))
        assert es == unit_started_lift(lam)
    # the block of A in End(T) holds one primitive per vertex
    assert ctx.e_proj in splits[0]


@pytest.mark.parametrize("field", [QQ, GF])
def test_the_zero_algebra_has_no_primitive_idempotents(field):
    zero = Algebra(field, [], [])
    assert lift_idempotents(zero) == [] == unit_started_lift(zero)
    # T = A ⊕ P, P projective, has the zero stable quotient
    for kind in ("projective", "regular"):
        con = _context(3, field, kind).stable_endo
        assert con.dim == 0 and lift_idempotents(con) == []


def test_a_decomposable_summand_refines_into_primitives():
    ctx = _context(*CONTEXTS["decomposable"])
    lam = ctx.endo
    copy = ctx.e_copies[0][0]
    es = lift_idempotents(lam)
    under = [e for e in es if lam.mul_vec(copy, e) == e]
    assert len(es) == 5 and len(under) == 2
    assert copy not in es and not _is_primitive(lam, copy)
    dense = [vectors.dense(lam.field, e, lam.dim) for e in under]
    assert vectors.pairs(lam.field, [x + y for x, y in zip(*dense)]) == copy


def test_a_projective_summand_stays_one_primitive():
    ctx = _context(*CONTEXTS["projective"])
    lam = ctx.endo
    es = lift_idempotents(lam)
    assert len(es) == 4
    assert ctx.e_copies[0][0] in es
    assert len(_proj_type_primitives(ctx)) == 3
