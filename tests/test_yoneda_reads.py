"""Which-simple questions by the Yoneda read M·e ≠ 0 (`modules.meets`).

Hom_A(e·A, M) ≅ M·e for an idempotent e, so the simple top of e·A is a
composition factor of M exactly when M·e ≠ 0.  `simple_modules`,
`nakayama_permutation` and `_summand_simple_positions` read that instead
of solving hom systems.  The tests compare the reads with `hom_space` on
every split fixture, compare two of the readers with the hom-scan bodies
of `simple_reference` there (`test_spherical` compares all three on its
contexts), pin σ by hand on the truncated cycles and on a non-basic
algebra, and count the `hom_space` calls the readers make.
"""

import pytest

import simple_reference
import workload_contexts
from sphertwist import frobenius, modules, spherical
from sphertwist.algebra import from_structure_constants, lift_idempotents
from sphertwist.exactlin import QQ, Matrix, PrimeField
from sphertwist.frobenius import build_context, is_self_injective, nakayama_permutation
from sphertwist.modules import Module, _idempotent_piece, hom_space, meets, simple_modules
from sphertwist.spherical import syz_audit

from fixture_algebras import (
    cyclic_nakayama,
    dual_numbers,
    dual_numbers_times_field,
    linear_path,
    matrix_units_2,
    nakayama3_hand_table,
    product_field_pair,
    rebased,
    shear,
    truncated_cycle,
    two_vertex_arrow,
)
from patching import patch_everywhere
from workload_contexts import WORKLOADS

GF = PrimeField(32003)
FIELDS = [QQ, GF]


def sheared(a):
    """a in the basis of the rows of `shear`: its lifted idempotents are
    no longer 0/1 vectors."""
    return rebased(a, shear(a.dim))[0]


def scaled_shear(a):
    """a in the basis of `shear` with a 2 on one diagonal entry, so that
    some structure constants are not integral over Q."""
    rows = shear(a.dim)
    rows[a.dim // 2][a.dim // 2] = 2
    return rebased(a, rows)[0]


SPLIT_FIXTURES = {
    "dual_numbers": dual_numbers,
    "cyclic2": lambda f: cyclic_nakayama(2, f),
    "cyclic3": lambda f: cyclic_nakayama(3, f),
    "cyclic4": lambda f: cyclic_nakayama(4, f),
    "truncated_cycle3_3": lambda f: truncated_cycle(3, 3, f),
    "two_vertex_arrow": two_vertex_arrow,
    "linear_path3": lambda f: linear_path(3, f),
    "product_field_pair": product_field_pair,
    "dual_numbers_times_field": dual_numbers_times_field,
    "matrix_units_2": matrix_units_2,
    "nakayama3_hand_table": nakayama3_hand_table,
    "cyclic3_shear": lambda f: sheared(cyclic_nakayama(3, f)),
    "linear_path3_shear": lambda f: sheared(linear_path(3, f)),
    "matrix_units_2_shear": lambda f: sheared(matrix_units_2(f)),
    "cyclic3_rebased": lambda f: scaled_shear(cyclic_nakayama(3, f)),
}


# ---------------------------------------------------------------------------
# the read against hom_space


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "GF32003"])
@pytest.mark.parametrize("name", sorted(SPLIT_FIXTURES))
def test_the_read_agrees_with_hom_space(name, field):
    a = SPLIT_FIXTURES[name](field)
    simples = simple_modules(a)
    for e in lift_idempotents(a):
        piece = _idempotent_piece(a, e)[0]
        for s in simples:
            assert meets(s, e) == bool(hom_space(piece, s))
    for s in simples:
        for t in simples:
            assert meets(t, s.tag) == bool(hom_space(s, t))
            assert meets(t, s.tag) == (s is t)


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "GF32003"])
@pytest.mark.parametrize("name", sorted(SPLIT_FIXTURES))
def test_simples_match_the_hom_scan_dedupe(name, field):
    a = SPLIT_FIXTURES[name](field)
    ref = simple_reference.simple_reps(a)
    new = simple_modules(a)
    assert [s.tag for s in new] == [s.tag for s in ref]
    assert [s.action for s in new] == [s.action for s in ref]


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "GF32003"])
@pytest.mark.parametrize("name", sorted(SPLIT_FIXTURES))
def test_sigma_matches_the_hom_scan(name, field):
    a = SPLIT_FIXTURES[name](field)
    if not is_self_injective(a):
        return
    assert nakayama_permutation(a) == simple_reference.nakayama_permutation(a)


# ---------------------------------------------------------------------------
# σ by hand


def _vertex(s, idempotents):
    """The vertex v of a one-dimensional simple: the one eᵥ acting as 1."""
    one = Matrix.identity(s.algebra.field, 1)
    hits = [v for v, e in enumerate(idempotents) if s.action_of(e) == one]
    assert len(hits) == 1
    return hits[0]


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "GF32003"])
@pytest.mark.parametrize("basis", ["path", "shear"])
@pytest.mark.parametrize("length", [2, 3, 4])
@pytest.mark.parametrize("n", [3, 4])
def test_sigma_of_the_truncated_cycle_by_hand(n, length, basis, field):
    # the projective at v has the factors S_v, S_{v+1}, …, S_{v+L−1}
    # from top to socle, so σ(v) = v + L − 1 mod n
    path = truncated_cycle(n, length, field)
    vertices = [path.basis_vector(v) for v in range(n)]
    a = path
    if basis == "shear":
        a, change = rebased(path, shear(path.dim))
        vertices = [change.apply_to_row(e) for e in vertices]
    simples = simple_modules(a)
    sigma = nakayama_permutation(a)
    at = [_vertex(s, vertices) for s in simples]
    assert sorted(at) == list(range(n))
    assert [at[sigma[i]] for i in range(n)] == [(v + length - 1) % n for v in at]


# ---------------------------------------------------------------------------
# a non-basic algebra: M₂(k) ⊗ (the 3-cycle with rad² = 0)


def _dense_table(a):
    return [[[dict(v).get(k, 0) for k in range(a.dim)] for v in row] for row in a.table]


def tensor_product(a, b, field):
    """a ⊗ b from the Kronecker product of the two tables: the basis
    element aᵢ ⊗ bₚ sits at i·dim b + p, and
    (aᵢ ⊗ bₚ)·(aⱼ ⊗ b_q) = aᵢaⱼ ⊗ bₚb_q."""
    ta, tb = _dense_table(a), _dense_table(b)
    n, m = a.dim, b.dim
    mult = [
        [[ta[i][j][k] * tb[p][q][r] for k in range(n) for r in range(m)]
         for j in range(n) for q in range(m)]
        for i in range(n) for p in range(m)
    ]
    ua = [dict(a.unit).get(k, 0) for k in range(n)]
    ub = [dict(b.unit).get(k, 0) for k in range(m)]
    return from_structure_constants(field, mult, [x * y for x in ua for y in ub])


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "GF32003"])
def test_a_non_basic_cycle_reads_like_the_basic_one(field):
    a = tensor_product(matrix_units_2(QQ), nakayama3_hand_table(QQ), field)
    assert a.dim == 24
    assert len(lift_idempotents(a)) == 6
    simples = simple_modules(a)
    assert [s.dim for s in simples] == [2, 2, 2]
    assert nakayama_permutation(a) == (2, 0, 1)
    ctx = build_context(a, Module.regular(a), [(s, 1) for s in simples])
    r = syz_audit(ctx, 2)
    assert r.side1.verdict and r.side2.verdict
    assert r.side1.ext_profile == [[1, 0, 1]] * 3
    assert r.side2.tau == (2, 0, 1)
    basic = cyclic_nakayama(3, field)
    assert nakayama_permutation(basic) == (2, 0, 1)


# ---------------------------------------------------------------------------
# hom_space calls


READERS = [
    (modules, "simple_modules"),
    (frobenius, "nakayama_permutation"),
    (spherical, "_summand_simple_positions"),
]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_the_readers_make_no_hom_space_call(name, monkeypatch):
    """Every `hom_space` call of a workload's set-up and solve is counted
    with the number of readers open around it; none is inside one."""
    setup, solve, field = WORKLOADS[name]
    depth = [0]
    calls = []
    entered = {attr: 0 for _, attr in READERS}
    original = modules.hom_space

    def counting(*args):
        calls.append(depth[0])
        return original(*args)

    patch_everywhere(monkeypatch, modules, "hom_space", counting)
    for layer, attr in READERS:
        def reader(*args, _original=getattr(layer, attr), _attr=attr):
            entered[_attr] += 1
            depth[0] += 1
            try:
                return _original(*args)
            finally:
                depth[0] -= 1

        patch_everywhere(monkeypatch, layer, attr, reader)
        if attr == "simple_modules":
            monkeypatch.setattr(workload_contexts, attr, reader)

    ctx = setup(field)
    solve(ctx)
    if name == "ladder_cycle4":
        # 88 at the parent tree, when the readers scanned hom spaces
        assert len(calls) < 88
    # the twist workload reads no σ; ask for it on its context as well
    con = ctx.stable_endo
    if is_self_injective(con):
        frobenius.nakayama_permutation(con)
    frobenius.nakayama_permutation(ctx.ambient)
    spherical._summand_simple_positions(ctx)
    assert all(entered.values())
    assert not any(calls)
