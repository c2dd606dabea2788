"""Basis elements that act by zero cost nothing.

A module records in ``acting`` the basis elements whose matrices are
nonzero, and the kernels that loop over the basis of A skip the rest:
`hom_space` relates and transposes only the generators that act on one
of its two modules, `_add_relation_rows` (shared with `balanced_tensor`)
adds no row whose two source rows are both empty, and the constructors
give every element that acts by zero one shared zero matrix.

- Over the benchmark's three workloads at seed 0 (`workload_contexts`),
  set-up and solve send no zero row into the span of either caller,
  `_add_relation_rows` forms a relation only for the pairs of rows not
  both empty, and `hom_space` transposes N_g exactly for the generators
  g with M_g or N_g nonzero, read off the matrices themselves.  Each
  fails on a solver that relates every pair of every generator.
- No module built there holds two distinct zero action matrices.
- The skips change no span: on modules over the 3-cycle and the
  two-vertex quiver in the sheared bases of `fixture_algebras`, whose
  dense actions leave few elements acting by zero, `hom_space` and
  `balanced_tensor` give exactly the matrices and rows of the dense
  references.
- `generator_indices` generates: the unit and the products of the
  listed basis elements span A, by repeated right multiplication and
  rank, on every fixture and workload algebra.  The dense hom oracle
  reads the same list, so it could not see a list that falls short.
"""

import sys

import pytest

import balanced_tensor_reference as tensor_ref
import hom_reference as ref
from sphertwist import modules
from sphertwist.algebra import opposite
from sphertwist.exactlin import QQ, Matrix, PrimeField, SpanBuilder, rank
from sphertwist.modules import (
    Module,
    balanced_tensor,
    direct_sum,
    generator_indices,
    hom_space,
    kernel_of,
    module_radical,
    projective_cover,
    quotient,
    simple_modules,
    submodule,
)

import vectors
from fixture_algebras import (
    change_of_basis,
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
from patching import patch_everywhere
from test_yoneda_reads import scaled_shear, sheared
from workload_contexts import WORKLOADS

GF = PrimeField(32003)


# ---------------------------------------------------------------------------
# what the workloads send into the relation kernel


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_no_zero_relation_row_and_no_idle_transpose(name, monkeypatch):
    setup, solve, field = WORKLOADS[name]
    rows = {"hom_space": [], "balanced_tensor": []}
    relate = modules._add_relation_rows

    class Watched:
        def __init__(self, span, into):
            self.span, self.into = span, into

        def add(self, row):
            self.into.append(row)
            return self.span.add(row)

    # the relations formed: one per pair (r, c) with row r of L or row
    # c of R nonempty, counted by the `_canonical` calls they make
    formed = []
    canonical = modules._canonical

    def forming(acc, p):
        formed[-1][0] += 1
        return canonical(acc, p)

    def watching(span, left, right, p):
        caller = sys._getframe(1).f_code.co_name
        live = sum(1 for l_row in left for r_row in right if l_row or r_row)
        formed.append([0, live])
        return relate(Watched(span, rows[caller]), left, right, p)

    # the transposes of N's own action matrices inside each hom_space(m, n)
    open_solve, solves = [], []
    transpose = Matrix.transpose

    def counting(mat):
        if open_solve and any(mat is act for act in open_solve[-1][1].action):
            open_solve[-1][2][0] += 1
        return transpose(mat)

    def solving(m, n, _hom_space=modules.hom_space):
        open_solve.append((m, n, [0]))
        try:
            return _hom_space(m, n)
        finally:
            solves.append(open_solve.pop())

    monkeypatch.setattr(modules, "_add_relation_rows", watching)
    monkeypatch.setattr(modules, "_canonical", forming)
    monkeypatch.setattr(Matrix, "transpose", counting)
    patch_everywhere(monkeypatch, modules, "hom_space", solving)
    solve(setup(field))

    assert rows["hom_space"] and all(rows["hom_space"])
    assert all(rows["balanced_tensor"])
    assert bool(rows["balanced_tensor"]) == (name == "tilting_cycle3")
    assert all(count == live for count, live in formed)
    assert solves
    idle = 0
    for m, n, (transposed,) in solves:
        gens = generator_indices(m.algebra)
        live = [g for g in gens if not (m.action[g].is_zero() and n.action[g].is_zero())]
        assert transposed == (len(live) if m.dim and n.dim else 0), (m, n)
        idle += len(gens) - len(live)
    # the twist workload solves hom spaces only in set-up, Hom(S, T) for
    # its simples S, and every generator acts on the A_A inside T
    if name != "twist_cycle3_gf":
        assert idle > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_no_module_holds_two_zero_action_matrices(name, monkeypatch):
    setup, solve, field = WORKLOADS[name]
    built = []
    init = Module.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(Module, "__init__", recording)
    solve(setup(field))
    assert len(built) > 50
    for m in built:
        zeros = {id(mat) for mat in m.action if mat.is_zero()}
        assert len(zeros) <= 1, m
        assert m.acting == {i for i, mat in enumerate(m.action) if not mat.is_zero()}


# ---------------------------------------------------------------------------
# the skips change no span


def zero_acting_pool(a):
    """Modules over a: regular, coregular, the simples, the radical and
    top of A_A, the kernel of the cover of the first simple plus the
    last, a sum and the regular module in a changed basis."""
    reg, co = Module.regular(a), Module.coregular(a)
    sims = simple_modules(a)
    rad = submodule(reg, module_radical(reg), check=False)[0]
    top = quotient(reg, module_radical(reg))[0]
    cover_kernel = kernel_of(projective_cover(direct_sum([sims[0], sims[-1]])[0])[1])[0]
    pool = [reg, co, rad, top, cover_kernel, change_of_basis(reg)] + sims
    pool.append(direct_sum([sims[0], rad])[0])
    return [m for m in pool if m.dim]


SHEARED = {
    "sheared_cycle3": lambda f: sheared(cyclic_nakayama(3, f)),
    "scaled_cycle3": lambda f: scaled_shear(cyclic_nakayama(3, f)),
    "sheared_arrow": lambda f: sheared(two_vertex_arrow(f)),
}


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["QQ", "GF7"])
@pytest.mark.parametrize("name", sorted(SHEARED))
def test_skipping_kernels_match_the_dense_references_in_sheared_bases(name, field):
    a = SHEARED[name](field)
    rights, lefts = zero_acting_pool(a), zero_acting_pool(opposite(a))
    assert any(len(m.acting) < a.dim for m in rights)
    for m in rights:
        for n in rights:
            assert ([h.matrix for h in hom_space(m, n)]
                    == [h.matrix for h in ref.hom_space(m, n)])
        for n in lefts:
            span = SpanBuilder(field, m.dim * n.dim)
            for row in tensor_ref.balancing_rows(a, m, n):
                span.add(vectors.pairs(field, row))
            assert balanced_tensor(m, n).span.rows == span.rows


# ---------------------------------------------------------------------------
# generator_indices generates


def generated_dim(a, gens):
    """dim of the span of the unit and every product of the basis
    elements ``gens``: a word g₁⋯gₖ is 1·g₁⋯gₖ, so the span of the unit
    closed under right multiplication by each g holds them all; a
    product joins when it raises the rank."""
    f = a.field
    found = [a.unit]
    layer = [a.unit]
    while layer:
        grown = []
        for x in layer:
            for g in gens:
                y = a.mul_vec(x, a.basis_vector(g))
                if rank(Matrix.from_pairs(f, found + [y], a.dim)) > len(found):
                    found.append(y)
                    grown.append(y)
        layer = grown
    return len(found)


FIXTURES = {
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
    **SHEARED,
}


@pytest.mark.parametrize("field", [QQ, GF], ids=["QQ", "GF32003"])
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_generator_indices_generate_every_fixture_algebra(name, field):
    for a in (FIXTURES[name](field), opposite(FIXTURES[name](field))):
        gens = generator_indices(a)
        assert gens == sorted(set(gens)) and all(0 <= g < a.dim for g in gens)
        assert generated_dim(a, gens) == a.dim


def test_generator_indices_generate_the_gaussian_field():
    a = gaussian_field()
    assert generated_dim(a, generator_indices(a)) == a.dim


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_indices_generate_every_workload_algebra(name):
    setup, _, field = WORKLOADS[name]
    ctx = setup(field)
    algebras = [ctx.ambient, ctx.endo, ctx.stable_endo, opposite(ctx.ambient)]
    for a in algebras:
        assert generated_dim(a, generator_indices(a)) == a.dim
    # picked greedily in basis order, the list is far from minimal on
    # End(T): all but one of its basis elements
    assert len(generator_indices(ctx.endo)) == ctx.endo.dim - 1
