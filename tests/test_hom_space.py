"""The sparse hom solver and `HomBasis` coordinates.

`hom_space` is checked against the dense Kronecker route of
`hom_reference` on modules built from the test algebras over Q, GF(7)
and GF(32003): regular and coregular modules, simples, radicals, tops
and direct sums.  The bases must be identical matrices, and every
returned hom must pass the full intertwining check on every algebra
basis element, which `hom_space` itself only runs on generators.
`HomBasis` is checked against `exactlin.solve` and on maps outside the
span.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import hom_reference as ref
from sphertwist.algebra import from_structure_constants
from sphertwist.errors import ShapeError, SphertwistError
from sphertwist.exactlin import QQ, Matrix, PrimeField, solve
from sphertwist.modules import (
    HomBasis,
    Module,
    ModuleHom,
    direct_sum,
    hom_space,
    module_radical,
    quotient,
    simple_modules,
    submodule,
)

import vectors
from fixture_algebras import (
    cyclic_nakayama,
    dual_numbers,
    matrix_units_2,
    nakayama3_hand_table,
    product_field_pair,
    two_vertex_arrow,
)

FIELDS = [QQ, PrimeField(7), PrimeField(32003)]
ALGEBRAS = {
    "dual_numbers": dual_numbers,
    "cyclic2": lambda f: cyclic_nakayama(2, f),
    "cyclic3": lambda f: cyclic_nakayama(3, f),
    "two_vertex_arrow": two_vertex_arrow,
    "product_field_pair": product_field_pair,
    "matrix_units_2": matrix_units_2,
    "nakayama3_hand_table": nakayama3_hand_table,
}

_POOLS = {}


def module_pool(name, field):
    """Modules over one test algebra: regular, coregular, the simples,
    rad and top of the regular module, and two direct sums."""
    key = (name, field)
    if key not in _POOLS:
        a = ALGEBRAS[name](field)
        reg, co = Module.regular(a), Module.coregular(a)
        simples = simple_modules(a)
        rad, _ = submodule(reg, module_radical(reg), check=False)
        top, _ = quotient(reg, module_radical(reg))
        pool = [reg, co, rad, top] + simples
        pool.append(direct_sum([simples[0], reg])[0])
        pool.append(direct_sum([simples[-1], co, simples[0]])[0])
        _POOLS[key] = [m for m in pool if m.dim]
    return _POOLS[key]


def draw_pair(data):
    name = data.draw(st.sampled_from(sorted(ALGEBRAS)))
    field = data.draw(st.sampled_from(FIELDS))
    pool = module_pool(name, field)
    return field, data.draw(st.sampled_from(pool)), data.draw(st.sampled_from(pool))


def flat(mat):
    return [e for row in mat.rows for e in row]


# ---------------------------------------------------------------------------
# the sparse solver against the dense reference


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_hom_space_matches_dense_reference(data):
    _, m, n = draw_pair(data)
    homs = hom_space(m, n)
    assert [h.matrix for h in homs] == [h.matrix for h in ref.hom_space(m, n)]
    for h in homs:
        h._validate()  # every algebra basis element, not just generators


def test_hom_space_dims_by_hand():
    # k[x]/x²: End(A) = A (dim 2); S = k maps into the socle of A only,
    # A maps onto S; End(S) = k
    a = dual_numbers()
    reg, s = Module.regular(a), simple_modules(a)[0]
    assert [len(hom_space(x, y)) for x, y in
            [(reg, reg), (s, reg), (reg, s), (s, s)]] == [2, 1, 1, 1]


def test_hom_space_over_the_ground_field_is_every_matrix():
    # dim 1: no generators beyond the unit, so every 2×3 matrix is a map
    ground = from_structure_constants(QQ, [[[1]]], [1])
    v2 = Module(ground, 2, [Matrix.identity(QQ, 2)])
    v3 = Module(ground, 3, [Matrix.identity(QQ, 3)])
    homs = hom_space(v2, v3)
    assert len(homs) == 6
    assert [flat(h.matrix) for h in homs] == [
        [1 if i == j else 0 for i in range(6)] for j in range(6)
    ]


@pytest.mark.parametrize("field", FIELDS)
def test_module_hom_rejects_a_non_intertwiner(field):
    # diag(1, 0) does not commute with the action [[0, 1], [0, 0]] of x
    reg = Module.regular(dual_numbers(field))
    diag = Matrix(field, [[field.one(), field.zero()], [field.zero(), field.zero()]])
    with pytest.raises(SphertwistError, match="intertwine basis element 1"):
        ModuleHom(reg, reg, diag)


# ---------------------------------------------------------------------------
# HomBasis


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_hom_basis_coords_match_solve(data):
    field, m, n = draw_pair(data)
    homs = hom_space(m, n)
    basis = HomBasis(homs)
    coeffs = [
        field.coerce(c)
        for c in data.draw(st.lists(st.sampled_from([0, 0, 1, -1, 2, 5, Fraction(1, 3)]),
                                    min_size=len(homs), max_size=len(homs)))
    ]
    mat = Matrix.zero(field, m.dim, n.dim)
    for c, h in zip(coeffs, homs):
        mat = mat.add(h.matrix.scale(c))
    x = basis.coords(mat)
    assert vectors.dense(field, x, len(homs)) == coeffs
    if homs:
        flat_t = Matrix(field, [flat(h.matrix) for h in homs], m.dim * n.dim).transpose()
        assert x == solve(flat_t, vectors.pairs(field, flat(mat)))


def test_hom_basis_rejects_a_map_outside_the_span():
    # End of k[x]/x² is {a·I + b·J} with J = [[0, 1], [0, 0]] the action
    # of x; its canonical basis is I, J.  diag(1, 0) does not commute
    # with J
    a = dual_numbers()
    reg = Module.regular(a)
    basis = HomBasis(hom_space(reg, reg))
    assert basis.coords(Matrix(QQ, [[3, 5], [0, 3]])) == vectors.pairs(QQ, [3, 5])
    with pytest.raises(SphertwistError, match="escapes"):
        basis.coords(Matrix(QQ, [[1, 0], [0, 0]]))
    with pytest.raises(ShapeError):
        basis.coords(Matrix.identity(QQ, 3))


def test_hom_basis_rejects_a_dependent_list():
    a = dual_numbers()
    reg = Module.regular(a)
    h = hom_space(reg, reg)[0]
    twice = ModuleHom(reg, reg, h.matrix.scale(2), validate=False)
    with pytest.raises(SphertwistError, match="dependent"):
        HomBasis([h, twice])


def test_empty_hom_basis_reads_only_the_zero_map():
    basis = HomBasis([])
    assert basis.coords(Matrix.zero(QQ, 2, 3)) == []
    with pytest.raises(SphertwistError):
        basis.coords(Matrix(QQ, [[0, 1]]))
