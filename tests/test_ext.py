"""Yoneda Ext against the hom-space route.

`homology.ext_dims` reads Hom(Pᵢ, N) ≅ ⊕ₖ N·eₖ off the cover recorded
for each resolution term; `ext_reference` solves one `hom_space` system
per term instead.  On modules over the test algebras over Q, GF(7) and
GF(32003) — simples, regular and coregular modules, radicals, kernels
of projective covers, and copies in a changed basis T·Mᵢ·T⁻¹ with
entries off 0/1 — the two must give identical dimension lists, and the
Yoneda basis of every term's hom space must consist of module maps
spanning a space of the dimension `hom_space` finds.
"""

import pytest
from hypothesis import given, settings, strategies as st

import ext_reference as ref
from exactlin_reference import solve_matrix
from sphertwist.errors import CapExceeded, SphertwistError
from sphertwist.exactlin import QQ, Matrix, PrimeField, rank
from sphertwist.homology import _yoneda_blocks, ext_dims, ext_from_resolution
from sphertwist.modules import (
    Module,
    ModuleHom,
    _idempotent_piece,
    hom_space,
    kernel_of,
    module_radical,
    projective_cover,
    simple_modules,
    submodule,
)
from sphertwist.resolutions import minimal_resolution

from fixture_algebras import (
    cyclic_nakayama,
    dual_numbers,
    matrix_units_2,
    nakayama3_hand_table,
    product_field_pair,
    shear,
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


def changed_basis(m):
    """m in the basis given by the rows of a unitriangular T: x ↦ x·T⁻¹
    takes old coordinates to new ones, so each action becomes T·Mᵢ·T⁻¹."""
    f = m.algebra.field
    t = Matrix(f, [[f.coerce(c) for c in row] for row in shear(m.dim)], m.dim)
    t_inv = solve_matrix(t, Matrix.identity(f, m.dim))
    return Module(m.algebra, m.dim, [t.mul(a).mul(t_inv) for a in m.action])


def module_pool(name, field):
    """Modules over one test algebra: simples, regular, coregular, the
    radical of the regular module, the kernel of the cover of each
    simple and of the coregular module, and changed-basis copies."""
    key = (name, field)
    if key not in _POOLS:
        a = ALGEBRAS[name](field)
        reg, co = Module.regular(a), Module.coregular(a)
        simples = simple_modules(a)
        rad, _ = submodule(reg, module_radical(reg), check=False)
        kernels = [kernel_of(projective_cover(m)[1])[0] for m in simples + [co]]
        pool = [m for m in simples + [reg, co, rad] + kernels if m.dim]
        pool += [changed_basis(m) for m in (reg, co, rad) if m.dim > 1]
        _POOLS[key] = pool
    return _POOLS[key]


def yoneda_homs(term, cover, n):
    """The Yoneda basis of Hom(term, n) as module maps: the basis vector
    v of N·eₖ sends a row w of the k-th piece eₖ·A to v·w and every
    other piece to zero."""
    a, f = term.algebra, term.algebra.field
    incls = [_idempotent_piece(a, e)[1].matrix for e in cover]
    homs = []
    at = 0
    for incl, (rows, _) in zip(incls, _yoneda_blocks(n, cover)):
        for v in rows.pairs:
            mat = [[] for _ in range(term.dim)]
            for r, w in enumerate(incl.pairs):
                mat[at + r] = n.apply(v, w)
            homs.append(ModuleHom(term, n, Matrix.from_pairs(f, mat, n.dim)))  # validates
        at += incl.nrows
    return homs


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_yoneda_ext_matches_the_hom_space_route(data):
    name = data.draw(st.sampled_from(sorted(ALGEBRAS)))
    field = data.draw(st.sampled_from(FIELDS))
    pool = module_pool(name, field)
    m = data.draw(st.sampled_from(pool))
    n = data.draw(st.sampled_from(pool))
    count = data.draw(st.integers(1, 4))
    a = m.algebra
    assert ext_dims(m, n, count) == ref.ext_dims(a, m, n, count)
    try:
        res = minimal_resolution(m, cap=count)
    except CapExceeded as exc:
        res = exc.witness
    for term in res.terms:
        homs = yoneda_homs(term, term.covered.idempotents, n)
        assert len(homs) == len(hom_space(term, n))
        flats = [[e for row in h.matrix.rows for e in row] for h in homs]
        if flats:
            assert rank(Matrix(field, flats)) == len(homs)


def test_ext_from_resolution_refuses_a_short_truncated_window():
    a = dual_numbers()
    s = simple_modules(a)[0]
    with pytest.raises(CapExceeded) as exc:
        minimal_resolution(s, cap=2)
    res = exc.value.witness
    assert ext_from_resolution(res, s, 2) == [1, 1]
    with pytest.raises(SphertwistError):
        ext_from_resolution(res, s, 3)
    with pytest.raises(SphertwistError):
        ext_from_resolution(res, Module.regular(cyclic_nakayama(2)), 1)
