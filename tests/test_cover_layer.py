"""The cover layer against the routes of `cover_reference`.

`projective_cover`, `module_radical`, `submodule`, `quotient`,
`Module.action_of` and `Algebra.mul_vec` read action rows and combine
images once; the reference builds 1×d products and sums matrices term
by term.  Over the test algebras, over Q, GF(7) and GF(32003), and on
regular, coregular, simple, radical, direct-sum, changed-basis and
cover-kernel modules, both must give identical matrices.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import cover_reference as ref
from vectors import dense, pairs
from sphertwist.errors import NotASubmodule
from sphertwist.exactlin import QQ, Matrix, PrimeField
from sphertwist.modules import (
    Module,
    _idempotent_piece,
    direct_sum,
    kernel_of,
    module_radical,
    projective_cover,
    quotient,
    simple_modules,
    socle,
    submodule,
)

from fixture_algebras import (
    change_of_basis,
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
    """(algebra, modules): regular, coregular, the simples, the radicals
    of the regular and coregular modules, two direct sums, the regular
    module and a sum in a changed basis, and the kernels of the covers
    of all of these."""
    key = (name, field)
    if key not in _POOLS:
        a = ALGEBRAS[name](field)
        reg, co = Module.regular(a), Module.coregular(a)
        simples = simple_modules(a)
        rads = [submodule(m, module_radical(m), check=False)[0] for m in (reg, co)]
        pool = [reg, co] + simples + rads
        pool.append(direct_sum([simples[0], reg])[0])
        pool.append(direct_sum([simples[-1], co, simples[0]])[0])
        pool += [change_of_basis(reg), change_of_basis(pool[-1])]
        pool += [kernel_of(projective_cover(m)[1])[0] for m in list(pool)]
        _POOLS[key] = (a, [m for m in pool if m.dim])
    return _POOLS[key]


def draw_module(data):
    name = data.draw(st.sampled_from(sorted(ALGEBRAS)))
    field = data.draw(st.sampled_from(FIELDS))
    a, pool = module_pool(name, field)
    return a, data.draw(st.sampled_from(pool))


def coefficient_vectors(field, n):
    """Vectors of length n, zero-heavy, with fractions over Q and, over
    F_p, entries that are unreduced multiples of p or off by one."""
    p = field.characteristic
    if p:
        entries = st.sampled_from([0, 0, 0, 1, 2, p - 1, p, 2 * p, -p, p + 1, 3 * p - 2])
    else:
        entries = st.sampled_from(
            [Fraction(0)] * 3 + [Fraction(1), Fraction(-2), Fraction(1, 3), Fraction(5, 11)]
        )
    return st.lists(entries, min_size=n, max_size=n)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_projective_cover_matches_reference(data):
    _, m = draw_module(data)
    p, epi = projective_cover(m)
    p_ref, epi_ref, idems_ref = ref.projective_cover(m)
    assert p.dim == p_ref.dim
    assert p.action == p_ref.action
    assert epi.matrix == epi_ref.matrix
    assert p.covered.idempotents == idems_ref
    assert [_idempotent_piece(m.algebra, e)[0].action for e in p.covered.idempotents] == [
        ref.submodule(Module.regular(m.algebra), [
            ref.mul_vec(m.algebra, dense(m.algebra.field, e, m.algebra.dim),
                        ref.m_basis_row(m.algebra.field, m.algebra.dim, i))
            for i in range(m.algebra.dim)
        ], check=False)[0].action
        for e in idems_ref
    ]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_radical_sub_and_quotient_match_reference(data):
    _, m = draw_module(data)
    rad = module_radical(m)
    assert rad == ref.module_radical(m)
    for rows in (rad, socle(m)):
        sub, incl = submodule(m, rows)
        sub_ref, incl_ref = ref.submodule(m, rows)
        assert sub.action == sub_ref.action
        assert incl.matrix == incl_ref.matrix
        q, proj = quotient(m, rows)
        q_ref, proj_ref = ref.quotient(m, rows)
        assert q.action == q_ref.action
        assert proj.matrix == proj_ref.matrix


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_action_of_and_mul_vec_match_reference(data):
    a, m = draw_module(data)
    f = a.field
    avec = data.draw(coefficient_vectors(f, a.dim))
    assert m.action_of(pairs(f, avec)) == ref.action_of(m, avec)
    x = data.draw(coefficient_vectors(f, a.dim))
    assert a.mul_vec(pairs(f, x), pairs(f, avec)) == pairs(f, ref.mul_vec(a, x, avec))
    v = data.draw(coefficient_vectors(f, m.dim))
    assert m.apply(pairs(f, v), pairs(f, avec)) == pairs(
        f, Matrix(f, [v], m.dim).mul(ref.action_of(m, avec)).rows[0]
    )


@pytest.mark.parametrize("field", FIELDS)
def test_mul_vec_reads_multiples_of_p_as_zero(field):
    # x = 1 + x_coord·b1 in k[x]/x²; over F_p the coordinates p and -p
    # are zero, so (p·1 + 1·x)(1 + p·x) = x
    a = dual_numbers(field)
    p = field.characteristic

    def mul(x, y):
        return dense(field, a.mul_vec(pairs(field, x), pairs(field, y)), a.dim)

    if p:
        assert mul([p, 1], [1, -p]) == [0, 1]
        assert mul([2 * p, 0], [1, 1]) == [0, 0]
    else:
        assert mul([Fraction(1, 2), 1], [2, 0]) == [1, 2]


@pytest.mark.parametrize("field", FIELDS)
def test_submodule_and_quotient_still_refuse_an_unstable_subspace(field):
    # the span of the unit of k[x]/x² is not stable: 1·x = x leaves it
    reg = Module.regular(dual_numbers(field))
    one = [pairs(field, [1, 0])]
    with pytest.raises(NotASubmodule):
        submodule(reg, one)
    with pytest.raises(NotASubmodule):
        quotient(reg, one)
    # without the check the subspace is trusted
    assert submodule(reg, one, check=False)[0].dim == 1
