"""The balanced tensor, the quotient by a span, and the Kronecker-free
Tor and equivariance routes against `balanced_tensor_reference`.

`balanced_tensor` feeds the relations of the algebra generators only,
sparsely; the reference writes one dense row per basis element.  Both
span the same subspace, so the canonical rows, the kept columns and
every projection must be identical, and `SpanQuotient` must project
exactly as the old dense reductions did.  `tor_dims` reads Tor by
duality as Ext into the dual of the other argument; the reference
multiplies the Kronecker product of each differential by a projection
onto the balanced quotient.  The tilting audit's
equivariance check reads μ in two blockings; the reference forms
(A ⊗ 1)·μ and (1 ⊗ B)·μ.  The modules are drawn over the test algebras
and their opposites, over Q, GF(7) and GF(32003), and include modules in
a changed basis, whose action entries are off 0/1.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

import balanced_tensor_reference as ref
from sphertwist.algebra import opposite
from sphertwist.exactlin import QQ, Matrix, PrimeField, SpanBuilder, SpanQuotient
from sphertwist.homology import tor_dims, tor_from_resolution
from sphertwist.modules import Module, balanced_tensor, direct_sum, simple_modules
from sphertwist.resolutions import minimal_resolution
from sphertwist.spherical import _pairing_blocks

import vectors
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


def _pool(a):
    """Right modules over a: regular, coregular, the simples, and the
    regular module and a sum in a changed basis."""
    reg, co = Module.regular(a), Module.coregular(a)
    simples = simple_modules(a)
    pool = [reg, co] + simples
    pool += [change_of_basis(reg), change_of_basis(direct_sum([simples[0], co])[0])]
    return pool


def pools(name, field):
    """(algebra, right modules over it, right modules over its opposite)."""
    key = (name, field)
    if key not in _POOLS:
        a = ALGEBRAS[name](field)
        _POOLS[key] = (a, _pool(a), _pool(opposite(a)))
    return _POOLS[key]


def draw_pair(data):
    name = data.draw(st.sampled_from(sorted(ALGEBRAS)))
    field = data.draw(st.sampled_from(FIELDS))
    a, rights, lefts = pools(name, field)
    return a, data.draw(st.sampled_from(rights)), data.draw(st.sampled_from(lefts))


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


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_balanced_tensor_matches_the_dense_builders(data):
    a, m, n = draw_pair(data)
    f = a.field
    width = m.dim * n.dim
    rows = ref.balancing_rows(a, m, n)
    assert rows == ref.tensor_balancing_rows(a, m.action, n.action, m.dim, n.dim)
    span = SpanBuilder(f, width)
    for r in rows:
        span.add(vectors.pairs(f, r))
    tensor = balanced_tensor(m, n)
    assert tensor.span.rows == span.rows
    flat = ref.FlatQuotient(f, width, rows)
    assert tensor.kept == flat.kept
    assert tensor.dim == flat.dim
    proj = ref.reduction_data(f, rows, width)
    for k in range(width):
        unit = [f.zero()] * width
        unit[k] = f.one()
        got = tensor.project(vectors.pairs(f, unit))
        assert vectors.dense(f, got, tensor.dim) == proj.rows[k]
        assert tensor.project([(k, f.one())]) == proj.pairs[k]
    v = data.draw(coefficient_vectors(f, width))
    got = tensor.project(vectors.pairs(f, v))
    assert vectors.dense(f, got, tensor.dim) == flat.project(v)
    assert got == vectors.pairs(f, flat.project(v))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_span_quotient_matches_the_flat_quotient(data):
    field = data.draw(st.sampled_from(FIELDS))
    width = data.draw(st.integers(0, 6))
    rows = data.draw(st.lists(coefficient_vectors(field, width), max_size=5))
    span = SpanBuilder(field, width)
    for r in rows:
        span.add(vectors.pairs(field, r))
    q = SpanQuotient(span)
    flat = ref.FlatQuotient(field, width, rows)
    assert q.kept == flat.kept
    assert q.dim == flat.dim
    v = data.draw(coefficient_vectors(field, width))
    got = q.project(vectors.pairs(field, v))
    assert vectors.dense(field, got, q.dim) == flat.project(v)
    assert got == vectors.pairs(field, flat.project(v))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_tor_dims_match_the_kronecker_route(data):
    a, m, n = draw_pair(data)
    assert tor_dims(m, n, 3) == ref.tor_dims(a, m, n, 3)
    assert tor_from_resolution(minimal_resolution(n, 3), m, 3) == ref.tor_dims(
        a, m, n, 3, resolve_second=True)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_pairing_blocks_give_the_kronecker_equivariance_products(data):
    # the two blockings of μ, multiplied block by block, are the rows of
    # (A ⊗ 1)·μ and (1 ⊗ B)·μ
    a, m, n = draw_pair(data)
    f = a.field
    ni, nd = m.dim, n.dim
    g = data.draw(st.integers(0, a.dim - 1))
    act_first, act_second = m.action[g], n.action[g]
    width = data.draw(st.integers(1, 4))
    mu_rows = [
        [f.coerce(c) for c in data.draw(coefficient_vectors(f, width))]
        for _ in range(ni * nd)
    ]
    by_first, by_second = _pairing_blocks(mu_rows, ni, nd)
    left = [None] * (ni * nd)
    for j, block in enumerate(by_second):
        for i, row in enumerate(act_first.mul(Matrix(f, block, width)).rows):
            left[i * nd + j] = row
    right = [None] * (ni * nd)
    for i, block in enumerate(by_first):
        for j, row in enumerate(act_second.mul(Matrix(f, block, width)).rows):
            right[i * nd + j] = row
    left_ref, right_ref = ref.equivariance_products(
        act_first, act_second, Matrix(f, mu_rows, width))
    assert left == left_ref.rows
    assert right == right_ref.rows
