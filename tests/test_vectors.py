"""The one vector form against the dense oracles, and its shape checks.

Every vector kernel of the package takes and returns a vector: sorted
(index, entry) pairs holding only nonzero entries, each over F_p reduced
into [1, p).  The differential test below feeds each kernel the vector of
a dense list and its oracle the dense list itself, over Q, GF(2), GF(7)
and GF(32003), with every F_p entry of the oracle's input given
unreduced as residue + k·p, empty vectors and a dim-0 algebra included:

- `Algebra.mul_vec` and `Module.action_of` against `cover_reference`;
- `Matrix.apply_to_row`, `SpanBuilder` and `solve` against
  `exactlin_reference`, and `SpanQuotient.project`, `Preimages.of` and
  `combine` against dense sums checked by the same oracles.

Over Q the vectors and dense rows are given as drawn: ints and
Fractions mixed, integral Fractions such as ``Fraction(-6, 3)``
included, uncoerced.  Every kernel output is checked in the stored form,
over Q an int when integral and a Fraction with denominator > 1
otherwise.

A vector of the wrong length, which the dense lists read zero-padded or
truncated, is an index outside [0, length) in the vector form, and each
entry point raises ShapeError for it.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import cover_reference
import exactlin_reference as ref
import vectors
from fixture_algebras import (
    cyclic_nakayama,
    dual_numbers,
    matrix_units_2,
    product_field_pair,
    two_vertex_arrow,
)
from sphertwist.algebra import Algebra, from_structure_constants
from sphertwist.errors import ShapeError, SphertwistError
from sphertwist.exactlin import (
    QQ,
    Matrix,
    Preimages,
    PrimeField,
    SpanBuilder,
    SpanQuotient,
    combine,
    solve,
)
from sphertwist.modules import Module, direct_sum

FIELDS = [QQ, PrimeField(2), PrimeField(7), PrimeField(32003)]
ALGEBRAS = {
    "zero": lambda f: Algebra(f, [], []),
    "dual_numbers": dual_numbers,
    "cyclic2": lambda f: cyclic_nakayama(2, f),
    "cyclic3": lambda f: cyclic_nakayama(3, f),
    "two_vertex_arrow": two_vertex_arrow,
    "product_field_pair": product_field_pair,
    "matrix_units_2": matrix_units_2,
}
VALUES = [0, 0, 0, 1, -1, 2, 3, -5, Fraction(1, 3), Fraction(-2, 11),
          Fraction(3), Fraction(-6, 3)]


def assert_stored(field, vec):
    """vec is in the vector form: sorted distinct indices, and entries
    over F_p reduced into [1, p), over Q nonzero ints or Fractions that
    are not integral."""
    indices = [j for j, _ in vec]
    assert indices == sorted(set(indices))
    p = field.characteristic
    assert all(
        0 < e < p if p else
        (type(e) is int and e) or (type(e) is Fraction and e.denominator > 1)
        for _, e in vec
    )


@st.composite
def oracle_vectors(draw, field, n):
    """(dense list for the oracle, the package's vector of it): over Q
    both hold the entries as drawn, uncoerced; over F_p each oracle
    entry, zeros included, is its residue plus k·p."""
    entries = draw(st.lists(st.sampled_from(VALUES), min_size=n, max_size=n))
    p = field.characteristic
    if not p:
        return entries, [(i, e) for i, e in enumerate(entries) if e]
    vec = vectors.pairs(field, entries)
    shifts = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    return [field.coerce(v) + p * k for v, k in zip(entries, shifts)], vec


def reduced(field, dense):
    p = field.characteristic
    return [e % p for e in dense] if p else list(dense)


def modules_of(a):
    if a.dim == 0:
        return [Module.zero(a)]
    reg, co = Module.regular(a), Module.coregular(a)
    return [reg, co, direct_sum([co, reg])[0]]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_every_vector_kernel_matches_the_dense_oracle(data):
    field = data.draw(st.sampled_from(FIELDS))
    a = ALGEBRAS[data.draw(st.sampled_from(sorted(ALGEBRAS)))](field)
    d = a.dim

    # algebra elements and their action on a module
    dx, x = data.draw(oracle_vectors(field, d))
    dy, y = data.draw(oracle_vectors(field, d))
    product = a.mul_vec(x, y)
    assert_stored(field, product)
    assert product == vectors.pairs(field, cover_reference.mul_vec(a, dx, dy))
    m = data.draw(st.sampled_from(modules_of(a)))
    assert m.action_of(x) == cover_reference.action_of(m, dx)

    # a row vector times a matrix
    rows = [data.draw(oracle_vectors(field, m.dim))[0] for _ in range(m.dim)]
    mat, dense = Matrix(field, rows, m.dim), ref.DenseMatrix(field, rows, m.dim)
    for row in mat.pairs:
        assert_stored(field, row)
    du, u = data.draw(oracle_vectors(field, m.dim))
    image = mat.apply_to_row(u)
    assert_stored(field, image)
    assert image == vectors.pairs(field, dense.apply_to_row(du))
    acting = ref.DenseMatrix(field, cover_reference.action_of(m, dx).rows, m.dim)
    assert m.apply(u, x) == vectors.pairs(field, acting.apply_to_row(du))

    # the span of the rows, its quotient and preimages under the matrix
    span, oracle = SpanBuilder(field, m.dim), ref.SpanBuilder(field, m.dim)
    for row, vec in zip(rows, mat.pairs):
        assert span.add(vec) == oracle.add(row)
    assert (span.rows, span.pivots) == (oracle.rows, oracle.pivots)
    for row in span.basis_pairs():
        assert_stored(field, row)
    dw, w = data.draw(oracle_vectors(field, m.dim))
    inside = oracle.contains(dw)
    assert span.contains(w) == inside
    quotient = SpanQuotient(span)
    # project passes the entries no pivot row touches through as given,
    # so it takes the coerced vector
    cls = quotient.project(vectors.pairs(field, dw))
    assert_stored(field, cls)
    assert all(0 <= j < quotient.dim for j, _ in cls)
    assert (not cls) == inside
    pre = Preimages(mat)
    if inside:
        # u·M = w, checked by the dense oracle on the dense preimage
        x_pre = pre.of(w)
        assert_stored(field, x_pre)
        got = dense.apply_to_row(vectors.dense(field, x_pre, m.dim))
        assert reduced(field, got) == reduced(field, dw)
    else:
        with pytest.raises(SphertwistError, match="no preimage"):
            pre.of(w)
    assert mat.apply_to_row(pre.of(image)) == image

    # the solver: m·x = b against the reference's dense solution
    db, b = data.draw(oracle_vectors(field, m.dim))
    got, want = solve(mat, b), ref.solve(mat, db)
    assert (got is None) == (want is None)
    if got is not None:
        assert_stored(field, got)
        assert vectors.dense(field, got, m.dim) == want

    # sums and differences: one merge
    c = field.coerce(data.draw(st.sampled_from(VALUES)))
    total = combine([(1, u), (c, w)], field.characteristic)
    assert_stored(field, total)
    assert total == vectors.pairs(field, [s + c * t for s, t in zip(du, dw)])
    assert combine([], field.characteristic) == []
    assert combine([(1, u), (-1, u)], field.characteristic) == []


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_empty_vectors_and_the_zero_algebra(field):
    zero = Algebra(field, [], [])
    assert zero.dim == 0 and zero.unit == []
    assert zero.mul_vec([], []) == []
    assert Module.zero(zero).action_of([]) == Matrix.zero(field, 0, 0)
    a = two_vertex_arrow(field)
    assert a.mul_vec([], a.unit) == [] and a.mul_vec(a.unit, []) == []
    assert a.left_mult_matrix([]).is_zero()
    assert Module.regular(a).action_of([]).is_zero()
    assert Matrix.identity(field, 3).apply_to_row([]) == []
    assert solve(Matrix.identity(field, 3), []) == []
    span = SpanBuilder(field, 3)
    assert not span.add([]) and span.contains([])
    assert SpanQuotient(span).project([]) == []
    assert Preimages(Matrix.identity(field, 3)).of([]) == []


def test_vectors_of_the_wrong_length_raise():
    # A₂ = k(1 → 2) has dim 3: the dense [1, 0] was read zero-padded and
    # [1, 0, 0, 0] truncated; as vectors, an index past the end or a
    # negative one raises at every entry point
    a = two_vertex_arrow()
    one = Fraction(1)
    reg = Module.regular(a)
    long_, negative = [(0, one), (3, one)], [(-1, one)]
    for bad in (long_, negative):
        for call in (
            lambda v: a.mul_vec(v, a.unit),
            lambda v: a.mul_vec(a.unit, v),
            a.left_mult_matrix,
            a.right_mult_matrix,
            reg.action_of,
            Matrix.identity(QQ, 3).apply_to_row,
            SpanBuilder(QQ, 3).add,
            SpanBuilder(QQ, 3).contains,
            Preimages(Matrix.identity(QQ, 3)).of,
            lambda v: solve(Matrix.identity(QQ, 3), v),
            lambda v: Algebra(QQ, a.table, v),
            lambda v: Algebra(QQ, a.table, a.unit, idempotents=[("e", v)]),
        ):
            with pytest.raises(ShapeError):
                call(bad)
    # a dense vector is not a vector, and a dense tag of the wrong length
    # no longer reads as "not idempotent"
    with pytest.raises(ShapeError):
        Algebra(QQ, a.table, [1, 0, 0])
    with pytest.raises(ShapeError):
        from_structure_constants(
            QQ, [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], [1, 1], idempotents=[("u", [1, 0, 0])]
        )
    # the tags in range still pass
    tagged = Algebra(QQ, a.table, a.unit, idempotents=a.idempotents)
    assert tagged.idempotents == a.idempotents
