"""Exact linear algebra: frozen hand-computed values first, then properties.

The frozen expectations below were worked out by hand (row reduction on
paper) before the implementation existed; they are the oracle, not a
regression snapshot.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import exactlin_reference as ref
import vectors
from exactlin_reference import image_basis, intersect_subspaces, solve_matrix
from fixture_algebras import dual_numbers
from sphertwist import modules
from sphertwist.errors import FieldMismatch, ShapeError, SphertwistError
from sphertwist.exactlin import (
    QQ,
    Matrix,
    Preimages,
    PrimeField,
    SpanBuilder,
    SpanQuotient,
    combine,
    kernel_basis,
    kronecker,
    product_residual,
    rank,
    row_space_canonical,
    rref,
    solve,
)


def mat(rows, field=QQ, ncols=None):
    return Matrix(field, [[field.coerce(e) for e in r] for r in rows], ncols)


# ---------------------------------------------------------------------------
# frozen oracles


def test_rref_identity():
    m = Matrix.identity(QQ, 2)
    r, pivots = rref(m)
    assert r == m
    assert pivots == [0, 1]


def test_rref_zero():
    m = Matrix.zero(QQ, 2, 2)
    r, pivots = rref(m)
    assert r == m
    assert pivots == []


def test_rref_rank_one():
    # hand reduction: R2 := R2 - 2*R1 kills the second row
    r, pivots = rref(mat([[1, 2], [2, 4]]))
    assert r == mat([[1, 2], [0, 0]])
    assert pivots == [0]


def test_rref_hand_3x3():
    # worked by hand: third column = first + second
    # [1 2 3]      [1 0 1]
    # [2 5 7]  ->  [0 1 1]
    # [1 3 4]      [0 0 0]
    r, pivots = rref(mat([[1, 2, 3], [2, 5, 7], [1, 3, 4]]))
    assert r == mat([[1, 0, 1], [0, 1, 1], [0, 0, 0]])
    assert pivots == [0, 1]


def test_kernel_identity_trivial():
    assert kernel_basis(Matrix.identity(QQ, 3)).ncols == 0


def test_kernel_zero_full():
    k = kernel_basis(Matrix.zero(QQ, 3, 3))
    assert k.ncols == 3
    assert rank(k) == 3


def test_kernel_sum_zero():
    # x + y = 0 has solution line through (1,-1); canonical rep scales
    # the leading coordinate to 1.
    k = kernel_basis(mat([[1, 1]]))
    assert k.ncols == 1
    col = vectors.dense(QQ, k.column(0), 2)
    assert col[0] != 0
    scale = col[0]
    assert [c / scale for c in col] == [Fraction(1), Fraction(-1)]


def test_solve_identity():
    b = vectors.pairs(QQ, [Fraction(3), Fraction(-7)])
    assert solve(Matrix.identity(QQ, 2), b) == b


def test_solve_inconsistent_none():
    assert solve(mat([[1, 1], [1, 1]]), vectors.pairs(QQ, [1, 2])) is None


def test_solve_exact_fraction():
    x = solve(mat([[2, 0], [0, 3]]), vectors.pairs(QQ, [1, 1]))
    assert vectors.dense(QQ, x, 2) == [Fraction(1, 2), Fraction(1, 3)]


def test_image_basis_canonical():
    # columns (1,2), (2,4), (3,5): image is all of Q^2; canonical basis
    # is the identity columns.
    im = image_basis(mat([[1, 2, 3], [2, 4, 5]]))
    assert im == Matrix.identity(QQ, 2)


def test_kronecker_scalar():
    m = mat([[1, 2], [3, 4]])
    assert kronecker(mat([[3]]), m) == m.scale(3)
    assert kronecker(m, mat([[3]])) == m.scale(3)


def test_kronecker_shape():
    a = mat([[1, 0, 2]])
    b = mat([[1], [5]])
    k = kronecker(a, b)
    assert (k.nrows, k.ncols) == (2, 3)
    assert k == mat([[1, 0, 2], [5, 0, 10]])


def test_intersect_transverse_lines():
    u = mat([[1], [0]])
    v = mat([[0], [1]])
    w = intersect_subspaces(u, v)
    assert w.ncols == 0


def test_intersect_planes_in_3space():
    # span{e1,e2} ∩ span{e2,e3} = span{e2}, computed by hand
    u = mat([[1, 0], [0, 1], [0, 0]])
    v = mat([[0, 0], [1, 0], [0, 1]])
    w = intersect_subspaces(u, v)
    assert w == mat([[0], [1], [0]])


def test_intersect_equal_spans_any_basis():
    u = mat([[1, 1], [0, 1], [0, 0]])
    v = mat([[2, 0], [1, 3], [0, 0]])
    w = intersect_subspaces(u, v)
    assert w.ncols == 2
    assert w == mat([[1, 0], [0, 1], [0, 0]])


def test_prime_field_arithmetic():
    f5 = PrimeField(5)
    assert f5.inv(2) == 3
    assert f5.coerce("3/2") == f5.mul(3, f5.inv(2))
    r, pivots = rref(Matrix(f5, [[2, 4], [1, 2]]))
    assert pivots == [0]
    assert r.rows[0] == [1, 2]


def test_prime_field_rejects_composite():
    with pytest.raises(FieldMismatch):
        PrimeField(6)
    with pytest.raises(FieldMismatch):
        PrimeField(1)


def test_field_mismatch_raises():
    with pytest.raises(FieldMismatch):
        mat([[1]]).add(Matrix.identity(PrimeField(3), 1))


def test_shape_errors():
    with pytest.raises(ShapeError):
        mat([[1, 2]]).mul(mat([[1, 2]]))
    with pytest.raises(ShapeError):
        mat([[1], [2]]).add(mat([[1, 2]]))
    with pytest.raises(ShapeError):
        solve(mat([[1, 2]]), vectors.pairs(QQ, [1, 2]))


def test_span_builder_membership():
    sb = SpanBuilder(QQ, 3)
    v = lambda *entries: vectors.pairs(QQ, entries)
    assert sb.add(v(1, 1, 0))
    assert not sb.add(v(2, 2, 0))
    assert sb.add(v(0, 0, 1))
    assert sb.dim() == 2
    assert sb.contains(v(3, 3, -1))
    assert not sb.contains(v(1, 0, 0))


def test_span_builder_rejects_wrong_length():
    sb = SpanBuilder(QQ, 3)
    sb.add(vectors.pairs(QQ, [1, 0, 0]))
    # a vector longer than the width, and one with a negative index
    for vec in (vectors.pairs(QQ, [1, 0, 0, 5]), [(-1, Fraction(1))]):
        with pytest.raises(ShapeError):
            sb.contains(vec)
        with pytest.raises(ShapeError):
            sb._reduce(vec)
    # an index outside [0, width) raises through every entry point,
    # an explicit zero included
    q = SpanQuotient(sb)
    for entries in (
        [(3, Fraction(5))], [(-1, Fraction(1))], [(0, Fraction(1)), (7, Fraction(0))]
    ):
        for call in (sb.add, sb.contains, q.project):
            with pytest.raises(ShapeError):
                call(entries)
    assert sb.dim() == 1


def test_multiple_of_p_is_zero():
    # Matrix() does not coerce: the 7 is zero in GF(7) and must not be
    # chosen as a pivot
    f7 = PrimeField(7)
    m = Matrix(f7, [[7, 1], [0, 3]])
    r, pivots = rref(m)
    assert (r.rows, pivots) == ref.rref(m) == ([[0, 1], [0, 0]], [1])
    m = Matrix(f7, [[1, 0], [1, 7]])
    r, pivots = rref(m)
    assert (r.rows, pivots) == ref.rref(m) == ([[1, 0], [0, 0]], [0])
    assert Matrix(f7, [[7, 14]]).is_zero()
    sb, rsb = SpanBuilder(f7, 2), ref.SpanBuilder(f7, 2)
    assert sb.add(vectors.pairs(f7, [7, 1])) == rsb.add([7, 1])
    assert (sb.rows, sb.pivots) == (rsb.rows, rsb.pivots) == ([[0, 1]], [1])
    assert sb.contains(vectors.pairs(f7, [14, 0]))
    assert not sb.add(vectors.pairs(f7, [21, 5]))


def test_equal_matrices_over_fp_have_equal_pairs():
    # 7 ≡ 0 and 8 ≡ 1 in GF(7): equality agrees with a zero difference,
    # and a sum that lands on a multiple of 7 is a zero, not a stored 7
    f7 = PrimeField(7)
    a, b = Matrix(f7, [[7, 8]]), Matrix(f7, [[0, 1]])
    assert a.sub(b).is_zero()
    assert a == b and a.pairs == b.pairs == [[(1, 1)]]
    total = Matrix(f7, [[3, 1]]).add(Matrix(f7, [[4, 0]]))
    assert total == b and total.pairs == [[(1, 1)]]


def test_a_shape_that_disagrees_with_the_rows_raises():
    assert (Matrix(QQ, [], 5).nrows, Matrix(QQ, [], 5).ncols) == (0, 5)
    assert Matrix(QQ, [[1, 2]], 2).ncols == 2
    for rows, ncols in (([[1, 2]], 5), ([[1, 2]], 1), ([[1, 2], [1]], None)):
        with pytest.raises(ShapeError):
            Matrix(QQ, rows, ncols)
    one = Fraction(1)
    assert Matrix.from_pairs(QQ, [[(0, one), (2, one)], []], 3).rows == [
        [1, 0, 1], [0, 0, 0]
    ]
    # a column out of range, and columns unsorted or repeated
    for pairs in ([[(3, one)]], [[(-1, one)]], [[(2, one), (0, one)]], [[(1, one), (1, one)]]):
        with pytest.raises(ShapeError):
            Matrix.from_pairs(QQ, pairs, 3)


def test_span_builder_matches_rref_canonical():
    rows = [[1, 2, 3], [0, 1, 1], [1, 3, 4]]
    sb = SpanBuilder(QQ, 3)
    for r in rows:
        sb.add(vectors.pairs(QQ, r))
    from sphertwist.exactlin import row_space_canonical

    assert sb.basis_matrix() == row_space_canonical(mat(rows))


# ---------------------------------------------------------------------------
# property-based invariants

small_entries = st.integers(min_value=-6, max_value=6)
# mostly zeros, with fractions whose denominators are units in every field
# below (3 and 11 are prime to 2, 7 and 32003), and integers given as
# integral Fractions as well as ints
sparse_entries = st.one_of(
    st.just(0),
    st.just(0),
    st.just(0),
    small_entries,
    st.builds(Fraction, small_entries, st.sampled_from([3, 11])),
    st.builds(Fraction, small_entries),
    st.sampled_from([Fraction(3), Fraction(-6, 3)]),
)
FIELDS = [QQ, PrimeField(2), PrimeField(7), PrimeField(32003)]


def in_form(field, c):
    """A stored entry: over F_p in [1, p); over Q a nonzero int or a
    Fraction that is not integral."""
    p = field.characteristic
    if p:
        return 0 < c < p
    return (type(c) is int and c != 0) or (type(c) is Fraction and c.denominator > 1)


def given_as_drawn(field, dense):
    """The vector of a dense list with its Q entries as drawn: ints and
    Fractions, integral ones included, uncoerced.  Over F_p the entries
    are coerced (reduced), as a vector's must be."""
    if field.characteristic:
        return vectors.pairs(field, dense)
    return [(j, e) for j, e in enumerate(dense) if e]


@st.composite
def matrices(draw, field=QQ, max_dim=4, nrows=None, ncols=None, entries=small_entries):
    """A matrix read from dense rows: over Q the drawn entries go into
    ``Matrix`` uncoerced, a mix of ints and Fractions."""
    n = nrows if nrows is not None else draw(st.integers(1, max_dim))
    c = ncols if ncols is not None else draw(st.integers(1, max_dim))
    values = draw(st.lists(entries, min_size=n * c, max_size=n * c))
    if field.characteristic:
        values = [field.coerce(v) for v in values]
    m = Matrix(field, [values[i * c : (i + 1) * c] for i in range(n)], c)
    assert all(in_form(field, e) for row in m.pairs for _, e in row)
    return m


@given(matrices())
def test_rank_nullity(m):
    assert rank(m) + kernel_basis(m).ncols == m.ncols


@given(matrices())
def test_rref_idempotent(m):
    r1, p1 = rref(m)
    r2, p2 = rref(r1)
    assert r1 == r2 and p1 == p2


@given(matrices())
def test_kernel_columns_annihilated(m):
    k = kernel_basis(m)
    if k.ncols:
        assert m.mul(k).is_zero()


@given(matrices(), st.lists(small_entries, min_size=1, max_size=4))
def test_solve_iff_rank(m, bvals):
    b = [Fraction(v) for v in bvals[: m.nrows]]
    b += [Fraction(0)] * (m.nrows - len(b))
    aug = m.hstack(Matrix(QQ, [[e] for e in b], 1))
    x = solve(m, vectors.pairs(QQ, b))
    if rank(aug) == rank(m):
        assert x is not None
        x = vectors.dense(QQ, x, m.ncols)
        got = m.mul(Matrix(QQ, [[e] for e in x], 1)).column(0)
        assert vectors.dense(QQ, got, m.nrows) == b
    else:
        assert x is None


@settings(max_examples=40)
@given(
    matrices(max_dim=2, nrows=2, ncols=2),
    matrices(max_dim=2, nrows=2, ncols=2),
    matrices(max_dim=2, nrows=2, ncols=2),
    matrices(max_dim=2, nrows=2, ncols=2),
)
def test_kronecker_multiplicative(a, b, c, d):
    lhs = kronecker(a, b).mul(kronecker(c, d))
    rhs = kronecker(a.mul(c), b.mul(d))
    assert lhs == rhs


@given(matrices(field=PrimeField(7)))
def test_rank_nullity_mod_p(m):
    assert rank(m) + kernel_basis(m).ncols == m.ncols


@given(matrices(max_dim=3), matrices(max_dim=3))
def test_intersection_contained_in_both(u, v):
    if u.nrows != v.nrows:
        u = Matrix(QQ, [[Fraction(1)] * u.ncols for _ in range(v.nrows)], u.ncols)
    w = intersect_subspaces(u, v)
    for j in range(w.ncols):
        col = Matrix(QQ, [[e] for e in vectors.dense(QQ, w.column(j), w.nrows)], 1)
        assert solve_matrix(u, col) is not None
        assert solve_matrix(v, col) is not None


# ---------------------------------------------------------------------------
# differential tests: the specialised kernels against the per-element loops
# of exactlin_reference, over Q and three prime fields, on zero-heavy input


def draw_matrix(data, field, max_dim=5, **shape):
    strategy = matrices(field=field, max_dim=max_dim, entries=sparse_entries, **shape)
    return data.draw(strategy)


def draw_vector(data, field, n):
    return draw_matrix(data, field, nrows=1, ncols=n).rows[0]


@given(st.data())
def test_rref_kernel_solve_match_reference(data):
    field = data.draw(st.sampled_from(FIELDS))
    m = draw_matrix(data, field)
    r, pivots = rref(m)
    assert (r.rows, pivots) == ref.rref(m)
    assert m.is_zero() == ref.is_zero(m)
    assert kernel_basis(m).transpose().rows == ref.kernel_basis(m)
    b = draw_vector(data, field, m.nrows)
    x = solve(m, vectors.pairs(field, b))
    assert (x if x is None else vectors.dense(field, x, m.ncols)) == ref.solve(m, b)


@given(st.data())
def test_arithmetic_matches_reference(data):
    field = data.draw(st.sampled_from(FIELDS))
    a = draw_matrix(data, field)
    b = draw_matrix(data, field, nrows=a.nrows, ncols=a.ncols)
    c = draw_matrix(data, field, nrows=a.ncols)
    assert a.add(b).rows == ref.add(a, b)
    assert a.sub(b).rows == ref.sub(a, b)
    assert a.mul(c).rows == ref.mul(a, c)
    scalar = data.draw(sparse_entries)
    assert a.scale(scalar).rows == ref.scale(a, scalar)
    vec = draw_vector(data, field, a.nrows)
    assert a.apply_to_row(vectors.pairs(field, vec)) == vectors.pairs(
        field, ref.apply_to_row(a, vec)
    )


def restored(data, m):
    """The pairs of m with each F_p entry given as its residue plus a
    drawn multiple of p, zeros included (as pairs of their own); over Q,
    m's pairs."""
    p = m.field.characteristic
    if not p:
        return m.pairs
    shifts = st.integers(-2, 2)
    out = []
    for row in m.rows:
        stored = ((j, e + p * data.draw(shifts)) for j, e in enumerate(row))
        out.append([(j, e) for j, e in stored if e])
    return out


@given(st.data())
def test_product_residual_matches_dense_products(data):
    # A·B = C·D decided on sparse rows against the dense products; the
    # first differing row is the one the dense rows show.  Half the
    # draws take C, D to be A, B re-stored (so the products agree), with
    # at most one entry of D changed afterwards
    field = data.draw(st.sampled_from([QQ, PrimeField(32003)]))
    a = draw_matrix(data, field)
    b = draw_matrix(data, field, nrows=a.ncols)
    if data.draw(st.booleans()):
        c, d = a, b
        if data.draw(st.booleans()):
            rows = d.rows
            i = data.draw(st.integers(0, d.nrows - 1))
            j = data.draw(st.integers(0, d.ncols - 1))
            rows[i][j] += field.coerce(data.draw(sparse_entries))
            d = Matrix(field, rows, d.ncols)
    else:
        c = draw_matrix(data, field, nrows=a.nrows)
        d = draw_matrix(data, field, nrows=c.ncols, ncols=b.ncols)
    lhs, rhs = a.mul(b), c.mul(d)
    first = next(
        (r for r, (x, y) in enumerate(zip(lhs.rows, rhs.rows)) if x != y), None
    )
    assert (first is None) == (lhs == rhs)
    got = product_residual(
        *(restored(data, m) for m in (a, b, c, d)), field.characteristic
    )
    assert got == first


@given(st.data())
def test_kronecker_matches_reference(data):
    field = data.draw(st.sampled_from(FIELDS))
    a = draw_matrix(data, field, max_dim=3)
    b = draw_matrix(data, field, max_dim=3)
    assert kronecker(a, b).rows == ref.kronecker(a, b)


def dense(field, width, entries):
    """The dense vector of a {column: entry} dict."""
    zero = field.zero()
    return [entries.get(j, zero) for j in range(width)]


@given(st.data())
def test_span_builder_matches_reference(data):
    field = data.draw(st.sampled_from(FIELDS))
    m = draw_matrix(data, field, max_dim=6)
    sb, rsb = SpanBuilder(field, m.ncols), ref.SpanBuilder(field, m.ncols)
    for row in m.rows:
        assert sb.add(vectors.pairs(field, row)) == rsb.add(row)
        assert (sb.rows, sb.pivots) == (rsb.rows, rsb.pivots)
    assert all(sb.contains(row) for row in m.pairs)
    for _ in range(3):
        vec = draw_vector(data, field, m.ncols)
        assert sb.contains(vectors.pairs(field, vec)) == rsb.contains(vec)
        red = sb._reduce(vectors.pairs(field, vec))
        assert all(red.values())
        assert dense(field, m.ncols, red) == rsb._reduce(vec)


@given(st.data())
def test_mixed_q_input_gives_the_pairs_of_all_fraction_input(data):
    # the same rows given three ways, uncoerced: every entry a Fraction,
    # every entry as drawn, and each entry an int or a Fraction at random
    # (so integral Fractions like Fraction(3) and Fraction(-6, 3) mix with
    # raw ints in one row); the kernels store the same pairs by ==, in
    # the one form: ints for integral values, Fractions otherwise
    n, c = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    values = data.draw(st.lists(sparse_entries, min_size=n * c, max_size=n * c))
    flip = data.draw(st.lists(st.booleans(), min_size=n * c, max_size=n * c))
    mixed = [
        Fraction(v) if f else (int(v) if Fraction(v).denominator == 1 else v)
        for v, f in zip(values, flip)
    ]
    givens = [[Fraction(v) for v in values], values, mixed]
    rowss = [[g[i * c : (i + 1) * c] for i in range(n)] for g in givens]
    mats = [Matrix(QQ, rows, c) for rows in rowss]
    for m in mats:
        assert m.pairs == mats[0].pairs
        assert all(in_form(QQ, e) for row in m.pairs for _, e in row)
    vecss = [[given_as_drawn(QQ, row) for row in rows] for rows in rowss]
    scalars = data.draw(st.lists(sparse_entries, min_size=n, max_size=n))
    sums = [combine(list(zip(scalars, vecs)), 0) for vecs in vecss]
    for total in sums:
        assert total == sums[0]
        assert all(in_form(QQ, e) for _, e in total)
    spans = [SpanBuilder(QQ, c) for _ in givens]
    grew = [[span.add(v) for v in vecs] for span, vecs in zip(spans, vecss)]
    assert grew == [grew[0]] * len(givens)
    for span in spans:
        assert span.basis_pairs() == spans[0].basis_pairs()
        assert all(in_form(QQ, e) for row in span.basis_pairs() for _, e in row)
        assert span.kernel_basis() == kernel_basis(mats[0])


# ---------------------------------------------------------------------------
# the stored pairs against the dense oracle, `exactlin_reference.DenseMatrix`:
# every kernel over Q and three prime fields at the sparsity of the
# workloads (1 % to 5 % nonzeros, so most rows are empty), shapes 0×n and
# n×0 included, and over F_p every cell, zeros included, given unreduced
# as its residue plus k·p

oracle_values = st.sampled_from(
    [1, -1, 2, 3, -5, Fraction(1, 3), Fraction(-2, 11), Fraction(3), Fraction(-6, 3)]
)


@st.composite
def oracle_rows(draw, field, nrows, ncols):
    """Dense rows with 1 % to 5 % of their cells nonzero (at least one
    drawn cell), given over Q as drawn (ints and Fractions, integral
    ones included) and stored over F_p as residue + k·p, −2 ≤ k ≤ 2."""
    density = draw(st.sampled_from([0.01, 0.02, 0.05]))
    rows = [[field.zero()] * ncols for _ in range(nrows)]
    if nrows and ncols:
        cells = st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1))
        count = max(1, round(density * nrows * ncols))
        for i, j in draw(st.lists(cells, min_size=count, max_size=count)):
            rows[i][j] = draw(oracle_values)
    p = field.characteristic
    if p:
        rng = draw(st.randoms(use_true_random=False))
        rows = [[field.coerce(e) + p * rng.randint(-2, 2) for e in row] for row in rows]
    return rows


def reduced(field, rows):
    p = field.characteristic
    return [[e % p for e in row] for row in rows] if p else [list(row) for row in rows]


def assert_matches(m, dense):
    """m holds the oracle's matrix in the stored form: its rows view is
    the oracle's rows read modulo p, and each row's pairs are sorted by
    column and `in_form`: over F_p reduced into [1, p), over Q a
    nonzero int or a Fraction that is not integral."""
    f = m.field
    assert (m.nrows, m.ncols) == (dense.nrows, dense.ncols)
    assert m.rows == reduced(f, dense.rows)
    for row in m.pairs:
        columns = [j for j, _ in row]
        assert columns == sorted(set(columns))
        assert all(in_form(f, e) for _, e in row)


@settings(deadline=None)
@given(st.data())
def test_every_kernel_matches_the_dense_oracle(data):
    field = data.draw(st.sampled_from(FIELDS))
    n, c, k = (data.draw(st.integers(0, 24)) for _ in range(3))
    rows_a, rows_b = (data.draw(oracle_rows(field, n, c)) for _ in range(2))
    rows_c = data.draw(oracle_rows(field, c, k))
    a, b, cm = Matrix(field, rows_a, c), Matrix(field, rows_b, c), Matrix(field, rows_c, k)
    da, db, dc = (
        ref.DenseMatrix(field, rows_a, c),
        ref.DenseMatrix(field, rows_b, c),
        ref.DenseMatrix(field, rows_c, k),
    )
    assert_matches(a, da)
    assert_matches(a.add(b), da.add(db))
    assert_matches(a.sub(b), da.sub(db))
    assert_matches(a.mul(cm), da.mul(dc))
    scalar = data.draw(st.one_of(st.just(0), oracle_values))
    assert_matches(a.scale(scalar), da.scale(scalar))
    assert_matches(a.transpose(), da.transpose())
    assert_matches(a.hstack(b), da.hstack(db))
    assert_matches(a.vstack(b), da.vstack(db))
    rows = data.draw(st.lists(st.integers(0, n - 1), max_size=6)) if n else []
    cols = data.draw(st.permutations(range(c)))[: data.draw(st.integers(0, c))]
    assert_matches(a.submatrix(rows, cols), da.submatrix(rows, cols))
    # and on a denser matrix, whose rows the column order reshuffles
    full = draw_matrix(data, field)
    rows = data.draw(st.lists(st.integers(0, full.nrows - 1), max_size=6))
    cols = data.draw(st.permutations(range(full.ncols)))
    dense = ref.DenseMatrix(field, full.rows)
    assert_matches(full.submatrix(rows, cols), dense.submatrix(rows, cols))
    assert all(
        vectors.dense(field, a.column(j), n) == reduced(field, [da.column(j)])[0]
        for j in range(c)
    )
    assert a.is_zero() == da.is_zero()
    assert (a == b) == (reduced(field, rows_a) == reduced(field, rows_b))
    assert a == Matrix(field, reduced(field, rows_a), c)
    assert Matrix.from_pairs(field, a.pairs, c) == a
    u = data.draw(oracle_rows(field, 1, n))[0] if n else []
    image = a.apply_to_row(given_as_drawn(field, u))
    assert image == vectors.pairs(field, da.apply_to_row(u))
    assert all(in_form(field, e) for _, e in image)

    r, pivots = rref(a)
    ref_rows, ref_pivots = ref.rref(da)
    assert pivots == ref_pivots
    assert r.rows == reduced(field, ref_rows)
    assert row_space_canonical(a).rows == reduced(field, ref_rows[: len(pivots)])
    assert kernel_basis(a).transpose().rows == ref.kernel_basis(da)
    rhs = data.draw(oracle_rows(field, 1, n))[0] if n else []
    x = solve(a, given_as_drawn(field, rhs))
    assert (x if x is None else vectors.dense(field, x, c)) == ref.solve(da, rhs)
    assert x is None or all(in_form(field, e) for _, e in x)
    span, ref_span = SpanBuilder(field, c), ref.SpanBuilder(field, c)
    for row in rows_a:
        assert span.add(given_as_drawn(field, row)) == ref_span.add(row)
    assert span.basis_matrix().rows == ref_span.rows
    assert all(in_form(field, e) for row in span.basis_pairs() for _, e in row)
    assert span.kernel_basis() == kernel_basis(a)

    corner = (range(min(n, 4)), range(min(c, 4)))
    ka, kb = a.submatrix(*corner), b.submatrix(*corner)
    dka, dkb = da.submatrix(*corner), db.submatrix(*corner)
    assert kronecker(ka, kb).rows == reduced(field, ref.kronecker(dka, dkb))

    pre = Preimages(a)
    v = da.apply_to_row(u)
    x = pre.of(given_as_drawn(field, v))
    assert da.apply_to_row(vectors.dense(field, x, n)) == v
    assert all(in_form(field, e) for _, e in x)
    # a second factoring of the same matrix gives the same preimage
    assert Preimages(a).of(vectors.pairs(field, v)) == x
    w = data.draw(oracle_rows(field, 1, c))[0] if c else []
    if ref_span.contains(w):
        got = vectors.dense(field, pre.of(vectors.pairs(field, w)), n)
        assert da.apply_to_row(got) == reduced(field, [w])[0]
    else:
        with pytest.raises(SphertwistError, match="vector has no preimage"):
            pre.of(vectors.pairs(field, w))


# ---------------------------------------------------------------------------
# differential tests at workload shapes: seeded systems of 20 to 40 rows by
# 40 to 80 columns with about 5 % nonzeros, a fifth of the rows
# combinations of earlier ones, and over F_p a tenth of the entries
# stored as their residue plus a multiple of p, zeros included


def workload_matrix(field, seed):
    rng = random.Random(seed)
    nrows, ncols = rng.randint(20, 40), rng.randint(40, 80)
    values = [field.coerce(v) for v in (1, -1, 2, 3, -5, Fraction(1, 3), Fraction(-2, 11))]
    rows = []
    for i in range(nrows):
        if i >= 2 and rng.random() < 0.2:
            a, b = rng.sample(rows, 2)
            c, d = rng.choice(values), rng.choice(values)
            row = [field.add(field.mul(c, x), field.mul(d, y)) for x, y in zip(a, b)]
        else:
            row = [
                rng.choice(values) if rng.random() < 0.05 else field.zero()
                for _ in range(ncols)
            ]
        rows.append(row)
    p = field.characteristic
    if p:
        rows = [
            [e + p * rng.choice([-2, -1, 1, 2]) if rng.random() < 0.1 else e for e in row]
            for row in rows
        ]
    return Matrix(field, rows, ncols)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_elimination_matches_reference_at_workload_shapes(field, seed):
    m = workload_matrix(field, seed)
    r, pivots = rref(m)
    ref_rows, ref_pivots = ref.rref(m)
    k = len(pivots)
    assert 0 < k < m.nrows
    assert pivots == ref_pivots
    assert r.rows[:k] == ref_rows[:k]
    # past the rank the reference keeps a row it never touched as stored,
    # multiples of p included, where rref writes zero rows
    assert r.rows[k:] == [[field.zero()] * m.ncols] * (m.nrows - k)
    assert all(field.is_zero(e) for row in ref_rows[k:] for e in row)
    assert kernel_basis(m).transpose().rows == ref.kernel_basis(m)
    sb, rsb = SpanBuilder(field, m.ncols), ref.SpanBuilder(field, m.ncols)
    for row in m.rows:
        assert sb.add(vectors.pairs(field, row)) == rsb.add(row)
    assert (sb.rows, sb.pivots) == (rsb.rows, rsb.pivots)
    rng = random.Random(seed)
    pre = Preimages(m)
    for _ in range(3):
        u = [field.coerce(rng.choice([0, 0, 0, 1, -2, 5])) for _ in range(m.nrows)]
        v = m.apply_to_row(vectors.pairs(field, u))
        assert m.apply_to_row(pre.of(v)) == v


# ---------------------------------------------------------------------------
# Preimages, and the one elimination kernel every solver reaches


def test_preimages_by_hand():
    # (3, 7, 1) = 3·(1, 2, 0) + 1·(0, 1, 1); (0, 0, 1) = a·(1, 2, 0) +
    # b·(0, 1, 1) forces a = 0 and then 0 = b = 1
    pre = Preimages(mat([[1, 2, 0], [0, 1, 1]]))
    assert pre.of(vectors.pairs(QQ, [3, 7, 1])) == vectors.pairs(QQ, [3, 1])
    with pytest.raises(SphertwistError, match="vector has no preimage"):
        pre.of(vectors.pairs(QQ, [0, 0, 1]))


@given(st.data())
def test_preimages_solve_exactly(data):
    field = data.draw(st.sampled_from(FIELDS))
    m = draw_matrix(data, field, max_dim=6)
    pre = Preimages(m)
    u = draw_vector(data, field, m.nrows)
    v = m.apply_to_row(vectors.pairs(field, u))
    assert m.apply_to_row(pre.of(v)) == v
    # with independent rows the preimage is unique
    basis = row_space_canonical(m)
    x = vectors.pairs(field, u[: basis.nrows])
    assert Preimages(basis).of(basis.apply_to_row(x)) == x
    w = vectors.pairs(field, draw_vector(data, field, m.ncols))
    span = SpanBuilder(field, m.ncols)
    for row in m.pairs:
        span.add(row)
    if span.contains(w):
        assert m.apply_to_row(pre.of(w)) == w
    else:
        with pytest.raises(SphertwistError, match="vector has no preimage"):
            pre.of(w)


def seeded_invertible(field, seed):
    """A random n×n matrix, 1 ≤ n ≤ 8, redrawn until it is invertible."""
    rng = random.Random(seed)
    values = [field.coerce(v) for v in (0, 0, 0, 1, -1, 2, 5, Fraction(1, 3))]
    n = rng.randint(1, 8)
    while True:
        m = Matrix(field, [[rng.choice(values) for _ in range(n)] for _ in range(n)], n)
        if rank(m) == n:
            return m


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_preimages_inverse_matches_the_reference_solve(field, seed):
    w = seeded_invertible(field, seed)
    inv = Preimages(w).inverse()
    assert inv == ref.solve_matrix(w, Matrix.identity(field, w.nrows))
    assert inv.mul(w) == Matrix.identity(field, w.nrows)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_preimages_inverse_of_a_singular_matrix_raises(field, seed):
    # an invertible matrix with its last row replaced by the sum of the
    # others (the zero row when n = 1) has rank n − 1, so some unit row
    # has no preimage
    w = seeded_invertible(field, seed)
    n = w.nrows
    others = Matrix(field, w.rows[:-1], n)
    total = others.apply_to_row([(i, field.one()) for i in range(n - 1)])
    singular = Matrix(field, others.rows + [vectors.dense(field, total, n)], n)
    assert rank(singular) == n - 1
    with pytest.raises(SphertwistError, match="vector has no preimage"):
        Preimages(singular).inverse()


def test_every_solver_reduces_through_the_span_builder(monkeypatch):
    calls = []
    original = SpanBuilder._reduce

    def counting(self, vec):
        calls.append(vec)
        return original(self, vec)

    monkeypatch.setattr(SpanBuilder, "_reduce", counting)
    m = mat([[1, 2, 0], [0, 1, 1], [1, 3, 1]])
    pre = Preimages(m)
    reg = modules.Module.regular(dual_numbers())
    homs = modules.hom_space(reg, reg)
    basis = modules.HomBasis(homs)
    solvers = {
        "rref": lambda: rref(m),
        "kernel_basis": lambda: kernel_basis(m),
        "HomBasis.coords": lambda: basis.coords(homs[-1].matrix),
        "Preimages.of": lambda: pre.of(m.pairs[2]),
    }
    reached = {}
    for name, solver in solvers.items():
        calls.clear()
        solver()
        reached[name] = len(calls)
    assert all(reached.values()), reached


# ---------------------------------------------------------------------------
# differential tests against sympy's DomainMatrix, an independent
# implementation of the same eliminations, over Q and three prime fields


def to_sympy(m):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    p = m.field.characteristic
    if p:
        dom = sympy.GF(p)
        rows = [[dom(int(e)) for e in r] for r in m.rows]
    else:
        dom = sympy.QQ
        rows = [[dom(int(e.numerator), int(e.denominator)) for e in r] for r in m.rows]
    return DomainMatrix(rows, (m.nrows, m.ncols), dom)


def from_sympy(field, rows, domain):
    p = field.characteristic
    if p:
        return [[domain.to_int(e) % p for e in r] for r in rows]
    return [[Fraction(int(e.numerator), int(e.denominator)) for e in r] for r in rows]


def sympy_kernel_rows(m):
    """The canonical (rref) basis rows of the null space, via sympy."""
    null = to_sympy(m).nullspace()
    if null.shape[0] == 0:
        return []
    r, pivots = null.rref()
    return from_sympy(m.field, r.to_list()[: len(pivots)], null.domain)


@settings(deadline=None)
@given(st.data())
def test_rref_and_kernel_match_sympy(data):
    field = data.draw(st.sampled_from(FIELDS))
    m = draw_matrix(data, field, max_dim=6)
    sm = to_sympy(m)
    sr, spivots = sm.rref()
    r, pivots = rref(m)
    assert pivots == list(spivots)
    assert r.rows == from_sympy(field, sr.to_list(), sm.domain)
    assert kernel_basis(m).transpose().rows == sympy_kernel_rows(m)


@settings(deadline=None)
@given(st.data())
def test_span_builder_sparse_entry_matches_sympy(data):
    field = data.draw(st.sampled_from(FIELDS))
    m = draw_matrix(data, field, max_dim=6)
    sb = SpanBuilder(field, m.ncols)
    rank_before = 0
    for i, row in enumerate(m.rows):
        grew = sb.add(vectors.pairs(field, row))
        rank_after = to_sympy(Matrix(field, m.rows[: i + 1], m.ncols)).rank()
        assert grew == (rank_after > rank_before)
        assert sb.dim() == rank_after
        rank_before = rank_after
    sr, spivots = to_sympy(m).rref()
    assert sb.pivots == list(spivots)
    assert sb.rows == from_sympy(field, sr.to_list()[: len(spivots)], sr.domain)
    assert sb.kernel_basis().transpose().rows == sympy_kernel_rows(m)
