"""Algebra construction, radicals, quotients, and idempotent lifting."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sphertwist.algebra import (
    Algebra,
    SurjectionData,
    _field_roots,
    _poly_eval,
    _poly_mul,
    enveloping,
    from_quiver,
    from_structure_constants,
    lift_idempotents,
    opposite,
    quotient_surjection,
    radical,
)
from sphertwist.errors import (
    BadUnit,
    InfiniteDimensional,
    MalformedRelation,
    NonAssociative,
    NotAnIdeal,
    NotSplit,
    SphertwistError,
    UnsupportedCharacteristic,
)
from sphertwist.exactlin import QQ, Matrix, PrimeField, row_space_canonical

from lift_reference import corner_is_local
from vectors import dense, pairs
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
from workload_contexts import WORKLOADS


def test_base_field_as_algebra():
    a = from_structure_constants(QQ, [[[1]]], [1])
    assert a.dim == 1
    assert a.mul_vec(pairs(QQ, [Fraction(2)]), pairs(QQ, [Fraction(3)])) == pairs(
        QQ, [Fraction(6)]
    )


def test_dual_numbers_table():
    a = dual_numbers()
    one, x = a.basis_vector(0), a.basis_vector(1)
    assert dense(QQ, a.mul_vec(x, x), 2) == [Fraction(0), Fraction(0)]
    assert a.mul_vec(one, x) == x
    assert a.unit == one


def test_nonassociative_witness():
    # u unit, a*a = b, a*b = u, everything else 0: (aa)a = 0 but a(aa) = u
    z = [0, 0, 0]
    mult = [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
        [[0, 0, 1], list(z), list(z)],
    ]
    with pytest.raises(NonAssociative) as exc:
        from_structure_constants(QQ, mult, [1, 0, 0])
    assert exc.value.witness is not None


def first_nonassociative_triple(field, mult):
    """The first (i, j, k) with (bᵢbⱼ)bₖ ≠ bᵢ(bⱼbₖ), from dense
    coordinate vectors, triple by triple (test oracle)."""
    d = len(mult)
    for i in range(d):
        for j in range(d):
            for k in range(d):
                lhs, rhs = [field.zero()] * d, [field.zero()] * d
                for t in range(d):
                    c, c2 = mult[i][j][t], mult[j][k][t]
                    for u in range(d):
                        if c:
                            lhs[u] = field.add(lhs[u], field.mul(c, mult[t][k][u]))
                        if c2:
                            rhs[u] = field.add(rhs[u], field.mul(c2, mult[i][t][u]))
                if lhs != rhs:
                    return i, j, k
    return None


@pytest.mark.parametrize("field", [QQ, PrimeField(31)], ids=["QQ", "GF31"])
def test_nonassociative_witness_is_the_first_failing_triple(field):
    # the 3-cycle's table with one product of two arrows, 0 in the
    # algebra, set to a basis element; the unit law
    # still holds, and the witness is the first triple the
    # triple-by-triple check meets
    a = cyclic_nakayama(3, field)
    unit = dense(field, a.unit, a.dim)
    arrows = [g for g in range(a.dim) if not unit[g]]
    witnesses = set()
    for i in arrows:
        for j in arrows:
            for t in range(a.dim):
                mult = [
                    [
                        dense(field, a.mul_vec(a.basis_vector(r), a.basis_vector(s)), a.dim)
                        for s in range(a.dim)
                    ]
                    for r in range(a.dim)
                ]
                mult[i][j][t] = field.one()
                want = first_nonassociative_triple(field, mult)
                if want is None:
                    from_structure_constants(field, mult, unit)
                    continue
                with pytest.raises(NonAssociative) as exc:
                    from_structure_constants(field, mult, unit)
                assert exc.value.witness == want
                witnesses.add(want)
    assert len(witnesses) > 3


def test_bad_unit():
    # claim e1 is the unit of k x k
    mult = [
        [[1, 0], [0, 0]],
        [[0, 0], [0, 1]],
    ]
    with pytest.raises(BadUnit):
        from_structure_constants(QQ, mult, [1, 0])


def test_tags_that_are_not_orthogonal_idempotents_are_refused():
    # in the path algebra of 1 → 2 (basis e_1, e_2, a): a² = 0, and
    # f = e_1 + a is idempotent with e_2·f = 0 but f·e_2 = a
    a = two_vertex_arrow()
    e1, e2, arrow = (a.basis_vector(i) for i in range(3))
    f = [(0, QQ.one()), (2, QQ.one())]

    def tagged(*tags):
        return Algebra(QQ, a.table, a.unit, idempotents=list(tags))

    assert tagged(("1", e1), ("2", e2)).idempotents == [("1", e1), ("2", e2)]
    with pytest.raises(SphertwistError, match="'a' is not idempotent"):
        tagged(("a", arrow))
    # f·e_2 ≠ 0 fails whichever of the two is listed first
    with pytest.raises(SphertwistError, match="'f', '2' not orthogonal"):
        tagged(("f", f), ("2", e2))
    with pytest.raises(SphertwistError, match="'f', '2' not orthogonal"):
        tagged(("2", e2), ("f", f))


def test_quiver_single_vertex():
    a = from_quiver(["v"], [], [])
    assert a.dim == 1
    assert dense(QQ, a.unit, 1) == [Fraction(1)]


def test_quiver_cyclic_three():
    a = cyclic_nakayama(3)
    assert a.dim == 6
    assert [r for r, _ in a.idempotents] == ["vertex:1", "vertex:2", "vertex:3"]


def test_quiver_agrees_with_hand_table():
    """Label-matched bijection between the quiver build and the raw table."""
    a = cyclic_nakayama(3)
    b = nakayama3_hand_table()
    # map by meaning: trivial path of vertex i <-> e_i, arrow a_i <-> a_i
    want = {"e_1": "e1", "e_2": "e2", "e_3": "e3", "a1": "a1", "a2": "a2", "a3": "a3"}
    perm = [b.basis_labels.index(want[l]) for l in a.basis_labels]
    for i in range(6):
        for j in range(6):
            via_a = dense(QQ, a.mul_vec(a.basis_vector(i), a.basis_vector(j)), 6)
            via_b = dense(QQ, b.mul_vec(b.basis_vector(perm[i]), b.basis_vector(perm[j])), 6)
            pulled = [via_b[perm[t]] for t in range(6)]
            assert via_a == pulled


def test_quiver_two_vertex_dim3():
    a = two_vertex_arrow()
    assert a.dim == 3
    assert a.basis_labels == ["e_1", "e_2", "a"]


def test_quiver_loop_infinite():
    with pytest.raises(InfiniteDimensional):
        from_quiver(["v"], [("x", "v", "v")], [], max_path_length=12)


def test_quiver_loop_truncated_is_finite():
    a = from_quiver(["v"], [("x", "v", "v")], [[(1, ["x", "x", "x"])]])
    assert a.dim == 3
    x = a.basis_vector(1)
    x2 = a.mul_vec(x, x)
    assert x2 == a.basis_vector(2)
    assert dense(QQ, a.mul_vec(x2, x), 3) == [QQ.zero()] * 3


def test_quiver_malformed_relations():
    with pytest.raises(MalformedRelation):
        from_quiver(["1", "2"], [("a", "1", "2")], [[(1, ["zz"])]])
    with pytest.raises(MalformedRelation):
        # not parallel: a goes 1->2, e_1-loop side missing entirely
        from_quiver(
            ["1", "2", "3"],
            [("a", "1", "2"), ("b", "2", "3"), ("c", "1", "3")],
            [[(1, ["a"]), (1, ["b"])]],
        )
    with pytest.raises(MalformedRelation):
        from_quiver(["1", "2"], [("a", "1", "2")], [[(1, [])]])


def test_quiver_inhomogeneous_relation():
    # loop with x^2 = x^4: finite of dim 4 (basis 1, x, x^2, x^3)? no —
    # x^2 = x^4 = x^6 = ..., and x^2(1 - x^2) = 0; the quotient has basis
    # 1, x, x^2, x^3 with x^4 = x^2, hence dim 4.
    a = from_quiver(["v"], [("x", "v", "v")], [[(1, ["x", "x"]), (-1, ["x"] * 4)]])
    assert a.dim == 4
    x = a.basis_vector(1)
    x2 = a.mul_vec(x, x)
    x4 = a.mul_vec(x2, x2)
    assert x4 == x2


def test_radical_semisimple_is_zero():
    assert radical(product_field_pair()).ncols == 0
    assert radical(from_structure_constants(QQ, [[[1]]], [1])).ncols == 0


def test_radical_dual_numbers():
    r = radical(dual_numbers())
    assert r.ncols == 1
    assert dense(QQ, r.column(0), 2) == [Fraction(0), Fraction(1)]


def test_radical_two_vertex_arrow():
    r = radical(two_vertex_arrow())
    assert r.ncols == 1
    assert dense(QQ, r.column(0), 3) == [Fraction(0), Fraction(0), Fraction(1)]


def test_radical_cyclic_three():
    assert radical(cyclic_nakayama(3)).ncols == 3


def test_radical_char_too_small():
    with pytest.raises(UnsupportedCharacteristic):
        radical(dual_numbers(field=PrimeField(2)))


def test_radical_large_char_ok():
    r = radical(dual_numbers(field=PrimeField(101)))
    assert r.ncols == 1


def test_quotient_by_zero_ideal():
    a = dual_numbers()
    s = quotient_surjection(a, [])
    assert s.target.dim == 2
    assert s.kernel_basis.ncols == 0
    assert s.apply(a.basis_vector(1)) == a.basis_vector(1)


def test_quotient_dual_numbers_by_socle():
    a = dual_numbers()
    s = quotient_surjection(a, [pairs(QQ, [0, 1])])
    assert s.target.dim == 1
    assert dense(QQ, s.kernel_basis.column(0), 2) == [Fraction(0), Fraction(1)]
    assert s.apply(pairs(QQ, [Fraction(5), Fraction(7)])) == pairs(QQ, [Fraction(5)])


def test_quotient_two_vertex_by_radical():
    a = two_vertex_arrow()
    s = quotient_surjection(a, radical(a))
    b = s.target
    assert b.dim == 2
    u, v = b.basis_vector(0), b.basis_vector(1)
    assert b.mul_vec(u, u) == u
    assert b.mul_vec(v, v) == v
    assert dense(QQ, b.mul_vec(u, v), 2) == [QQ.zero()] * 2


def test_quotient_rejects_non_ideal():
    # basis e_1, e_2, a with a : 1 → 2; e_1·b and b·e_1 stay in span(e_1)
    # for b = e_1, e_2 and b·e_1 = a·e_1 = 0, but e_1·a = a leaves it
    a = two_vertex_arrow()
    with pytest.raises(NotAnIdeal, match="ideal element · b2 leaves the span") as exc:
        quotient_surjection(a, [pairs(QQ, [1, 0, 0])])
    assert exc.value.witness == (2, pairs(QQ, [1, 0, 0]), pairs(QQ, [0, 0, 1]))


def _onto_the_field(a, images):
    """SurjectionData for the map Q[x]/(x²) → Q with the given images of 1, x."""
    q = from_structure_constants(QQ, [[[1]]], [1])
    matrix = Matrix(QQ, [[QQ.coerce(c)] for c in images], 1)
    return SurjectionData(a, q, matrix)


def test_surjection_audit_accepts_the_augmentation():
    a = dual_numbers()
    s = _onto_the_field(a, [1, 0])
    assert s.apply(pairs(QQ, [Fraction(3), Fraction(5)])) == pairs(QQ, [Fraction(3)])


def test_surjection_audit_rejects_a_map_that_is_not_multiplicative():
    # 1 ↦ 1 and x ↦ 1 is unital and onto, but x·x = 0 ↦ 0 ≠ 1·1
    a = dual_numbers()
    with pytest.raises(SphertwistError, match="not multiplicative on basis pair \\(1,1\\)"):
        _onto_the_field(a, [1, 1])


def first_non_multiplicative_pair(a, b, matrix):
    """The first (i, j) with p(bᵢbⱼ) ≠ p(bᵢ)p(bⱼ), pair by pair (test
    oracle)."""
    images = [matrix.apply_to_row(a.basis_vector(i)) for i in range(a.dim)]
    for i in range(a.dim):
        for j in range(a.dim):
            product = a.mul_vec(a.basis_vector(i), a.basis_vector(j))
            if matrix.apply_to_row(product) != b.mul_vec(images[i], images[j]):
                return i, j
    return None


@pytest.mark.parametrize("field", [QQ, PrimeField(31)], ids=["QQ", "GF31"])
def test_surjection_audit_names_the_first_non_multiplicative_pair(field):
    # the 3-cycle onto its vertex quotient k³, with one arrow sent to a
    # vertex idempotent instead of 0: unital and onto, not multiplicative
    a = cyclic_nakayama(3, field)
    s = quotient_surjection(a, radical(a))
    arrows = [g for g in range(a.dim) if not dense(field, a.unit, a.dim)[g]]
    named = set()
    for g in arrows:
        for t in range(s.target.dim):
            rows = [list(row) for row in s.matrix.rows]
            rows[g] = dense(field, s.target.basis_vector(t), s.target.dim)
            matrix = Matrix(field, rows, s.target.dim)
            want = first_non_multiplicative_pair(a, s.target, matrix)
            with pytest.raises(
                SphertwistError, match=r"on basis pair \(%d,%d\)$" % want
            ):
                SurjectionData(a, s.target, matrix)
            named.add(want)
    assert len(named) > 3


def test_surjection_audit_rejects_a_map_that_is_not_onto():
    # k → k × k, 1 ↦ (1, 1), is unital and multiplicative, and its image
    # is the diagonal
    k = from_structure_constants(QQ, [[[1]]], [1])
    with pytest.raises(SphertwistError, match="map is not surjective"):
        SurjectionData(k, product_field_pair(), Matrix(QQ, [[1, 1]], 2))


def ideal_columns(field, rows, dim):
    """The canonical basis of the span of the rows, as columns."""
    return row_space_canonical(Matrix.from_pairs(field, rows, dim)).transpose()


@pytest.mark.parametrize("field", [QQ, PrimeField(31)], ids=["QQ", "GF31"])
def test_the_computed_kernel_is_the_ideal_in_canonical_columns(field):
    # the surjection reads its kernel off its matrix; on the quotient of
    # every fixture by its radical, and on the stable quotient of every
    # workload context, that is the ideal quotiented by
    a = two_vertex_arrow(field)
    s = quotient_surjection(a, [a.basis_vector(2)])
    assert s.kernel_basis == ideal_columns(field, [a.basis_vector(2)], a.dim)
    for make in OPPOSITE_FIXTURES:
        a = make(field)
        rad = radical(a)
        s = quotient_surjection(a, rad)
        assert s.kernel_basis == ideal_columns(field, rad.transpose().pairs, a.dim)
    for setup, _, _ in WORKLOADS.values():
        ctx = setup(field)
        assert ctx.to_stable.kernel_basis == ideal_columns(
            field, ctx.proj_ideal, ctx.endo.dim)


@pytest.mark.parametrize("images", [[0, 1], [2, 0]])
def test_surjection_audit_rejects_a_map_that_moves_the_unit(images):
    a = dual_numbers()
    with pytest.raises(SphertwistError, match="does not preserve the unit"):
        _onto_the_field(a, images)


@pytest.mark.parametrize("builder", [dual_numbers, two_vertex_arrow, product_field_pair])
def test_quotient_dimension_count(builder):
    a = builder()
    r = radical(a)
    s = quotient_surjection(a, r)
    assert a.dim == s.target.dim + s.kernel_basis.ncols


def test_opposite_of_commutative_matches():
    a = dual_numbers()
    b = opposite(a)
    assert b.table == a.table


def test_opposite_involution():
    a = two_vertex_arrow()
    b = opposite(opposite(a))
    assert b.table == a.table
    assert b.unit == a.unit


def test_opposite_reverses_products():
    a = two_vertex_arrow()
    b = opposite(a)
    e1, arr = a.basis_vector(0), a.basis_vector(2)
    assert b.mul_vec(arr, e1) == a.mul_vec(e1, arr)


OPPOSITE_FIXTURES = [
    dual_numbers, two_vertex_arrow, product_field_pair, dual_numbers_times_field,
    matrix_units_2, nakayama3_hand_table,
    lambda f: cyclic_nakayama(2, f), lambda f: cyclic_nakayama(3, f),
    lambda f: cyclic_nakayama(4, f), lambda f: truncated_cycle(3, 3, f),
    lambda f: linear_path(3, f),
]


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)])
def test_the_opposite_passes_the_full_audit(field, monkeypatch):
    # `opposite` runs no audit of its own, so the full one runs here on
    # the opposite of every fixture and of every algebra the three
    # workloads build, over each field
    built = []
    init = Algebra.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(Algebra, "__init__", recording)
    for make in OPPOSITE_FIXTURES:
        make(field)
    if field == QQ:
        gaussian_field()
    for setup, solve, _ in WORKLOADS.values():
        solve(setup(field))
    monkeypatch.undo()
    audit = Algebra._validate
    audited = []
    monkeypatch.setattr(Algebra, "_validate", lambda self: audited.append(self))
    ops = [opposite(a) for a in built]
    monkeypatch.undo()
    assert audited == []
    # End(T) of the 3-cycle and of the 4-cycle with all simples among them
    assert {15, 20} <= {op.dim for op in ops}
    for op in ops:
        audit(op)


def test_enveloping_of_fields():
    k = from_structure_constants(QQ, [[[1]]], [1])
    e = enveloping(k, k)
    assert e.dim == 1


def test_enveloping_dual_numbers():
    a = dual_numbers()
    e = enveloping(a, a)
    assert e.dim == 4
    # unit = one(x)one at flat position 0
    assert dense(QQ, e.unit, 4) == [Fraction(1), Fraction(0), Fraction(0), Fraction(0)]


def test_lift_idempotents_field_and_local():
    k = from_structure_constants(QQ, [[[1]]], [1])
    assert [dense(QQ, e, 1) for e in lift_idempotents(k)] == [[Fraction(1)]]
    a = dual_numbers()
    assert lift_idempotents(a) == [a.unit]


def test_lift_idempotents_product_pair():
    a = product_field_pair()
    es = lift_idempotents(a)
    assert len(es) == 2
    assert sorted(dense(QQ, e, 2) for e in es) == [
        [Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]
    ]


def test_lift_idempotents_cyclic_three():
    a = cyclic_nakayama(3)
    es = lift_idempotents(a)
    assert len(es) == 3
    expect = {tuple(a.basis_vector(i)) for i in range(3)}
    assert {tuple(e) for e in es} == expect


def test_lift_idempotents_matrix_algebra():
    a = matrix_units_2()
    es = lift_idempotents(a)
    assert len(es) == 2
    for e in es:
        assert a.mul_vec(e, e) == e


def test_lift_idempotents_not_split():
    # x² + 1 has no rational root, and the root search ran to the end
    with pytest.raises(NotSplit, match="admits no field-rational splitting"):
        lift_idempotents(gaussian_field())


def test_lift_idempotents_splits_k_times_k_with_large_eigenvalues():
    # k × k = ku ⊕ kv with basis {1, y}, y = 5000u + 7000v.  Then
    # (y − 5000)(y − 7000) = 0, so y² = 12000·y − 35·10⁶, and the
    # primitive idempotents are u = (7000 − y)/2000 and v = (y − 5000)/2000
    f = PrimeField(1000003)
    a = from_structure_constants(f, [[[1, 0], [0, 1]], [[0, 1], [-35000000, 12000]]], [1, 0])
    inv = f.inv(2000)
    u = [f.mul(7000, inv), f.mul(f.neg(1), inv)]
    v = [f.mul(f.neg(5000), inv), inv]
    assert sorted(dense(f, e, 2) for e in lift_idempotents(a)) == sorted([u, v])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_prime_field_roots_match_brute_force(data):
    # a product of linear factors and monic quadratics (the irreducible
    # ones add no root); the roots come out once each, in the order
    # 0, 1, …, then p−1, p−2, …
    p = data.draw(st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]))
    f = PrimeField(p)
    poly = [data.draw(st.integers(1, p - 1))]
    for r in data.draw(st.lists(st.integers(0, p - 1), max_size=5)):
        poly = _poly_mul(f, poly, [f.neg(r), 1])
    for b, c in data.draw(st.lists(st.tuples(st.integers(0, p - 1), st.integers(0, p - 1)), max_size=2)):
        poly = _poly_mul(f, poly, [c, b, 1])
    roots = {x for x in range(p) if f.is_zero(_poly_eval(f, poly, x))}
    scan = list(range((p + 1) // 2)) + list(range(p - 1, (p - 1) // 2, -1))
    assert _field_roots(f, poly) == ([x for x in scan if x in roots], True)


def test_rational_roots_are_in_form_and_say_when_cut_off():
    # 5·x·(x − 2)(x + 1/2)(x − 3): the integral roots come out as ints
    poly = [5]
    for r in (0, 2, Fraction(-1, 2), 3):
        poly = _poly_mul(QQ, poly, [-r, 1])
    roots, complete = _field_roots(QQ, poly)
    assert complete and sorted(roots) == [Fraction(-1, 2), 0, 2, 3]
    assert [type(r) for r in sorted(roots)] == [Fraction, int, int, int]
    # a coefficient above 10¹² cuts the divisor search off; the root 0
    # is still listed
    big = 10**7 * (3 * 10**7 + 1)
    assert _field_roots(QQ, [big, -(4 * 10**7 + 1), 1]) == ([], False)
    assert _field_roots(QQ, [0, -(10**13), 1]) == ([0], False)


@pytest.mark.parametrize("n", [2, 4, 5])
def test_cyclic_family_shape(n):
    a = cyclic_nakayama(n)
    assert a.dim == 2 * n
    assert radical(a).ncols == n
    assert len(lift_idempotents(a)) == n


# ---------------------------------------------------------------------------
# the opposite algebra inherits idempotents and radical


SPLIT_FIXTURES = {
    "dual_numbers": dual_numbers,
    "cyclic2": lambda f: cyclic_nakayama(2, f),
    "cyclic3": lambda f: cyclic_nakayama(3, f),
    "cyclic4": lambda f: cyclic_nakayama(4, f),
    "two_vertex_arrow": two_vertex_arrow,
    "product_field_pair": product_field_pair,
    "matrix_units_2": matrix_units_2,
    "nakayama3_hand_table": nakayama3_hand_table,
}
# every simple module is one-dimensional
BASIC = sorted(set(SPLIT_FIXTURES) - {"matrix_units_2"})


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)])
@pytest.mark.parametrize("name", sorted(SPLIT_FIXTURES))
def test_opposite_inherits_a_complete_orthogonal_primitive_list(name, field):
    a = SPLIT_FIXTURES[name](field)
    es = lift_idempotents(a)
    op = opposite(a)
    inherited = lift_idempotents(op)
    assert inherited == es
    total = [field.zero()] * op.dim
    for i, e in enumerate(inherited):
        assert op.mul_vec(e, e) == e
        for e2 in inherited[i + 1 :]:
            assert not any(op.mul_vec(e, e2)) and not any(op.mul_vec(e2, e))
        assert corner_is_local(op, e)
        total = [field.add(x, y) for x, y in zip(total, dense(field, e, op.dim))]
    assert total == dense(field, op.unit, op.dim)


@pytest.mark.parametrize("name", BASIC)
def test_inherited_idempotents_equal_a_fresh_search(name):
    a = SPLIT_FIXTURES[name](QQ)
    lift_idempotents(a)
    op = opposite(a)
    fresh = Algebra(QQ, op.table, op.unit)
    assert lift_idempotents(op) == lift_idempotents(fresh)


def test_inherited_idempotents_are_checked():
    # 1 + x is not idempotent in k[x]/x² ((1 + x)² = 1 + 2x), and the
    # list {e_1} alone misses e_2 of the arrow algebra
    a = dual_numbers()
    op = opposite(a)
    op._idempotent_cache = [pairs(QQ, [1, 1]), pairs(QQ, [0, -1])]
    with pytest.raises(SphertwistError, match="square"):
        lift_idempotents(a)
    b = two_vertex_arrow()
    bop = opposite(b)
    bop._idempotent_cache = [b.basis_vector(0)]
    with pytest.raises(SphertwistError, match="sum to 1"):
        lift_idempotents(b)


@pytest.mark.parametrize("name", sorted(SPLIT_FIXTURES))
def test_opposite_inherits_the_radical(name):
    a = SPLIT_FIXTURES[name](QQ)
    rad = radical(a)
    op = opposite(a)
    assert radical(op) is rad
    assert rad == radical(Algebra(QQ, op.table, op.unit))
