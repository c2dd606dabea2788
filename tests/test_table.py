"""The sparse table of structure constants, its two entries and its
readers.

- `Algebra` takes the sparse table and refuses one out of shape;
  `from_structure_constants` takes a dense table, and both give the same
  canonical table for the same algebra.
- The multiplication matrices and the trace-form radical, read off the
  table, against the routes by products of `table_reference`, on every
  fixture and workload algebra over Q and GF(32003), and a guard that
  they make no `Algebra.mul_vec` call.
"""

import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from sphertwist import algebra
from sphertwist.algebra import (
    Algebra,
    from_structure_constants,
    opposite,
    quotient_surjection,
    radical,
)
from sphertwist.errors import (
    FieldMismatch,
    ShapeError,
    SphertwistError,
)
from sphertwist.exactlin import QQ, PrimeField
from sphertwist.frobenius import build_context
from sphertwist.homology import left_module_along
from sphertwist.modules import Module, simple_modules

import table_reference as ref
import vectors
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

GF = PrimeField(32003)
FIELDS = [QQ, GF]

FIXTURES = {
    "dual_numbers": dual_numbers,
    "cyclic2": lambda f: cyclic_nakayama(2, f),
    "cyclic3": lambda f: cyclic_nakayama(3, f),
    "cyclic4": lambda f: cyclic_nakayama(4, f),
    "loewy3": lambda f: truncated_cycle(3, 3, f),
    "two_vertex_arrow": two_vertex_arrow,
    "linear_path3": lambda f: linear_path(3, f),
    "product_field_pair": product_field_pair,
    "dual_numbers_times_field": dual_numbers_times_field,
    "matrix_units_2": matrix_units_2,
    "nakayama3_hand_table": nakayama3_hand_table,
}

# the generators of the benchmark's workloads: (n, one summand)
WORKLOADS = {"tilting_cycle3": (3, True), "ladder_cycle4": (4, False),
             "twist_cycle3_gf": (3, False)}


@lru_cache(maxsize=None)
def workload_context(name, field):
    n, one = WORKLOADS[name]
    a = cyclic_nakayama(n, field)
    sims = simple_modules(a)
    return build_context(a, Module.regular(a), [(sims[0], 1)] if one else
                         [(s, 1) for s in sims])


def workload_algebras(name, field):
    """A, End(T), its opposite and the stable quotient of a workload."""
    ctx = workload_context(name, field)
    return [ctx.ambient, ctx.endo, opposite(ctx.endo), ctx.stable_endo]


CASES = [("fixture", name) for name in sorted(FIXTURES)] + [
    ("workload", name) for name in sorted(WORKLOADS)
]


def algebras_of(kind, name, field):
    if kind == "fixture":
        return [FIXTURES[name](field)]
    return workload_algebras(name, field)


def sample_vectors(a, seed):
    """The basis vectors and three seeded combinations of them."""
    f = a.field
    rng = random.Random(seed)
    combos = [vectors.pairs(f, [rng.randint(-3, 3) for _ in range(a.dim)]) for _ in range(3)]
    return [a.basis_vector(i) for i in range(a.dim)] + combos


# ---------------------------------------------------------------------------
# the two entries


def test_algebra_refuses_a_column_out_of_range():
    for t in (1, -1):
        with pytest.raises(ShapeError, match="outside"):
            Algebra(QQ, [[[(t, 1)]]], [(0, 1)])


@pytest.mark.parametrize("pairs", [[(1, 1), (0, 1)], [(0, 1), (0, 2)]],
                         ids=["unsorted", "repeated"])
def test_algebra_refuses_unsorted_or_repeated_columns(pairs):
    table = [[[(0, 1)], [(1, 1)]], [[(1, 1)], pairs]]
    with pytest.raises(ShapeError, match="unsorted or repeated"):
        Algebra(QQ, table, [(0, 1)])


def test_algebra_refuses_a_short_row():
    table = [[[(0, 1)], [(1, 1)]], [[(1, 1)]]]
    with pytest.raises(ShapeError, match="row of length 1"):
        Algebra(QQ, table, [(0, 1)])


def test_algebra_refuses_a_dense_table():
    with pytest.raises(ShapeError, match="pairs"):
        Algebra(QQ, [[[1, 0], [0, 1]], [[0, 1], [0, 0]]], [1, 0])


def test_from_structure_constants_refuses_a_ragged_table():
    mult = [[[1, 0], [0, 1]], [[0, 1], [0]]]
    with pytest.raises(SphertwistError, match="multiplication table shape mismatch"):
        from_structure_constants(QQ, mult, [1, 0])


@pytest.mark.parametrize("field", [QQ, PrimeField(31)], ids=["QQ", "GF31"])
def test_from_structure_constants_refuses_a_float(field):
    with pytest.raises(FieldMismatch):
        from_structure_constants(field, [[[1.0]]], [1])


def test_the_dense_table_keeps_only_nonzeros():
    a = dual_numbers(PrimeField(31))
    assert a.table == [[[(0, 1)], [(1, 1)]], [[(1, 1)], []]]
    assert from_structure_constants(
        PrimeField(31), [[[32, 31], [0, 63]], [[62, -30], [0, 0]]], [1, 0]
    ).table == a.table


def conjugated_table(a, rows, change):
    """The table of a in the basis given by ``rows``, summed straight
    from a's pairs: bᵢ'·bⱼ' = Σ rᵢₖ·rⱼₗ·cₖₗˢ·Cₛ.  Every column is listed,
    so cancelled sums stay as explicit zeros, and nothing is reduced."""
    d = a.dim
    table = []
    for ri in rows:
        out = []
        for rj in rows:
            acc = dict.fromkeys(range(d), 0)
            for k, x in enumerate(ri):
                for l, y in enumerate(rj):
                    for s, c in a.table[k][l]:
                        for u, z in enumerate(change.rows[s]):
                            acc[u] += x * y * c * z
            out.append(sorted(acc.items()))
        table.append(out)
    return table


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(FIXTURES)),
    field=st.sampled_from([QQ, PrimeField(31)]),
    data=st.data(),
)
def test_the_dense_route_gives_the_direct_table(name, field, data):
    a = FIXTURES[name](field)
    order = data.draw(st.permutations(range(a.dim)))
    rows = [[field.coerce(c) for c in shear(a.dim)[k]] for k in order]
    dense, change = rebased(a, rows)
    direct = Algebra(field, conjugated_table(a, rows, change), dense.unit)
    assert dense.table == direct.table
    p = field.characteristic
    for row in direct.table:
        for pairs in row:
            columns = [t for t, _ in pairs]
            assert columns == sorted(set(columns))
            for _, c in pairs:
                # over Q, a nonzero int or a Fraction that is not integral
                assert 0 < c < p if p else (
                    (type(c) is int and c) or (type(c) is Fraction and c.denominator > 1)
                )


# ---------------------------------------------------------------------------
# the readers


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "GF"])
@pytest.mark.parametrize("kind,name", CASES)
def test_multiplication_matrices_match_the_products(kind, name, field):
    for a in algebras_of(kind, name, field):
        for x in sample_vectors(a, 7):
            assert a.left_mult_matrix(x) == ref.left_mult_matrix(a, x)
            assert a.right_mult_matrix(x) == ref.right_mult_matrix(a, x)


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "GF"])
@pytest.mark.parametrize("kind,name", CASES)
def test_the_trace_form_radical_matches_the_left_matrices(kind, name, field):
    for a in algebras_of(kind, name, field):
        rad = algebra._trace_form_radical(a)
        assert rad == ref.trace_form_radical(a)
        columns = [rad.column(j) for j in range(rad.ncols)]
        assert algebra._is_nilpotent(a, columns)
        # the unit is not nilpotent, on either route
        assert not algebra._is_nilpotent(a, columns + [a.unit])
        assert not ref.is_nilpotent(a, columns + [a.unit])


def surjections(kind, name, field):
    if kind == "fixture":
        a = FIXTURES[name](field)
        return [quotient_surjection(a, radical(a))]
    return [workload_context(name, field).to_stable]


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "GF"])
@pytest.mark.parametrize("kind,name", CASES)
def test_left_module_along_matches_the_products(kind, name, field):
    for p in surjections(kind, name, field):
        a, b = p.source, p.target
        m = left_module_along(p)
        want = [ref.left_mult_matrix(b, p.apply(a.basis_vector(k))) for k in range(a.dim)]
        assert m.action == want
        Module(m.algebra, m.dim, m.action)  # the full action audit


def test_the_readers_make_no_product_calls(monkeypatch):
    algebras = [FIXTURES[name](field) for name in sorted(FIXTURES) for field in FIELDS]
    algebras += workload_algebras("ladder_cycle4", QQ)
    algebras += workload_algebras("twist_cycle3_gf", GF)

    def refuse(self, x, y):
        raise AssertionError("Algebra.mul_vec called")

    monkeypatch.setattr(Algebra, "mul_vec", refuse)
    for a in algebras:
        for x in sample_vectors(a, 11):
            a.left_mult_matrix(x)
            a.right_mult_matrix(x)
        algebra._trace_form_radical(a)
