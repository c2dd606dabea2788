"""The Q element form: an `int` when integral, else a `Fraction` with
denominator > 1.

- `RationalField` returns that form from ``coerce``, ``zero``, ``one``
  and ``inv``, and still refuses a float.
- Nothing the package stores breaks it.  The three benchmark workload
  contexts (built over Q, the GF(32003) one included) and every Q
  fixture, one of them a table with constants that are not all
  integral, are set up and solved with `Matrix.from_pairs` and
  `SpanBuilder.basis_pairs` checked on every call, and then every object
  reachable from the results is walked: each entry of a `Matrix`, of an
  `Algebra`'s table, unit and tags is a nonzero int or a `Fraction`
  that is not integral, and no integral `Fraction` is held anywhere.
- A remainder of `SpanBuilder._reduce` that cancels to an integer is an
  int, read through `SpanQuotient.project` and `Preimages.of`.  No
  walked input cancels so, and the reduction normalises only there.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sphertwist.algebra import Algebra, lift_idempotents, opposite, radical
from sphertwist.errors import FieldMismatch
from sphertwist.exactlin import QQ, Matrix, Preimages, SpanBuilder, SpanQuotient
from sphertwist.modules import Module, endomorphism_algebra, simple_modules

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
from workload_contexts import WORKLOADS


def in_form(c):
    """A stored Q entry: a nonzero int, or a Fraction that is not integral."""
    return (type(c) is int and c != 0) or (type(c) is Fraction and c.denominator > 1)


# ---------------------------------------------------------------------------
# RationalField


def test_coerce_returns_an_int_when_integral():
    for value, want in [(2, 2), ("6/3", 2), ("-4", -4), (Fraction(-6, 3), -2),
                        (True, 1), (False, 0)]:
        got = QQ.coerce(value)
        assert type(got) is int and got == want
    for value in (Fraction(1, 2), "-3/6", "1.25"):
        got = QQ.coerce(value)
        assert type(got) is Fraction and got == Fraction(value)
    assert type(QQ.zero()) is int and QQ.zero() == 0
    assert type(QQ.one()) is int and QQ.one() == 1


def test_coerce_refuses_a_float():
    for value in (1.0, 0.5, None):
        with pytest.raises(FieldMismatch):
            QQ.coerce(value)


def test_inv_gives_the_element_form():
    for a, want in [(1, 1), (-1, -1), (Fraction(1), 1), (Fraction(1, 5), 5),
                    (Fraction(-1, 7), -7)]:
        got = QQ.inv(a)
        assert type(got) is int and got == want
    for a, want in [(2, Fraction(1, 2)), (-3, Fraction(-1, 3)), (Fraction(4), Fraction(1, 4)),
                    (Fraction(2, 3), Fraction(3, 2)), (Fraction(-2, 3), Fraction(-3, 2))]:
        got = QQ.inv(a)
        assert type(got) is Fraction and got == want
    for zero in (0, Fraction(0)):
        with pytest.raises(ZeroDivisionError):
            QQ.inv(zero)


@given(st.fractions(max_denominator=50).filter(bool))
def test_inv_is_the_inverse_in_form(x):
    for a in (x, QQ.coerce(x)):
        inv = QQ.inv(a)
        assert in_form(inv) and inv * a == 1


# ---------------------------------------------------------------------------
# the reduction's remainder


def test_a_remainder_that_cancels_to_an_integer_is_an_int():
    # (1, 1, 3/2) less the row (1, 0, 1/2) leaves 3/2 − 1/2 = 1 at column 2
    span = SpanBuilder(QQ, 3)
    span.add([(0, 1), (2, Fraction(1, 2))])
    got = SpanQuotient(span).project([(0, 1), (1, 1), (2, Fraction(3, 2))])
    assert got == [(0, 1), (1, 1)] and all(type(c) is int for _, c in got)
    # u·M = (1, 3) for M = [[2, 2], [0, 2]] is u = (1/2, 1); the 1 comes
    # out of 1/2 − 3·(1/2) in the reduction by the rows of [M | I]
    pre = Preimages(Matrix(QQ, [[2, 2], [0, 2]], 2))
    got = pre.of([(0, 1), (1, 3)])
    assert got == [(0, Fraction(1, 2)), (1, 1)] and all(in_form(c) for _, c in got)


# ---------------------------------------------------------------------------
# the stored values


def reachable(*roots):
    """Every object reachable from the roots through the items of
    containers and the attributes (slots included) of package objects."""
    seen, stack = set(), list(roots)
    while stack:
        x = stack.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        yield x
        if isinstance(x, (list, tuple, set, frozenset)):
            stack.extend(x)
        elif isinstance(x, dict):
            stack.extend(x)
            stack.extend(x.values())
        elif type(x).__module__.startswith("sphertwist."):
            stack.extend(getattr(x, "__dict__", {}).values())
            for cls in type(x).__mro__:
                stack.extend(
                    getattr(x, name) for name in getattr(cls, "__slots__", ())
                    if hasattr(x, name)
                )


def assert_stored_in_form(*roots):
    counts = {"matrix": 0, "algebra": 0}
    for x in reachable(*roots):
        assert not (type(x) is Fraction and x.denominator == 1), x
        if isinstance(x, Matrix) and x.field == QQ:
            counts["matrix"] += 1
            assert all(in_form(c) for row in x.pairs for _, c in row)
        elif isinstance(x, Algebra) and x.field == QQ:
            counts["algebra"] += 1
            vecs = [vec for row in x.table for vec in row] + [x.unit]
            vecs += [vec for _, vec in x.idempotents or ()]
            assert all(in_form(c) for vec in vecs for _, c in vec)
    assert counts["matrix"] and counts["algebra"]


@pytest.fixture
def checked_stores(monkeypatch):
    """Check the pairs of every Matrix built by `from_pairs` and every
    basis `SpanBuilder.basis_pairs` returns; yields the call counts."""
    calls = {"from_pairs": 0, "basis_pairs": 0}
    from_pairs = Matrix.from_pairs.__func__
    basis_pairs = SpanBuilder.basis_pairs

    def checked_from_pairs(cls, field, pairs, ncols):
        if field == QQ:
            calls["from_pairs"] += 1
            assert all(in_form(c) for row in pairs for _, c in row)
        return from_pairs(cls, field, pairs, ncols)

    def checked_basis_pairs(self):
        out = basis_pairs(self)
        if self.field == QQ:
            calls["basis_pairs"] += 1
            assert all(in_form(c) for row in out for _, c in row)
        return out

    monkeypatch.setattr(Matrix, "from_pairs", classmethod(checked_from_pairs))
    monkeypatch.setattr(SpanBuilder, "basis_pairs", checked_basis_pairs)
    yield calls
    assert calls["from_pairs"] and calls["basis_pairs"]


# the benchmark's three workloads at seed 0, each set up and solved over Q
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_contexts_store_q_elements_in_form(name, checked_stores):
    setup, solve, _ = WORKLOADS[name]
    ctx = setup(QQ)
    result = solve(ctx)
    assert_stored_in_form(ctx, result)
    # End(T) and the action matrices of T and its summands, named explicitly
    assert_stored_in_form(ctx.endo, ctx.total.action, [m.action for m, _ in ctx.summands])


FIXTURES = {
    "dual_numbers": dual_numbers,
    "cyclic2": lambda f: cyclic_nakayama(2, f),
    "cyclic4": lambda f: cyclic_nakayama(4, f),
    "truncated_cycle3_3": lambda f: truncated_cycle(3, 3, f),
    "two_vertex_arrow": two_vertex_arrow,
    "linear_path3": lambda f: linear_path(3, f),
    "product_field_pair": product_field_pair,
    "dual_numbers_times_field": dual_numbers_times_field,
    "matrix_units_2": matrix_units_2,
    "nakayama3_hand_table": nakayama3_hand_table,
    # a table whose structure constants are not all integral
    "rebased_cycle3": lambda f: rebased_cycle(3, f),
}


def rebased_cycle(n, field):
    """The n-cycle in the basis of the rows of `shear` with a 2 on the
    diagonal at the second arrow: its inverse has halves in that column,
    so some structure constants have denominator 2, and the unit is no
    0/1 vector."""
    rows = shear(2 * n)
    rows[n + 1][n + 1] = 2
    return rebased(cyclic_nakayama(n, field), rows)[0]


def test_the_rebased_cycle_has_fractional_constants():
    a = rebased_cycle(3, QQ)
    assert any(type(c) is Fraction for row in a.table for vec in row for _, c in vec)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_q_fixtures_store_q_elements_in_form(name, checked_stores):
    a = FIXTURES[name](QQ)
    reg = Module.regular(a)
    held = [a, opposite(a), lift_idempotents(a), radical(a), reg, Module.coregular(a),
            simple_modules(a), endomorphism_algebra(reg)]
    assert_stored_in_form(*held)
