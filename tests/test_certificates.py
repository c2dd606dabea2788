"""Setup by certificates, each against the route it replaced.

- Self-injectivity by a Frobenius form (`frobenius.is_self_injective`)
  against the add route of `certificate_reference`, positives and
  negatives, and a guard that the workload ambients are decided with no
  hom-space system.
- The ideal audit of `quotient_surjection`, read off the sparse table,
  against the dense basis-order loop: the same first failure, message and
  witness (i, g, product).
- The radical of a quiver algebra certified from its presentation, by
  hand in characteristics 2, 3 and 5 and against the trace form where
  that is defined, and certified once per algebra.
"""

import pytest

from sphertwist import algebra, modules
from sphertwist.algebra import from_quiver, quotient_surjection, radical
from sphertwist.errors import NotAnIdeal
from sphertwist.exactlin import QQ, Matrix, PrimeField
from sphertwist.frobenius import build_context, is_self_injective
from sphertwist.modules import Module, simple_modules

from certificate_reference import add_route_self_injective, dense_ideal_audit
from fixture_algebras import (
    cyclic_nakayama,
    dual_numbers,
    dual_numbers_times_field,
    linear_path,
    matrix_units_2,
    nakayama3_hand_table,
    product_field_pair,
    truncated_cycle,
    two_vertex_arrow,
)
from patching import count_calls
import vectors

GF = PrimeField(32003)
FIELDS = [QQ, GF]

FIXTURES = {
    "dual_numbers": dual_numbers,
    "cyclic2": lambda f: cyclic_nakayama(2, f),
    "cyclic3": lambda f: cyclic_nakayama(3, f),
    "cyclic4": lambda f: cyclic_nakayama(4, f),
    "cyclic5": lambda f: cyclic_nakayama(5, f),
    "loewy3": lambda f: truncated_cycle(3, 3, f),
    "two_vertex_arrow": two_vertex_arrow,
    "linear_path3": lambda f: linear_path(3, f),
    "linear_path4": lambda f: linear_path(4, f),
    "product_field_pair": product_field_pair,
    "dual_numbers_times_field": dual_numbers_times_field,
    "matrix_units_2": matrix_units_2,
    "nakayama3_hand_table": nakayama3_hand_table,
}
QUIVERS = ["cyclic2", "cyclic3", "cyclic4", "cyclic5", "loewy3",
           "two_vertex_arrow", "linear_path3", "linear_path4"]

# the generators of the benchmark's workloads: (n, one summand)
WORKLOADS = {"tilting_cycle3": (3, True), "ladder_cycle4": (4, False),
             "twist_cycle3_gf": (3, False)}


def workload_context(name, field):
    n, one = WORKLOADS[name]
    a = cyclic_nakayama(n, field)
    sims = simple_modules(a)
    return build_context(a, Module.regular(a), [(sims[0], 1)] if one else
                         [(s, 1) for s in sims])


# ---------------------------------------------------------------------------
# self-injectivity


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "GF"])
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_self_injectivity_agrees_with_the_add_route_on_fixtures(name, field):
    a = FIXTURES[name](field)
    assert is_self_injective(a) == add_route_self_injective(a)


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "GF"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_self_injectivity_agrees_with_the_add_route_on_contexts(name, field):
    ctx = workload_context(name, field)
    ambient, endo, stable = ctx.ambient, ctx.endo, ctx.stable_endo
    assert is_self_injective(ambient) and add_route_self_injective(ambient)
    # End(T) is not self-injective: the witness fails and the fallback
    # proves the negative
    assert not is_self_injective(endo) and not add_route_self_injective(endo)
    assert is_self_injective(stable) == add_route_self_injective(stable)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_the_workload_ambients_are_certified_without_hom_space(name, monkeypatch):
    n, _ = WORKLOADS[name]
    a = cyclic_nakayama(n, GF if name.endswith("_gf") else QQ)
    calls = count_calls(monkeypatch, modules, "hom_space")
    assert is_self_injective(a)
    assert calls == []


def test_the_fallback_decides_a_negative(monkeypatch):
    # upper-triangular 2×2 matrices: no Frobenius form exists, so the
    # verdict is the add route's, which is proven
    a = two_vertex_arrow()
    calls = count_calls(monkeypatch, modules, "add_equivalent")
    assert not is_self_injective(a)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# the ideal audit


def assert_audit_matches(a, ideal):
    """quotient_surjection refuses exactly when the dense loop does, with
    its message and witness; returns whether it refused."""
    want = dense_ideal_audit(a, ideal)
    if want is None:
        quotient_surjection(a, ideal)
        return False
    with pytest.raises(NotAnIdeal) as exc:
        quotient_surjection(a, ideal)
    assert (str(exc.value), exc.value.witness) == want
    return True


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "GF"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_dropping_a_row_of_the_ideal_fails_as_the_dense_loop(name, field):
    ctx = workload_context(name, field)
    rows = ctx.proj_ideal
    assert not assert_audit_matches(ctx.endo, rows)
    refused = [
        assert_audit_matches(ctx.endo, rows[:k] + rows[k + 1:])
        for k in range(len(rows))
    ]
    assert any(refused)


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "GF"])
def test_a_vertex_is_not_an_ideal(field):
    assert assert_audit_matches(two_vertex_arrow(field), [vectors.pairs(field, [1, 0, 0])])


# ---------------------------------------------------------------------------
# the radical from the presentation


@pytest.mark.parametrize("p", [2, 3, 5])
def test_the_three_cycle_in_small_characteristic(p):
    # basis e_1, e_2, e_3, a1, a2, a3: the radical is the three arrows,
    # and there are three simples, one per vertex
    a = cyclic_nakayama(3, PrimeField(p))
    rad = radical(a)
    assert [vectors.dense(a.field, rad.column(j), 6) for j in range(rad.ncols)] == [
        [1 if i == k else 0 for i in range(6)] for k in (3, 4, 5)
    ]
    sims = simple_modules(a)
    assert [s.dim for s in sims] == [1, 1, 1]


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "GF"])
@pytest.mark.parametrize("name", QUIVERS)
def test_the_certified_radical_is_the_trace_form_radical(name, field):
    a = FIXTURES[name](field)
    certified = algebra._presented_radical(a)
    assert certified is not None
    assert certified.rows == algebra._trace_form_radical(a).rows
    assert radical(a).rows == certified.rows


def test_the_arrow_ideal_is_certified_once_per_algebra(monkeypatch):
    # `radical` caches the certified arrow ideal, and `lift_idempotents`
    # reads the locality of each vertex corner off that one radical
    calls = count_calls(monkeypatch, algebra, "_presented_radical")
    a = cyclic_nakayama(4)
    assert [s.dim for s in simple_modules(a)] == [1, 1, 1, 1]
    assert len(calls) == 1
    arrows = Matrix.from_pairs(a.field, a._arrow_ideal, a.dim).transpose()
    assert radical(a) == arrows


def test_an_arrow_ideal_that_is_not_nilpotent_is_not_taken():
    # one loop a with a·a = a: k[a]/(a² − a) ≅ k × k is semisimple, so
    # span(a) is not its radical; the trace form decides instead
    a = from_quiver(["1"], [("a", "1", "1")], [[(1, ["a", "a"]), (-1, ["a"])]])
    assert a.dim == 2
    assert algebra._presented_radical(a) is None
    assert radical(a).ncols == 0
