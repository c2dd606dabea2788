"""Side 2 read one pair of catalog summands at a time, against the
whole-sum route.

`spherical.rigidity_check` and `spherical._assert_mirror_properties`
ask whether the stable Hom(ΩⁱX, X) and Hom(X, ΣⁱX) of the extra part
X = ⊕ xⱼ vanish, one pair (x, y) of catalog summands at a time, on the
summands' own ladders.  `side_two_reference` keeps the whole-sum bodies,
which build X as one direct sum and suspend it whole.  On the dual
numbers, the 3-cycle and the 3-cycle with the paths of length 3 killed
over Q, and the 3-cycle over GF(32003), with one simple, all simples, a
pair and one simple twice as the extra summands, for t = 2..5:

- the rigidity verdict and the message the mirror raises (or None) are
  the oracle's;
- the two-sided audit with the tilting certificates, the rigidity
  verdict and the mirror's message are pinned as the whole-sum route
  gave them, every `TiltingAudit` field included.

The dual numbers have one simple S, so their pair is S and ΩS ≅ S: two
isomorphic catalog summands, so the syzygy of each has two partners and
`permutation_tau` refuses the catalog at every t, with a SphertwistError
that is not an AuditFailed and names summands 0 and 1.  The whole-sum
route had τ None there, and at t = 2, where side 1 passes, raised that
the verdicts disagree.
"""

import pytest

import side_two_reference
from sphertwist import modules, spherical
from sphertwist.errors import AuditFailed, SphertwistError
from sphertwist.exactlin import PrimeField
from sphertwist.frobenius import build_context, syzygy
from sphertwist.modules import Module, simple_modules

from fixture_algebras import cyclic_nakayama, dual_numbers, truncated_cycle
from patching import count_calls, patch_everywhere
from workload_contexts import WORKLOADS

GF = PrimeField(32003)

ALGEBRAS = {
    "dual": dual_numbers,
    "cycle3": lambda: cyclic_nakayama(3),
    "loewy3": lambda: truncated_cycle(3, 3),
    "cycle3_gf": lambda: cyclic_nakayama(3, GF),
}
KINDS = ("one", "all", "pair", "mult2")
WINDOWS = (2, 3, 4, 5)


def extra(a, kind):
    sims = simple_modules(a)
    if kind == "one":
        return [(sims[0], 1)]
    if kind == "all":
        return [(s, 1) for s in sims]
    if kind == "pair":
        second = sims[1] if len(sims) > 1 else syzygy(sims[0])
        return [(sims[0], 1), (second, 1)]
    return [(sims[0], 2)]


COSUSPENSION = "rigidity fails in the cosuspension direction at step %d"
ONE_SIDED = "stable quotient is perfect on one side only"
# what `_audit` returns when `permutation_tau` refuses a catalog
NOT_BASIC = ("refused", "extra summands 0 and 1 are both partners of summand 0: "
             "they are add-equivalent, so pass one of them with a multiplicity")

# per (algebra, extra summands) and t = 2..5: the audit with tilting as
# (side-1 verdict, rigid, add-periodic, τ, the `TiltingAudit` fields
# I0_dims, D0_dims, biperfect, rho_iso, lambda_iso,
# composite_iso_to_projE and tensor_dim, or None), or the message it
# raises; `rigidity_check`; the message the mirror raises, or None
PINNED = {
    ("dual", "one"): [
        ((True, True, True, (0,), ((3, 2), (3, 2), True, True, True, False, 5)), True, None),
        ((False, False, True, (0,), None), False, COSUSPENSION % 1),
        ((False, False, True, (0,), None), False, COSUSPENSION % 1),
        ((False, False, True, (0,), None), False, COSUSPENSION % 1),
    ],
    ("dual", "all"): [
        ((True, True, True, (0,), ((3, 2), (3, 2), True, True, True, False, 5)), True, None),
        ((False, False, True, (0,), None), False, COSUSPENSION % 1),
        ((False, False, True, (0,), None), False, COSUSPENSION % 1),
        ((False, False, True, (0,), None), False, COSUSPENSION % 1),
    ],
    ("dual", "pair"): [
        (NOT_BASIC, True, None),
        (NOT_BASIC, False, COSUSPENSION % 1),
        (NOT_BASIC, False, COSUSPENSION % 1),
        (NOT_BASIC, False, COSUSPENSION % 1),
    ],
    ("dual", "mult2"): [
        ((True, True, True, (0,), ((4, 6), (4, 6), True, True, True, False, 10)), True, None),
        ((False, False, True, (0,), None), False, COSUSPENSION % 1),
        ((False, False, True, (0,), None), False, COSUSPENSION % 1),
        ((False, False, True, (0,), None), False, COSUSPENSION % 1),
    ],
    ("cycle3", "one"): [
        ((False, True, False, None, None), True, None),
        ((False, True, False, None, None), True, None),
        ((True, True, True, (0,), ((7, 1), (7, 1), True, True, True, True, 8)), True, None),
        ((False, False, False, None, None), False, COSUSPENSION % 3),
    ],
    ("cycle3", "all"): [
        ((True, True, True, (2, 0, 1), ((9, 6), (9, 6), True, True, True, False, 15)), True, None),
        ((False, False, True, (1, 2, 0), None), False, COSUSPENSION % 1),
        ((False, False, True, (0, 1, 2), None), False, COSUSPENSION % 1),
        ((False, False, True, (2, 0, 1), None), False, COSUSPENSION % 1),
    ],
    ("cycle3", "pair"): [
        ((False, True, False, None, None), True, None),
        ((False, False, False, None, None), False, COSUSPENSION % 1),
        ((False, False, True, (0, 1), None), False, COSUSPENSION % 1),
        ((False, False, False, None, None), False, COSUSPENSION % 1),
    ],
    ("cycle3", "mult2"): [
        ((False, True, False, None, None), True, None),
        ((False, True, False, None, None), True, None),
        ((True, True, True, (0,), ((8, 2), (8, 2), True, True, True, True, 10)), True, None),
        ((False, False, False, None, None), False, COSUSPENSION % 3),
    ],
    ("loewy3", "one"): [
        ((False, True, False, None, None), True, None),
        ((True, True, True, (0,), ((10, 2), (10, 2), True, True, True, True, 11)), True, None),
        ((False, False, False, None, None), False, COSUSPENSION % 2),
        ((False, False, True, (0,), None), False, COSUSPENSION % 2),
    ],
    ("loewy3", "all"): [
        ((False, True, False, None, None), True, ONE_SIDED),
        ((False, False, True, (0, 1, 2), None), False, ONE_SIDED),
        ((False, False, False, None, None), False, ONE_SIDED),
        ((False, False, True, (0, 1, 2), None), False, ONE_SIDED),
    ],
    ("loewy3", "pair"): [
        ((False, True, False, None, None), True, None),
        ((False, False, True, (0, 1), None), False, COSUSPENSION % 1),
        ((False, False, False, None, None), False, COSUSPENSION % 1),
        ((False, False, True, (0, 1), None), False, COSUSPENSION % 1),
    ],
    ("loewy3", "mult2"): [
        ((False, True, False, None, None), True, None),
        ((True, True, True, (0,), ((11, 4), (11, 4), True, True, True, True, 13)), True, None),
        ((False, False, False, None, None), False, COSUSPENSION % 2),
        ((False, False, True, (0,), None), False, COSUSPENSION % 2),
    ],
    ("cycle3_gf", "one"): [
        ((False, True, False, None, None), True, None),
        ((False, True, False, None, None), True, None),
        ((True, True, True, (0,), ((7, 1), (7, 1), True, True, True, True, 8)), True, None),
        ((False, False, False, None, None), False, COSUSPENSION % 3),
    ],
    ("cycle3_gf", "all"): [
        ((True, True, True, (2, 0, 1), ((9, 6), (9, 6), True, True, True, False, 15)), True, None),
        ((False, False, True, (1, 2, 0), None), False, COSUSPENSION % 1),
        ((False, False, True, (0, 1, 2), None), False, COSUSPENSION % 1),
        ((False, False, True, (2, 0, 1), None), False, COSUSPENSION % 1),
    ],
    ("cycle3_gf", "pair"): [
        ((False, True, False, None, None), True, None),
        ((False, False, False, None, None), False, COSUSPENSION % 1),
        ((False, False, True, (0, 1), None), False, COSUSPENSION % 1),
        ((False, False, False, None, None), False, COSUSPENSION % 1),
    ],
    ("cycle3_gf", "mult2"): [
        ((False, True, False, None, None), True, None),
        ((False, True, False, None, None), True, None),
        ((True, True, True, (0,), ((8, 2), (8, 2), True, True, True, True, 10)), True, None),
        ((False, False, False, None, None), False, COSUSPENSION % 3),
    ],
}


def _mirror(check, ctx, t):
    try:
        check(ctx, t, None)
    except AuditFailed as exc:
        return str(exc)
    return None


def _audit(ctx, t):
    try:
        r = spherical.syz_audit(ctx, t, with_tilting=True)
    except AuditFailed as exc:
        return str(exc)
    except SphertwistError as exc:
        return "refused", str(exc)
    ta = r.tilting_audit
    fields = None if ta is None else (
        ta.I0_dims, ta.D0_dims, ta.biperfect, ta.rho_iso, ta.lambda_iso,
        ta.composite_iso_to_projE, ta.tensor_dim,
    )
    return r.side1.verdict, r.side2.rigid, r.side2.add_periodic, r.side2.tau, fields


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_side_two_matches_the_whole_sum_route(name, kind):
    a = ALGEBRAS[name]()
    ctx = build_context(a, Module.regular(a), extra(a, kind))
    got = []
    for t in WINDOWS:
        rigid = spherical.rigidity_check(ctx, t)
        mirror = _mirror(spherical._assert_mirror_properties, ctx, t)
        assert rigid == side_two_reference.rigidity_check(ctx, t), t
        assert mirror == _mirror(side_two_reference._assert_mirror_properties, ctx, t), t
        got.append((_audit(ctx, t), rigid, mirror))
    assert got == PINNED[name, kind]


def test_a_catalog_listing_one_summand_twice_is_refused():
    # over the dual numbers ΩS ≅ S, so in the catalog S, ΩS the syzygy
    # of S has both summands as partners
    a = dual_numbers()
    s = simple_modules(a)[0]
    ctx = build_context(a, Module.regular(a), [(s, 1), (syzygy(s), 1)])
    for t in WINDOWS:
        with pytest.raises(SphertwistError, match="summands 0 and 1 ") as exc:
            spherical.permutation_tau(ctx, t)
        assert not isinstance(exc.value, AuditFailed)
    # S once, with multiplicity 2, audits cleanly
    ctx = build_context(a, Module.regular(a), [(s, 2)])
    assert spherical.permutation_tau(ctx, 2) == (0,)
    report = spherical.syz_audit(ctx, 2, with_tilting=True)
    assert report.side1.verdict and report.side2.verdict
    assert report.tilting_audit.tensor_dim == 10


# per workload at seed 0: (hom_space calls, unknowns) of the set-up, and
# the most unknowns the solve may take; the whole-sum add-membership
# took 212 (36 calls) on ladder_cycle4 and 55 (13 calls) on tilting_cycle3.
# Set-up solves one Hom(X, T) per extra summand X and nothing for the
# ideal of maps through projectives; the envelope route for that ideal
# took (8, 56), (2, 9) and (6, 33)
HOM_COUNTS = {
    "ladder_cycle4": ((4, 48), 56),
    "tilting_cycle3": ((1, 7), 33),
    "twist_cycle3_gf": ((3, 27), 0),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_side_two_solves_small_hom_spaces_and_builds_no_sum(name, monkeypatch):
    setup, solve, field = WORKLOADS[name]
    homs = count_calls(monkeypatch, modules, "hom_space")
    # the direct_sum calls add_periodicity_check makes itself, outside
    # the ladder steps of `_suspension` (whose covers are sums of pieces)
    stack, opened_names, sums = [], [], []

    def opened(fn):
        def call(*args):
            stack.append(fn.__name__)
            opened_names.append(fn.__name__)
            try:
                return fn(*args)
            finally:
                stack.pop()
        return call

    def summing(*args, _direct_sum=modules.direct_sum):
        if stack[-1:] == ["add_periodicity_check"]:
            sums.append(args)
        return _direct_sum(*args)

    patch_everywhere(monkeypatch, modules, "direct_sum", summing)
    patch_everywhere(monkeypatch, spherical, "add_periodicity_check",
                     opened(spherical.add_periodicity_check))
    monkeypatch.setattr(spherical, "_suspension", opened(spherical._suspension))
    ctx = setup(field)
    (calls, unknowns), bound = HOM_COUNTS[name]
    assert (len(homs), sum(m.dim * n.dim for m, n in homs)) == (calls, unknowns)
    solve(ctx)
    assert sum(m.dim * n.dim for m, n in homs[calls:]) <= bound
    assert opened_names.count("add_periodicity_check") == (name != "twist_cycle3_gf")
    assert sums == []
