"""The benchmark's three workloads at seed 0, over a field the caller
chooses: seed 0 lists the vertices of the n-cycle as 1..n, which is the
``cyclic_nakayama`` fixture, and a one-summand context takes the first
simple.

``WORKLOADS[name]`` is (setup(field) -> ctx, solve(ctx) -> result, the
field the benchmark runs it over).
"""

from sphertwist import homology, twist
from sphertwist.exactlin import QQ, PrimeField
from sphertwist.frobenius import build_context
from sphertwist.modules import Module, simple_modules
from sphertwist.spherical import syz_audit

from fixture_algebras import cyclic_nakayama

GF = PrimeField(32003)


def context(n, one_summand, field):
    a = cyclic_nakayama(n, field)
    sims = simple_modules(a)
    extra = [(sims[0], 1)] if one_summand else [(s, 1) for s in sims]
    return build_context(a, Module.regular(a), extra)


WORKLOADS = {
    "tilting_cycle3": (
        lambda f: context(3, True, f),
        lambda ctx: syz_audit(ctx, 4, with_tilting=True),
        QQ,
    ),
    "ladder_cycle4": (lambda f: context(4, False, f), lambda ctx: syz_audit(ctx, 2), QQ),
    "twist_cycle3_gf": (
        lambda f: context(3, False, f),
        lambda ctx: (homology.cotwist_data(ctx.to_stable),
                     twist.equivalence_certificate(ctx.to_stable)),
        GF,
    ),
}
