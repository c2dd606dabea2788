"""The benchmark's workloads: inputs from a seed, one solve, golden checks.

Every workload starts from a cyclic Nakayama algebra (the n-cycle quiver
with all paths of length two killed) built with the public constructors.
The seed rotates the order in which the quiver's vertices are listed,
which permutes the basis, the idempotents and the simples the engine
sees; the algebra up to isomorphism, every invariant checked below and
the amount of work are unchanged.  Seed 0 lists the vertices as 1..n,
which is the ``cyclic_nakayama`` fixture of the test suite.

A workload is ``setup(seed) -> ctx``, ``solve(ctx) -> result`` and
``checks(ctx, result) -> [(label, ok)]``.
"""

from collections import namedtuple

# Calls go through the module attributes, so the tracer's wrappers, which
# are rebound in the sphertwist namespaces, see them.
from sphertwist import frobenius, homology, spherical, twist
from sphertwist.algebra import from_quiver
from sphertwist.exactlin import QQ, PrimeField
from sphertwist.modules import Module, simple_modules


def cyclic_nakayama(n, rotation, field):
    """The n-cycle Nakayama algebra with its vertex list rotated."""
    order = [(i + rotation) % n + 1 for i in range(n)]
    vertices = [str(v) for v in order]
    arrows = [("a%d" % v, str(v), str(v % n + 1)) for v in order]
    relations = [[(1, ["a%d" % v, "a%d" % (v % n + 1)])] for v in order]
    return from_quiver(vertices, arrows, relations, field=field)


def _context(n, seed, field, one_summand):
    a = cyclic_nakayama(n, seed % n, field)
    sims = simple_modules(a)
    if one_summand:
        extra = [(sims[(seed // n) % n], 1)]
    else:
        extra = [(s, 1) for s in sims]
    return frobenius.build_context(a, Module.regular(a), extra)


# -- tilting_cycle3 -----------------------------------------------------------


def _tilting_setup(seed):
    return _context(3, seed, QQ, one_summand=True)


def _tilting_solve(ctx):
    return spherical.syz_audit(ctx, 4, with_tilting=True)


def _tilting_checks(ctx, r):
    ta = r.tilting_audit
    return [
        ("t", r.t == 4),
        ("verdicts", r.side1.verdict and r.side2.verdict and r.agreement),
        ("perfect", r.side1.perfect),
        ("ext_profile", r.side1.ext_profile == [[1, 0, 0, 0, 1]]),
        ("tau", r.side2.tau == (0,)),
        ("nakayama", r.nakayama.self_injective and r.nakayama.tau_eq_sigma),
        ("I0_dims", ta.I0_dims == (7, 1)),
        ("D0_dims", ta.D0_dims == (7, 1)),
        ("tilting_flags", ta.biperfect and ta.rho_iso and ta.lambda_iso),
        ("composite_iso", ta.composite_iso_to_projE is True),
        ("tensor_dim", ta.tensor_dim == 8),
        ("tensor_codim", ta.tensor_dim == ctx.endo.dim - ctx.stable_endo.dim),
    ]


# -- ladder_cycle4 ------------------------------------------------------------


def _ladder_setup(seed):
    return _context(4, seed, QQ, one_summand=False)


def _ladder_solve(ctx):
    return spherical.syz_audit(ctx, 2)


def _ladder_checks(ctx, r):
    nak = r.nakayama
    return [
        ("t", r.t == 2),
        ("verdicts", r.side1.verdict and r.side2.verdict and r.agreement),
        ("ext_profile", r.side1.ext_profile == [[1, 0, 1]] * 4),
        # one syzygy step walks each simple one seat around the cycle
        ("tau", r.side2.tau == (3, 0, 1, 2)),
        ("nakayama", nak.self_injective and nak.sigma == (0, 1, 2, 3)),
        ("tau_ne_sigma", nak.tau_eq_sigma is False),
        ("no_tilting", r.tilting_audit is None),
    ]


# -- twist_cycle3_gf ----------------------------------------------------------

GF = PrimeField(32003)


def _twist_setup(seed):
    return _context(3, seed, GF, one_summand=False)


def _twist_solve(ctx):
    return (homology.cotwist_data(ctx.to_stable),
            twist.equivalence_certificate(ctx.to_stable))


def _twist_checks(ctx, result):
    cd, cert = result
    table = cert.hom_table
    return [
        ("tor_dims", cd.tor_dims == [3, 0, 3]),
        ("concentrated", cd.concentrated == 2 and cd.complete),
        ("shift", cd.shift == -3),
        ("cone_dims", {d: k for d, k in cd.cone_dims.items() if k} == {-3: 3}),
        ("bimodule_dim", cd.cotwist_bimodule.dim == 3),
        ("verdict", cert.verdict is True),
        ("cert_flags", cert.images_perfect and cert.off_shift_zero
         and cert.unit_map_bijective),
        ("endo_dim", cert.endo_dim == ctx.endo.dim == 15),
        ("hom_table_size", len(table) == len(cert.images) ** 2 == 36),
        ("hom_table_shift0", sum(row[0] for row in table.values()) == 15),
        ("hom_table_off_shift", all(not k for row in table.values()
                                    for s, k in row.items() if s != 0)),
        ("hom_table_diagonal", all(table[(i, i)][0] == 1
                                   for i in range(len(cert.images)))),
    ]


Workload = namedtuple("Workload", "name setup solve checks")


WORKLOADS = {
    w.name: w
    for w in (
        Workload("tilting_cycle3", _tilting_setup, _tilting_solve, _tilting_checks),
        Workload("ladder_cycle4", _ladder_setup, _ladder_solve, _ladder_checks),
        Workload("twist_cycle3_gf", _twist_setup, _twist_solve, _twist_checks),
    )
}
