"""Hom read off recorded resolutions by Yoneda, across the twist layer.

`hom_complex`, the unit certificate, the twist and its counit triangle
read Hom(⊕ eᵢ·A, N) ≅ ⊕ N·eᵢ off recorded covers; the twist and the
triangle first turn Hom into an injective coresolution of c into Hom
out of a resolution of D(c) over the opposite algebra.  They are
checked against the hom-space routes kept in `hom_complex_reference`
and `twist_reference`: the cohomology profile of every pair of perfect
models at several shifts, every unit verdict, every twist complex (term
dimensions, differential ranks, cohomology) and every counit-triangle
profile must agree.  The inputs are the surjections onto the stable
quotients of cyclic Nakayama algebras (with all simples, and with one
simple, as extra summands), UT2 and a quotient of the linear path
1 → 2 → 3 onto their semisimple parts, the projection k × k → k, over
Q and F_p, and k[x]/(x²) × k onto k over Q.
"""

import functools

import pytest

from sphertwist import modules
from sphertwist.algebra import quotient_surjection
from sphertwist.errors import CapExceeded, SphertwistError
from sphertwist.exactlin import QQ, Matrix, PrimeField, rank
from sphertwist.frobenius import _indecomposable_projectives, build_context
from sphertwist.algebra import lift_idempotents
from sphertwist.modules import (
    Module,
    ModuleHom,
    _idempotent_piece,
    _piece_sum,
    simple_modules,
)
from sphertwist import resolutions
from sphertwist.twist import (
    ChainComplex,
    _eliminate_units,
    _kernel_data,
    _twist_core,
    _unit_faithful_on_cohomology,
    cohomology_dims,
    equivalence_certificate,
    hom_complex,
    perfect_model,
    shift,
    twist_apply,
    twist_triangle_check,
)

import hom_complex_reference as reference
import twist_reference
from patching import count_calls, patch_everywhere
from fixture_algebras import (
    cyclic_nakayama,
    dual_numbers,
    dual_numbers_times_field,
    linear_path,
    matrix_units_2,
    product_field_pair,
    two_vertex_arrow,
)

GF = PrimeField(32003)
SHIFTS = (-2, 0, 1)


def kill(a, labels):
    return quotient_surjection(
        a, [a.basis_vector(a.basis_labels.index(x)) for x in labels])


def nakayama_surjection(n, field, one_simple):
    a = cyclic_nakayama(n, field=field)
    sims = simple_modules(a)
    extra = [(sims[0], 1)] if one_simple else [(s, 1) for s in sims]
    return build_context(a, Module.regular(a), extra).to_stable


SURJECTIONS = {
    "cycle%d_%s_%s" % (n, kind, name): (
        lambda n=n, field=field, kind=kind:
            nakayama_surjection(n, field, kind == "one"))
    for n in (2, 3, 4)
    for kind in ("all", "one")
    for name, field in (("Q", QQ), ("GF32003", GF))
}
for _name, _field in (("Q", QQ), ("GF32003", GF), ("GF7", PrimeField(7))):
    SURJECTIONS["ut2_" + _name] = lambda f=_field: kill(two_vertex_arrow(f), ["a"])
    SURJECTIONS["path3_" + _name] = lambda f=_field: kill(linear_path(3, f), ["a", "b", "a*b"])
# a projective kernel whose block has simples of infinite injective
# dimension, so the cut of a twist reads the coresolution past its depth
SURJECTIONS["dualxk_Q"] = lambda: kill(dual_numbers_times_field(QQ), ["one1", "x"])


@functools.lru_cache(maxsize=None)
def built(name):
    return SURJECTIONS[name]()


@functools.lru_cache(maxsize=None)
def models_of(name):
    """Perfect models of the twists of the indecomposable projectives
    (every kernel here has a finite resolution)."""
    p = built(name)
    kernel = _kernel_data(p, None)
    return [
        perfect_model(_twist_core(p, piece, kernel)[0])
        for piece in _indecomposable_projectives(p.source)
    ]


@pytest.fixture(params=sorted(SURJECTIONS))
def name(request):
    return request.param


def test_hom_complex_matches_the_hom_space_route(name):
    models = models_of(name)
    for x in models:
        assert all(t.covered is not None for t in x.terms)
        for y in models:
            for s in SHIFTS:
                target = shift(y, s)
                got = cohomology_dims(hom_complex(x, target))
                assert got == cohomology_dims(reference.hom_complex(x, target))


def test_unit_verdict_matches_the_hom_space_route(name):
    surjection = built(name)
    k_mod, _acting, res = _kernel_data(surjection, None)
    assert _unit_faithful_on_cohomology(surjection, res) == (
        reference.unit_faithful_on_cohomology(surjection, k_mod))


@pytest.mark.parametrize("field", [QQ, PrimeField(7)])
def test_unit_verdict_is_negative_for_k_times_k_onto_k(field):
    # K = v·A ≅ k is projective, so RHom(K, A) is Hom(vA, A) ≅ A·v = kv
    # in degree 0; u acts on it by zero, so A does not act faithfully
    a = product_field_pair(field)
    p = quotient_surjection(a, [a.basis_vector(1)])
    k_mod, _acting, res = _kernel_data(p, None)
    assert _unit_faithful_on_cohomology(p, res) is False
    assert reference.unit_faithful_on_cohomology(p, k_mod) is False


def ut2_model():
    u = two_vertex_arrow(QQ)
    p = kill(u, ["a"])
    return perfect_model(twist_apply(p, Module.regular(u)))


FIXTURE_ALGEBRAS = {
    "dual_Q": lambda: dual_numbers(QQ),
    "dual_GF7": lambda: dual_numbers(PrimeField(7)),
    "cycle3_Q": lambda: cyclic_nakayama(3),
    "ut2_Q": lambda: two_vertex_arrow(QQ),
    "path3_GF7": lambda: linear_path(3, PrimeField(7)),
    "kxk_Q": lambda: product_field_pair(QQ),
    "m2_Q": lambda: matrix_units_2(QQ),
}


@pytest.mark.parametrize("algebra", sorted(FIXTURE_ALGEBRAS))
def test_degree_zero_of_hom_out_of_a_model_is_hom(algebra):
    # a projective e·A in degree 0 is its own model, and chain maps
    # between stalks in degree 0 have no homotopies, so H⁰ is Hom(e·A, N)
    a = FIXTURE_ALGEBRAS[algebra]()
    targets = simple_modules(a) + [Module.regular(a), Module.coregular(a)]
    for piece in _indecomposable_projectives(a):
        model = perfect_model(ChainComplex(a, 0, [piece], []))
        for n in targets:
            got = cohomology_dims(hom_complex(model, ChainComplex(a, 0, [n], [])))
            assert got.get(0, 0) == len(modules.hom_space(piece, n))


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "GF7"])
def test_a_unit_cancelled_below_a_differential_corrects_it(field):
    # e₀A → e₀A ⊕ e₁A → eₓA with differentials (1, 0) and (0, g) for a
    # nonzero radical map g : e₁A → eₓA.  The identity block cancels
    # first, and the differential above it loses its e₀A rows, leaving
    # e₁A → eₓA by g, with the cohomology and the hom complexes of the
    # staircase it came from
    a = cyclic_nakayama(3, field)
    es = lift_idempotents(a)
    pieces = [_idempotent_piece(a, e)[0] for e in es]
    x, g = next(
        (x, h) for x in (0, 2) for h in modules.hom_space(pieces[1], pieces[x])
    )
    terms = [_piece_sum(a, [es[0]]), _piece_sum(a, es[:2]), _piece_sum(a, [es[x]])]
    n0, n1 = pieces[0].dim, pieces[1].dim
    d0 = Matrix.identity(field, n0).hstack(Matrix.zero(field, n0, n1))
    d1 = Matrix.zero(field, n0, pieces[x].dim).vstack(g.matrix)
    px = ChainComplex(a, 0, terms, [
        ModuleHom(terms[0], terms[1], d0), ModuleHom(terms[1], terms[2], d1)])
    out = _eliminate_units(px)
    assert out.lo == 1
    assert [t.covered.idempotents for t in out.terms] == [[es[1]], [es[x]]]
    assert out.maps[0].matrix == g.matrix
    assert cohomology_dims(out) == cohomology_dims(px) != {}
    for n in simple_modules(a) + [Module.regular(a)]:
        for s in (0, -1, -2):
            target = shift(ChainComplex(a, 0, [n], []), s)
            assert cohomology_dims(hom_complex(out, target)) == cohomology_dims(
                hom_complex(px, target))


def test_hom_complex_refuses_a_source_without_covers():
    model = ut2_model()
    a = model.algebra
    # the model's terms carry records; copies of them carry none
    bare_terms = [Module(a, t.dim, t.action) for t in model.terms]
    bare_maps = [ModuleHom(bare_terms[i], bare_terms[i + 1], h.matrix)
                 for i, h in enumerate(model.maps)]
    bare = ChainComplex(a, model.lo, bare_terms, bare_maps)
    assert all(t.covered is not None for t in model.terms)
    with pytest.raises(SphertwistError, match="no recorded cover"):
        hom_complex(bare, model)
    # the hom-space route needs no covers.  The twist of A is S₁ ⊕ S₁
    # (see tests/test_twist.py), whose endomorphisms are 2×2 matrices,
    # and Ext¹(S₁, S₁) = 0 since there is no loop at 1
    assert cohomology_dims(reference.hom_complex(bare, model)) == {0: 4}


def refuse_hom_space(monkeypatch):
    def refuse(*args):
        raise AssertionError("solved a hom-space system")

    patch_everywhere(monkeypatch, modules, "hom_space", refuse)


def test_hom_complex_solves_no_hom_space_system(monkeypatch):
    p, xs = built("cycle3_all_GF32003"), models_of("cycle3_all_GF32003")
    want = {(i, j): cohomology_dims(reference.hom_complex(x, y))
            for i, x in enumerate(xs) for j, y in enumerate(xs)}

    refuse_hom_space(monkeypatch)
    for (i, j), dims in want.items():
        assert cohomology_dims(hom_complex(xs[i], xs[j])) == dims
    # the twist is an equivalence: the shift-zero counts add up to the
    # dimension of the source algebra
    assert sum(dims.get(0, 0) for dims in want.values()) == p.source.dim


def test_the_twist_layer_solves_no_hom_space_system(monkeypatch):
    # the twist, its counit triangle and the unit certificate all read
    # Hom off recorded resolutions by duality and Yoneda
    p = built("cycle3_all_GF32003")
    u = two_vertex_arrow(QQ)
    q = kill(u, ["a"])
    refuse_hom_space(monkeypatch)
    assert equivalence_certificate(p).verdict
    # the values of tests/test_twist.py: Hom(e_2A, A) ≅ A·e_2
    assert cohomology_dims(twist_apply(q, Module.regular(u))) == {0: 2}
    rep = twist_triangle_check(q, Module.regular(u))
    assert rep.verdict and rep.cone_profile == {0: 2}


def over_source(calls, p):
    """The calls whose module lives over the source algebra; the
    resolutions of D(c) that carry the coresolutions live over its
    opposite."""
    return [args for args in calls if args[0].algebra is p.source]


def test_the_certificate_resolves_the_kernel_once(monkeypatch):
    p = built("cycle3_all_GF32003")
    calls = count_calls(monkeypatch, resolutions, "minimal_resolution")
    cert = equivalence_certificate(p)
    assert cert.verdict
    assert len(over_source(calls, p)) == 1


def test_the_certificate_reports_a_capped_model_as_imperfect():
    # the kernel resolves in length 1, within cap 2, but three of the six
    # twists spread over degrees 0..2, and the staircase of a perfect
    # model steps down past its support one degree per step, so cap 2
    # stops it: an honest negative, reported rather than raised
    p = built("cycle3_all_GF32003")
    res = _kernel_data(p, 2)[2]
    assert not res.truncated and res.length == 1
    cert = equivalence_certificate(p, cap=2)
    assert len(cert.images) == 6
    spread = [im for im in cert.images if im.support == (0, 2)]
    assert len(spread) == 3
    for im in spread:
        with pytest.raises(CapExceeded):
            perfect_model(im, cap=2)
    assert not cert.images_perfect and not cert.unit_map_bijective
    assert cert.endo_dim is None and cert.hom_table == {}
    assert not cert.verdict
    # one step more and the twist is certified an equivalence
    cert = equivalence_certificate(p, cap=3)
    assert cert.images_perfect and cert.verdict
    assert cert.endo_dim == p.source.dim == 15


def test_the_twist_resolves_the_kernel_once(monkeypatch):
    # the cross-check reads Ext off the kernel resolution the twist
    # already holds instead of resolving the kernel again
    p = built("cycle3_all_GF32003")
    calls = count_calls(monkeypatch, resolutions, "minimal_resolution")
    twist_apply(p, Module.regular(p.source))
    assert len(over_source(calls, p)) == 1


# ---------------------------------------------------------------------------
# the twist layer against the injective-ladder route


def twist_inputs(p):
    return _indecomposable_projectives(p.source) + simple_modules(p.source)


def shape(cx):
    return (cx.lo, [t.dim for t in cx.terms], [rank(h.matrix) for h in cx.maps],
            cohomology_dims(cx))


def test_twist_and_counit_triangle_match_the_ladder_route(name):
    # identical term dims, differential ranks and cohomology of every
    # twist, and identical counit-triangle profiles
    p = built(name)
    kernel = _kernel_data(p, None)
    for c in twist_inputs(p):
        want, cone_dims, window, dead = twist_reference.triangle_profiles(p, c, kernel)
        assert shape(_twist_core(p, c, kernel)[0]) == shape(want)
        rep = twist_triangle_check(p, c)
        assert (rep.cone_profile, rep.twist_profile, rep.compare_window,
                rep.counit_iso) == (cone_dims, cohomology_dims(want), window, dead)


def test_truncated_twist_matches_the_ladder_route():
    # FIX-A: the kernel k of k[x]/(x²) → k never resolves finitely
    a = dual_numbers(QQ)
    p = kill(a, ["x"])
    kernel = _kernel_data(p, None)
    for c in [Module.regular(a)] + simple_modules(a):
        got = _twist_core(p, c, kernel, window=(0, 3))[0]
        want, _ladder, _maps = twist_reference.twist_complex(p, c, kernel, window=(0, 3))
        assert got.truncated and want.truncated
        assert shape(got) == shape(want)
