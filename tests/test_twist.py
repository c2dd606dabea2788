"""Complexes, cones and the twist around a surjection, on hand-sized cases.

The twist of p : A → B sends c to RHom_A(K, c) with K = ker p, so its
cohomology in degree i is Ext^i_A(K, c).  Every value frozen here is
derived by hand in the test that asserts it.

Testbeds: the dual numbers A = k[x]/(x²); FIX-A, its surjection onto
k = A/(x); UT2, the path algebra of the quiver 1 → 2 (arrow a, basis
e_1, e_2, a, paths composed left to right), with its surjection onto
k × k killing the arrow; k[x]/(x²) × k, with its projection onto k.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sphertwist.algebra import from_structure_constants, quotient_surjection
from sphertwist.errors import AlgebraMismatch, CapExceeded, NotAChainMap, SphertwistError
from sphertwist.exactlin import QQ, Matrix, PrimeField, kernel_basis
from sphertwist.modules import Module, ModuleHom, direct_sum, simple_modules
from sphertwist.twist import (
    ChainComplex,
    ChainMap,
    cohomology_dims,
    cone,
    equivalence_certificate,
    shift,
    twist_apply,
    twist_triangle_check,
)

from checks_reference import euler_characteristic, identity_hom, identity_surjection
from fixture_algebras import dual_numbers, dual_numbers_times_field, two_vertex_arrow


@pytest.fixture
def dual():
    a = dual_numbers(QQ)
    reg = Module.regular(a)
    return a, reg, ChainComplex(a, 0, [reg], [])


@pytest.fixture
def ut2():
    u = two_vertex_arrow(QQ)
    return u, quotient_surjection(u, [u.basis_vector(2)])


def test_cone_of_multiplication_by_x(dual):
    # x : A → A in degree 0; the cone puts the source in degree -1, so
    # H^-1 = ker x = xA and H^0 = coker x = A/xA, each of dimension 1
    a, reg, stalk = dual
    mult_x = ModuleHom(reg, reg, a.left_mult_matrix(a.basis_vector(1)))
    cn = cone(ChainMap(stalk, stalk, 0, [mult_x]))
    assert cn.support == (-1, 0)
    assert cohomology_dims(cn) == {-1: 1, 0: 1}


def test_a_complex_whose_differentials_do_not_compose_to_zero_is_refused(dual):
    # A --1--> A --1--> A over the dual numbers has d∘d = 1.  Its middle
    # degree would count dim A − rank d₁ − rank d₀ = 2 − 2 − 2 = −2: the
    # refusal at birth is what keeps `cohomology_dims` from a negative
    # dimension
    a, reg, _ = dual
    one = ModuleHom(reg, reg, Matrix.identity(a.field, 2))
    with pytest.raises(SphertwistError, match="fails d∘d = 0 at degree 0"):
        ChainComplex(a, 0, [reg, reg, reg], [one, one])
    # x∘x = 0, so A --x--> A --x--> A is a complex: x has rank 1, and
    # the middle degree counts 2 − 1 − 1 = 0
    x = ModuleHom(reg, reg, a.left_mult_matrix(a.basis_vector(1)))
    assert cohomology_dims(ChainComplex(a, 0, [reg, reg, reg], [x, x])) == {0: 1, 2: 1}


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["QQ", "GF7"])
def test_a_square_that_fails_to_commute_is_not_a_chain_map(field):
    # X = (A --x--> A) in degrees 0 and 1, over the dual numbers.  The
    # components (1, 0) fail the square at degree 0: 1·x = x but x·0 = 0.
    # Over GF(7) the zero is stored as 7·1 and the identity of the valid
    # map (1, 1) as 8·1, which are the same classes
    a = dual_numbers(field)
    reg = Module.regular(a)
    x = a.left_mult_matrix(a.basis_vector(1))
    cx = ChainComplex(a, 0, [reg, reg], [ModuleHom(reg, reg, x)])
    p = field.characteristic
    one = Matrix.identity(field, 2)
    zero, also_one = (
        (Matrix(field, [[7, 0], [0, 7]]), Matrix(field, [[8, 0], [0, 8]]))
        if p else (Matrix.zero(field, 2, 2), one)
    )
    ChainMap(cx, cx, 0, [ModuleHom(reg, reg, one), ModuleHom(reg, reg, also_one)])
    with pytest.raises(NotAChainMap, match="square at degree 0") as exc:
        ChainMap(cx, cx, 0, [ModuleHom(reg, reg, one), ModuleHom(reg, reg, zero)])
    k, lhs, rhs = exc.value.witness
    assert (k, lhs, rhs) == (0, x, Matrix.zero(field, 2, 2))


def test_cone_of_the_identity_is_acyclic(dual):
    # A in degree -1 maps isomorphically onto A in degree 0
    _, _, stalk = dual
    cn = cone(ChainMap(stalk, stalk, 0, [identity_hom(stalk.terms[0])]))
    assert len(cn.terms) == 2
    assert cohomology_dims(cn) == {}


def test_shift_moves_the_lowest_degree(dual):
    # c[n] has c^(k+n) in degree k, so a complex starting at 0 starts at -n
    _, _, stalk = dual
    assert shift(stalk, 0) == stalk
    assert shift(stalk, 2).lo == -2
    assert shift(stalk, -1).lo == 1


def test_identity_surjection_twists_to_zero(dual):
    # K = 0, so RHom(K, c) = 0; the counit Hom_A(A, c) → c is an
    # isomorphism, so its cone is zero as well
    a, reg, _ = dual
    p = identity_surjection(a)
    assert len(twist_apply(p, reg).terms) == 0
    rep = twist_triangle_check(p, reg)
    assert rep.profile == {}
    assert rep.counit_iso


def test_fix_a_needs_a_window(dual):
    # K = xA ≅ k, whose minimal resolution … → A → A → k never stops
    # (each syzygy is k again), so with no top degree the twist refuses
    a, reg, _ = dual
    p = quotient_surjection(a, [a.basis_vector(1)])
    with pytest.raises(CapExceeded):
        twist_apply(p, reg)
    # A is self-injective, so Ext^i(k, A) = 0 for i ≥ 1, and
    # Hom(k, A) = soc A = xA has dimension 1
    tw = twist_apply(p, reg, top=3)
    # the complex keeps the degree it was built to, though its trimmed
    # top is degree 0, and a shift moves the cut with the degrees
    assert tw.truncated and (tw.lo, tw.cut, tw.hi) == (0, 3, 0)
    moved = shift(tw, -2)
    assert (moved.lo, moved.cut) == (2, 5)
    # built to degree 5 the same terms are another complex
    assert twist_apply(p, reg, top=5) != tw
    assert cohomology_dims(tw) == {0: 1}


def test_projective_kernel_beside_a_self_injective_block():
    # A = k[x]/(x²) × k onto k kills K = the first block, a projective
    # e·A with e = one₁, so RHom(K, c) = Hom(e·A, c) = c·e in degree 0.
    # The simple S of the first block has c·e = S, although its injective
    # coresolution never stops (every cosyzygy is S again); the simple
    # of k has c·e = 0, and A·e is the first block, of dimension 2
    a = dual_numbers_times_field(QQ)
    p = quotient_surjection(a, [a.basis_vector(0), a.basis_vector(1)])
    s_block, s_k = sorted(simple_modules(a), key=lambda s: s.action[2].rows[0][0])
    for c, want in ((s_block, {0: 1}), (s_k, {}), (Module.regular(a), {0: 2})):
        assert cohomology_dims(twist_apply(p, c)) == want
        rep = twist_triangle_check(p, c)
        assert rep.profile == want


def test_ut2_regular_twist(ut2):
    # K = span{a} = a·A; a·e_2 = a, so K ≅ e_2A = span{e_2}, which is
    # projective.  Then Ext^i(K, A) = 0 for i ≥ 1 and
    # Hom(e_2A, A) ≅ A·e_2 = span{e_2, a}
    u, p = ut2
    tu = twist_apply(p, Module.regular(u))
    assert cohomology_dims(tu) == {0: 2}
    assert tu.support == (0, 0)
    rep = twist_triangle_check(p, Module.regular(u))
    assert rep.profile == {0: 2}


def test_ut2_simple_twists(ut2):
    # Hom(e_2A, S) ≅ S·e_2: one-dimensional for S_2, zero for S_1
    u, p = ut2
    profiles = [twist_triangle_check(p, s) for s in simple_modules(u)]
    assert sorted(len(r.profile) for r in profiles) == [0, 1]
    assert {0: 1} in [r.profile for r in profiles]


def test_ut2_hom_table(ut2):
    # The twist of e_jA is Hom(K, e_jA) ≅ e_jA·e_2, one-dimensional for
    # both j (spanned by a and by e_2).  A acts through its left action
    # on K = span{a}: e_1·a = a and e_2·a = a·a = 0, so both twists are
    # the simple S_1.  Hom(S_1, S_1) = k, Ext^1(S_1, S_1) = 0 (no loop at
    # 1), and negative shifts have no maps: every entry is {0: 1}
    _, p = ut2
    table = equivalence_certificate(p).hom_table
    assert len(table) == 4
    for row in table.values():
        assert {s: k for s, k in row.items() if k} == {0: 1}


def test_twist_inputs_are_modules_over_the_source(dual, ut2):
    # a stalk complex, a list of modules and a module over another
    # algebra are refused; a stalk in degree d is shift(twist_apply(p, m), -d)
    a, reg, stalk = dual
    p = identity_surjection(a)
    other = Module.regular(dual_numbers(PrimeField(7)))
    for check in (twist_apply, twist_triangle_check):
        for bad in (stalk, [reg], [reg, reg]):
            with pytest.raises(SphertwistError, match="must be a Module"):
                check(p, bad)
        with pytest.raises(AlgebraMismatch):
            check(p, other)
    u, q = ut2
    moved = shift(twist_apply(q, Module.regular(u)), -2)
    assert moved.support == (2, 2) and cohomology_dims(moved) == {2: 2}


def sum_profiles(profiles):
    total = {}
    for prof in profiles:
        for k, v in prof.items():
            total[k] = total.get(k, 0) + v
    return total


def test_the_counit_triangle_is_additive(ut2):
    # both profiles of a direct sum are the sums of the summands' profiles.
    # UT2 onto k × k: Hom(e_2A, S) ≅ S·e_2 is k for S_2 and 0 for S_1, so
    # the sum has {0: 1}.  k[x]/(x²) × k onto k: RHom(K, c) = c·one₁ in
    # degree 0 (see above), so the simple of k, the simple of the block
    # and the regular module give {}, {0: 1} and {0: 2}, summing to {0: 3}
    u, p = ut2
    a = dual_numbers_times_field(QQ)
    q = quotient_surjection(a, [a.basis_vector(0), a.basis_vector(1)])
    cases = (
        (p, simple_modules(u), {0: 1}),
        (q, simple_modules(a) + [Module.regular(a)], {0: 3}),
    )
    for surj, mods, want in cases:
        parts = [twist_triangle_check(surj, m) for m in mods]
        rep = twist_triangle_check(surj, direct_sum(mods)[0])
        assert rep.profile == want
        assert sum_profiles(r.profile for r in parts) == want


def test_the_certificate_reports_its_honest_negatives(dual, ut2):
    # identity of k[x]/(x²): K = 0, so the twist is zero — no images, K is
    # trivially perfect, no endomorphisms to count, and no equivalence
    a, _reg, _stalk = dual
    cert = equivalence_certificate(identity_surjection(a))
    assert cert.images == [] and cert.images_perfect
    assert cert.endo_dim is None and not cert.verdict
    # k[x]/(x²) onto k: K = xA ≅ k, whose syzygy is k again, so K has no
    # finite resolution and no image gets a perfect model
    cert = equivalence_certificate(quotient_surjection(a, [a.basis_vector(1)]))
    assert not cert.images_perfect and not cert.verdict
    # UT2 onto k × k: both twists are S_1 (test_ut2_hom_table), so the
    # shift-zero counts are 1 + 1 + 1 + 1 = 4 ≠ dim A = 3, and the unit
    # map cannot be bijective
    u, p = ut2
    cert = equivalence_certificate(p)
    assert cert.images_perfect and cert.off_shift_zero
    assert cert.endo_dim == 4 != u.dim
    assert not cert.unit_map_bijective and not cert.verdict


# ---------------------------------------------------------------------------
# Euler characteristics of random complexes of vector spaces


def scalar_matrices(data, field, nrows, ncols):
    entries = st.sampled_from(
        [0, 0, 1, 2, -1, 5] if field.characteristic
        else [Fraction(0), Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 3)]
    )
    return Matrix(field, [
        [field.coerce(data.draw(entries)) for _ in range(ncols)]
        for _ in range(nrows)
    ], ncols)


def random_complex(data, k):
    """A complex of k-vector spaces: each differential is a random map
    that kills the image of the one before it."""
    f = k.field
    lo = data.draw(st.integers(-2, 2))
    dims = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    terms = [Module(k, d, [Matrix.identity(f, d)]) for d in dims]
    maps = []
    allowed = Matrix.identity(f, dims[0])
    for i in range(len(dims) - 1):
        d = allowed.mul(scalar_matrices(data, f, allowed.ncols, dims[i + 1]))
        maps.append(ModuleHom(terms[i], terms[i + 1], d))
        allowed = kernel_basis(d)
    return ChainComplex(k, lo, terms, maps)


def homotopic_to_scalar(data, x, c):
    """c·1 + d∘h + h∘d for random maps hₖ : xᵏ → xᵏ⁻¹, a chain map x → x."""
    f = x.algebra.field
    if not x.terms:
        return ChainMap(x, x, 0, [])
    h = {
        k: scalar_matrices(data, f, x.term(k).dim, x.term(k - 1).dim)
        for k in range(x.lo, x.hi + 2)
    }
    comps = []
    for k in range(x.lo, x.hi + 1):
        n = x.term(k).dim
        fk = Matrix.identity(f, n).scale(c)
        fk = fk.add(x.differential(k).matrix.mul(h[k + 1]))
        fk = fk.add(h[k].mul(x.differential(k - 1).matrix))
        comps.append(ModuleHom(x.term(k), x.term(k), fk))
    return ChainMap(x, x, x.lo, comps)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_euler_characteristic_properties(data):
    field = data.draw(st.sampled_from([QQ, PrimeField(7)]))
    k = from_structure_constants(field, [[[1]]], [1])
    x, y = random_complex(data, k), random_complex(data, k)
    for c in (x, y):
        # the alternating sum of term dimensions is that of cohomology
        assert euler_characteristic(c) == sum(
            d if deg % 2 == 0 else -d for deg, d in cohomology_dims(c).items())
    # the cone of f : x → y has yᵏ ⊕ xᵏ⁺¹ in degree k, so
    # χ(cone f) = χ(y) − χ(x), for the zero map x → y and for a chain
    # map x → x homotopic to a scalar
    zero = ChainMap(x, y, 0, [])
    assert euler_characteristic(cone(zero)) == (
        euler_characteristic(y) - euler_characteristic(x))
    f = homotopic_to_scalar(data, x, data.draw(st.integers(0, 3)))
    assert euler_characteristic(cone(f)) == 0
    # the cone of an identity is acyclic
    identity = ChainMap(x, x, x.lo, [identity_hom(t) for t in x.terms])
    assert cohomology_dims(cone(identity)) == {}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_shifting_twice_is_one_shift(data):
    # c[m][n] = c[m + n]: the lowest degrees add, and the differentials
    # are flipped (−1)^m·(−1)^n = (−1)^(m+n) times
    field = data.draw(st.sampled_from([QQ, PrimeField(7)]))
    k = from_structure_constants(field, [[[1]]], [1])
    c = random_complex(data, k)
    m, n = data.draw(st.integers(-3, 3)), data.draw(st.integers(-3, 3))
    assert shift(shift(c, m), n) == shift(c, m + n)
