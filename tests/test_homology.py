"""Derived-functor tests with two-route oracles.

Every dimension list asserted here is frozen from an independent path:
Tor is computed by resolving either argument and the routes must agree;
the tensor square of a surjection, which resolves the target as a right
module over the source, is recomputed by `tor_dims` with the target
resolved as a left module instead, and compared against the enveloping
route kept in `tensor_square_reference`, which resolves the target as a
bimodule; Ext over a self-injective algebra is cross-checked against
stable homs of syzygy powers.  The cycle fixture's twisting permutation
is re-derived from resolution shapes inside the test rather than
hardcoded.
"""

import sys

import pytest

from sphertwist import algebra, exactlin, homology, modules, twist
from sphertwist.algebra import enveloping, opposite, quotient_surjection
from sphertwist.errors import AuditFailed, SphertwistError
from sphertwist.exactlin import (
    QQ,
    Matrix,
    PrimeField,
    Preimages,
    kernel_basis,
    rank,
    solve,
)
from sphertwist.frobenius import (
    build_context,
    dual_module,
    stable_hom,
    suspension_power,
)
from sphertwist.homology import (
    Bimodule,
    _lift_left_multiplication,
    _yoneda_blocks,
    _yoneda_precompose,
    cotwist_data,
    ext_dims,
    left_module_along,
    tensor_square,
    tor_dims,
    tor_from_resolution,
)
from sphertwist.modules import (
    Module,
    generator_indices,
    hom_space,
    restrict_scalars,
    simple_modules,
    submodule,
)
from sphertwist.resolutions import (
    extract_shape,
    minimal_resolution,
    partially_minimal_resolution,
    stable_idempotent_module,
    stable_module,
)

from checks_reference import find_isomorphism, identity_surjection, is_projective
from exactlin_reference import solve_matrix
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
from patching import patch_everywhere
import tensor_square_reference as reference
import vectors
from tensor_square_reference import bimodule_carrier, regular_bimodule


# ---------------------------------------------------------------------------
# shared fixtures


def assert_commute_on_every_basis_pair(bimod):
    """The full check the constructor replaces by generator pairs."""
    for i, li in enumerate(bimod.left_mats):
        for j, rj in enumerate(bimod.right_mats):
            assert li.mul(rj) == rj.mul(li), (bimod, i, j)


@pytest.fixture(autouse=True)
def every_bimodule_commutes_on_basis_pairs(monkeypatch):
    """Record each bimodule that passes its constructor during a test,
    then check commutation on every pair of basis elements."""
    built = []
    init = Bimodule.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(Bimodule, "__init__", recording)
    yield
    monkeypatch.undo()
    for bimod in built:
        assert_commute_on_every_basis_pair(bimod)


@pytest.fixture(scope="module")
def dual():
    a = dual_numbers()
    return a, simple_modules(a)[0]


@pytest.fixture(scope="module")
def dual_to_point(dual):
    a, _ = dual
    return quotient_surjection(a, [a.basis_vector(1)])


@pytest.fixture(scope="module")
def ctx_dual(dual):
    a, s = dual
    return build_context(a, Module.regular(a), [(s, 1)])


@pytest.fixture(scope="module")
def ctx_cycle():
    a = cyclic_nakayama(3)
    sims = simple_modules(a)
    return build_context(a, Module.regular(a), [(x, 1) for x in sims])


@pytest.fixture(scope="module")
def cycle_cotwist(ctx_cycle):
    return cotwist_data(ctx_cycle.to_stable)


def all_simples_context(a):
    return build_context(a, Module.regular(a), [(x, 1) for x in simple_modules(a)])


def kill_paths(a, paths, sheared=False):
    """a onto its quotient by the span of the named paths, which must be
    an ideal; sheared, a is first rewritten in the basis `shear` gives,
    so that its idempotents are no longer 0/1 vectors."""
    ideal = [a.basis_vector(a.basis_labels.index(x)) for x in paths]
    if sheared:
        a, change = rebased(a, shear(a.dim))
        ideal = [change.apply_to_row(v) for v in ideal]
    return quotient_surjection(a, ideal)


def ideal_bimodule(p):
    """I = ker p as a B-bimodule when I² = 0: B acts through any lift."""
    a, b, f = p.source, p.target, p.source.field
    ideal = p.kernel_basis.transpose()
    lifts = solve_matrix(p.matrix.transpose(), Matrix.identity(f, b.dim)).transpose()

    def action(side):
        return [
            Matrix.from_pairs(
                f, [solve(ideal.transpose(), side(x, v)) for v in ideal.pairs], ideal.nrows
            )
            for x in lifts.pairs
        ]

    return Bimodule(b, b, action(lambda x, v: a.mul_vec(x, v)),
                    action(lambda x, v: a.mul_vec(v, x)))


def bimodule_isomorphism(m, n):
    """An invertible matrix intertwining both action families, or None.

    The right-module homs m → n that also intertwine the left family
    are the kernel of a small linear system in their coordinates; its
    basis vectors and their pairwise sums are tried, so None is evidence
    rather than proof, as with `find_isomorphism`."""
    f = m.left_algebra.field
    homs = [h.matrix for h in hom_space(m.restrict_right(), n.restrict_right())]
    if m.dim != n.dim or not homs:
        return None
    cols = []
    for h in homs:
        col = []
        for lm, ln in zip(m.left_mats, n.left_mats):
            col.extend(e for row in lm.mul(h).sub(h.mul(ln)).rows for e in row)
        cols.append(col)
    both = kernel_basis(Matrix(f, cols, len(cols[0])).transpose())
    tries = [vectors.dense(f, both.column(j), both.nrows) for j in range(both.ncols)]
    tries += [[f.add(x, y) for x, y in zip(u, v)]
              for i, u in enumerate(tries) for v in tries[i + 1:]]
    for coeffs in tries:
        mat = Matrix.zero(f, m.dim, n.dim)
        for c, h in zip(coeffs, homs):
            mat = mat.add(h.scale(c))
        if rank(mat) == m.dim:
            return mat
    return None


def block_profile(bimod):
    """Nonzero (left block, right block) component ranks of a bimodule."""
    out = {}
    for i, li in enumerate(bimod.left_mats):
        for j, rj in enumerate(bimod.right_mats):
            r = rank(li.mul(rj))
            if r:
                out[(i, j)] = r
    return out


# ---------------------------------------------------------------------------
# Ext


def test_ext_degree_zero_is_hom_dimension(dual):
    a, s = dual
    reg = Module.regular(a)
    for m, n in [(s, s), (reg, s), (s, reg), (reg, reg)]:
        assert ext_dims(m, n, 1) == [len(hom_space(m, n))]


def test_ext_simple_self_extensions_never_die(dual):
    a, s = dual
    assert ext_dims(s, s, 6) == [1] * 6


def test_ext_from_stable_quotient_module(ctx_dual):
    con = stable_module(ctx_dual)
    assert ext_dims(con, con, 5) == [1, 0, 1, 0, 0]


def test_ext_agrees_with_stable_homs(dual):
    a, s = dual
    dims = ext_dims(s, s, 4)
    for i in range(1, 4):
        om = suspension_power(s, -i)
        assert dims[i] == stable_hom(om, s)[0]


def test_ext_agrees_with_stable_homs_on_cycle():
    a = cyclic_nakayama(3)
    sims = simple_modules(a)
    for m in sims:
        for n in sims[:2]:
            dims = ext_dims(m, n, 4)
            for i in range(1, 4):
                assert dims[i] == stable_hom(suspension_power(m, -i), n)[0]


def test_ext_rejects_foreign_modules(dual):
    _, s = dual
    other = simple_modules(cyclic_nakayama(3))[0]
    with pytest.raises(SphertwistError, match="different algebras"):
        ext_dims(s, other, 2)
    assert ext_dims(s, s, 0) == []


# ---------------------------------------------------------------------------
# Tor, both routes


def test_tor_degree_zero_against_left_regular(dual):
    a, s = dual
    left_reg = Module.regular(opposite(a))
    for m in [s, Module.regular(a)]:
        assert tor_dims(m, left_reg, 1) == [m.dim]


def test_tor_point_with_point_never_dies(dual, dual_to_point):
    a, _ = dual
    p = dual_to_point
    right = restrict_scalars(p, Module.regular(p.target))
    left = left_module_along(p)
    assert tor_dims(right, left, 6) == [1] * 6
    assert tor_from_resolution(minimal_resolution(left, 6), right, 6) == [1] * 6


def test_tor_balance_battery(dual, ctx_dual):
    a, s = dual
    reg = Module.regular(a)
    pairs = [(s, dual_module(s)), (reg, dual_module(s)), (s, dual_module(reg))]
    b = cyclic_nakayama(3)
    sims = simple_modules(b)
    cases = pairs + [(sims[0], dual_module(sims[1])), (sims[2], dual_module(sims[2]))]
    con = stable_module(ctx_dual)
    cases.append((con, left_module_along(ctx_dual.to_stable)))
    for m, n in cases:
        first = tor_dims(m, n, 4)
        second = tor_from_resolution(minimal_resolution(n, 4), m, 4)
        assert first == second


def test_tor_of_stable_quotient_with_itself(ctx_dual):
    con = stable_module(ctx_dual)
    left = left_module_along(ctx_dual.to_stable)
    assert tor_dims(con, left, 5) == [1, 0, 1, 0, 0]
    assert tor_from_resolution(minimal_resolution(left, 5), con, 5) == [1, 0, 1, 0, 0]


def test_tor_rejects_wrong_sided_arguments(dual):
    a, s = dual
    with pytest.raises(SphertwistError):
        tor_dims(s, s, 2)  # second argument must live over the opposite


# ---------------------------------------------------------------------------
# the tor bimodule of a surjection


def test_tor_bimodule_of_stable_point(ctx_dual):
    data = cotwist_data(ctx_dual.to_stable)
    assert data.concentrated == 2
    bi = data.cotwist_bimodule
    assert bi.dim == 1
    assert bi.left_algebra is ctx_dual.stable_endo
    assert bi.right_algebra is ctx_dual.stable_endo
    assert is_projective(bi.restrict_right()) and is_projective(bi.restrict_left())


def _tamper_square(monkeypatch, change):
    """Make `cotwist_data` read a tensor square that change has edited."""
    real = homology.tensor_square

    def tampered(p, cap=None):
        square = real(p, cap=cap)
        change(square)
        return square

    monkeypatch.setattr(homology, "tensor_square", tampered)


def test_a_degree_zero_tensor_square_off_the_target_is_refused(monkeypatch, ctx_dual):
    # Tor_0 = B ⊗_A B = B; one more dimension in degree 0 is refused
    def bump(square):
        square.homology_dims[0] += 1

    _tamper_square(monkeypatch, bump)
    with pytest.raises(SphertwistError, match="degree-zero tensor square must match"):
        cotwist_data(ctx_dual.to_stable)


def test_a_cone_profile_off_the_homology_profile_is_refused(monkeypatch, ctx_dual):
    # concentrated in {0, 2}, the cone lives in degree -3 alone; a cone
    # dimension in degree 0 is refused, with the cone profile as witness
    def bump(square):
        square.cone_dims[0] += 1

    _tamper_square(monkeypatch, bump)
    with pytest.raises(SphertwistError, match="cone profile disagrees") as info:
        cotwist_data(ctx_dual.to_stable)
    assert info.value.witness[0] == 1 and info.value.witness[-3] == 1


def test_tor_bimodule_refuses_spread_homology(dual_to_point):
    data = cotwist_data(dual_to_point)
    assert data.concentrated is None and data.cotwist_bimodule is None


def test_tor_bimodule_realizes_resolution_permutation(ctx_cycle, cycle_cotwist):
    bi = cycle_cotwist.cotwist_bimodule
    assert bi.dim == 3
    # the permutation from the resolution shapes, derived independently
    tau = {}
    for i in range(len(ctx_cycle.e_copies)):
        m = stable_idempotent_module(ctx_cycle, i)
        res = partially_minimal_resolution(ctx_cycle, m)
        tau[i] = extract_shape(ctx_cycle, res, 2)
    assert sorted(tau.values()) == [0, 1, 2]
    assert block_profile(bi) == {(i, tau[i]): 1 for i in range(3)}


def test_tor_bimodule_is_twisted_regular(ctx_cycle, cycle_cotwist):
    bi = cycle_cotwist.cotwist_bimodule
    b = ctx_cycle.stable_endo
    env = enveloping(b, b)
    tau = {}
    for i in range(len(ctx_cycle.e_copies)):
        m = stable_idempotent_module(ctx_cycle, i)
        res = partially_minimal_resolution(ctx_cycle, m)
        tau[i] = extract_shape(ctx_cycle, res, 2)
    inverse = {v: k for k, v in tau.items()}
    # the carrier over env: basis element (j, i) acts by l_i · r_j
    carrier = bimodule_carrier(bi, env)

    def right_twisted(perm):
        action = []
        for j in range(b.dim):
            rj = b.right_mult_matrix(b.basis_vector(perm[j]))
            for i in range(b.dim):
                li = b.left_mult_matrix(b.basis_vector(i))
                action.append(li.mul(rj))
        return Module(env, b.dim, action)

    assert find_isomorphism(carrier, right_twisted(inverse)) is not None
    assert find_isomorphism(carrier, right_twisted(tau)) is None
    assert find_isomorphism(carrier, regular_bimodule(b, env)) is None


def test_bimodule_audits_commuting_actions():
    m = matrix_units_2()
    # right multiplication on the right and its transpose on the left:
    # each family is a valid action of its side, but the two only
    # commute when the algebra is commutative
    right = [m.right_mult_matrix(m.basis_vector(j)) for j in range(m.dim)]
    left = [r.transpose() for r in right]
    with pytest.raises(SphertwistError, match="commute"):
        Bimodule(m, m, left, right)


def test_bimodule_rejects_a_non_commuting_generator_pair():
    # over k[x]/(x²) the one generator is x; on k² let x act by the
    # nilpotent N on the right and by Nᵀ on the left: each family is a
    # valid action, but N·Nᵀ ≠ Nᵀ·N
    a = dual_numbers()
    assert generator_indices(a) == [1]
    one = Matrix.identity(a.field, 2)
    n = Matrix(a.field, [[0, 1], [0, 0]], 2)
    with pytest.raises(AuditFailed, match="generator pair") as err:
        Bimodule(a, a, [one, n.transpose()], [one, n])
    assert err.value.witness == (1, 1)


def test_bimodule_audits_each_action_against_its_algebra():
    a = dual_numbers()
    left = [a.left_mult_matrix(a.basis_vector(i)) for i in range(a.dim)]
    right = [a.right_mult_matrix(a.basis_vector(j)) for j in range(a.dim)]
    Bimodule(a, a, left, right)
    # x acting as the identity on the right breaks x·x = 0
    broken = [right[0], Matrix.identity(a.field, a.dim)]
    with pytest.raises(AuditFailed, match="right action"):
        Bimodule(a, a, left, broken)


def test_bimodule_restrictions_of_the_regular_bimodule():
    a = cyclic_nakayama(3)
    bi = Bimodule(
        a, a,
        [a.left_mult_matrix(a.basis_vector(i)) for i in range(a.dim)],
        [a.right_mult_matrix(a.basis_vector(j)) for j in range(a.dim)],
    )
    right = bi.restrict_right()
    assert right.algebra is a
    assert find_isomorphism(right, Module.regular(a)) is not None
    left = bi.restrict_left()
    assert left.algebra is opposite(a)
    assert find_isomorphism(left, Module.regular(opposite(a))) is not None


def test_bimodule_side_projectivity_of_the_regular_and_the_simple_bimodule():
    a = dual_numbers()
    regular = Bimodule(
        a, a,
        [a.left_mult_matrix(a.basis_vector(i)) for i in range(a.dim)],
        [a.right_mult_matrix(a.basis_vector(j)) for j in range(a.dim)],
    )
    assert is_projective(regular.restrict_right())
    assert is_projective(regular.restrict_left())
    # k = A/(x), x acting by zero on both sides: a projective over the
    # local algebra A is free, of even dimension, and k has dimension 1
    one, zero = Matrix.identity(a.field, 1), Matrix.zero(a.field, 1, 1)
    simple = Bimodule(a, a, [one, zero], [one, zero])
    assert not is_projective(simple.restrict_right())
    assert not is_projective(simple.restrict_left())


# ---------------------------------------------------------------------------
# cotwist data


def test_cotwist_of_identity_has_vanishing_cone(dual):
    a, _ = dual
    data = cotwist_data(identity_surjection(a))
    assert data.tor_dims[0] == a.dim
    assert all(d == 0 for d in data.tor_dims[1:])
    assert all(d == 0 for d in data.cone_dims.values())
    assert data.concentrated is None


def test_cotwist_of_semisimple_identity_is_complete(ctx_cycle):
    b = ctx_cycle.stable_endo
    data = cotwist_data(identity_surjection(b))
    assert data.complete
    assert data.tor_dims == [b.dim]
    assert all(d == 0 for d in data.cone_dims.values())


def test_cotwist_readout_of_stable_point(ctx_dual):
    data = cotwist_data(ctx_dual.to_stable)
    assert data.complete
    assert data.tor_dims == [1, 0, 1]
    assert data.concentrated == 2
    assert data.shift == -3
    assert data.cotwist_bimodule.dim == 1
    assert data.cone_dims == {0: 0, -1: 0, -2: 0, -3: 1}


def test_cotwist_readout_of_cycle(cycle_cotwist):
    data = cycle_cotwist
    assert data.complete
    assert data.tor_dims == [3, 0, 3]
    assert data.concentrated == 2
    assert data.shift == -3
    assert is_projective(data.cotwist_bimodule.restrict_right())
    assert is_projective(data.cotwist_bimodule.restrict_left())


def test_cotwist_of_non_perfect_quotient_reports_profile(dual_to_point):
    data = cotwist_data(dual_to_point)
    assert not data.complete
    assert data.concentrated is None
    assert data.cotwist_bimodule is None
    assert data.tor_dims == [1] * len(data.tor_dims)
    assert len(data.tor_dims) >= 4
    assert data.cone_dims[0] == 0 and data.cone_dims[-1] == 0
    deeper = [d for deg, d in data.cone_dims.items() if deg <= -2]
    assert deeper and all(x == 1 for x in deeper)


def test_cotwist_profile_matches_one_sided_route(ctx_dual, ctx_cycle,
                                                 dual_to_point):
    # the tensor square resolves the target as a right module; tor_dims
    # resolves it that way too, and as a left module over the opposite
    for p in (ctx_dual.to_stable, ctx_cycle.to_stable, dual_to_point):
        data = cotwist_data(p)
        right = restrict_scalars(p, Module.regular(p.target))
        left = left_module_along(p)
        count = len(data.tor_dims)
        assert data.tor_dims == tor_dims(right, left, count)
        assert data.tor_dims == tor_from_resolution(
            minimal_resolution(left, count), right, count)


def test_cotwist_degree_zero_always_the_target(ctx_dual, ctx_cycle,
                                               dual_to_point):
    for p in (ctx_dual.to_stable, ctx_cycle.to_stable, dual_to_point):
        data = cotwist_data(p)
        assert data.tor_dims[0] == p.target.dim


def test_cotwist_of_dual_numbers_identity_is_projective(dual):
    # the target of the identity is A_A, which is projective: its
    # resolution is A itself, so Tor_0 = A ⊗_A A = A and nothing above;
    # the multiplication A ⊗_A A → A is an isomorphism, so the cone is
    # acyclic, and the single-term resolution is complete
    a, _ = dual
    data = cotwist_data(identity_surjection(a))
    assert data.tor_dims == [2]
    assert data.complete
    assert data.cone_dims == {-1: 0, 0: 0}
    assert data.concentrated is None and data.shift is None


@pytest.mark.parametrize("prime", [17, 31])
def test_cotwist_of_cycle_over_small_primes(prime):
    # the Q testbed of test_cotwist_readout_of_cycle over GF(p); the
    # endomorphism algebra has dim 15 < p, so its radical is defined
    ctx = all_simples_context(cyclic_nakayama(3, field=PrimeField(prime)))
    data = cotwist_data(ctx.to_stable)
    assert data.tor_dims == [3, 0, 3]
    assert data.complete and data.concentrated == 2
    assert data.shift == -3
    assert data.cone_dims == {0: 0, -1: 0, -2: 0, -3: 3}
    assert data.cotwist_bimodule.dim == 3


def test_cotwist_of_killing_a_long_path():
    # B = A/I with I = k·ab and I² = 0 over the hereditary path algebra
    # of 1 → 2 → 3: Tor_0 = B, Tor_1 = I/I² = k·ab, and gl.dim A = 1
    # leaves nothing above.  B ⊗_A B → B is an isomorphism, so the cone
    # is Tor_1 alone, at -2.  On k·ab = e_1·ab·e_3 the left action is
    # e_1's and the right action e_3's, and B is not commutative, so
    # this fixes which side is which.
    p = kill_paths(linear_path(3), ["a*b"])
    data = cotwist_data(p)
    assert data.tor_dims == [5, 1]
    assert data.complete and data.concentrated == 1 and data.shift == -2
    assert data.cone_dims == {0: 0, -1: 0, -2: 1}
    bi = data.cotwist_bimodule
    labels = p.target.basis_labels
    one, zero = Matrix.identity(QQ, 1), Matrix.zero(QQ, 1, 1)
    assert bi.left_mats == [one if x == "e_1" else zero for x in labels]
    assert bi.right_mats == [one if x == "e_3" else zero for x in labels]
    # no arrow leaves 3 and none enters 1, so e_3·B = k·e_3 and
    # B·e_1 = k·e_1 are one-dimensional: k·ab is projective on each side
    assert is_projective(bi.restrict_right()) and is_projective(bi.restrict_left())


def test_cotwist_builds_no_enveloping_algebra(ctx_cycle, monkeypatch):
    # the tensor square comes from a one-sided resolution; neither a
    # dense enveloping algebra nor a Kronecker product is needed
    def refuse(*args):
        raise AssertionError("cotwist built an enveloping algebra or a kronecker")

    for layer, name in ((algebra, "enveloping"), (exactlin, "kronecker")):
        original = getattr(layer, name)
        holders = [
            mod for key, mod in list(sys.modules.items())
            if key.split(".")[0] == "sphertwist"
            and getattr(mod, name, None) is original
        ]
        assert layer in holders
        for mod in holders:
            monkeypatch.setattr(mod, name, refuse)
    p = ctx_cycle.to_stable
    data = cotwist_data(p)
    assert data.tor_dims == [3, 0, 3]
    assert data.concentrated == 2 and data.cotwist_bimodule.dim == 3


# ---------------------------------------------------------------------------
# the one-sided tensor square against the enveloping route


@pytest.fixture(scope="module")
def ctx_cycle_gf():
    return all_simples_context(cyclic_nakayama(3, field=PrimeField(32003)))


SURJECTIONS = ["dual_stable", "dual_to_point", "dual_identity",
               "semisimple_identity", "cycle_stable", "cycle_stable_gf",
               "long_path", "long_path_sheared_gf", "cycle_arrow",
               "cycle_arrow_sheared_gf"]


@pytest.fixture
def surjection(request, dual, ctx_dual, dual_to_point, ctx_cycle, ctx_cycle_gf):
    return request.param, {
        "dual_stable": lambda: ctx_dual.to_stable,
        "dual_to_point": lambda: dual_to_point,
        "dual_identity": lambda: identity_surjection(dual[0]),
        "semisimple_identity": lambda: identity_surjection(ctx_cycle.stable_endo),
        "cycle_stable": lambda: ctx_cycle.to_stable,
        "cycle_stable_gf": lambda: ctx_cycle_gf.to_stable,
        "long_path": lambda: kill_paths(linear_path(3), ["a*b"]),
        "long_path_sheared_gf": lambda: kill_paths(
            linear_path(3, PrimeField(32003)), ["a*b"], True),
        # B_A has no finite resolution; its tensored differentials are
        # nonzero and B is not commutative
        "cycle_arrow": lambda: kill_paths(cyclic_nakayama(3), ["a1"]),
        "cycle_arrow_sheared_gf": lambda: kill_paths(
            cyclic_nakayama(3, PrimeField(32003)), ["a1"], True),
    }[request.param]()


def concentration(square):
    positive = [i for i, d in enumerate(square.homology_dims) if d and i > 0]
    return positive[0] if square.complete and len(positive) == 1 else None


@pytest.mark.parametrize("surjection", SURJECTIONS, indirect=True)
def test_tensor_square_matches_enveloping_reference(surjection):
    name, p = surjection
    cap = 4 if name.startswith("cycle_arrow") else None  # keeps the reference quick
    new = tensor_square(p, cap=cap)
    old = reference.TensorSquare(p, cap=cap)
    window = min(len(new.homology_dims), len(old.homology_dims))
    assert new.homology_dims[:window] == old.homology_dims[:window]
    if name == "dual_identity":
        # A_A is projective, while A ⊗ Aᵒᵖ resolves A without end: the
        # one documented difference, and both cones are acyclic
        assert new.complete and not old.complete
        assert new.homology_dims == [2] and set(old.homology_dims[1:]) == {0}
        assert not any(new.cone_dims.values())
        assert not any(old.cone_dims.values())
        return
    assert new.complete == old.complete
    assert new.homology_dims == old.homology_dims
    assert new.cone_dims == old.cone_dims
    t = concentration(new)
    assert t == concentration(old)
    data = cotwist_data(p, cap=cap)
    assert data.concentrated == t
    assert data.shift == (None if t is None else -t - 1)
    if t is None:
        return
    ours = data.cotwist_bimodule
    theirs = reference.tor_bimodule(old, t)
    b = p.target
    env = enveloping(b, b)
    assert find_isomorphism(bimodule_carrier(ours, env),
                            bimodule_carrier(theirs, env)) is not None
    assert is_projective(ours.restrict_right()) == is_projective(theirs.restrict_right())
    assert is_projective(ours.restrict_left()) == is_projective(theirs.restrict_left())


@pytest.mark.parametrize("n, paths, sheared", [
    (4, ["a*b", "b*c", "a*b*c"], False),
    (3, ["a*b"], True),
    (4, ["a*b", "b*c", "a*b*c"], True),
])
def test_tor_one_of_a_square_zero_quotient_is_the_ideal(n, paths, sheared):
    # tensoring 0 → I → A → B → 0 with B gives Tor_1(B, B) = I/I² = I,
    # with B acting on both sides through lifts; the path algebra is
    # hereditary, so nothing sits above degree 1, B ⊗_A B → B is an
    # isomorphism and the cone is I at -2.  On the four-vertex quiver
    # I = {ab, bc, abc} has a·bc = abc on the left and ab·c = abc on
    # the right, so arrows act on both sides
    p = kill_paths(linear_path(n), paths, sheared)
    data = cotwist_data(p)
    k = len(paths)
    assert data.tor_dims == [p.target.dim, k]
    assert data.complete and data.concentrated == 1 and data.shift == -2
    assert data.cone_dims == {0: 0, -1: 0, -2: k}
    assert bimodule_isomorphism(data.cotwist_bimodule, ideal_bimodule(p)) is not None


# ---------------------------------------------------------------------------
# Tor and the tensor square by duality through the Yoneda kernel


def test_tor_and_the_cotwist_use_no_balanced_tensor(ctx_dual, ctx_cycle,
                                                    dual_to_point, monkeypatch):
    # Tor reads D(P ⊗ N) as Hom(P, D N) and the tensor square reads its
    # complex off the Yoneda cochains, so neither forms a balancing
    # quotient; the values are those of the tests above
    def refuse(*args):
        raise AssertionError("a derived functor built a balanced tensor")

    patch_everywhere(monkeypatch, modules, "balanced_tensor", refuse)
    p = dual_to_point
    right = restrict_scalars(p, Module.regular(p.target))
    left = left_module_along(p)
    assert tor_dims(right, left, 6) == [1] * 6
    assert tor_from_resolution(minimal_resolution(left, 6), right, 6) == [1] * 6
    con = stable_module(ctx_dual)
    left = left_module_along(ctx_dual.to_stable)
    assert tor_dims(con, left, 5) == [1, 0, 1, 0, 0]
    assert tor_from_resolution(minimal_resolution(left, 5), con, 5) == [1, 0, 1, 0, 0]
    data = cotwist_data(ctx_cycle.to_stable)
    assert data.tor_dims == [3, 0, 3] and data.cotwist_bimodule.dim == 3


def precompose_from_the_map(n, d_matrix, source, target, source_blocks,
                            target_blocks):
    """φ ↦ φ∘d : Hom(P, N) → Hom(P′, N) read off whole matrices.

    Each basis map φ of Hom(P, N), a row v of the k-th Yoneda block, is
    written out as the matrix u ↦ v·xₖ(u) over the k-th components of
    the unit vectors u of P; d_matrix, the map P′ → P, times it is φ∘d,
    whose values at the generators of P′ are read at the pivots of their
    blocks."""
    f = n.algebra.field
    dim = target.term.dim
    comps = [target.components([(i, f.one())]) for i in range(dim)]
    rows = []
    for k, (k_rows, _) in enumerate(target_blocks):
        for v in k_rows.pairs:
            phi = Matrix.from_pairs(f, [n.apply(v, c[k]) for c in comps], n.dim)
            composite = d_matrix.mul(phi)
            row = []
            for g, (_, pivots) in zip(source.gens, source_blocks):
                value = vectors.dense(f, composite.apply_to_row(g), composite.ncols)
                row.extend(value[j] for j in pivots)
            rows.append(row)
    return Matrix(f, rows, sum(r.nrows for r, _ in source_blocks))


@pytest.mark.parametrize("surjection", SURJECTIONS, indirect=True)
def test_precompose_from_generator_images_matches_the_map(surjection):
    # the differentials of B_A's resolution and the lifts of left
    # multiplications, against N = D(_A B), the tensor square's
    # cochain module, and against A_A
    name, p = surjection
    cap = 4 if name.startswith("cycle_arrow") else None
    square = tensor_square(p, cap=cap)
    res = square.resolution
    covered = [t.covered for t in res.terms]
    f = p.source.field
    for n in (square.dual, Module.regular(p.source)):
        blocks = [_yoneda_blocks(n, ct.idempotents) for ct in covered]
        for i, d in enumerate(res.maps):
            src, tgt = covered[i + 1], covered[i]
            images = [d.apply(g) for g in src.gens]
            assert _yoneda_precompose(
                n, images, tgt, blocks[i + 1], blocks[i]
            ) == precompose_from_the_map(
                n, d.matrix, src, tgt, blocks[i + 1], blocks[i])
        preimages = [Preimages(res.augmentation.matrix)]
        preimages += [Preimages(d.matrix) for d in res.maps]
        b = p.target
        for t in range(min(3, len(covered))):
            ct = covered[t]
            for c in range(b.dim):
                images = _lift_left_multiplication(
                    square, b.basis_vector(c), t, preimages)
                lift = Matrix.from_pairs(f, [
                    ct.extend(images, [(i, f.one())]) for i in range(ct.term.dim)
                ], ct.term.dim)
                assert _yoneda_precompose(
                    n, images, ct, blocks[t], blocks[t]
                ) == precompose_from_the_map(n, lift, ct, ct, blocks[t], blocks[t])


WORKLOADS = ["tilting_cycle3", "ladder_cycle4", "twist_cycle3_gf"]


@pytest.fixture(scope="module")
def workload_contexts():
    """The benchmark's three contexts at seed 0: the 3-cycle with one
    simple summand over Q, the 4-cycle with all simples over Q and the
    3-cycle with all simples over GF(32003)."""
    one = cyclic_nakayama(3)
    return {
        "tilting_cycle3": build_context(
            one, Module.regular(one), [(simple_modules(one)[0], 1)]),
        "ladder_cycle4": all_simples_context(cyclic_nakayama(4)),
        "twist_cycle3_gf": all_simples_context(
            cyclic_nakayama(3, field=PrimeField(32003))),
    }


def assert_left_module_along_is_valid(p):
    # built without validation; the action is B's left regular one
    # restricted along the audited p, so every pair must pass
    left = left_module_along(p)
    assert left.algebra is opposite(p.source)
    left._validate()
    b = p.target
    for k in range(p.source.dim):
        img = p.apply(p.source.basis_vector(k))
        assert left.action[k].pairs == [
            b.mul_vec(img, b.basis_vector(j)) for j in range(b.dim)]


def assert_kernel_left_family_intertwines(p):
    # the kernel data carries D of K's left module: a right A-module whose
    # g acts by a matrix whose transpose, followed by K ⊆ A, is K ⊆ A
    # followed by left multiplication by g
    k_mod, k_incl = twist._kernel_module(p)
    if not k_mod.dim:
        return
    acting = twist._kernel_data(p, 1)[1]
    a = p.source
    assert acting.algebra is a and acting.dim == k_mod.dim
    left = submodule(Module.regular(opposite(a)), k_incl.matrix)[0]
    assert acting.action == [mat.transpose() for mat in left.action]
    for g, mat in enumerate(acting.action):
        assert mat.transpose().mul(k_incl.matrix) == k_incl.matrix.mul(
            a.left_mult_matrix(a.basis_vector(g)))


def assert_actions_are_the_multiplication_families(a):
    # the modules the twist and tensor layers take their actions from
    lefts = [a.left_mult_matrix(a.basis_vector(g)) for g in range(a.dim)]
    rights = [a.right_mult_matrix(a.basis_vector(g)) for g in range(a.dim)]
    assert Module.coregular(a).action == [mat.transpose() for mat in lefts]
    assert Module.regular(opposite(a)).action == lefts
    assert dual_module(Module.regular(a)).action == [mat.transpose() for mat in rights]


FIXTURE_ALGEBRAS = {
    "dual_numbers": dual_numbers,
    "cyclic3": lambda f: cyclic_nakayama(3, f),
    "truncated_cycle": lambda f: truncated_cycle(3, 3, f),
    "two_vertex_arrow": two_vertex_arrow,
    "linear_path3": lambda f: linear_path(3, f),
    "product_field_pair": product_field_pair,
    "dual_numbers_times_field": dual_numbers_times_field,
    "matrix_units_2": matrix_units_2,
    "nakayama3_hand_table": nakayama3_hand_table,
}


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["QQ", "GF7"])
@pytest.mark.parametrize("name", sorted(FIXTURE_ALGEBRAS))
def test_action_modules_are_the_multiplication_families(name, field):
    a = FIXTURE_ALGEBRAS[name](field)
    for alg in (a, opposite(a)):
        assert_actions_are_the_multiplication_families(alg)


@pytest.mark.parametrize("surjection", SURJECTIONS, indirect=True)
def test_action_modules_are_the_multiplication_families_on_surjections(surjection):
    p = surjection[1]
    assert_actions_are_the_multiplication_families(p.source)
    assert_actions_are_the_multiplication_families(p.target)


@pytest.mark.parametrize("name", WORKLOADS)
def test_action_modules_are_the_multiplication_families_on_workloads(
        name, workload_contexts):
    ctx = workload_contexts[name]
    for a in (ctx.ambient, ctx.endo, ctx.stable_endo):
        assert_actions_are_the_multiplication_families(a)


@pytest.mark.parametrize("surjection", SURJECTIONS, indirect=True)
def test_left_module_along_passes_the_full_validation(surjection):
    assert_left_module_along_is_valid(surjection[1])


@pytest.mark.parametrize("name", WORKLOADS)
def test_left_module_along_passes_the_full_validation_on_workloads(
        name, workload_contexts):
    assert_left_module_along_is_valid(workload_contexts[name].to_stable)


@pytest.mark.parametrize("surjection", SURJECTIONS, indirect=True)
def test_kernel_left_family_intertwines_the_inclusion(surjection):
    assert_kernel_left_family_intertwines(surjection[1])


@pytest.mark.parametrize("name", WORKLOADS)
def test_kernel_left_family_intertwines_the_inclusion_on_workloads(
        name, workload_contexts):
    assert_kernel_left_family_intertwines(workload_contexts[name].to_stable)
