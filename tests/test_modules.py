"""Modules-as-representations: homs, simples, covers, add-membership.

`oracle_in_add` is an independent implementation of add-membership used
to cross-check the production criterion: m lies in add(n) iff the
projection onto m belongs to the two-sided ideal generated by the
projection onto n inside End(m ⊕ n).  The two formulations share no
code beyond the hom-space solver.
"""

from fractions import Fraction

import pytest

from sphertwist import exactlin
from sphertwist.algebra import from_quiver, from_structure_constants
from sphertwist.errors import AlgebraMismatch, NotASubmodule, NotSplit, ShapeError, SphertwistError
from sphertwist.exactlin import QQ, Matrix, PrimeField, SpanBuilder, rank
from sphertwist.homology import Bimodule
from sphertwist.modules import (
    Module,
    ModuleHom,
    _piece_sum,
    add_equivalent,
    cokernel_of,
    direct_sum,
    endomorphism_algebra,
    hom_space,
    in_add,
    kernel_of,
    module_radical,
    projective_cover,
    quotient,
    restrict_scalars,
    simple_modules,
    socle,
    submodule,
)
from sphertwist.algebra import quotient_surjection

from checks_reference import find_isomorphism, identity_hom, is_indecomposable
from fixture_algebras import (
    cyclic_nakayama,
    dual_numbers,
    product_field_pair,
    two_vertex_arrow,
)
from hom_reference import image_of
from test_yoneda_reads import sheared
import vectors


def oracle_in_add(m, n):
    """Ideal-membership formulation of add-membership (test oracle)."""
    f = m.algebra.field
    s, injs, projs = direct_sum([m, n])
    # projection endomorphisms of the sum: project then re-include
    pi_m = projs[0].matrix.mul(injs[0].matrix)
    pi_n = projs[1].matrix.mul(injs[1].matrix)
    ends = hom_space(s, s)
    width = s.dim * s.dim
    span = SpanBuilder(f, width)
    frontier = [pi_n]
    span.add(_flat(pi_n))
    while frontier:
        nxt = []
        for e in frontier:
            for h in ends:
                for prod in (h.matrix.mul(e), e.mul(h.matrix)):
                    if span.add(_flat(prod)):
                        nxt.append(prod)
        frontier = nxt
    return span.contains(_flat(pi_m))


def _flat(mat):
    return vectors.pairs(mat.field, [e for row in mat.rows for e in row])


def simple_over(algebra, kill_index):
    """Dim-1 module where basis element kill_index acts by zero."""
    one = Matrix.identity(algebra.field, 1)
    zero = Matrix.zero(algebra.field, 1, 1)
    action = [one] * algebra.dim
    action[kill_index] = zero
    return Module(algebra, 1, action)


def dense_first_incompatible_pair(m):
    """The first pair (i, j) with Mᵢ·Mⱼ ≠ M(bᵢbⱼ), by forming both
    matrices densely and comparing them pair by pair (test oracle)."""
    a = m.algebra
    for i in range(a.dim):
        for j in range(a.dim):
            product = a.mul_vec(a.basis_vector(i), a.basis_vector(j))
            if m.action[i].mul(m.action[j]) != m.action_of(product):
                return i, j
    return None


def unreduced(mat):
    """mat over F_p with every entry stored as its representative plus p."""
    p = mat.field.characteristic
    return Matrix(mat.field, [[e + p for e in row] for row in mat.rows], mat.ncols)


# ---------------------------------------------------------------------------
# action validation


def test_unreduced_entries_over_a_prime_field_count_as_their_class():
    # every entry of the regular module of the 3-cycle over GF(31)
    # stored as its residue plus 31: zeros as 31, ones as 32
    a = cyclic_nakayama(3, PrimeField(31))
    reg = Module.regular(a)
    action = [unreduced(mat) for mat in reg.action]
    m = Module(a, reg.dim, action)
    assert dense_first_incompatible_pair(m) is None


def tamper_names(m, base, elements):
    """Raise one entry of the matrix of one basis element g in
    ``elements`` by 1, over ``base``, the actions of m, for every cell,
    and check that validation refuses the result naming the pair the
    dense pair-by-pair comparison meets first, or accepts it when that
    comparison finds none.  When g has a coefficient u_g in the unit
    1 = Σ uₖ·bₖ, the same cell of the last other h in the unit's support
    is lowered by u_g/u_h, so the unit still acts as the identity.
    Returns the (pair, tampered action) of each refusal."""
    a, field = m.algebra, m.algebra.field
    unit = vectors.dense(field, a.unit, a.dim)
    named = []
    for g in elements:
        steps = [(g, 1)]
        if unit[g]:
            h = max(k for k in range(a.dim) if unit[k] and k != g)
            steps.append((h, field.neg(field.mul(unit[g], field.inv(unit[h])))))
        for r in range(m.dim):
            for c in range(m.dim):
                action = list(base)
                for k, step in steps:
                    rows = [list(row) for row in action[k].rows]
                    rows[r][c] += step
                    action[k] = Matrix(field, rows, m.dim)
                want = dense_first_incompatible_pair(
                    Module(a, m.dim, action, validate=False))
                if want is None:
                    # a raised entry the other actions never meet
                    Module(a, m.dim, action)
                    continue
                with pytest.raises(
                    SphertwistError, match=r"on pair \(%d,%d\)$" % want
                ):
                    Module(a, m.dim, action)
                named.append((want, action))
    return named


@pytest.mark.parametrize("field", [QQ, PrimeField(31)], ids=["QQ", "GF31"])
def test_a_non_multiplicative_action_names_the_dense_first_pair(field):
    # one entry of one arrow's matrix on the regular module of the
    # 3-cycle is raised by 1; over GF(31) every entry is also stored
    # unreduced.  Validation refuses the action and names the pair the
    # dense pair-by-pair comparison meets first
    a = cyclic_nakayama(3, field)
    reg = Module.regular(a)
    base = [unreduced(mat) for mat in reg.action] if field.characteristic else reg.action
    arrows = [g for g in range(a.dim) if not vectors.dense(field, a.unit, a.dim)[g]]
    named = [want for want, _ in tamper_names(reg, base, arrows)]
    assert len(named) > 50 and len(set(named)) > 3


def zero_acting_modules(field):
    """Modules of the 3-cycle on which some basis elements act by zero:
    a simple, the radical of A_A, the kernel of the cover of S₀ ⊕ S₁,
    and a simple and the radical over the 3-cycle in the sheared basis."""
    out = {}
    for label, a in (("", cyclic_nakayama(3, field)),
                     ("sheared ", sheared(cyclic_nakayama(3, field)))):
        reg, sims = Module.regular(a), simple_modules(a)
        out[label + "simple"] = sims[0]
        out[label + "radical"] = submodule(reg, module_radical(reg), check=False)[0]
        if not label:
            two = direct_sum(sims[:2])[0]
            out["cover kernel"] = kernel_of(projective_cover(two)[1])[0]
    return out


@pytest.mark.parametrize("field", [QQ, PrimeField(31)], ids=["QQ", "GF31"])
def test_a_tampered_module_with_zero_actions_names_the_dense_first_pair(field):
    # the tampers of the regular module above, on every basis element of
    # modules where some act by zero, which validation skips in a pair
    # only when both sides are identically zero.  A raised entry can
    # make a zero matrix nonzero, so that M(bᵢbⱼ) ≠ 0 on a pair where
    # Mᵢ = 0: on the simple and the cover kernel such a pair is the
    # dense first one
    zero_first = set()
    for label, m in zero_acting_modules(field).items():
        assert any(mat.is_zero() for mat in m.action), label
        base = [unreduced(mat) for mat in m.action] if field.characteristic else m.action
        named = tamper_names(m, base, range(m.algebra.dim))
        assert named, label
        if any(action[i].is_zero() for (i, _), action in named):
            zero_first.add(label)
    assert zero_first == {"simple", "cover kernel"}


@pytest.mark.parametrize("field", [QQ, PrimeField(31)], ids=["QQ", "GF31"])
def test_a_tampered_hom_names_the_dense_first_basis_element(field):
    # a map S → A_A from a simple into the regular module of the
    # 3-cycle, with one entry raised by 1 at every cell: ModuleHom names
    # the first basis element i with Mᵢ·X ≠ X·Nᵢ, and one tamper fails
    # first on an element that acts on the target only
    a = cyclic_nakayama(3, field)
    reg = Module.regular(a)
    named = []
    for s in simple_modules(a):
        (h,) = hom_space(s, reg)
        for c in range(reg.dim):
            rows = [list(row) for row in h.matrix.rows]
            rows[0][c] += 1
            x = Matrix(field, rows, reg.dim)
            want = next((i for i in range(a.dim)
                         if s.action[i].mul(x) != x.mul(reg.action[i])), None)
            if want is None:
                ModuleHom(s, reg, x)
                continue
            with pytest.raises(SphertwistError, match="intertwine basis element %d$" % want):
                ModuleHom(s, reg, x)
            named.append((s, want))
    assert any(s.action[i].is_zero() and not reg.action[i].is_zero() for s, i in named)


def test_validated_modules_and_bimodules_form_no_dense_product(monkeypatch):
    # the action axioms and the commuting of a bimodule's two families
    # are sparse residuals: no Matrix.mul is formed while they are checked
    def refuse(*args):
        raise AssertionError("validation formed a dense product")

    a = cyclic_nakayama(3)
    reg = Module.regular(a)
    left = [a.left_mult_matrix(a.basis_vector(i)) for i in range(a.dim)]
    right = [a.right_mult_matrix(a.basis_vector(i)) for i in range(a.dim)]
    monkeypatch.setattr(exactlin.Matrix, "mul", refuse)
    assert Module(a, reg.dim, reg.action).dim == a.dim
    bimod = Bimodule(a, a, left, right)
    assert bimod.restrict_right().dim == a.dim


# ---------------------------------------------------------------------------
# hom spaces


def test_identity_is_a_hom():
    m = Module.regular(dual_numbers())
    homs = hom_space(m, m)
    ident = Matrix.identity(QQ, 2)
    span = SpanBuilder(QQ, 4)
    for h in homs:
        span.add(_flat(h.matrix))
    assert span.contains(_flat(ident))


def test_hom_simple_into_regular_dual_numbers():
    a = dual_numbers()
    s = simple_over(a, 1)
    reg = Module.regular(a)
    homs = hom_space(s, reg)
    assert len(homs) == 1
    # the image is the socle span{x}
    assert homs[0].matrix.rows[0] == [Fraction(0), Fraction(1)]


def test_hom_between_distinct_simples_vanishes():
    a = cyclic_nakayama(3)
    simples = simple_modules(a)
    assert len(simples) == 3
    for i, s in enumerate(simples):
        for j, t in enumerate(simples):
            assert len(hom_space(s, t)) == (1 if i == j else 0)


def test_hom_composition_is_a_hom():
    a = cyclic_nakayama(3)
    reg = Module.regular(a)
    simples = simple_modules(a)
    p, epi = projective_cover(simples[0])
    back = hom_space(reg, p)
    for h in back:
        comp = h.compose(epi)       # validated on construction
        assert comp.source is reg


def test_composition_goes_through_the_one_middle_module():
    # over k × k the simples S₁ and S₂ have equal dimension but no map
    # between them, so id(S₁) followed by id(S₂) is no composite
    a = from_quiver(["1", "2"], [], [])
    s1, s2 = simple_modules(a)
    assert s1.dim == s2.dim and hom_space(s1, s2) == []
    with pytest.raises(ShapeError, match="endpoints"):
        identity_hom(s1).compose(identity_hom(s2))
    assert identity_hom(s1).compose(identity_hom(s1)).target is s1


# ---------------------------------------------------------------------------
# simples and covers


def test_simples_of_base_field():
    k = from_structure_constants(QQ, [[[1]]], [1])
    simples = simple_modules(k)
    assert len(simples) == 1
    assert simples[0].dim == 1


def test_simples_cyclic_three_all_dim_one():
    simples = simple_modules(cyclic_nakayama(3))
    assert [s.dim for s in simples] == [1, 1, 1]
    for s in simples:
        assert s.tag is not None


def test_simples_two_vertex():
    simples = simple_modules(two_vertex_arrow())
    assert [s.dim for s in simples] == [1, 1]


def test_only_a_shared_piece_sum_carries_a_record():
    a = dual_numbers()
    assert Module.regular(a).covered is None and Module.regular(a).tag is None
    p, _ = projective_cover(Module.regular(a))
    assert p.covered.term is p and p is _piece_sum(a, p.covered.idempotents)
    # a zero module is covered by the shared sum of no pieces
    z, epi = projective_cover(Module.zero(a))
    assert z is _piece_sum(a, []) and z.covered.idempotents == []
    assert epi.matrix.nrows == epi.matrix.ncols == 0


def test_cover_of_projective_is_identity_sized():
    a = dual_numbers()
    reg = Module.regular(a)
    p, epi = projective_cover(reg)
    assert p.dim == reg.dim
    assert rank(epi.matrix) == reg.dim


def test_cover_of_simple_dual_numbers():
    a = dual_numbers()
    s = simple_over(a, 1)
    p, epi = projective_cover(s)
    assert p.dim == 2
    ker, _ = kernel_of(epi)
    assert ker.dim == 1


def test_cover_of_simple_cyclic_three():
    a = cyclic_nakayama(3)
    simples = simple_modules(a)
    p, epi = projective_cover(simples[0])
    assert p.dim == 2


def test_cover_kernel_inside_radical():
    """The defining property: ker(epi) ⊆ rad(P)."""
    a = cyclic_nakayama(3)
    for s in simple_modules(a):
        p, epi = projective_cover(s)
        rad_rows = module_radical(p)
        span = SpanBuilder(QQ, p.dim)
        for r in rad_rows.pairs:
            span.add(r)
        ker, incl = kernel_of(epi)
        for i in range(ker.dim):
            row = incl.matrix.pairs[i]
            assert span.contains(row)


# ---------------------------------------------------------------------------
# constructions


def test_kernel_of_identity_vanishes():
    m = Module.regular(dual_numbers())
    ker, _ = kernel_of(identity_hom(m))
    assert ker.dim == 0


def test_kernel_rank_count():
    a = cyclic_nakayama(3)
    reg = Module.regular(a)
    simples = simple_modules(a)
    for s in simples:
        for h in hom_space(reg, s):
            ker, _ = kernel_of(h)
            assert ker.dim + rank(h.matrix) == reg.dim


def test_socle_equals_radical_for_dual_numbers():
    reg = Module.regular(dual_numbers())
    assert socle(reg) == module_radical(reg)
    assert socle(reg).nrows == 1


def test_cokernel_of_socle_inclusion():
    a = dual_numbers()
    reg = Module.regular(a)
    soc = socle(reg)
    sub, incl = submodule(reg, soc)
    cok, proj = cokernel_of(incl)
    assert cok.dim == 1
    # x acts by zero on the quotient: it is the simple module
    assert cok.action[1].is_zero()


def test_quotient_rejects_non_submodule():
    reg = Module.regular(dual_numbers())
    with pytest.raises(NotASubmodule):
        quotient(reg, [vectors.pairs(QQ, [1, 0])])


def test_submodule_rejects_a_matrix_of_the_wrong_width():
    # rows must have the module's dimension as width; a 2×1 matrix is not
    # read as the columns of a 1×2 one
    reg = Module.regular(dual_numbers())
    for m in (Matrix(QQ, [[Fraction(0)], [Fraction(1)]], 1),
              Matrix(QQ, [[Fraction(0)] * 3], 3)):
        with pytest.raises(ShapeError, match="does not fit"):
            submodule(reg, m)
        with pytest.raises(ShapeError, match="does not fit"):
            quotient(reg, m)


def test_direct_sum_shapes_and_homs():
    a = cyclic_nakayama(3)
    simples = simple_modules(a)
    s, injs, projs = direct_sum(simples)
    assert s.dim == 3
    for inj, prj in zip(injs, projs):
        comp = inj.compose(prj)
        assert comp.matrix == Matrix.identity(QQ, inj.source.dim)


def test_image_of_cover_is_everything():
    a = cyclic_nakayama(3)
    s = simple_modules(a)[1]
    p, epi = projective_cover(s)
    img, _ = image_of(epi)
    assert img.dim == s.dim


def test_module_radical_of_regular_cyclic():
    reg = Module.regular(cyclic_nakayama(3))
    assert module_radical(reg).nrows == 3
    assert socle(reg).nrows == 3


# ---------------------------------------------------------------------------
# add-membership, with the independent oracle


def test_in_add_reflexive():
    m = Module.regular(cyclic_nakayama(3))
    assert in_add(m, m)


def test_in_add_simple_not_in_projectives():
    a = dual_numbers()
    s = simple_over(a, 1)
    reg = Module.regular(a)
    assert not in_add(s, reg)
    assert in_add(reg, reg)


def test_in_add_powers():
    a = dual_numbers()
    reg = Module.regular(a)
    double, _, _ = direct_sum([reg, reg])
    assert in_add(double, reg)
    assert in_add(reg, double)


def test_in_add_matches_oracle_on_fixture_pairs():
    a = dual_numbers()
    s = simple_over(a, 1)
    reg = Module.regular(a)
    both, _, _ = direct_sum([s, reg])
    n3 = cyclic_nakayama(3)
    n3_reg = Module.regular(n3)
    n3_simples = simple_modules(n3)
    p1, _ = projective_cover(n3_simples[0])
    pairs = [
        (s, reg),
        (reg, s),
        (s, both),
        (both, reg),
        (reg, both),
        (n3_simples[0], n3_reg),
        (p1, n3_reg),
        (n3_simples[0], n3_simples[0]),
        (n3_simples[0], n3_simples[1]),
    ]
    for m, n in pairs:
        assert m.dim + n.dim <= 14
        assert in_add(m, n) == oracle_in_add(m, n)
        both_ways = oracle_in_add(m, n) and oracle_in_add(n, m)
        assert add_equivalent(m, n) == add_equivalent(n, m) == both_ways
    double, _, _ = direct_sum([reg, reg])
    assert add_equivalent(reg, double) and not add_equivalent(reg, both)


@pytest.mark.parametrize("name", ["dual", "cycle3", "sheared"])
def test_in_add_of_blocks_matches_the_oracle_on_their_sum(name):
    # m ∈ add(⊕ blocks), read block by block, against the ideal oracle
    # on the whole sum, for 0 to 3 blocks: repeated blocks, m itself
    # among them and the zero module included
    a = {
        "dual": dual_numbers,
        "cycle3": lambda: cyclic_nakayama(3),
        "sheared": lambda: sheared(cyclic_nakayama(3)),
    }[name]()
    sims = simple_modules(a)
    pool = sims[:2] + [projective_cover(sims[0])[0]]
    zero = Module.zero(a)
    lists = [[]] + [[b] for b in pool] + [
        [pool[0], pool[0]], pool[:2], pool[1:], pool[:3], [pool[0], zero, pool[-1]]]
    for m in pool + [zero]:
        copy = Module(a, m.dim, m.action)
        for blocks in lists + [[m], [pool[-1], m, pool[0]], [pool[0], copy]]:
            whole = direct_sum(blocks)[0] if blocks else zero
            assert in_add(m, *blocks) == oracle_in_add(m, whole), (m.dim, blocks)


def test_in_add_refuses_a_block_over_another_algebra():
    a, b = dual_numbers(), cyclic_nakayama(3)
    m, other = Module.regular(a), Module.regular(b)
    s = simple_modules(a)[0]
    for blocks in ([other], [s, other], [s, s, other], [m, other]):
        with pytest.raises(AlgebraMismatch):
            in_add(m, *blocks)


# ---------------------------------------------------------------------------
# duality, restriction, endomorphisms


def test_coregular_dual_numbers_selfdual():
    a = dual_numbers()
    reg = Module.regular(a)
    co = Module.coregular(a)
    iso = find_isomorphism(reg, co)
    assert iso is not None
    assert rank(iso.matrix) == 2


def test_coregular_two_vertex_not_regular():
    a = two_vertex_arrow()
    reg = Module.regular(a)
    co = Module.coregular(a)
    assert find_isomorphism(reg, co) is None
    assert not in_add(co, reg)


def test_restrict_scalars_pullback():
    a = dual_numbers()
    surj = quotient_surjection(a, [vectors.pairs(QQ, [0, 1])])
    b_reg = Module.regular(surj.target)
    pulled = restrict_scalars(surj, b_reg)
    assert pulled.dim == 1
    assert pulled.action[1].is_zero()       # x acts by zero upstairs


def test_endomorphism_algebra_of_regular():
    a = dual_numbers()
    end, basis = endomorphism_algebra(Module.regular(a))
    assert end.dim == 2
    assert len(basis.homs) == 2


def test_endomorphism_algebra_of_simple():
    a = cyclic_nakayama(3)
    end, _ = endomorphism_algebra(simple_modules(a)[0])
    assert end.dim == 1


def test_indecomposability_verdicts():
    a = dual_numbers()
    s = simple_over(a, 1)
    reg = Module.regular(a)
    assert is_indecomposable(s)[0]
    assert is_indecomposable(reg)[0]
    pair = Module.regular(product_field_pair())
    assert not is_indecomposable(pair)[0]
    both, _, _ = direct_sum([s, s])
    assert not is_indecomposable(both)[0]


def test_an_exhausted_idempotent_search_is_not_a_verdict():
    # Q[x]/((x − a)(x − b)) with a = 10⁷ and b = 3·10⁷ + 1 is Q × Q,
    # split by u = (x − b)/(a − b), but the rational root search gives
    # up on coefficients this large and raises NotSplit; the regular
    # module is decomposable, so NotSplit must not read as
    # "indecomposable", and its message says the search was cut off
    a, b = 10**7, 3 * 10**7 + 1
    alg = from_structure_constants(
        QQ, [[[1, 0], [0, 1]], [[0, 1], [-a * b, a + b]]], [1, 0]
    )
    u = vectors.pairs(QQ, [Fraction(-b, a - b), Fraction(1, a - b)])
    assert alg.mul_vec(u, u) == u and u != alg.unit
    with pytest.raises(NotSplit, match="root search was cut off") as caught:
        is_indecomposable(Module.regular(alg))
    assert "admits no" not in str(caught.value)


def test_find_isomorphism_distinguishes_simples():
    simples = simple_modules(cyclic_nakayama(3))
    assert find_isomorphism(simples[0], simples[0]) is not None
    assert find_isomorphism(simples[0], simples[1]) is None
