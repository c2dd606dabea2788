"""Derived functors of surjections: Ext, Tor, and the cotwist cone.

Everything here is computed from finite projective resolutions.  Ext
groups come from a minimal resolution of the first argument; Tor groups
can resolve either argument, and the two routes must agree.  For the
data attached to a surjection of algebras, the target is resolved as a
bimodule over the enveloping algebra, which hands over the derived
tensor square together with both of its actions at once; the cone of
the degree-zero multiplication map then measures how far the surjection
is from being an isomorphism, degree by degree.

Left modules are carried as right modules over the opposite algebra
throughout, so a single module engine serves both sides.
"""

from __future__ import annotations

from .algebra import SurjectionData, enveloping, opposite
from .errors import AuditFailed, CapExceeded, NotConcentrated, SphertwistError
from .exactlin import Matrix, SpanBuilder, kronecker, rank, solve, solve_matrix
from .frobenius import _regular_bimodule
from .modules import (
    HomBasis,
    Module,
    ModuleHom,
    hom_space,
    in_add,
    kernel_of,
    quotient,
)
from .resolutions import minimal_resolution


# ---------------------------------------------------------------------------
# bimodules


def left_embed(env_left, env_right, vec):
    """Coordinates in enveloping(left, right) of a left-algebra element."""
    f = env_left.field
    out = [f.zero()] * (env_left.dim * env_right.dim)
    unit = env_right.unit
    for j in range(env_right.dim):
        for i in range(env_left.dim):
            out[j * env_left.dim + i] = f.mul(f.coerce(unit[j]), f.coerce(vec[i]))
    return out


def right_embed(env_left, env_right, vec):
    """Coordinates in enveloping(left, right) of a right-algebra element."""
    f = env_left.field
    out = [f.zero()] * (env_left.dim * env_right.dim)
    unit = env_left.unit
    for j in range(env_right.dim):
        for i in range(env_left.dim):
            out[j * env_left.dim + i] = f.mul(f.coerce(vec[j]), f.coerce(unit[i]))
    return out


def _side_module(algebra, dim, mats, side):
    """One action family as a validated right module; a family that
    falsifies its algebra's unit or products raises AuditFailed."""
    module = Module(algebra, dim, mats, validate=False)
    try:
        module._validate()
    except SphertwistError as exc:
        raise AuditFailed("%s action: %s" % (side, exc), witness=side) from exc
    return module


class Bimodule:
    """A two-sided module: two commuting families of action matrices.

    left_mats[i] is the action of the i-th basis element of the left
    algebra, right_mats[j] that of the j-th basis element of the right
    algebra, both on row vectors.  A left action composes
    contravariantly on rows (the first factor of a product is applied
    last), so the left family is a right module over the opposite
    algebra.  The constructor builds and validates both side modules
    once and checks lᵢ·rⱼ = rⱼ·lᵢ on every basis pair.  Together these
    are the axioms of a right module over enveloping(left, right), whose
    element rⱼ ⊗ lᵢᵒᵖ acts by lᵢ·rⱼ, so that algebra is never built.  Any
    failure raises AuditFailed.  ``right_projective`` and
    ``left_projective`` say whether each side module is projective; each
    is computed on first use and kept.
    """

    def __init__(self, left_algebra, right_algebra, left_mats, right_mats):
        self.left_algebra = left_algebra
        self.right_algebra = right_algebra
        self.left_mats = list(left_mats)
        self.right_mats = list(right_mats)
        mats = self.left_mats + self.right_mats
        self.dim = mats[0].nrows if mats else 0
        self._right = _side_module(right_algebra, self.dim, self.right_mats, "right")
        self._left = _side_module(
            opposite(left_algebra), self.dim, self.left_mats, "left"
        )
        self._right_projective = None
        self._left_projective = None
        for i, li in enumerate(self.left_mats):
            for j, rj in enumerate(self.right_mats):
                if li.mul(rj) != rj.mul(li):
                    raise AuditFailed(
                        "left and right actions fail to commute on basis pair",
                        witness=(i, j),
                    )

    def restrict_right(self):
        """The underlying right module over the right-hand algebra."""
        return self._right

    def restrict_left(self):
        """The left structure, as a right module over the opposite algebra."""
        return self._left

    @property
    def right_projective(self):
        """Whether the bimodule is projective as a right module."""
        if self._right_projective is None:
            self._right_projective = _side_projective(self._right)
        return self._right_projective

    @property
    def left_projective(self):
        """Whether the bimodule is projective as a left module."""
        if self._left_projective is None:
            self._left_projective = _side_projective(self._left)
        return self._left_projective

    def __repr__(self):
        return "Bimodule(dim %d over %d x %d)" % (
            self.dim, self.left_algebra.dim, self.right_algebra.dim)


def left_module_along(p):
    """The target of a surjection as a left module over the source.

    Stored as a right module over the opposite algebra: the source acts
    through the surjection by left multiplication.
    """
    a, b = p.source, p.target
    ao = opposite(a)
    action = []
    for k in range(a.dim):
        img = p.apply(a.basis_vector(k))
        rows = [b.mul_vec(img, b.basis_vector(j)) for j in range(b.dim)]
        action.append(Matrix(a.field, rows, b.dim))
    return Module(ao, b.dim, action)


def identity_surjection(a):
    """The identity of an algebra, packaged as a surjection."""
    return SurjectionData(
        a, a, Matrix.identity(a.field, a.dim), Matrix.zero(a.field, a.dim, 0)
    )


# ---------------------------------------------------------------------------
# Ext


def _resolution_window(m, count, ctx=None):
    """A resolution carrying at least `count` terms (maps up to count-1)."""
    try:
        return minimal_resolution(m, cap=count)
    except CapExceeded as exc:
        return exc.witness


def ext_dims(a, m, n, count):
    """[dim Ext^i(m, n) for i in 0..count), from a minimal resolution of m."""
    if m.algebra is not a or n.algebra is not a:
        raise SphertwistError("ext arguments live over a different algebra")
    if count < 1:
        return []
    res = _resolution_window(m, count)
    f = a.field
    spaces = [hom_space(t, n) for t in res.terms]
    # matrix of precomposition with maps[i]: hom(terms[i], n) -> hom(terms[i+1], n)
    ranks = [0]
    for i, h in enumerate(res.maps):
        src = spaces[i]
        tgt = spaces[i + 1]
        if not src or not tgt:
            ranks.append(0)
            continue
        coords = HomBasis(f, tgt).coords
        rows = [coords(h.compose(g).matrix) for g in src]
        ranks.append(rank(Matrix(f, rows, len(tgt))))
    out = []
    for i in range(count):
        if i < len(spaces):
            dim_here = len(spaces[i])
            incoming = ranks[i] if i < len(ranks) else 0
            outgoing = ranks[i + 1] if i + 1 < len(ranks) else 0
            out.append(dim_here - incoming - outgoing)
        else:
            out.append(0)
    return out


# ---------------------------------------------------------------------------
# Tor of one-sided modules


def _reduction_data(f, rel_rows, dim):
    """Projection matrix onto the quotient by a span, via free coordinates."""
    sb = SpanBuilder(f, dim)
    for r in rel_rows:
        sb.add(list(r))
    piv = set(sb.pivots)
    free = [j for j in range(dim) if j not in piv]
    rows = []
    for k in range(dim):
        e = [f.zero()] * dim
        e[k] = f.one()
        red = sb._reduce(e)
        rows.append([red[j] for j in free])
    return Matrix(f, rows, len(free))


def _balancing_rows(a, m, n):
    """Relations x·s ⊗ y − x ⊗ s·y spanning the balanced quotient.

    m is a right module over a, n a right module over opposite(a); the
    flat space indexes pairs first-factor-major.
    """
    f = a.field
    d = m.dim * n.dim
    out = []
    for k in range(a.dim):
        act_m = m.action[k]
        act_n = n.action[k]
        for i in range(m.dim):
            xi = list(act_m.rows[i])
            for j in range(n.dim):
                yj = list(act_n.rows[j])
                row = [f.zero()] * d
                for s in range(m.dim):
                    if not f.is_zero(xi[s]):
                        row[s * n.dim + j] = f.add(row[s * n.dim + j], xi[s])
                for t in range(n.dim):
                    if not f.is_zero(yj[t]):
                        row[i * n.dim + t] = f.sub(row[i * n.dim + t], yj[t])
                out.append(row)
    return out


def tor_dims(a, m, n, count, resolve_second=False):
    """[dim Tor_i(m, n) for i in 0..count).

    m is a right module over a, n a left module carried over the
    opposite algebra.  By default the first argument is resolved;
    resolve_second=True resolves the other one instead, which must give
    the same answer and serves as an independent route.
    """
    if m.algebra is not a:
        raise SphertwistError("first tor argument must live over the algebra")
    if n.algebra is not opposite(a):
        raise SphertwistError("second tor argument must live over the opposite")
    if count < 1:
        return []
    f = a.field
    if resolve_second:
        res = _resolution_window(n, count)
        projs = []
        for t in res.terms:
            rel = _balancing_rows(a, m, t)
            projs.append(_reduction_data(f, rel, m.dim * t.dim))
        ranks = [0]
        for i, h in enumerate(res.maps):
            flat = kronecker(Matrix.identity(f, m.dim), h.matrix)
            ranks.append(rank(flat.mul(projs[i])))
    else:
        res = _resolution_window(m, count)
        projs = []
        for t in res.terms:
            rel = _balancing_rows(a, t, n)
            projs.append(_reduction_data(f, rel, t.dim * n.dim))
        ranks = [0]
        for i, h in enumerate(res.maps):
            flat = kronecker(h.matrix, Matrix.identity(f, n.dim))
            ranks.append(rank(flat.mul(projs[i])))
    out = []
    for i in range(count):
        if i < len(projs):
            dim_here = projs[i].ncols
            incoming = ranks[i + 1] if i + 1 < len(ranks) else 0
            outgoing = ranks[i] if i < len(ranks) else 0
            out.append(dim_here - incoming - outgoing)
        else:
            out.append(0)
    return out


# ---------------------------------------------------------------------------
# the derived tensor square of a surjection, with both actions


def _target_as_bimodule_carrier(p):
    """The target as a (source, target)-bimodule over the enveloping algebra."""
    a, b = p.source, p.target
    f = a.field
    env = enveloping(a, b)
    action = []
    for j in range(b.dim):
        rmat = Matrix(
            f, [b.mul_vec(b.basis_vector(r), b.basis_vector(j)) for r in range(b.dim)],
            b.dim,
        )
        for i in range(a.dim):
            img = p.apply(a.basis_vector(i))
            lmat = Matrix(
                f,
                [b.mul_vec(img, b.basis_vector(r)) for r in range(b.dim)],
                b.dim,
            )
            action.append(lmat.mul(rmat))
    return Module(env, b.dim, action), env


class _TensorSquare:
    """The complex computing the derived tensor square of a surjection.

    Holds the bimodule resolution of the target, the tensored-down terms
    as modules over the target's enveloping algebra, the induced
    differentials, the degree-zero multiplication map, and the homology
    dimensions of both the complex and the cone.
    """

    def __init__(self, p, cap):
        a, b = p.source, p.target
        f = a.field
        carrier, env_ab = _target_as_bimodule_carrier(p)
        try:
            res = minimal_resolution(carrier, cap=cap)
            self.complete = True
        except CapExceeded as exc:
            res = exc.witness
            self.complete = False
        self.resolution = res
        self.p = p
        env_bb = enveloping(b, b)
        self.env_bb = env_bb
        # tensor each term down: b ⊗ Q_i over the balancing relations,
        # as a module over enveloping(b, b)
        terms = []
        projections = []
        for q in res.terms:
            flat_dim = b.dim * q.dim
            action = []
            for j in range(b.dim):
                rq = q.action_of(right_embed(a, b, b.basis_vector(j)))
                for i in range(b.dim):
                    lrows = Matrix(
                        f,
                        [
                            b.mul_vec(b.basis_vector(i), b.basis_vector(r))
                            for r in range(b.dim)
                        ],
                        b.dim,
                    )
                    action.append(kronecker(lrows, rq))
            flat_mod = Module(env_bb, flat_dim, action, validate=False)
            # balancing: x·p(s) ⊗ q − x ⊗ s·q for source basis s
            rel = []
            for k in range(a.dim):
                img = p.apply(a.basis_vector(k))
                xm = Matrix(
                    f,
                    [b.mul_vec(b.basis_vector(r), img) for r in range(b.dim)],
                    b.dim,
                )
                qm = q.action_of(left_embed(a, b, a.basis_vector(k)))
                for i in range(b.dim):
                    xi = list(xm.rows[i])
                    for jj in range(q.dim):
                        yj = list(qm.rows[jj])
                        row = [f.zero()] * flat_dim
                        for s in range(b.dim):
                            if not f.is_zero(xi[s]):
                                row[s * q.dim + jj] = f.add(row[s * q.dim + jj], xi[s])
                        for t in range(q.dim):
                            if not f.is_zero(yj[t]):
                                row[i * q.dim + t] = f.sub(row[i * q.dim + t], yj[t])
                        rel.append(row)
            tq, proj = quotient(flat_mod, rel)
            terms.append(tq)
            projections.append(proj)
        self.terms = terms
        self.projections = projections
        # induced differentials on the tensored terms
        dbars = []
        for i, h in enumerate(res.maps):
            flat = kronecker(Matrix.identity(f, b.dim), h.matrix)
            rhs = flat.mul(projections[i].matrix)
            x = solve_matrix(projections[i + 1].matrix, rhs)
            if x is None:
                raise SphertwistError("differential does not descend to the quotient")
            dbars.append(ModuleHom(terms[i + 1], terms[i], x))
        self.dbars = dbars
        # degree-zero multiplication down to the regular bimodule of b
        reg_bb = _regular_bimodule(b, env_bb)
        self.regular_bimodule = reg_bb
        aug = res.augmentation
        flat_rows = []
        for i in range(b.dim):
            for jj in range(res.terms[0].dim):
                img = aug.matrix.rows[jj]
                flat_rows.append(b.mul_vec(b.basis_vector(i), list(img)))
        flat_c0 = Matrix(f, flat_rows, b.dim)
        c0 = solve_matrix(projections[0].matrix, flat_c0)
        if c0 is None:
            raise SphertwistError("multiplication does not descend to the quotient")
        self.mult_map = ModuleHom(terms[0], reg_bb, c0)
        # homology dimensions of the complex; with a truncated
        # resolution the top degree lacks its incoming differential, so
        # the reported window stops one short of it
        ranks = [rank(h.matrix) for h in dbars]
        dims = []
        for i in range(len(terms)):
            d = terms[i].dim
            if i < len(ranks):
                d -= ranks[i]
            if i >= 1:
                d -= ranks[i - 1]
            dims.append(d)
        # cone of the multiplication map, indexed cohomologically: the
        # tensor term of degree i sits at -i-1, the target at 0
        cone_dims = {}
        rank_c0 = rank(self.mult_map.matrix)
        for i in range(len(terms)):
            d = terms[i].dim
            if i == 0:
                d -= rank_c0
            if i < len(ranks):
                d -= ranks[i]
            if i >= 1:
                d -= ranks[i - 1]
            cone_dims[-i - 1] = d
        cone_dims[0] = b.dim - rank_c0
        if not self.complete:
            dims = dims[:-1]
            cone_dims.pop(-len(terms))
        self.homology_dims = dims
        self.cone_dims = cone_dims


def _homology_bimodule(square, t):
    """H_t of the tensor complex, with its two-sided structure."""
    f = square.env_bb.field
    if t < 0 or t >= len(square.terms):
        raise SphertwistError("degree outside the computed window")
    if t == 0:
        cycles = square.terms[0]
        incl_matrix = Matrix.identity(f, cycles.dim)
    else:
        cycles, incl = kernel_of(square.dbars[t - 1])
        incl_matrix = incl.matrix
    if t < len(square.dbars):
        boundary_rows = square.dbars[t].matrix.rows
    else:
        boundary_rows = []
    in_cycle_coords = []
    for r in boundary_rows:
        x = solve(incl_matrix.transpose(), list(r))
        if x is None:
            raise SphertwistError("boundary escapes the cycles")
        in_cycle_coords.append(x)
    h, _ = quotient(cycles, in_cycle_coords)
    return h


def tensor_square(p, cap=None):
    """The derived tensor square of a surjection, resolved as bimodules."""
    if cap is None:
        cap = 2 * p.source.dim + 2
    return _TensorSquare(p, cap)


def _extract_bimodule(square, t):
    carrier = _homology_bimodule(square, t)
    b = square.p.target
    basis = [b.basis_vector(i) for i in range(b.dim)]
    left = [carrier.action_of(left_embed(b, b, v)) for v in basis]
    right = [carrier.action_of(right_embed(b, b, v)) for v in basis]
    return Bimodule(b, b, left, right)


def tor_bimodule(p, t, square=None):
    """Tor_t of the target with itself, carrying both actions.

    Requires the tensor square to be concentrated in degrees {0, t}
    within the window; raises NotConcentrated otherwise (also when a
    truncated window leaves concentration uncertified).
    """
    if t < 1:
        raise SphertwistError("positive degree expected")
    if square is None:
        square = tensor_square(p)
    dims = square.homology_dims
    if t >= len(dims):
        raise NotConcentrated("window too short to reach the requested degree")
    for i, d in enumerate(dims):
        if d and i not in (0, t):
            raise NotConcentrated(
                "tensor square has homology in degree %d" % i, witness=dims
            )
    if not square.complete:
        raise NotConcentrated(
            "resolution truncated; concentration cannot be certified", witness=dims
        )
    return _extract_bimodule(square, t)


def _side_projective(m):
    return in_add(m, Module.regular(m.algebra))


class CotwistData:
    """Everything the cotwist of a surjection is made of.

    tor_dims lists the homology of the derived tensor square on the
    half-open window [0, len); concentrated carries the unique positive
    degree when the profile is {0, t} and certified complete; the
    bimodule is that degree's homology with both actions, and shift is
    where the cone sits, namely -t-1.
    """

    def __init__(self, surjection, tor_dims, cone_dims, concentrated,
                 cotwist_bimodule, shift, complete):
        if tor_dims and tor_dims[0] != surjection.target.dim:
            raise SphertwistError(
                "degree-zero tensor square must match the target dimension"
            )
        self.surjection = surjection
        self.tor_dims = tor_dims
        self.cone_dims = cone_dims
        self.concentrated = concentrated
        self.cotwist_bimodule = cotwist_bimodule
        self.shift = shift
        self.complete = complete

    def __repr__(self):
        return "CotwistData(tor %s, concentrated=%s, shift=%s)" % (
            self.tor_dims, self.concentrated, self.shift)


def cotwist_data(p, cap=None):
    """Resolve the surjection's tensor square and read off the cotwist.

    Reports the homology profile, the cone profile of the degree-zero
    multiplication map, and — when the profile is certified concentrated
    in {0, t} — the twisting bimodule and its shift.
    """
    square = tensor_square(p, cap=cap)
    dims = square.homology_dims
    positive = [i for i, d in enumerate(dims) if d and i > 0]
    concentrated = None
    bimod = None
    shift = None
    if square.complete and len(positive) == 1:
        t = positive[0]
        concentrated = t
        bimod = tor_bimodule(p, t, square=square)
        shift = -t - 1
        expected = {-t - 1: dims[t]}
        for deg, d in square.cone_dims.items():
            want = expected.get(deg, 0)
            if d != want:
                raise SphertwistError(
                    "cone profile disagrees with the homology profile",
                    witness=square.cone_dims,
                )
    return CotwistData(
        p,
        dims,
        square.cone_dims,
        concentrated,
        bimod,
        shift,
        square.complete,
    )
