"""Reference tensor square for the differential tests of `homology`.

This is the enveloping route: the target B of a surjection p : A → B is
resolved as an A-B-bimodule, that is as a right module over
enveloping(A, B); each term Q is tensored down to B ⊗_A Q inside the
flat space B ⊗ Q by its balancing relations, as a module over
enveloping(B, B), so both actions on the homology come with the
carrier.  It builds two dense enveloping algebras and a Kronecker
product per action matrix; it is slow and obviously right, and the
one-sided route in `homology` must give the same dimensions, the same
cone and an isomorphic Tor bimodule.
"""

from sphertwist.algebra import enveloping
from sphertwist.errors import NotConcentrated, SphertwistError
from exactlin_reference import solve_matrix
from sphertwist.exactlin import Matrix, kronecker, rank, solve
from sphertwist.homology import Bimodule
from sphertwist.modules import Module, ModuleHom, kernel_of, quotient
from sphertwist.resolutions import minimal_resolution
from vectors import dense, pairs


def left_embed(env_left, env_right, vec):
    """Coordinates in enveloping(left, right) of a left-algebra element."""
    f = env_left.field
    out = [f.zero()] * (env_left.dim * env_right.dim)
    unit = dense(f, env_right.unit, env_right.dim)
    vec = dense(f, vec, env_left.dim)
    for j in range(env_right.dim):
        for i in range(env_left.dim):
            out[j * env_left.dim + i] = f.mul(f.coerce(unit[j]), f.coerce(vec[i]))
    return pairs(f, out)


def right_embed(env_left, env_right, vec):
    """Coordinates in enveloping(left, right) of a right-algebra element."""
    f = env_left.field
    out = [f.zero()] * (env_left.dim * env_right.dim)
    unit = dense(f, env_left.unit, env_left.dim)
    vec = dense(f, vec, env_right.dim)
    for j in range(env_right.dim):
        for i in range(env_left.dim):
            out[j * env_left.dim + i] = f.mul(f.coerce(vec[j]), f.coerce(unit[i]))
    return pairs(f, out)


def regular_bimodule(a, env):
    """The algebra as a right module over its enveloping algebra."""
    d = a.dim
    action = []
    for j in range(d):
        rj = a.right_mult_matrix(a.basis_vector(j))
        for i in range(d):
            li = a.left_mult_matrix(a.basis_vector(i))
            action.append(li.mul(rj))
    return Module(env, d, action)


def bimodule_carrier(bimod, env):
    """A bimodule as a right module over env: (j, i) acts by lᵢ·rⱼ."""
    return Module(
        env, bimod.dim,
        [li.mul(rj) for rj in bimod.right_mats for li in bimod.left_mats],
    )


def _target_as_bimodule_carrier(p):
    """The target as a (source, target)-bimodule over the enveloping algebra."""
    a, b = p.source, p.target
    f = a.field
    env = enveloping(a, b)
    action = []
    for j in range(b.dim):
        rmat = Matrix.from_pairs(
            f, [b.mul_vec(b.basis_vector(r), b.basis_vector(j)) for r in range(b.dim)],
            b.dim,
        )
        for i in range(a.dim):
            img = p.apply(a.basis_vector(i))
            lmat = Matrix.from_pairs(
                f,
                [b.mul_vec(img, b.basis_vector(r)) for r in range(b.dim)],
                b.dim,
            )
            action.append(lmat.mul(rmat))
    return Module(env, b.dim, action)


class TensorSquare:
    """The bimodule resolution of the target, tensored down over env(B, B).

    Same attributes as `homology.tensor_square` where they compare:
    ``complete``, ``homology_dims``, ``cone_dims``; ``terms`` and
    ``dbars`` live over ``env_bb``.
    """

    def __init__(self, p, cap=None):
        a, b = p.source, p.target
        f = a.field
        if cap is None:
            cap = 2 * a.dim + 2
        carrier = _target_as_bimodule_carrier(p)
        res = minimal_resolution(carrier, cap=cap)
        self.complete = not res.truncated
        self.resolution = res
        self.p = p
        env_bb = enveloping(b, b)
        self.env_bb = env_bb
        # tensor each term down: b ⊗ Q_i over the balancing relations
        terms = []
        projections = []
        for q in res.terms:
            flat_dim = b.dim * q.dim
            action = []
            for j in range(b.dim):
                rq = q.action_of(right_embed(a, b, b.basis_vector(j)))
                for i in range(b.dim):
                    lrows = Matrix.from_pairs(
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
                xm = Matrix.from_pairs(
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
            tq, proj = quotient(flat_mod, Matrix(f, rel, flat_dim))
            terms.append(tq)
            projections.append(proj)
        self.terms = terms
        dbars = []
        for i, h in enumerate(res.maps):
            flat = kronecker(Matrix.identity(f, b.dim), h.matrix)
            rhs = flat.mul(projections[i].matrix)
            x = solve_matrix(projections[i + 1].matrix, rhs)
            if x is None:
                raise SphertwistError("differential does not descend to the quotient")
            dbars.append(ModuleHom(terms[i + 1], terms[i], x))
        self.dbars = dbars
        reg_bb = regular_bimodule(b, env_bb)
        aug = res.augmentation
        flat_rows = []
        for i in range(b.dim):
            for jj in range(res.terms[0].dim):
                flat_rows.append(b.mul_vec(b.basis_vector(i), aug.matrix.pairs[jj]))
        c0 = solve_matrix(projections[0].matrix, Matrix.from_pairs(f, flat_rows, b.dim))
        if c0 is None:
            raise SphertwistError("multiplication does not descend to the quotient")
        self.mult_map = ModuleHom(terms[0], reg_bb, c0)
        ranks = [rank(h.matrix) for h in dbars]
        rank_c0 = rank(c0)
        dims = []
        cone_dims = {}
        for i in range(len(terms)):
            d = terms[i].dim
            if i < len(ranks):
                d -= ranks[i]
            if i >= 1:
                d -= ranks[i - 1]
            dims.append(d)
            cone_dims[-i - 1] = d - rank_c0 if i == 0 else d
        cone_dims[0] = b.dim - rank_c0
        if not self.complete:
            dims = dims[:-1]
            cone_dims.pop(-len(terms))
        self.homology_dims = dims
        self.cone_dims = cone_dims


def homology_carrier(square, t):
    """H_t of the tensor complex, as a module over env(B, B)."""
    f = square.env_bb.field
    if t == 0:
        cycles = square.terms[0]
        incl_matrix = Matrix.identity(f, cycles.dim)
    else:
        cycles, incl = kernel_of(square.dbars[t - 1])
        incl_matrix = incl.matrix
    boundary_rows = square.dbars[t].matrix.pairs if t < len(square.dbars) else []
    in_cycle_coords = []
    for r in boundary_rows:
        x = solve(incl_matrix.transpose(), r)
        if x is None:
            raise SphertwistError("boundary escapes the cycles")
        in_cycle_coords.append(x)
    h, _ = quotient(cycles, in_cycle_coords)
    return h


def tor_bimodule(square, t):
    """H_t with both actions read off the env(B, B) carrier."""
    dims = square.homology_dims
    if not square.complete or t >= len(dims) or any(
            d for i, d in enumerate(dims) if i not in (0, t)):
        raise NotConcentrated("reference profile is not concentrated in {0, t}")
    carrier = homology_carrier(square, t)
    b = square.p.target
    basis = [b.basis_vector(i) for i in range(b.dim)]
    left = [carrier.action_of(left_embed(b, b, v)) for v in basis]
    right = [carrier.action_of(right_embed(b, b, v)) for v in basis]
    return Bimodule(b, b, left, right)
