"""Primitive idempotents by the corner search started from the unit, and
a trace-form oracle for local corners.

`algebra.lift_idempotents` starts its corner search from the algebra's
``idempotents`` tags when they sum to the unit: the vertex idempotents of
`from_quiver`, and the block projectors that `frobenius.build_context`
records on End(T).  `unit_started_lift` always starts from the unit and
ignores the tags and every cache, then runs the same checks: each
element squares to itself, the elements are pairwise orthogonal, and
they sum to the unit.  `refine_idempotent` runs the same search from one
given idempotent, and `tag_started_lift` from each vertex tag of a
quiver algebra in turn.

Every leaf of `_split_corner` has passed its local-corner test: the
image e·rad(A)·e of the algebra's radical has codimension 1 in the
corner e·A·e.  That is the radical of the corner, since rad(e·A·e) =
e·rad(A)·e (Lam, *A First Course in Noncommutative Rings*, GTM 131,
Thm 21.10), so the corner is local and e is primitive.
`corner_is_local` decides the same question without the algebra's
radical: it takes the radical of the corner as the kernel of the
corner's own trace form, valid in characteristic 0 or above the
corner's dimension.  `check_corners` asks it of every leaf and every
split corner of a search.
"""

from sphertwist.algebra import _split_corner
from sphertwist.exactlin import Matrix, kernel_basis, row_space_canonical
from vectors import dense, pairs


def unit_started_lift(a):
    """The complete primitive list of a, split from its unit."""
    f = a.field
    out = []
    _split_corner(a, list(a.unit), out)
    total = [f.zero()] * a.dim
    for i, e in enumerate(out):
        assert a.mul_vec(e, e) == e
        for e2 in out[i + 1 :]:
            assert not any(a.mul_vec(e, e2)) and not any(a.mul_vec(e2, e))
        total = [f.add(x, y) for x, y in zip(total, dense(f, e, a.dim))]
    assert total == dense(f, a.unit, a.dim)
    return out


def refine_idempotent(a, e):
    """Orthogonal primitives summing to the idempotent e, split from e."""
    f = a.field
    assert a.mul_vec(e, e) == list(e)
    if not any(e):
        return []
    out = []
    _split_corner(a, list(e), out)
    total = [f.zero()] * a.dim
    for piece in out:
        total = [f.add(x, y) for x, y in zip(total, dense(f, piece, a.dim))]
    assert total == dense(f, e, a.dim)
    return out


def tag_started_lift(a):
    """The primitives of a quiver algebra, each vertex tag split in its
    own corner, last tag first."""
    f = a.field
    out = []
    for _, v in reversed(a.idempotents):
        _split_corner(a, list(v), out)
    total = [f.zero()] * a.dim
    for e in out:
        total = [f.add(x, y) for x, y in zip(total, dense(f, e, a.dim))]
    assert total == dense(f, a.unit, a.dim)
    return out


def corner_is_local(a, e):
    """Trace-form test: e·a·e has a one-dimensional semisimple quotient.

    The radical of the corner is the kernel of the form
    (x, y) ↦ tr(left multiplication by xy on the corner), valid in
    characteristic 0 or above the corner's dimension.
    """
    f = a.field

    def mul_vec(x, y):
        return dense(f, a.mul_vec(pairs(f, x), pairs(f, y)), a.dim)

    e = dense(f, e, a.dim)
    corner = [
        mul_vec(mul_vec(e, dense(f, a.basis_vector(i), a.dim)), e) for i in range(a.dim)
    ]
    rows = row_space_canonical(Matrix(f, corner, a.dim)).rows
    assert f.characteristic == 0 or f.characteristic > len(rows)
    pivots = [next(j for j, x in enumerate(r) if x) for r in rows]

    def trace_of_left_mult(x):
        t = f.zero()
        for i, b in enumerate(rows):
            t = f.add(t, mul_vec(x, b)[pivots[i]])
        return t

    gram = [[trace_of_left_mult(mul_vec(x, y)) for y in rows] for x in rows]
    return len(rows) - kernel_basis(Matrix(f, gram, len(rows))).ncols == 1


def check_corners(a, primitives, calls):
    """Every primitive of a has a local corner, and every corner that the
    search split does not.  ``calls`` holds the arguments (algebra, e,
    out) of `_split_corner` calls; those on a whose e is nonzero and not
    a primitive are the corners that were split."""
    for e in primitives:
        assert corner_is_local(a, e)
    split = [e for b, e, _ in calls if b is a and e and e not in primitives]
    for e in split:
        assert not corner_is_local(a, e)
    return split
