"""Primitive idempotents by the corner search started from the unit.

`algebra.lift_idempotents` starts its corner search from the algebra's
``idempotents`` tags when they sum to the unit: the vertex idempotents of
`from_quiver`, and the block projectors that `frobenius.build_context`
records on End(T).  This oracle always starts from the unit and ignores
the tags and every cache, then runs the same checks: each element
squares to itself, the elements are pairwise orthogonal, and they sum
to the unit.  Every leaf of `_split_corner` has passed its local-corner
test, so each element is primitive.  `refine_idempotent` runs the same
search from one given idempotent, and `tag_started_lift` from each
vertex tag of a quiver algebra in turn, as `lift_idempotents` did
before it took certified tags as they are.
"""

from sphertwist.algebra import _split_corner
from vectors import dense


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
