"""Shared small-algebra fixtures used across the test suite."""

from sphertwist.algebra import from_quiver, from_structure_constants
from exactlin_reference import solve_matrix
from sphertwist.exactlin import QQ, Matrix
from sphertwist.modules import Module
from vectors import dense


def dual_numbers(field=QQ):
    """k[x]/(x^2): local, symmetric, the smallest interesting testbed."""
    mult = [
        [[1, 0], [0, 1]],
        [[0, 1], [0, 0]],
    ]
    return from_structure_constants(field, mult, [1, 0], basis_labels=["one", "x"])


def cyclic_nakayama(n, field=QQ):
    """Cyclic quiver on n vertices, all length-2 paths killed (dim 2n)."""
    vertices = [str(i) for i in range(1, n + 1)]
    arrows = [("a%d" % i, str(i), str(i % n + 1)) for i in range(1, n + 1)]
    relations = [
        [(1, ["a%d" % i, "a%d" % (i % n + 1)])] for i in range(1, n + 1)
    ]
    return from_quiver(vertices, arrows, relations, field=field)


def truncated_cycle(n, length, field=QQ):
    """Cyclic quiver on n vertices, all paths of the given length killed
    (dim n·length); length 2 is `cyclic_nakayama`."""
    vertices = [str(i) for i in range(1, n + 1)]
    arrows = [("a%d" % i, str(i), str(i % n + 1)) for i in range(1, n + 1)]
    relations = [
        [(1, ["a%d" % ((i + k - 1) % n + 1) for k in range(length)])]
        for i in range(1, n + 1)
    ]
    return from_quiver(vertices, arrows, relations, field=field)


def two_vertex_arrow(field=QQ):
    """Quiver 1 → 2, no relations: upper-triangular 2x2 matrices."""
    return from_quiver(["1", "2"], [("a", "1", "2")], [], field=field)


def linear_path(n, field=QQ):
    """Quiver 1 → 2 → … → n with arrows a, b, c, …, no relations: the
    hereditary algebra of upper-triangular n×n matrices; its paths are
    labelled like a*b."""
    vertices = [str(i) for i in range(1, n + 1)]
    arrows = [("abcdefgh"[i], str(i + 1), str(i + 2)) for i in range(n - 1)]
    return from_quiver(vertices, arrows, [], field=field)


def shear(n):
    """A unitriangular n×n integer matrix with entries off 0/1."""
    return [
        [1 if i == j else ((7 * i + 3 * j) % 5 - 2 if j > i else 0) for j in range(n)]
        for i in range(n)
    ]


def rebased(a, rows):
    """(the algebra in the basis given by the rows, the change of
    coordinates): row i of ``rows`` is the i-th new basis vector in a's
    coordinates, and a vector x of a has coordinates x·C in the new one.
    Idempotents found in the new basis are no longer 0/1 vectors."""
    f = a.field
    t = Matrix(f, rows, a.dim)
    change = solve_matrix(t, Matrix.identity(f, a.dim))

    def new_coordinates(vec):
        return dense(f, change.apply_to_row(vec), a.dim)

    mult = [
        [new_coordinates(a.mul_vec(t.pairs[i], t.pairs[j])) for j in range(a.dim)]
        for i in range(a.dim)
    ]
    return from_structure_constants(f, mult, new_coordinates(a.unit)), change


def change_of_basis(m):
    """m in the basis given by the rows of a unit upper-triangular T: the
    actions become T·Mᵢ·T⁻¹, whose entries spread over the field."""
    f = m.algebra.field
    t = Matrix(f, [
        [f.coerce(0 if j < i else 1 if j == i else 2 + i + 3 * j) for j in range(m.dim)]
        for i in range(m.dim)
    ])
    t_inv = solve_matrix(t, Matrix.identity(f, m.dim))
    return Module(m.algebra, m.dim, [t.mul(x).mul(t_inv) for x in m.action])


def product_field_pair(field=QQ):
    """k × k with the two coordinate idempotents as basis."""
    mult = [
        [[1, 0], [0, 0]],
        [[0, 0], [0, 1]],
    ]
    return from_structure_constants(
        field, mult, [1, 1], basis_labels=["u", "v"]
    )


def dual_numbers_times_field(field=QQ):
    """k[x]/(x^2) × k with basis one₁, x, e₂: a self-injective block
    beside a semisimple one."""
    mult = [
        [[1, 0, 0], [0, 1, 0], [0, 0, 0]],
        [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
        [[0, 0, 0], [0, 0, 0], [0, 0, 1]],
    ]
    return from_structure_constants(
        field, mult, [1, 0, 1], basis_labels=["one1", "x", "e2"]
    )


def gaussian_field():
    """Q(i) as a 2-dimensional Q-algebra — semisimple but not split."""
    mult = [
        [[1, 0], [0, 1]],
        [[0, 1], [-1, 0]],
    ]
    return from_structure_constants(QQ, mult, [1, 0], basis_labels=["one", "i"])


def matrix_units_2(field=QQ):
    """2x2 matrix algebra in the matrix-unit basis E11,E12,E21,E22."""
    names = [(0, 0), (0, 1), (1, 0), (1, 1)]
    dim = 4

    def prod(a, b):
        (i, j), (k, l) = names[a], names[b]
        vec = [0] * dim
        if j == k:
            vec[names.index((i, l))] = 1
        return vec

    mult = [[prod(a, b) for b in range(dim)] for a in range(dim)]
    unit = [1, 0, 0, 1]
    return from_structure_constants(
        field, mult, unit, basis_labels=["E11", "E12", "E21", "E22"]
    )


def nakayama3_hand_table(field=QQ):
    """The cyclic n=3 fixture written out as a raw multiplication table.

    Basis order e1,e2,e3,a1,a2,a3 with a_i the arrow out of vertex i.
    """
    z = [0] * 6

    def e(i):
        v = [0] * 6
        v[i] = 1
        return v

    mult = [[list(z) for _ in range(6)] for _ in range(6)]
    mult[0][0] = e(0)
    mult[1][1] = e(1)
    mult[2][2] = e(2)
    mult[0][3] = e(3)
    mult[1][4] = e(4)
    mult[2][5] = e(5)
    mult[3][1] = e(3)
    mult[4][2] = e(4)
    mult[5][0] = e(5)
    return from_structure_constants(
        field,
        mult,
        [1, 1, 1, 0, 0, 0],
        basis_labels=["e1", "e2", "e3", "a1", "a2", "a3"],
    )
