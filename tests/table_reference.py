"""The multiplication matrices and the trace form by products, kept as
test oracles.

`Algebra.left_mult_matrix`, `Algebra.right_mult_matrix` and
`algebra._trace_form_radical` read the structure constants off the
sparse table.  The routes here build the same things from products
instead: row i of a multiplication matrix is x·bᵢ or bᵢ·x by
`Algebra.mul_vec` against a basis vector, and the Gram matrix of
the trace form is summed from the traces of the left multiplication
matrices of the basis, audited nilpotent by multiplying its basis
vectors pairwise.
"""

from sphertwist.errors import SphertwistError, UnsupportedCharacteristic
from sphertwist.exactlin import Matrix, SpanBuilder, kernel_basis


def left_mult_matrix(a, x):
    """Row i is x·bᵢ."""
    rows = [a.mul_vec(x, a.basis_vector(i)) for i in range(a.dim)]
    return Matrix.from_pairs(a.field, rows, a.dim)


def right_mult_matrix(a, x):
    """Row i is bᵢ·x."""
    rows = [a.mul_vec(a.basis_vector(i), x) for i in range(a.dim)]
    return Matrix.from_pairs(a.field, rows, a.dim)


def is_nilpotent(a, base):
    """Whether the span of ``base`` has a power 0, from the products u·v."""
    current = [list(r) for r in base]
    steps = 1
    while current:
        if steps > a.dim:
            return False
        nxt = SpanBuilder(a.field, a.dim)
        for u in current:
            for v in base:
                nxt.add(a.mul_vec(u, v))
        current = nxt.basis_pairs()
        steps += 1
    return True


def _trace(m):
    """The sum of the diagonal entries of a square matrix."""
    f, rows = m.field, m.rows
    t = f.zero()
    for i in range(m.nrows):
        t = f.add(t, rows[i][i])
    return t


def trace_form_radical(a):
    """The kernel of (bᵢ, bⱼ) ↦ Σₖ cᵢⱼᵏ·tr(Lₖ), with Lₖ formed by
    `left_mult_matrix`, in characteristic 0 or p > dim."""
    f = a.field
    if f.characteristic != 0 and f.characteristic <= a.dim:
        raise UnsupportedCharacteristic("trace form needs char 0 or p > dim")
    traces = [_trace(left_mult_matrix(a, a.basis_vector(k))) for k in range(a.dim)]
    gram = []
    for i in range(a.dim):
        row = []
        for j in range(a.dim):
            t = f.zero()
            for k, c in a.mul_vec(a.basis_vector(i), a.basis_vector(j)):
                t = f.add(t, f.mul(c, traces[k]))
            row.append(t)
        gram.append(row)
    rad = kernel_basis(Matrix(f, gram, a.dim))
    if not is_nilpotent(a, [rad.column(j) for j in range(rad.ncols)]):
        raise SphertwistError("radical candidate is not nilpotent")
    return rad
