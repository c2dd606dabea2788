"""Conversion between the package's vector form and dense lists.

The package passes every vector (an algebra element, a module vector, a
right-hand side, a preimage, a list of coordinates) as a list of
(index, entry) pairs, sorted by index, holding only the nonzero entries,
each over F_p reduced into [1, p).  Tests whose data or oracles are
dense convert at their own boundary with these two functions.
"""


def pairs(field, dense):
    """The vector of a dense list: each entry coerced into the field,
    the zeros dropped."""
    return [(i, c) for i, c in enumerate(map(field.coerce, dense)) if c]


def dense(field, vec, n):
    """The dense list of length n with the entries of a vector."""
    out = [field.zero()] * n
    for i, c in vec:
        out[i] = c
    return out
