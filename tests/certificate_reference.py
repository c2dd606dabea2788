"""The routes that setup certificates replaced, kept as test oracles.

`frobenius.is_self_injective` certifies self-injectivity by a Frobenius
form and falls back to the add route only when the draw finds none;
`add_route_self_injective` always takes the add route, comparing the
regular module with its dual.  `algebra.quotient_surjection` audits its
ideal off the sparse table and skips zero products;
`dense_ideal_audit` multiplies every canonical row by every basis
vector with `Algebra.mul_vec` and tests every product for membership,
in the same order.
"""

from sphertwist.exactlin import SpanBuilder
from sphertwist.modules import Module, add_equivalent


def add_route_self_injective(a):
    """Whether add(A_A) = add(D A), by the hom spaces each way."""
    return add_equivalent(Module.regular(a), Module.coregular(a))


def dense_ideal_audit(a, ideal):
    """(message, witness) of the first product leaving the span of the
    vectors ``ideal``, or None when the span is a two-sided ideal."""
    span = SpanBuilder(a.field, a.dim)
    for g in ideal:
        span.add(g)
    for g in span.basis_pairs():
        for i in range(a.dim):
            left = a.mul_vec(a.basis_vector(i), g)
            right = a.mul_vec(g, a.basis_vector(i))
            if not span.contains(left):
                return "b%d · ideal element leaves the span" % i, (i, g, left)
            if not span.contains(right):
                return "ideal element · b%d leaves the span" % i, (i, g, right)
    return None
