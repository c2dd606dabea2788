"""Side-2 rigidity on the whole extra sum, kept as a test oracle.

`spherical.rigidity_check` and `spherical._assert_mirror_properties`
read the stable Hom(ΩⁱX, X) and Hom(X, ΣⁱX) of the extra part
X = ⊕ xⱼ one pair of catalog summands at a time.  The routines here are
the older bodies: they build X as one direct sum and suspend it whole.
Each suspension is a fresh `suspension_power`; nothing here is cached.
"""

from sphertwist.errors import AuditFailed, SphertwistError
from sphertwist.frobenius import stable_hom, suspension_power
from sphertwist.homology import left_module_along
from sphertwist.modules import direct_sum
from sphertwist.resolutions import minimal_resolution
from sphertwist.spherical import _extra_modules


def _extra_sum(ctx):
    xs = _extra_modules(ctx)
    return xs[0] if len(xs) == 1 else direct_sum(xs)[0]


def _suspension(ctx, m, k):
    """Σᵏm of any module, with no ladder."""
    return suspension_power(m, k)


def rigidity_check(ctx, t):
    """No stable maps from any syzygy power below the window back to the
    extra part; vacuously true at t = 2."""
    if t < 2:
        raise SphertwistError("window must be at least 2")
    if t == 2 or not _extra_modules(ctx):
        return True
    x = _extra_sum(ctx)
    for i in range(1, t - 1):
        if stable_hom(_suspension(ctx, x, -i), x)[0]:
            return False
    return True


def _assert_mirror_properties(ctx, t, cap):
    """The left-handed halves of a passing audit, asserted outright:
    the stable quotient resolves finitely on the other side too, and
    rigidity holds in the cosuspension direction."""
    if minimal_resolution(left_module_along(ctx.to_stable), cap=cap).truncated:
        raise AuditFailed(
            "stable quotient is perfect on one side only"
        )
    if t == 2 or not _extra_modules(ctx):
        return
    x = _extra_sum(ctx)
    for i in range(1, t - 1):
        if stable_hom(x, _suspension(ctx, x, i))[0]:
            raise AuditFailed(
                "rigidity fails in the cosuspension direction at step %d" % i
            )
