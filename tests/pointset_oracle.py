"""Brute-force point-set oracle for the interval algebra, test surface only.

Every element over order size p is mirrored as a plain frozenset of point
indices; Boolean operations become set operations.  The production code
never sees this representation, so agreement between the two is a real
cross-check rather than a tautology.
"""

from intalg import algebra
from intalg.algebra import NEG_INF, POS_INF


def oracle_points(a):
    """Membership-enumeration reading of an endpoint list."""
    pts = set()
    for x in range(a.order_size):
        # walk the endpoint list directly instead of using bisect
        inside = False
        for e in a.endpoints:
            bound = 0 if e == NEG_INF else (a.order_size if e == POS_INF else e)
            if bound <= x:
                inside = not inside
            else:
                break
        if inside:
            pts.add(x)
    return frozenset(pts)


def oracle_meet(a, b):
    return oracle_points(a) & oracle_points(b)


def oracle_join(a, b):
    return oracle_points(a) | oracle_points(b)


def oracle_symdiff(a, b):
    return oracle_points(a) ^ oracle_points(b)


def oracle_complement(a):
    return frozenset(range(a.order_size)) - oracle_points(a)


def oracle_restrict(a, lo, hi):
    """Point set of a within [lo, hi), re-indexed from lo."""
    p = a.order_size
    lo_clip = 0 if lo == NEG_INF else int(lo)
    hi_clip = p if hi == POS_INF else int(hi)
    return frozenset(
        x - lo_clip for x in oracle_points(a) if lo_clip <= x < hi_clip
    )


def all_elements(p):
    """Every element of B({0..p-1}), via every point subset."""
    for bits in range(1 << p):
        yield algebra.from_point_set(p, [i for i in range(p) if bits >> i & 1])


def oracle_gap_side(a, ell):
    """Inside/outside of gap ell by direct point enumeration."""
    _, finite = algebra.sigma_of(a)
    lo, hi = (NEG_INF, *finite, POS_INF)[ell : ell + 2]
    lo_clip = 0 if lo == NEG_INF else int(lo)
    hi_clip = a.order_size if hi == POS_INF else int(hi)
    gap = set(range(lo_clip, hi_clip))
    pts = oracle_points(a)
    if gap <= pts:
        return "inside"
    if not gap & pts:
        return "outside"
    raise AssertionError(f"gap {ell} of {a.endpoints} is mixed")
