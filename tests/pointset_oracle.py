"""Brute-force point-set oracle for the interval algebra, test surface only.

Every element over order size p is mirrored as a plain frozenset of point
indices; Boolean operations become set operations.  The production code
never sees this representation, so agreement between the two is a real
cross-check rather than a tautology.
"""

import itertools

from intalg import algebra, terms
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


BINARY_SET_OPS = {
    terms.Meet: frozenset.__and__,
    terms.Join: frozenset.__or__,
    terms.SymDiff: frozenset.__xor__,
}


def oracle_term(t, points, order_size):
    """Point set of term t over {0..order_size-1} when x_i is the point set
    points[i], by set operations; it shares no code with terms.evaluate."""
    if isinstance(t, terms.Var):
        return frozenset(points[t.index])
    if isinstance(t, terms.Zero):
        return frozenset()
    if isinstance(t, terms.One):
        return frozenset(range(order_size))
    if isinstance(t, terms.Compl):
        return frozenset(range(order_size)) - oracle_term(t.arg, points, order_size)
    for cls, op in BINARY_SET_OPS.items():
        if isinstance(t, cls):
            return op(
                oracle_term(t.left, points, order_size),
                oracle_term(t.right, points, order_size),
            )
    raise AssertionError(f"unknown term node {t!r}")


def oracle_minterms(t, n):
    """The sign vectors s in {0,1}^n at which t is 1 in the two-element
    algebra: the order of size 1, with x_i the point set {0} when s[i]."""
    return frozenset(
        signs
        for signs in itertools.product((0, 1), repeat=n)
        if oracle_term(t, [range(s) for s in signs], 1)
    )


def oracle_is_nontrivial(t):
    """Whether t is nonzero under some assignment in some Boolean algebra,
    which holds exactly when it is nonzero in the two-element one."""
    return bool(oracle_minterms(t, terms.num_vars(t)))


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
