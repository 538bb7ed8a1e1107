"""Reference validation of an Element: the per-endpoint loop, test surface
only.

algebra.Element checks a long endpoint list in C and runs its own copy of
this loop only to name a fault, so the two must agree on which lists they
accept and on the text of every InputError.
"""

from intalg.algebra import NEG_INF, POS_INF


def validation_error(p, eps):
    """The InputError text Element(p, eps) must raise, or None if it is
    a valid element."""
    if p < 0:
        return f"negative order size {p}"
    if len(eps) % 2 != 0:
        return f"odd endpoint count: {eps}"
    if p == 0 and eps:
        return "the empty order admits only the empty element"
    for i, e in enumerate(eps):
        if e != NEG_INF and e != POS_INF and not (
            isinstance(e, int) and 1 <= e < p
        ):
            return f"endpoint {e!r} outside I* for order size {p}"
        if i > 0 and not eps[i - 1] < e:
            return f"endpoints not strictly increasing: {eps}"
    return None
