"""Case analysis for homogeneous triples.

Four fixed nontrivial terms have the property that on every homogeneous
triple (a0, a1, a2) at least one of them evaluates to zero.
verify_triples checks this on one instance per order type of homogeneous
triples.  The vanishing set of an instance is always computed by direct
evaluation; its case tag only records whether the nesting gap of a2
inside a1 is interior or touches the boundary of the sigma vector.
"""

from __future__ import annotations

import math

from . import algebra, homogeneity, terms
from .errors import CapacityError, InputError, Value

TRIPLE_TERMS = (
    terms.parse("x0*x1*-x2"),
    terms.parse("-x0*-x1*x2"),
    terms.parse("x1*x2"),
    terms.parse("-x1*-x2"),
)

CASE_INTERIOR = "interior"  # nesting gap of the last pair is interior
CASE_BOUNDARY = "boundary"  # nesting gap touches an end of the sigma vector

# at max_k = 6 the counts then have ~70 digits; far larger orders would pass
# Python's int->str digit limit when the report is written as JSON
MAX_SWEEP_ORDER = 10**6
MAX_SWEEP_SIGMA = 6


def _case_tag(ell_12: int, n: int) -> str:
    if ell_12 != 0 and ell_12 + 1 != n - 1:
        return CASE_INTERIOR
    return CASE_BOUNDARY


def _vanishing(a0, a1, a2) -> frozenset:
    triple = [a0, a1, a2]
    return frozenset(
        i
        for i, t in enumerate(TRIPLE_TERMS)
        if terms.evaluate(t, triple).is_empty()
    )


class SweepReport(Value):
    __slots__ = ("triples", "interior", "boundary", "counterexamples")

    def to_dict(self) -> dict:
        return {
            "triples": self.triples,
            "case1": self.interior,
            "case2": self.boundary,
            "counterexamples": [
                [[algebra.encode_endpoint(e) for e in eps] for eps in c]
                for c in self.counterexamples
            ],
        }


def verify_triples(max_p: int, max_k: int) -> SweepReport:
    """Classify every homogeneous triple over orders of size at most max_p
    with common sigma size at most max_k, one order type at a time.

    The vanishing set and the case tag of a triple depend only on its
    order type (homogeneity.order_types), and a type with m >= 1 finite
    endpoints per member occurs C(p-1, 3m) times at order size p: once per
    choice of its 3m points.  Over p <= max_p that sums to C(max_p, 3m+1).
    For m = 0 the triples are (e, e, e), e empty on max_p + 1 orders or
    full on max_p; on the empty order every term vanishes.  A
    counterexample is reported by its type's instance.
    """
    if max_p < 0 or max_k < 0:
        raise InputError(f"negative bound: max_p={max_p}, max_k={max_k}")
    if max_p > MAX_SWEEP_ORDER:
        raise CapacityError(f"order cap is {MAX_SWEEP_ORDER}, got {max_p}")
    if max_k > MAX_SWEEP_SIGMA:
        raise CapacityError(f"sigma cap is {MAX_SWEEP_SIGMA}, got {max_k}")
    total = interior = 0
    counterexamples = []
    for m in range(max_k - 1):  # |sigma| = m + 2
        for starts in (False, True):
            weight = math.comb(max_p, 3 * m + 1) + (m == 0 and not starts)
            if not weight:
                continue
            for triple, ell in homogeneity.order_types(3, m, starts):
                total += weight
                if _case_tag(ell[2][1], m + 2) == CASE_INTERIOR:
                    interior += weight
                if not _vanishing(*triple):
                    counterexamples.append(tuple(a.endpoints for a in triple))
    return SweepReport(total, interior, total - interior, tuple(counterexamples))
