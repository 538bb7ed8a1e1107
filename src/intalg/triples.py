"""Case analysis for homogeneous triples.

Four fixed nontrivial terms have the property that on every homogeneous
triple (a0, a1, a2) at least one of them evaluates to zero.  The
vanishing set is always computed by direct evaluation; the case tag only
records whether the nesting gap of a2 inside a1 is interior or touches
the boundary of the sigma vector.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import algebra, homogeneity, terms
from .errors import CapacityError, InputError

TRIPLE_TERMS = (
    terms.parse("x0*x1*-x2"),
    terms.parse("-x0*-x1*x2"),
    terms.parse("x1*x2"),
    terms.parse("-x1*-x2"),
)

CASE_INTERIOR = "interior"  # nesting gap of the last pair is interior
CASE_BOUNDARY = "boundary"  # nesting gap touches an end of the sigma vector

MAX_SWEEP_ORDER = 8
MAX_SWEEP_SIGMA = 6


@dataclass(frozen=True)
class TripleClassification:
    vanishing: frozenset  # positions into TRIPLE_TERMS, nonempty
    case_tag: str
    ell: list  # the triple's HomogeneityReport.ell rows


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


def classify_triple(a0, a1, a2) -> TripleClassification:
    report = homogeneity.check_homogeneous([a0, a1, a2])
    if not report.ok:
        raise InputError(f"triple is not homogeneous: {report.violation}")
    vanishing = _vanishing(a0, a1, a2)
    if not vanishing:
        raise AssertionError(
            f"internal consistency failure: no term vanishes on "
            f"{a0.endpoints}, {a1.endpoints}, {a2.endpoints}"
        )
    n = algebra.sigma_of(a0).n_a
    return TripleClassification(
        vanishing, _case_tag(report.ell[2][1], n), report.ell
    )


@dataclass(frozen=True)
class SweepReport:
    triples: int
    interior: int
    boundary: int
    counterexamples: tuple

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


def _all_elements(p: int):
    for bits in range(1 << p):
        yield algebra.from_point_set(p, [i for i in range(p) if bits >> i & 1])


def verify_triples(max_p: int, max_k: int) -> SweepReport:
    """Exhaustively classify every homogeneous triple over orders of size
    at most max_p with common sigma size at most max_k."""
    if max_p < 0 or max_k < 0:
        raise InputError(f"negative bound: max_p={max_p}, max_k={max_k}")
    if max_p > MAX_SWEEP_ORDER:
        raise CapacityError(f"order cap is {MAX_SWEEP_ORDER}, got {max_p}")
    if max_k > MAX_SWEEP_SIGMA:
        raise CapacityError(f"sigma cap is {MAX_SWEEP_SIGMA}, got {max_k}")
    total = interior = boundary = 0
    counterexamples = []
    for p in range(max_p + 1):
        groups = {}  # clauses 1 and 2: one group per Sigma shape
        for a in _all_elements(p):
            sig = algebra.sigma_of(a)
            if sig.n_a <= max_k:
                groups.setdefault(sig.shape, []).append((a, sig))
        for (n, _, _), group in groups.items():
            members = [a for a, _ in group]
            size = len(members)
            # pairwise nesting gaps; None marks a clause-3 failure
            gap = [
                [homogeneity.nesting_gap(si.vec_sigma, sj.span) for _, sj in group]
                for _, si in group
            ]
            for i, j, k in itertools.product(range(size), repeat=3):
                if gap[i][j] is None or gap[i][k] is None or gap[j][k] is None:
                    continue
                total += 1
                if _case_tag(gap[j][k], n) == CASE_INTERIOR:
                    interior += 1
                else:
                    boundary += 1
                if not _vanishing(members[i], members[j], members[k]):
                    counterexamples.append(
                        (
                            members[i].endpoints,
                            members[j].endpoints,
                            members[k].endpoints,
                        )
                    )
    return SweepReport(total, interior, boundary, tuple(counterexamples))
