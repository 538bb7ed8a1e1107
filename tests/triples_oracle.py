"""Reference Lemma 16 sweep: every element of every order size.

It enumerates all 2^p elements of each order size p <= max_p, groups
those with |sigma| <= max_k by Sigma shape, and classifies every triple
of a group that nests pairwise, so its report is the one that
triples.verify_triples must reproduce from one instance per order type.
"""

import itertools

from intalg import algebra, homogeneity
from intalg.triples import CASE_INTERIOR, SweepReport, _case_tag, _vanishing


def _all_elements(p):
    for bits in range(1 << p):
        yield algebra.from_point_set(p, [i for i in range(p) if bits >> i & 1])


def sweep_triples(max_p, max_k):
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
