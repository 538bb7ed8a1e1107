"""Reference Lemma 16 sweep: every element of every order size.

It enumerates all 2^p elements of each order size p <= max_p, groups
those with |sigma| <= max_k by shape (algebra.sigma_of), and classifies
every triple of a group that nests pairwise, by the pairwise nesting_gap
oracle, so its report is the one that triples.verify_triples must
reproduce from one instance per order type.

hand_built_triple_types is the triple-only enumerator that
homogeneity.order_types replaced, with its ell rows written out by hand.
"""

import itertools

from intalg import algebra
from intalg.algebra import NEG_INF, POS_INF, Element
from intalg.triples import CASE_INTERIOR, SweepReport, _case_tag, _vanishing

from .homogeneity_oracle import nesting_gap


def _all_elements(p):
    for bits in range(1 << p):
        yield algebra.from_point_set(p, [i for i in range(p) if bits >> i & 1])


def sweep_triples(max_p, max_k):
    total = interior = boundary = 0
    counterexamples = []
    for p in range(max_p + 1):
        groups = {}  # clauses 1 and 2: one group per shape
        for a in _all_elements(p):
            shape, finite = algebra.sigma_of(a)
            if shape[0] <= max_k:
                groups.setdefault(shape, []).append((a, finite))
        for (n, _, _), group in groups.items():
            members = [a for a, _ in group]
            size = len(members)
            # pairwise nesting gaps; None marks a clause-3 failure
            gap = [[nesting_gap(fi, fj) for _, fj in group] for _, fi in group]
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


def hand_built_triple_types(m, starts):
    """(triple, ell) for one instance of each order type of homogeneous
    triples whose members have m finite endpoints and start at -inf when
    starts: a1's endpoints are a block in gap ell01 of a0, and a2's a block
    in one of the 2m+1 slots of that merged list.  Each instance sits on
    the points 1..3m of order 3m+1; ell is its HomogeneityReport.ell."""
    head, tail = (NEG_INF,) * starts, (POS_INF,) * ((m + starts) % 2)
    for ell01 in range(m + 1):
        merged = [0] * ell01 + [1] * m + [0] * (m - ell01)
        for slot in range(2 * m + 1):
            labels = merged[:slot] + [2] * m + merged[slot:]
            finite = [[], [], []]
            for x, i in enumerate(labels, 1):
                finite[i].append(x)
            triple = [Element(3 * m + 1, head + tuple(f) + tail) for f in finite]
            below = labels[:slot]
            yield triple, [[], [ell01], [below.count(0), below.count(1)]]
