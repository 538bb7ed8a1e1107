"""Pairwise homogeneity references.

nesting_gap is the clause-3 rule for one pair of members, one bisect per
pair, and pairwise_check_homogeneous the homogeneity check built on it
pair by pair: the yardsticks for homogeneity._nesting_row's whole-chain
rows in check_homogeneous.  The per-pair greedy selection is kept here
too, as the reference for the extractor's greedy path.

exhaustive_max_homogeneous is the reference extractor: the largest
per-coordinate homogeneous subfamily, by trying every index subset,
largest first.  It returns the lexicographically least among the largest
subsets, the yardstick for homogeneity.extract_semi_homogeneous.

slot_ells is the label-count rule for the ells of homogeneity.order_types'
instances, which order_types reads off with _nesting_row instead.
"""

import itertools
from bisect import bisect_left

from intalg.algebra import NEG_INF, POS_INF, sigma_of
from intalg.errors import CapacityError
from intalg.homogeneity import HomogeneityReport, Violation, check_homogeneous

EXHAUSTIVE_ORACLE_CAP = 12


def vec_sigma(a) -> tuple:
    """a's endpoint set sigma: its finite endpoints with -inf and +inf."""
    _, finite = sigma_of(a)
    return (NEG_INF, *finite, POS_INF)


def nesting_gap(finite_alpha: tuple, finite_beta: tuple) -> int | None:
    """Least ell with vec[ell] < s < vec[ell+1] for every finite endpoint s
    of beta, where vec is alpha's finite endpoints with -inf and +inf, or
    None; ell defaults to 0 when beta has no finite endpoints.

    beta nests in a gap of alpha exactly when no endpoint of alpha lies in
    beta's span [lo, hi], that is when the first one at or above lo lies
    above hi; the endpoints below lo, less -inf, count the gap's index."""
    if not finite_beta:
        return 0
    vec = (NEG_INF, *finite_alpha, POS_INF)
    ell = bisect_left(vec, finite_beta[0])
    return ell - 1 if finite_beta[-1] < vec[ell] else None


def pairwise_check_homogeneous(seq) -> HomogeneityReport:
    """check_homogeneous with one nesting_gap call per pair, in alpha-major
    order, so that a violation names the least failing pair."""
    sigmas = [sigma_of(a) for a in seq]
    for i, (shape, _) in enumerate(sigmas):
        if shape[0] != sigmas[0][0][0]:
            detail = f"|sigma| {shape[0]} != {sigmas[0][0][0]}"
            return HomogeneityReport(False, None, Violation(1, (0, i), detail))
    for i, (shape, _) in enumerate(sigmas):
        if shape != sigmas[0][0]:
            detail = "infinite-endpoint patterns differ"
            return HomogeneityReport(False, None, Violation(2, (0, i), detail))
    ell = [[] for _ in sigmas]
    for alpha, beta in itertools.combinations(range(len(sigmas)), 2):
        gap = nesting_gap(sigmas[alpha][1], sigmas[beta][1])
        if gap is None:
            detail = "no single gap contains the later endpoints"
            return HomogeneityReport(False, None, Violation(3, (alpha, beta), detail))
        ell[beta].append(gap)
    return HomogeneityReport(True, ell, None)


def slot_ells(k: int, m: int):
    """The ells of order_types(k, m, starts) in its order: one per slot
    sequence, lexicographic, member j's block of m finite endpoints going
    into slot slots[j] of the earlier members' merged endpoints, so that
    ell[j][i] counts the endpoints of member i among the first slots[j]."""
    for slots in itertools.product(*(range(j * m + 1) for j in range(k))):
        labels, ell = [], []
        for j, slot in enumerate(slots):
            ell.append(list(map(labels[:slot].count, range(j))))
            labels[slot:slot] = [j] * m
        yield ell


def exhaustive_max_homogeneous(fam):
    n = len(fam)
    if n > EXHAUSTIVE_ORACLE_CAP:
        raise CapacityError(f"{n} members exceed cap {EXHAUSTIVE_ORACLE_CAP}")
    for size in range(n, 0, -1):
        for subset in itertools.combinations(range(n), size):
            if all(
                check_homogeneous([fam.members[a][z] for a in subset]).ok
                for z in range(fam.kappa)
            ):
                return subset
    return ()


def pairwise_greedy_nested(sigmas, group, start):
    """Reference for homogeneity._greedy_nested: the same greedy selection,
    testing each candidate against every chosen member with one
    nesting_gap call per pair and coordinate."""
    chosen = [group[start]]
    ell = tuple([[]] for _ in sigmas[group[start]])
    for beta in group[start + 1 :]:
        rows = []
        for zeta, (_, finite) in enumerate(sigmas[beta]):
            row = [nesting_gap(sigmas[a][zeta][1], finite) for a in chosen]
            if None in row:
                break
            rows.append(row)
        else:  # beta nests in every chosen member, in every coordinate
            for ell_rows, row in zip(ell, rows):
                ell_rows.append(row)
            chosen.append(beta)
    return chosen, ell
