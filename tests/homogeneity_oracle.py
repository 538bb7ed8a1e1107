"""Reference extractor: the largest per-coordinate homogeneous subfamily,
by trying every index subset, largest first.

It returns the lexicographically least among the largest subsets, the
yardstick for homogeneity.extract_semi_homogeneous.  The per-pair greedy
selection is kept here too, as the reference for the extractor's
whole-chain rows.
"""

import itertools

from intalg.errors import CapacityError
from intalg.homogeneity import check_homogeneous, nesting_gap

EXHAUSTIVE_ORACLE_CAP = 12


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
        for zeta, sig in enumerate(sigmas[beta]):
            row = [nesting_gap(sigmas[a][zeta].vec_sigma, sig.span) for a in chosen]
            if None in row:
                break
            rows.append(row)
        else:  # beta nests in every chosen member, in every coordinate
            for ell_rows, row in zip(ell, rows):
                ell_rows.append(row)
            chosen.append(beta)
    return chosen, ell
