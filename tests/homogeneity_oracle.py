"""Reference extractor: the largest per-coordinate homogeneous subfamily,
by trying every index subset, largest first.

It returns the lexicographically least among the largest subsets, the
yardstick for homogeneity.extract_semi_homogeneous.
"""

import itertools

from intalg.errors import CapacityError
from intalg.homogeneity import check_homogeneous

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
