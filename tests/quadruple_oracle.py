"""Reference quadruple search: the gap-vector Ramsey hit, then every
quadruple in lexicographic order, each accepted only when the term
evaluates to zero on it.

search.find_quadruple decides the same candidates by order type and must
return the same certificate.
"""

import itertools

from intalg.product import is_zero, prod_eval
from intalg.search import (
    TERM_QUAD,
    Certificate,
    CoordinateEvidence,
    ell_matrix,
    gap_side,
    ramsey_quad,
)


def naive_find_quadruple(fam):
    matrix = ell_matrix(fam)
    n = len(fam)
    hit = ramsey_quad(n, matrix.ell_vec)
    candidates = itertools.combinations(range(n), 4)
    if hit is not None:
        candidates = itertools.chain([hit], candidates)
    for idx in candidates:
        if is_zero(prod_eval(TERM_QUAD, fam, idx)):
            evidence = tuple(
                CoordinateEvidence(zeta, (ell,), gap_side(fam, zeta, idx[0], ell))
                for zeta, ell in enumerate(matrix.ell_vec(idx[0], idx[2]))
            )
            return Certificate(idx, TERM_QUAD, "quadruple", evidence)
    return None
