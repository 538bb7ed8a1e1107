"""Reference sextuple search: the six-deep nest over every index tuple.

It visits candidates in lexicographic order, filters them on gap-vector
equality with EllMatrix.ell_vec, and accepts the first one on which the
mode's term evaluates to zero, so it returns the least certificate that
search.find_sextuple must reproduce.
"""

from intalg.errors import InputError
from intalg.product import is_zero, prod_eval
from intalg.search import MODE_TERMS, _certificate, ell_matrix


def naive_find_sextuple(fam, mode="short"):
    if mode not in ("short", "symmetric"):
        raise InputError(f"unknown sextuple mode {mode!r}")
    matrix = ell_matrix(fam)
    n = len(fam)
    term = MODE_TERMS[mode]

    def vec(a, b):
        return matrix.ell_vec(a, b)

    for a0 in range(n - 5):
        for a1 in range(a0 + 1, n - 4):
            v = vec(a0, a1)
            for a2 in range(a1 + 1, n - 3):
                if vec(a0, a2) != v:
                    continue
                w = vec(a1, a2)
                for a3 in range(a2 + 1, n - 2):
                    for a4 in range(a3 + 1, n - 1):
                        if vec(a3, a4) != v:
                            continue
                        for a5 in range(a4 + 1, n):
                            if vec(a3, a5) != v:
                                continue
                            if mode == "symmetric" and vec(a4, a5) != w:
                                continue
                            idx = (a0, a1, a2, a3, a4, a5)
                            if is_zero(prod_eval(term, fam, idx)):
                                return _certificate(fam, matrix.vectors, idx, mode)
    return None
