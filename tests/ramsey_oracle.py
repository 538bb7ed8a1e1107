"""Exhaustive reference for scripts/ramsey_threshold.py: every k-coloring
of the pairs from n indices, in lexicographic order, each tested by
search.ramsey_quad.  There are k^C(n, 2) of them, so only tiny n and k.

avoiding_coloring's backtracking must reach the same verdict.
"""

import itertools

from intalg.search import ramsey_quad


def exhaustive_avoiding_coloring(n, k):
    """The first coloring of all pairs over n indices with no cross-equal
    quadruple, as a dict on pairs (i, j), i < j, or None if every
    coloring has one."""
    pairs = list(itertools.combinations(range(n), 2))
    for assignment in itertools.product(range(k), repeat=len(pairs)):
        table = dict(zip(pairs, assignment))
        if ramsey_quad(n, lambda i, j: table[i, j]) is None:
            return table
    return None
