"""Reference independence test: every sign pattern's meet, built afresh.

For each pattern and coordinate it lists the chosen members again and
meets them into the full element, complementing each member taken with
sign 0 on the spot, so it returns the (ok, witness) that
product.is_independent must reproduce.
"""

import itertools

from intalg import algebra
from intalg.product import DependenceWitness


def _pattern_meet(order_size, elements, pattern):
    acc = algebra.full(order_size)
    for a, sign in zip(elements, pattern):
        acc = algebra.meet(acc, a if sign else algebra.complement(a))
        if acc.is_empty():
            break
    return acc


def naive_is_independent(fam, indices):
    indices = list(indices)
    for pattern in itertools.product((0, 1), repeat=len(indices)):
        nonzero = False
        for zeta in range(fam.kappa):
            chosen = [fam.members[i][zeta] for i in indices]
            meet = _pattern_meet(fam.order_sizes[zeta], chosen, pattern)
            if not meet.is_empty():
                nonzero = True
                break
        if not nonzero:
            gamma = tuple(j for j, s in enumerate(pattern) if s == 1)
            nabla = tuple(j for j, s in enumerate(pattern) if s == 0)
            return False, DependenceWitness(pattern, gamma, nabla)
    return True, None
