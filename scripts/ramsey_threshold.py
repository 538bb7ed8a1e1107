#!/usr/bin/env python3
"""Explore the smallest N at which every k-coloring of pairs from N indices
contains a quadruple a0<a1<a2<a3 with equal color on all four cross pairs.

For k = 2 the search is exhaustive over all colorings of the cross-relevant
pairs at small N; for larger k it falls back to randomized falsification.

Example:
    python3 scripts/ramsey_threshold.py --colors 2 --max-n 8
    python3 scripts/ramsey_threshold.py --colors 3 --max-n 20 --samples 20000
"""

import argparse
import itertools
import json
import random
import sys

from intalg.search import ramsey_quad


def exhaustive_colorings_fail(n, k):
    """A coloring of all pairs over n indices with no cross-equal quadruple,
    or None if every coloring has one (exhaustive, so only tiny n/k)."""
    pairs = list(itertools.combinations(range(n), 2))
    for assignment in itertools.product(range(k), repeat=len(pairs)):
        table = dict(zip(pairs, assignment))
        if ramsey_quad(n, lambda i, j: table[(i, j)]) is None:
            return table
    return None


def random_falsify(n, k, samples, seed):
    """The first of samples random colorings with no cross-equal
    quadruple, as a table of the pairs ramsey_quad read, or None.  Colors
    are drawn as ramsey_quad asks for them, in lexicographic order, as
    `intalg ramsey quad` draws them."""
    rng = random.Random(seed)
    for _ in range(samples):
        table = {}

        def color(i, j):
            table[i, j] = rng.randrange(k)
            return table[i, j]

        if ramsey_quad(n, color) is None:
            return table
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--colors", type=int, default=2)
    parser.add_argument("--min-n", type=int, default=4)
    parser.add_argument("--max-n", type=int, default=8)
    parser.add_argument(
        "--samples",
        type=int,
        default=0,
        help="random colorings per n (0 = exhaustive, feasible for tiny n)",
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rows = []
    for n in range(args.min_n, args.max_n + 1):
        if args.samples == 0:
            bad = exhaustive_colorings_fail(n, args.colors)
            method = "exhaustive"
        else:
            bad = random_falsify(n, args.colors, args.samples, args.seed)
            method = f"random x{args.samples}"
        rows.append(
            {
                "n": n,
                "colors": args.colors,
                "method": method,
                "all_colorings_have_quadruple": bad is None,
            }
        )
        print(json.dumps(rows[-1]))
        if bad is None and args.samples == 0:
            # exhaustive success at n implies success at every larger n
            break
    return 0


if __name__ == "__main__":
    sys.exit(main())
