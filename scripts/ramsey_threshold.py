#!/usr/bin/env python3
"""Decide, for each N, whether every k-coloring of pairs from N indices
contains a quadruple a0<a1<a2<a3 with equal color on all four cross pairs.

Each N is decided exactly by pruned backtracking (Knuth, TAOCP Vol. 4B,
7.2.2) over the colorings of the pairs.  One JSON row per N reads
all_colorings_have_quadruple true when the search proves it, false with a
coloring that has no such quadruple, or null when MAX_NODES runs out, and
counts the search's nodes.  A false row's coloring lists c(i, j) for
i < j, column j = 1..N-1 by column, and search.ramsey_quad has re-verified
it.  The loop stops at the first true (it holds at every larger N too) or
null.  Exit status: 0, or 1 after a null row, or 3 if a coloring fails its
re-verification.  For two colors the threshold is 10.

Example:
    python3 scripts/ramsey_threshold.py --colors 2 --max-n 10
    python3 scripts/ramsey_threshold.py --colors 3 --min-n 4 --max-n 12
"""

import argparse
import json
import sys

from intalg.search import ramsey_quad

# search nodes (colors placed) per N; 2 colors at N = 10 take 318,541
MAX_NODES = 1_000_000


def _completes(nbr, i, j):
    """Whether some a0 < i < a2 < j has a2 in nbr[a0] and nbr[i], and a0
    in nbr[j], where nbr[j] holds only the a0 < i colored so far."""
    a2s = nbr[i] >> (i + 1) << (i + 1)
    a0s = nbr[j]
    while a0s:
        a0 = a0s.bit_length() - 1
        if nbr[a0] & a2s:
            return True
        a0s ^= 1 << a0
    return False


def avoiding_coloring(n, k):
    """(verdict, coloring, nodes) for the k-colorings of pairs from n
    indices: (True, None, nodes) when every one has a cross-equal
    quadruple, (False, coloring, nodes) with the first one found that has
    none, as a dict on pairs (i, j), i < j, or (None, None, MAX_NODES)
    when deciding needs more than MAX_NODES colors placed.

    Pairs are colored column by column (j outer, i < j inner), each with
    the least color that keeps the search alive, on an explicit stack.  A
    color is at most one past the largest used so far, since renaming
    colors keeps quadruples.  Color c is rejected at (i, j) when (i, j)
    completes a quadruple as its last pair (a1, a3): some a0 < i < a2 < j
    has c(a0, a2) = c(i, a2) = c(a0, j) = c, every one colored already.
    nbr[c][a] is the bitmask of the indices b with c(a, b) = c."""
    pairs = [(i, j) for j in range(n) for i in range(j)]
    nbr = [[0] * n for _ in range(k)]
    stack = []  # (color, largest color used so far), one per colored pair
    nodes = 0
    c = 0
    while len(stack) < len(pairs):
        i, j = pairs[len(stack)]
        top = stack[-1][1] if stack else -1
        limit = min(k, top + 2)
        while c < limit and _completes(nbr[c], i, j):
            c += 1
        if c < limit:
            if nodes == MAX_NODES:
                return None, None, nodes
            nodes += 1
            nbr[c][i] |= 1 << j
            nbr[c][j] |= 1 << i
            stack.append((c, max(top, c)))
            c = 0
        elif stack:
            c = stack.pop()[0]
            i, j = pairs[len(stack)]
            nbr[c][i] &= ~(1 << j)
            nbr[c][j] &= ~(1 << i)
            c += 1
        else:
            return True, None, nodes
    return False, {pair: c for pair, (c, _) in zip(pairs, stack)}, nodes


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--colors", type=int, default=2)
    parser.add_argument("--min-n", type=int, default=4)
    parser.add_argument("--max-n", type=int, default=8)
    args = parser.parse_args()
    if args.colors < 0 or args.min_n < 0:
        parser.error("--colors and --min-n must not be negative")

    for n in range(args.min_n, args.max_n + 1):
        verdict, coloring, nodes = avoiding_coloring(n, args.colors)
        columns = None
        if coloring is not None:
            if ramsey_quad(n, lambda i, j: coloring[i, j]) is not None:
                message = f"the coloring at n = {n} has a cross-equal quadruple"
                error = {"error": "AssertionError", "message": message}
                print(json.dumps(error), file=sys.stderr)
                return 3
            columns = [[coloring[i, j] for i in range(j)] for j in range(1, n)]
        row = {
            "n": n,
            "colors": args.colors,
            "method": "backtracking",
            "nodes": nodes,
            "all_colorings_have_quadruple": verdict,
            "coloring": columns,
        }
        print(json.dumps(row))
        if verdict is None:
            return 1
        if verdict:
            break
    return 0


if __name__ == "__main__":
    sys.exit(main())
