"""Certificate-producing searches over per-coordinate homogeneous families.

Witness tuples are located through the nesting-gap vectors of member
pairs: repeated vectors pin down where symmetric differences must live,
so fixed six- and four-variable terms evaluate to zero on the tuple.
Every certificate is re-verified by direct coordinatewise evaluation
before it is returned.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right

from . import algebra, homogeneity, terms
from .errors import CapacityError, InputError, Value
from .homogeneity import EllMatrix
from .product import Family

TERM_SHORT = terms.parse("x0*x1*-x2*-x3*x4*-x5")
TERM_SYMMETRIC = terms.parse("(x0^x1)*x2*(x3^x4)*-x5")
TERM_QUAD = terms.parse("(x0^x1)*(x2^x3)")

MODE_TERMS = {
    "short": TERM_SHORT,
    "symmetric": TERM_SYMMETRIC,
    "quadruple": TERM_QUAD,
}
# per mode, the position pairs (a, b) of a certificate's tuple whose ells
# its evidence records; the first names the gap whose side it gives
WITNESS_PAIRS = {
    "short": ((0, 1),),
    "symmetric": ((0, 1), (1, 2)),
    "quadruple": ((0, 2),),
}

INSIDE = "inside"
OUTSIDE = "outside"

# candidates find_sextuple may enumerate before it raises CapacityError;
# the most any test, benchmark task or campaign family needs is 27,164
MAX_SEXTUPLE_CANDIDATES = 1_000_000
# quadruples find_quadruple's fallback may test before it raises
# CapacityError; the most any test, benchmark task or campaign family
# needs is 1,365 (C(15, 4))
MAX_QUADRUPLE_CANDIDATES = 1_000_000


class CoordinateEvidence(Value):
    """The certificate's term is empty in coordinate zeta, by these ells."""

    __slots__ = ("zeta", "ell", "side")


class Certificate(Value):
    """per_coordinate holds one CoordinateEvidence per coordinate."""

    __slots__ = ("indices", "term", "mode", "per_coordinate")

    def to_dict(self) -> dict:
        return {
            "indices": list(self.indices),
            "term": terms.render(self.term),
            "mode": self.mode,
            "coordinates": [
                {
                    "zeta": c.zeta,
                    "empty": True,
                    "ell": list(c.ell),
                    "side": c.side,
                }
                for c in self.per_coordinate
            ],
        }


def ell_matrix(fam: Family) -> EllMatrix:
    """Every pair's nesting-gap witnesses, bundled into gap vectors, after
    homogeneity.check_witness_cap; an InputError names the first
    coordinate that is not homogeneous."""
    homogeneity.check_witness_cap(fam)
    per_coordinate = []
    for zeta in range(fam.kappa):
        report = homogeneity.check_homogeneous(fam.coordinate(zeta))
        if not report.ok:
            raise InputError(
                f"coordinate {zeta} is not homogeneous: {report.violation}"
            )
        per_coordinate.append(report.ell)
    return EllMatrix.index(per_coordinate, len(fam))


def gap_side(fam: Family, zeta: int, alpha: int, ell: int) -> str:
    """Whether gap ell of member alpha (in coordinate zeta) lies inside
    or outside the member; canonicity forbids anything in between."""
    (n_a, starts_inside, _), _ = algebra.sigma_of(fam.members[alpha][zeta])
    if not 0 <= ell < n_a - 1:
        raise InputError(f"gap index {ell} out of range for |sigma|={n_a}")
    inside = (ell + starts_inside) % 2 == 1
    return INSIDE if inside else OUTSIDE


def pigeonhole_state(matrix: EllMatrix) -> int:
    """How many distinct gap vectors the pairs show: the bound's input."""
    return len(set().union(*matrix.vectors))


def required_members(v_count: int, mode: str) -> int:
    """Family size that forces a witness, from the block construction:
    v+1 blocks of v+2 members repeat an anchor value twice in two blocks
    (short mode); pairing both gap vectors squares the value count."""
    if mode == "short":
        return (v_count + 1) * (v_count + 2)
    if mode == "symmetric":
        return (v_count**2 + 1) * (v_count + 2)
    raise InputError(f"unknown mode {mode!r}")


def _certificate(fam: Family, vectors, idx, mode: str) -> Certificate:
    """The certificate that MODE_TERMS[mode] vanishes on the members idx:
    per coordinate, the ells of the mode's WITNESS_PAIRS of idx, and the
    side of member idx[0] on which the first of them lies."""
    columns = zip(*[vectors[idx[b]][idx[a]] for a, b in WITNESS_PAIRS[mode]])
    evidence = tuple(
        CoordinateEvidence(zeta, ells, gap_side(fam, zeta, idx[0], ells[0]))
        for zeta, ells in enumerate(columns)
    )
    return Certificate(idx, MODE_TERMS[mode], mode, evidence)


def _order_type_decider(fam: Family, vectors, term: terms.Term):
    """decide(idx): whether term vanishes on the members idx, in increasing
    order, of the homogeneous family whose EllMatrix.vectors is vectors.

    Whether the term is empty in a coordinate depends only on the ells of
    idx's pairs there (the argument of homogeneity.order_types), so per
    coordinate it remembers the answer: a coordinate is evaluated the first
    time its ells appear, and a candidate whose ells somewhere already left
    the term non-empty is rejected without evaluation.  Otherwise the
    unknown coordinates are evaluated first, then the known-empty ones,
    each in coordinate order, up to the first non-empty one: a candidate it
    accepts has had every coordinate evaluated directly, each once.
    """
    members, order_sizes = fam.members, fam.order_sizes
    memos = [{} for _ in range(fam.kappa)]  # per coordinate: ells -> empty

    def decide(idx):
        columns = zip(*[vectors[b][a] for a, b in itertools.combinations(idx, 2)])
        unknown, known_empty = [], []
        for zeta, (ells, memo) in enumerate(zip(columns, memos)):
            empty = memo.get(ells)
            if empty is False:
                return False
            (unknown if empty is None else known_empty).append((zeta, ells, memo))
        for zeta, ells, memo in unknown + known_empty:
            values = [members[i][zeta] for i in idx]
            value = terms.evaluate(term, values, order_size=order_sizes[zeta])
            empty = memo[ells] = value.is_empty()
            if not empty:
                return False
        return True

    return decide


def find_sextuple(
    fam: Family, mode: str = "short", matrix: EllMatrix | None = None
) -> Certificate | None:
    """Lexicographically least verified sextuple witness, or None.

    Short mode wants the gap vector v of (a0,a1), (a0,a2), (a3,a4) and
    (a3,a5) to agree; symmetric mode additionally matches (a1,a2) with
    (a4,a5).  Only candidates that can match are enumerated: one pass over
    the gap vectors of the family's ell matrix (built here unless the
    caller passes it) buckets each anchor's successors by vector and
    lists, per vector, the anchors whose bucket holds two members.  a2
    runs over a0's bucket for v past a1, a3 over the anchors for v past
    a2, and (a4, a5) over the pairs in a3's bucket.  The candidates come
    in the same lexicographic order as a nest over all index tuples
    (tests/sextuple_oracle.py), and each is only accepted after
    coordinatewise evaluation confirms the mode's term is zero on it.

    Most symmetric-mode candidates fail, and most of them are decided
    without evaluation: a coordinate's emptiness depends only on the 15
    pairwise ells of the candidate (homogeneity.order_types), so it is
    evaluated the first time its ells appear.

    Short mode never fails on a candidate.  In each coordinate a1 and a2
    lie in gap ell of a0, and a4 and a5 in gap ell of a3, and the shared
    shape puts both gaps on the same side of their members.  Outside its
    gap a1 agrees with a2, and a4 with a5.  So x0*x1*-x2 is empty in that
    coordinate when the gap lies outside a0, and -x3*x4*-x5 when it lies
    inside a3: the first candidate enumerated is the certificate.

    The nest charges each a4 for the a5 it pairs with, before it tests any
    of them, and past MAX_SEXTUPLE_CANDIDATES in all it raises
    CapacityError.
    """
    if mode not in ("short", "symmetric"):
        raise InputError(f"unknown sextuple mode {mode!r}")
    if matrix is None:
        matrix = ell_matrix(fam)
    n = len(fam)
    term = MODE_TERMS[mode]
    vectors = matrix.vectors
    decide = _order_type_decider(fam, vectors, term)
    symmetric = mode == "symmetric"
    # buckets[a][v]: the betas > a with vector v, increasing
    buckets = [{} for _ in range(n)]
    for beta, row in enumerate(vectors):
        for bucket, v in zip(buckets, row):
            bucket.setdefault(v, []).append(beta)
    anchors = {}  # v -> the anchors whose bucket for v holds a pair
    for a, bucket in enumerate(buckets):
        for v, betas in bucket.items():
            if len(betas) >= 2:
                anchors.setdefault(v, []).append(a)

    budget = MAX_SEXTUPLE_CANDIDATES
    for a0 in range(n - 5):
        buckets0 = buckets[a0]
        for a1 in range(a0 + 1, n - 4):
            v = vectors[a1][a0]
            peers, pair_anchors = buckets0[v], anchors.get(v, [])
            for a2 in peers[bisect_right(peers, a1) :]:
                w = vectors[a2][a1] if symmetric else None
                for a3 in pair_anchors[bisect_right(pair_anchors, a2) :]:
                    tails = buckets[a3][v]
                    for i, a4 in enumerate(tails):
                        budget -= len(tails) - i - 1
                        if budget < 0:
                            raise CapacityError(
                                f"{mode}-mode sextuple search exceeds "
                                f"{MAX_SEXTUPLE_CANDIDATES} candidates"
                            )
                        for a5 in tails[i + 1 :]:
                            if symmetric and vectors[a5][a4] != w:
                                continue
                            idx = (a0, a1, a2, a3, a4, a5)
                            if decide(idx):
                                return _certificate(fam, vectors, idx, mode)
    return None


def ramsey_quad(n: int, colors):
    """Least alpha0<alpha1<alpha2<alpha3 whose four cross pairs share one
    color, or None after scanning every quadruple.

    colors is a callable on pairs (i, j) with i < j.  Row i of the color
    table (colors(i, j) for every j > i, in increasing j) is drawn when the
    scan first reaches i; rows are reached in increasing i, so colors sees
    its pairs in lexicographic order, and an early hit draws few rows.
    """
    rows = []

    def row(i):
        if i == len(rows):
            rows.append([None] * (i + 1) + [colors(i, j) for j in range(i + 1, n)])
        return rows[i]

    for a0 in range(n - 3):
        row0 = row(a0)
        for a1 in range(a0 + 1, n - 2):
            row1 = row(a1)
            first = {}
            best = None
            for j in range(a1 + 1, n):
                v = row0[j]
                if v != row1[j]:
                    continue
                if v in first:
                    cand = (first[v], j)
                    if best is None or cand < best:
                        best = cand
                else:
                    first[v] = j
            if best is not None:
                return (a0, a1, best[0], best[1])
    return None


def find_quadruple(fam: Family) -> Certificate | None:
    """Verified quadruple witness for (x0^x1)*(x2^x3), or None.

    With pairs coloured by gap vector, ramsey_quad's hit is a certificate.
    Let g be its four cross pairs' colour.  In each coordinate a2 and a3
    lie wholly in gap g of a0 and in gap g of a1.  a0 and a1 are constant
    on their gaps g, both (g + starts) mod 2 by the shared shape, and a2^a3
    lies inside both gaps, since a2 and a3 agree outside the span of their
    finite endpoints.  With no finite endpoints all members are equal.
    The hit is re-verified all the same, and AssertionError reports a
    failure.  Only without a hit are all quadruples searched, in
    lexicographic order, up to MAX_QUADRUPLE_CANDIDATES (CapacityError
    past it).  _order_type_decider decides both (homogeneity.order_types).
    """
    vectors = ell_matrix(fam).vectors
    n = len(fam)
    decide = _order_type_decider(fam, vectors, TERM_QUAD)
    idx = ramsey_quad(n, lambda i, j: vectors[j][i])
    if idx is None:
        quads = itertools.combinations(range(n), 4)
        capped = itertools.islice(quads, MAX_QUADRUPLE_CANDIDATES)
        idx = next(filter(decide, capped), None)
        if idx is None:
            if next(quads, None) is not None:
                raise CapacityError(
                    f"quadruple search exceeds {MAX_QUADRUPLE_CANDIDATES} candidates"
                )
            return None
    elif not decide(idx):
        raise AssertionError(
            f"internal consistency failure: gap-vector quadruple {idx} "
            "does not vanish"
        )
    return _certificate(fam, vectors, idx, "quadruple")


class PipelineResult(Value):
    """log is the run's provenance, the one record of how it was found."""

    __slots__ = ("certificate", "log")


def flatten(fam: Family, indices, parts):
    """Turn every (coordinate, segment) of the partitioning sets into its
    own coordinate, restricting the selected members accordingly."""
    new_columns = []
    flatten_map = []
    for zeta in range(fam.kappa):
        cuts = parts[zeta]
        for m in range(len(cuts) - 1):
            lo, hi = cuts[m], cuts[m + 1]
            new_columns.append(
                [algebra.restrict(fam.members[alpha][zeta], lo, hi) for alpha in indices]
            )
            flatten_map.append((zeta, m))
    order_sizes = [col[0].order_size if col else 0 for col in new_columns]
    return Family.from_columns(order_sizes, new_columns, len(indices)), flatten_map


def pipeline(raw: Family, mode: str = "short") -> PipelineResult:
    """Extract a semi-homogeneous subfamily, flatten its segments into
    fresh coordinates, and search for a sextuple certificate there.

    The ell matrix of the flattened family is indexed from the nesting
    witnesses extraction has already proved, so homogeneity is checked
    once, by extraction, and not again on the flattened family."""
    if mode not in ("short", "symmetric"):
        raise InputError(f"unknown mode {mode!r}")
    extraction = homogeneity.extract_semi_homogeneous(raw)
    flat, flatten_map = flatten(raw, extraction.indices, extraction.parts)
    info = {
        "selected_indices": list(extraction.indices),
        "parts": [
            [algebra.encode_endpoint(e) for e in cuts] for cuts in extraction.parts
        ],
        "flatten_map": [list(pair) for pair in flatten_map],
        "extraction": {"strategy": extraction.strategy},
        "mode": mode,
    }
    if len(flat) < 6:
        info["insufficient"] = {
            "achieved_members": len(flat),
            "required_members": 6,
        }
        return PipelineResult(None, info)
    matrix = EllMatrix.index(extraction.ell, len(flat))
    v_count = pigeonhole_state(matrix)
    info["pigeonhole"] = {
        "distinct_values": v_count,
        "required_members": required_members(v_count, mode),
        "achieved_members": len(flat),
    }
    cert = find_sextuple(flat, mode, matrix)
    if cert is None:
        info["insufficient"] = info["pigeonhole"]
    return PipelineResult(cert, info)
