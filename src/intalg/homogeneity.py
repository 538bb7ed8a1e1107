"""Homogeneous and semi-homogeneous families of interval-algebra elements.

A sequence is homogeneous when all members share one shape (sigma size
and pattern of infinite endpoints, algebra.sigma_of), and every later
member's finite endpoints sit strictly inside a single gap of each
earlier member.  The gap index witnessing the nesting for a pair
(alpha, beta) is the ell value; the bundle of all ell values over a
product family is an EllMatrix.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_left, bisect_right

from . import algebra
from .algebra import NEG_INF, POS_INF, Element
from .errors import CapacityError, InputError, Value
from .product import Family

MAX_CUT_CANDIDATES = 20
# nesting witnesses, one per pair of members and coordinate, that a family
# may need: `homog check` at the cap (1,581 members, kappa 2) took 7.5-8.9 s
# and 412 MB (Python 3.11, 2 shared cores)
MAX_WITNESSES = 2_500_000


class Violation(Value):
    """A failed homogeneity clause: 1 (sigma size), 2 (infinite-endpoint
    pattern) or 3 (no nesting gap), with the offending index pair."""

    __slots__ = ("clause", "pair", "detail")

    def __init__(self, clause: int, pair: tuple, detail: str):
        object.__setattr__(self, "clause", clause)
        object.__setattr__(self, "pair", pair)
        object.__setattr__(self, "detail", detail)

    def __str__(self) -> str:
        return f"clause {self.clause} fails on pair {self.pair}"


class HomogeneityReport(Value):
    """ell[beta][alpha], for alpha < beta, is the least gap of member alpha
    holding member beta: one row per member, None unless ok."""

    __slots__ = ("ok", "ell", "violation")

    def __init__(self, ok: bool, ell: list | None, violation):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "violation", violation)


class SemiHomogeneityReport(Value):
    """segments holds one HomogeneityReport per window [cuts[m], cuts[m+1]),
    up to the first failing one."""

    __slots__ = ("ok", "cuts", "segments")

    def __init__(self, ok: bool, cuts: tuple, segments: tuple):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "cuts", cuts)
        object.__setattr__(self, "segments", segments)


class EllMatrix(Value):
    """Nesting witnesses for a per-coordinate homogeneous family, one list
    of gap vectors per member: vectors[beta][alpha], for alpha < beta, is
    the gap vector ell_vec(alpha, beta), whose entry zeta is coordinate
    zeta's ell[beta][alpha] in HomogeneityReport.ell's layout."""

    __slots__ = ("vectors",)

    @classmethod
    def index(cls, per_coordinate, n: int) -> "EllMatrix":
        """The matrix of n members whose coordinates have the given ell
        rows, each holding every pair alpha < beta < n; the rows are taken
        as proven, not checked."""
        per_coordinate = tuple(per_coordinate)
        vectors = tuple(
            list(zip(*[rows[beta] for rows in per_coordinate]))
            if per_coordinate
            else [()] * beta
            for beta in range(n)
        )
        return cls(vectors)

    def ell_vec(self, alpha: int, beta: int) -> tuple:
        return self.vectors[beta][alpha]


def check_witness_cap(fam: Family) -> None:
    """Raise CapacityError when the family's nesting witnesses, one per
    pair of members and coordinate, would pass MAX_WITNESSES: the check
    comes before any of them is computed."""
    n = len(fam)
    witnesses = n * (n - 1) // 2 * fam.kappa
    if witnesses > MAX_WITNESSES:
        raise CapacityError(
            f"{witnesses} nesting witnesses ({n} members, kappa {fam.kappa}) "
            f"exceed cap {MAX_WITNESSES}"
        )


def _nesting_row(chain, finite) -> list | None:
    """The ell row of a member with the given finite endpoints against a
    chain of earlier members' finite endpoints, or None when it nests in
    no single gap of one of them.

    The rule: a member whose finite endpoints span [lo, hi] nests in a gap
    of an earlier member exactly when none of the earlier one's finite
    endpoints lies in [lo, hi], that is when as many lie below lo
    (bisect_left) as at or below hi (bisect_right); that count is the
    gap's index.  Members of one shape either all have finite endpoints or
    none has: a row of 0s."""
    lo, hi = (finite[0], finite[-1]) if finite else (0, 0)
    row = list(map(bisect_left, chain, itertools.repeat(lo)))
    return row if row == list(map(bisect_right, chain, itertools.repeat(hi))) else None


def check_homogeneous(seq) -> HomogeneityReport:
    sigmas = [algebra.sigma_of(a) for a in seq]
    shapes = [shape for shape, _ in sigmas]
    for i, shape in enumerate(shapes):
        if shape[0] != shapes[0][0]:
            detail = f"|sigma| {shape[0]} != {shapes[0][0]}"
            return HomogeneityReport(False, None, Violation(1, (0, i), detail))
    for i, shape in enumerate(shapes):  # equal n_a: shapes differ in clause 2
        if shape != shapes[0]:
            detail = "infinite-endpoint patterns differ"
            return HomogeneityReport(False, None, Violation(2, (0, i), detail))
    finites = [finite for _, finite in sigmas]
    ell = []
    for beta, f in enumerate(finites):
        ell.append(_nesting_row(finites[:beta], f))
        if ell[-1] is None:
            break
    else:
        return HomogeneityReport(True, ell, None)
    # alpha-major over all pairs, so that the violation names the least
    # failing pair, which may lie past the first failing row
    for alpha, beta in itertools.combinations(range(len(finites)), 2):
        if _nesting_row(finites[alpha : alpha + 1], finites[beta]) is None:
            detail = "no single gap contains the later endpoints"
            return HomogeneityReport(False, None, Violation(3, (alpha, beta), detail))


def order_types(k: int, m: int, starts: bool):
    """(seq, ell) for one instance of each order type of homogeneous
    k-tuples whose members have m finite endpoints and start at -inf when
    starts; ell is seq's HomogeneityReport.ell.

    The order-type argument: member j lies inside gap ell[j][i] of each
    earlier member i, so its m finite endpoints form one block in one of
    the j*m + 1 slots of the earlier members' merged endpoints, and the
    ells fix that slot, hence how all the tuple's endpoints interleave.
    The members share one shape, so each cell between consecutive
    endpoints lies in the same members whatever their values, and every
    cell holds a point: whether a term is empty on the tuple depends on
    its ells alone.

    There are prod_{j<k} (j*m + 1) types per shape, one per slot sequence,
    in lexicographic order.  Each instance lies on the points 1..k*m of
    order k*m + 1; _nesting_row reads its ells off the endpoints."""
    head, tail = (NEG_INF,) * starts, (POS_INF,) * ((m + starts) % 2)
    for slots in itertools.product(*(range(j * m + 1) for j in range(k))):
        labels, finite = [], [[] for _ in slots]
        for j, slot in enumerate(slots):
            labels[slot:slot] = [j] * m
        for x, j in enumerate(labels, 1):
            finite[j].append(x)
        ell = [_nesting_row(finite[:j], f) for j, f in enumerate(finite)]
        yield [Element(k * m + 1, head + tuple(f) + tail) for f in finite], ell


def _validate_cuts(cuts) -> tuple:
    cuts = tuple(cuts)
    if len(cuts) < 2 or cuts[0] != NEG_INF or cuts[-1] != POS_INF:
        raise InputError(f"partitioning set must run from -inf to +inf: {cuts}")
    for i in range(1, len(cuts)):
        if not cuts[i - 1] < cuts[i]:
            raise InputError(f"partitioning set not increasing: {cuts}")
    return cuts


def check_semi_homogeneous(seq, cuts) -> SemiHomogeneityReport:
    seq = list(seq)
    cuts = _validate_cuts(cuts)
    segments = []
    for lo, hi in zip(cuts, cuts[1:]):
        segments.append(check_homogeneous([algebra.restrict(a, lo, hi) for a in seq]))
        if not segments[-1].ok:
            break
    return SemiHomogeneityReport(segments[-1].ok, cuts, tuple(segments))


def find_partitioning_set(seq) -> SemiHomogeneityReport | None:
    """The check_semi_homogeneous report of the minimal-segment
    partitioning set drawn from the members' finite endpoints
    (lexicographically least among minimal), or None."""
    seq = list(seq)
    candidates = sorted(
        set().union(*(set(a.endpoints) for a in seq)) - {NEG_INF, POS_INF}
    )
    if len(candidates) > MAX_CUT_CANDIDATES:
        raise CapacityError(
            f"{len(candidates)} cut candidates exceed cap {MAX_CUT_CANDIDATES}"
        )
    for r in range(len(candidates) + 1):
        for combo in itertools.combinations(candidates, r):
            report = check_semi_homogeneous(seq, (NEG_INF, *combo, POS_INF))
            if report.ok:
                return report
    return None


def gen_homogeneous(seed, p: int, N: int, k: int, gap_pool=None, gap_choices=None):
    """Deterministically generate N homogeneous elements over order size p
    with |sigma| = k, nesting each member inside a gap of all earlier ones.

    gap_pool optionally restricts which gap (0..k-2) each level nests
    into, which caps the number of distinct ell values the family shows;
    gap_choices pins the gap per level outright (useful to correlate the
    nesting across coordinates of a product family).
    """
    if k < 2:
        raise InputError(f"|sigma| is at least 2, got {k}")
    if N < 0:
        raise InputError(f"negative member count {N}")
    if p < 0:
        raise InputError(f"negative order size {p}")
    m = k - 2
    if m and N and N * m >= p:
        raise CapacityError(
            f"order size {p} cannot nest {N} levels of {m} endpoints"
        )
    if gap_pool is not None and gap_choices is not None:
        raise InputError("gap_pool and gap_choices are mutually exclusive")
    if gap_pool is not None:
        gap_pool = list(gap_pool)
        if not gap_pool:
            raise InputError("gap pool is empty")
    if gap_choices is not None:
        gap_choices = list(gap_choices)
        if len(gap_choices) < N:
            raise InputError(f"need {N} gap choices, got {len(gap_choices)}")
        gap_pool = gap_choices
    if gap_pool is not None:
        for g in gap_pool:
            if not 0 <= g <= m:
                raise InputError(f"gap index {g} out of range 0..{m}")
    if m == 0:
        return [algebra.empty(p) for _ in range(N)]
    gap_pool = gap_pool or range(m + 1)  # choice(range(n)) draws as randrange(n)
    rng = random.Random(seed)
    out = []
    lo, hi = 0, p  # usable interior values are lo+1 .. hi-1
    for level in range(N):
        reserve = (N - level - 1) * m
        extra = (hi - lo - 1) - m - reserve
        gap = gap_choices[level] if gap_choices is not None else rng.choice(gap_pool)
        counts = [0] * (m + 1)
        for _ in range(extra):
            counts[rng.randrange(m + 1)] += 1
        counts[gap] += reserve
        eps = []
        cur = lo
        for i in range(m):
            cur += counts[i] + 1
            eps.append(cur)
        full_eps = tuple(eps) if m % 2 == 0 else (NEG_INF, *eps)
        out.append(Element(p, full_eps))
        lo = lo if gap == 0 else eps[gap - 1]
        hi = hi if gap == m else eps[gap]
    return out


class ExtractionResult(Value):
    """The selected members (increasing indices into the family), one cut
    tuple per coordinate, and the nesting witnesses extraction proved on
    the way: the ell rows (HomogeneityReport.ell's layout) of each
    flattened coordinate, that is of each (coordinate, segment) in
    search.flatten's order, over positions in `indices`, and the strategy
    that selected them."""

    __slots__ = ("indices", "parts", "ell", "strategy")


def _groups(sigmas) -> list:
    groups = {}
    for alpha, member_sigmas in enumerate(sigmas):
        key = tuple(shape for shape, _ in member_sigmas)
        groups.setdefault(key, []).append(alpha)
    return sorted(groups.values(), key=lambda g: (-len(g), g[0]))


def _greedy_nested(sigmas, group, start: int) -> tuple:
    """Members of group from position start on, each taken when it nests
    in every one taken before it, with the witnesses: per coordinate, the
    ell rows (HomogeneityReport.ell's layout) over positions in the
    selection.  Per coordinate, chain holds the finite endpoints of every
    member taken, and _nesting_row tests a candidate against all at once."""
    first = group[start]
    chosen = [first]
    chains = [[finite] for _, finite in sigmas[first]]
    ell = tuple([[]] for _ in chains)
    for beta in group[start + 1 :]:
        rows = []
        for chain, (_, finite) in zip(chains, sigmas[beta]):
            row = _nesting_row(chain, finite)
            if row is None:
                break
            rows.append(row)
        else:  # beta nests in every chosen member, in every coordinate
            for ell_rows, row, chain, sig in zip(ell, rows, chains, sigmas[beta]):
                ell_rows.append(row)
                chain.append(sig[1])
            chosen.append(beta)
    return chosen, ell


def _trivial_parts(kappa: int) -> tuple:
    return tuple((NEG_INF, POS_INF) for _ in range(kappa))


def extract_semi_homogeneous(fam: Family) -> ExtractionResult:
    """Select a subfamily that is semi-homogeneous in every coordinate.

    Members are first grouped by their shapes, one per coordinate;
    within the largest group a shared partitioning set is tried first,
    then greedy nesting selection (best over all starting positions and
    groups).  The result carries the nesting witnesses of
    the flattened coordinates, so that a search over them need not check
    homogeneity again: on the partitioning-set path the segment reports
    find_partitioning_set returns with the winning cuts, on the greedy
    path the gaps the selection accepted.
    """
    check_witness_cap(fam)
    if not len(fam):
        no_ell = tuple([] for _ in range(fam.kappa))
        return ExtractionResult((), _trivial_parts(fam.kappa), no_ell, "empty")
    # sigmas[alpha][zeta], computed once for grouping and greedy nesting
    sigmas = [[algebra.sigma_of(a) for a in member] for member in fam.members]
    groups = _groups(sigmas)
    main = groups[0]
    reports = []
    for zeta in range(fam.kappa):
        try:
            report = find_partitioning_set([fam.members[a][zeta] for a in main])
        except CapacityError:
            report = None
        if report is None:
            break
        reports.append(report)
    else:
        return ExtractionResult(
            tuple(main),
            tuple(r.cuts for r in reports),
            tuple(seg.ell for r in reports for seg in r.segments),
            "partitioning-set",
        )
    best, best_ell = [], ()
    for group in groups:
        for start in range(len(group)):
            if len(group) - start <= len(best):
                break
            cand, cand_ell = _greedy_nested(sigmas, group, start)
            if len(cand) > len(best):
                best, best_ell = cand, cand_ell
    return ExtractionResult(
        tuple(best), _trivial_parts(fam.kappa), best_ell, "greedy-nesting"
    )
