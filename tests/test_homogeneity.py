"""Homogeneity checks, partitioning sets, generators and the extractor."""

import collections
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intalg import algebra, homogeneity
from intalg.algebra import NEG_INF, POS_INF, Element
from intalg.errors import CapacityError, InputError
from intalg.homogeneity import (
    check_homogeneous,
    check_semi_homogeneous,
    extract_semi_homogeneous,
    find_partitioning_set,
    gen_homogeneous,
)
from intalg.product import Family

from .conftest import random_element
from .homogeneity_oracle import (
    exhaustive_max_homogeneous,
    nesting_gap,
    pairwise_check_homogeneous,
    vec_sigma,
)
from .pointset_oracle import oracle_points


def gap_scan(vec_alpha, beta):
    """Independent oracle for the nesting gap: try every index directly."""
    finite = set(beta.endpoints) - {NEG_INF, POS_INF}
    for ell in range(len(vec_alpha) - 1):
        if all(vec_alpha[ell] < s < vec_alpha[ell + 1] for s in finite):
            return ell
    return None


class TestCheckHomogeneous:
    def test_vacuous(self):
        assert check_homogeneous([]).ok
        assert check_homogeneous([Element(5, (1, 3))]).ok
        assert check_homogeneous([]).ell == []
        assert check_homogeneous([Element(5, (1, 3))]).ell == [[]]

    def test_nested_pair(self):
        a0 = Element(9, (1, 8))
        a1 = Element(9, (2, 5))
        report = check_homogeneous([a0, a1])
        assert report.ok
        assert report.ell == [[], [1]]

    def test_straddling_pair_fails_clause_3(self):
        a0 = Element(9, (1, 3))
        a1 = Element(9, (2, 5))
        report = check_homogeneous([a0, a1])
        assert not report.ok
        assert report.violation.clause == 3
        assert report.violation.pair == (0, 1)

    def test_violation_names_least_pair(self):
        # (1, 2) fails and is the first failure found beta by beta, but
        # (0, 3) comes first in alpha-major pair order
        seq = [Element(200, e) for e in [(1, 100), (10, 20), (15, 30), (50, 150)]]
        report = check_homogeneous(seq)
        assert not report.ok
        assert report.violation.clause == 3
        assert report.violation.pair == (0, 3)
        assert not check_homogeneous(seq[1:3]).ok

    def test_sigma_size_mismatch_fails_clause_1(self):
        report = check_homogeneous([Element(9, (1, 3)), algebra.empty(9)])
        assert not report.ok and report.violation.clause == 1

    def test_infinite_pattern_mismatch_fails_clause_2(self):
        report = check_homogeneous(
            [Element(9, (NEG_INF, 3)), Element(9, (4, POS_INF))]
        )
        assert not report.ok and report.violation.clause == 2

    def test_empty_finite_sigma_convention(self):
        # all-empty members are homogeneous with ell = 0 everywhere
        report = check_homogeneous([algebra.empty(5)] * 3)
        assert report.ok
        assert report.ell == [[], [0], [0, 0]]

    def test_order_sensitivity(self):
        a0 = Element(9, (2, 5))
        a1 = Element(9, (1, 8))
        assert not check_homogeneous([a0, a1]).ok
        assert check_homogeneous([a1, a0]).ok

    def test_ell_matches_gap_scan_oracle(self):
        rng = random.Random(13)
        for _ in range(100):
            seq = gen_homogeneous(rng.randrange(2**32), 40, 5, 4)
            report = check_homogeneous(seq)
            assert report.ok
            assert [len(row) for row in report.ell] == list(range(len(seq)))
            for beta, row in enumerate(report.ell):
                for alpha, ell in enumerate(row):
                    assert ell == gap_scan(vec_sigma(seq[alpha]), seq[beta])

    def test_nesting_gap_matches_gap_scan_oracle(self):
        # random pairs, so that nesting also fails (None) and beta may
        # have no finite endpoints
        rng = random.Random(14)
        outcomes = set()
        for _ in range(2000):
            p = rng.randint(0, 10)
            a, b = random_element(rng, p), random_element(rng, p)
            got = nesting_gap(algebra.sigma_of(a)[1], algebra.sigma_of(b)[1])
            assert got == gap_scan(vec_sigma(a), b)
            outcomes.add(got is None)
        assert outcomes == {True, False}


def perturbed_nest(seed, n, k, redraw, any_shape):
    """A seeded homogeneous nest of n members with |sigma| = k, with up to
    `redraw` of them replaced at random: by members of the same shape, so
    that clause 3 decides, or with any_shape by any element or by the
    member's complement, which keeps |sigma| but not the pattern."""
    rng = random.Random(seed)
    m = k - 2
    p = (n + 1) * m + rng.randint(1, 12)
    seq = gen_homogeneous(rng.randrange(2**32), p, n, k)
    for i in rng.sample(range(n), min(redraw, n)):
        if any_shape:
            seq[i] = rng.choice([random_element(rng, p), ~seq[i]])
        else:  # gen_homogeneous's shape: -inf first when m is odd
            finite = tuple(sorted(rng.sample(range(1, p), m)))
            seq[i] = Element(p, (NEG_INF,) * (m % 2) + finite)
    return seq


# the failing sequences that tests in this file and test_triples.py check
FAILING_SEQUENCES = [
    [Element(9, (1, 3)), Element(9, (2, 5))],
    [Element(200, e) for e in [(1, 100), (10, 20), (15, 30), (50, 150)]],
    [Element(9, (1, 3)), algebra.empty(9)],
    [Element(9, (NEG_INF, 3)), Element(9, (4, POS_INF))],
    [Element(9, (2, 5)), Element(9, (1, 8))],
    [Element(9, (1, 3)), Element(9, (2, 5)), Element(9, (3, 4))],
    [
        algebra.empty(40) if i == 2 else algebra.full(40) if i == 4 else a
        for i, a in enumerate(gen_homogeneous(7, 40, 6, 4))
    ],
]


class TestNestingRowsMatchPairwiseOracle:
    """check_homogeneous's one nesting row per member gives the whole
    report, violation included, that nesting_gap pair by pair does."""

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(0, 7),
        st.integers(2, 6),
        st.integers(0, 3),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_hypothesis_sequences(self, seed, n, k, redraw, any_shape):
        seq = perturbed_nest(seed, n, k, redraw, any_shape)
        assert check_homogeneous(seq) == pairwise_check_homogeneous(seq)

    def test_seeded_sequences_reach_every_outcome(self):
        outcomes = collections.Counter()
        for seed in range(600):
            rng = random.Random(seed)
            n, k, redraw = rng.randint(0, 7), rng.randint(2, 6), rng.randint(0, 3)
            seq = perturbed_nest(seed, n, k, redraw, rng.random() < 0.3)
            report = check_homogeneous(seq)
            assert report == pairwise_check_homogeneous(seq)
            v = report.violation
            # (3, True): the least failing pair does not start at member 0
            outcomes[v and (v.clause, v.pair[0] > 0)] += 1
        assert outcomes[None] >= 50
        for outcome in [(1, False), (2, False), (3, False), (3, True)]:
            assert outcomes[outcome] >= 20, outcomes

    @pytest.mark.parametrize("starts", [False, True])
    @pytest.mark.parametrize("m", range(4))
    def test_order_type_instances(self, m, starts):
        # every instance nests; reversed, most do not
        failures = 0
        for k in range(5):
            for seq, ell in homogeneity.order_types(k, m, starts):
                assert check_homogeneous(seq) == pairwise_check_homogeneous(seq)
                assert check_homogeneous(seq).ell == ell
                report = check_homogeneous(seq[::-1])
                assert report == pairwise_check_homogeneous(seq[::-1])
                failures += not report.ok
        assert failures > 0 or m <= 1  # one endpoint nests anywhere

    @pytest.mark.parametrize("seq", FAILING_SEQUENCES)
    def test_failing_sequences(self, seq):
        report = check_homogeneous(seq)
        assert not report.ok and report == pairwise_check_homogeneous(seq)

    def test_rows_stop_at_the_first_failing_member(self, monkeypatch):
        # seeded nests with same-shape members redrawn, so that clause 3
        # decides: a failing report is the oracle's, and no nesting row is
        # built past the first member that nests in no gap of an earlier
        # one before the alpha-major scan runs up to the least failing pair
        calls = []
        nesting_row = homogeneity._nesting_row

        def counted(chain, finite):
            calls.append(chain)
            return nesting_row(chain, finite)

        monkeypatch.setattr(homogeneity, "_nesting_row", counted)
        failed = later = 0
        for seed in range(400):
            rng = random.Random(seed)
            n, k = rng.randint(2, 7), rng.randint(3, 6)
            seq = perturbed_nest(seed, n, k, rng.randint(1, 3), False)
            calls.clear()
            report = check_homogeneous(seq)
            assert report == pairwise_check_homogeneous(seq)
            if report.ok:
                continue
            finites = [algebra.sigma_of(a)[1] for a in seq]
            pairs = list(itertools.combinations(range(n), 2))
            failing = [b for a, b in pairs if nesting_gap(finites[a], finites[b]) is None]
            first = min(failing)
            scanned = pairs.index(report.violation.pair) + 1
            assert len(calls) == first + 1 + scanned
            failed += 1
            later += first < n - 1
        assert failed >= 100 and later >= 50


class TestSemiHomogeneous:
    def test_trivial_parts_reduce_to_homogeneous(self):
        seq = [Element(9, (1, 8)), Element(9, (2, 5))]
        assert check_semi_homogeneous(seq, (NEG_INF, POS_INF)).ok
        bad = [Element(9, (1, 3)), Element(9, (2, 5))]
        assert not check_semi_homogeneous(bad, (NEG_INF, POS_INF)).ok

    def test_refinement_outside_sigma_preserves(self):
        seq = gen_homogeneous(1, 30, 3, 4)
        used = set().union(*(set(a.endpoints) for a in seq))
        free = next(x for x in range(1, 30) if x not in used)
        report = check_semi_homogeneous(seq, (NEG_INF, free, POS_INF))
        assert report.ok
        assert report.cuts == (NEG_INF, free, POS_INF)
        # every segment re-checks via the plain checker on restrictions
        for (lo, hi), seg in zip(zip(report.cuts, report.cuts[1:]), report.segments):
            restricted = [algebra.restrict(a, lo, hi) for a in seq]
            assert check_homogeneous(restricted) == seg

    def test_crossing_pair_per_segment(self):
        # the check stops at the first failing window: at cut 2 that is the
        # first of two windows, at cuts 3, 4 the second of three
        seq = [Element(9, (1, 3)), Element(9, (2, 5))]
        for cuts, checked in [
            ((NEG_INF, 2, POS_INF), 1),
            ((NEG_INF, 3, 4, POS_INF), 2),
        ]:
            report = check_semi_homogeneous(seq, cuts)
            assert not report.ok
            oks = [seg.ok for seg in report.segments]
            assert oks == [True] * (checked - 1) + [False]
            for (lo, hi), seg in zip(zip(cuts, cuts[1:]), report.segments):
                restricted = [algebra.restrict(a, lo, hi) for a in seq]
                assert seg == check_homogeneous(restricted)

    def test_malformed_parts(self):
        with pytest.raises(InputError):
            check_semi_homogeneous([], (NEG_INF, 3))
        with pytest.raises(InputError):
            check_semi_homogeneous([], (NEG_INF, 4, 2, POS_INF))


def exhaustive_partitioning_oracle(seq):
    """Smallest (then lex-least) working cut set by full subset search."""
    import itertools

    candidates = sorted(
        set().union(*(set(a.endpoints) for a in seq)) - {NEG_INF, POS_INF}
    ) if seq else []
    for r in range(len(candidates) + 1):
        for combo in itertools.combinations(candidates, r):
            cuts = (NEG_INF, *combo, POS_INF)
            if check_semi_homogeneous(seq, cuts).ok:
                return cuts
    return None


class TestFindPartitioningSet:
    def test_homogeneous_needs_no_cut(self):
        seq = gen_homogeneous(2, 30, 3, 4)
        report = find_partitioning_set(seq)
        assert report.cuts == (NEG_INF, POS_INF)
        assert report.segments == (check_homogeneous(seq),)
        # no members, no cut candidates: the one segment is homogeneous
        report = find_partitioning_set([])
        assert report.cuts == (NEG_INF, POS_INF)
        assert report.segments == (check_homogeneous([]),) and report.ok

    def test_two_blocks_need_one_cut(self):
        # two nested blocks glued at the shared boundary point 10
        seq = [Element(20, (1, 8, 10, 17)), Element(20, (2, 5, 10, 13))]
        assert not check_homogeneous(seq).ok
        report = find_partitioning_set(seq)
        assert report is not None and len(report.cuts) == 3
        assert report == check_semi_homogeneous(seq, report.cuts)
        assert report.ok
        assert report.cuts == exhaustive_partitioning_oracle(seq)

    def test_matches_oracle_on_random_input(self):
        rng = random.Random(17)
        # triples at order 8 rarely have a partitioning set; pairs at
        # order 6 sometimes do
        cases = [(3, 8)] * 30 + [(2, 6)] * 60
        found = 0
        for size, p in cases:
            seq = [random_element(rng, p) for _ in range(size)]
            got = find_partitioning_set(seq)
            want = exhaustive_partitioning_oracle(seq)
            if want is None:
                assert got is None
            else:
                assert got == check_semi_homogeneous(seq, want)
                found += 1
        assert found > 0

    def test_capacity(self):
        seq = [
            algebra.from_point_set(50, range(1, 50, 2)),
        ]
        with pytest.raises(CapacityError):
            find_partitioning_set(seq)


def is_A_partition(C, a: Element, A) -> bool:
    """Whether C cuts a compatibly with the marker set A: C holds the
    infinities and sigma_a's A-points, and meets every gap of a that A
    meets."""
    C, A = set(C), set(A)
    if not C <= A | {NEG_INF, POS_INF}:
        raise InputError("cut set not contained in the marker set")
    if not {NEG_INF, POS_INF} <= C:
        return False
    vec = vec_sigma(a)
    if not (set(vec) & A) <= C:
        return False
    for ell in range(len(vec) - 1):
        gap_a = {x for x in A if vec[ell] < x < vec[ell + 1]}
        if gap_a and not any(vec[ell] < c < vec[ell + 1] for c in C):
            return False
    return True


class TestAPartition:
    def test_full_candidate_set(self):
        a = Element(9, (2, 6))
        A = {3, 4, 5}
        assert is_A_partition(A | {NEG_INF, POS_INF}, a, A)

    def test_empty_marker_set(self):
        assert is_A_partition({NEG_INF, POS_INF}, Element(9, (2, 6)), set())

    def test_unmet_gap(self):
        a = Element(9, (2, 6))
        assert not is_A_partition({NEG_INF, POS_INF}, a, {3, 4, 5})

    def test_containment_error(self):
        with pytest.raises(InputError):
            is_A_partition({1}, Element(9, (2, 6)), {3})

    def test_missing_infinities(self):
        assert not is_A_partition(set(), Element(9, (2, 6)), set())

    def test_missing_sigma_point(self):
        a = Element(9, (2, 6))
        assert not is_A_partition({NEG_INF, POS_INF}, a, {2})


class TestGenHomogeneous:
    def test_single_member(self):
        (a,) = gen_homogeneous(0, 10, 1, 4)
        assert algebra.sigma_of(a)[0][0] == 4

    def test_seeded_nest(self):
        seq = gen_homogeneous(3, 64, 4, 4)
        assert len(seq) == 4
        assert all(algebra.sigma_of(a)[0][0] == 4 for a in seq)
        assert check_homogeneous(seq).ok

    def test_capacity(self):
        with pytest.raises(CapacityError):
            gen_homogeneous(0, 8, 4, 4)  # N*(k-2) = 8 >= p

    @pytest.mark.parametrize("p", [0, 5])
    @pytest.mark.parametrize("k", [3, 4, 6])
    def test_empty_family_at_any_order(self, p, k):
        # no member needs room, but one member at order 0 still does
        assert gen_homogeneous(0, p, 0, k) == []
        assert gen_homogeneous(0, p, 0, k, gap_choices=[]) == []
        with pytest.raises(CapacityError, match="cannot nest 1 levels"):
            gen_homogeneous(0, 0, 1, k)

    def test_deterministic(self):
        assert gen_homogeneous(9, 40, 4, 5) == gen_homogeneous(9, 40, 4, 5)
        # with no pool, each level draws its gap as randrange(m + 1)
        assert [a.endpoints for a in gen_homogeneous(4, 40, 4, 5)] == [
            (NEG_INF, 9, 25, 36),
            (NEG_INF, 10, 14, 22),
            (NEG_INF, 18, 19, 21),
            (NEG_INF, 15, 16, 17),
        ]

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_checker_accepts_all_seeds(self, seed, k):
        seq = gen_homogeneous(seed, 48, 5, k)
        report = check_homogeneous(seq)
        assert report.ok
        assert all(algebra.sigma_of(a)[0][0] == k for a in seq)

    def test_gap_choices_pin_the_ell_values(self):
        choices = [0, 2, 1, 0, 2]
        seq = gen_homogeneous(5, 64, 5, 4, gap_choices=choices)
        report = check_homogeneous(seq)
        assert report.ok
        assert report.ell == [choices[:beta] for beta in range(len(seq))]

    def test_gap_pool_and_choices_exclusive(self):
        with pytest.raises(InputError):
            gen_homogeneous(0, 64, 3, 4, gap_pool=[0], gap_choices=[0, 0, 0])

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize(
        "gaps",
        [
            {"gap_pool": [0], "gap_choices": [0, 0, 0]},
            {"gap_pool": []},
            {"gap_pool": [5]},
            {"gap_pool": [-1]},
            {"gap_choices": [0, 0]},
            {"gap_choices": [0, 0, 7]},
        ],
    )
    def test_gaps_checked_at_every_sigma_size(self, k, gaps):
        # |sigma| = 2 leaves no finite endpoint to nest, but the gap
        # arguments are checked all the same
        with pytest.raises(InputError):
            gen_homogeneous(0, 64, 3, k, **gaps)

    def test_sigma_size_2_takes_gap_0(self):
        empties = [algebra.empty(16)] * 3
        assert gen_homogeneous(0, 16, 3, 2, gap_pool=[0]) == empties
        assert gen_homogeneous(0, 16, 3, 2, gap_choices=[0, 0, 0]) == empties
        assert gen_homogeneous(0, 0, 3, 2) == [algebra.empty(0)] * 3


class TestWitnessCap:
    @staticmethod
    def family():
        # 5 members in 2 coordinates: C(5, 2) * 2 = 20 nesting witnesses
        cols = [gen_homogeneous(z, 40, 5, 4) for z in range(2)]
        return Family.from_columns((40, 40), cols)

    def test_at_the_cap(self, monkeypatch):
        monkeypatch.setattr(homogeneity, "MAX_WITNESSES", 20)
        homogeneity.check_witness_cap(self.family())
        assert extract_semi_homogeneous(self.family()).indices == tuple(range(5))

    def test_past_the_cap_before_any_row(self, monkeypatch):
        fam = self.family()
        monkeypatch.setattr(homogeneity, "MAX_WITNESSES", 19)
        monkeypatch.setattr(algebra, "sigma_of", None)  # no shape is read
        message = r"^20 nesting witnesses \(5 members, kappa 2\) exceed cap 19$"
        with pytest.raises(CapacityError, match=message):
            extract_semi_homogeneous(fam)

    def test_default_cap(self):
        # kappa 2: the most members whose witnesses fit, then one more
        cap = homogeneity.MAX_WITNESSES
        n = next(n for n in itertools.count(2) if n * (n + 1) > cap)
        member = (algebra.empty(4), algebra.empty(4))
        homogeneity.check_witness_cap(Family(2, (4, 4), (member,) * n))
        with pytest.raises(CapacityError, match=f"exceed cap {cap}$"):
            homogeneity.check_witness_cap(Family(2, (4, 4), (member,) * (n + 1)))


class TestExtract:
    def test_already_homogeneous(self):
        cols = [gen_homogeneous(z, 40, 5, 4) for z in range(2)]
        fam = Family.from_columns((40, 40), cols)
        result = extract_semi_homogeneous(fam)
        assert result.indices == tuple(range(5))
        for zeta, cuts in enumerate(result.parts):
            seq = [fam.members[a][zeta] for a in result.indices]
            assert check_semi_homogeneous(seq, cuts).ok

    def test_adversarial_members_dropped(self):
        cols = [gen_homogeneous(7, 40, 6, 4)]
        # two adversarial members with a different sigma size
        cols[0][2] = algebra.empty(40)
        cols[0][4] = algebra.full(40)
        fam = Family.from_columns((40,), cols)
        result = extract_semi_homogeneous(fam)
        oracle = exhaustive_max_homogeneous(fam)
        assert set(result.indices) == set(oracle) == {0, 1, 3, 5}

    def test_output_validates_and_beats_half_oracle(self):
        rng = random.Random(23)
        for trial in range(20):
            fam = Family(
                2,
                (16, 16),
                tuple(
                    tuple(random_element(rng, 16) for _ in range(2))
                    for _ in range(10)
                ),
            )
            result = extract_semi_homogeneous(fam)
            for zeta, cuts in enumerate(result.parts):
                seq = [fam.members[a][zeta] for a in result.indices]
                assert check_semi_homogeneous(seq, cuts).ok
            oracle = exhaustive_max_homogeneous(fam)
            assert 2 * len(result.indices) >= len(oracle)

    def test_winning_cut_sets_checked_once(self, monkeypatch):
        # extraction takes cuts and witnesses from find_partitioning_set's
        # report, so it makes no check_semi_homogeneous call of its own
        calls = []
        real = homogeneity.check_semi_homogeneous
        monkeypatch.setattr(
            homogeneity,
            "check_semi_homogeneous",
            lambda seq, cuts: calls.append(cuts) or real(seq, cuts),
        )
        blocks = [Element(20, (1, 8, 10, 17)), Element(20, (2, 5, 10, 13))]
        cols = [blocks, gen_homogeneous(5, 20, 2, 4)]
        fam = Family.from_columns((20, 20), cols)
        result = extract_semi_homogeneous(fam)
        assert result.strategy == "partitioning-set"
        assert result.indices == (0, 1)
        assert len(result.parts[0]) == 3
        extracting = len(calls)
        calls.clear()
        reports = [find_partitioning_set(col) for col in cols]
        assert len(calls) == extracting
        assert result.parts == tuple(r.cuts for r in reports)
        assert result.ell == tuple(seg.ell for r in reports for seg in r.segments)

    def test_empty_family(self):
        fam = Family(1, (4,), ())
        result = extract_semi_homogeneous(fam)
        assert result.indices == ()
