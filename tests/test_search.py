"""Gap-vector machinery, Ramsey-style quadruple search and certificates."""

import collections
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intalg import algebra, homogeneity, search, terms
from intalg.algebra import NEG_INF, POS_INF, Element
from intalg.cli import gen_random_family
from intalg.errors import CapacityError, InputError
from intalg.homogeneity import EllMatrix, extract_semi_homogeneous, gen_homogeneous
from intalg.product import Family, is_zero, prod_eval
from intalg.search import (
    INSIDE,
    MODE_TERMS,
    OUTSIDE,
    TERM_QUAD,
    TERM_SHORT,
    TERM_SYMMETRIC,
    ell_matrix,
    find_quadruple,
    find_sextuple,
    gap_side,
    pigeonhole_state,
    pipeline,
    ramsey_quad,
    required_members,
)
from intalg.triples import TRIPLE_TERMS

from .conftest import random_element
from .homogeneity_oracle import pairwise_greedy_nested
from .pointset_oracle import oracle_gap_side
from .quadruple_oracle import naive_find_quadruple
from .sextuple_oracle import naive_find_sextuple


def nested_family(seed, kappa, p, n, k, gap_choices=None):
    cols = [
        gen_homogeneous(seed * 1000003 + z, p, n, k, gap_choices=gap_choices)
        for z in range(kappa)
    ]
    return Family.from_columns((p,) * kappa, cols)


class TestEllMatrix:
    def test_tiny_families(self):
        assert ell_matrix(nested_family(0, 1, 16, 0, 4)).vectors == ()
        assert ell_matrix(nested_family(0, 1, 16, 1, 4)).vectors == ([],)

    def test_matches_per_coordinate_checker(self):
        fam = nested_family(1, 2, 32, 5, 4)
        matrix = ell_matrix(fam)
        for zeta in range(2):
            report = homogeneity.check_homogeneous(fam.coordinate(zeta))
            assert [[v[zeta] for v in row] for row in matrix.vectors] == report.ell

    def test_coordinates_can_differ(self):
        cols = [
            gen_homogeneous(0, 32, 4, 4, gap_choices=[0] * 4),
            gen_homogeneous(0, 32, 4, 4, gap_choices=[1] * 4),
        ]
        matrix = ell_matrix(Family.from_columns((32, 32), cols))
        for alpha, beta in itertools.combinations(range(4), 2):
            assert matrix.ell_vec(alpha, beta) == (0, 1)

    def test_non_homogeneous_named_in_error(self):
        cols = [
            gen_homogeneous(0, 32, 3, 4),
            [Element(9, (1, 3)), Element(9, (2, 5)), Element(9, (4, 6))],
        ]
        message = r"^coordinate 1 is not homogeneous: clause 3 fails on pair \(0, 1\)$"
        with pytest.raises(InputError, match=message):
            ell_matrix(Family.from_columns((32, 9), cols))


class TestGapSide:
    def test_interval_examples(self):
        fam = Family.from_columns((12,), [[Element(12, (1, 8))]])
        assert gap_side(fam, 0, 0, 1) == INSIDE
        assert gap_side(fam, 0, 0, 0) == OUTSIDE
        assert gap_side(fam, 0, 0, 2) == OUTSIDE

    def test_full_element(self):
        fam = Family.from_columns((5,), [[algebra.full(5)]])
        assert gap_side(fam, 0, 0, 0) == INSIDE

    def test_out_of_range(self):
        fam = Family.from_columns((12,), [[Element(12, (1, 8))]])
        with pytest.raises(InputError):
            gap_side(fam, 0, 0, 3)

    def test_matches_point_enumeration_oracle(self):
        rng = random.Random(2)
        for _ in range(200):
            seq = gen_homogeneous(rng.randrange(2**32), 24, 1, rng.randint(2, 6))
            a = seq[0]
            fam = Family.from_columns((24,), [[a]])
            for ell in range(algebra.sigma_of(a)[0][0] - 1):
                assert gap_side(fam, 0, 0, ell) == oracle_gap_side(a, ell)


class TestPigeonhole:
    def test_recount_invariant(self):
        fam = nested_family(6, 2, 64, 8, 4)
        matrix = ell_matrix(fam)
        # recount everything from the matrix itself
        n = len(fam)
        seen = {
            matrix.ell_vec(a, b) for a, b in itertools.combinations(range(n), 2)
        }
        assert pigeonhole_state(matrix) == len(seen)
        # the gap vectors: row beta zips the coordinates' ells of beta
        ells = [homogeneity.check_homogeneous(fam.coordinate(z)).ell for z in range(2)]
        assert len(matrix.vectors) == n
        for beta, row in enumerate(matrix.vectors):
            assert len(row) == beta
            for alpha, vec in enumerate(row):
                assert vec == tuple(rows[beta][alpha] for rows in ells)

    def test_required_members(self):
        assert required_members(1, "short") == 6
        assert required_members(1, "symmetric") == 6
        assert required_members(2, "short") == 12
        assert required_members(2, "symmetric") == 20
        with pytest.raises(InputError):
            required_members(1, "quadruple")


def assert_certificate_sound(cert, fam):
    assert list(cert.indices) == sorted(set(cert.indices))
    assert is_zero(prod_eval(cert.term, fam, cert.indices))
    assert [ev.zeta for ev in cert.per_coordinate] == list(range(fam.kappa))


class TestFindSextuple:
    def test_repeated_member_degenerate(self):
        # repeated members pass the homogeneity precondition only when they
        # have no finite endpoints (strict nesting is vacuous then)
        a = algebra.empty(16)
        fam = Family.from_columns((16,), [[a] * 6])
        cert = find_sextuple(fam, "short")
        assert cert is not None
        assert_certificate_sound(cert, fam)

    def test_seeded_nested_family(self):
        fam = nested_family(7, 1, 64, 9, 4, gap_choices=[1] * 9)
        cert = find_sextuple(fam, "short")
        assert cert is not None
        assert cert.indices == (0, 1, 2, 3, 4, 5)
        assert cert.term == TERM_SHORT
        assert_certificate_sound(cert, fam)

    def test_symmetric_mode(self):
        fam = nested_family(8, 1, 64, 9, 4, gap_choices=[1] * 9)
        cert = find_sextuple(fam, "symmetric")
        assert cert is not None
        assert cert.term == TERM_SYMMETRIC
        assert_certificate_sound(cert, fam)

    def test_unknown_mode(self):
        with pytest.raises(InputError):
            find_sextuple(nested_family(0, 1, 64, 6, 4), "long")

    def test_lex_least_against_exhaustive(self):
        fam = nested_family(9, 1, 64, 8, 4, gap_choices=[0, 1] * 4)
        cert = find_sextuple(fam, "short")
        assert cert is not None
        want = None
        for idx in itertools.combinations(range(len(fam)), 6):
            if is_zero(prod_eval(TERM_SHORT, fam, idx)):
                matrix = ell_matrix(fam)
                v = matrix.ell_vec(idx[0], idx[1])
                if (
                    matrix.ell_vec(idx[0], idx[2]) == v
                    and matrix.ell_vec(idx[3], idx[4]) == v
                    and matrix.ell_vec(idx[3], idx[5]) == v
                ):
                    want = idx
                    break
        assert cert.indices == want

    def test_pigeonhole_bound_never_misses(self):
        # whenever N >= (V+1)(V+2) on seeded families, a witness exists
        rng = random.Random(44)
        for _ in range(10):
            choices = [rng.randrange(2) for _ in range(12)]
            fam = nested_family(rng.randrange(10**6), 1, 64, 12, 4, choices)
            v_count = pigeonhole_state(ell_matrix(fam))
            if len(fam) >= required_members(v_count, "short"):
                assert find_sextuple(fam, "short") is not None


class TestSextupleIndexAgainstNaive:
    """find_sextuple walks a per-anchor gap-vector index; the six-deep nest
    in sextuple_oracle is the reference it must agree with exactly."""

    @staticmethod
    def laminar_family(rng, kappa, n):
        """Single intervals, each inside one cell left by all earlier
        endpoints: homogeneous, and unlike gen_homogeneous an anchor's
        successors fall in different gaps of it."""
        p = 3 * n + 4
        columns = []
        for _ in range(kappa):
            used, column = [0, p], []
            for _ in range(n):
                cells = [(lo, hi) for lo, hi in zip(used, used[1:]) if hi - lo >= 3]
                lo, hi = rng.choice(cells)
                s, t = sorted(rng.sample(range(lo + 1, hi), 2))
                used = sorted(used + [s, t])
                column.append(Element(p, (s, t)))
            columns.append(column)
        return Family.from_columns((p,) * kappa, columns)

    @classmethod
    def small_family(cls, rng, seed):
        kappa = rng.randint(1, 3)
        if seed % 2:
            return cls.laminar_family(rng, kappa, rng.randint(6, 14))
        n = rng.randint(6, 16)
        k = rng.randint(2, 6)
        p = (k - 2) * n + rng.randint(1, 20)
        pattern = rng.choice(
            ["free", "constant", "alternating", "two-gaps", "three-gaps"]
        )
        choices = {
            "free": None,
            "constant": [rng.randrange(k - 1)] * n,
            "alternating": [0, max(k - 2, 0)] * n,
            "two-gaps": [rng.randrange(min(2, k - 1)) for _ in range(n)],
            "three-gaps": [rng.randrange(min(3, k - 1)) for _ in range(n)],
        }[pattern]
        return nested_family(seed, kappa, p, n, k, choices)

    @staticmethod
    def same(fam, mode):
        got = find_sextuple(fam, mode)
        want = naive_find_sextuple(fam, mode)
        assert (got and got.to_dict()) == (want and want.to_dict()), mode
        return got

    @classmethod
    def hypothesis_family(cls, seed, kappa, n, k, gap):
        if gap == "laminar":
            return cls.laminar_family(random.Random(seed), kappa, n)
        choices = {
            "free": None,
            "constant": [k - 2] * n,
            "two-gaps": [(seed >> i) % min(2, k - 1) for i in range(n)],
        }[gap]
        return nested_family(seed, kappa, (k - 2) * n + 4, n, k, choices)

    @staticmethod
    def record_decisions(monkeypatch):
        """Patch find_sextuple's order-type decider to log, per candidate,
        (idx, verdict, evaluations it made); returns the log."""
        decisions, evaluations = [], []
        make_decider, evaluate = search._order_type_decider, terms.evaluate

        def counting_evaluate(*args, **kwargs):
            evaluations.append(args)
            return evaluate(*args, **kwargs)

        def recording(fam, vectors, term):
            decide = make_decider(fam, vectors, term)

            def wrapped(idx):
                before = len(evaluations)
                verdict = decide(idx)
                decisions.append((idx, verdict, len(evaluations) - before))
                return verdict

            return wrapped

        monkeypatch.setattr(terms, "evaluate", counting_evaluate)
        monkeypatch.setattr(search, "_order_type_decider", recording)
        return decisions

    def assert_decisions_match_evaluation(self, decisions, fam, mode):
        for idx, verdict, _ in decisions:
            assert verdict == is_zero(prod_eval(MODE_TERMS[mode], fam, idx)), idx
        if mode == "short":  # the docstring's argument: short mode never fails
            assert all(verdict for _, verdict, _ in decisions)

    def test_seeded_differential(self, monkeypatch):
        decisions = self.record_decisions(monkeypatch)
        rng = random.Random(2024)
        outcomes = set()
        skipped = evaluated = 0
        for seed in range(300):
            fam = self.small_family(rng, seed)
            for mode in ("short", "symmetric"):
                decisions.clear()
                cert = self.same(fam, mode)
                if cert is not None:
                    assert_certificate_sound(cert, fam)
                # every candidate's verdict, by order type or by evaluation
                self.assert_decisions_match_evaluation(decisions, fam, mode)
                skipped += sum(not v and not e for _, v, e in decisions)
                evaluated += sum(e > 0 for _, _, e in decisions)
                # a candidate the order-type dict skips counts as failed,
                # like one that fails evaluation
                failed = [idx for idx, verdict, _ in decisions if not verdict]
                outcomes.add((mode, cert is not None, bool(failed)))
        # the seeds reach hits, exhausted searches, and index-matched
        # candidates that fail evaluation both before a hit and on the way
        # to exhausting
        assert {
            ("short", True, False),
            ("short", False, False),
            ("symmetric", True, False),
            ("symmetric", True, True),
            ("symmetric", False, True),
        } <= outcomes
        # most rejections are decided by order type alone
        assert skipped > evaluated > 0

    @given(
        seed=st.integers(0, 10**6),
        kappa=st.integers(1, 3),
        n=st.integers(0, 12),
        k=st.integers(2, 5),
        gap=st.sampled_from(["free", "constant", "two-gaps", "laminar"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_hypothesis_differential(self, seed, kappa, n, k, gap):
        fam = self.hypothesis_family(seed, kappa, n, k, gap)
        for mode in ("short", "symmetric"):
            self.same(fam, mode)

    @given(
        seed=st.integers(0, 10**6),
        kappa=st.integers(1, 3),
        n=st.integers(6, 14),
        k=st.integers(2, 5),
        gap=st.sampled_from(["free", "constant", "two-gaps", "laminar"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_hypothesis_order_type_decisions(self, seed, kappa, n, k, gap):
        fam = self.hypothesis_family(seed, kappa, n, k, gap)
        with pytest.MonkeyPatch.context() as monkeypatch:
            decisions = self.record_decisions(monkeypatch)
            for mode in ("short", "symmetric"):
                decisions.clear()
                find_sextuple(fam, mode)
                self.assert_decisions_match_evaluation(decisions, fam, mode)

    @pytest.mark.parametrize(
        "mode, indices",
        [("short", (3, 4, 5, 51, 52, 53)), ("symmetric", (3, 5, 6, 51, 54, 55))],
    )
    def test_sentinel_beyond_the_nest(self, mode, indices):
        # kappa=3, n=80, |sigma|=6, p=800: the six-deep nest needs seconds
        # per mode here; these are the certificates it returns
        fam = nested_family(2, 3, 800, 80, 6)
        cert = find_sextuple(fam, mode)
        assert cert is not None and cert.indices == indices
        assert_certificate_sound(cert, fam)


class TestSextupleBudget:
    @pytest.mark.parametrize(
        "args, least", [((5, 2, 300, 30, 4), 4999), ((6, 3, 400, 40, 6), 17482)]
    )
    def test_least_sufficient_budget_is_exact(self, monkeypatch, args, least):
        # the nest charges candidates deterministically: budget b finishes
        # the search with the uncapped answer (a hit, then an exhausted
        # search), and b - 1 raises
        fam = nested_family(*args)
        want = find_sextuple(fam, "symmetric")

        def search_with(budget):
            monkeypatch.setattr(search, "MAX_SEXTUPLE_CANDIDATES", budget)
            try:
                return find_sextuple(fam, "symmetric")
            except CapacityError as exc:
                assert str(exc) == (
                    f"symmetric-mode sextuple search exceeds {budget} candidates"
                )
                return "capped"

        lo, hi = 0, search.MAX_SEXTUPLE_CANDIDATES
        while lo < hi:
            mid = (lo + hi) // 2
            if search_with(mid) == "capped":
                lo = mid + 1
            else:
                hi = mid
        assert lo == least
        assert search_with(lo) == want
        assert search_with(lo - 1) == "capped"

    def test_short_mode_charges_only_the_rows_it_reaches(self, monkeypatch):
        # one gap throughout: a3 = 3's bucket holds members 4..8, C(5, 2) =
        # 10 pairs, and the first candidate, (0, ..., 5), is the
        # certificate (the short-mode lemma), reached in a4 = 4's row of 4
        fam = nested_family(7, 1, 64, 9, 4, gap_choices=[1] * 9)
        monkeypatch.setattr(search, "MAX_SEXTUPLE_CANDIDATES", 4)
        assert find_sextuple(fam, "short").indices == (0, 1, 2, 3, 4, 5)
        monkeypatch.setattr(search, "MAX_SEXTUPLE_CANDIDATES", 3)
        message = "^short-mode sextuple search exceeds 3 candidates$"
        with pytest.raises(CapacityError, match=message):
            find_sextuple(fam, "short")

    def test_no_candidates_charge_nothing(self, monkeypatch):
        monkeypatch.setattr(search, "MAX_SEXTUPLE_CANDIDATES", 0)
        for mode in ("short", "symmetric"):
            assert find_sextuple(nested_family(4, 2, 64, 5, 4), mode) is None
        with pytest.raises(CapacityError):
            find_sextuple(nested_family(8, 1, 64, 9, 4, [1] * 9), "short")


class TestEvaluationCounts:
    """terms.evaluate calls that the searches make on seeded families,
    pinned: the order-type decider evaluates a coordinate the first time
    its ells appear and an accepted candidate's other coordinates once, so
    a decider that evaluated more would change these counts."""

    # perfbench search-homog's shapes: (kappa, members, |sigma|, seed) at
    # order size 10 * members
    CATALOGUE = (
        (2, 40, 4, 0), (2, 50, 5, 1), (2, 70, 4, 3), (2, 55, 6, 4),
        (2, 65, 5, 5), (2, 45, 5, 10), (2, 68, 6, 11), (2, 52, 4, 12),
        (2, 62, 5, 13), (3, 40, 4, 6), (3, 60, 4, 8), (3, 40, 6, 6),
    )

    @staticmethod
    def count(monkeypatch, searches):
        calls, evaluate = [], terms.evaluate

        def counting(*args, **kwargs):
            calls.append(args)
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(terms, "evaluate", counting)
        for run in searches:
            run()
        return len(calls)

    @pytest.mark.parametrize("mode, want", [("short", 135), ("symmetric", 117)])
    def test_find_sextuple(self, monkeypatch, mode, want):
        rng = random.Random(2024)
        fams = [
            TestSextupleIndexAgainstNaive.small_family(rng, seed) for seed in range(100)
        ]
        searches = [lambda f=f: find_sextuple(f, mode) for f in fams]
        assert self.count(monkeypatch, searches) == want

    @pytest.mark.parametrize(
        "args, want", [((959, 3, 17, 5, 4), 5), ((646, 2, 9, 5, 3), 4)]
    )
    def test_find_quadruple_fallback(self, monkeypatch, args, want):
        # no Ramsey hit on either (TestQuadrupleBudget): the fallback decides
        fam = nested_family(*args)
        assert self.count(monkeypatch, [lambda: find_quadruple(fam)]) == want

    @pytest.mark.parametrize("mode, want", [("short", 29), ("symmetric", 30)])
    def test_pipeline(self, monkeypatch, mode, want):
        fams = [
            nested_family(s, kappa, 10 * n, n, k) for kappa, n, k, s in self.CATALOGUE
        ]
        fams.append(gen_random_family(6, 2, (12, 12), 40, 2))  # partitioning-set
        searches = [lambda f=f: pipeline(f, mode) for f in fams]
        assert self.count(monkeypatch, searches) == want


class TestRamseyQuad:
    def test_constant_coloring(self):
        assert ramsey_quad(4, lambda i, j: 0) == (0, 1, 2, 3)

    def test_parity_coloring(self):
        assert ramsey_quad(5, lambda i, j: j % 2) == (0, 1, 2, 4)

    def test_too_few_indices(self):
        assert ramsey_quad(3, lambda i, j: 0) is None

    def test_no_witness(self):
        # all-distinct colors can never produce four equal cross pairs
        counter = itertools.count()
        memo = {}

        def distinct(i, j):
            return memo.setdefault((i, j), next(counter))

        assert ramsey_quad(6, distinct) is None

    def brute_force(self, n, color):
        for quad in itertools.combinations(range(n), 4):
            a0, a1, a2, a3 = quad
            if (
                color(a0, a2) == color(a0, a3) == color(a1, a2) == color(a1, a3)
            ):
                return quad
        return None

    def test_lex_least_matches_brute_force(self):
        rng = random.Random(12)
        for _ in range(200):
            n = rng.randint(4, 12)
            k = rng.randint(1, 4)
            table = {
                (i, j): rng.randrange(k)
                for i in range(n)
                for j in range(i + 1, n)
            }
            color = lambda i, j: table[(i, j)]
            assert ramsey_quad(n, color) == self.brute_force(n, color)

    def test_colors_drawn_in_lexicographic_order(self):
        rng = random.Random(8)
        for _ in range(50):
            n = rng.randint(4, 14)
            table = {
                (i, j): rng.randrange(3) for i in range(n) for j in range(i + 1, n)
            }
            seen = []

            def color(i, j):
                seen.append((i, j))
                return table[(i, j)]

            got = ramsey_quad(n, color)
            assert got == self.brute_force(n, lambda i, j: table[(i, j)])
            assert seen == sorted(seen) and len(set(seen)) == len(seen)
            # whole rows only, and none past the last row the scan needed
            rows = sorted({i for i, _ in seen})
            assert rows == list(range(len(rows)))
            assert seen == [(i, j) for i in rows for j in range(i + 1, n)]

    def test_early_hit_draws_only_its_rows(self):
        seen = []

        def color(i, j):
            seen.append((i, j))
            return 0

        assert ramsey_quad(40, color) == (0, 1, 2, 3)
        assert {i for i, _ in seen} == {0, 1}
        assert len(seen) == 39 + 38


class TestFindQuadruple:
    def test_two_identical_pairs(self):
        a = algebra.empty(16)
        fam = Family.from_columns((16,), [[a, a, a, a]])
        cert = find_quadruple(fam)
        assert cert is not None
        assert cert.indices == (0, 1, 2, 3)
        assert_certificate_sound(cert, fam)

    def test_seeded_nested_family(self):
        fam = nested_family(10, 1, 64, 5, 4, gap_choices=[1] * 5)
        cert = find_quadruple(fam)
        assert cert is not None
        assert cert.term == TERM_QUAD
        assert_certificate_sound(cert, fam)

    def test_too_small(self):
        fam = nested_family(11, 1, 64, 3, 4)
        assert find_quadruple(fam) is None

    def test_gap_ids_color_like_gap_vectors(self):
        rng = random.Random(31)
        hits = 0
        for _ in range(40):
            n = rng.randint(4, 12)
            choices = [rng.randrange(3) for _ in range(n)]
            kappa = rng.randint(1, 3)
            fam = nested_family(rng.randrange(10**6), kappa, 64, n, 5, choices)
            matrix = ell_matrix(fam)
            want = ramsey_quad(n, matrix.ell_vec)
            assert ramsey_quad(n, lambda i, j: matrix.vectors[j][i]) == want
            if want is None:
                want = next(
                    (
                        q
                        for q in itertools.combinations(range(n), 4)
                        if is_zero(prod_eval(TERM_QUAD, fam, q))
                    ),
                    None,
                )
            else:
                hits += 1
            cert = find_quadruple(fam)
            assert (cert.indices if cert else None) == want
        assert hits > 0

    def test_matches_evaluation_loop(self):
        # the Ramsey hit and the fallback, decided by order type, against
        # the loop that evaluates every candidate directly
        rng = random.Random(7)
        outcomes = collections.Counter()
        for _ in range(300):
            kappa, n, k = rng.randint(1, 6), rng.randint(4, 16), rng.randint(2, 8)
            p = (k - 2) * n + rng.randint(1, 30)
            choices = rng.choice(
                [None, [rng.randrange(max(k - 1, 1)) for _ in range(n)]]
            )
            fam = nested_family(rng.randrange(10**6), kappa, p, n, k, choices)
            got, want = find_quadruple(fam), naive_find_quadruple(fam)
            assert (got and got.to_dict()) == (want and want.to_dict())
            outcomes[got is not None] += 1
        assert outcomes[False] >= 20 and outcomes[True] >= 200

    def test_calls_ell_matrix_once(self, monkeypatch):
        # the Ramsey colouring, the decider and the evidence all read one
        # checked matrix, with a hit and without one
        rng = random.Random(32)
        real, built = search.ell_matrix, []
        monkeypatch.setattr(
            search, "ell_matrix", lambda fam: built.append(fam) or real(fam)
        )
        outcomes = set()
        for _ in range(30):
            n = rng.randint(3, 12)
            choices = [rng.randrange(3) for _ in range(n)]
            kappa = rng.randint(1, 3)
            fam = nested_family(rng.randrange(10**6), kappa, 64, n, 5, choices)
            built.clear()
            cert = find_quadruple(fam)
            assert built == [fam]
            outcomes.add(cert is not None)
        assert outcomes == {False, True}

    def test_failed_hit_raises(self, monkeypatch):
        # a Ramsey hit the term does not vanish on contradicts the proof in
        # find_quadruple's docstring: no fallback, no None
        fam = nested_family(10, 1, 64, 5, 4, gap_choices=[1] * 5)
        monkeypatch.setattr(search, "TERM_QUAD", terms.parse("x0+-x0"))
        with pytest.raises(AssertionError, match="internal consistency failure"):
            find_quadruple(fam)


class TestQuadrupleBudget:
    @pytest.mark.parametrize(
        "args, least, want",
        [((959, 3, 17, 5, 4), 4, (0, 2, 3, 4)), ((646, 2, 9, 5, 3), 5, None)],
    )
    def test_least_sufficient_budget_is_exact(self, monkeypatch, args, least, want):
        # with no Ramsey hit the fallback tests quadruples in lexicographic
        # order: budget b finishes with the uncapped answer (a hit at rank
        # b, or None after all C(5, 4) = 5), and b - 1 raises
        fam = nested_family(*args)
        matrix = ell_matrix(fam)
        assert ramsey_quad(len(fam), lambda i, j: matrix.vectors[j][i]) is None
        monkeypatch.setattr(search, "MAX_QUADRUPLE_CANDIDATES", least)
        cert = find_quadruple(fam)
        assert (cert and cert.indices) == want
        monkeypatch.setattr(search, "MAX_QUADRUPLE_CANDIDATES", least - 1)
        message = f"^quadruple search exceeds {least - 1} candidates$"
        with pytest.raises(CapacityError, match=message):
            find_quadruple(fam)

    def test_ramsey_hit_and_small_families_charge_nothing(self, monkeypatch):
        monkeypatch.setattr(search, "MAX_QUADRUPLE_CANDIDATES", 0)
        fam = nested_family(10, 1, 64, 5, 4, gap_choices=[1] * 5)
        assert find_quadruple(fam).indices == (0, 1, 2, 3)
        assert find_quadruple(nested_family(11, 1, 64, 3, 4)) is None


class TestRamseyHitVanishes:
    """The proof in find_quadruple's docstring, checked by direct
    evaluation: under the gap-vector colouring every ramsey_quad hit is a
    zero of (x0^x1)*(x2^x3)."""

    @staticmethod
    def family(seed, kappa, k, n, pooled):
        rng = random.Random(seed)
        m = k - 2
        p = m * n + rng.randint(1, 20)
        columns = []
        for _ in range(kappa):
            pool = None
            if pooled:
                pool = rng.sample(range(m + 1), rng.randint(1, m + 1))
            seq = gen_homogeneous(rng.randrange(2**32), p, n, k, gap_pool=pool)
            columns.append(seq)
        return Family.from_columns((p,) * kappa, columns, n)

    @staticmethod
    def hit(fam):
        matrix = ell_matrix(fam)
        hit = ramsey_quad(len(fam), lambda i, j: matrix.vectors[j][i])
        if hit is not None:
            assert is_zero(prod_eval(TERM_QUAD, fam, hit)), hit
        return hit

    def test_seeded(self):
        rng = random.Random(16)
        hits = collections.Counter()
        for seed in range(400):
            kappa, k = rng.randint(0, 4), rng.randint(2, 8)
            pooled = rng.random() < 0.5
            fam = self.family(seed, kappa, k, rng.randint(4, 16), pooled)
            hits[kappa, self.hit(fam) is not None] += 1
        assert all(hits[kappa, True] for kappa in range(5))
        assert sum(hits[kappa, False] for kappa in range(5)) >= 20

    @given(
        seed=st.integers(0, 10**6),
        kappa=st.integers(0, 4),
        k=st.integers(2, 8),
        n=st.integers(0, 16),
        pooled=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_hypothesis(self, seed, kappa, k, n, pooled):
        self.hit(self.family(seed, kappa, k, n, pooled))


def every_type(k, max_m):
    """homogeneity.order_types over both shapes and m = 0..max_m, that is
    |sigma| <= max_m + 2."""
    for m in range(max_m + 1):
        for starts in (False, True):
            yield from homogeneity.order_types(k, m, starts)


class TestLemmasOverEveryType:
    """The searches' lemmas, evaluated on one instance of every order type
    up to a sigma size.  By the argument of homogeneity.order_types that
    decides them for every homogeneous tuple of those sigma sizes, in
    every coordinate."""

    def test_short_mode_never_fails(self):
        # find_sextuple's lemma: equal ells on (0,1), (0,2), (3,4) and
        # (3,5) make TERM_SHORT empty
        checked = 0
        for seq, ell in every_type(6, 2):
            if ell[1][0] == ell[2][0] == ell[4][3] == ell[5][3]:
                instance = [a.endpoints for a in seq]
                assert terms.evaluate(TERM_SHORT, seq).is_empty(), instance
                checked += 1
        assert checked == 2800

    def test_ramsey_hit_vanishes(self):
        # find_quadruple's lemma: equal ells on the four cross pairs (0,2),
        # (0,3), (1,2) and (1,3) make TERM_QUAD empty
        checked = total = 0
        for seq, ell in every_type(4, 5):
            total += 1
            if ell[2][0] == ell[3][0] == ell[2][1] == ell[3][1]:
                instance = [a.endpoints for a in seq]
                assert terms.evaluate(TERM_QUAD, seq).is_empty(), instance
                checked += 1
        assert (checked, total) == (462, 4102)

    def test_relabelling_keeps_ells_and_emptiness(self):
        # the premise: an order-preserving move of an instance's finite
        # endpoints onto a larger order keeps its ells, and every term of
        # arity at most k stays empty or non-empty
        rng = random.Random(9)
        all_terms = (*MODE_TERMS.values(), *TRIPLE_TERMS)
        moved_count, outcomes = 0, set()
        for k, max_m in ((3, 4), (4, 3), (6, 1)):
            arity_terms = [t for t in all_terms if terms.num_vars(t) <= k]
            for seq, ell in every_type(k, max_m):
                p = seq[0].order_size
                q = p + rng.randint(1, 20)
                moved = dict(zip(range(1, p), sorted(rng.sample(range(1, q), p - 1))))
                relabelled = [
                    Element(q, tuple(moved.get(e, e) for e in a.endpoints))
                    for a in seq
                ]
                assert homogeneity.check_homogeneous(relabelled).ell == ell
                for t in arity_terms:
                    empty = terms.evaluate(t, seq).is_empty()
                    assert terms.evaluate(t, relabelled).is_empty() == empty
                    outcomes.add((terms.render(t), empty))
                moved_count += 1
        assert moved_count == 2452
        assert len(outcomes) == 2 * len(all_terms)


class TestTermDomination:
    def test_short_term_below_symmetric_shape(self):
        # x0*x1*(-x2)*(-x3)*x4*(-x5) <= (x1^x2)*x0*(x4^x5)*(-x3) pointwise
        upper = terms.parse("(x1^x2)*x0*(x4^x5)*-x3")
        rng = random.Random(19)
        for _ in range(300):
            p = rng.randint(0, 16)
            assignment = [random_element(rng, p) for _ in range(6)]
            low = terms.evaluate(TERM_SHORT, assignment, order_size=p)
            high = terms.evaluate(upper, assignment, order_size=p)
            assert algebra.meet(low, high) == low  # low <= high


class TestKeyFactGapSide:
    def test_prediction_exact_on_seeded_families(self):
        """For equal gap vectors on (alpha,beta) and (alpha,gamma), exactly
        the side-predicted product among (x1^x2)*x0 and (x1^x2)*-x0 is zero."""
        with_x0 = terms.parse("(x1^x2)*x0")
        without_x0 = terms.parse("(x1^x2)*-x0")
        rng = random.Random(27)
        checked = 0
        for _ in range(20):
            choices = [rng.randrange(2) for _ in range(8)]
            fam = nested_family(rng.randrange(10**6), 2, 64, 8, 4, choices)
            matrix = ell_matrix(fam)
            for alpha, beta, gamma in itertools.combinations(range(8), 3):
                if matrix.ell_vec(alpha, beta) != matrix.ell_vec(alpha, gamma):
                    continue
                for zeta in range(fam.kappa):
                    trio = [
                        fam.members[i][zeta] for i in (alpha, beta, gamma)
                    ]
                    ell = matrix.ell_vec(alpha, beta)[zeta]
                    side = gap_side(fam, zeta, alpha, ell)
                    v_in = terms.evaluate(with_x0, trio)
                    v_out = terms.evaluate(without_x0, trio)
                    if side == INSIDE:
                        assert v_out.is_empty()
                    else:
                        assert v_in.is_empty()
                    checked += 1
        assert checked > 100


class TestPipeline:
    @pytest.mark.parametrize("n", [5, 9])
    @pytest.mark.parametrize("mode", ["bogus", "quadruple"])
    def test_unknown_mode_before_extraction(self, monkeypatch, n, mode):
        # below 6 selected members and above, nothing is extracted
        extracted = []
        monkeypatch.setattr(homogeneity, "extract_semi_homogeneous", extracted.append)
        fam = nested_family(13, 1, 64, n, 4, gap_choices=[1] * n)
        with pytest.raises(InputError, match=f"^unknown mode '{mode}'$"):
            pipeline(fam, mode)
        assert extracted == []

    def test_homogeneous_input_passthrough(self):
        fam = nested_family(13, 1, 64, 9, 4, gap_choices=[1] * 9)
        result = pipeline(fam, "short")
        assert result.certificate is not None
        assert result.log["selected_indices"] == list(range(9))
        assert result.log["parts"] == [["-inf", "+inf"]]
        assert_certificate_sound(result.certificate, result_flat(fam, result))

    def test_no_homogeneity_check_on_flat_family(self, monkeypatch):
        # the pipeline indexes the witnesses extraction proved and never
        # builds an ell matrix itself; find_sextuple builds one only when
        # it is not given one
        built, searched = [], []
        real_matrix, real_find = search.ell_matrix, search.find_sextuple
        monkeypatch.setattr(
            search, "ell_matrix", lambda fam: built.append(fam) or real_matrix(fam)
        )
        monkeypatch.setattr(
            search,
            "find_sextuple",
            lambda *args: searched.append(args) or real_find(*args),
        )
        # 22 cut candidates, past MAX_CUT_CANDIDATES
        fam = nested_family(13, 1, 64, 11, 4, gap_choices=[1] * 11)
        result = pipeline(fam, "symmetric")
        assert result.certificate is not None
        assert result.log["extraction"]["strategy"] == "greedy-nesting"
        assert built == []
        [(flat, mode, matrix)] = searched
        assert matrix == real_matrix(flat)
        assert real_find(flat, mode) == result.certificate
        assert len(built) == 1

    def test_two_segment_input_doubles_kappa(self):
        # glue two independent nested sequences on the two halves of the
        # order; the upper sequence starts at the shared boundary point 30,
        # so a single cut there makes every member semi-homogeneous
        lo = gen_homogeneous(3, 30, 6, 4)
        hi = gen_homogeneous(4, 30, 6, 3)  # members [-inf, e) on the suborder
        glued = [
            Element(60, (*a.endpoints, 30, int(b.endpoints[1]) + 30))
            for a, b in zip(lo, hi)
        ]
        fam = Family.from_columns((60,), [glued])
        result = pipeline(fam, "short")
        assert result.certificate is not None
        assert len(result.log["flatten_map"]) == 2

    def test_insufficient_report(self):
        fam = nested_family(14, 1, 64, 4, 4)
        result = pipeline(fam, "short")
        assert result.certificate is None
        assert result.log["insufficient"]["achieved_members"] == 4

    def test_provenance_only_on_the_result(self):
        # the certificate is find_sextuple's own on the flattened family;
        # how it was found is the result's log alone
        fam = nested_family(15, 2, 64, 9, 4, gap_choices=[0] * 9)
        result = pipeline(fam, "symmetric")
        flat = result_flat(fam, result)
        assert result.certificate == find_sextuple(flat, "symmetric")
        d = result.certificate.to_dict()
        assert set(d) == {"indices", "term", "mode", "coordinates"}
        assert d["mode"] == "symmetric"
        assert result.log["pigeonhole"]["distinct_values"] >= 1
        assert result.log["extraction"] == {"strategy": "partitioning-set"}
        for c in d["coordinates"]:
            assert set(c) == {"zeta", "empty", "ell", "side"}
            assert c["empty"] is True
            assert c["side"] in ("inside", "outside")


def result_flat(fam, result):
    flat, _ = search.flatten(
        fam,
        result.log["selected_indices"],
        [
            tuple(algebra.decode_endpoint(v) for v in cuts)
            for cuts in result.log["parts"]
        ],
    )
    return flat


def block_family(rng, n, blocks):
    """n members, each the union of one member of every block's nested
    sequence laid side by side: block boundaries are endpoints of every
    member, so the family needs exactly blocks - 1 cuts."""
    sizes = [rng.randint(n + 2, 12) for _ in range(blocks)]
    points = [set() for _ in range(n)]
    offset = 0
    for q in sizes:
        piece = gen_homogeneous(rng.randrange(2**32), q, n, 3)
        for pts, a in zip(points, piece):
            pts.update(offset + x for x in algebra.to_point_set(a))
        offset += q
    return Family.from_columns(
        (offset,), [[algebra.from_point_set(offset, pts) for pts in points]]
    )


def staircase_family(rng, n, p):
    """Single intervals [s_i, t_i) with every s before every t: each pair
    crosses, so no cut set makes the family semi-homogeneous."""
    pts = sorted(rng.sample(range(1, p), 2 * n))
    return Family.from_columns(
        (p,), [[Element(p, (pts[i], pts[n + i])) for i in range(n)]]
    )


def greedy_family(rng, kappa, n, k):
    """A nested product family, with more than MAX_CUT_CANDIDATES cut
    candidates, into which random members are shuffled."""
    p = 10 * n
    cols = [gen_homogeneous(rng.randrange(2**32), p, n, k) for _ in range(kappa)]
    members = list(zip(*cols))
    for _ in range(rng.randint(0, 3)):
        extra = tuple(random_element(rng, p) for _ in range(kappa))
        members.insert(rng.randint(0, len(members)), extra)
    return Family(kappa, (p,) * kappa, tuple(members))


def differential_families():
    rng = random.Random(20261018)
    yield Family(2, (8, 8), ())
    yield Family(0, (), ())
    yield Family(0, (), ((),) * 7)
    for _ in range(160):
        kappa = rng.randint(0, 3)
        orders = [rng.randint(4, 9) for _ in range(kappa)]
        max_intervals = rng.randint(0, (min(orders, default=4) - 2) // 2)
        yield gen_random_family(
            rng.randrange(2**32), kappa, orders, rng.randint(0, 14), max_intervals
        )
    for _ in range(50):
        yield greedy_family(rng, rng.randint(1, 3), rng.randint(8, 12), rng.randint(5, 6))
    for _ in range(60):
        yield block_family(rng, rng.randint(3, 5), rng.choice((2, 2, 3, 4)))
    for _ in range(20):
        yield staircase_family(rng, rng.randint(2, 4), 16)


def test_extraction_witnesses_index_like_ell_matrix():
    """The matrix indexed from extraction's witnesses equals the one
    ell_matrix checks out of the flattened family."""
    strategies = collections.Counter()
    cuts = collections.Counter()
    for fam in differential_families():
        extraction = extract_semi_homogeneous(fam)
        flat, _ = search.flatten(fam, extraction.indices, extraction.parts)
        assert EllMatrix.index(extraction.ell, len(flat)) == ell_matrix(flat)
        strategies[extraction.strategy] += 1
        if extraction.strategy == "partitioning-set":
            cuts[max((len(c) - 2 for c in extraction.parts), default=0)] += 1
    assert sum(strategies.values()) >= 290
    assert strategies["greedy-nesting"] >= 50
    assert strategies["partitioning-set"] >= 50
    assert cuts[1] and cuts[2] and cuts[3]


def test_greedy_chain_matches_pairwise_oracle():
    """_greedy_nested's whole-chain bisect rows select the members, and
    record the witnesses, that one nesting_gap call per pair does, for
    every group and start extraction could try."""
    starts = 0
    for fam in differential_families():
        sigmas = [[algebra.sigma_of(a) for a in member] for member in fam.members]
        for group in homogeneity._groups(sigmas):
            for start in range(len(group)):
                got = homogeneity._greedy_nested(sigmas, group, start)
                assert got == pairwise_greedy_nested(sigmas, group, start)
                starts += 1
    assert starts > 1000
