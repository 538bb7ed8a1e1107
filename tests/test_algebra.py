"""Canonical-form arithmetic against the brute-force point-set oracle."""

import itertools
import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from intalg import algebra
from intalg.algebra import NEG_INF, POS_INF, Element
from intalg.errors import InputError

from .conftest import random_element
from .pointset_oracle import (
    all_elements,
    oracle_complement,
    oracle_meet,
    oracle_points,
    oracle_restrict,
)
from .validation_oracle import validation_error


class TestCanonicalForm:
    def test_empty_set(self):
        assert algebra.from_point_set(5, set()).endpoints == ()

    def test_full_set(self):
        assert algebra.from_point_set(3, {0, 1, 2}).endpoints == (NEG_INF, POS_INF)

    def test_two_runs(self):
        a = algebra.from_point_set(5, {0, 1, 4})
        assert a.endpoints == (NEG_INF, 2, 4, POS_INF)
        assert oracle_points(a) == {0, 1, 4}

    def test_point_set_round_trip(self):
        assert algebra.to_point_set(algebra.empty(5)) == set()
        assert algebra.to_point_set(Element(3, (NEG_INF, POS_INF))) == {0, 1, 2}
        assert algebra.to_point_set(Element(5, (NEG_INF, 2, 4, POS_INF))) == {0, 1, 4}

    def test_point_set_round_trip_large(self):
        rng = random.Random(1024)
        p = 1024
        for _ in range(20):
            # runs of random length, so both ends of the order and single
            # points show up among them
            pts, x = set(), rng.randrange(2)
            while x < p:
                run = rng.randint(1, 40)
                pts.update(range(x, min(p, x + run)))
                x += run + rng.randint(1, 40)
            a = algebra.from_point_set(p, pts)
            assert algebra.to_point_set(a) == pts
            assert oracle_points(a) == pts
            assert algebra.from_point_set(p, algebra.to_point_set(a)) == a

    def test_out_of_range_point(self):
        with pytest.raises(InputError):
            algebra.from_point_set(5, {5})

    @pytest.mark.parametrize("p", range(9))
    def test_uniqueness_exhaustive(self, p):
        # distinct point sets <-> distinct canonical endpoint lists
        seen = {}
        for bits in range(1 << p):
            pts = frozenset(i for i in range(p) if bits >> i & 1)
            a = algebra.from_point_set(p, pts)
            assert algebra.to_point_set(a) == pts
            assert a.endpoints not in seen, (pts, seen[a.endpoints])
            seen[a.endpoints] = pts

    def test_invariants_rejected(self):
        with pytest.raises(InputError):
            Element(5, (2,))  # odd length
        with pytest.raises(InputError):
            Element(5, (3, 2))  # not increasing
        with pytest.raises(InputError):
            Element(5, (0, 3))  # minimum point is not a legal endpoint
        with pytest.raises(InputError):
            Element(5, (2, 7))  # beyond the order
        with pytest.raises(InputError):
            Element(0, (NEG_INF, POS_INF))  # empty order is empty only

    def test_degenerate_orders(self):
        assert algebra.full(0).is_empty()
        assert algebra.full(1).endpoints == (NEG_INF, POS_INF)
        assert algebra.from_point_set(1, {0}) == algebra.full(1)


def construction_error(p, eps):
    """The InputError text of Element(p, eps), or None if it is accepted."""
    try:
        Element(p, eps)
    except InputError as exc:
        return str(exc)
    return None


class TestValidation:
    """Element checks a list of more than 8 endpoints in C and runs the
    per-endpoint loop only to name a fault; validation_oracle is the loop on
    its own, so both must accept the same lists and raise the same text."""

    WRONG_TYPES = ("3", 2.5, None, float("nan"), [4])

    @staticmethod
    def break_one(rng, p, eps, kind):
        i = rng.randrange(len(eps))
        if kind == "type":
            finite = isinstance(eps[i], int)
            eps[i] = float(eps[i]) if finite and rng.random() < 0.3 else rng.choice(
                TestValidation.WRONG_TYPES
            )
        elif kind == "range":
            eps[i] = rng.choice((0, p, p + 7, -3))
        elif kind == "infinity":
            eps[i] = rng.choice((NEG_INF, POS_INF))
        elif len(eps) > 1:  # order: a swap or a repeat
            i = max(i, 1)
            if rng.random() < 0.5:
                eps[i - 1], eps[i] = eps[i], eps[i - 1]
            else:
                eps[i] = eps[i - 1]

    def test_seeded_faults_match_oracle(self):
        rng = random.Random(15)
        kinds = ("type", "range", "infinity", "order")
        seen = Counter()
        for _ in range(3000):
            p = rng.choice((1, 2, 8, 64, 1024))
            eps = list(random_element(rng, p).endpoints) or [NEG_INF, POS_INF]
            faults = rng.sample(kinds, rng.choice((1, 1, 2)))
            for kind in faults:
                self.break_one(rng, p, eps, kind)
            eps = tuple(eps)
            want = validation_error(p, eps)
            assert construction_error(p, eps) == want, (p, eps)
            seen[len(eps) > 8, want is None, len(faults)] += 1
        # both the loop and the C check met faults, one and two at a time
        for long in (False, True):
            for count in (1, 2):
                assert seen[long, False, count] > 50, seen

    def test_structure_faults_match_oracle(self):
        for p, eps in [
            (-1, ()),
            (5, (2,)),
            (5, tuple(range(1, 5)) + (POS_INF,)),
            (0, (NEG_INF, POS_INF)),
            (0, ()),
            (1, (NEG_INF, POS_INF)),
        ]:
            assert construction_error(p, eps) == validation_error(p, eps)

    def test_accepted_exactly_when_oracle_accepts(self):
        rng = random.Random(16)
        accepted = Counter()
        for _ in range(3000):
            p = rng.choice((1, 3, 8, 20, 64))
            pool = [NEG_INF, POS_INF, True, *range(-1, p + 2)]
            eps = rng.sample(pool, min(len(pool), 2 * rng.randint(0, 12)))
            if rng.random() < 0.8:
                eps = sorted(set(eps), key=float)
                eps = eps[: len(eps) - len(eps) % 2]
            eps = tuple(eps)
            want = validation_error(p, eps)
            assert construction_error(p, eps) == want, (p, eps)
            accepted[len(eps) > 8, want is None] += 1
        assert min(accepted.values()) > 50, accepted


class TestOperations:
    def test_meet_with_complement_is_empty(self):
        a = Element(5, (1, 3))
        assert algebra.meet(a, algebra.complement(a)).is_empty()

    def test_symdiff_self_is_empty(self):
        a = Element(5, (NEG_INF, 2, 4, POS_INF))
        assert algebra.symdiff(a, a).is_empty()

    def test_meet_example(self):
        a = Element(5, (NEG_INF, 2))
        b = Element(5, (1, 4))
        assert algebra.meet(a, b).endpoints == (1, 2)

    def test_complement_examples(self):
        assert algebra.complement(algebra.empty(4)) == algebra.full(4)
        assert algebra.complement(algebra.full(4)).is_empty()
        assert algebra.complement(Element(5, (1, 3))).endpoints == (
            NEG_INF,
            1,
            3,
            POS_INF,
        )

    def test_mismatched_orders(self):
        with pytest.raises(InputError):
            algebra.meet(algebra.empty(3), algebra.empty(4))

    @pytest.mark.parametrize("p", range(7))
    def test_oracle_equivalence_exhaustive(self, p):
        elements = list(all_elements(p))
        for a, b in itertools.product(elements, repeat=2):
            pa, pb = oracle_points(a), oracle_points(b)
            assert oracle_points(algebra.meet(a, b)) == pa & pb
            assert oracle_points(algebra.join(a, b)) == pa | pb
            assert oracle_points(algebra.symdiff(a, b)) == pa ^ pb
        for a in elements:
            assert oracle_points(algebra.complement(a)) == oracle_complement(a)

    def test_oracle_equivalence_random_large(self):
        rng = random.Random(7)
        for _ in range(2000):
            p = rng.randint(1, 64)
            a, b = random_element(rng, p), random_element(rng, p)
            assert oracle_points(a & b) == oracle_meet(a, b)
            assert oracle_points(a | b) == oracle_points(a) | oracle_points(b)
            assert oracle_points(a ^ b) == oracle_points(a) ^ oracle_points(b)
            assert oracle_points(~a) == oracle_complement(a)

    def test_boolean_laws_seeded_triples(self):
        rng = random.Random(42)
        for _ in range(1000):
            p = rng.randint(0, 24)
            a, b, c = (random_element(rng, p) for _ in range(3))
            assert ~(a & b) == (~a) | (~b)  # De Morgan
            assert ~(~a) == a  # involution
            assert a & (a | b) == a  # absorption
            assert a | (a & b) == a
            assert (a ^ b) == (a & ~b) | (b & ~a)
            assert (a & b) & c == a & (b & c)


class TestSigma:
    """sigma_of's plain (shape, finite) tuple: shape = (n_a, starts at
    -inf, ends at +inf), finite the finite endpoints."""

    def test_empty(self):
        sig = algebra.sigma_of(algebra.empty(5))
        assert type(sig) is tuple
        assert sig == ((2, False, False), ())

    def test_half_line(self):
        assert algebra.sigma_of(Element(5, (NEG_INF, 2))) == ((3, True, False), (2,))

    def test_interval(self):
        assert algebra.sigma_of(Element(12, (1, 8))) == ((4, False, False), (1, 8))

    def test_span(self):
        # the span a nesting test reads is finite's first and last entry
        assert algebra.sigma_of(algebra.full(5)) == ((2, True, True), ())
        assert algebra.sigma_of(Element(12, (1, 3, 8, POS_INF))) == (
            (5, False, True),
            (1, 3, 8),
        )

    def test_matches_point_set_oracle(self):
        # sigma read off membership flips: x is a finite endpoint when x
        # and x - 1 differ; -inf (+inf) is an endpoint of the element when
        # the first (last) point is in it
        for p in range(7):
            for a in all_elements(p):
                pts = oracle_points(a)
                finite = tuple(x for x in range(1, p) if (x in pts) != (x - 1 in pts))
                shape = (len(finite) + 2, 0 in pts, p - 1 in pts)
                assert algebra.sigma_of(a) == (shape, finite)


class TestRestrict:
    def test_identity_window(self):
        a = Element(7, (1, 3, 5, POS_INF))
        assert algebra.restrict(a, NEG_INF, POS_INF) == a

    def test_whole_order_window_returns_input(self):
        for a in (Element(7, (1, 3, 5, POS_INF)), algebra.full(4), algebra.empty(0)):
            assert algebra.restrict(a, NEG_INF, POS_INF) is a
            if a.order_size:
                assert algebra.restrict(a, 0, POS_INF) is a

    def test_empty_element(self):
        assert algebra.restrict(algebra.empty(9), 2, 6).is_empty()

    def test_example(self):
        a = Element(5, (NEG_INF, 2, 4, POS_INF))
        r = algebra.restrict(a, 2, POS_INF)
        assert r.order_size == 3
        assert r.endpoints == (2, POS_INF)
        assert algebra.to_point_set(r) == {2}

    def test_bad_window(self):
        with pytest.raises(InputError):
            algebra.restrict(algebra.empty(5), 3, 3)
        with pytest.raises(InputError):
            algebra.restrict(algebra.empty(5), "a", 3)

    @pytest.mark.parametrize("p", range(1, 7))
    def test_oracle_equivalence_exhaustive(self, p):
        cuts = [NEG_INF, *range(p), POS_INF]
        for a in all_elements(p):
            for lo, hi in itertools.combinations(cuts, 2):
                r = algebra.restrict(a, lo, hi)
                assert oracle_points(r) == oracle_restrict(a, lo, hi)

    @pytest.mark.parametrize("p", [64, 1024])
    def test_oracle_equivalence_seeded_large(self, p):
        rng = random.Random(p)
        for _ in range(3):
            a = many_intervals(rng, p, rng.randint(10, 20))
            finite = [e for e in a.endpoints if e not in (NEG_INF, POS_INF)]
            # windows open or close on an endpoint, one point before or after
            # it, at 0, -inf or +inf
            cuts = {NEG_INF, 0, POS_INF}
            cuts.update(e + d for e in finite for d in (-1, 0, 1))
            cuts = sorted(c for c in cuts if c in (NEG_INF, POS_INF) or 0 <= c < p)
            windows = set()
            for i, c in enumerate(cuts):
                if i + 1 < len(cuts):
                    windows.add((c, rng.choice(cuts[i + 1 :])))
                if i:
                    windows.add((rng.choice(cuts[:i]), c))
            for lo, hi in windows:
                r = algebra.restrict(a, lo, hi)
                assert oracle_points(r) == oracle_restrict(a, lo, hi), (lo, hi)


def shaped(rng, p, count, starts, ends):
    """Element over order size p with count intervals, from -inf when
    starts and up to +inf when ends."""
    finite = sorted(rng.sample(range(1, p), 2 * count - starts - ends))
    return Element(p, (NEG_INF,) * starts + tuple(finite) + (POS_INF,) * ends)


def finite_endpoints(a):
    return [e for e in a.endpoints if e not in (NEG_INF, POS_INF)]


class TestUnevenOperands:
    """meet clips the operand with more endpoints to each interval of the
    other, and join does so on the complements: operands of 2 endpoints
    against about 600 at p = 1024, with -inf and +inf on either side."""

    P = 1024
    SHAPES = list(itertools.product((0, 1), repeat=2))

    @pytest.fixture(scope="class")
    def longs(self):
        rng = random.Random(self.P)
        longs = [shaped(rng, self.P, 300, s, e) for s, e in self.SHAPES]
        return [(a, oracle_points(a)) for a in longs]

    def shorts(self, rng, long):
        """One interval of every shape, at random points and on the long
        operand's own endpoints."""
        f = finite_endpoints(long)
        k = rng.randrange(len(f) - 60)
        out = [algebra.empty(self.P), algebra.full(self.P)]
        out += [shaped(rng, self.P, 1, s, e) for s, e in self.SHAPES]
        for eps in [(f[k], f[k + 1]), (f[k], f[k + 50]), (NEG_INF, f[k]),
                    (f[k], POS_INF)]:
            out.append(Element(self.P, eps))
        return out

    def test_meet_and_join(self, longs):
        rng = random.Random(2)
        for long, long_pts in longs:
            for short in self.shorts(rng, long):
                short_pts = oracle_points(short)
                m = algebra.meet(short, long)
                assert algebra.meet(long, short) == m
                assert oracle_points(m) == short_pts & long_pts, short
                j = algebra.join(short, long)
                assert algebra.join(long, short) == j
                assert oracle_points(j) == short_pts | long_pts, short

    def test_complement(self, longs):
        for long, long_pts in longs:
            c = algebra.complement(long)
            assert oracle_points(c) == frozenset(range(self.P)) - long_pts
            assert algebra.complement(c) == long

    def test_restrict_on_endpoints(self, longs):
        # windows open and close on the element's own endpoints, at 0 and
        # at the infinities
        rng = random.Random(3)
        for long, long_pts in longs:
            f = finite_endpoints(long)
            for _ in range(6):
                k = rng.randrange(len(f) - 60)
                windows = [
                    (f[k], f[k + 1]),
                    (f[k], f[k + rng.randint(2, 60)]),
                    (NEG_INF, f[k]),
                    (0, f[k]),
                    (f[k], POS_INF),
                    (f[k] - 1, f[k] + 1),
                ]
                for lo, hi in windows:
                    lo_clip = 0 if lo == NEG_INF else lo
                    hi_clip = self.P if hi == POS_INF else hi
                    want = {x - lo_clip for x in long_pts if lo_clip <= x < hi_clip}
                    r = algebra.restrict(long, lo, hi)
                    assert r.order_size == hi_clip - lo_clip
                    assert oracle_points(r) == want, (lo, hi)

    def test_order_sizes_zero_and_one(self):
        for p in (0, 1):
            elements = list(all_elements(p))
            assert len(elements) == 1 << p
            for a, b in itertools.product(elements, repeat=2):
                assert oracle_points(a & b) == oracle_meet(a, b)
                assert oracle_points(a | b) == oracle_points(a) | oracle_points(b)
            for a in elements:
                assert oracle_points(~a) == oracle_complement(a)
        for a in all_elements(1):
            for lo, hi in itertools.combinations([NEG_INF, 0, POS_INF], 2):
                r = algebra.restrict(a, lo, hi)
                assert oracle_points(r) == oracle_restrict(a, lo, hi)


def many_intervals(rng, p, count):
    """Element over order size p with count intervals at random points."""
    pool = [NEG_INF, *range(1, p), POS_INF]
    return Element(p, tuple(sorted(rng.sample(pool, 2 * count))))


class TestEndpointEncoding:
    def test_round_trip(self):
        for e in (NEG_INF, POS_INF, 1, 17):
            assert algebra.decode_endpoint(algebra.encode_endpoint(e)) == e

    def test_json_forms(self):
        assert algebra.encode_endpoint(NEG_INF) == "-inf"
        assert algebra.encode_endpoint(POS_INF) == "+inf"
        assert algebra.encode_endpoint(4) == 4

    def test_bad_encoding(self):
        with pytest.raises(InputError):
            algebra.decode_endpoint("oo")
        with pytest.raises(InputError):
            algebra.decode_endpoint(True)

    def test_element_json_round_trip(self):
        a = Element(9, (NEG_INF, 2, 4, 7))
        assert Element.from_json(9, a.to_json()) == a


@st.composite
def elements(draw, max_p=16):
    p = draw(st.integers(min_value=0, max_value=max_p))
    pts = draw(st.sets(st.integers(min_value=0, max_value=max(0, p - 1))))
    return algebra.from_point_set(p, pts if p else set())


@given(elements())
@settings(max_examples=200)
def test_hypothesis_complement_involution(a):
    assert algebra.complement(algebra.complement(a)) == a


@given(st.data())
@settings(max_examples=200)
def test_hypothesis_ops_match_oracle(data):
    a = data.draw(elements())
    pts = data.draw(
        st.sets(st.integers(min_value=0, max_value=max(0, a.order_size - 1)))
    )
    b = algebra.from_point_set(a.order_size, pts if a.order_size else set())
    assert oracle_points(a & b) == oracle_points(a) & oracle_points(b)
    assert oracle_points(a | b) == oracle_points(a) | oracle_points(b)
    assert oracle_points(a ^ b) == oracle_points(a) ^ oracle_points(b)


@given(elements())
@settings(max_examples=200)
def test_hypothesis_output_revalidates(a):
    # constructing a new Element re-runs every invariant check
    b = algebra.complement(a)
    Element(b.order_size, b.endpoints)
    c = algebra.symdiff(a, b)
    Element(c.order_size, c.endpoints)
    assert c == algebra.full(a.order_size)


@given(st.data())
@settings(max_examples=200)
def test_hypothesis_restrict_matches_oracle(data):
    a = data.draw(elements())
    assume(a.order_size > 0)
    cuts = [NEG_INF, *range(a.order_size), POS_INF]
    window = st.lists(st.sampled_from(cuts), min_size=2, max_size=2, unique=True)
    lo, hi = sorted(data.draw(window))
    assert oracle_points(algebra.restrict(a, lo, hi)) == oracle_restrict(a, lo, hi)


@st.composite
def uneven_pairs(draw, max_p=200):
    """Two elements over one order size: one of at most 4 endpoints, the
    other holding each legal endpoint with probability one half."""
    p = draw(st.integers(min_value=0, max_value=max_p))
    pool = [NEG_INF, *range(1, p), POS_INF] if p else []
    picks = draw(st.sets(st.sampled_from(pool), max_size=4)) if pool else set()
    short = sorted(picks)
    keep = draw(st.lists(st.booleans(), min_size=len(pool), max_size=len(pool)))
    long = [e for e, k in zip(pool, keep) if k]
    a, b = (
        Element(p, tuple(eps[: len(eps) - len(eps) % 2])) for eps in (short, long)
    )
    return (a, b) if draw(st.booleans()) else (b, a)


@given(uneven_pairs(), st.data())
@settings(max_examples=150, deadline=None)
def test_hypothesis_uneven_ops_match_oracle(pair, data):
    a, b = pair
    pa, pb = oracle_points(a), oracle_points(b)
    assert oracle_points(a & b) == pa & pb
    assert oracle_points(a | b) == pa | pb
    assert oracle_points(~a) == oracle_complement(a)
    assert oracle_points(~b) == oracle_complement(b)
    if a.order_size:
        # a window whose ends may sit on either operand's endpoints
        cuts = sorted({NEG_INF, 0, POS_INF, *a.endpoints, *b.endpoints})
        window = st.lists(st.sampled_from(cuts), min_size=2, max_size=2, unique=True)
        lo, hi = sorted(data.draw(window))
        for x in (a, b):
            r = algebra.restrict(x, lo, hi)
            assert oracle_points(r) == oracle_restrict(x, lo, hi)
