"""Classification of homogeneous triples and the sweep by order type."""

import itertools
import math

import pytest

from intalg import algebra, homogeneity, terms, triples
from intalg.algebra import Element
from intalg.errors import CapacityError, InputError
from intalg.triples import (
    CASE_BOUNDARY,
    CASE_INTERIOR,
    MAX_SWEEP_ORDER,
    TRIPLE_TERMS,
    classify_triple,
    verify_triples,
)

from .triples_oracle import hand_built_triple_types, sweep_triples


def type_count(k, m):
    return math.prod(j * m + 1 for j in range(k))


def test_all_four_terms_nontrivial():
    for t in TRIPLE_TERMS:
        assert terms.is_nontrivial(t)


class TestClassify:
    def test_nested_interval_triple(self):
        a0 = Element(12, (1, 11))
        a1 = Element(12, (3, 9))
        a2 = Element(12, (5, 7))
        c = classify_triple(a0, a1, a2)
        assert c.vanishing == {1}  # only -x0*-x1*x2 vanishes
        assert c.case_tag == CASE_INTERIOR
        # cross-check by direct evaluation of all four terms
        for i, t in enumerate(TRIPLE_TERMS):
            value = terms.evaluate(t, [a0, a1, a2])
            assert value.is_empty() == (i in c.vanishing)

    def test_repeated_member_vanishing(self):
        # a repeated member kills both x*x*(-x)-shaped terms; the all-empty
        # triple is the homogeneous instance of that degenerate shape
        e = algebra.empty(6)
        c = classify_triple(e, e, e)
        assert {0, 1} <= set(c.vanishing)

    def test_boundary_case(self):
        # a2's endpoints inside a1's first gap (below every endpoint of a1)
        a0 = Element(20, (8, 18))
        a1 = Element(20, (9, 16))
        a2 = Element(20, (10, 12))
        assert classify_triple(a0, a1, a2).case_tag == CASE_INTERIOR
        b0 = Element(20, (1, 18))
        b1 = Element(20, (8, 16))
        b2 = Element(20, (2, 5))
        c = classify_triple(b0, b1, b2)
        assert c.ell[2][1] == 0
        assert c.case_tag == CASE_BOUNDARY
        assert c.vanishing

    def test_non_homogeneous_rejected(self):
        message = r"^triple is not homogeneous: clause 3 fails on pair \(0, 1\)$"
        with pytest.raises(InputError, match=message):
            classify_triple(
                Element(9, (1, 3)), Element(9, (2, 5)), Element(9, (3, 4))
            )

    def test_case_tag_consistency(self):
        # interior <=> the (1,2) gap avoids both ends of the sigma vector
        a0 = Element(40, (4, 6, 9, 35))
        a1 = Element(40, (10, 20, 25, 30))
        a2 = Element(40, (12, 14, 16, 18))
        c = classify_triple(a0, a1, a2)
        (n, _, _), _ = algebra.sigma_of(a0)
        ell = c.ell[2][1]
        assert (c.case_tag == CASE_INTERIOR) == (ell != 0 and ell + 1 != n - 1)


class TestSweep:
    def test_small_sweep_no_counterexamples(self):
        report = verify_triples(4, 3)
        assert report.counterexamples == ()
        assert report.triples == report.interior + report.boundary
        assert report.triples > 0

    def test_medium_sweep_no_counterexamples(self):
        report = verify_triples(7, 4)
        assert report.counterexamples == ()
        assert report.triples > 0

    def test_report_dict_shape(self):
        report = verify_triples(3, 3)
        d = report.to_dict()
        assert set(d) == {"triples", "case1", "case2", "counterexamples"}
        assert d["counterexamples"] == []

    def test_caps(self):
        with pytest.raises(CapacityError):
            verify_triples(MAX_SWEEP_ORDER + 1, 4)
        with pytest.raises(CapacityError):
            verify_triples(4, 7)

    @pytest.mark.parametrize("max_p, max_k", [(-1, 2), (3, -2)])
    def test_negative_bounds(self, max_p, max_k):
        with pytest.raises(InputError, match="negative bound"):
            verify_triples(max_p, max_k)

    def test_sweep_counts_match_direct_enumeration(self):
        """Recount the (p=4, k<=3) sweep with an independent nested loop."""
        total = 0
        for p in range(5):
            elements = []
            for bits in range(1 << p):
                a = algebra.from_point_set(
                    p, [i for i in range(p) if bits >> i & 1]
                )
                if algebra.sigma_of(a)[0][0] <= 3:
                    elements.append(a)
            for trio in itertools.product(elements, repeat=3):
                if homogeneity.check_homogeneous(list(trio)).ok:
                    total += 1
                    assert classify_triple(*trio).vanishing
        assert verify_triples(4, 3).triples == total

    @pytest.mark.parametrize("max_p", range(9))
    def test_matches_exhaustive_oracle(self, max_p):
        for max_k in range(7):
            got = verify_triples(max_p, max_k).to_dict()
            assert got == sweep_triples(max_p, max_k).to_dict(), max_k

    def test_every_type_at_order_13(self):
        # order 13 = 3m + 1 holds an instance of every type with m <= 4, that
        # is |sigma| <= 6, so no type fails at any order size
        report = verify_triples(13, 6)
        assert report.counterexamples == ()
        assert report.interior > 0 and report.boundary > 0

    def test_failing_type_reported_by_its_instance(self, monkeypatch):
        # a term that is full on every nonempty order vanishes on no triple
        # there: each type with a positive count is one counterexample
        monkeypatch.setattr(triples, "TRIPLE_TERMS", (terms.parse("x0+-x0"),))
        report = verify_triples(4, 3)
        instances = [
            tuple(a.endpoints for a in triple)
            for m, starts in [(0, False), (0, True), (1, False), (1, True)]
            for triple, _ in homogeneity.order_types(3, m, starts)
        ]
        assert report.counterexamples == tuple(instances)
        # the oracle lists every concrete triple but the empty order's
        assert len(sweep_triples(4, 3).counterexamples) == report.triples - 1


class TestOrderTypes:
    @pytest.mark.parametrize("m", range(6))
    def test_instances_carry_their_ells(self, m):
        # every arity with at most 1,100 types per shape: k <= 4 at every
        # m, k = 5 at m <= 2 and k = 6 at m <= 1
        for k in itertools.takewhile(lambda k: type_count(k, m) <= 1100, range(7)):
            for starts in (False, True):
                types = list(homogeneity.order_types(k, m, starts))
                shape = (m + 2, starts, (m + starts) % 2 == 1)
                for seq, ell in types:
                    assert len(seq) == len(ell) == k
                    assert {a.order_size for a in seq} <= {k * m + 1}
                    assert {algebra.sigma_of(a)[0] for a in seq} <= {shape}
                    assert homogeneity.check_homogeneous(seq).ell == ell
                instances = {tuple(a.endpoints for a in seq) for seq, _ in types}
                assert len(instances) == len(types) == type_count(k, m), k

    @pytest.mark.parametrize("m", range(6))
    def test_triples_in_the_hand_built_order(self, m):
        # the k = 3 sequence fixes verify_triples' counterexample order
        for starts in (False, True):
            got = list(homogeneity.order_types(3, m, starts))
            assert got == list(hand_built_triple_types(m, starts))
