"""Classification of homogeneous triples and the sweep by order type.

A triple is classified as verify_triples classifies a type's instance:
check_homogeneous gives its ells, triples._vanishing the positions of the
TRIPLE_TERMS that vanish on it, and triples._case_tag reads the case off
the ell of its last pair."""

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
    verify_triples,
)

from .homogeneity_oracle import slot_ells
from .pointset_oracle import oracle_is_nontrivial, oracle_points, oracle_term
from .triples_oracle import hand_built_triple_types, sweep_triples


def type_count(k, m):
    return math.prod(j * m + 1 for j in range(k))


def test_all_four_terms_nontrivial():
    for t in TRIPLE_TERMS:
        assert oracle_is_nontrivial(t)


class TestClassify:
    def test_nested_interval_triple(self):
        triple = [Element(12, (1, 11)), Element(12, (3, 9)), Element(12, (5, 7))]
        assert homogeneity.check_homogeneous(triple).ell == [[], [1], [1, 1]]
        assert triples._case_tag(1, 4) == CASE_INTERIOR
        vanishing = triples._vanishing(*triple)
        assert vanishing == {1}  # only -x0*-x1*x2 vanishes
        # cross-check against the point-set evaluator
        points = [oracle_points(a) for a in triple]
        for i, t in enumerate(TRIPLE_TERMS):
            assert (not oracle_term(t, points, 12)) == (i in vanishing)

    def test_repeated_member_vanishing(self):
        # a repeated member kills both x*x*(-x)-shaped terms; the all-empty
        # triple is the homogeneous instance of that degenerate shape
        e = algebra.empty(6)
        assert homogeneity.check_homogeneous([e, e, e]).ok
        assert {0, 1} <= triples._vanishing(e, e, e)

    def test_boundary_case(self):
        # a2's endpoints inside a1's first gap (below every endpoint of a1)
        a = [Element(20, (8, 18)), Element(20, (9, 16)), Element(20, (10, 12))]
        assert homogeneity.check_homogeneous(a).ell == [[], [1], [1, 1]]
        assert triples._case_tag(1, 4) == CASE_INTERIOR
        b = [Element(20, (1, 18)), Element(20, (8, 16)), Element(20, (2, 5))]
        assert homogeneity.check_homogeneous(b).ell == [[], [1], [1, 0]]
        assert triples._case_tag(0, 4) == CASE_BOUNDARY
        assert triples._vanishing(*b)

    def test_case_tag_consistency(self):
        # interior <=> the (1,2) gap avoids both ends of the sigma vector
        triple = [
            Element(40, (4, 6, 9, 35)),
            Element(40, (10, 20, 25, 30)),
            Element(40, (12, 14, 16, 18)),
        ]
        assert homogeneity.check_homogeneous(triple).ell == [[], [3], [3, 1]]
        assert algebra.sigma_of(triple[0])[0][0] == 6
        tags = [triples._case_tag(gap, 6) for gap in range(5)]
        assert tags == [CASE_BOUNDARY] + [CASE_INTERIOR] * 3 + [CASE_BOUNDARY]


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
                    assert triples._vanishing(*trio)
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
                assert [ell for _, ell in types] == list(slot_ells(k, m))
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
