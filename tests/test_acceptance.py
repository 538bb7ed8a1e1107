"""Acceptance suite: one test per headline criterion, one printed line each.

Every test prints "PASS <criterion>" on success so a plain pytest -s run
doubles as a one-page acceptance report; a failure shows up both as the
missing line and as the usual pytest failure.
"""

import itertools
import random
import time

import numpy as np

from intalg import algebra, product, search, terms, triples
from intalg.algebra import NEG_INF, POS_INF
from intalg.product import Family, is_zero, prod_eval
from intalg.search import (
    INSIDE,
    TERM_QUAD,
    TERM_SHORT,
    TERM_SYMMETRIC,
    ell_matrix,
    find_quadruple,
    find_sextuple,
    gap_side,
    pigeonhole_state,
    ramsey_quad,
    required_members,
)

from .conftest import load_script, random_element
from .pointset_oracle import all_elements, oracle_is_nontrivial, oracle_points


def report(name):
    print(f"PASS {name}")


# seeded per-coordinate homogeneous families with few gap-vector values
make_campaign_family = load_script("run_sextuple_campaign").make_family


def test_triple_sweep_exhaustive():
    """All homogeneous triples over p <= 6, |sigma| <= 4 kill some term."""
    start = time.perf_counter()
    rep = triples.verify_triples(6, 4)
    elapsed = time.perf_counter() - start
    assert rep.counterexamples == ()
    assert rep.triples > 0
    assert elapsed < 300
    report(
        f"triple sweep p<=6 k<=4: {rep.triples} triples, 0 counterexamples"
    )


def test_triple_sweep_extended():
    rep = triples.verify_triples(7, 5)
    assert rep.counterexamples == ()
    report(
        f"extended triple sweep p<=7 k<=5: {rep.triples} triples, "
        "0 counterexamples"
    )


def _run_sextuple_campaign(mode):
    worst = 0.0
    for seed in range(100):
        fam = make_campaign_family(seed, 22)
        v_count = pigeonhole_state(ell_matrix(fam))
        need = required_members(v_count, mode)
        assert len(fam) >= need, (seed, v_count, need)
        start = time.perf_counter()
        cert = find_sextuple(fam, mode)
        elapsed = time.perf_counter() - start
        worst = max(worst, elapsed)
        assert cert is not None, seed
        # independent re-evaluation, coordinate by coordinate
        members = [fam.members[i] for i in cert.indices]
        for zeta in range(fam.kappa):
            value = terms.evaluate(
                cert.term,
                [m[zeta] for m in members],
                order_size=fam.order_sizes[zeta],
            )
            assert value.is_empty(), (seed, zeta)
        assert elapsed < 1.0, (seed, elapsed)
    return worst


def test_short_sextuple_campaign():
    """100/100 verified short-mode certificates on seeded families."""
    worst = _run_sextuple_campaign("short")
    report(f"short-mode campaign: 100/100 certificates, worst {worst:.3f}s")


def test_symmetric_sextuple_campaign():
    """100/100 verified symmetric-mode certificates on seeded families."""
    worst = _run_sextuple_campaign("symmetric")
    report(f"symmetric-mode campaign: 100/100 certificates, worst {worst:.3f}s")


def drawn_on_demand(rng, colors, n):
    """Uniform random coloring of the pairs i < j < n whose row i, the
    colors of (i, j) for every j > i, is drawn from rng when first asked
    for; ramsey_quad asks for rows in increasing i, and a hit at a1 = 1
    draws two of them."""
    rows = {}

    def color(i, j):
        row = rows.get(i)
        if row is None:
            row = rows[i] = rng.integers(0, colors, size=n - i - 1).tolist()
        return row[j - i - 1]

    return color


def test_ramsey_quadruple_campaigns():
    """Cross-equal quadruples exist in 10^5 random colorings at the bound."""
    rng = np.random.default_rng(2026)
    for colors, n in ((2, 16), (3, 162)):
        found = 0
        for _ in range(100_000):
            coloring = drawn_on_demand(rng, colors, n)
            assert ramsey_quad(n, coloring) is not None, (colors, n)
            found += 1
        assert found == 100_000
    # verified quadruple certificates on the homogeneous-family campaign
    for seed in range(20):
        fam = make_campaign_family(seed, n_members=8)
        cert = find_quadruple(fam)
        assert cert is not None, seed
        assert is_zero(prod_eval(cert.term, fam, cert.indices))
        assert cert.term == TERM_QUAD
    report(
        "ramsey quadruples: 10^5/10^5 at (k=2, N=16) and (k=3, N=162); "
        "20/20 verified family certificates"
    )


def test_two_color_ramsey_threshold_is_ten():
    """Every 2-coloring of the pairs from 10 indices has a cross-equal
    quadruple: exact, by scripts/ramsey_threshold.py's backtracking, where
    the campaign above only samples.  9 indices have a coloring without
    one, which ramsey_quad re-verifies."""
    avoiding_coloring = load_script("ramsey_threshold").avoiding_coloring
    assert avoiding_coloring(10, 2) == (True, None, 318_541)
    verdict, coloring, _ = avoiding_coloring(9, 2)
    assert verdict is False
    assert ramsey_quad(9, lambda i, j: coloring[i, j]) is None
    report("ramsey threshold: every 2-coloring of N=10 has a quadruple, N=9 not")


def test_gap_side_predicts_vanishing_product():
    """Equal gap vectors on (a,b) and (a,c) force the side-predicted one
    of (x1^x2)*x0 and (x1^x2)*-x0 to vanish, with zero exceptions."""
    with_x0 = terms.parse("(x1^x2)*x0")
    without_x0 = terms.parse("(x1^x2)*-x0")
    checked = 0
    for seed in range(25):
        fam = make_campaign_family(seed, n_members=10)
        matrix = ell_matrix(fam)
        n = len(fam)
        for alpha, beta, gamma in itertools.combinations(range(n), 3):
            if matrix.ell_vec(alpha, beta) != matrix.ell_vec(alpha, gamma):
                continue
            for zeta in range(fam.kappa):
                trio = [fam.members[i][zeta] for i in (alpha, beta, gamma)]
                ell = matrix.ell_vec(alpha, beta)[zeta]
                side = gap_side(fam, zeta, alpha, ell)
                predicted, other = (
                    (without_x0, with_x0)
                    if side == INSIDE
                    else (with_x0, without_x0)
                )
                assert terms.evaluate(predicted, trio).is_empty(), (
                    seed,
                    (alpha, beta, gamma),
                    zeta,
                )
                # "exactly one" whenever the symmetric difference is nonzero
                if not (trio[1] ^ trio[2]).is_empty():
                    assert not terms.evaluate(other, trio).is_empty()
                checked += 1
    assert checked > 1000
    report(f"gap-side prediction exact on {checked} (triple, coordinate) cases")


def test_algebra_oracle_equivalence():
    """Endpoint arithmetic matches the point-set oracle, exhaustively for
    p <= 8 and on 10^4 random cases up to p = 64; canonical uniqueness
    holds exhaustively for p <= 8."""
    for p in range(9):
        seen = set()
        elements = list(all_elements(p))
        for a in elements:
            assert a.endpoints not in seen
            seen.add(a.endpoints)
        assert len(seen) == 1 << p  # distinct point sets, distinct forms
        points = {a: oracle_points(a) for a in elements}
        for a in elements:
            assert oracle_points(~a) == set(range(p)) - points[a]
        for a, b in itertools.product(elements, repeat=2):
            pa, pb = points[a], points[b]
            assert oracle_points(a & b) == pa & pb
            assert oracle_points(a | b) == pa | pb
            assert oracle_points(a ^ b) == pa ^ pb
    rng = random.Random(64)
    for _ in range(10_000):
        p = rng.randint(1, 64)
        a, b = random_element(rng, p), random_element(rng, p)
        pa, pb = oracle_points(a), oracle_points(b)
        assert oracle_points(a & b) == pa & pb
        assert oracle_points(a | b) == pa | pb
        assert oracle_points(a ^ b) == pa ^ pb
        assert oracle_points(~a) == set(range(p)) - pa
    report("algebra oracle equivalence: exhaustive p<=8 + 10^4 random p<=64")


def test_independence_suite():
    """Binary-coding families are independent up to n = 8; one coordinate
    with too few points always yields a dependence witness."""
    for n in range(1, 9):
        p = 1 << n
        members = tuple(
            (
                algebra.from_point_set(
                    p, [x for x in range(p) if x >> i & 1]
                ),
            )
            for i in range(n)
        )
        fam = Family(1, (p,), members)
        ok, _ = product.is_independent(fam, range(n))
        assert ok, n
    rng = random.Random(303)
    for _ in range(300):
        n = rng.randint(1, 4)
        p = rng.randint(1, (1 << (n + 1)) - 1)
        members = tuple((random_element(rng, p),) for _ in range(n + 1))
        fam = Family(1, (p,), members)
        ok, witness = product.is_independent(fam, range(n + 1))
        assert not ok
        # the witness is valid: its sign pattern has empty meet everywhere
        acc = algebra.full(p)
        for j, a in enumerate(m[0] for m in members):
            acc &= a if witness.pattern[j] else ~a
        assert acc.is_empty()
        assert set(witness.gamma) == {
            j for j, s in enumerate(witness.pattern) if s
        }
        assert set(witness.nabla) == {
            j for j, s in enumerate(witness.pattern) if not s
        }
    report("independence: binary coding n<=8 independent; 300/300 witnesses")


def test_nontriviality_of_headline_terms():
    """The fixed search terms are nontrivial; t*(-t) never is.  Both are
    read in the two-element algebra, by the point-set evaluator at order
    size 1."""
    for t in (*triples.TRIPLE_TERMS, TERM_SHORT, TERM_SYMMETRIC, TERM_QUAD):
        assert oracle_is_nontrivial(t)
    from .test_terms import random_term

    rng = random.Random(404)
    for _ in range(100):
        t = random_term(rng, 4, 5)
        assert not oracle_is_nontrivial(terms.Meet(t, terms.Compl(t)))
    report("nontriviality: 7/7 headline terms true, 100/100 t*(-t) false")
