"""Parser, renderer and evaluator.  evaluate is checked against the
point-set term evaluator of tests/pointset_oracle.py, and at order size 1,
the two-element algebra, it reads off a term's minterms: the sign vectors
on which the term is 1, none exactly when the term is trivial."""

import contextlib
import itertools
import random
import sys
import traceback

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intalg import algebra, terms
from intalg.algebra import NEG_INF, POS_INF, Element
from intalg.errors import CapacityError, InputError
from intalg.terms import (
    Compl,
    Join,
    Meet,
    One,
    SymDiff,
    Var,
    Zero,
    ZERO,
    ONE,
)

from .conftest import random_element
from .pointset_oracle import (
    oracle_is_nontrivial,
    oracle_minterms,
    oracle_points,
    oracle_term,
)


class TestParse:
    def test_six_variable_product(self):
        t = terms.parse("x0*x1*-x2*-x3*x4*-x5")
        assert t == Meet(
            Meet(
                Meet(Meet(Meet(Var(0), Var(1)), Compl(Var(2))), Compl(Var(3))),
                Var(4),
            ),
            Compl(Var(5)),
        )

    def test_constants(self):
        assert terms.parse("0") == ZERO
        assert terms.parse("1") == ONE

    def test_symdiff_meet(self):
        assert terms.parse("(x0 ^ x1) * x2") == Meet(
            SymDiff(Var(0), Var(1)), Var(2)
        )

    def test_precedence(self):
        # '-' > '*' > '^' > '+'
        assert terms.parse("x0+x1^x2*-x3") == Join(
            Var(0), SymDiff(Var(1), Meet(Var(2), Compl(Var(3))))
        )

    def test_whitespace_ignored(self):
        assert terms.parse(" x1 * - x2 ") == Meet(Var(1), Compl(Var(2)))

    @pytest.mark.parametrize(
        "bad",
        ["", "x", "x0*", "(x0", "x0)", "y0", "x0 x1", "x\u00b2", "x" + "1" * 5000],
    )
    def test_syntax_errors_with_position(self, bad):
        with pytest.raises(terms.ParseError) as exc:
            terms.parse(bad)
        assert exc.value.position >= 0

    def test_variable_index_overflow(self):
        with pytest.raises(terms.ParseError):
            terms.parse(f"x{10**7}")

    @pytest.mark.parametrize(
        "open_, close",
        [("(", ")"), ("-", ""), ("-(", ")"), ("x1*(", ")"), ("x1^-(", ")")],
    )
    def test_nesting_depth_bound(self, open_, close):
        # open '(' plus stacked '-' reach MAX_TERM_DEPTH exactly
        levels = terms.MAX_TERM_DEPTH // (open_.count("(") + open_.count("-"))
        text = open_ * levels + "x0" + close * levels
        t = terms.parse(text)
        assert terms.parse(terms.render(t)) == t
        terms.evaluate(t, [algebra.full(3)] * 2)
        assert terms.num_vars(t) == (2 if "x1" in open_ else 1)
        with pytest.raises(terms.ParseError, match="nested deeper"):
            terms.parse("(" + text + ")")

    @pytest.mark.parametrize("op", ["*", "^", "+"])
    def test_operator_chain_height_bound(self, op):
        # 201 operands: a left-deep tree exactly MAX_TERM_DEPTH operators high
        text = op.join(["x0"] * (terms.MAX_TERM_DEPTH + 1))
        with recursion_headroom(terms.MAX_TERM_DEPTH + 50):
            t = terms.parse(text)
            assert terms.render(t) == text
            terms.evaluate(t, [algebra.full(3)])
            assert terms.num_vars(t) == 1
        with pytest.raises(terms.ParseError, match="operators high") as exc:
            terms.parse(text + op + "x0 ")
        # '*' is built as soon as its operand ends; '^' and '+' only once
        # the next token, past the space, shows nothing tighter follows
        assert exc.value.position == len(text) + (3 if op == "*" else 4)

    def test_nested_parentheses_frame_budget(self):
        # two frames per '(': 200 of them fit in 2 * MAX_TERM_DEPTH + 50
        text = "(" * terms.MAX_TERM_DEPTH + "x0" + ")" * terms.MAX_TERM_DEPTH
        with recursion_headroom(2 * terms.MAX_TERM_DEPTH + 50):
            t = terms.parse(text)
            assert terms.render(t) == "x0"
            assert terms.evaluate(t, [algebra.full(3)]) == algebra.full(3)

    def test_waiting_operators_cost_no_frames(self):
        # operators waiting for their right operand sit on a list, not on
        # the stack: a level costs two frames however many wait at its '('
        depth = terms.MAX_TERM_DEPTH
        with recursion_headroom(2 * depth + 50):
            t = terms.parse("x1*(" * depth + "x0" + ")" * depth)
            assert terms.render(t) == "x1*(" * (depth - 1) + "x1*x0" + ")" * (depth - 1)
            text = "x1+x1^x1*(" * depth
            with pytest.raises(terms.ParseError, match="end of input"):
                terms.parse(text)
            with pytest.raises(terms.ParseError, match="operators high"):
                terms.parse(text + "x0" + ")" * depth)


@contextlib.contextmanager
def recursion_headroom(frames):
    """Lower the recursion limit to `frames` above the current stack depth."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(traceback.extract_stack()) + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


class TestRender:
    def test_round_trip_examples(self):
        for text in [
            "x0*x1*-x2*-x3*x4*-x5",
            "(x0^x1)*x2*(x3^x4)*-x5",
            "(x0^x1)*(x2^x3)",
            "-(x0+x1)",
            "x0+x1+x2",
            "0",
            "1",
        ]:
            t = terms.parse(text)
            assert terms.parse(terms.render(t)) == t

    def test_minimal_parens(self):
        assert terms.render(terms.parse("(x0^x1)*x2")) == "(x0^x1)*x2"
        assert terms.render(terms.parse("x0^(x1*x2)")) == "x0^x1*x2"
        assert terms.render(terms.parse("-(x1)")) == "-x1"


def random_term(rng, max_depth=5, max_var=6):
    if max_depth == 0 or rng.random() < 0.3:
        return rng.choice([Var(rng.randrange(max_var)), ZERO, ONE])
    kind = rng.randrange(4)
    if kind == 0:
        return Compl(random_term(rng, max_depth - 1, max_var))
    cls = (Meet, Join, SymDiff)[kind - 1]
    return cls(
        random_term(rng, max_depth - 1, max_var),
        random_term(rng, max_depth - 1, max_var),
    )


def test_parser_round_trip_500_random_terms():
    rng = random.Random(11)
    for _ in range(500):
        t = random_term(rng)
        assert terms.parse(terms.render(t)) == t


class Foreign(terms.Term):
    """A node type the term functions do not know."""


@pytest.mark.parametrize(
    "call",
    [
        lambda t: terms.evaluate(t, [algebra.full(3)]),
        terms.num_vars,
        terms.render,
    ],
    ids=["evaluate", "num_vars", "render"],
)
@pytest.mark.parametrize(
    "wrap", [lambda u: u, lambda u: Meet(Var(0), Compl(u))], ids=["root", "inner"]
)
def test_unknown_node_is_input_error(call, wrap):
    with pytest.raises(InputError, match="unknown term node"):
        call(wrap(Foreign()))


class TestNumVars:
    def test_counts(self):
        assert terms.num_vars(ZERO) == 0
        assert terms.num_vars(terms.parse("x0*-x4")) == 5


class TestEvaluate:
    def test_self_symdiff(self):
        a = Element(6, (1, 4))
        assert terms.evaluate(terms.parse("x0^x0"), [a]).is_empty()

    def test_excluded_middle(self):
        a = Element(6, (1, 4))
        assert terms.evaluate(terms.parse("x0 + -x0"), [a]) == algebra.full(6)

    def test_nested_triple(self):
        a0 = Element(12, (1, 11))
        a1 = Element(12, (3, 9))
        a2 = Element(12, (5, 7))
        out = terms.evaluate(terms.parse("x0*x1*-x2"), [a0, a1, a2])
        assert out.endpoints == (3, 5, 7, 9)
        assert oracle_points(out) == {3, 4, 7, 8}

    def test_missing_variable(self):
        with pytest.raises(InputError):
            terms.evaluate(terms.parse("x2"), [algebra.empty(3)])

    def test_mixed_order_sizes(self):
        with pytest.raises(InputError):
            terms.evaluate(
                terms.parse("x0*x1"), [algebra.empty(3), algebra.empty(4)]
            )

    def test_constant_needs_order_size(self):
        with pytest.raises(InputError):
            terms.evaluate(ONE, [])
        assert terms.evaluate(ONE, [], order_size=4) == algebra.full(4)


def two_element_minterms(t, n):
    """The sign vectors s in {0,1}^n at which evaluate gives the full element
    of order size 1 (x_i full when s[i], else empty); the others give the
    empty element."""
    out = set()
    for signs in itertools.product((0, 1), repeat=n):
        assignment = [algebra.full(1) if s else algebra.empty(1) for s in signs]
        value = terms.evaluate(t, assignment, order_size=1)
        assert value in (algebra.full(1), algebra.empty(1))
        if value == algebra.full(1):
            out.add(signs)
    return out


class TestMinterms:
    def test_contradiction(self):
        assert two_element_minterms(terms.parse("x0*-x0"), 1) == set()

    def test_single_variable(self):
        assert two_element_minterms(terms.parse("x0"), 2) == {(1, 0), (1, 1)}

    def test_six_variable_product_single_minterm(self):
        signs = two_element_minterms(terms.parse("x0*x1*-x2*-x3*x4*-x5"), 6)
        assert signs == {(1, 1, 0, 0, 1, 0)}


class TestNontrivial:
    def test_examples(self):
        assert not oracle_is_nontrivial(terms.parse("x0 ^ x0"))
        assert oracle_is_nontrivial(terms.parse("x0*x1*-x2*-x3*x4*-x5"))
        assert oracle_is_nontrivial(terms.parse("x1*x2"))

    def test_monotonicity_random_pairs(self):
        # t*u <= t <= t+u: a nontrivial meet has nontrivial meetands, and
        # a join of a nontrivial term is nontrivial
        rng = random.Random(5)
        for _ in range(200):
            t, u = random_term(rng, 4, 4), random_term(rng, 4, 4)
            n = max(terms.num_vars(t), terms.num_vars(u))
            mt, mu = two_element_minterms(t, n), two_element_minterms(u, n)
            assert two_element_minterms(Meet(t, u), n) == mt & mu
            assert two_element_minterms(Join(t, u), n) == mt | mu
            if mt & mu:
                assert oracle_is_nontrivial(t) and oracle_is_nontrivial(u)
            if mt:
                assert oracle_is_nontrivial(Join(t, u))

    def test_nonzero_on_free_generators_iff_nontrivial(self):
        # member i of the bit family at order 2^n holds the points with bit
        # i set: the family is independent, so a term is nonzero on it
        # exactly when it is nonzero somewhere
        rng = random.Random(23)
        for _ in range(200):
            t = random_term(rng, 4, 4)
            n = terms.num_vars(t)
            p = 1 << n
            bits = [
                algebra.from_point_set(p, [x for x in range(p) if x >> i & 1])
                for i in range(n)
            ]
            value = terms.evaluate(t, bits, order_size=p)
            assert (not value.is_empty()) == oracle_is_nontrivial(t)


def test_evaluate_matches_pointset_oracle_500_pairs():
    rng = random.Random(97)
    sizes = set()
    for _ in range(500):
        p = rng.randint(0, 12)
        sizes.add(p)
        t = random_term(rng, 4, 4)
        n = max(terms.num_vars(t), 1)
        assignment = [random_element(rng, p) for _ in range(n)]
        points = [oracle_points(a) for a in assignment]
        value = terms.evaluate(t, assignment, order_size=p)
        assert oracle_points(value) == oracle_term(t, points, p)
    assert 0 in sizes


@given(st.integers(min_value=0, max_value=10**4))
@settings(max_examples=100)
def test_hypothesis_random_term_round_trip(seed):
    t = random_term(random.Random(seed))
    assert terms.parse(terms.render(t)) == t


@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=2),
)
@settings(max_examples=100, deadline=None)
def test_hypothesis_minterms_match_two_element_evaluation(seed, extra):
    # order size 1 is the two-element algebra: x_i -> full when sign i is 1
    t = random_term(random.Random(seed), 4, 5)
    n = terms.num_vars(t) + extra
    assert two_element_minterms(t, n) == oracle_minterms(t, n)


@given(
    st.text(
        st.sampled_from("x0129-*^+() ")
        | st.characters(categories=("Nd", "No"))  # digits int() may refuse
        | st.characters(),
        max_size=40,
    )
)
@settings(max_examples=300)
def test_hypothesis_parse_accepts_or_rejects_cleanly(text):
    # any input either parses or raises the errors the CLI reports as exit 2
    try:
        t = terms.parse(text)
    except (InputError, CapacityError):
        return
    assert terms.parse(terms.render(t)) == t
