"""Product families, coordinatewise evaluation and independence testing."""

import itertools
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from intalg import algebra, terms
from intalg.algebra import NEG_INF, POS_INF, Element
from intalg.errors import CapacityError, InputError
from intalg.product import Family, is_independent, is_zero, prod_eval

from .conftest import random_element
from .independence_oracle import naive_is_independent
from .pointset_oracle import all_elements, oracle_is_nontrivial


def single_coordinate(p, elements):
    return Family(1, (p,), tuple((a,) for a in elements))


def random_family(rng, kappa, order_sizes, n):
    return Family(
        kappa,
        tuple(order_sizes),
        tuple(
            tuple(random_element(rng, p) for p in order_sizes) for _ in range(n)
        ),
    )


_json_leaf = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-2, max_value=12)
    | st.floats()
    | st.sampled_from(["-inf", "+inf", "5"])
)
_json_value = st.recursive(
    _json_leaf,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["kappa", "elements", ""]), inner),
    max_leaves=8,
)
_endpoints = st.lists(_json_leaf) | st.builds(
    lambda lo, interior, hi: lo + sorted(interior) + hi,
    st.sampled_from([[], ["-inf"]]),
    st.sets(st.integers(min_value=-1, max_value=9)),
    st.sampled_from([[], ["+inf"]]),
)


def _family_shaped(kappa):
    sizes = st.integers(min_value=-1, max_value=9)
    member = st.lists(_endpoints, min_size=kappa, max_size=kappa) | _json_value
    return st.fixed_dictionaries(
        {
            "kappa": st.just(kappa),
            "order_sizes": st.lists(sizes, min_size=kappa, max_size=kappa),
            "elements": st.lists(member, max_size=3),
        }
    )


_family_keys = dict.fromkeys(["kappa", "order_sizes", "elements"], _json_value)
# JSON documents: any, with the family's keys, or shaped like a family
family_documents = (
    _json_value
    | st.fixed_dictionaries(_family_keys)
    | st.integers(min_value=0, max_value=3).flatmap(_family_shaped)
)


class TestFamily:
    def test_validation(self):
        with pytest.raises(InputError):
            Family(2, (4,), ())
        with pytest.raises(InputError):
            Family(1, (4,), ((algebra.empty(4), algebra.empty(4)),))
        with pytest.raises(InputError):
            Family(1, (4,), ((algebra.empty(5),),))

    def test_json_round_trip(self):
        fam = single_coordinate(4, [Element(4, (NEG_INF, 2)), Element(4, (1, 3))])
        assert Family.from_dict(fam.to_dict()) == fam

    def test_json_shape(self):
        fam = single_coordinate(4, [Element(4, (NEG_INF, 2))])
        assert fam.to_dict() == {
            "kappa": 1,
            "order_sizes": [4],
            "elements": [[["-inf", 2]]],
        }

    def test_malformed(self):
        with pytest.raises(InputError):
            Family.from_dict({"kappa": 1})

    @given(family_documents)
    @settings(max_examples=200)
    def test_hypothesis_from_dict_accepts_or_rejects_cleanly(self, doc):
        # any JSON document either loads or raises the errors the CLI
        # reports as exit 2
        try:
            fam = Family.from_dict(doc)
        except (InputError, CapacityError):
            return
        assert Family.from_dict(fam.to_dict()) == fam

    def test_from_columns(self):
        a, b = algebra.empty(3), algebra.full(3)
        c, d = algebra.empty(4), algebra.full(4)
        fam = Family.from_columns((3, 4), [[a, b], [c, d]])
        assert fam == Family(2, (3, 4), ((a, c), (b, d)))
        assert Family.from_columns([3], [[]]) == Family(1, (3,), ())
        assert Family.from_columns((), [], 3) == Family(0, (), ((), (), ()))
        with pytest.raises(InputError):
            Family.from_columns((3, 3), [[a, b], [a]])
        with pytest.raises(InputError):
            Family.from_columns((), [], -1)
        # one column per order size, even with no members to check
        for order_sizes, columns in [((8, 9), [[]]), ((8,), [[], []]), ((), [[]])]:
            with pytest.raises(InputError, match="column count"):
                Family.from_columns(order_sizes, columns)


class TestProdEval:
    def test_self_symdiff_is_zero(self):
        rng = random.Random(3)
        fam = random_family(rng, 2, (5, 7), 3)
        values = prod_eval(terms.parse("x0^x0"), fam, [1, 1])
        assert is_zero(values)

    def test_identity(self):
        rng = random.Random(4)
        fam = random_family(rng, 2, (5, 7), 3)
        assert prod_eval(terms.parse("x0"), fam, [2]) == list(fam.members[2])

    def test_errors(self):
        fam = single_coordinate(4, [algebra.empty(4)])
        with pytest.raises(InputError):
            prod_eval(terms.parse("x0"), fam, [5])
        with pytest.raises(InputError):
            prod_eval(terms.parse("x0*x1"), fam, [0])


class TestIndependence:
    def test_element_and_complement(self):
        a = Element(6, (1, 4))
        fam = single_coordinate(6, [a, algebra.complement(a)])
        ok, witness = is_independent(fam, [0, 1])
        assert not ok
        assert set(witness.gamma) | set(witness.nabla) == {0, 1}
        assert not set(witness.gamma) & set(witness.nabla)

    def test_two_member_example(self):
        a = algebra.from_point_set(4, {0, 1})
        b = algebra.from_point_set(4, {0, 2})
        ok, witness = is_independent(single_coordinate(4, [a, b]), [0, 1])
        assert ok and witness is None

    def test_three_members_over_four_points_dependent(self):
        elements = [a for a in all_elements(4)]
        rng = random.Random(8)
        for _ in range(50):
            trio = rng.sample(elements, 3)
            ok, witness = is_independent(single_coordinate(4, trio), [0, 1, 2])
            assert not ok
            # the witness pattern really has empty meet
            meets = prod_eval(
                _pattern_term(witness.pattern),
                single_coordinate(4, trio),
                [0, 1, 2],
            )
            assert is_zero(meets)

    def test_witness_is_lex_least(self):
        fam = single_coordinate(3, [algebra.empty(3), algebra.empty(3)])
        ok, witness = is_independent(fam, [0, 1])
        assert not ok
        # all-complemented pattern (0,0) gives full*full != 0, so the least
        # failing pattern is (0,1)
        assert witness.pattern == (0, 1)

    def test_errors(self):
        fam = single_coordinate(4, [algebra.empty(4)] * 3)
        with pytest.raises(InputError):
            is_independent(fam, [0, 0])
        with pytest.raises(CapacityError):
            is_independent(fam, list(range(17)))

    def test_kappa_zero(self):
        # with no coordinate no meet is nonzero: the all-zeros pattern fails
        for n in range(5):
            fam = Family(0, (), ((),) * n)
            ok, witness = is_independent(fam, range(n))
            assert not ok
            assert witness.pattern == (0,) * n
            assert (witness.gamma, witness.nabla) == ((), tuple(range(n)))

    def test_subset_monotonicity(self):
        rng = random.Random(21)
        for _ in range(50):
            fam = random_family(rng, 2, (8, 8), 4)
            ok, _ = is_independent(fam, range(4))
            if ok:
                for sub in itertools.combinations(range(4), 3):
                    assert is_independent(fam, sub)[0]


def _elements(p):
    if p == 0:
        return st.just(algebra.empty(0))
    points = st.sets(st.integers(min_value=0, max_value=p - 1))
    return points.map(lambda pts: algebra.from_point_set(p, pts))


@st.composite
def independence_cases(draw):
    """(family, indices): up to 3 coordinates at order sizes 0-9, each
    member fresh, a repeat of the one before it or its complement, and
    the indices a subset in any order."""
    kappa = draw(st.integers(min_value=0, max_value=3))
    sizes = st.integers(min_value=0, max_value=9)
    order_sizes = tuple(draw(st.lists(sizes, min_size=kappa, max_size=kappa)))
    members = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        kind = draw(st.sampled_from(["fresh", "repeat", "complement"]))
        if kind == "repeat" and members:
            members.append(members[-1])
        elif kind == "complement" and members:
            members.append(tuple(map(algebra.complement, members[-1])))
        else:
            members.append(tuple(draw(_elements(p)) for p in order_sizes))
    positions = st.integers(min_value=0, max_value=max(len(members) - 1, 0))
    indices = draw(st.lists(positions, unique=True, max_size=len(members)))
    return Family(kappa, order_sizes, tuple(members)), indices


_a, _b = algebra.from_point_set(4, {0, 1}), algebra.from_point_set(4, {0, 2})
_not_a = algebra.complement(_a)
_e0 = algebra.empty(0)


class TestIndependenceAgainstOracle:
    @given(independence_cases())
    @example((Family(1, (0,), ()), []))  # n = 0 at order size 0: dependent
    @example((Family(2, (0, 5), ()), []))  # n = 0 at order size > 0
    @example((Family(0, (), ((),) * 3), [2, 0, 1]))  # kappa 0
    @example((single_coordinate(1, [algebra.full(1), algebra.empty(1)]), [0, 1]))
    @example((single_coordinate(1, [algebra.full(1)]), [0]))  # order size 1
    @example((single_coordinate(4, [_a, _not_a, _b]), [0, 1, 2]))  # a next to ~a
    @example((single_coordinate(4, [_b, _a, _a]), [1, 2, 0]))  # repeated members
    # kappa 2, only the second coordinate can be nonzero
    @example((Family(2, (0, 4), ((_e0, _a), (_e0, _b))), [0, 1]))
    @example((Family(2, (0, 4), ((_e0, _a), (_e0, _not_a))), [1, 0]))
    @example((Family.from_columns((3, 4), [[algebra.empty(3)] * 2, [_a, _b]]), [0, 1]))
    @settings(max_examples=300)
    def test_matches_naive(self, case):
        fam, indices = case
        assert is_independent(fam, indices) == naive_is_independent(fam, indices)


class TestIndependenceWork:
    """algebra.meet and algebra.complement calls that is_independent makes,
    pinned: each chosen member is complemented once per coordinate, and a
    pattern's meet folds from its first signed member, n - 1 meets a
    coordinate when no prefix of it is empty."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = Counter()
        for name in ("meet", "complement"):

            def counting(*args, op=getattr(algebra, name), name=name):
                calls[name] += 1
                return op(*args)

            monkeypatch.setattr(algebra, name, counting)
        return calls

    @pytest.mark.parametrize("n", range(1, 9))
    def test_binary_coding_family(self, calls, n):
        assert is_independent(binary_coding_family(n), range(n)) == (True, None)
        assert (calls["meet"], calls["complement"]) == ((1 << n) * (n - 1), n)

    def test_stops_at_the_first_empty_prefix(self, calls):
        # ~a meet a is empty, so pattern (0, 0, 0) fails after one meet
        fam = single_coordinate(4, [_a, _not_a, _b])
        assert is_independent(fam, [0, 1, 2])[1].pattern == (0, 0, 0)
        assert (calls["meet"], calls["complement"]) == (1, 3)

    def test_two_coordinates(self, calls):
        rng = random.Random(26)
        for n in range(7):
            for _ in range(20):
                fam = random_family(rng, 2, (8, 8), n)
                calls.clear()
                is_independent(fam, range(n))
                assert calls["complement"] <= n * fam.kappa
                assert calls["meet"] <= (1 << n) * max(n - 1, 0) * fam.kappa


def _pattern_term(pattern):
    t = None
    for i, s in enumerate(pattern):
        lit = terms.Var(i) if s else terms.Compl(terms.Var(i))
        t = lit if t is None else terms.Meet(t, lit)
    return t


def binary_coding_family(n):
    """n elements over order size 2^n: element i holds points with bit i."""
    p = 1 << n
    return single_coordinate(
        p,
        [
            algebra.from_point_set(p, [x for x in range(p) if x >> i & 1])
            for i in range(n)
        ],
    )


@pytest.mark.parametrize("n", range(1, 9))
def test_binary_coding_family_independent(n):
    fam = binary_coding_family(n)
    ok, _ = is_independent(fam, range(n))
    assert ok


class TestAtomCountBound:
    """No single-coordinate independent set of size n fits when 2^n > p."""

    @pytest.mark.parametrize("p", range(0, 5))
    def test_exhaustive_small(self, p):
        elements = list(all_elements(p))
        for n in range(1, 5):
            if (1 << n) <= p:
                continue
            for combo in itertools.combinations(range(len(elements)), n):
                fam = single_coordinate(p, [elements[i] for i in combo])
                assert not is_independent(fam, range(n))[0]

    @pytest.mark.parametrize("p", range(5, 9))
    def test_sampled_larger(self, p):
        rng = random.Random(p)
        n = p.bit_length()  # smallest n with 2^n > p
        for _ in range(1000):
            chosen = [random_element(rng, p) for _ in range(n)]
            fam = single_coordinate(p, chosen)
            assert not is_independent(fam, range(n))[0]


def test_definition_equivalence_bridge():
    """Minterm-based independence matches the all-nontrivial-terms phrasing."""
    from .test_terms import random_term

    rng = random.Random(31)
    checked = 0
    while checked < 20:
        n = rng.randint(2, 4)
        fam = random_family(rng, 2, (8, 8), n)
        ok, witness = is_independent(fam, range(n))
        if ok:
            checked += 1
            for _ in range(50):
                t = random_term(rng, 4, n)
                if not oracle_is_nontrivial(t):
                    continue
                assert not is_zero(prod_eval(t, fam, range(n)))
        else:
            # the failing minterm is itself a nontrivial term evaluating to 0
            t = _pattern_term(witness.pattern)
            assert oracle_is_nontrivial(t)
            assert is_zero(prod_eval(t, fam, range(n)))
