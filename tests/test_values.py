"""Value semantics of every intalg value class: equality over every field,
the hash of their tuple, immutability, a dataclass-style repr, positional
construction, and copy and pickle round trips."""

import copy
import inspect
import pickle

import pytest

from intalg import algebra, homogeneity, product, search, terms, triples
from intalg.algebra import NEG_INF, POS_INF, Element
from intalg.errors import Value

E, E2 = Element(40, (3, 9)), Element(40, (3, 10))
X0, X1 = terms.Var(0), terms.Var(1)
V = homogeneity.Violation(3, (0, 1), "no gap")
R = homogeneity.HomogeneityReport(False, None, V)
R2 = homogeneity.HomogeneityReport(True, [[], [0]], None)
EV = search.CoordinateEvidence(0, (1,), "inside")
EV2 = search.CoordinateEvidence(1, (0,), None)
CERT = search.Certificate((0, 1, 2, 3), search.TERM_QUAD, "quadruple", (EV,))

# (class, field names, field values, other field values); the tests swap in
# one other value at a time.
# A second row of a class keeps the index of a class that was removed, so
# every other row keeps its test IDs.
CASES = [
    (Element, ("order_size", "endpoints"), (40, (3, 9)), (41, (NEG_INF, 9))),
    (Element, ("order_size", "endpoints"), (5, ()), (3, (NEG_INF, POS_INF))),
    (homogeneity.Violation, ("clause", "pair", "detail"), (3, (0, 1), "no gap"), (1, (0, 2), "size")),
    (homogeneity.HomogeneityReport, ("ok", "ell", "violation"), (False, None, V), (True, [[], [0]], None)),
    (homogeneity.SemiHomogeneityReport, ("ok", "cuts", "segments"), (False, (NEG_INF, 5, POS_INF), (R,)), (True, (NEG_INF, POS_INF), (R2,))),
    (homogeneity.EllMatrix, ("vectors",), (((), ((0,),)),), ([[], [(1,)]],)),
    (
        homogeneity.ExtractionResult,
        ("indices", "parts", "ell", "strategy"),
        ((0, 1), ((NEG_INF, POS_INF),), ([[], [0]],), "greedy-nesting"),
        ((0, 2), ((NEG_INF, 5, POS_INF),), ([[], [1]],), "empty"),
    ),
    (product.Family, ("kappa", "order_sizes", "members"), (1, (40,), ((E,),)), (1, (40,), ((E2,),))),
    (product.Family, ("kappa", "order_sizes", "members"), (1, (40,), ()), (1, (41,), ())),
    (product.DependenceWitness, ("pattern", "gamma", "nabla"), ((1, 0), (0,), (1,)), ((0, 1), (1,), (0,))),
    (terms.Var, ("index",), (0,), (1,)),
    (terms.Zero, (), (), ()),
    (terms.One, (), (), ()),
    (terms.Meet, ("left", "right"), (X0, X1), (X1, terms.ONE)),
    (terms.Join, ("left", "right"), (X0, X1), (X1, terms.ONE)),
    (terms.SymDiff, ("left", "right"), (X0, X1), (X1, terms.ONE)),
    (terms.Compl, ("arg",), (X0,), (terms.ZERO,)),
    (terms.Meet, ("left", "right"), (terms.Compl(X0), terms.Join(X0, X1)), (X0, terms.Compl(X1))),
    (search.CoordinateEvidence, ("zeta", "ell", "side"), (0, (1,), "inside"), (1, (0,), None)),
    (
        search.Certificate,
        ("indices", "term", "mode", "per_coordinate"),
        ((0, 1, 2, 3), search.TERM_QUAD, "quadruple", (EV,)),
        ((1, 2, 3, 4), search.TERM_SHORT, "short", (EV2,)),
    ),
    (search.PipelineResult, ("certificate", "log"), (CERT, {"mode": "short"}), (None, {"mode": "symmetric"})),
    (search.PipelineResult, ("certificate", "log"), (None, {}), (CERT, {"mode": "quadruple"})),
    (triples.SweepReport, ("triples", "interior", "boundary", "counterexamples"), (10, 6, 4, ()), (11, 7, 3, (((3,), (4,), (5,)),))),
]

IDS = [f"{case[0].__name__}-{i}" for i, case in enumerate(CASES)]


def test_every_value_class_is_covered():
    assert len({case[0] for case in CASES}) == 19


def test_sigma_of_is_a_plain_tuple():
    # no value class: (shape, finite) compares, hashes and pickles as the
    # tuple it is
    sig = algebra.sigma_of(E)
    assert type(sig) is tuple and sig == ((4, False, False), (3, 9))
    assert hash(sig) == hash(((4, False, False), (3, 9)))
    assert sig != algebra.sigma_of(E2) == ((4, False, False), (3, 10))
    assert pickle.loads(pickle.dumps(sig)) == sig


def hash_or_type_error(value):
    try:
        return hash(value)
    except TypeError:
        return TypeError


@pytest.mark.parametrize("cls, names, values, others", CASES, ids=IDS)
class TestValueSemantics:
    def test_fields(self, cls, names, values, others):
        x = cls(*values)
        assert [getattr(x, f) for f in names] == list(values)

    def test_equality_reads_the_compared_fields(self, cls, names, values, others):
        x = cls(*values)
        assert x == cls(*values) and not x != cls(*values)
        assert x != (*values,) and x != object()
        for i in range(len(names)):
            if others[i] == values[i]:
                continue
            changed = cls(*values[:i], others[i], *values[i + 1 :])
            assert x != changed and not x == changed

    def test_hash_is_the_hash_of_the_compared_fields(self, cls, names, values, others):
        for vals in (values, others):
            x = cls(*vals)
            expected = hash_or_type_error(tuple(vals))
            assert hash_or_type_error(x) == expected

    def test_frozen(self, cls, names, values, others):
        x = cls(*values)
        for f in (*names, "extra"):
            with pytest.raises(AttributeError):
                setattr(x, f, 0)
            with pytest.raises(AttributeError):
                delattr(x, f)
        assert [getattr(x, f) for f in names] == list(values)
        assert not hasattr(x, "__dict__")

    def test_repr(self, cls, names, values, others):
        x = cls(*values)
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(names, values))
        assert repr(x) == f"{cls.__name__}({fields})"

    @pytest.mark.parametrize(
        "duplicate",
        [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_are_equal(self, cls, names, values, others, duplicate):
        x = cls(*values)
        y = duplicate(x)
        assert type(y) is cls and y == x
        assert [getattr(y, f) for f in names] == list(values)


def test_element_repr():
    assert repr(Element(40, (3, 9))) == "Element(order_size=40, endpoints=(3, 9))"


def test_own_inits_take_no_defaults():
    own = {case[0] for case in CASES if case[0].__init__ is not Value.__init__}
    assert own == {
        Element,
        product.Family,
        homogeneity.Violation,
        homogeneity.HomogeneityReport,
        homogeneity.SemiHomogeneityReport,
    }
    for cls in own:
        params = list(inspect.signature(cls.__init__).parameters.values())
        assert all(p.default is p.empty for p in params), cls


def test_value_init_takes_every_field_positionally():
    for cls, names, values, _ in CASES:
        if cls.__init__ is not Value.__init__:
            continue
        with pytest.raises(TypeError):
            cls(*values, None)
        if names:
            with pytest.raises(TypeError):
                cls(*values[:-1])
            with pytest.raises(TypeError):
                cls(*values[:-1], **{names[-1]: values[-1]})
