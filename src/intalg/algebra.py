"""Exact arithmetic in interval Boolean algebras over finite linear orders.

An order of size p is always {0, ..., p-1} with the natural order (only the
order type matters).  Elements are finite unions of half-open intervals
[s, t) stored as a flat, strictly increasing endpoint list.  Legal endpoints
are -inf, +inf and the interior points 1..p-1; the minimum point 0 never
appears as an endpoint, so every element has exactly one representation and
endpoint-list equality is set equality.

Every operation reads one parity rule: a point x is in an element exactly
when an odd number of its endpoints are <= x (-inf lies at or below every
point).  So an endpoint is a point where membership flips: complement
toggles -inf at the front and +inf at the back (the XOR with {-inf, +inf}),
symmetric difference XORs endpoint sets, meet clips the operand with more
endpoints to each interval of the other, O(k log n + output) for k
intervals against n endpoints (join is that clip by De Morgan), and
restrict bisects for the window's ends.  Slices, bisect and map do the
per-endpoint work in C, and every result is still validated as an Element.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import repeat
from operator import lt, sub

from .errors import InputError, Value

NEG_INF = float("-inf")
POS_INF = float("inf")

Endpoint = float  # -inf, +inf, or an interior point index (an int)


def is_interior(e: Endpoint, order_size: int) -> bool:
    return isinstance(e, int) and 1 <= e < order_size


def encode_endpoint(e: Endpoint):
    """Endpoint -> its JSON form: "-inf", "+inf" or a plain integer."""
    if e == NEG_INF:
        return "-inf"
    if e == POS_INF:
        return "+inf"
    return int(e)


def decode_endpoint(v) -> Endpoint:
    if v == "-inf":
        return NEG_INF
    if v == "+inf":
        return POS_INF
    if isinstance(v, bool) or not isinstance(v, int):
        raise InputError(f"bad endpoint encoding: {v!r}")
    return v


class Element(Value):
    """A member of B(I) in canonical form.

    endpoints has even length 2n and is strictly increasing; the denoted
    point set is the union of [endpoints[2i], endpoints[2i+1]) over i < n.
    """

    __slots__ = ("order_size", "endpoints")

    def __init__(self, order_size: int, endpoints: tuple):
        _set_order_size(self, order_size)
        _set_endpoints(self, endpoints)
        p, eps = order_size, endpoints
        if p < 0:
            raise InputError(f"negative order size {p}")
        if len(eps) % 2 != 0:
            raise InputError(f"odd endpoint count: {eps}")
        if p == 0 and eps:
            raise InputError("the empty order admits only the empty element")
        # the loop below is faster up to about 8 endpoints; a longer list is
        # checked in C (ints strictly inside an optional leading -inf and
        # trailing +inf, the least >= 1 and the greatest < p, strictly
        # increasing), and the loop then only runs to name a fault
        if len(eps) > 8:
            inner = eps[eps[0] == NEG_INF : len(eps) - (eps[-1] == POS_INF)]
            if (
                all(map(isinstance, inner, repeat(int)))
                and 1 <= inner[0]
                and inner[-1] < p
                and all(map(lt, eps, eps[1:]))
            ):
                return
        for i, e in enumerate(eps):
            if e != NEG_INF and e != POS_INF and not is_interior(e, p):
                raise InputError(f"endpoint {e!r} outside I* for order size {p}")
            if i > 0 and not eps[i - 1] < e:
                raise InputError(f"endpoints not strictly increasing: {eps}")

    def is_empty(self) -> bool:
        return not self.endpoints

    def __and__(self, other):
        return meet(self, other)

    def __or__(self, other):
        return join(self, other)

    def __xor__(self, other):
        return symdiff(self, other)

    def __invert__(self):
        return complement(self)

    def to_json(self) -> list:
        return [encode_endpoint(e) for e in self.endpoints]

    @classmethod
    def from_json(cls, order_size: int, data) -> "Element":
        return cls(order_size, tuple(decode_endpoint(v) for v in data))


# The slots' own setters, which bypass Value.__setattr__: a partition-extract
# pass builds about 59k Elements, and these cost less per field than
# object.__setattr__ (Element(40, (3, 9)) about 0.25 us less, Python 3.11 on
# 2 shared cores).
_set_order_size = Element.order_size.__set__
_set_endpoints = Element.endpoints.__set__


def empty(order_size: int) -> Element:
    return Element(order_size, ())


def full(order_size: int) -> Element:
    if order_size == 0:
        return empty(0)
    return Element(order_size, (NEG_INF, POS_INF))


def from_point_set(order_size: int, points) -> Element:
    pts = set(points)
    if pts and not (0 <= min(pts) and max(pts) < order_size):
        raise InputError(f"point outside 0..{order_size - 1}: {sorted(pts)}")
    # the x in 0..p at which membership flips between x - 1 and x
    flips = sorted(
        x for x in pts | {y + 1 for y in pts} if (x in pts) != (x - 1 in pts)
    )
    eps = (NEG_INF if x == 0 else POS_INF if x == order_size else x for x in flips)
    return Element(order_size, tuple(eps))


def to_point_set(a: Element) -> set:
    out = set()
    for i in range(0, len(a.endpoints), 2):
        s, t = a.endpoints[i], a.endpoints[i + 1]
        start = 0 if s == NEG_INF else int(s)
        stop = a.order_size if t == POS_INF else int(t)
        out.update(range(start, stop))
    return out


def _check_orders(a: Element, b: Element):
    if a.order_size != b.order_size:
        raise InputError(
            f"mismatched order sizes: {a.order_size} != {b.order_size}"
        )


def _clip(u: tuple, v: tuple, flip: int = 0) -> tuple:
    """Endpoints of u meet v (u meet ~v when flip is 1): v clipped to each
    interval [s, t) of u, by the parity rule.  s opens an interval of the
    result when an odd number of v's endpoints are <= s, v's endpoints
    strictly inside [s, t) follow, and t closes the interval when an odd
    number are < t.  Every point emitted is a real flip, so the output is
    canonical as it stands.  ~v has the same endpoints inside [s, t), and
    its counts differ from v's by one (the toggled -inf), so flip only
    inverts the two parity tests.  The loop runs once per interval of u, so
    callers pass the shorter list as u."""
    out = []
    j = 0
    it = iter(u)
    for s, t in zip(it, it):
        i = bisect_right(v, s, j)
        j = bisect_left(v, t, i)
        if (i ^ flip) & 1:
            out.append(s)
        out += v[i:j]
        if (j ^ flip) & 1:
            out.append(t)
    return tuple(out)


def _toggle(eps: tuple) -> tuple:
    """eps XOR {-inf, +inf}: the endpoints of the complement."""
    eps = eps[1:] if eps and eps[0] == NEG_INF else (NEG_INF,) + eps
    return eps[:-1] if eps[-1] == POS_INF else eps + (POS_INF,)


def meet(a: Element, b: Element) -> Element:
    _check_orders(a, b)
    u, v = a.endpoints, b.endpoints
    if len(u) > len(v):
        u, v = v, u
    return Element(a.order_size, _clip(u, v))


def join(a: Element, b: Element) -> Element:
    """De Morgan, ~(~u meet ~v), on endpoint tuples with u the shorter: the
    flip of _clip reads ~v off v, and one Element is built."""
    _check_orders(a, b)
    u, v = a.endpoints, b.endpoints
    if len(u) > len(v):
        u, v = v, u
    return Element(a.order_size, _toggle(_clip(_toggle(u), v, 1)))


def _xor(u: tuple, v: tuple) -> tuple:
    return tuple(sorted(set(u).symmetric_difference(v)))


def symdiff(a: Element, b: Element) -> Element:
    _check_orders(a, b)
    return Element(a.order_size, _xor(a.endpoints, b.endpoints))


def complement(a: Element) -> Element:
    if a.order_size == 0:
        return a
    return Element(a.order_size, _toggle(a.endpoints))


def sigma_of(a: Element) -> tuple:
    """(shape, finite): finite is a's finite endpoints, and shape holds
    what homogeneity compares outright: (n_a, whether a starts at -inf,
    whether it ends at +inf), where n_a = len(finite) + 2 is the size of
    a's endpoint set sigma with -inf and +inf added."""
    eps = a.endpoints
    starts, ends = eps[:1] == (NEG_INF,), eps[-1:] == (POS_INF,)
    finite = eps[starts : len(eps) - ends]
    return (len(finite) + 2, starts, ends), finite


def restrict(a: Element, lo: Endpoint, hi: Endpoint) -> Element:
    """a restricted to [lo, hi), re-indexed over the suborder it spans;
    a itself when the window covers the whole order."""
    p = a.order_size
    for e in (lo, hi):
        if e != NEG_INF and e != POS_INF and not (
            isinstance(e, int) and 0 <= e < p
        ):
            raise InputError(f"cut point {e!r} not in the extended order")
    if not lo < hi:
        raise InputError(f"empty restriction window [{lo}, {hi})")
    lo_clip = 0 if lo == NEG_INF else int(lo)
    hi_clip = p if hi == POS_INF else int(hi)
    q = hi_clip - lo_clip
    if q == p:
        return a
    if q == 0:
        return empty(0)
    # parity at the window's first point opens the result; the endpoints
    # strictly inside follow, shifted; parity below hi closes it
    eps = a.endpoints
    i = bisect_right(eps, lo_clip)
    j = bisect_left(eps, hi_clip, i)
    out = (NEG_INF,) if i & 1 else ()
    out += tuple(map(sub, eps[i:j], repeat(lo_clip))) if lo_clip else eps[i:j]
    if j & 1:
        out += (POS_INF,)
    return Element(q, out)
