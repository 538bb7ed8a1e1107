"""Exact arithmetic in interval Boolean algebras over finite linear orders.

An order of size p is always {0, ..., p-1} with the natural order (only the
order type matters).  Elements are finite unions of half-open intervals
[s, t) stored as a flat, strictly increasing endpoint list.  Legal endpoints
are -inf, +inf and the interior points 1..p-1; the minimum point 0 never
appears as an endpoint, so every element has exactly one representation and
endpoint-list equality is set equality.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from .errors import InputError

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


@dataclass(frozen=True)
class Element:
    """A member of B(I) in canonical form.

    endpoints has even length 2n and is strictly increasing; the denoted
    point set is the union of [endpoints[2i], endpoints[2i+1]) over i < n.
    """

    order_size: int
    endpoints: tuple

    def __post_init__(self):
        p, eps = self.order_size, self.endpoints
        if p < 0:
            raise InputError(f"negative order size {p}")
        if len(eps) % 2 != 0:
            raise InputError(f"odd endpoint count: {eps}")
        if p == 0 and eps:
            raise InputError("the empty order admits only the empty element")
        for i, e in enumerate(eps):
            if e != NEG_INF and e != POS_INF and not is_interior(e, p):
                raise InputError(f"endpoint {e!r} outside I* for order size {p}")
            if i > 0 and not eps[i - 1] < e:
                raise InputError(f"endpoints not strictly increasing: {eps}")

    def is_empty(self) -> bool:
        return not self.endpoints

    def is_full(self) -> bool:
        return self.endpoints == (NEG_INF, POS_INF)

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


@dataclass(frozen=True)
class Sigma:
    """Endpoint data of an element: sigma = sigma_minus + {-inf, +inf}."""

    sigma_minus: frozenset
    sigma: frozenset
    n_a: int
    vec_sigma: tuple
    span: tuple | None  # (least, greatest) finite endpoint, None if none


def empty(order_size: int) -> Element:
    return Element(order_size, ())


def full(order_size: int) -> Element:
    if order_size == 0:
        return empty(0)
    return Element(order_size, (NEG_INF, POS_INF))


def from_point_set(order_size: int, points) -> Element:
    pts = sorted(set(points))
    if pts and not (0 <= pts[0] and pts[-1] < order_size):
        raise InputError(f"point outside 0..{order_size - 1}: {pts}")
    eps = []
    i = 0
    while i < len(pts):
        j = i
        while j + 1 < len(pts) and pts[j + 1] == pts[j] + 1:
            j += 1
        lo = NEG_INF if pts[i] == 0 else pts[i]
        hi = POS_INF if pts[j] + 1 == order_size else pts[j] + 1
        eps.extend((lo, hi))
        i = j + 1
    return Element(order_size, tuple(eps))


def to_point_set(a: Element) -> set:
    out = set()
    for i in range(0, len(a.endpoints), 2):
        s, t = a.endpoints[i], a.endpoints[i + 1]
        start = 0 if s == NEG_INF else int(s)
        stop = a.order_size if t == POS_INF else int(t)
        out.update(range(start, stop))
    return out


def _member_at(endpoints: tuple, x) -> bool:
    """Membership on [x, next endpoint); constant between endpoints."""
    return bisect_right(endpoints, x) % 2 == 1


_BINOPS = {
    "meet": lambda u, v: u and v,
    "join": lambda u, v: u or v,
    "symdiff": lambda u, v: u != v,
}


def binop(kind: str, a: Element, b: Element) -> Element:
    if a.order_size != b.order_size:
        raise InputError(
            f"mismatched order sizes: {a.order_size} != {b.order_size}"
        )
    try:
        op = _BINOPS[kind]
    except KeyError:
        raise InputError(f"unknown operation {kind!r}") from None
    out = []
    inside = False
    for x in sorted(set(a.endpoints) | set(b.endpoints)):
        now = op(_member_at(a.endpoints, x), _member_at(b.endpoints, x))
        if now != inside:
            out.append(x)
            inside = now
    return Element(a.order_size, tuple(out))


def meet(a: Element, b: Element) -> Element:
    return binop("meet", a, b)


def join(a: Element, b: Element) -> Element:
    return binop("join", a, b)


def symdiff(a: Element, b: Element) -> Element:
    return binop("symdiff", a, b)


def complement(a: Element) -> Element:
    if a.order_size == 0:
        return a
    eps = list(a.endpoints)
    if eps and eps[0] == NEG_INF:
        del eps[0]
    else:
        eps.insert(0, NEG_INF)
    if eps and eps[-1] == POS_INF:
        del eps[-1]
    else:
        eps.append(POS_INF)
    return Element(a.order_size, tuple(eps))


def sigma_of(a: Element) -> Sigma:
    minus = frozenset(a.endpoints)
    sig = minus | {NEG_INF, POS_INF}
    vec = tuple(sorted(sig))
    span = (vec[1], vec[-2]) if len(vec) > 2 else None
    return Sigma(minus, sig, len(sig), vec, span)


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
    window_lo = NEG_INF if lo_clip == 0 else lo_clip
    window_hi = POS_INF if hi_clip == p else hi_clip
    clipped = meet(a, Element(p, (window_lo, window_hi)))
    out = []
    for e in clipped.endpoints:
        if e == NEG_INF:
            out.append(NEG_INF)
            continue
        if e == POS_INF:
            out.append(POS_INF)
            continue
        shifted = int(e) - lo_clip
        if shifted <= 0:
            out.append(NEG_INF)
        elif shifted >= q:
            out.append(POS_INF)
        else:
            out.append(shifted)
    return Element(q, tuple(out))
