"""Finite products of interval algebras and independence testing.

A family is an ordered list of product members; member alpha has one
element per coordinate zeta.  Independence of an index tuple is checked
by the elementary-product characterization: every sign pattern over the
chosen members must have a nonzero meet in at least one coordinate.
"""

from __future__ import annotations

import itertools
from operator import getitem

from . import algebra, terms
from .algebra import Element
from .errors import CapacityError, InputError, Value

MAX_INDEPENDENCE_ARITY = 16


class Family(Value):
    """members is a tuple of members, each a tuple of kappa Elements."""

    __slots__ = ("kappa", "order_sizes", "members")

    def __init__(self, kappa: int, order_sizes: tuple, members: tuple):
        super().__init__(kappa, order_sizes, members)
        if self.kappa != len(self.order_sizes):
            raise InputError("kappa does not match order_sizes")
        for member in self.members:
            if len(member) != self.kappa:
                raise InputError("member with wrong coordinate count")
            for zeta, a in enumerate(member):
                if a.order_size != self.order_sizes[zeta]:
                    raise InputError(
                        f"coordinate {zeta} has order size {a.order_size}, "
                        f"expected {self.order_sizes[zeta]}"
                    )

    def __len__(self) -> int:
        return len(self.members)

    def coordinate(self, zeta: int) -> list:
        return [member[zeta] for member in self.members]

    def to_dict(self) -> dict:
        return {
            "kappa": self.kappa,
            "order_sizes": list(self.order_sizes),
            "elements": [
                [a.to_json() for a in member] for member in self.members
            ],
        }

    @classmethod
    def from_columns(cls, order_sizes, columns, n_members=0) -> "Family":
        """The family whose coordinate zeta lists columns[zeta] in member
        order; without columns, n_members members with no coordinates."""
        if n_members < 0:
            raise InputError(f"negative member count {n_members}")
        if len(columns) != len(order_sizes):
            raise InputError("column count does not match order_sizes")
        members = tuple(zip(*columns)) if columns else ((),) * n_members
        if any(len(col) != len(members) for col in columns):
            raise InputError("columns differ in length")
        return cls(len(order_sizes), tuple(order_sizes), members)

    @classmethod
    def from_dict(cls, data: dict) -> "Family":
        try:
            kappa = data["kappa"]
            order_sizes = data["order_sizes"]
            raw_members = data["elements"]
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed family: {exc}") from exc
        _check_family_shape(kappa, order_sizes, raw_members)
        order_sizes = tuple(order_sizes)
        members = tuple(
            tuple(
                Element.from_json(order_sizes[zeta], eps)
                for zeta, eps in enumerate(member)
            )
            for member in raw_members
        )
        return cls(kappa, order_sizes, members)


def _is_count(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def _check_family_shape(kappa, order_sizes, raw_members) -> None:
    """Reject family JSON whose shape Family.from_dict cannot read."""
    if not _is_count(kappa):
        raise InputError(f"malformed family: kappa {kappa!r} is not a count")
    if not isinstance(order_sizes, list) or not all(map(_is_count, order_sizes)):
        raise InputError(
            f"malformed family: order_sizes {order_sizes!r} is not a list of counts"
        )
    if len(order_sizes) != kappa:
        raise InputError("kappa does not match order_sizes")
    if not isinstance(raw_members, list):
        raise InputError("malformed family: elements is not a list")
    for alpha, member in enumerate(raw_members):
        if (
            not isinstance(member, list)
            or len(member) != kappa
            or not all(isinstance(eps, list) for eps in member)
        ):
            raise InputError(
                f"malformed family: member {alpha} is not a list of {kappa} "
                "endpoint lists"
            )


class DependenceWitness(Value):
    """A violated sign pattern, reported as the disjoint index sets: gamma
    holds the positions taken plain, nabla those taken complemented."""

    __slots__ = ("pattern", "gamma", "nabla")


def prod_eval(t: terms.Term, fam: Family, indices) -> list:
    """Evaluate t coordinatewise on the chosen members."""
    indices = list(indices)
    for i in indices:
        if not 0 <= i < len(fam):
            raise InputError(f"member index {i} out of range")
    if terms.num_vars(t) > len(indices):
        raise InputError(
            f"term uses {terms.num_vars(t)} variables, got {len(indices)}"
        )
    return [
        terms.evaluate(
            t,
            [fam.members[i][zeta] for i in indices],
            order_size=fam.order_sizes[zeta],
        )
        for zeta in range(fam.kappa)
    ]


def is_zero(values) -> bool:
    """A product value is zero iff every coordinate is empty."""
    return all(a.is_empty() for a in values)


def _pattern_meet(order_size, signed, pattern) -> Element:
    """The meet of the members pattern picks, signed[j][sign] being member
    j (sign 1) or its complement (sign 0): the full element for an empty
    pattern.  It starts from the first pick, so n picks cost n - 1 meets,
    and stops at the first empty prefix."""
    picked = map(getitem, signed, pattern)
    acc = next(picked, None)
    if acc is None:
        return algebra.full(order_size)
    for a in picked:
        if acc.is_empty():
            break
        acc = algebra.meet(acc, a)
    return acc


def is_independent(fam: Family, indices):
    """Decide independence of the given members.

    Returns (True, None) or (False, witness) where the witness is the
    lexicographically least failing sign pattern.
    """
    indices = list(indices)
    n = len(indices)
    if n > MAX_INDEPENDENCE_ARITY:
        raise CapacityError(f"{n} indices exceed cap {MAX_INDEPENDENCE_ARITY}")
    if len(set(indices)) != n:
        raise InputError("duplicate member indices")
    for i in indices:
        if not 0 <= i < len(fam):
            raise InputError(f"member index {i} out of range")
    # per coordinate, each chosen member's pair (complement, member), built
    # once and indexed by the pattern's sign
    chosen = [fam.members[i] for i in indices]
    coordinates = [
        (p, [(algebra.complement(m[zeta]), m[zeta]) for m in chosen])
        for zeta, p in enumerate(fam.order_sizes)
    ]
    for pattern in itertools.product((0, 1), repeat=n):
        for p, signed in coordinates:
            if not _pattern_meet(p, signed, pattern).is_empty():
                break
        else:
            gamma = tuple(j for j, s in enumerate(pattern) if s == 1)
            nabla = tuple(j for j, s in enumerate(pattern) if s == 0)
            return False, DependenceWitness(pattern, gamma, nabla)
    return True, None
