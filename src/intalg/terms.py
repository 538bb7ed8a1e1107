"""Boolean term syntax, parsing and evaluation.

Grammar (precedence: unary '-' > '*' > '^' > '+'):

    term   := xor ( '+' xor )*
    xor    := factor ( '^' factor )*
    factor := atom ( '*' atom )*
    atom   := '-' atom | '(' term ')' | var | '0' | '1'
    var    := 'x' digit+

Nontriviality is decided by truth-table enumeration in the two-element
algebra: a term is nonzero in some algebra under some assignment exactly
when some sign vector satisfies it.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import algebra
from .algebra import Element
from .errors import CapacityError, InputError

MAX_TRUTH_TABLE_VARS = 20
MAX_VAR_INDEX = 10**6
# Bounds both the open '(' plus stacked '-' at any point of a term and the
# height of its tree in operators.  The parser spends four stack frames per
# '(' and render, evaluate, num_vars and minterms one per operator level, so
# a term at this depth needs about 800 frames: inside Python's default
# recursion limit of 1000, with room for the callers.
MAX_TERM_DEPTH = 200


class Term:
    def __str__(self):
        return render(self)


@dataclass(frozen=True)
class Var(Term):
    index: int


@dataclass(frozen=True)
class Zero(Term):
    pass


@dataclass(frozen=True)
class One(Term):
    pass


@dataclass(frozen=True)
class Meet(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Join(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class SymDiff(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Compl(Term):
    arg: Term


ZERO = Zero()
ONE = One()


@dataclass(frozen=True)
class MintermSet:
    """Sign vectors on which a term evaluates to 1 in the free algebra."""

    n: int
    signs: frozenset


class ParseError(InputError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else None

    def take(self) -> str:
        c = self.peek()
        self.pos += 1
        return c

    def parse(self) -> Term:
        t, _ = self.term()
        if self.peek() is not None:
            raise ParseError(f"unexpected {self.peek()!r}", self.pos)
        return t

    # term, xor, factor and atom return (node, height in operators)

    def node(self, cls, *parts) -> tuple:
        height = 1 + max(h for _, h in parts)
        if height > MAX_TERM_DEPTH:
            raise ParseError(
                f"term more than {MAX_TERM_DEPTH} operators high", self.pos
            )
        return cls(*(t for t, _ in parts)), height

    def term(self) -> tuple:
        t = self.xor()
        while self.peek() == "+":
            self.take()
            t = self.node(Join, t, self.xor())
        return t

    def xor(self) -> tuple:
        t = self.factor()
        while self.peek() == "^":
            self.take()
            t = self.node(SymDiff, t, self.factor())
        return t

    def factor(self) -> tuple:
        t = self.atom()
        while self.peek() == "*":
            self.take()
            t = self.node(Meet, t, self.atom())
        return t

    def atom(self) -> tuple:
        c = self.peek()
        if c is None:
            raise ParseError("unexpected end of input", self.pos)
        if c in "-(":
            if self.depth == MAX_TERM_DEPTH:
                raise ParseError(
                    f"term nested deeper than {MAX_TERM_DEPTH}", self.pos
                )
            self.depth += 1
            self.take()
            if c == "-":
                t = self.node(Compl, self.atom())
            else:
                t = self.term()
                if self.peek() != ")":
                    raise ParseError("expected ')'", self.pos)
                self.take()
            self.depth -= 1
            return t
        if c == "0":
            self.take()
            return ZERO, 0
        if c == "1":
            self.take()
            return ONE, 0
        if c == "x":
            self.take()
            start = self.pos
            # ASCII digits only: str.isdigit also takes '²', which int() rejects
            while self.pos < len(self.text) and self.text[self.pos] in "0123456789":
                self.pos += 1
            if self.pos == start:
                raise ParseError("expected variable index after 'x'", self.pos)
            # int() refuses strings of more than 4300 digits; compare lengths first
            digits = self.text[start : self.pos].lstrip("0") or "0"
            if len(digits) > len(str(MAX_VAR_INDEX)) or int(digits) > MAX_VAR_INDEX:
                raise ParseError(f"variable index {digits} too large", start)
            return Var(int(digits)), 0
        raise ParseError(f"unexpected {c!r}", self.pos)


def parse(text: str) -> Term:
    return _Parser(text).parse()


_PRECEDENCE = {Join: 1, SymDiff: 2, Meet: 3, Compl: 4}
_INFIX = {Join: "+", SymDiff: "^", Meet: "*"}


def _prec(t: Term) -> int:
    return _PRECEDENCE.get(type(t), 5)


def render(t: Term) -> str:
    """Emit t with minimal parentheses; parse(render(t)) == t."""
    if isinstance(t, Var):
        return f"x{t.index}"
    if isinstance(t, Zero):
        return "0"
    if isinstance(t, One):
        return "1"
    if isinstance(t, Compl):
        inner = render(t.arg)
        if _prec(t.arg) < _prec(t):
            inner = f"({inner})"
        return f"-{inner}"
    p = _prec(t)
    left = render(t.left)
    if _prec(t.left) < p:
        left = f"({left})"
    right = render(t.right)
    if _prec(t.right) <= p:
        right = f"({right})"
    return f"{left}{_INFIX[type(t)]}{right}"


def num_vars(t: Term) -> int:
    if isinstance(t, Var):
        return t.index + 1
    if isinstance(t, Compl):
        return num_vars(t.arg)
    if isinstance(t, (Meet, Join, SymDiff)):
        return max(num_vars(t.left), num_vars(t.right))
    return 0


def evaluate(t: Term, assignment, order_size: int | None = None) -> Element:
    """Homomorphic evaluation of t in B(I) under x_i -> assignment[i]."""
    assignment = list(assignment)
    if order_size is None:
        if not assignment:
            raise InputError("constant evaluation needs an order size")
        order_size = assignment[0].order_size
    for a in assignment:
        if a.order_size != order_size:
            raise InputError("assignment mixes order sizes")
    if num_vars(t) > len(assignment):
        raise InputError(
            f"term uses {num_vars(t)} variables, got {len(assignment)}"
        )

    def go(node: Term) -> Element:
        if isinstance(node, Var):
            return assignment[node.index]
        if isinstance(node, Zero):
            return algebra.empty(order_size)
        if isinstance(node, One):
            return algebra.full(order_size)
        if isinstance(node, Compl):
            return algebra.complement(go(node.arg))
        if isinstance(node, Meet):
            return algebra.meet(go(node.left), go(node.right))
        if isinstance(node, Join):
            return algebra.join(go(node.left), go(node.right))
        if isinstance(node, SymDiff):
            return algebra.symdiff(go(node.left), go(node.right))
        raise InputError(f"unknown term node {node!r}")

    return go(t)


def minterms(t: Term, n: int) -> MintermSet:
    """Truth table of t over n variables; sign vector bit i is x_i."""
    if n > MAX_TRUTH_TABLE_VARS:
        raise CapacityError(f"{n} variables exceed cap {MAX_TRUTH_TABLE_VARS}")
    if n < num_vars(t):
        raise InputError(f"term uses {num_vars(t)} variables, n={n}")
    # Truth table as an int: bit r is row r, in which x_i is bit n-1-i of r.
    ones = (1 << (1 << n)) - 1

    def go(node: Term) -> int:
        if isinstance(node, Var):
            # blocks of 2^k zeros then 2^k ones, repeated, for k = n-1-i
            k = n - 1 - node.index
            return ones // ((1 << (2 << k)) - 1) * (((1 << (1 << k)) - 1) << (1 << k))
        if isinstance(node, Zero):
            return 0
        if isinstance(node, One):
            return ones
        if isinstance(node, Compl):
            return ones ^ go(node.arg)
        if isinstance(node, Meet):
            return go(node.left) & go(node.right)
        if isinstance(node, Join):
            return go(node.left) | go(node.right)
        if isinstance(node, SymDiff):
            return go(node.left) ^ go(node.right)
        raise InputError(f"unknown term node {node!r}")

    bits = bin(go(t))[:1:-1]  # bits[r] is row r
    signs = frozenset(
        tuple(r >> (n - 1 - i) & 1 for i in range(n))
        for r, bit in enumerate(bits)
        if bit == "1"
    )
    return MintermSet(n, signs)


def is_nontrivial(t: Term) -> bool:
    """True iff some assignment in some Boolean algebra makes t nonzero."""
    return bool(minterms(t, num_vars(t)).signs)
