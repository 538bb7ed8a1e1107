"""Boolean term syntax, parsing and evaluation.

Grammar (precedence: unary '-' > '*' > '^' > '+', as in _INFIX):

    term := atom ( infix atom )*    left-associative, grouped by precedence
    atom := '-' atom | '(' term ')' | var | '0' | '1'
    var  := 'x' digit+

evaluate is the one evaluator.  A term is nonzero in some Boolean algebra
exactly when it is nonzero in the two-element algebra, which is B(I) at
order size 1, so nontriviality needs no truth table: evaluate the term at
order size 1 under each 0/1 assignment.
"""

from __future__ import annotations

from . import algebra
from .algebra import Element
from .errors import InputError, Value

MAX_VAR_INDEX = 10**6
# Bounds both the open '(' plus stacked '-' at any point of a term and the
# height of its tree in operators.  The parser spends two stack frames per
# '(' and one per '-', and render, evaluate and num_vars one per operator
# level, so a term at this depth needs about 400 frames: well
# inside Python's default recursion limit of 1000, with room for callers.
MAX_TERM_DEPTH = 200


class Term(Value):
    __slots__ = ()

    def __str__(self):
        return render(self)


class Var(Term):
    __slots__ = ("index",)


class Zero(Term):
    __slots__ = ()


class One(Term):
    __slots__ = ()


class Meet(Term):
    __slots__ = ("left", "right")


class Join(Term):
    __slots__ = ("left", "right")


class SymDiff(Term):
    __slots__ = ("left", "right")


class Compl(Term):
    __slots__ = ("arg",)


ZERO = Zero()
ONE = One()

# The binary operators: symbol -> (node class, precedence).
_INFIX = {"+": (Join, 1), "^": (SymDiff, 2), "*": (Meet, 3)}
# the same table by node class, for render and num_vars
_PRECEDENCE = {cls: (symbol, prec) for symbol, (cls, prec) in _INFIX.items()}


class ParseError(InputError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else None

    # term and atom return (node, height in operators)

    def node(self, cls, *parts) -> tuple:
        height = 1 + max(h for _, h in parts)
        if height > MAX_TERM_DEPTH:
            raise ParseError(
                f"term more than {MAX_TERM_DEPTH} operators high", self.pos
            )
        return cls(*(t for t, _ in parts)), height

    def term(self) -> tuple:
        """Atoms joined by infix operators, left-associative; an operator waits
        on a list while tighter ones follow, so only '(' and '-' recurse."""
        operands, ops = [self.atom()], []
        while True:
            cls, prec = _INFIX.get(self.peek(), (None, 0))
            while ops and ops[-1][1] >= prec:
                right = operands.pop()
                operands.append(self.node(ops.pop()[0], operands.pop(), right))
            if cls is None:
                return operands[0]
            self.pos += 1
            if prec < max(p for _, p in _INFIX.values()):
                ops.append((cls, prec))
                operands.append(self.atom())
            else:  # nothing binds tighter: build it before a peek skips spaces
                operands.append(self.node(cls, operands.pop(), self.atom()))

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
            self.pos += 1
            if c == "-":
                t = self.node(Compl, self.atom())
            else:
                t = self.term()
                if self.peek() != ")":
                    raise ParseError("expected ')'", self.pos)
                self.pos += 1
            self.depth -= 1
            return t
        if c in "01":
            self.pos += 1
            return (ONE if c == "1" else ZERO), 0
        if c == "x":
            self.pos += 1
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
    parser = _Parser(text)
    t, _ = parser.term()
    if parser.peek() is not None:
        raise ParseError(f"unexpected {parser.peek()!r}", parser.pos)
    return t


def render(t: Term) -> str:
    """Emit t with minimal parentheses; parse(render(t)) == t."""
    kind = type(t)
    if kind is Var:
        return f"x{t.index}"
    if kind is Zero or kind is One:
        return "1" if kind is One else "0"
    if kind is Compl:
        inner = render(t.arg)
        return f"-({inner})" if type(t.arg) in _PRECEDENCE else f"-{inner}"
    if kind not in _PRECEDENCE:
        raise InputError(f"unknown term node {t!r}")
    symbol, prec = _PRECEDENCE[kind]
    left, right = render(t.left), render(t.right)
    # parenthesise a looser operand, and a right one as loose (left
    # association); '-' and atoms bind tighter than any infix
    if _PRECEDENCE.get(type(t.left), ("", prec + 1))[1] < prec:
        left = f"({left})"
    if _PRECEDENCE.get(type(t.right), ("", prec + 1))[1] <= prec:
        right = f"({right})"
    return f"{left}{symbol}{right}"


def num_vars(t: Term) -> int:
    """One more than the largest variable index in t; 0 without variables."""
    kind = type(t)
    if kind is Var:
        return t.index + 1
    if kind in _PRECEDENCE:
        return max(num_vars(t.left), num_vars(t.right))
    if kind is Compl:
        return num_vars(t.arg)
    if kind is Zero or kind is One:
        return 0
    raise InputError(f"unknown term node {t!r}")


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
    return _evaluate(t, assignment, order_size)


def _evaluate(t: Term, assignment: list, order_size: int) -> Element:
    """evaluate's walk, once evaluate has checked t and the assignment.
    The element operations are looked up per node, so that a rebinding of
    algebra.meet and the rest (perfbench's tracer does it) takes effect."""
    kind = type(t)
    if kind is Var:
        return assignment[t.index]
    if kind in _PRECEDENCE:
        left = _evaluate(t.left, assignment, order_size)
        right = _evaluate(t.right, assignment, order_size)
        if kind is Meet:
            return algebra.meet(left, right)
        return (algebra.join if kind is Join else algebra.symdiff)(left, right)
    if kind is Compl:
        return algebra.complement(_evaluate(t.arg, assignment, order_size))
    # Zero or One: num_vars has rejected every other node
    return (algebra.full if kind is One else algebra.empty)(order_size)
