"""Recursive-descent parser for set expressions.

Grammar (whitespace-insensitive, binary operators left-associative with equal
precedence; use grouping for anything else)::

    expr     := atom { ("|" | "&" | "\\" | "^") atom }
    atom     := "~" atom | interval | pointset | "R" | "empty" | "(" expr ")"
    interval := ("(" | "[") bound "," bound (")" | "]")
    pointset := "{" number { "," number } "}"
    bound    := number | "inf" | "-inf"       (infinite bounds must be open)
    number   := integer | decimal | integer "/" positive-integer

Decimals are read exactly ("0.25" denotes 1/4).  A "(" opens an interval when
its content has the shape "bound , bound"; otherwise it is grouping.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .common import NEG_INF, POS_INF
from .errors import SetExprError
from .intervals import EMPTY, REALS, Interval, IntervalSet, combine, complement, points

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<ninf>-inf\b)"
    r"|(?P<number>-?\d+(?:\.\d+)?(?:/\d+)?)"
    r"|(?P<name>[A-Za-z]+)"
    r"|(?P<sym>[|&\\^~(){}\[\],])"
)

_OPS = {"|": "union", "&": "intersect", "\\": "diff", "^": "symmdiff"}


def _tokenize(text: str):
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise SetExprError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("eof", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.idx = 0

    def peek(self):
        return self.tokens[self.idx]

    def advance(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def error(self, message: str):
        raise SetExprError(message, self.peek()[2])

    def parse(self) -> IntervalSet:
        result = self.expr()
        kind, value, pos = self.peek()
        if kind != "eof":
            raise SetExprError(f"unexpected {value!r} after expression", pos)
        return result

    def expr(self) -> IntervalSet:
        node = self.atom()
        while True:
            kind, value, _ = self.peek()
            if not (kind == "sym" and value in _OPS):
                return node
            self.advance()
            if value != "|":
                node = combine(_OPS[value], node, self.atom())
                continue
            # a run of unions is normalised once, not folded pairwise
            run = [node, self.atom()]
            while self.peek()[:2] == ("sym", "|"):
                self.advance()
                run.append(self.atom())
            node = IntervalSet.from_intervals(c for s in run for c in s.components)

    def atom(self) -> IntervalSet:
        kind, value, pos = self.peek()
        if kind == "sym" and value == "~":
            self.advance()
            return complement(self.atom())
        if kind == "sym" and value == "[":
            return self.interval_body(strict=True)
        if kind == "sym" and value == "{":
            return self.pointset()
        if kind == "name":
            self.advance()
            if value == "R":
                return REALS
            if value == "empty":
                return EMPTY
            raise SetExprError(f"unknown name {value!r}", pos)
        if kind == "sym" and value == "(":
            saved = self.idx
            try:
                return self.interval_body(strict=False)
            except _NotAnInterval:
                self.idx = saved
            self.advance()  # "("
            inner = self.expr()
            kind, value, pos = self.peek()
            if not (kind == "sym" and value == ")"):
                raise SetExprError("expected ')' to close grouping", pos)
            self.advance()
            return inner
        self.error("expected an interval, point set, 'R', 'empty', '~', or '('")

    def interval_body(self, strict: bool) -> IntervalSet:
        """Parse "( bound , bound )"-shaped input starting at the open bracket.

        With ``strict=False`` a shape mismatch raises the internal backtrack
        signal so the caller can retry the "(" as grouping; semantic errors
        (reversed or closed-infinite bounds) are always reported.
        """
        open_kind, open_val, open_pos = self.advance()
        lo_closed = open_val == "["
        lo = self.bound(strict)
        kind, value, pos = self.peek()
        if not (kind == "sym" and value == ","):
            if strict:
                raise SetExprError("expected ',' in interval", pos)
            raise _NotAnInterval
        self.advance()
        hi = self.bound(True)
        kind, value, pos = self.peek()
        if not (kind == "sym" and value in (")", "]")):
            raise SetExprError("expected ')' or ']' to close interval", pos)
        self.advance()
        hi_closed = value == "]"
        if lo == NEG_INF and lo_closed:
            raise SetExprError("infinite bounds must be open", open_pos)
        if hi == POS_INF and hi_closed:
            raise SetExprError("infinite bounds must be open", pos)
        if isinstance(lo, Fraction) and isinstance(hi, Fraction):
            if lo > hi:
                raise SetExprError(f"malformed interval: {lo} > {hi}", open_pos)
            if lo == hi and not (lo_closed and hi_closed):
                return EMPTY  # (a,a), (a,a], [a,a) all denote the empty set
        return IntervalSet((Interval(lo, hi, lo_closed, hi_closed),))

    def bound(self, strict: bool):
        kind, value, pos = self.peek()
        if kind == "ninf":
            self.advance()
            return NEG_INF
        if kind == "name" and value == "inf":
            self.advance()
            return POS_INF
        if kind == "number":
            self.advance()
            return Fraction(value)
        if strict:
            raise SetExprError("expected a number, 'inf', or '-inf'", pos)
        raise _NotAnInterval

    def pointset(self) -> IntervalSet:
        self.advance()  # "{"
        values = [self.finite_number()]
        while True:
            kind, value, pos = self.peek()
            if kind == "sym" and value == ",":
                self.advance()
                values.append(self.finite_number())
            elif kind == "sym" and value == "}":
                self.advance()
                return points(*values)
            else:
                raise SetExprError("expected ',' or '}' in point set", pos)

    def finite_number(self) -> Fraction:
        kind, value, pos = self.peek()
        if kind != "number":
            raise SetExprError("expected a finite number", pos)
        self.advance()
        return Fraction(value)


class _NotAnInterval(Exception):
    """Internal backtracking signal; never escapes the parser."""


def parse_set_expr(text: str) -> IntervalSet:
    """Parse a set expression into its canonical :class:`IntervalSet`."""
    return _Parser(text).parse()
