"""One recursive-descent grammar for every text input: set expressions and
the density, effect and model specs around them.

Set expressions (whitespace-insensitive, binary operators left-associative
with equal precedence; use grouping for anything else)::

    expr     := atom { ("|" | "&" | "\\" | "^") atom }
    atom     := "~" atom | interval | pointset | "R" | "empty" | "(" expr ")"
    interval := ("(" | "[") bound "," bound (")" | "]")
    pointset := "{" number { "," number } "}"
    bound    := number | "inf" | "-inf"       (infinite bounds must be open)
    number   := integer | decimal | integer "/" positive-integer

Decimals are read exactly ("0.25" denotes 1/4).  A "(" opens an interval when
its content has the shape "bound , bound"; otherwise it is grouping.

Specs are calls whose heads come from one table per sort::

    density := box(W) | triangle(H) | gaussian(SIGMA)
    effect  := const(C) | smear(SET; density) | neg(effect)
             | scale(A; effect) | oplus(effect; effect)
    model   := uniform(LO, HI) | gaussian(MEAN, SIGMA)
             | mix(W*part; W*part; ...)     (a part is uniform or gaussian)

A spec number is the raw text up to the next ",", ";", "*" or ")", read as a
Python Fraction literal ("1e400", "+1/2" and ".5" are numbers there); a model
number must also fit in a float.  A SET is the raw text up to the next ";",
read by :func:`parse_set_expr`.  A syntax error, or a value a constructor
refuses with ``ValueError``, is a :class:`SetExprError` carrying its position.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .common import NEG_INF, POS_INF
from .effects import box, constant, gaussian, neg, oplus, scale, smear, triangle
from .errors import SetExprError
from .intervals import EMPTY, REALS, Interval, IntervalSet, combine, complement, points
from .states import Mixture, normal, uniform

# one token after optional whitespace; "other" is any character the grammar
# does not know
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<ninf>-inf\b)"
    r"|(?P<number>-?\d+(?:\.\d+)?(?:/\d+)?)"
    r"|(?P<name>[A-Za-z]+)"
    r"|(?P<sym>[|&\\^~(){}\[\],;*])"
    r"|(?P<eof>\Z)"
    r"|(?P<other>.))",
    re.S,
)
_NUMBER_TEXT = re.compile(r"[^,;*)]*")
_SET_TEXT = re.compile(r"[^;]*")

_OPS = {"|": "union", "&": "intersect", "\\": "diff", "^": "symmdiff"}


def _rational(text: str, pos: int) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise SetExprError(f"not a rational literal: {text.strip()!r}", pos) from None


class _Parser:
    """Scans one token ahead; ``tok`` is the current (kind, value, pos)."""

    def __init__(self, text: str):
        self.text = text
        self.seek(0)

    def seek(self, pos: int):
        """Make the first token at or after ``pos`` the current one."""
        m = _TOKEN_RE.match(self.text, pos)
        i = m.lastindex
        self.tok = (m.lastgroup, m.group(i), m.start(i))
        self.end = m.end()

    def advance(self):
        tok = self.tok
        self.seek(self.end)
        return tok

    def expect(self, sym: str):
        kind, value, pos = self.advance()
        if value != sym:
            raise SetExprError(f"expected {sym!r}", pos)

    def parse(self, reader: str):
        result = self.read(reader)
        kind, value, pos = self.tok
        if kind != "eof":
            raise SetExprError(f"unexpected {value!r} after expression", pos)
        return result

    def read(self, reader: str):
        if reader in _HEADS:
            return self.spec(reader)
        return getattr(self, reader)()

    # -- set expressions ---------------------------------------------------

    def expr(self) -> IntervalSet:
        node = self.atom()
        while self.tok[1] in _OPS:
            value = self.advance()[1]
            if value != "|":
                node = combine(_OPS[value], node, self.atom())
                continue
            # a run of unions is normalised once, not folded pairwise
            run = [node, self.atom()]
            while self.tok[1] == "|":
                self.advance()
                run.append(self.atom())
            node = IntervalSet.from_intervals(c for s in run for c in s.components)
        return node

    def atom(self) -> IntervalSet:
        kind, value, pos = self.tok
        if value == "~":
            self.advance()
            return complement(self.atom())
        if value == "[":
            return self.interval_body(strict=True)
        if value == "{":
            return self.pointset()
        if kind == "name":
            self.advance()
            if value == "R":
                return REALS
            if value == "empty":
                return EMPTY
            raise SetExprError(f"unknown name {value!r}", pos)
        if value == "(":
            interval = self.interval_body(strict=False)
            if interval is not None:
                return interval
            self.seek(pos + 1)  # past the "(", as grouping
            inner = self.expr()
            if self.tok[1] != ")":
                raise SetExprError("expected ')' to close grouping", self.tok[2])
            self.advance()
            return inner
        raise SetExprError("expected an interval, point set, 'R', 'empty', '~', or '('", pos)

    def interval_body(self, strict: bool) -> IntervalSet | None:
        """Parse "( bound , bound )"-shaped input starting at the open bracket.

        With ``strict=False`` a shape mismatch returns None, so the caller can
        retry the "(" as grouping; an interval the :class:`Interval`
        constructor refuses is always reported.
        """
        open_pos = self.tok[2]
        lo_closed = self.advance()[1] == "["
        lo = self.bound(strict)
        if lo is None or self.tok[1] != ",":
            if strict:
                raise SetExprError("expected ',' in interval", self.tok[2])
            return None
        self.advance()
        hi = self.bound(True)
        kind, value, pos = self.advance()
        if value not in (")", "]"):
            raise SetExprError("expected ')' or ']' to close interval", pos)
        hi_closed = value == "]"
        if lo == hi and not (lo_closed and hi_closed) and isinstance(lo, Fraction):
            return EMPTY  # (a,a), (a,a], [a,a) all denote the empty set
        try:
            return IntervalSet((Interval(lo, hi, lo_closed, hi_closed),))
        except ValueError as exc:
            raise SetExprError(str(exc), open_pos) from None

    def bound(self, strict: bool):
        kind, value, pos = self.tok
        if kind == "ninf":
            self.advance()
            return NEG_INF
        if value == "inf":
            self.advance()
            return POS_INF
        if kind == "number":
            self.advance()
            return _rational(value, pos)
        if strict:
            raise SetExprError("expected a number, 'inf', or '-inf'", pos)
        return None

    def pointset(self) -> IntervalSet:
        self.advance()  # "{"
        values = [self.finite_number()]
        while True:
            kind, value, pos = self.advance()
            if value == ",":
                values.append(self.finite_number())
            elif value == "}":
                return points(*values)
            else:
                raise SetExprError("expected ',' or '}' in point set", pos)

    def finite_number(self) -> Fraction:
        kind, value, pos = self.advance()
        if kind != "number":
            raise SetExprError("expected a finite number", pos)
        return _rational(value, pos)

    # -- specs -------------------------------------------------------------

    def spec(self, sort: str):
        heads = _HEADS[sort]
        kind, head, pos = self.advance()
        if head not in heads:
            raise SetExprError(f"unknown {sort} {head!r} (want {'/'.join(heads)})", pos)
        build, sep, readers = heads[head]
        self.expect("(")
        args = [self.read(readers[0])]
        for reader in readers[1:]:
            self.expect(sep)
            args.append(self.read(reader))
        self.expect(")")
        try:
            return build(*args)
        except ValueError as exc:
            raise SetExprError(str(exc), pos) from None

    def raw(self, pattern) -> tuple:
        """The raw text from the current token up to where ``pattern`` stops."""
        start = self.tok[2]
        end = pattern.match(self.text, start).end()
        self.seek(end)
        return self.text[start:end], start

    def number(self) -> Fraction:
        return _rational(*self.raw(_NUMBER_TEXT))

    def param(self) -> Fraction:
        pos = self.tok[2]
        value = self.number()
        try:
            float(value)
        except OverflowError:
            raise SetExprError("model parameter beyond float range", pos) from None
        return value

    def region(self) -> IntervalSet:
        text, start = self.raw(_SET_TEXT)
        try:
            return parse_set_expr(text)
        except SetExprError as exc:
            exc.pos += start
            raise

    def parts(self) -> tuple:
        parts = []
        while True:
            weight = self.param()
            self.expect("*")
            parts.append((weight, self.spec("part")))
            if self.tok[1] != ";":
                return tuple(parts)
            self.advance()


# sort -> head -> (constructor, argument separator, argument readers)
_HEADS = {
    "density": {
        "box": (box, "", ("number",)),
        "triangle": (triangle, "", ("number",)),
        "gaussian": (gaussian, "", ("number",)),
    },
    "effect": {
        "const": (constant, "", ("number",)),
        "smear": (smear, ";", ("region", "density")),
        "neg": (neg, "", ("effect",)),
        "scale": (scale, ";", ("number", "effect")),
        "oplus": (oplus, ";", ("effect", "effect")),
    },
    "model": {
        "uniform": (uniform, ",", ("param", "param")),
        "gaussian": (normal, ",", ("param", "param")),
        "mix": (Mixture, "", ("parts",)),
    },
}
_HEADS["part"] = {head: _HEADS["model"][head] for head in ("uniform", "gaussian")}


def parse_set_expr(text: str) -> IntervalSet:
    """Parse a set expression into its canonical :class:`IntervalSet`."""
    try:
        return _Parser(text).parse("expr")
    except SetExprError:
        # a character outside the set alphabet outranks any syntax error
        scan = _Parser(text)
        while scan.tok[0] != "eof":
            kind, value, pos = scan.advance()
            if kind == "other" or value in (";", "*"):
                raise SetExprError(f"unexpected character {value!r}", pos) from None
        raise


def parse_density_spec(text: str):
    """box(W) | triangle(H) | gaussian(SIGMA) for confidence densities."""
    return _Parser(text).parse("density")


def parse_effect_spec(text: str):
    """const(C) | smear(SET; DENSITY) | neg(E) | scale(A; E) | oplus(E; E)."""
    return _Parser(text).parse("effect")


def parse_model_spec(text: str):
    """uniform(A,B) | gaussian(MU,SIGMA) | mix(W*PART; ...) for densities."""
    return _Parser(text).parse("model")
