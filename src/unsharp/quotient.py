"""Interval-set algebra modulo Lebesgue-null sets.

A :class:`QuotientClass` is the equivalence class of an interval set under
"differs by a null set".  The representative is kept in open-canonical form:
every component an open interval and consecutive components separated by gaps
of positive length.  Since adding or removing a null set cannot change that
form, class equality is a syntactic check on representatives.
"""

from __future__ import annotations

from .common import Frozen, as_fraction, is_infinite, set_field
from .errors import ZeroClassError
from .intervals import (
    EMPTY,
    REALS,
    IntervalSet,
    _keys,
    _make,
    combine,
    complement,
    interval,
    measure,
    membership,
)


class QuotientClass(Frozen):
    """A class of sets agreeing up to measure zero, by its open-canonical rep."""

    _fields = ("rep",)

    def __init__(self, rep: IntervalSet):
        vals, offs = rep._vals, rep._offs
        for k in range(0, len(vals), 2):
            if offs[k : k + 2] != b"\x01\x00":
                raise ValueError("representative components must be open")
            if k and vals[k] <= vals[k - 1]:
                raise ValueError("representative gaps must have positive length")
        set_field(self, "rep", rep)

    @property
    def is_zero(self) -> bool:
        return self.rep.is_empty

    @property
    def measure(self):
        return measure(self.rep)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        return str(self.rep)


def project(s: IntervalSet) -> QuotientClass:
    """Map a set to its class: drop null components, open endpoints, merge gaps
    of length zero.  The result differs from the input by a null set."""
    vals, keys = s._vals, _keys(s)
    out, out_keys = [], []
    for k in range(0, len(vals), 2):
        lo, hi = vals[k], vals[k + 1]
        # distinct keys mean distinct values; equal keys are checked exactly
        if keys[k] == keys[k + 1] and lo == hi:
            continue  # singleton, null
        if out and keys[k] == out_keys[-1] and lo == out[-1]:
            # closures touch (possible only at a shared endpoint)
            out[-1], out_keys[-1] = hi, keys[k + 1]
        else:
            out += (lo, hi)
            out_keys += (keys[k], keys[k + 1])
    return _class(_make(tuple(out), b"\x01\x00" * (len(out) // 2), tuple(out_keys)))


def _class(rep: IntervalSet) -> QuotientClass:
    """Trusted constructor: ``rep`` must already be open-canonical."""
    x = object.__new__(QuotientClass)
    set_field(x, "rep", rep)
    return x


ZERO = project(EMPTY)
UNIT = project(REALS)

_OP_ALIASES = {"join": "union", "meet": "intersect", "diff": "diff", "symmdiff": "symmdiff"}


def q_combine(op: str, x: QuotientClass, y: QuotientClass) -> QuotientClass:
    """Class operation, one of {join, meet, diff, symmdiff}; independent of the
    representatives because the result is re-projected."""
    try:
        set_op = _OP_ALIASES[op]
    except KeyError:
        raise ValueError(f"unknown class operation {op!r}") from None
    return project(combine(set_op, x.rep, y.rep))


def q_join(x: QuotientClass, y: QuotientClass) -> QuotientClass:
    return q_combine("join", x, y)


def q_meet(x: QuotientClass, y: QuotientClass) -> QuotientClass:
    return q_combine("meet", x, y)


def q_diff(x: QuotientClass, y: QuotientClass) -> QuotientClass:
    return q_combine("diff", x, y)


def q_symmdiff(x: QuotientClass, y: QuotientClass) -> QuotientClass:
    return q_combine("symmdiff", x, y)


def q_not(x: QuotientClass) -> QuotientClass:
    return project(complement(x.rep))


def q_leq(x: QuotientClass, y: QuotientClass) -> bool:
    """Order of the quotient algebra: x <= y iff x minus y is the zero class."""
    return q_diff(x, y).is_zero


def split(x: QuotientClass) -> tuple:
    """Split a nonzero class into two disjoint nonzero classes joining to it.

    Deterministic rule: with several components, the leftmost component is
    separated from the rest; a single bounded component is bisected at its
    midpoint; a single unbounded component has a unit interval carved off at
    its finite end (or (0,1) out of the whole line).
    """
    if x.is_zero:
        raise ZeroClassError("cannot split the zero class")
    comps = x.rep.components
    if len(comps) > 1:
        first = QuotientClass(IntervalSet(comps[:1]))
        rest = QuotientClass(IntervalSet(comps[1:]))
        return first, rest
    c = comps[0]
    lo, hi = c.lo, c.hi
    if not is_infinite(lo) and not is_infinite(hi):
        mid = (lo + hi) / 2
        return project(interval(lo, mid)), project(interval(mid, hi))
    if is_infinite(lo) and is_infinite(hi):
        carved = interval(0, 1)
    elif is_infinite(hi):
        carved = interval(lo, lo + 1)
    else:
        carved = interval(hi - 1, hi)
    rest = combine("diff", x.rep, carved)
    return project(carved), project(rest)


def point_membership_state(lam, s: IntervalSet) -> int:
    """Two-valued state of the unquotiented algebra at the point ``lam``:
    1 iff the point lies in the set.  Multiplicative over intersections and
    additive over disjoint unions by construction."""
    return 1 if membership(as_fraction(lam), s) else 0
